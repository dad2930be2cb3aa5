"""Pinned structure reports: `decompose` and `upper-interval --above
omega1z|center` on every catalog (group, prime) with p dividing |G|, and
on twelve more p-groups whose Ω1 splits every way the structure theorem
allows.  Each report's JSON outside `timings`, its exit code and its
stderr are compared with the pinned ones, one test per group.  Groups of
order above 700 run `decompose` only.  Rewrite the pinned file only with
a change that means to change a report:
`PYTHONPATH=src python tests/test_structures.py`."""

import contextlib
import io
import json
import os
import tempfile

import pytest

from quillen import cli
from quillen import constructions as cs

GOLDEN_STRUCTURES = os.path.join(os.path.dirname(__file__), "golden",
                                 "structures.json")

# upper-interval on ES(3,2,exp_p)xC3 (order 729) alone takes about 15 s
INTERVAL_MAX_ORDER = 700


def _spec(kind, **params):
    return {"kind": kind, "params": params}


def _central(a, b):
    return _spec("central_product", a=a, b=b, order=2)


def _product(*factors):
    return _spec("direct_product", factors=list(factors))


D8, Q8 = _spec("dihedral", order=8), _spec("quaternion", order=8)
C2, C3, C4 = (_spec("cyclic", order=n) for n in (2, 3, 4))
ES27 = _spec("extraspecial", prime=3, n=1, variant="exp_p")
ES243 = _spec("extraspecial", prime=3, n=2, variant="exp_p")

EXTRA_SPECS = {
    "ES(2,3,+)": _spec("extraspecial", prime=2, n=3, variant="+"),
    "ES(2,3,-)": _spec("extraspecial", prime=2, n=3, variant="-"),
    "ES(3,2,exp_p)": ES243,
    "ES(3,2,exp_p)xC3": _product(ES243, C3),
    "ES27+xC3^2": _product(ES27, _spec("elementary_abelian", prime=3,
                                       rank=2)),
    "D8oD8oC4": _central(_central(D8, D8), C4),
    "Q8oC4": _central(Q8, C4),
    "D8oQ8oC4": _central(_central(D8, Q8), C4),
    "D8oC4xC2": _product(_central(D8, C4), C2),
    "D8oD8xC2": _product(_central(D8, D8), C2),
    "SD16oC4xC2": _product(_central(_spec("semidihedral", order=16), C4),
                           C2),
    "D8xD8": _product(D8, D8),
}

GROUPS = cs.catalog_names() + sorted(EXTRA_SPECS)


def _primes(n):
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def _run(args, tmp):
    """Exit code, JSON report outside `timings` (None when none is
    written) and stderr of one CLI run."""
    out = os.path.join(tmp, "r.json")
    if os.path.exists(out):
        os.remove(out)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(args + ["--format", "json", "--out", out])
    report = None
    if os.path.exists(out):
        with open(out) as fh:
            report = json.load(fh)
        report.pop("timings", None)
    return {"exit": code, "report": report, "stderr": err.getvalue()}


def structure_reports(name, tmp) -> list:
    """Every pinned structure command's outcome on one group."""
    if name in EXTRA_SPECS:
        spec = cs.GroupSpec.from_json(EXTRA_SPECS[name])
        path = os.path.join(tmp, "spec.json")
        with open(path, "w") as fh:
            json.dump(EXTRA_SPECS[name], fh)
        group = [path]
    else:
        spec = cs.catalog(name)
        group = ["--name", name]
    order = cs.build(spec).order
    commands = [["decompose"]]
    if order <= INTERVAL_MAX_ORDER:
        commands += [["upper-interval", "--above", "omega1z"],
                     ["upper-interval", "--above", "center"]]
    out = []
    for p in _primes(order):
        for cmd in commands:
            entry = {"command": cmd, "prime": p}
            entry.update(_run(cmd + group + ["--prime", str(p)], tmp))
            out.append(entry)
    return out


@pytest.mark.parametrize("name", GROUPS)
def test_structure_reports_match_pinned(name, tmp_path):
    with open(GOLDEN_STRUCTURES, encoding="utf-8") as fh:
        pinned = json.load(fh)[name]
    assert structure_reports(name, str(tmp_path)) == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {name: structure_reports(name, tmp) for name in GROUPS}
    with open(GOLDEN_STRUCTURES, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
