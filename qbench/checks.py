"""Output checks for the four workloads, and their self-test.

Every expected answer is computed here, apart from the program: closed
forms (Quillen's product theorem A_p(G x H) ~ A_p(G) * A_p(H), Solomon-Tits,
Milnor's join formula, wedge sums) and recomputations from the group's
multiplication table in ``oracle``.  Nothing here uses quillen's ``poset``
or ``homology`` modules; group tables come from ``quillen.constructions``.

``python3 qbench/checks.py`` runs the self-test: it runs a few small
operations of each workload, confirms that the checks accept the program's
answers, then perturbs each answer in several ways and confirms that the
check rejects every perturbation.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys

import oracle

ELLS = (2, 3, 1000003)  # fields for the torus-complex Betti numbers


class Facts:
    """Group facts computed apart from the program, cached by spec."""

    def __init__(self, constructions):
        self.cs = constructions
        self._groups = {}
        self._cache = {}

    def group(self, spec: dict) -> oracle.TableGroup:
        key = json.dumps(spec, sort_keys=True)
        if key not in self._groups:
            G = self.cs.build(self.cs.GroupSpec.from_json(spec))
            self._groups[key] = oracle.TableGroup(G.table)
        return self._groups[key]

    def fact(self, spec: dict, what: str, p: int):
        key = (json.dumps(spec, sort_keys=True), what, p)
        if key not in self._cache:
            G = self.group(spec)
            self._cache[key] = {
                "order": lambda: G.n,
                "torus_betti": lambda: {
                    ell: oracle.betti_mod(self.fact(spec, "torus", p)[1], ell)
                    for ell in ELLS},
                "o_p": lambda: len(G.o_p(p)),
                "o_p_prime": lambda: len(G.o_p_prime(p)),
                "p_length": lambda: G.p_length(p),
                "rank": lambda: G.sylow_rank(p),
                "sylow_count": lambda: G.sylow_count_order_p(p),
                "torus": lambda: oracle.torus_complex(G, p),
            }[what]()
        return self._cache[key]


def _expect_equal(errors: list, what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


# -- catalog-suite -----------------------------------------------------------


def check_catalog_row(expect: dict, rc: int, data: dict, facts: Facts) -> list:
    errors = []
    _expect_equal(errors, "exit code", rc, 0)
    _expect_equal(errors, "failures", data.get("failures"), [])
    rows = data.get("instances", [])
    if len(rows) != 1 or "results" not in rows[0]:
        return errors + ["expected one row with results"]
    row, p = rows[0], expect["prime"]
    res = row["results"]
    _expect_equal(errors, "checks run", sorted(res), sorted(expect["checks"]))
    for chk, r in res.items():
        if r.get("agrees") is False:
            errors.append(f"{chk}: agrees is false ({r.get('error')})")
    q = res.get("quillen")
    if q is None:
        return errors + ["no quillen result"]
    prof = oracle.profile_from_rows(q["profile"])
    if "brown" in res:
        _expect_equal(errors, "Brown profile",
                      oracle.profile_from_rows(res["brown"]["profile"]), prof)
    spec = {"kind": "named", "params": {"name": expect["name"]}}
    nodes, simplices = facts.fact(spec, "torus", p)
    _expect_equal(errors, "torus complex nodes", q["poset_nodes"], nodes)
    dim = max((len(s) for s in simplices), default=0) - 1
    _expect_equal(errors, "torus complex dim", q["dim"], dim)
    op_nontrivial = facts.fact(spec, "o_p", p) > 1
    _expect_equal(errors, "acyclic exactly when O_p(G) != 1",
                  not prof, op_nontrivial)
    for ell, betti in facts.fact(spec, "torus_betti", p).items():
        _expect_equal(errors, f"torus Betti numbers over F_{ell}",
                      oracle.betti_mod_from_integral(prof, ell, dim), betti)
    return errors


# -- cm-products ---------------------------------------------------------------


def check_cm_product(expect: dict, rc: int, data: dict, facts: Facts) -> list:
    errors = []
    _expect_equal(errors, "exit code", rc, 0)
    p, factors = expect["prime"], expect["factors"]
    k = len(factors)
    for f in factors:
        if (oracle.p_part(facts.fact(f, "order", p), p) != p
                or facts.fact(f, "o_p", p) != 1):
            errors.append(f"factor {f} outside the workload's design")
    spheres = math.prod(facts.fact(f, "sylow_count", p) - 1 for f in factors)
    _expect_equal(errors, "group order", data["group"]["order"],
                  math.prod(facts.fact(f, "order", p) for f in factors))
    mt = data["analyses"]["main_theorem"]
    comp = mt["computed"]
    _expect_equal(errors, "claim", mt["claim"], "main-cm")
    _expect_equal(errors, "agrees", mt["agrees"], True)
    _expect_equal(errors, "cohen_macaulay", comp.get("cohen_macaulay"), True)
    _expect_equal(errors, "CM verdict", (mt.get("cm") or {}).get(
        "cohen_macaulay"), True)
    _expect_equal(errors, "dim", comp["dim"], k - 1)
    want = {k - 1: (spheres, [])}
    _expect_equal(errors, "reduced homology",
                  oracle.profile_from_rows(comp["profile"]), want)
    _expect_equal(errors, "reported profile",
                  oracle.profile_from_rows(mt["profile"]), want)
    return errors


# -- group-products --------------------------------------------------------------


def check_group_product(expect: dict, rc: int, data: dict,
                        facts: Facts) -> list:
    errors = []
    _expect_equal(errors, "exit code", rc, 0)
    p, factors = expect["prime"], expect["factors"]
    gs = data["group"]

    def fact(what):
        return [facts.fact(f, what, p) for f in factors]

    order = math.prod(fact("order"))
    _expect_equal(errors, "group order", gs["order"], order)
    _expect_equal(errors, "solvable", gs["solvable"], True)
    _expect_equal(errors, "|P| = |G|_p", gs["sylow_order"],
                  oracle.p_part(order, p))
    _expect_equal(errors, "Sylow rank (additive)", gs["sylow_rank"],
                  sum(fact("rank")))
    _expect_equal(errors, "|O_p| (multiplicative)", gs["o_p_order"],
                  math.prod(fact("o_p")))
    _expect_equal(errors, "|O_p'| (multiplicative)", gs["o_p_prime_order"],
                  math.prod(fact("o_p_prime")))
    if expect["command"] == "plength":
        v = data["analyses"]["p_length"]
        ell = v["computed"]["p_length"]
        _expect_equal(errors, "agrees", v["agrees"], True)
        _expect_equal(errors, "l_p(G x H) = max l_p of the factors", ell,
                      max(fact("p_length")))
        if p < 5 and ell > 2:
            errors.append(f"l_p = {ell} > 2 for p = {p}")
    else:
        a = data["analyses"]
        _expect_equal(errors, "all_checks_pass", a.get("all_checks_pass"),
                      True)
        st = a.get("structure") or {}
        failed = [n for n, ok in st.get("checks", []) if not ok]
        if not st.get("checks") or failed:
            errors.append(f"decompose checks failed or missing: {failed}")
    return errors


# -- complex-homology ---------------------------------------------------------------


def check_complex(expect: dict, rc: int, data: dict, facts: Facts) -> list:
    errors = []
    _expect_equal(errors, "exit code", rc, 0)
    dim, want = oracle.expected_complex(expect["complex"])
    _expect_equal(errors, "dim", data["dim"], dim)
    _expect_equal(errors, "reduced homology",
                  oracle.profile_from_rows(data["profile"]), want)
    return errors


CHECKS = {
    "catalog-suite": check_catalog_row,
    "cm-products": check_cm_product,
    "group-products": check_group_product,
    "complex-homology": check_complex,
}


def check(workload: str, expect: dict, rc: int, data: dict,
          facts: Facts) -> list:
    """Error messages for one operation's output; empty when correct."""
    try:
        return CHECKS[workload](expect, rc, data, facts)
    except (KeyError, TypeError, IndexError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]


# -- self-test ---------------------------------------------------------------------


def _field(d, path):
    for key in path:
        d = d[key]
    return d


def _bump_betti(path):
    """Raise the Betti number in the top degree."""
    def mutate(d):
        _field(d, path)[-1]["betti"] += 1
    return mutate


def _set(path, value):
    """Replace an existing field by ``value`` or by ``value(old)``."""
    def mutate(d):
        *head, last = path
        old = _field(d, path)
        _field(d, head)[last] = value(old) if callable(value) else value
    return mutate


def _shift_homology(path):
    """Move every group one degree down."""
    def mutate(d):
        rows = _field(d, path)
        groups = [(r["betti"], r["torsion"]) for r in rows[1:]] + [(0, [])]
        for r, (b, t) in zip(rows, groups):
            r["betti"], r["torsion"] = b, t
    return mutate


def _zero_homology(*paths):
    def mutate(d):
        for path in paths:
            for r in _field(d, path):
                r["betti"], r["torsion"] = 0, []
    return mutate


def _add_torsion(path):
    def mutate(d):
        _field(d, path)[-1]["torsion"].append(2)
    return mutate


def _drop_torsion(path):
    def mutate(d):
        rows = [r for r in _field(d, path) if r["torsion"]]
        rows[-1]["torsion"] = rows[-1]["torsion"][1:]
    return mutate


ROW = ("instances", 0, "results")
MT = ("analyses", "main_theorem")

MUTATIONS = {
    "catalog-suite": {
        "a row agrees false": _set(ROW + ("cm", "agrees"), False),
        "a failure listed": _set(("failures",), lambda f: f + [{}]),
        "Brown profile differs": _bump_betti(ROW + ("brown", "profile")),
        "torus Betti number off": _bump_betti(ROW + ("quillen", "profile")),
        "both profiles acyclic while O_p = 1": _zero_homology(
            ROW + ("quillen", "profile"), ROW + ("brown", "profile")),
        "node count off": _set(ROW + ("quillen", "poset_nodes"),
                               lambda n: n + 1),
        "dim off": _set(ROW + ("quillen", "dim"), lambda n: n + 1),
    },
    "cm-products": {
        "Betti number off": _bump_betti(MT + ("computed", "profile")),
        "homology in the wrong degree": _shift_homology(
            MT + ("computed", "profile")),
        "torsion added": _add_torsion(MT + ("computed", "profile")),
        "dim off": _set(MT + ("computed", "dim"), lambda n: n + 1),
        "not Cohen-Macaulay": _set(MT + ("computed", "cohen_macaulay"),
                                   False),
        "CM verdict false": _set(MT + ("cm", "cohen_macaulay"), False),
        "verdict disagrees": _set(MT + ("agrees",), False),
        "group order off": _set(("group", "order"), lambda n: 2 * n),
    },
    "group-products": {
        "p-length off": _set(("analyses", "p_length", "computed",
                              "p_length"), lambda n: n + 1),
        "p-length 3": _set(("analyses", "p_length", "computed", "p_length"),
                           3),
        "p-length verdict false": _set(("analyses", "p_length", "agrees"),
                                       False),
        "|P| off": _set(("group", "sylow_order"), lambda n: 2 * n),
        "Sylow rank off": _set(("group", "sylow_rank"), lambda n: n + 1),
        "|O_p| off": _set(("group", "o_p_order"), lambda n: 2 * n),
        "|O_p'| off": _set(("group", "o_p_prime_order"), lambda n: 3 * n),
        "a decompose check false": _set(("analyses", "structure", "checks"),
                                        lambda c: c[:-1] + [[c[-1][0],
                                                             False]]),
        "all_checks_pass false": _set(("analyses", "all_checks_pass"),
                                      False),
    },
    "complex-homology": {
        "Betti number off": _bump_betti(("profile",)),
        "torsion dropped": _drop_torsion(("profile",)),
        "torsion 2 -> 4": _set(("profile",), lambda rows: [
            {**r, "torsion": [4 if t == 2 else t for t in r["torsion"]]}
            for r in rows]),
        "homology in the wrong degree": _shift_homology(("profile",)),
        "dim off": _set(("dim",), lambda n: n + 1),
    },
}

SELFTEST_CASES = {
    "catalog-suite": [("S3", 2), ("C7:C3", 3), ("D8", 2)],
    "cm-products": [(("S3", "S3"), 2), (("S3", "D10", "S3"), 2),
                    (("C7:C3", "C7:C3"), 3)],
    "group-products": [("plength", ("S4", "S3"), 2),
                       ("decompose", ("S4", "A4"), 2),
                       ("plength", ("SL(2,3)", "C7:C3"), 3)],
    "complex-homology": [{"kind": "join", "parts": [{"kind": "rp2"},
                                                    {"kind": "rp2"}]},
                         {"kind": "building", "n": 3, "q": 2},
                         {"kind": "wedge", "parts": [
                             {"kind": "building", "n": 3, "q": 3},
                             {"kind": "rp2"}]}],
}


def _selftest_ops(workload: str, out: str) -> list:
    """Small operations built with the workloads' own generators."""
    import random
    import inputs
    os.makedirs(out, exist_ok=True)
    return inputs.GENERATORS[workload](out, random.Random(0),
                                       SELFTEST_CASES[workload])


def self_test(out: str) -> int:
    import contextlib
    import io
    from quillen import cli, constructions
    facts = Facts(constructions)
    bad = 0
    for workload, mutations in MUTATIONS.items():
        ops = _selftest_ops(workload, os.path.join(out, workload))
        rejected = {name: 0 for name in mutations}
        for op in ops:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(op["argv"])
            data = json.loads(buf.getvalue())
            errors = check(workload, op["expect"], rc, data, facts)
            if errors:
                bad += 1
                print(f"FAIL {workload}: {op['name']} rejected: {errors}")
            if not check(workload, op["expect"], 2, data, facts):
                bad += 1
                print(f"FAIL {workload}: {op['name']} exit code 2 accepted")
            for name, mutate in mutations.items():
                d = copy.deepcopy(data)
                try:
                    mutate(d)
                except (KeyError, IndexError, TypeError):
                    continue  # the mutation does not apply to this output
                if d == data:
                    continue  # nor does one that changes nothing
                if check(workload, op["expect"], rc, d, facts):
                    rejected[name] += 1
                else:
                    bad += 1
                    print(f"FAIL {workload}: {op['name']}: perturbation "
                          f"'{name}' accepted")
        for name, n in rejected.items():
            if n == 0:
                bad += 1
                print(f"FAIL {workload}: perturbation '{name}' never applied")
        print(f"{workload}: {len(ops)} answers accepted, "
              f"{sum(rejected.values())} perturbed answers rejected "
              f"({len(mutations)} kinds)")
    print("self-test", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    import shutil
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "quillen", "cli.py")):
        sys.exit("error: run from a quillen checkout (src/quillen missing)")
    os.chdir(root)
    sys.path.insert(0, os.path.join(root, "src"))
    out = os.path.join(".qbench_out", f"selftest-{os.getpid()}")
    try:
        code = self_test(out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    sys.exit(code)
