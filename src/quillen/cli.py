"""Command-line front end: parse group specs, run analyses, emit
human-readable and JSON reports, and run the pinned verification suite.

Exit codes: 0 success, 1 input error or any other library error (a
`QuillenError`), 2 red alert (a verdict with ``agrees`` false, or a
decomposition guaranteed by a structure result that could not be
exhibited)."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Optional

from . import constructions as cs
from . import group as gp
from . import poset as ps
from . import theorems as th
from .errors import (
    DecompositionNotFound,
    GroupTooLarge,
    InvalidSpec,
    QuillenError,
)
from .group import DEFAULT_ELEMENT_CAP, TABLE_ORDER_CAP
from .homology import (
    HOMOLOGY_PROXY_CAVEAT,
    TorusComplex,
    poset_homology,
    reduced_homology,
)
from .report import VERSION, AnalysisReport, group_stats

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_RED_ALERT = 2

CAP_ENV_VAR = "QUILLEN_ELEMENT_CAP"

SUITE_CHECKS = ("quillen", "brown", "cm", "decompose", "pw", "plength",
                "main", "certs")


def _element_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ELEMENT_CAP
    try:
        return max(int(raw), DEFAULT_ELEMENT_CAP)
    except ValueError:
        raise InvalidSpec(f"{CAP_ENV_VAR} must be an integer, got {raw!r}")


def _load_spec(args) -> tuple:
    """(spec echo dict, GroupSpec) from --name or a spec-file path."""
    if args.name and args.spec:
        raise InvalidSpec("give either --name or a spec file, not both")
    if args.name:
        spec = cs.catalog(args.name)
        return {"catalog_name": args.name,
                "group_spec": spec.to_json()}, spec
    if not args.spec:
        raise InvalidSpec("a group is required: --name NAME or a spec file")
    try:
        data = json.loads(_read_input(args.spec, "spec"))
    except json.JSONDecodeError as e:
        raise InvalidSpec(f"spec file is not valid JSON: {e}")
    except RecursionError:
        raise InvalidSpec("spec file nests too deeply to parse") from None
    spec = cs.GroupSpec.from_json(data)
    return {"group_spec": spec.to_json()}, spec


def _read_input(path: str, what: str) -> str:
    """The text of the file at ``path``, or of stdin for ``-``."""
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise InvalidSpec(f"cannot read {what} file: {e}")


def _load_group(args) -> tuple:
    echo, spec = _load_spec(args)
    G = cs.build(spec, cap=_element_cap())
    if args.max_order and G.order > args.max_order:
        raise GroupTooLarge(
            f"group order {G.order} exceeds --max-order {args.max_order}")
    return echo, G


def _check_prime(p, what: str) -> int:
    """p, given as ``what``, if it is an int prime of at most
    TABLE_ORDER_CAP; InvalidSpec otherwise."""
    if p is None:
        raise InvalidSpec(f"{what} is required")
    if type(p) is not int:
        raise InvalidSpec(f"{what} must be a prime, got {p!r}")
    if not gp.is_prime_within_cap(p):
        raise InvalidSpec(
            f"{what} {p} exceeds the largest group order {TABLE_ORDER_CAP}"
            if p > TABLE_ORDER_CAP else f"{what} must be a prime, got {p}")
    return p


def _emit(report_text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_text)
    else:
        sys.stdout.write(report_text)


def _finish(report: AnalysisReport, args, exit_code: int) -> int:
    if args.format == "json":
        _emit(report.dumps(), args)
    else:
        _emit(report.render_text(), args)
    return exit_code


def _red(*agrees_values) -> int:
    return EXIT_RED_ALERT if any(v is False for v in agrees_values) \
        else EXIT_OK


# -- subcommands --------------------------------------------------------

@contextmanager
def _timer(timings: dict, key: str):
    t0 = time.perf_counter()
    yield
    timings[key] = time.perf_counter() - t0


def _group_command(args, command: str, run) -> int:
    """Shared frame of the group subcommands: require the prime, build
    G, run ``run(TorusComplex(G, p), timings) -> (analyses, code)``, add
    the group statistics and emit the report; each stage is timed."""
    p = _check_prime(args.prime, "--prime")
    timings = {}
    with _timer(timings, "build"):
        echo, G = _load_group(args)
    T = TorusComplex(G, p)
    analyses, code = run(T, timings)
    with _timer(timings, "stats"):
        stats = group_stats(T)
    report = AnalysisReport(command, echo, stats, analyses, timings)
    return _finish(report, args, code)


def cmd_quillen(args) -> int:
    def run(T, timings):
        with _timer(timings, "complex"):
            d = T.dim
        with _timer(timings, "homology"):
            prof = T.profile
        analyses = {"quillen": {"poset_nodes": len(T.poset), "dim": d,
                                "profile": prof.to_json()}}
        brown_agrees = None
        if args.brown:
            with _timer(timings, "brown"):
                # the homotopy equivalence with the torus complex holds
                # for the poset of ALL nontrivial p-subgroups, which
                # brown_poset gives (G itself included when a p-group)
                bprof = poset_homology(ps.brown_poset(T.group, T.prime))
            brown_agrees = bprof == prof
            analyses["brown"] = {"dim": bprof.dim, "profile": bprof.to_json(),
                                 "profiles_equal": brown_agrees}
        if args.export_complex:
            with open(args.export_complex, "w") as fh:
                fh.write(T.complex.export_text())
            analyses["quillen"]["exported_to"] = args.export_complex
        return analyses, _red(brown_agrees)
    return _group_command(args, "quillen", run)


def cmd_cm_check(args) -> int:
    def run(T, timings):
        with _timer(timings, "cm_check"):
            cm = T.cohen_macaulay.to_json()
        return {"cohen_macaulay": cm, "dim": T.dim}, EXIT_OK
    return _group_command(args, "cm-check", run)


def cmd_decompose(args) -> int:
    def run(T, timings):
        with _timer(timings, "decompose"):
            try:
                rep = th.omega1_structure(T.sylow, T.prime)
            except DecompositionNotFound as e:
                # a guaranteed decomposition that cannot be exhibited is
                # a red-alert finding, not an input error
                return {"structure": None, "all_checks_pass": False,
                        "error": str(e)}, EXIT_RED_ALERT
        return {"structure": rep.to_json(),
                "all_checks_pass": rep.all_checks_pass()}, \
            _red(rep.all_checks_pass())
    return _group_command(args, "decompose", run)


def _resolve_above(P, p: int, selector: str):
    G = P.parent
    if selector == "omega1z":
        return gp.omega1(gp.center(P), p)
    if selector == "center":
        return gp.center(P)
    if selector.startswith("gens:"):
        try:
            ids = [int(t) for t in selector[len("gens:"):].split(",")]
        except ValueError:
            raise InvalidSpec(f"bad --above selector {selector!r}")
        bad = [i for i in ids if not 0 <= i < G.order]
        if bad:
            raise InvalidSpec(f"element ids out of range: {bad}")
        return gp.subgroup_generated(G, ids)
    raise InvalidSpec(
        f"--above must be omega1z, center, or gens:i,j,... (got {selector!r})")


def cmd_upper_interval(args) -> int:
    def run(T, timings):
        P, p = T.sylow, T.prime
        X = _resolve_above(P, p, args.above)
        with _timer(timings, "interval"):
            verdict = th.upper_interval_check(P, p, X)
        return {"upper_interval": verdict.to_json(),
                "above": {"selector": args.above, "order": X.order}}, \
            _red(verdict.agrees)
    return _group_command(args, "upper-interval", run)


def _verdict_command(args, command: str, key: str, analysis: str,
                     check) -> int:
    """A group subcommand whose whole analysis is one theorem check."""
    def run(T, timings):
        with _timer(timings, key):
            verdict = check(T)
        return {analysis: verdict.to_json()}, _red(verdict.agrees)
    return _group_command(args, command, run)


def cmd_pw_verify(args) -> int:
    return _verdict_command(args, "pw-verify", "verify", "wedge_formula",
                            th.verify_pulkus_welker)


def cmd_plength(args) -> int:
    return _verdict_command(args, "plength", "plength", "p_length",
                            th.p_length_bound_check)


def cmd_main_check(args) -> int:
    return _verdict_command(args, "main-check", "main", "main_theorem",
                            th.main_theorem_check)


def cmd_homology(args) -> int:
    C = ps.SimplicialComplex.import_text(_read_input(args.file, "complex"))
    prof = reduced_homology(C)
    out = {"version": VERSION, "command": "homology", "dim": C.dim,
           "profile": prof.to_json(), "caveat": HOMOLOGY_PROXY_CAVEAT}
    if args.format == "json":
        _emit(json.dumps(out, sort_keys=True, indent=2) + "\n", args)
    else:
        _emit(f"dim {C.dim}\n{prof.describe()}\n", args)
    return EXIT_OK


# -- suite --------------------------------------------------------------

def _default_manifest_path() -> str:
    return os.path.join(os.path.dirname(__file__), "suite_manifest.json")


def _manifest_instances(manifest) -> list:
    """The instances of a suite manifest, each checked before any row
    runs: an object with a string name, a list of SUITE_CHECKS and a
    prime that passes the check of --prime."""
    rows = manifest.get("instances") if isinstance(manifest, dict) else None
    if not isinstance(rows, list):
        raise InvalidSpec("suite manifest must be an object with an "
                          "instances list")
    for k, inst in enumerate(rows):
        if not (isinstance(inst, dict) and isinstance(inst.get("name"), str)
                and isinstance(inst.get("checks"), list)
                and all(c in SUITE_CHECKS for c in inst["checks"])):
            raise InvalidSpec(f"manifest instance {k} needs a string name "
                              f"and a list of checks from "
                              f"{', '.join(SUITE_CHECKS)}: {inst!r}")
        _check_prime(inst.get("prime"), f"manifest instance {k} prime")
    return rows


def _run_instance(inst: dict, max_order: Optional[int]) -> dict:
    name, p, checks = inst["name"], inst["prime"], inst["checks"]
    results = {}
    timings = {}
    out = {"name": name, "prime": p, "results": results,
           "timings": timings}
    t0 = time.perf_counter()
    try:
        G = cs.catalog_group(name)
    except QuillenError as e:
        results["build"] = {"agrees": False,
                            "error": f"{type(e).__name__}: {e}"}
        return out
    timings["build"] = round(time.perf_counter() - t0, 3)
    if max_order and G.order > max_order:
        out["skipped"] = f"order {G.order} exceeds --max-order {max_order}"
        del out["results"], out["timings"]
        return out

    T = TorusComplex(G, p)
    for chk in checks:
        t0 = time.perf_counter()
        try:
            if chk == "quillen":
                results[chk] = {"agrees": None, "poset_nodes": len(T.poset),
                                "dim": T.dim,
                                "profile": T.profile.to_json()}
            elif chk == "brown":
                bprof = poset_homology(ps.brown_poset(G, p))
                results[chk] = {"agrees": bprof == T.profile,
                                "profile": bprof.to_json()}
            elif chk == "cm":
                cm = T.cohen_macaulay
                results[chk] = {"agrees": cm.cohen_macaulay,
                                "verdict": cm.to_json()}
            elif chk == "decompose":
                rep = th.omega1_structure(T.sylow, p)
                results[chk] = {"agrees": rep.all_checks_pass(),
                                "structure": rep.to_json()}
            elif chk == "pw":
                v = th.verify_pulkus_welker(T)
                results[chk] = {"agrees": v.agrees,
                                "verdict": v.to_json()}
            elif chk == "plength":
                v = th.p_length_bound_check(T)
                results[chk] = {"agrees": v.agrees, "verdict": v.to_json()}
            elif chk == "main":
                v = th.main_theorem_check(T)
                results[chk] = {"agrees": v.agrees, "claim": v.claim,
                                "verdict": v.to_json()}
            elif chk == "certs":
                op_nontrivial = T.o_p.order > 1
                acyclic = T.profile.is_trivial()
                conj = ps.find_conjunctive_element(T.poset)
                conj_ok = conj is None or acyclic
                results[chk] = {
                    "agrees": (op_nontrivial == acyclic) and conj_ok,
                    "o_p_nontrivial": op_nontrivial, "acyclic": acyclic,
                    "conjunctive_found": conj is not None}
        except QuillenError as e:
            results[chk] = {"agrees": False,
                            "error": f"{type(e).__name__}: {e}"}
        timings[chk] = round(time.perf_counter() - t0, 3)
    return out


def cmd_suite(args) -> int:
    path = args.manifest or _default_manifest_path()
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as e:
        raise InvalidSpec(f"cannot load suite manifest: {e}")
    instances = _manifest_instances(manifest)
    if args.only:
        wanted = set(args.only)
        instances = [i for i in instances if i["name"] in wanted]
        missing = wanted - {i["name"] for i in instances}
        if missing:
            raise InvalidSpec(f"names not in manifest: {sorted(missing)}")

    rows = [_run_instance(i, args.max_order) for i in instances]

    failures = []
    for row in rows:
        for chk, res in row.get("results", {}).items():
            if res.get("agrees") is False:
                failures.append({"name": row["name"], "prime": row["prime"],
                                 "check": chk,
                                 "error": res.get("error")})
    out = {"version": VERSION, "command": "suite",
           "manifest_version": manifest.get("version"),
           "instances": rows, "failures": failures,
           "caveat": HOMOLOGY_PROXY_CAVEAT}
    if args.format == "json":
        _emit(json.dumps(out, sort_keys=True, indent=2,
                         ensure_ascii=False) + "\n", args)
    else:
        lines = []
        for row in rows:
            if "skipped" in row:
                lines.append(f"{row['name']} p={row['prime']}: "
                             f"skipped ({row['skipped']})")
                continue
            for chk, res in row["results"].items():
                a = res.get("agrees")
                tag = {True: "ok", False: "RED ALERT", None: "info"}[a]
                lines.append(f"{row['name']} p={row['prime']} {chk}: {tag}")
        lines.append(f"failures: {len(failures)}")
        lines.append(f"note: {HOMOLOGY_PROXY_CAVEAT}")
        _emit("\n".join(lines) + "\n", args)
    return EXIT_RED_ALERT if failures else EXIT_OK


# -- argument parsing ---------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once and reused: each parse fills a new namespace."""
    parser = argparse.ArgumentParser(
        prog="quillen",
        description="Construct solvable groups, build p-subgroup "
                    "complexes, compute exact integral homology, and "
                    "verify structural predictions.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"),
                        default="text", help="output format")
    common.add_argument("--out", help="write the report to this path")

    grp = argparse.ArgumentParser(add_help=False, parents=[common])
    grp.add_argument("spec", nargs="?",
                     help="path to a group-spec JSON file ('-' for stdin)")
    grp.add_argument("--name", help="catalog group name")
    grp.add_argument("--prime", type=int, help="the prime p")
    grp.add_argument("--max-order", type=int, default=0,
                     help="refuse groups larger than this order")

    q = sub.add_parser("quillen", parents=[grp],
                       help="build the torus complex and its homology")
    q.add_argument("--brown", action="store_true",
                   help="also build the full p-subgroup complex and "
                        "compare homology profiles")
    q.add_argument("--export-complex",
                   help="write the complex in simplex-list text format")
    q.set_defaults(func=cmd_quillen)

    c = sub.add_parser("cm-check", parents=[grp],
                       help="Cohen-Macaulay check for the torus complex")
    c.set_defaults(func=cmd_cm_check)

    d = sub.add_parser("decompose", parents=[grp],
                       help="structure decomposition of the Sylow "
                            "p-subgroup's order-p part")
    d.set_defaults(func=cmd_decompose)

    u = sub.add_parser("upper-interval", parents=[grp],
                       help="predict and verify an upper-interval profile")
    u.add_argument("--above", default="omega1z",
                   help="torus selector: omega1z | center | gens:i,j,...")
    u.set_defaults(func=cmd_upper_interval)

    w = sub.add_parser("pw-verify", parents=[grp],
                       help="verify the wedge formula over O_{p'}(G)")
    w.set_defaults(func=cmd_pw_verify)

    l = sub.add_parser("plength", parents=[grp],
                       help="verify p-length bounds and section structure")
    l.set_defaults(func=cmd_plength)

    m = sub.add_parser("main-check", parents=[grp],
                       help="full main-theorem pipeline for one group")
    m.set_defaults(func=cmd_main_check)

    h = sub.add_parser("homology", parents=[common],
                       help="homology of a simplex-list text file")
    h.add_argument("file", help="complex file ('-' for stdin)")
    h.set_defaults(func=cmd_homology)

    s = sub.add_parser("suite", parents=[common],
                       help="run the pinned verification suite")
    s.add_argument("--manifest", help="alternate suite manifest path")
    s.add_argument("--only", action="append",
                   help="restrict to this catalog name (repeatable)")
    s.add_argument("--max-order", type=int, default=0,
                   help="skip instances larger than this order")
    s.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QuillenError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        if isinstance(e, DecompositionNotFound):
            return EXIT_RED_ALERT
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
