"""CLI tests: subcommands, exit codes, report determinism, the spec
file path, complex import/export, and the suite runner."""

import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

from quillen import cli, homology, poset, theorems
from quillen import group as gp
from quillen import constructions as cs
from quillen.errors import DecompositionNotFound


def run_cli(args, out_path):
    """Invoke the CLI in-process, writing the report to a file."""
    code = cli.main(list(args) + ["--out", str(out_path)])
    text = out_path.read_text() if out_path.exists() else ""
    return code, text


def run_json(args, tmp_path, name="r.json"):
    out = tmp_path / name
    code, text = run_cli(list(args) + ["--format", "json"], out)
    return code, json.loads(text) if text else None


# -- basic subcommands --------------------------------------------------

def test_quillen_s3(tmp_path):
    code, data = run_json(["quillen", "--name", "S3", "--prime", "2"],
                          tmp_path)
    assert code == 0
    assert data["group"]["order"] == 6
    assert data["analyses"]["quillen"]["poset_nodes"] == 3
    prof = data["analyses"]["quillen"]["profile"]
    assert {"degree": 0, "betti": 2, "torsion": []} in prof
    assert "caveat" in data and "homology level" in data["caveat"]
    assert set(data["timings"]) == {"build", "complex", "homology", "stats"}


def test_quillen_brown_comparison(tmp_path):
    code, data = run_json(["quillen", "--name", "SD16", "--prime", "2",
                           "--brown"], tmp_path)
    assert code == 0
    assert data["analyses"]["brown"]["profiles_equal"] is True


def test_cm_check_s4(tmp_path):
    code, data = run_json(["cm-check", "--name", "S4", "--prime", "2"],
                          tmp_path)
    assert code == 0
    assert data["analyses"]["cohen_macaulay"]["cohen_macaulay"] is True
    assert data["analyses"]["dim"] == 1


def test_decompose(tmp_path):
    code, data = run_json(["decompose", "--name", "SD16oC4", "--prime", "2"],
                          tmp_path)
    assert code == 0
    assert data["analyses"]["structure"]["T_type"] == "semidihedral"
    assert data["analyses"]["all_checks_pass"] is True


def test_upper_interval_selectors(tmp_path):
    code, data = run_json(["upper-interval", "--name", "D8oD8",
                           "--prime", "2", "--above", "omega1z"], tmp_path)
    assert code == 0
    ui = data["analyses"]["upper_interval"]
    assert ui["claim"] == "interval-extraspecial"
    assert ui["agrees"] is True
    code, data = run_json(["upper-interval", "--name", "ES27+",
                           "--prime", "3", "--above", "center"], tmp_path)
    assert code == 0
    assert data["analyses"]["upper_interval"]["agrees"] is True


def test_upper_interval_gens_selector(tmp_path):
    # generate X from explicit element ids: find an order-3 central
    # element id of the ES27+ Sylow (the group itself)
    from quillen import constructions as cs, group as gp
    G = cs.catalog_group("ES27+")
    z = next(x for x in gp.center(G.full()).members if x != G.identity)
    code, data = run_json(["upper-interval", "--name", "ES27+",
                           "--prime", "3", "--above", f"gens:{z}"], tmp_path)
    assert code == 0
    assert data["analyses"]["above"]["order"] == 3


def test_pw_verify(tmp_path):
    code, data = run_json(["pw-verify", "--name", "C7:C3", "--prime", "3"],
                          tmp_path)
    assert code == 0
    assert data["analyses"]["wedge_formula"]["agrees"] is True


def test_plength(tmp_path):
    code, data = run_json(["plength", "--name", "S4", "--prime", "2"],
                          tmp_path)
    assert code == 0
    assert data["analyses"]["p_length"]["computed"]["p_length"] == 2


def test_main_check(tmp_path):
    code, data = run_json(["main-check", "--name", "S4", "--prime", "2"],
                          tmp_path)
    assert code == 0
    assert data["analyses"]["main_theorem"]["agrees"] is True


def test_text_format(tmp_path):
    out = tmp_path / "r.txt"
    code, text = run_cli(["quillen", "--name", "S3", "--prime", "2",
                          "--format", "text"], out)
    assert code == 0
    assert "order 6" in text and "note:" in text


# -- spec files and complex files ---------------------------------------

def test_spec_file_input(tmp_path):
    spec = tmp_path / "c6.json"
    spec.write_text(json.dumps({"kind": "cyclic", "params": {"order": 6}}))
    code, data = run_json(["quillen", str(spec), "--prime", "3"], tmp_path)
    assert code == 0
    assert data["group"]["order"] == 6
    assert data["spec"]["group_spec"]["kind"] == "cyclic"


def test_spec_echo_round_trips(tmp_path):
    from quillen import constructions as cs
    code, data = run_json(["quillen", "--name", "S4", "--prime", "2"],
                          tmp_path)
    back = cs.GroupSpec.from_json(data["spec"]["group_spec"])
    assert back == cs.catalog("S4")


def test_export_and_reimport_complex(tmp_path):
    cx = tmp_path / "s3.cx"
    code, _ = run_json(["quillen", "--name", "S3", "--prime", "2",
                        "--export-complex", str(cx)], tmp_path)
    assert code == 0
    assert cx.read_text() == "0\n1\n2\n"
    code, data = run_json(["homology", str(cx)], tmp_path, "h.json")
    assert code == 0
    assert {"degree": 0, "betti": 2, "torsion": []} in data["profile"]


# -- exit codes ---------------------------------------------------------

def test_exit_code_input_errors(tmp_path):
    out = tmp_path / "x"
    assert run_cli(["quillen", "--name", "NOPE", "--prime", "2"], out)[0] == 1
    assert run_cli(["quillen", "--name", "S3", "--prime", "4"], out)[0] == 1
    assert run_cli(["quillen", "--name", "S3"], out)[0] == 1  # no prime
    assert run_cli(["quillen", "--prime", "2"], out)[0] == 1  # no group
    assert run_cli(["quillen", "--name", "S4", "--prime", "2",
                    "--max-order", "10"], out)[0] == 1
    assert run_cli(["pw-verify", "--name", "S4", "--prime", "2"],
                   out)[0] == 1  # precondition O_{2'} = 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["quillen", str(bad), "--prime", "2"], out)[0] == 1


@pytest.mark.parametrize("argv,what", [
    (["quillen", "{}", "--prime", "2"], "spec"), (["homology", "{}"], "complex")])
def test_unreadable_input_file_is_an_input_error(argv, what, tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert cli.main([a.format(missing) for a in argv]) == 1
    assert capsys.readouterr().err == (
        f"error: InvalidSpec: cannot read {what} file: "
        f"[Errno 2] No such file or directory: {missing!r}\n")


def _named(name):
    return {"kind": "named", "params": {"name": name}}


@pytest.mark.parametrize("spec,error", [
    ({"kind": "perm", "params": {"degree": 3, "generators": [[1, 1, 2]]}},
     "InvalidPermutation"),
    ({"kind": "central_product", "params": {
        "a": _named("D8"), "b": _named("D8"), "pairs": [[4, 4], [4, 5]]}},
     "NotCentral"),
    ({"kind": "semidirect_product", "params": {
        "n": {"kind": "cyclic", "params": {"order": 3}},
        "h": {"kind": "cyclic", "params": {"order": 2}},
        "action": [[0, 0, 0]]}},
     "ActionNotHomomorphism"),
    ({"kind": "cyclic", "params": {"order": "x"}}, "InvalidSpec"),
    ({"kind": "dihedral", "params": {"order": [8]}}, "InvalidSpec"),
    ({"kind": "elementary_abelian", "params": {"prime": 6, "rank": 1}},
     "InvalidSpec"),
    ({"kind": "extraspecial", "params": {"prime": 4, "n": 1,
                                         "variant": "exp_p"}},
     "InvalidSpec"),
    ({"kind": "extraspecial", "params": {"prime": 9, "n": 1,
                                         "variant": "exp_p2"}},
     "InvalidSpec"),
    ({"kind": "extraspecial", "params": {"prime": 1, "n": 1,
                                         "variant": "exp_p"}},
     "InvalidSpec"),
    ({"kind": "direct_product", "params": {"factors": [5]}}, "InvalidSpec"),
    ({"kind": "direct_product", "params": {"factors": "ab"}}, "InvalidSpec"),
    ({"kind": "central_product", "params": {
        "a": 3, "b": _named("D8"), "order": 2}}, "InvalidSpec")],
    ids=["perm-not-bijective", "pairs-not-central", "action-not-bijective",
         "order-a-string", "order-a-list", "elementary-abelian-prime-6",
         "extraspecial-prime-4", "extraspecial-prime-9",
         "extraspecial-prime-1", "factor-a-number", "factors-a-string",
         "central-factor-a-number"])
def test_library_errors_are_typed_input_errors(spec, error, tmp_path,
                                               capsys):
    """Every QuillenError from building a spec, an ill-typed parameter,
    a non-prime p and a sub-spec that is not an object included, is exit
    1 with one error line."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["quillen", str(path), "--prime", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text,error", [
    ("0 1 x\n", "InvalidSpec: complex line 1 is not a list of integer "
                 "vertex ids: '0 1 x'"),
    (" ".join(map(str, range(40))) + "\n",
     f"ComplexTooLarge: closing these simplices may make up to "
     f"{(1 << 40) + 1} "
     f"faces; the bound is {poset.FACE_BOUND}")],
    ids=["bad-token", "40-vertex-line"])
def test_bad_complex_files_are_typed_input_errors(text, error, tmp_path,
                                                  capsys):
    """A token that is not an integer, and a line that would close to
    2^40 faces, are exit 1 with one error line, not a traceback."""
    path = tmp_path / "bad.cx"
    path.write_text(text)
    assert cli.main(["homology", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_escaped_decomposition_failure_is_a_red_alert(monkeypatch, capsys):
    """A DecompositionNotFound that no command catches is exit 2."""
    def fail(T):
        raise DecompositionNotFound("no lift")
    monkeypatch.setattr(theorems, "main_theorem_check", fail)
    assert cli.main(["main-check", "--name", "S3", "--prime", "2"]) == 2
    assert capsys.readouterr().err == "error: DecompositionNotFound: no lift\n"


def test_exit_code_red_alert(tmp_path):
    # a manifest pinning a check that cannot hold forces exit 2
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "version": 1,
        "instances": [{"name": "D8", "prime": 2, "checks": ["pw"]}]}))
    code, data = run_json(["suite", "--manifest", str(manifest)], tmp_path)
    assert code == 2
    assert len(data["failures"]) == 1
    assert data["failures"][0]["check"] == "pw"


@pytest.mark.parametrize("prime", ["100000007", "2305843009213693951"])
def test_large_prime_fails_fast(prime, capsys):
    """A prime above the largest group order the tool builds is refused
    before any primality test or group build."""
    t0 = time.perf_counter()
    code = cli.main(["decompose", "--name", "S3", "--prime", prime])
    assert time.perf_counter() - t0 < 1
    assert code == 1
    assert "InvalidSpec" in capsys.readouterr().err


def _nested(depth):
    """The spec text of C2 inside ``depth`` one-factor direct products."""
    return ('{"kind": "direct_product", "params": {"factors": [' * depth
            + '{"kind": "cyclic", "params": {"order": 2}}' + "]}}" * depth)


@pytest.mark.parametrize("depth", [cs.SPEC_DEPTH_CAP + 1, 400])
def test_a_deeply_nested_spec_fails_with_one_error_line(depth, tmp_path,
                                                        capsys):
    """A spec nested past SPEC_DEPTH_CAP is refused; one too deep for
    the JSON parser, at 400 levels, is refused by the parser's recursion
    bound.  Either is exit 1 with one error line; the cap itself is
    admitted."""
    path = tmp_path / "spec.json"
    path.write_text(_nested(cs.SPEC_DEPTH_CAP))
    assert cli.main(["plength", str(path), "--prime", "2"]) == 0
    capsys.readouterr()
    path.write_text(_nested(depth))
    assert cli.main(["plength", str(path), "--prime", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidSpec: spec ") and "nests" in err
    assert err.count("\n") == 1


def test_element_cap_env_rejected_if_not_int(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CAP_ENV_VAR, "abc")
    out = tmp_path / "x"
    assert run_cli(["quillen", "--name", "S3", "--prime", "2"], out)[0] == 1


# -- suite --------------------------------------------------------------

def test_suite_small_subset(tmp_path):
    code, data = run_json(["suite", "--only", "S3", "--only", "D8"],
                          tmp_path)
    assert code == 0
    assert data["failures"] == []
    names = {(r["name"], r["prime"]) for r in data["instances"]}
    assert ("S3", 2) in names and ("S3", 3) in names and ("D8", 2) in names
    for row in data["instances"]:
        for chk, res in row["results"].items():
            assert res["agrees"] in (True, None), (row["name"], chk)
        assert set(row["timings"]) == {"build"} | set(row["results"])


def test_suite_row_builds_the_torus_poset_once_and_no_complex(monkeypatch):
    """The checks of one suite row read one torus poset: with quillen,
    cm, pw and main, A_2(G) is built once and `poset_homology` reads it
    once; every CM class passes, so no full Delta(A) is reduced."""
    G = cs.catalog_group("C3:(D16xC2)")
    posets, read, reduced = [], [], []
    build = poset.quillen_poset
    homology_of, reduce = homology.poset_homology, homology.reduced_homology

    def counted_poset(S, p):
        A = build(S, p)
        if S is G:
            posets.append(A)
        return A

    def counted_homology(P):
        read.append(P)
        return homology_of(P)

    def counted_reduce(C):
        reduced.append(C)
        return reduce(C)

    for mod in (poset, homology, theorems, cli):
        for name, fn in (("quillen_poset", counted_poset),
                         ("poset_homology", counted_homology),
                         ("reduced_homology", counted_reduce)):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, fn)
    row = cli._run_instance({"name": "C3:(D16xC2)", "prime": 2,
                             "checks": ["quillen", "cm", "pw", "main"]},
                            None)
    assert [r["agrees"] for r in row["results"].values()] == \
        [None, True, True, True]
    assert len(posets) == 1
    assert sum(P is posets[0] for P in read) == 1
    torus = poset.order_complex(posets[0])
    assert not any(C == torus for C in reduced)


P_LOCAL = ("sylow_subgroup", "o_p", "o_p_prime", "is_solvable")


def _count_p_local_calls(monkeypatch):
    """Wrap the p-local primitives of `group`; count every call, nested
    ones included, keyed by function, group, prime and N."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            N = args[2] if len(args) > 2 else kwargs.get("N")
            calls[(name,) + args[:2] + (N,)] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in P_LOCAL:
        monkeypatch.setattr(gp, name, counted(name, getattr(gp, name)))
    return calls


@pytest.mark.parametrize("argv", [
    ["plength", "--name", "C3C3:SL(2,3)", "--prime", "3"],
    ["suite", "--only", "C3C3:SL(2,3)"],
], ids=["plength", "suite-row"])
def test_p_local_data_is_computed_once(argv, monkeypatch, capsys):
    """One command, or one suite row, computes the Sylow subgroup, O_p,
    O_p' and solvability of its group at its prime at most once each,
    and each term of the p-series once: every check reads them from the
    row's `TorusComplex`, and O_p takes its Sylow subgroup."""
    calls = _count_p_local_calls(monkeypatch)
    assert cli.main(argv) == 0
    assert {key[0] for key in calls} == set(P_LOCAL)
    assert max(calls.values()) == 1, calls
    assert sum(key[0] == "sylow_subgroup" for key in calls) == 1, calls


S4_X_A4 = {"kind": "direct_product", "params": {"factors": [
    {"kind": "named", "params": {"name": "S4"}},
    {"kind": "named", "params": {"name": "A4"}}]}}


@pytest.mark.parametrize("command,witnesses", [("plength", 4),
                                               ("decompose", 7)])
def test_greedy_witnesses_are_computed_only_when_read(
        command, witnesses, monkeypatch, tmp_path):
    """A subgroup built with no witness runs `_small_witness` only when
    its witness is read, and O_p' reads none: on S4 x A4 at p = 2,
    `plength` computes 4 witnesses and `decompose` 7, where computing
    one per subgroup built took 15 and 32."""
    spec = tmp_path / "s4xa4.json"
    spec.write_text(json.dumps(S4_X_A4))
    sizes = []
    small = gp._small_witness
    monkeypatch.setattr(gp, "_small_witness",
                        lambda G, m: sizes.append(len(m)) or small(G, m))
    assert run_cli([command, str(spec), "--prime", "2"],
                   tmp_path / "r.txt")[0] == 0
    assert len(sizes) == witnesses, sorted(sizes)


def test_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    """`main` reuses one parser; a flag or an error of one call does not
    leak into the next, whose report equals a fresh parser's."""
    assert cli._build_parser() is cli._build_parser()
    argvs = [["quillen", "--name", "S3", "--prime", "2", "--brown"],
             ["quillen", "--name", "S3", "--prime", "x"],
             ["quillen", "--name", "S3", "--prime", "2"]]

    def reports():
        out = []
        for argv in argvs:
            try:
                code = cli.main(argv + ["--format", "json"])
            except SystemExit as e:
                code = e.code
            text = capsys.readouterr().out
            out.append((code, _strip_timings(json.loads(text))
                        if text else None))
        return out

    reused = reports()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert reused == reports()
    assert [code for code, _ in reused] == [0, 2, 0]
    assert "brown" in reused[0][1]["analyses"]
    assert "brown" not in reused[2][1]["analyses"]


_ROW = {"name": "S3", "prime": 2, "checks": ["quillen"]}
_NOT_AN_OBJECT = "suite manifest must be an object with an instances list"


def _manifest(row):
    """A manifest whose second row is ``row``; its other keys are allowed."""
    return {"version": 1, "comment": "", "instances": [_ROW, row]}


def _bad_row(row):
    return (_manifest(row), "manifest instance 1 needs a string name and a "
            f"list of checks from {', '.join(cli.SUITE_CHECKS)}: {row!r}")


def _bad_prime(prime, error):
    row = {"name": "S3", "prime": prime, "checks": ["cm"]}
    if prime is None:
        del row["prime"]
    return _manifest(row), f"manifest instance 1 prime {error}"


@pytest.mark.parametrize("manifest,error", [
    ([_ROW], _NOT_AN_OBJECT), ({"version": 1}, _NOT_AN_OBJECT),
    ({"instances": _ROW}, _NOT_AN_OBJECT),
    _bad_row(3), _bad_row({"prime": 2, "checks": []}),
    _bad_row({"name": "S3", "prime": 2}),
    _bad_row({"name": "S3", "prime": 2, "checks": ["nope"]}),
    _bad_prime(None, "is required"),
    _bad_prime("x", "must be a prime, got 'x'"),
    _bad_prime(4, "must be a prime, got 4"),
    _bad_prime(True, "must be a prime, got True"),
    _bad_prime(16411, "16411 exceeds the largest group order 16384")],
    ids=["a-list", "no-instances", "instances-an-object",
         "row-a-number", "no-name", "no-checks", "unknown-check",
         "no-prime", "prime-a-string", "prime-4", "prime-true",
         "prime-past-the-cap"])
def test_malformed_manifests_are_refused_before_any_row(
        manifest, error, tmp_path, capsys, monkeypatch):
    """A manifest is checked whole before its first row runs, and a bad
    one is exit 1 with one error line."""
    monkeypatch.setattr(cli, "_run_instance", lambda *a: pytest.fail("ran"))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert cli.main(["suite", "--manifest", str(path)]) == 1
    assert capsys.readouterr().err == f"error: InvalidSpec: {error}\n"


def test_suite_unknown_only_name(tmp_path):
    code, _ = run_json(["suite", "--only", "NOPE"], tmp_path)
    assert code == 1


def test_suite_max_order_skips(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "version": 1,
        "instances": [{"name": "S4", "prime": 2, "checks": ["quillen"]},
                      {"name": "C3C3:SL(2,3)", "prime": 3,
                       "checks": ["quillen"]}]}))
    code, data = run_json(["suite", "--manifest", str(manifest),
                           "--max-order", "100"], tmp_path)
    assert code == 0
    skipped = [r for r in data["instances"] if "skipped" in r]
    assert len(skipped) == 1 and skipped[0]["name"] == "C3C3:SL(2,3)"


def _strip_timings(data):
    data = json.loads(json.dumps(data))
    data.pop("timings", None)
    for row in data.get("instances", []):
        row.pop("timings", None)
    return data


def test_report_determinism(tmp_path):
    a = run_json(["quillen", "--name", "S4", "--prime", "2"], tmp_path,
                 "a.json")[1]
    b = run_json(["quillen", "--name", "S4", "--prime", "2"], tmp_path,
                 "b.json")[1]
    assert json.dumps(_strip_timings(a), sort_keys=True) == \
        json.dumps(_strip_timings(b), sort_keys=True)


GOLDEN_SUITE = os.path.join(os.path.dirname(__file__), "golden",
                            "suite_max_order_999.json")


def test_suite_matches_pinned_report(tmp_path):
    """`quillen suite --max-order 999 --format json` with the rows'
    timings removed is byte-identical to the pinned report.  Rewrite the
    pinned file only with a change that means to change a report."""
    code, data = run_json(["suite", "--max-order", "999"], tmp_path)
    assert code == 0
    text = json.dumps(_strip_timings(data), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"
    with open(GOLDEN_SUITE, encoding="utf-8") as fh:
        assert text == fh.read()


GOLDEN_COMMANDS = os.path.join(os.path.dirname(__file__), "golden",
                               "commands.json")

# two small catalog groups per group command, both primes represented;
# upper-interval also takes the cyclic-central-product reduction
PINNED_COMMANDS = [
    ["quillen", "--brown", "--name", "S4", "--prime", "2"],
    ["quillen", "--brown", "--name", "ES27+", "--prime", "3"],
    ["cm-check", "--name", "S4", "--prime", "2"],
    ["cm-check", "--name", "C3C3:SL(2,3)", "--prime", "3"],
    ["decompose", "--name", "D16xC2", "--prime", "2"],
    ["decompose", "--name", "ES27+", "--prime", "3"],
    ["upper-interval", "--name", "D8oD8", "--prime", "2"],
    ["upper-interval", "--name", "D8oC4", "--prime", "2"],
    ["upper-interval", "--name", "ES27+xC3", "--prime", "3"],
    ["pw-verify", "--name", "C3:(D16xC2)", "--prime", "2"],
    ["pw-verify", "--name", "C7:C3", "--prime", "3"],
    ["plength", "--name", "S4", "--prime", "2"],
    ["plength", "--name", "C3C3:SL(2,3)", "--prime", "3"],
    ["main-check", "--name", "C3:(D16xC2)", "--prime", "2"],
    ["main-check", "--name", "C7:C3", "--prime", "3"],
    ["main-check", "--name", "C3^4:(SD16oD8)", "--prime", "2"],
    ["quillen", "--name", "C3^4:(SD16oC4)", "--prime", "2"],
]


def pinned_commands_text(out_path) -> str:
    """Each pinned command's exit code and JSON report, timings removed,
    as one document."""
    entries = []
    for args in PINNED_COMMANDS:
        code, text = run_cli(args + ["--format", "json"], out_path)
        entries.append({"args": args, "exit": code,
                        "report": _strip_timings(json.loads(text))})
    return json.dumps(entries, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def test_commands_match_pinned_reports(tmp_path):
    """Every group command's report outside `timings`, `group` statistics
    included, and its exit code are byte-identical to the pinned ones.
    Rewrite the pinned file only with a change that means to change a
    report: `PYTHONPATH=src python tests/test_cli.py`."""
    text = pinned_commands_text(tmp_path / "r.json")
    with open(GOLDEN_COMMANDS, encoding="utf-8") as fh:
        assert text == fh.read()


# -- console entry point ------------------------------------------------

def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quillen.cli", "quillen", "--name", "S3",
         "--prime", "2", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["analyses"]["quillen"]["poset_nodes"] == 3


def test_stderr_message_on_input_error():
    proc = subprocess.run(
        [sys.executable, "-m", "quillen.cli", "quillen", "--name", "NOPE",
         "--prime", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "UnknownName" in proc.stderr


def test_numpy_loaded_only_by_the_group_layer(tmp_path):
    """Importing the package and running `homology` build no group, so
    they leave numpy unloaded."""
    src = tmp_path / "circle.txt"
    src.write_text("0 1\n1 2\n0 2\n")
    script = (
        "import sys, quillen\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "from quillen import cli\n"
        f"assert cli.main(['homology', {str(src)!r}, '--out', "
        f"{str(tmp_path / 'out.txt')!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'homology'\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.txt").read_text() == "dim 1\nH~_1=Z^1\n"


if __name__ == "__main__":
    import pathlib
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        text = pinned_commands_text(pathlib.Path(tmp) / "r.json")
    with open(GOLDEN_COMMANDS, "w", encoding="utf-8") as fh:
        fh.write(text)
