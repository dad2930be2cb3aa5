"""Benchmark runner for quillen.

    python3 qbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a quillen checkout.  The runner

1. times the set-up: SETUP_RUNS fresh interpreters each import quillen and
   generate the workload's inputs from the seed (``inputs.py``);
2. runs whole passes over the inputs for about S seconds, and at least
   two, one operation at a time in this process, each a call to
   ``quillen.cli.main`` with the memo of catalog groups dropped first, so
   that it costs what a fresh ``quillen`` command costs;
3. checks every output against answers computed apart (``checks.py``);
4. prints one JSON object as its last line of output.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
set-up), ``wall_s`` (time of one pass, each operation at its fastest in the
run) and ``peak_rss_mb``.  With ``--trace 1`` the run makes untraced passes
for half the time and traced passes (``tracing.py``) for the rest, prints
the per-layer metrics per traced pass and ``trace.overhead_s`` (traced
minus untraced pass time), and writes the spans to
``.qbench_out/spans-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# one thread: keep numpy's BLAS and OpenMP pools from starting more
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

SETUP_RUNS = 9
MIN_PASSES = 2  # untraced; pass_time needs repeats of every operation
OUT_DIR = ".qbench_out"

PER_LAYER = (
    "constructions.build.self_s", "constructions.build.calls",
    "group.Group.self_s", "group.Group.calls", "group.table_bytes",
    "group.derived_subgroup.self_s", "group.derived_subgroup.calls",
    "group.sylow_subgroup.self_s", "group.o_p.self_s",
    "group.o_p_prime.self_s", "group.quotient_group.self_s",
    "group.quotient_group.calls", "group.p_length.self_s",
    "group.elementary_abelian_subgroups.self_s",
    "group.all_p_subgroups.self_s", "group.all_subgroups.self_s",
    "group.all_subgroups.calls",
    "poset.SubgroupPoset.self_s", "poset.nodes", "poset.order_complex.self_s",
    "poset.simplices", "poset.SimplicialComplex.import_text.self_s",
    "poset.find_conjunctive_element.self_s", "poset.join.self_s",
    "poset.wedge.self_s",
    "homology.boundary_matrix.self_s", "homology.smith_normal_form.self_s",
    "homology.smith_normal_form.calls", "homology.snf_nonzeros",
    "homology.snf_rank", "homology.snf_torsion_factors",
    "homology.reduced_homology.self_s",
    "homology.is_cohen_macaulay.self_s", "poset.link.self_s",
    "poset.link.calls",
    "theorems.main_theorem_check.self_s",
    "theorems.p_length_bound_check.self_s",
    "theorems.decompose_2group.self_s",
    "theorems.classify_odd_p_group.self_s",
    "theorems.verify_pulkus_welker.self_s",
    "report.group_stats.self_s",
    "cli.main.self_s",
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def time_setup(workload: str, seed: int, out: str, runs: int) -> list:
    """Wall time of ``runs`` fresh set-up interpreters."""
    env = dict(os.environ, PYTHONPATH="src")
    cmd = [sys.executable, os.path.join(HERE, "inputs.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def load_quillen():
    """Import quillen from this checkout's ``src``, never from elsewhere."""
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import quillen
    from quillen import cli, constructions
    if not os.path.abspath(quillen.__file__).startswith(src + os.sep):
        raise ImportError(f"quillen imported from {quillen.__file__}")
    return quillen, cli, constructions


def run_op(cli, constructions, argv: list) -> tuple:
    """(seconds, exit code or None if it raised, stdout text)."""
    constructions._GROUP_CACHE.clear()
    gc.collect()  # start each operation on a clean heap, as a fresh process
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:  # an operation that raises counts as failed
        rc = None
        log(traceback.format_exc())
    return time.perf_counter() - t0, rc, buf.getvalue()


def run_passes(cli, constructions, ops: list, seconds: float,
               results: list, min_passes: int) -> list:
    """Whole passes while the next one is expected to end within
    ``seconds``, and at least ``min_passes``.  Appends (rc, text) per
    operation to ``results``; returns each pass's operation times."""
    start = time.perf_counter()
    passes = []
    while True:
        times = []
        for op in ops:
            dt, rc, text = run_op(cli, constructions, op["argv"])
            times.append(dt)
            results.append((rc, text))
        passes.append(times)
        log(f"pass {len(passes)}: {sum(times):.3f} s")
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes
                and elapsed + elapsed / len(passes) > seconds):
            return passes


def pass_time(passes: list) -> float:
    """Time of one pass, each operation at its fastest in the run.  Other
    tenants of the machine only ever slow an operation down, so its
    fastest repeat is the least disturbed reading of its cost."""
    return sum(map(min, zip(*passes)))


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items()
                if k != "timings"}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def check_results(workload: str, ops: list, results: list,
                  constructions) -> tuple:
    """(failed, wrong): operations that failed, and how many of them
    returned a wrong answer rather than raising or exiting non-zero.
    Pass 1 is checked against answers computed apart; later passes must
    give the same answers."""
    import checks
    facts = checks.Facts(constructions)
    failed = wrong = 0
    first = {}
    for i, (rc, text) in enumerate(results):
        op = ops[i % len(ops)]
        if rc is None:
            failed += 1
            if i < len(ops):
                first[i] = None
            continue
        try:
            data = _strip_timings(json.loads(text))
        except json.JSONDecodeError:
            data = None
        if i < len(ops):
            errors = ["output is not JSON"] if data is None else \
                checks.check(workload, op["expect"], rc, data, facts)
            first[i] = (rc, data) if not errors else None
        elif first[i % len(ops)] is None:
            errors = ["failed in the first pass"]
        elif (rc, data) != first[i % len(ops)]:
            errors = ["output differs from the first pass"]
        else:
            errors = []
        if errors:
            failed += 1
            wrong += rc == 0
            log(f"FAILED {op['name']} (rc={rc}): {'; '.join(errors)}")
    return failed, wrong


def per_layer_metrics(tracer, passes: int, overhead: float) -> dict:
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            value, unit = tracer.self_s.get(name[:-7], 0.0) / passes, "s"
        elif name.endswith(".calls"):
            value, unit = tracer.calls.get(name[:-6], 0) / passes, "count"
        else:
            value = tracer.counters.get(name, 0) / passes
            unit = "bytes" if name.endswith("_bytes") else "count"
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="quillen benchmark runner")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "quillen", "cli.py")):
        log("error: run from the root of a quillen checkout "
            "(src/quillen/cli.py not found)")
        return 2
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                f"-{os.getpid()}")
    try:
        return _run(args, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _run(args, out: str) -> int:
    setup = time_setup(args.workload, args.seed, out,
                       1 if args.trace else SETUP_RUNS)
    with open(os.path.join(out, "ops.json")) as fh:
        ops = json.load(fh)
    quillen, cli, constructions = load_quillen()
    log(f"{args.workload} seed {args.seed}: {len(ops)} operations per pass, "
        f"set-up median {statistics.median(setup):.3f} s")

    results = []
    if not args.trace:
        passes = run_passes(cli, constructions, ops, args.seconds, results,
                            MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        log(f"pass time {pass_time(passes):.3f} s; median pass total "
            f"{statistics.median(map(sum, passes)):.3f} s")
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": pass_time(passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        from tracing import Tracer
        origin = time.perf_counter()
        plain = run_passes(cli, constructions, ops, args.seconds / 2,
                           results, 1)
        tracer = Tracer()
        tracer.install(quillen)
        try:
            traced = run_passes(cli, constructions, ops,
                                args.seconds - (time.perf_counter() - origin),
                                results, 1)
        finally:
            tracer.uninstall()
        overhead = pass_time(traced) - pass_time(plain)
        metrics = per_layer_metrics(tracer, len(traced), overhead)
        layers = tracer.layer_self_s()
        for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
            log(f"layer {layer:20s} self {s / len(traced):9.3f} s per pass")
        path = os.path.join(OUT_DIR, f"spans-{args.workload}"
                                     f"-seed{args.seed}.json")
        tracer.write_spans(path, origin)
        log(f"{len(tracer.spans)} spans written to {path}")

    failed, wrong = check_results(args.workload, ops, results, constructions)
    print(json.dumps({"correct": wrong == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
