"""Steadiness check: run each workload repeatedly and compare the spread of
every end-to-end metric with its bound in BENCHMARK.json.

    python3 qbench/steady.py [--runs 10] [--sets 1] [--workload W ...]

Run from the root of a quillen checkout.  Each set runs every workload
``--runs`` times with seeds 1..runs (untraced, ``run_seconds`` from
BENCHMARK.json) and prints, per workload and metric, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the bound.  A spread above a third of the bound
is flagged; ``setup_s`` is exempt from the spread test.  With ``--sets 2``
the second set is compared with the first: its median may be worse by at
most the bound.  The exit code is 1 when any test fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    metrics = bench["end_to_end"]
    ok = True
    medians = {}
    for s in range(1, args.sets + 1):
        for w in args.workload or names:
            runs = [run_once(w, seed, bench["run_seconds"])
                    for seed in range(1, args.runs + 1)]
            shares = {r["failed"] / r["attempted"] for r in runs}
            print(f"set {s} {w}: {args.runs} runs, failed share "
                  f"{sorted(shares)}, correct {all(r['correct'] for r in runs)}")
            if len(shares) != 1 or not all(r["correct"] for r in runs):
                ok = False
            for m in metrics:
                name, bound = m["name"], m["bound"]
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                flag = ""
                if name != "setup_s" and spread > bound / 3:
                    flag = "  SPREAD ABOVE BOUND/3"
                    ok = ok and spread <= bound
                prev = medians.get((w, name))
                if prev is not None:
                    worse = (med - prev) / prev
                    flag += f"  vs set 1: {worse:+.3f}"
                    if worse > bound:
                        flag += " WORSE THAN BOUND"
                        ok = False
                medians.setdefault((w, name), med)
                print(f"  {name:12s} median {med:10.4f} q1 {q1:10.4f} "
                      f"q3 {q3:10.4f} {m['unit']:3s} spread {spread:.3f} "
                      f"bound {bound}{flag}")
                print(f"  {'':12s} runs " + " ".join(f"{v:.4f}" for v in values))
            sys.stdout.flush()
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
