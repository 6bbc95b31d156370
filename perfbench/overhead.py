"""Tracing overhead: end-to-end figures of traced against untraced runs.

    python3 perfbench/overhead.py --workload solve --seeds 1,2,3 --seconds 25

Runs run.py untraced and traced on each seed, alternating which goes first.
Per end-to-end metric it prints the median of each side and the traced
side's relative difference; a traced run prints its own end-to-end figures
on standard error, and that is what is compared.  It then prints the
traced runs' per-layer medians and each traced run's share of operation
time by layer.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
E2E = "traced end-to-end: "
SHARES = "share of operation time: "


def one_run(workload, seed, seconds, trace):
    """(end-to-end figures, per-layer figures, shares) of one run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    metrics = {k: v["value"] for k, v in json.loads(p.stdout.splitlines()[-1])["metrics"].items()}
    if not trace:
        return metrics, None, None
    lines = p.stderr.splitlines()
    e2e, shares = (
        json.loads(next(ln for ln in lines if ln.startswith(tag))[len(tag):])
        for tag in (E2E, SHARES)
    )
    return e2e, metrics, shares


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3")
    p.add_argument("--seconds", type=float, default=25)
    args = p.parse_args()
    runs = {0: [], 1: []}
    for n, seed in enumerate(int(s) for s in args.seeds.split(",")):
        for trace in ((0, 1) if n % 2 == 0 else (1, 0)):
            runs[trace].append(one_run(args.workload, seed, args.seconds, trace))
    print(f"{args.workload}: {len(runs[0])} runs each side")
    for key in runs[0][0][0]:
        plain = statistics.median(r[0][key] for r in runs[0])
        traced = statistics.median(r[0][key] for r in runs[1])
        print(f"  {key:12s} untraced {plain:10.4g}  traced {traced:10.4g}  "
              f"difference {100.0 * (traced - plain) / plain:+.1f} %")
    print("per-layer medians of the traced runs:")
    for key in runs[1][0][1]:
        print(f"  {key:34s} {statistics.median(r[1][key] for r in runs[1]):12.5g}")
    for r in runs[1]:
        print(f"share of operation time: {json.dumps(r[2])}")


if __name__ == "__main__":
    main()
