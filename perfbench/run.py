"""Benchmark of the drawdown-options solver.

    python3 perfbench/run.py --workload {solve,price,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree: the solver is imported from ``src/``
of the tree this file sits in, and from nowhere else.  One process, one
client thread, closed loop: the next operation starts when the previous one
has been checked.  Operations start until the loop has run ``--seconds`` of
wall time.  Times are process CPU time: the process is single-threaded and
does no I/O once imported, so on a machine of its own that is its wall time,
while on a shared virtual machine wall time also counts the time the host
gives to other guests.  The shared machine's speed also drifts, so each time
is scaled to a reference speed by a calibration chunk run next to it
(calibrate.py); standard error shows the unscaled figures (see README.md).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones of
a traced run, whose spans are written to ``perfbench/traces/``, and its own
end-to-end figures go to standard error so the tracing overhead shows.
See README.md in this directory.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_solver():
    """Import the solver from this tree's src/; returns CPU seconds since start."""
    sys.path.insert(0, SRC)
    import drawdown_options

    where = os.path.dirname(os.path.abspath(drawdown_options.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"drawdown_options came from {where}, not from {SRC}")
    return time.process_time()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("solve", "price", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(workload, seconds, tracer, import_s):
    """Set up, run the closed loop, check every output; returns the result dict."""
    from calibrate import Calibrator
    from tracer import layer_metrics, span
    from workloads import SETUP_REPS

    cpu = time.process_time
    calib = Calibrator(workload.chunk)
    setup_chunks = [calib.chunk()]
    setup_times = []
    for rep in range(SETUP_REPS):
        t = cpu()
        with span(tracer, "setup", rep=rep):
            workload.set_up(rep)
        setup_times.append(cpu() - t)
        setup_chunks.append(calib.chunk())
    t = cpu()
    with span(tracer, "setup", rep="warm-up"):
        workload.warm_up()
    warm_s = cpu() - t
    chunk = calib.chunk()
    setup_chunks.append(chunk)
    raw_setup_s = import_s + statistics.median(setup_times) + warm_s

    op_times = []   # CPU seconds of each operation that ran
    scaled = []     # the same, at the reference speed
    fails = []
    attempted = failed = 0
    loop_start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - loop_start < seconds:
        inputs = workload.prepare(i)
        attempted += 1
        t = cpu()
        try:
            with span(tracer, "op", op=i):
                out = workload.run(i, inputs, tracer)
        except Exception:  # an operation that raises is counted and reported
            failed += 1
            print(f"operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            chunk = calib.chunk()
        else:
            op_times.append(cpu() - t)
            # the chunks just before and just after the operation give its speed
            before, chunk = chunk, calib.chunk()
            scaled.append(op_times[-1] * calib.scale(0.5 * (before + chunk)))
            for msg in workload.check(i, inputs, out):
                fails.append(f"operation {i}: {msg}")
        i += 1
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)

    def figures(times, setup_s):
        return {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(times) / sum(times) if times else 0.0, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(times) if times else 0.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    e2e = figures(scaled, raw_setup_s * calib.scale(statistics.median(setup_chunks)))
    raw = {k: v for k, (v, _) in figures(op_times, raw_setup_s).items()}
    raw["chunk_ms"] = 1e3 * statistics.median(calib.times)
    print(f"unscaled: {json.dumps(raw)}", file=sys.stderr)
    metrics = e2e if tracer is None else layer_metrics(tracer, import_s)
    return {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, e2e


def main(argv=None):
    args = parse_args(argv)
    import_s = import_solver()
    from tracer import Tracer, install, op_shares
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    result, e2e = run(workload, args.seconds, tracer, import_s)
    if tracer is not None:
        out_dir = os.path.join(HERE, "traces")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"{args.workload}-{args.seed}.json"))
        figures = {k: v for k, (v, _) in e2e.items()}
        print(f"traced end-to-end: {json.dumps(figures)}", file=sys.stderr)
        shares = {k: round(v, 4) for k, v in op_shares(tracer).items()}
        print(f"share of operation time: {json.dumps(shares)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
