"""One workload in a fresh process: set-up, then timed passes.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
    python3 perfbench/child.py ... --setup-only

Started by run.py with PYTHONPATH pointing at the checkout's `src` and the
BLAS thread count pinned.  Prints one JSON object as its last stdout line.
"""

import time

T0 = time.perf_counter()
import xyzring  # noqa: E402  (the import is part of the measured set-up)
import xyzring.cli  # noqa: E402,F401

T_IMPORT = time.perf_counter() - T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from outcome import Tally, outcome_of, run_op  # noqa: E402
from probe import probe_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment():
    import importlib.metadata
    import os
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def run_pass(ops):
    """Time each call; returns (pass seconds, [(op, raw, exception)])."""
    total, results = 0.0, []
    for op in ops:
        seconds, raw, exc = run_op(op)
        total += seconds
        results.append((op, raw, exc))
    return total, results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.tmp)
    warm, _ = run_pass(wl.warm_up_ops())
    setup_s = T_IMPORT + warm
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    ops = wl.ops()
    tracer = None
    if args.trace:
        from tracer import Tracer, per_layer_values

        tracer = Tracer()
    # wall seconds and probe-times of each pass, by kind
    walls = {"plain": [], "traced": []}
    rels = {"plain": [], "traced": []}
    layer_passes, probes = [], [probe_s(wl.probe_parts)]
    tally, rss = Tally(), None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        # the traced run alternates plain and traced passes for the overhead ratio
        if tracer is not None and len(walls["plain"]) > len(walls["traced"]):
            kind = "traced"
            (seconds, results), reduced = tracer.traced(lambda: run_pass(ops))
            layer_passes.append(per_layer_values(reduced, wl.points))
        else:
            kind = "plain"
            seconds, results = run_pass(ops)
        if rss is None:
            rss = peak_rss_mb()  # before any output check allocates
        probes.append(probe_s(wl.probe_parts))
        walls[kind].append(seconds)
        rels[kind].append(seconds / ((probes[-2] + probes[-1]) / 2))
        for op, raw, exc in results:
            tally.add(outcome_of(op, raw, exc))
        # stop before a pass that would end after --seconds (one pass at least,
        # one of each kind when tracing)
        now = time.perf_counter()
        if (not tracer or walls["traced"]) and now + (now - began) - start > args.seconds:
            break

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "pass_s": walls["plain"],
        "pass_rel": rels["plain"],
        "probe_s": probes,
        "peak_rss_mb": rss,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "failures": tally.details,
        "env": environment(),
    }
    if tracer is not None:
        per_layer = {name: statistics.median(p[name] for p in layer_passes)
                     for name in layer_passes[0]}
        per_layer["trace.overhead_frac"] = (
            statistics.median(rels["traced"]) / statistics.median(rels["plain"]) - 1)
        result["per_layer"] = per_layer
        result["traced_pass_s"] = walls["traced"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
