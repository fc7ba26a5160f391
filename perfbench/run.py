"""xyzring benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload grid|ed|verify|large_ring|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Each workload runs in fresh processes (see child.py), so that set-up time
and peak memory are its own.  With --trace 0 the last stdout line holds the
end-to-end metrics, with --trace 1 the per-layer ones; the lines before it
give the spread, the failure counts and the environment.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid", "ed", "verify", "large_ring")
SETUP_RUNS = 5  # fresh processes per run whose set-up time is medianed
DEADLINE_S = 170  # per workload; a run must end within 180 s
MAX_BLAS_THREADS = 2
END_TO_END = {"setup_s": "s", "pass_rel": "x", "peak_rss_mb": "MB", "ok_frac": "fraction"}


def git_commit():
    """Commit of the checkout, read without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def child_env(threads):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(args, extra, env, tmp, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", tmp, *extra]
    left = deadline - time.monotonic()
    if left <= 0:
        raise SystemExit(f"error: {args.workload} ran out of time")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=left)
    if proc.returncode != 0:
        raise SystemExit(f"error: {args.workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def run_workload(args):
    nproc = len(os.sched_getaffinity(0))
    threads = min(MAX_BLAS_THREADS, nproc)
    env = child_env(threads)
    deadline = time.monotonic() + DEADLINE_S
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        res = run_child(args, [], env, tmp, deadline)
        setups = [res["setup_s"]]
        if not args.trace:
            setups += [run_child(args, ["--setup-only"], env, tmp, deadline)["setup_s"]
                       for _ in range(SETUP_RUNS - 1)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    tag = f"[{args.workload}]"
    env_record = {**res["env"], "nproc": nproc, "commit": git_commit(), "seed": args.seed}
    print(tag, "env", json.dumps(env_record, sort_keys=True))
    attempted, failed = res["attempted"], res["failed"]
    print(tag, f"fail_frac    {failed}/{attempted} = {failed / attempted:.4g} "
          f"({res['wrong']} wrong answers)")
    for detail in res["failures"]:
        print(tag, "  failure:", detail)

    if args.trace:
        from tracer import PER_LAYER

        traced, plain = spread(res["traced_pass_s"]), spread(res["pass_s"])
        print(tag, f"pass_s traced {traced[0]:.4f} s over {len(res['traced_pass_s'])} passes, "
              f"plain {plain[0]:.4f} s over {len(res['pass_s'])}")
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        med, q1, q3 = spread(res["pass_s"])
        r_med, r_q1, r_q3 = spread(res["pass_rel"])
        p_med, p_q1, p_q3 = spread(res["probe_s"])
        s_med, s_q1, s_q3 = spread(setups)
        print(tag, f"setup_s      {s_med:.4f} s  median of {len(setups)} fresh processes "
              f"(q1 {s_q1:.4f}, q3 {s_q3:.4f})")
        print(tag, f"pass_s       {med:.4f} s  median of {len(res['pass_s'])} passes "
              f"(q1 {q1:.4f}, q3 {q3:.4f})")
        print(tag, f"probe_s      {p_med:.5f} s  median of {len(res['probe_s'])} probes "
              f"(q1 {p_q1:.5f}, q3 {p_q3:.5f})")
        print(tag, f"pass_rel     {r_med:.2f} x  median over the passes of pass time / probe time "
              f"(q1 {r_q1:.2f}, q3 {r_q3:.2f})")
        print(tag, f"peak_rss_mb  {res['peak_rss_mb']:.2f} MB")
        values = {"setup_s": s_med, "pass_rel": r_med, "peak_rss_mb": res["peak_rss_mb"],
                  "ok_frac": (attempted - failed) / attempted}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": res["wrong"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "xyzring" / "__init__.py").is_file():
        print(f"error: no xyzring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
