"""staleburner benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload sweep-2k --seed 0 --seconds 30 --trace 0

Each run of the workload (set-up, then every `run_training` call) happens in
a fresh child process (`child.py`), started one at a time, so peak RSS is
the run's own and runs do not share caches.

--trace 0 repeats untraced runs while the next one is expected to end
within --seconds (at least one), then adds set-up-only runs until set-up was
timed SETUP_REPS times, and reports the end-to-end metrics as medians.
--trace 1 makes an untraced run, a traced run and another untraced run,
and reports the per-layer metrics of the traced one; the tracing overhead
is the traced wall minus the median untraced wall.

Every run uses `timing = 0` and hashes its `format_record` lines. A run that
raises, reports a non-finite loss or whose hash differs from the first run's
is failed. The last line of stdout is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}};
all metrics, the environment and each run's figures are also written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3      # set-up timings per --trace 0 run; setup_s is their median
RUN_BUDGET_S = 170  # every child must end before the whole run reaches this

END_TO_END = [  # (name, unit); mirrored in BENCHMARK.json
    ("setup_s", "s"), ("wall_s", "s"), ("steps_per_s", "1/s"),
    ("step_ms_p50", "ms"), ("peak_rss_mb", "MiB"),
]


# Children run single-threaded BLAS unless the caller chose otherwise. On a
# 2-core machine the default second OpenBLAS thread added about 50% CPU time
# (user 31-33 s against 19-21 s on rest-20k) for no shorter wall time, and
# made the run share both cores with whatever else the machine was running.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, CHILD_ENV.get(k, "unset")) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) where
    there is none. Steal is time the hypervisor gave our CPUs to others."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def child(workload: str, seed: int, t_start: float, *extra: str) -> dict:
    """Run child.py to completion; a child that fails or times out comes back
    as {"error": ...}."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    timeout = RUN_BUDGET_S - (time.perf_counter() - t_start)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              env={**CHILD_ENV, **os.environ},
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(runs: list[dict]) -> None:
    """Mark failed runs: errors, non-finite losses, and output hashes that
    differ from the first training run's."""
    ref = next((r["hash"] for r in runs if "hash" in r), None)
    for r in runs:
        if "error" in r:
            continue
        if not r.get("finite", True):
            r["error"] = "non-finite loss"
        elif "hash" in r and r["hash"] != ref:
            r["error"] = f"output hash {r['hash'][:12]} != {ref[:12]}"


def end_to_end(runs: list[dict]) -> dict:
    ok = [r for r in runs if "error" not in r]
    units = [r for r in ok if "hash" in r]
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] for r in ok),
        "wall_s": med(r["wall_s"] for r in units),
        "steps_per_s": med(r["steps"] / r["train_s"] for r in units),
        "step_ms_p50": med(ms for r in units for ms in r["step_ms"]),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in units),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "staleburner" / "__init__.py").is_file():
        print(f"error: no staleburner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import PER_LAYER
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    env = environment()
    env["load_before"] = os.getloadavg()
    steal0, total0 = cpu_ticks()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs: list[dict] = []
    if args.trace:
        # untraced runs on both sides of the traced one cancel a linear drift
        # in machine speed out of the overhead
        runs.append(child(args.workload, args.seed, t_start))
        runs.append(child(args.workload, args.seed, t_start,
                          "--spans", str(OUT / f"{tag}.spans.jsonl")))
        runs.append(child(args.workload, args.seed, t_start))
    else:
        while True:
            t0 = time.perf_counter()
            runs.append(child(args.workload, args.seed, t_start))
            took = time.perf_counter() - t0
            if "error" in runs[-1] or time.perf_counter() - t_start + took > args.seconds:
                break
        while "error" not in runs[-1] and len(runs) < SETUP_REPS:
            runs.append(child(args.workload, args.seed, t_start, "--setup-only"))
    env["load_after"] = os.getloadavg()
    steal1, total1 = cpu_ticks()
    env["steal_share"] = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    # our runs add at most one busy process to the load average, before (a
    # previous run) or after
    env["outside_load"] = (max(env["load_before"][0], env["load_after"][0]) > 1.5
                           or env["steal_share"] > 0.05)
    check(runs)
    failed = sum("error" in r for r in runs)
    units_ok = [r for r in runs if "hash" in r and "error" not in r]

    if args.trace:
        metrics = {}
        if failed == 0:
            metrics = dict(runs[1]["layers"])
            metrics["trace.overhead_s"] = runs[1]["wall_s"] - statistics.median(
                [runs[0]["wall_s"], runs[2]["wall_s"]])
            metrics["fail_ratio"] = 0.0
        units = [(name, unit) for name, unit, _, _ in PER_LAYER]
    else:
        metrics = end_to_end(runs) if units_ok else {}
        units = END_TO_END
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units if name in metrics}}

    (OUT / f"{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "env": env, "runs": runs, "result": result}, indent=1) + "\n")

    print(f"# env: {json.dumps(env)}")
    print(f"# {args.workload} seed {args.seed}: {len(runs)} runs, {failed} failed, "
          f"output hash {units_ok[0]['hash'][:16] if units_ok else '-'}")
    for r in runs:
        if "error" in r:
            print(f"# failed run: {r['error']}")
    moves = {name: f"  moves: {m}" for name, _, _, m in PER_LAYER} if args.trace else {}
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}{moves.get(name, '')}")
    if not args.trace:
        # printed, but not in the JSON: see "End-to-end metrics" in README.md
        if units_ok:
            print(f"{'acc_val_final':34s} {units_ok[0]['acc_val_final']:>16.6g} fraction")
            stale = units_ok[0]["stale_err"]
            print(f"{'stale_err':34s} {stale:>16.6g} L2" if stale is not None
                  else f"{'stale_err':34s} {'n/a':>16s} (no history table)")
        print(f"{'fail_ratio':34s} {failed / len(runs):>16.6g} fraction")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
