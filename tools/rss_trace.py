"""Print the resident memory around set-up's and the first steps' big calls.

    python3 tools/rss_trace.py --workload full-50k --seed 0

Sets up the workload as `perfbench/child.py` does, from the sources in this
tree's `src/`, and runs its first arm in this one process with
single-threaded BLAS, as `tools/records_check.py` does. It wraps
`graph.sbm_generate` and `partition.partition_graph`, and, as
`staleburner.trainer` calls them, `full_forward`, `loss_and_grad` and
`backward`. For each wrapped call of set-up and of the first two steps it
prints one line

    <workload> seed <s> <phase> <call> VmRSS <before> -> <after> VmHWM <hwm> MiB

with phase `setup`, `step1` or `step2`, read from `/proc/self/status` just
before and just after the call, and when the arm ends one line

    <workload> seed <s> end ru_maxrss <peak> MiB

the process's peak RSS as `perfbench/child.py` reports it (`peak_rss_mb`).
The kernel sums RSS lazily, so a VmHWM can read a few hundred KiB off.

A step counts from the call after the previous step's `on_step`, so the
whole-graph evaluate that ends a step and serves the next one is listed
under the step it ends. Linux only; nothing in `src/` changes.
"""

from __future__ import annotations

import os

# before numpy loads: child runs use one BLAS thread
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files under perfbench/

from child import setup  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from staleburner import graph, partition, trainer  # noqa: E402

TRACED = [(graph, "sbm_generate"), (partition, "partition_graph"),
          (trainer, "full_forward"), (trainer, "loss_and_grad"), (trainer, "backward")]
STEPS = 2  # steps whose calls are printed


def status_mib(*keys: str) -> list[float]:
    """The named `/proc/self/status` fields (kB) in MiB, in order."""
    found = {}
    with open("/proc/self/status") as f:
        for line in f:
            name, _, value = line.partition(":")
            if name in keys:
                found[name] = int(value.split()[0]) / 1024.0
    return [found[k] for k in keys]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    head = f"{args.workload} seed {args.seed}"
    phase = "setup"  # None once the printed steps are done

    def wrap(owner, name):
        fn = getattr(owner, name)

        def traced(*a, **k):
            if phase is None:
                return fn(*a, **k)
            (before,) = status_mib("VmRSS")
            result = fn(*a, **k)
            after, hwm = status_mib("VmRSS", "VmHWM")
            print(f"{head} {phase} {name} VmRSS {before:.1f} -> {after:.1f} "
                  f"VmHWM {hwm:.1f} MiB", flush=True)
            return result

        setattr(owner, name, traced)

    for owner, name in TRACED:
        wrap(owner, name)
    ds, part = setup(w, args.seed)
    done = 0

    def on_step(state):
        nonlocal done, phase
        done += 1
        phase = f"step{done + 1}" if done < STEPS else None

    phase = "step1"
    trainer.run_training(w.arms(args.seed)[0], ds, part, on_step=on_step)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{head} end ru_maxrss {peak:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
