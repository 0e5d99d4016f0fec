"""Hash the set-up, records and final parameters of a benchmark workload.

    python3 tools/records_check.py --workload sweep-2k --seed 0

Sets up the workload as `perfbench/child.py` does (the same graph, partition
and `TrainConfig` arms) from the sources in this tree's `src/`, runs every
arm in this one process with single-threaded BLAS, and prints one `setup`
line, a sha256 over the graph's `row_ptr` and `col_idx`, the features,
labels, the three masks, `cluster_of` and `edge_cut`, then one line per arm:
its index, its mode and one sha256 over its `format_record` lines and its
final `params.flat()` bytes. Two trees that print the same lines set up and
train bit-identically on that workload and seed; `perfbench/run.py` hashes
the records only, and with `repr(TrainConfig)`, so it cannot show this when
a config field changes.
"""

from __future__ import annotations

import os

# before numpy loads. Training's gradients do not depend on the BLAS thread
# count (tests/test_blas_threads.py), but that test covers two arms on one
# graph; the pin keeps a comparison of two trees to the one setting the
# benchmark's children run under (perfbench/run.py's CHILD_ENV).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no cache files under perfbench/

import numpy as np  # noqa: E402
from child import setup  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from staleburner.metrics import format_record  # noqa: E402
from staleburner.trainer import run_training  # noqa: E402


def setup_hash(ds, part) -> str:
    """sha256 hex over the arrays set-up built and the partition's edge cut."""
    digest = hashlib.sha256()
    for a in (ds.graph.row_ptr, ds.graph.col_idx, ds.features, ds.labels,
              ds.train_mask, ds.val_mask, ds.test_mask, part.cluster_of):
        digest.update(np.ascontiguousarray(a).tobytes())
    digest.update(str(part.edge_cut).encode())
    return digest.hexdigest()


def arm_hashes(w, ds, part, seed: int) -> list[tuple[str, str]]:
    """(mode, sha256 hex) for each arm of the workload, in order."""
    out = []
    for cfg in w.arms(seed):
        records, params = run_training(cfg, ds, part)
        digest = hashlib.sha256()
        for r in records:
            digest.update((format_record(r) + "\n").encode())
        digest.update(params.flat().tobytes())
        out.append((cfg.mode, digest.hexdigest()))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]
    ds, part = setup(w, args.seed)
    print(f"{args.workload} seed {args.seed} setup {setup_hash(ds, part)}", flush=True)
    for i, (mode, sha) in enumerate(arm_hashes(w, ds, part, args.seed)):
        print(f"{args.workload} seed {args.seed} arm {i} {mode} {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
