"""Gradients, records and parameters do not depend on the BLAS thread count.

A multi-threaded OpenBLAS orders the sums of a large product by its shape
and thread count, and the thread count is read once, when numpy loads. So
each setting runs in its own interpreter: OPENBLAS_NUM_THREADS set to 1,
set to 2, or unset (with OMP_NUM_THREADS and GOTO_NUM_THREADS, which
OpenBLAS reads in its place). Each child computes the weight and bias
gradient of 50000 x 64 and 50000 x 50 operands, then trains a `full` and a
`rest` arm on the 20k-node graph of test_dense_blocks with graph._cpus
patched to 1, 2 and 3, and prints a sha256 of each result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import staleburner

SRC = str(Path(staleburner.__file__).resolve().parent.parent)

CHILD = r"""
import hashlib, json
import numpy as np
from staleburner import graph
from staleburner.graph import sbm_generate
from staleburner.metrics import format_record
from staleburner.model import param_grads
from staleburner.partition import partition_graph
from staleburner.trainer import TrainConfig, run_training

def sha(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

gen = np.random.default_rng(64)
out = {"param_grads": sha(*param_grads(gen.normal(size=(50_000, 64)),
                                       gen.normal(size=(50_000, 50))))}
ds = sbm_generate(20, 1000, 0.01, 1e-4, d_in=32, seed=7)
part = partition_graph(ds.graph, 32, seed=8)
cfgs = [TrainConfig(mode="full", hidden=64, lr=0.01, epochs=2, seed=9),
        TrainConfig(mode="rest", refresh_per_step=1, hidden=64, lr=0.01, epochs=1,
                    probe_every=8, seed=9)]
for cpus in (1, 2, 3):
    graph._cpus = lambda: cpus
    for cfg in cfgs:
        records, params = run_training(cfg, ds, part)
        lines = "".join(format_record(r) + "\n" for r in records)
        out[f"{cfg.mode} cpus {cpus}"] = [hashlib.sha256(lines.encode()).hexdigest(),
                                          sha(params.flat())]
print(json.dumps(out))
"""

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")


def child_digests(threads: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_training_is_identical_on_any_blas_thread_count():
    runs = {threads: child_digests(threads) for threads in ("1", "2", None)}
    assert runs["1"] == runs["2"] == runs[None]
    digests = runs["1"]
    for mode in ("full", "rest"):
        assert digests[f"{mode} cpus 1"] == digests[f"{mode} cpus 2"] == digests[f"{mode} cpus 3"]
