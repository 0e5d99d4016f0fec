"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
The directional criteria (5-7) share one 5-seed sweep on a 2000-node
community graph (10 blocks x 200 nodes, 16 clusters, 2 layers, 5 epochs);
the full-batch anchor gets the same number of parameter updates (80).
"""

from __future__ import annotations

import logging
import math
import os
import time

import numpy as np
import pytest

from staleburner.boundcheck import run_bound_check
from staleburner.cli import main as cli_main
from staleburner.graph import sbm_generate
from staleburner.model import backward, full_forward, loss_and_grad
from staleburner.partition import partition_graph
from staleburner.rng import derive_seed
from staleburner.trainer import TrainConfig, run_training

from conftest import (dense_norm_adj, fd_param_grads, max_rel_err,
                      smooth_gradcheck_instance)

SWEEP_SEEDS = 5
SWEEP = dict(blocks=10, nodes_per_block=200, p_in=0.10, p_out=0.002, d_in=10)
SWEEP_PARTS = 16
SWEEP_CFG = dict(hidden=32, num_layers=2, lr=0.05, epochs=5,
                 warmup_refresh=True)
FULL_ANCHOR_EPOCHS = 80  # same number of parameter updates as 5 epochs x 16 clusters


def report(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status} ({time.perf_counter() - t0:.1f}s): {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sweep_runs():
    """gas / refresh-frequency / importance runs plus the full-batch anchor,
    per seed. Shared by criteria 5, 6, and 7."""
    logging.disable(logging.WARNING)
    out = []
    try:
        for seed in range(SWEEP_SEEDS):
            ds = sbm_generate(**SWEEP, seed=derive_seed(seed, "dataset"))
            part = partition_graph(ds.graph, SWEEP_PARTS,
                                   derive_seed(seed, "partition"))
            full_recs, _ = run_training(
                TrainConfig(mode="full", epochs=FULL_ANCHOR_EPOCHS, seed=seed,
                            hidden=SWEEP_CFG["hidden"], lr=SWEEP_CFG["lr"]),
                ds, part)
            runs = {"full_final": full_recs[-1].acc_val}
            for key, mode, freq, probe in [
                    ("f0", "rest", 0, 1), ("f1", "rest", 1, 1),
                    ("f2", "rest", 2, 1), ("f4", "rest", 4, 1),
                    ("is1", "rest_is", 1, 0)]:
                cfg = TrainConfig(mode=mode, refresh_per_step=freq, seed=seed,
                                  probe_every=probe, **SWEEP_CFG)
                recs, _ = run_training(cfg, ds, part)
                runs[key] = recs
            out.append(runs)
    finally:
        logging.disable(logging.NOTSET)
    return out


def test_criterion_1_single_cluster_modes_bitwise_identical():
    t0 = time.perf_counter()
    ds = sbm_generate(4, 25, 0.3, 0.02, seed=derive_seed(11, "dataset"))
    part = partition_graph(ds.graph, 1, seed=0)
    logging.disable(logging.WARNING)
    try:
        trajectories = {}
        for mode in ("full", "gas", "rest", "rest_is"):
            snaps: list[bytes] = []
            cfg = TrainConfig(mode=mode, epochs=20, hidden=16, seed=7, lr=0.01,
                              refresh_per_step=1)
            run_training(cfg, ds, part,
                         on_step=lambda st: snaps.append(st.params.flat().tobytes()))
            trajectories[mode] = snaps
    finally:
        logging.disable(logging.NOTSET)
    same = all(trajectories[m] == trajectories["full"]
               for m in ("gas", "rest", "rest_is"))
    steps_ok = all(len(t) == 20 for t in trajectories.values())
    report(1, same and steps_ok,
           "single-cluster full/gas/rest/rest_is parameter "
           "trajectories bitwise-identical over 20 steps", t0)


def test_criterion_2_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    depths = [1, 2, 3]
    for i in range(20):
        ds, adj, params = smooth_gradcheck_instance(i, depths[i % 3])
        hs, cache = full_forward(adj, ds.features, params)
        _, dlogits = loss_and_grad(hs[-1], ds.labels, ds.train_mask)
        grads, _ = backward(cache, dlogits, params)

        def loss_of(p):
            out, _ = full_forward(adj, ds.features, p)
            return loss_and_grad(out[-1], ds.labels, ds.train_mask)[0]

        fd = fd_param_grads(loss_of, params, step=1e-4)
        for a, f in zip(grads.weights + grads.biases, fd):
            worst = max(worst, max_rel_err(a, f))
    report(2, worst <= 1e-4,
           f"20 instances (n<=30, depth 1-3): max gradient rel err "
           f"{worst:.2e} <= 1e-4", t0)


def test_criterion_3_gradient_error_bound_dominates():
    t0 = time.perf_counter()
    ratio = run_bound_check(seeds=100, n=50, layer_choices=(2, 3))
    report(3, ratio <= 1.0,
           f"bound check over 100 seeds, n=50, depths 2 and 3: "
           f"max measured/bound ratio {ratio:.4f} <= 1.0", t0)


def test_criterion_4_persistence_law():
    t0 = time.perf_counter()
    ds = sbm_generate(8, 25, 0.3, 0.01, seed=derive_seed(4, "dataset"))
    part = partition_graph(ds.graph, 8, seed=derive_seed(4, "partition"))
    ok = True
    details = []
    for freq in (0, 1, 3, 7):
        cfg = TrainConfig(mode="rest", refresh_per_step=freq, epochs=3,
                          hidden=8, seed=1, lr=0.01)
        records, _ = run_training(cfg, ds, part)
        warm = [r for r in records if r.step > 8]  # first epoch warms the table
        expected = math.ceil(8 / (freq + 1))
        got = {r.persist_max[0] for r in warm}
        details.append(f"F={freq}: {sorted(got)} (want {{{expected}}})")
        ok = ok and got == {expected}
    report(4, ok, "round-robin P=8, c=1 max persistence after warm-up: "
           + "; ".join(details), t0)


def test_criterion_5_staleness_reduction(sweep_runs):
    t0 = time.perf_counter()
    mean_err = {}
    for key in ("f0", "f1", "f2", "f4"):
        mean_err[key] = [float(np.mean([r.apx_err[-1] for r in runs[key]]))
                         for runs in sweep_runs]
    wins = sum(e1 < e0 for e0, e1 in zip(mean_err["f0"], mean_err["f1"]))
    seq = [float(np.mean(mean_err[k])) for k in ("f0", "f1", "f2", "f4")]
    monotone = all(seq[i + 1] <= seq[i] * 1.05 for i in range(3))
    report(5, wins >= 4 and monotone,
           f"refresh lowers final-layer error in {wins}/5 seeds; "
           f"mean error by F: {[round(s, 3) for s in seq]} nonincreasing "
           f"within 5% (shared 5-seed sweep)", t0)


def _steps_to_threshold(records, threshold):
    return next((r.step for r in records if r.acc_val >= threshold), None)


def test_criterion_6_convergence_not_slower(sweep_runs):
    t0 = time.perf_counter()
    wins = 0
    details = []
    for runs in sweep_runs:
        threshold = 0.95 * runs["full_final"]
        s_gas = _steps_to_threshold(runs["f0"], threshold)
        s_rest = _steps_to_threshold(runs["f1"], threshold)
        details.append(f"{s_gas}/{s_rest}")
        if s_rest is not None and (s_gas is None or s_rest <= s_gas):
            wins += 1
    report(6, wins >= 4,
           f"steps to 0.95 x full-batch val accuracy (gas/refresh): "
           f"{' '.join(details)} -> refresh no slower in {wins}/5 seeds "
           f"(shared 5-seed sweep)", t0)


def test_criterion_7_accuracy_non_regression(sweep_runs):
    t0 = time.perf_counter()
    gas = float(np.mean([runs["f0"][-1].acc_val for runs in sweep_runs]))
    rest = float(np.mean([runs["f1"][-1].acc_val for runs in sweep_runs]))
    rest_is = float(np.mean([runs["is1"][-1].acc_val for runs in sweep_runs]))
    ok = rest >= gas - 0.005 and rest_is >= gas - 0.005
    report(7, ok,
           f"mean final val accuracy: gas {gas:.4f}, refresh {rest:.4f}, "
           f"importance refresh {rest_is:.4f} (allowed drop 0.005; "
           f"shared 5-seed sweep)", t0)


def test_criterion_8_spectral_norm_invariant():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(8)
    for i in range(100):
        blocks = int(rng.integers(2, 8))
        npb = int(rng.integers(2, 200 // blocks + 1))
        p_in = float(rng.uniform(0.1, 0.9))
        p_out = float(rng.uniform(0.0, p_in * 0.5))
        ds = sbm_generate(blocks, npb, p_in, p_out, seed=derive_seed(i, "spectral"))
        eigs = np.linalg.eigvalsh(dense_norm_adj(ds.graph))
        worst = max(worst, float(np.abs(eigs).max()))
    report(8, worst <= 1.0 + 1e-6,
           f"dense eigen-oracle over 100 random graphs (n<=200): "
           f"max |eigenvalue| {worst:.9f} <= 1 + 1e-6", t0)


def test_criterion_9_pipeline_bit_reproducible(tmp_path):
    t0 = time.perf_counter()

    def pipeline(root):
        os.makedirs(root, exist_ok=True)
        data = os.path.join(root, "data")
        assert cli_main(["generate", "--out", data, "--blocks", "4",
                         "--nodes-per-block", "50", "--p-in", "0.3",
                         "--p-out", "0.02", "--seed", "13"]) == 0
        assert cli_main(["partition", "--data", f"dir:{data}", "--parts", "4",
                         "--seed", "13", "--out", os.path.join(root, "clusters.csv")]) == 0
        cfg = os.path.join(root, "run.cfg")
        with open(cfg, "w") as f:
            f.write(f"dataset=dir:{data}\nparts=4\nmode=rest\nF=1\nc=1\n"
                    "epochs=2\nseed=13\nlr=0.01\nhidden=8\nlayers=2\n"
                    "probe_every=1\n")
        metrics = os.path.join(root, "metrics.csv")
        ckpt = os.path.join(root, "model.ckpt")
        assert cli_main(["train", "--config", cfg, "--out", metrics,
                         "--checkpoint", ckpt]) == 0
        assert cli_main(["eval", "--checkpoint", ckpt, "--data",
                         f"dir:{data}"]) == 0
        with open(metrics, "rb") as f:
            return f.read()

    first = pipeline(str(tmp_path / "run1"))
    second = pipeline(str(tmp_path / "run2"))
    report(9, first == second and len(first) > 0,
           f"generate -> partition -> train -> eval twice: metrics.csv "
           f"bitwise-identical ({len(first)} bytes)", t0)
