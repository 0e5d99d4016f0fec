"""The dense side of whole-graph steps on the block runner: a layer's
transform, the loss and backward's row work split into row blocks when every
block carries at least SPLIT_WORK multiply-adds. Every split result
must equal the unsplit one bit for bit, and batch-sized work must never
start a thread.
"""

from __future__ import annotations

import hashlib
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import _sparsetools

from staleburner import graph, history, model, partition, rng, trainer
from staleburner.graph import NormAdj, even_blocks, sbm_generate
from staleburner.metrics import format_record
from staleburner.model import LayerCache, backward, init_params, layer_apply, loss_and_grad
from staleburner.partition import partition_graph
from staleburner.trainer import TrainConfig, run_training

KERNELS = {model._affine_rows, model._softmax_rows, model._backward_rows}


@pytest.fixture
def own_pool(monkeypatch):
    """Start from no helper threads; shut down whatever pool the test starts."""
    monkeypatch.setattr(graph, "_helpers", None)
    yield
    if graph._helpers is not None:
        graph._helpers.shutdown()


def least_units(unit_work: int) -> int:
    return max(2, -(-graph.SPLIT_WORK // unit_work))


def odd_blocks(size: int, unit_work: int) -> list[int]:
    """Four uneven blocks, each at the floor or just above it, where they fit."""
    least = least_units(unit_work)
    if size < 4 * least + 4:
        return [0, size]
    return [0, least + 1, 2 * least + 4, size - least, size]


def split_as(monkeypatch, how: str) -> None:
    """'unsplit': one block; 'cpus2'/'cpus3': the runner's own bounds on that
    many CPUs; 'odd': uneven blocks above the floor."""
    if how == "odd":
        monkeypatch.setattr(graph, "_cpus", lambda: 2)
        monkeypatch.setattr(model, "even_blocks", odd_blocks)
    else:
        cpus = {"unsplit": 1, "cpus2": 2, "cpus3": 3}[how]
        monkeypatch.setattr(graph, "_cpus", lambda: cpus)


@pytest.fixture
def dense_jobs(monkeypatch):
    """(kernel, number of blocks) of every dense job run."""
    jobs = []
    real = model.run_blocks

    def recording(kernel, blocks):
        jobs.append((kernel, len(blocks)))
        return real(kernel, blocks)

    monkeypatch.setattr(model, "run_blocks", recording)
    return jobs


SPLITS = ["unsplit", "cpus2", "cpus3", "odd"]
FORWARD_SHAPES = [(50_000, 32, 64), (50_000, 64, 50), (20_000, 32, 64), (20_000, 64, 20)]


def forward_outputs(n: int, d_in: int, d_out: int) -> list[bytes]:
    gen = np.random.default_rng(n + d_in + d_out)
    agg = gen.normal(size=(n, d_in))
    w = gen.normal(size=(d_in, d_out))
    b = gen.normal(size=d_out)
    out = []
    for last, keep_z in ((True, False), (False, False), (False, True)):
        _, z, h = layer_apply(None, None, w, b, last=last, agg=agg, keep_z=keep_z)
        out += [h.tobytes()] + ([z.tobytes()] if keep_z else [])
    return out


@pytest.mark.parametrize("shape", FORWARD_SHAPES)
def test_forward_blocks_equal_unsplit(monkeypatch, own_pool, dense_jobs, shape):
    split_as(monkeypatch, "unsplit")
    want = forward_outputs(*shape)
    assert all(blocks == 1 for _, blocks in dense_jobs)
    for how in SPLITS[1:]:
        split_as(monkeypatch, how)
        del dense_jobs[:]
        assert forward_outputs(*shape) == want, how
        assert all(blocks > 1 for _, blocks in dense_jobs), how


def loss_outputs() -> tuple[float, bytes]:
    gen = np.random.default_rng(50)
    logits = gen.normal(scale=5.0, size=(50_000, 50))
    logits[7, 3] = 1e6  # saturated row
    logits[11] = 0.0    # uniform row
    labels = gen.integers(0, 50, size=50_000)
    mask = gen.random(50_000) < 0.6
    mask[[7, 11]] = True
    loss, dlogits = loss_and_grad(logits, labels, mask)
    return loss, dlogits.tobytes()


def test_loss_blocks_equal_unsplit(monkeypatch, own_pool, dense_jobs):
    split_as(monkeypatch, "unsplit")
    want = loss_outputs()
    for how in SPLITS[1:]:
        split_as(monkeypatch, how)
        del dense_jobs[:]
        assert loss_outputs() == want, how
        assert dense_jobs and all(blocks > 1 for _, blocks in dense_jobs), how


def whole_graph_cache(n: int = 50_000, dims=(32, 64, 50), seed: int = 60):
    """A whole-graph cache with random aggregations and ReLU outputs (a
    quarter of them exact zeros) over the identity operator, the gradient of
    its logits, and its parameters."""
    gen = np.random.default_rng(seed)
    ids = np.arange(n, dtype=np.int64)
    adj = NormAdj(num_rows=n, num_cols=n, row_ptr=np.arange(n + 1, dtype=np.int64),
                  col_idx=ids, values=np.ones(n), symmetric=True)
    params = init_params(list(dims), seed=seed)
    cache = LayerCache(adj=adj, num_in_batch=n)
    for l, d in enumerate(dims[1:]):
        cache.aggs.append(gen.normal(size=(n, dims[l])))
        h = gen.normal(size=(n, d))
        if l < len(dims) - 2:
            np.maximum(h - 0.7, 0.0, out=h)
        cache.hs.append(h)
    d_out = gen.normal(size=(n, dims[-1]))
    return cache, d_out, params


def backward_outputs(cache, d_out, params) -> list[bytes]:
    grads, d_hidden = backward(cache, d_out, params)
    return [a.tobytes() for a in grads.weights + grads.biases + d_hidden]


@pytest.mark.parametrize("dims", [(32, 64, 50), (32, 64, 64, 20)])
def test_backward_blocks_equal_unsplit(monkeypatch, own_pool, dense_jobs, dims):
    case = whole_graph_cache(dims=dims)
    split_as(monkeypatch, "unsplit")
    want = backward_outputs(*case)
    for how in SPLITS[1:]:
        split_as(monkeypatch, how)
        del dense_jobs[:]
        assert backward_outputs(*case) == want, how
        assert dense_jobs and all(blocks > 1 for _, blocks in dense_jobs), how


def test_blocks_carry_at_least_the_split_work(monkeypatch):
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(graph, "_cpus", lambda: cpus)
        for size in (0, 1, 2, 3, 5, 64, 1000, 4097, 20_000, 50_000, 123_457):
            for unit_work in (1, 7, 64, 1280, 3200, 6400, graph.SPLIT_WORK // 3,
                              graph.SPLIT_WORK, 5 * graph.SPLIT_WORK):
                bounds = even_blocks(size, unit_work)
                assert bounds[0] == 0 and bounds[-1] == size
                blocks = np.diff(bounds)
                if len(blocks) == 1:
                    continue
                assert cpus > 1 and len(blocks) <= graph.BLOCKS_PER_CPU * cpus
                assert blocks.min() >= 2
                assert blocks.min() * unit_work >= graph.SPLIT_WORK
                assert blocks.max() - blocks.min() <= 1


def block_work(kernel, args) -> int:
    """Multiply-adds (or their equivalent) one block of a dense job carries."""
    if kernel is model._affine_rows:
        agg, w = args[0], args[1]
        return len(agg) * w.size
    if kernel is model._softmax_rows:
        logits, ids = args[0], args[2]
        return len(ids) * logits.shape[1] * model.LOGIT_WORK
    dh, w, p = args[0], args[3], args[4]
    return len(dh) * (w.size if p is not None else model.MASK_WORK * dh.shape[1])


def run_digest(cfg: TrainConfig, ds, part) -> list[str]:
    records, params = run_training(cfg, ds, part)
    lines = "".join(format_record(r) + "\n" for r in records)
    return [hashlib.sha256(lines.encode()).hexdigest(),
            hashlib.sha256(params.flat().tobytes()).hexdigest()]


@pytest.fixture(scope="module")
def sbm_20k():
    ds = sbm_generate(20, 1000, 0.01, 1e-4, d_in=32, seed=7)
    return ds, partition_graph(ds.graph, 32, seed=8)


@pytest.mark.parametrize("cfg", [
    TrainConfig(mode="full", hidden=64, lr=0.01, epochs=2, seed=9),
    TrainConfig(mode="rest", refresh_per_step=1, hidden=64, lr=0.01, epochs=1,
                probe_every=8, seed=9),
], ids=["full", "rest"])
def test_training_is_identical_on_any_cpu_count(monkeypatch, own_pool, sbm_20k, cfg):
    ds, part = sbm_20k
    blocks = []
    real = model.run_blocks

    def checking(kernel, jobs):
        blocks.append(len(jobs))
        if len(jobs) > 1:
            assert all(block_work(kernel, job) >= graph.SPLIT_WORK for job in jobs)
        return real(kernel, jobs)

    monkeypatch.setattr(model, "run_blocks", checking)
    digests = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(graph, "_cpus", lambda: cpus)
        del blocks[:]
        digests[cpus] = run_digest(cfg, ds, part)
        assert (max(blocks) > 1) == (cpus > 1)
    assert digests[1] == digests[2] == digests[3]


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_split_peaks_no_higher_than_unsplit(monkeypatch, own_pool):
    cache, d_out, params = whole_graph_cache()
    gen = np.random.default_rng(61)
    labels = gen.integers(0, 50, size=len(d_out))
    mask = gen.random(len(d_out)) < 0.6
    peaks = {}
    for cpus in (1, 2):
        monkeypatch.setattr(graph, "_cpus", lambda: cpus)
        backward(cache, d_out, params)  # helpers started outside the measurement
        peaks[cpus] = (traced_peak(lambda: backward(cache, d_out, params)),
                       traced_peak(lambda: loss_and_grad(d_out, labels, mask)))
    assert peaks[2][0] <= peaks[1][0]
    assert peaks[2][1] <= peaks[1][1]


# what the benchmark's tracer wraps (perfbench/tracer.py, `install`)
TRACED = [
    (graph.NormAdj, "matmul"), (graph.NormAdj, "t_matmul"), (graph, "sbm_generate"),
    (trainer, "normalize_adjacency"), (rng.Rng, "normals"), (rng.Rng, "uniforms"),
    (partition, "partition_graph"), (trainer, "make_batch"),
    (partition, "make_batch_from_nodes"), (trainer, "make_batch_from_nodes"),
    (trainer, "schedule_epoch"), (history.HistoryTable, "pull"),
    (history.HistoryTable, "push"), (trainer, "persistence_stats"),
    (model, "layer_apply"), (trainer, "layer_apply"), (trainer, "backward"),
    (trainer, "full_forward"), (trainer, "loss_and_grad"), (model.Adam, "step"),
    (trainer, "rest_refresh_pass"), (trainer, "train_step_gas"), (trainer, "evaluate"),
    (trainer, "_probe_apx_errors"), (trainer, "rest_is_refresh_selection"),
    (trainer, "approximation_error"), (trainer, "run_training"),
]


def test_helpers_run_only_numpy_and_scipy_kernels(monkeypatch):
    """Helpers run the sparse kernel or a dense block kernel, and none of
    them enters a function the benchmark's tracer times: its spans are kept
    on one stack, which a helper thread would corrupt."""
    submitted = []
    in_helper = threading.local()

    class Recorder:
        def submit(self, fn, *args):
            submitted.append(fn)
            in_helper.on = True
            try:
                fn(*args)
            finally:
                in_helper.on = False
            return Done()

    class Done:
        def cancel(self):
            return False

        def result(self):
            return None

    entered = []
    for owner, name in TRACED:
        def guard(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            if getattr(in_helper, "on", False):
                entered.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, guard)
    monkeypatch.setattr(graph, "_helpers", Recorder())
    monkeypatch.setattr(graph, "_cpus", lambda: 2)
    monkeypatch.setattr(graph, "SPLIT_WORK", 64)
    ds = sbm_generate(4, 60, 0.1, 0.01, d_in=6, seed=5)
    part = partition.partition_graph(ds.graph, 4, seed=2)
    for cfg in (TrainConfig(mode="full", hidden=8, epochs=2, lr=0.05, seed=3),
                TrainConfig(mode="rest", hidden=8, num_layers=3, epochs=1, lr=0.05,
                            seed=3, probe_every=1, warmup_refresh=True)):
        trainer.run_training(cfg, ds, part)
    assert entered == []
    assert set(submitted) == KERNELS | {_sparsetools.csr_matvecs}


def test_sweep_sized_runs_start_no_thread(monkeypatch, own_pool):
    """Every arm of the 2k-node sweep stays below the split floor."""
    def no_pool():
        raise AssertionError("a sweep-sized job asked for helper threads")

    monkeypatch.setattr(graph, "_helper_pool", no_pool)
    monkeypatch.setattr(graph, "_cpus", lambda: 2)
    before = threading.active_count()
    ds = sbm_generate(10, 200, 0.10, 0.002, d_in=10, seed=1)
    part = partition_graph(ds.graph, 16, seed=1)
    base = dict(hidden=32, num_layers=2, lr=0.05, seed=1)
    arms = [TrainConfig(mode="full", epochs=16, **base)]
    for mode, f, probe in [("rest", 0, 1), ("rest", 1, 1), ("rest", 2, 1),
                           ("rest", 4, 1), ("rest_is", 1, 0)]:
        arms.append(TrainConfig(mode=mode, refresh_per_step=f, probe_every=probe,
                                epochs=1, warmup_refresh=True, **base))
    for cfg in arms:
        run_training(cfg, ds, part)
    assert threading.active_count() == before
