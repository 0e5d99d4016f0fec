"""The row-parallel sparse kernel: `NormAdj.matmul` and `NormAdj.t_matmul`
cut large products into row blocks run on helper threads. Every result must
equal scipy's unsplit product bit for bit (a transpose, the targets' rows of
scipy's), and small products must never start a thread.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from scipy.sparse import _sparsetools

from staleburner import graph
from staleburner.graph import NormAdj, csr_from_edges, normalize_adjacency, sbm_generate
from staleburner.partition import make_batch, make_batch_from_nodes, partition_graph
from staleburner.trainer import TrainConfig, run_training

from test_golden_records import GOLDEN_PATH, cases, digests


@pytest.fixture
def own_pool(monkeypatch):
    """Start from no helper threads; shut down whatever pool the test starts."""
    monkeypatch.setattr(graph, "_helpers", None)
    yield
    if graph._helpers is not None:
        graph._helpers.shutdown()


@pytest.fixture
def kernel_calls(monkeypatch):
    """(rows, thread id) of every kernel call, in submission order per thread."""
    calls = []

    def recording(*args):
        calls.append((args[0], threading.get_ident()))
        return _sparsetools.csr_matvecs(*args)

    monkeypatch.setattr(graph, "csr_matvecs", recording)
    return calls


def force_bounds(monkeypatch, bounds_of_rows):
    """Split every product, at bounds given as a function of the row count."""
    monkeypatch.setattr(graph, "SPLIT_WORK", 0)
    monkeypatch.setattr(graph, "row_blocks",
                        lambda row_ptr, parts: bounds_of_rows(len(row_ptr) - 1))


def hand_built() -> NormAdj:
    """Square but not symmetric, with empty rows 1 and 4 and an empty column 3."""
    row_ptr = np.array([0, 2, 2, 5, 6, 6], dtype=np.int64)
    col_idx = np.array([1, 4, 0, 1, 2, 0], dtype=np.int64)
    values = np.array([0.5, -1.25, 3.0, 0.1, 2.0 / 3.0, 7.0])
    return NormAdj(num_rows=5, num_cols=5, row_ptr=row_ptr, col_idx=col_idx,
                   values=values)


def operators() -> list[NormAdj]:
    """Fresh operators (row bounds are cached per operator), each the rows
    of a symmetric one: whole graphs with isolated nodes, of one node and of
    the batches that follow; one- and two-cluster batch operators; and the
    halo batch rest_is builds for the latter."""
    ds = sbm_generate(4, 15, 0.3, 0.05, seed=2)
    src = np.array([0, 0, 3, 7, 7, 20, 21, 30], dtype=np.int64)
    dst = np.array([1, 5, 4, 8, 9, 21, 39, 31], dtype=np.int64)
    g = csr_from_edges(40, src, dst)  # most of the 40 nodes are isolated
    adj = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=1)
    one_cluster, two_clusters = make_batch(adj, part, [1]), make_batch(adj, part, [0, 2])
    halo = make_batch_from_nodes(adj, two_clusters.halo)
    batches = [b.local_adj for b in (one_cluster, two_clusters, halo)]
    assert all(b.num_cols > b.num_rows for b in batches)
    one = csr_from_edges(1, src[:0], dst[:0])
    return [normalize_adjacency(g), normalize_adjacency(one), adj] + batches


BOUNDS = {
    "one-block": lambda n: [0, n],
    "halves": lambda n: [0, n // 2, n],
    "odd": lambda n: [0, min(1, n), min(n, 4), max(min(n, 4), n - 1), n],
    "empty-blocks": lambda n: [0, 0, min(2, n), min(2, n), n, n],
    "row-per-block": lambda n: list(range(n + 1)),
}


@pytest.mark.parametrize("bounds", sorted(BOUNDS))
@pytest.mark.parametrize("width", [1, 64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_split_products_equal_scipy_bitwise(monkeypatch, own_pool, kernel_calls,
                                             bounds, width, dtype):
    force_bounds(monkeypatch, BOUNDS[bounds])
    rng = np.random.default_rng(width)
    ops = operators()
    for adj in ops + [hand_built()]:
        x = rng.normal(size=(adj.num_cols, width)).astype(dtype)
        del kernel_calls[:]
        got = adj.matmul(x)
        assert got.dtype == np.float64
        assert np.array_equal(got, adj.csr @ x)
        assert len(kernel_calls) == len(BOUNDS[bounds](adj.num_rows)) - 1

    for adj in ops:
        xt = rng.normal(size=(adj.num_rows, width)).astype(dtype)
        del kernel_calls[:]
        got = adj.t_matmul(xt)
        assert got.dtype == np.float64
        assert np.array_equal(got, (adj.csr.T @ xt)[:adj.num_rows])
        assert len(kernel_calls) == len(BOUNDS[bounds](adj.num_rows)) - 1


def test_more_blocks_than_rows(monkeypatch, own_pool, kernel_calls):
    monkeypatch.setattr(graph, "SPLIT_WORK", 0)
    monkeypatch.setattr(graph, "_cpus", lambda: 9)
    x = np.random.default_rng(1).normal(size=(5, 3))
    symmetric = normalize_adjacency(csr_from_edges(5, np.array([0, 2]), np.array([1, 3])))
    for adj in (hand_built(), symmetric):
        assert adj.row_bounds[0] == 0 and adj.row_bounds[-1] == 5
        assert len(adj.row_bounds) == 9 * graph.BLOCKS_PER_CPU + 1
        assert np.array_equal(adj.matmul(x), adj.csr @ x)
    assert np.array_equal(symmetric.t_matmul(x), symmetric.csr.T @ x)


def test_row_blocks_balance_nnz():
    rng = np.random.default_rng(3)
    for parts in (1, 2, 3, 7):
        for lengths in (rng.integers(0, 30, size=101), np.zeros(5, dtype=np.int64),
                        np.array([100, 0, 0, 1, 1]), rng.integers(0, 3, size=2)):
            row_ptr = np.concatenate([[0], np.cumsum(lengths)])
            bounds = graph.row_blocks(row_ptr, parts)
            n = len(lengths)
            assert len(bounds) == parts + 1 and bounds[0] == 0 and bounds[-1] == n
            assert all(a <= b for a, b in zip(bounds, bounds[1:]))
            nnz = np.diff(row_ptr[bounds])
            # no block holds more than its share plus one row
            assert nnz.max() <= row_ptr[-1] / parts + lengths.max(initial=0)


def test_operators_put_their_targets_first():
    """NormAdj's invariant, which t_matmul's row product rests on: the
    operators the library builds take their rows from the symmetric Â, and
    their first num_rows columns are the same targets in the same order."""
    ds = sbm_generate(4, 15, 0.3, 0.05, seed=2)
    adj = normalize_adjacency(ds.graph)
    full = adj.to_dense()
    assert np.array_equal(full, full.T)
    part = partition_graph(ds.graph, 4, seed=1)
    two_clusters = make_batch(adj, part, [0, 2])
    for batch in (make_batch(adj, part, [1]), two_clusters,
                  make_batch_from_nodes(adj, two_clusters.halo),
                  make_batch(adj, partition_graph(ds.graph, 1, seed=1), [0])):
        local = batch.local_adj.to_dense()
        nb = batch.local_adj.num_rows
        assert nb == len(batch.in_batch)
        assert np.array_equal(local[:, :nb], full[np.ix_(batch.in_batch, batch.in_batch)])
        assert np.array_equal(local[:, nb:], full[np.ix_(batch.in_batch, batch.halo)])


def test_shape_mismatch_raises():
    adj = hand_built()
    with pytest.raises(ValueError):
        adj.matmul(np.ones((4, 2)))
    with pytest.raises(ValueError):
        adj.matmul(np.ones(5))
    with pytest.raises(ValueError):
        adj.t_matmul(np.ones((4, 2)))
    batch = operators()[-2]  # two clusters and their halo
    for rows in (1, batch.num_cols):  # one row would broadcast into the padding
        with pytest.raises(ValueError, match="transpose"):
            batch.t_matmul(np.ones((rows, 2)))
    with pytest.raises(ValueError):
        batch.t_matmul(np.ones(batch.num_rows))


@pytest.mark.parametrize("cpus", [1, 2])
def test_transpose_into_out_equals_a_fresh_result(monkeypatch, own_pool, kernel_calls, cpus):
    """t_matmul(x, out=o) overwrites whatever o held with the bits of
    t_matmul(x), on square and halo operators, whole or split."""
    monkeypatch.setattr(graph, "SPLIT_WORK", 0)
    monkeypatch.setattr(graph, "_cpus", lambda: cpus)
    rng = np.random.default_rng(12)
    for adj in operators():
        x = rng.normal(size=(adj.num_rows, 16))
        before = x.copy()
        want = adj.t_matmul(x)
        out = np.full(want.shape, np.nan)  # a row the kernel skipped would stay NaN
        del kernel_calls[:]
        assert adj.t_matmul(x, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()
        assert len(kernel_calls) == len(adj.row_bounds) - 1 == \
            (graph.BLOCKS_PER_CPU * cpus if cpus > 1 else 1)


def test_transpose_refuses_an_out_it_cannot_write():
    ops = operators()
    for adj in (ops[2], ops[-2]):  # a whole graph; two clusters and their halo
        n = adj.num_rows
        x = np.ones((n, 3))
        for bad in (np.zeros((n, 2)), np.zeros((n + 1, 3)), np.zeros((n, 3), np.float32),
                    np.zeros((3, n)).T, np.zeros((n, 6))[:, ::2]):
            with pytest.raises(ValueError, match="out is"):
                adj.t_matmul(x, out=bad)
        assert np.all(x == 1.0)
    x = np.ones((ops[2].num_rows, 3))
    for alias in (x, x[:]):  # the kernel would read rows it has written
        with pytest.raises(ValueError, match="shares memory"):
            ops[2].t_matmul(x, out=alias)
    assert np.all(x == 1.0)


@pytest.mark.parametrize("cpus", [1, 2])
def test_product_into_out_equals_a_fresh_result(monkeypatch, own_pool, kernel_calls, cpus):
    """matmul(x, out=o) overwrites whatever o held with the bits of
    matmul(x), on square and halo operators, whole or split."""
    monkeypatch.setattr(graph, "SPLIT_WORK", 0)
    monkeypatch.setattr(graph, "_cpus", lambda: cpus)
    rng = np.random.default_rng(13)
    for adj in operators():
        x = rng.normal(size=(adj.num_cols, 16))
        before = x.copy()
        want = adj.matmul(x)
        out = np.full(want.shape, np.nan)  # a row the kernel skipped would stay NaN
        del kernel_calls[:]
        assert adj.matmul(x, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()
        assert len(kernel_calls) == len(adj.row_bounds) - 1 == \
            (graph.BLOCKS_PER_CPU * cpus if cpus > 1 else 1)


def test_product_refuses_an_out_it_cannot_write():
    ops = operators()
    for adj in (ops[2], ops[-2]):  # a whole graph; two clusters and their halo
        n = adj.num_rows
        x = np.ones((adj.num_cols, 3))
        for bad in (np.zeros((n, 2)), np.zeros((n + 1, 3)), np.zeros((n, 3), np.float32),
                    np.zeros((3, n)).T, np.zeros((n, 6))[:, ::2]):
            with pytest.raises(ValueError, match="out is"):
                adj.matmul(x, out=bad)
        assert np.all(x == 1.0)
    x = np.ones((ops[2].num_rows, 3))
    for alias in (x, x[:]):  # the kernel would read rows it has written
        with pytest.raises(ValueError, match="shares memory"):
            ops[2].matmul(x, out=alias)
    assert np.all(x == 1.0)


def test_symmetric_transpose_does_not_call_matmul(monkeypatch, own_pool):
    """A benchmark tracer wraps both methods; a nested call would count a
    transpose product twice."""
    force_bounds(monkeypatch, BOUNDS["halves"])

    def forbidden(self, dense):
        raise AssertionError("t_matmul called matmul")

    monkeypatch.setattr(NormAdj, "matmul", forbidden)
    rng = np.random.default_rng(5)
    for adj in operators():
        x = rng.normal(size=(adj.num_rows, 4))
        assert np.array_equal(adj.t_matmul(x), (adj.csr.T @ x)[:adj.num_rows])


def test_helper_threads_run_only_the_scipy_kernel(monkeypatch):
    submitted = []

    class Recorder:
        def submit(self, fn, *args):
            submitted.append(fn)
            fn(*args)
            return Done()

    class Done:
        def cancel(self):
            return False

        def result(self):
            return None

    force_bounds(monkeypatch, BOUNDS["odd"])
    monkeypatch.setattr(graph, "_helpers", Recorder())
    adj = normalize_adjacency(sbm_generate(4, 15, 0.3, 0.05, seed=2).graph)
    x = np.random.default_rng(6).normal(size=(adj.num_rows, 3))
    assert np.array_equal(adj.matmul(x), adj.csr @ x)
    assert np.array_equal(adj.t_matmul(x), adj.csr.T @ x)
    assert len(submitted) == 6
    assert all(fn is _sparsetools.csr_matvecs for fn in submitted)


def test_split_starts_one_helper_fewer_than_the_cpus(monkeypatch, own_pool, kernel_calls):
    monkeypatch.setattr(graph, "SPLIT_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    adj = normalize_adjacency(sbm_generate(4, 15, 0.3, 0.05, seed=2).graph)
    x = np.random.default_rng(7).normal(size=(adj.num_rows, 5))
    assert graph._helpers is None
    assert np.array_equal(adj.matmul(x), adj.csr @ x)
    assert graph._helpers is not None
    assert len(kernel_calls) == 3 * graph.BLOCKS_PER_CPU
    assert (adj.row_bounds[1], threading.get_ident()) in kernel_calls  # the first block
    assert len(graph._helpers._threads) <= 2


def test_caller_takes_back_blocks_no_helper_started(monkeypatch, own_pool, kernel_calls):
    """A helper that is busy elsewhere does not hold the product up."""
    monkeypatch.setattr(graph, "SPLIT_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    busy = graph._helper_pool().submit(release.wait, 60)
    try:
        adj = normalize_adjacency(sbm_generate(4, 15, 0.3, 0.05, seed=2).graph)
        x = np.random.default_rng(11).normal(size=(adj.num_rows, 5))
        assert np.array_equal(adj.matmul(x), adj.csr @ x)
        assert not busy.done()
    finally:
        release.set()
    assert busy.result(timeout=60)
    assert len(kernel_calls) == 2 * graph.BLOCKS_PER_CPU
    assert {tid for _, tid in kernel_calls} == {threading.get_ident()}


def test_one_cpu_runs_every_product_in_the_caller(monkeypatch, own_pool, kernel_calls):
    monkeypatch.setattr(graph, "SPLIT_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    before = threading.active_count()
    adj = normalize_adjacency(sbm_generate(4, 15, 0.3, 0.05, seed=2).graph)
    x = np.random.default_rng(8).normal(size=(adj.num_rows, 5))
    assert np.array_equal(adj.matmul(x), adj.csr @ x)
    assert np.array_equal(adj.t_matmul(x), adj.csr.T @ x)
    assert adj.row_bounds == [0, adj.num_rows]
    assert [tid for _, tid in kernel_calls] == [threading.get_ident()] * 2
    assert graph._helpers is None and threading.active_count() == before


def test_small_products_start_no_thread(own_pool):
    """A sweep-2k-sized run stays below the split threshold throughout."""
    ds = sbm_generate(10, 200, 0.10, 0.002, d_in=10, seed=1)
    part = partition_graph(ds.graph, 16, seed=1)
    before = threading.active_count()
    for cfg in (TrainConfig(mode="full", hidden=32, epochs=2, lr=0.05, seed=1),
                TrainConfig(mode="rest", hidden=32, epochs=1, lr=0.05, seed=1,
                            refresh_per_step=1, probe_every=1)):
        run_training(cfg, ds, part)
    assert graph._helpers is None
    assert threading.active_count() == before


def uneven_three(n: int) -> list[int]:
    return [0, min(1, n), max(min(1, n), 2 * n // 3), n]


@pytest.mark.parametrize("case", sorted(cases()))
def test_golden_records_with_every_product_split(monkeypatch, own_pool, case):
    split = []
    monkeypatch.setattr(graph, "SPLIT_WORK", 0)
    monkeypatch.setattr(graph, "row_blocks",
                        lambda row_ptr, parts: split.append(1) or uneven_three(len(row_ptr) - 1))
    golden = json.loads(GOLDEN_PATH.read_text())[case]
    assert digests(*cases()[case]) == golden
    assert split


def test_many_helpers_under_fast_thread_switching(monkeypatch, own_pool):
    """More helper threads than cores, switching as often as the interpreter
    allows: disjoint blocks of one output must still give scipy's bits."""
    monkeypatch.setattr(graph, "SPLIT_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    adj = normalize_adjacency(sbm_generate(10, 40, 0.2, 0.01, seed=3).graph)
    rng = np.random.default_rng(9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            x = rng.normal(size=(adj.num_rows, 16))
            assert np.array_equal(adj.matmul(x), adj.csr @ x)
            assert np.array_equal(adj.t_matmul(x), adj.csr.T @ x)
    finally:
        sys.setswitchinterval(interval)
    assert len(graph._helpers._threads) <= 7


def _split_product_exit_code() -> None:
    adj = normalize_adjacency(sbm_generate(4, 15, 0.3, 0.05, seed=2).graph)
    x = np.random.default_rng(10).normal(size=(adj.num_rows, 4))
    sys.exit(0 if np.array_equal(adj.matmul(x), adj.csr @ x) else 1)


def test_forked_child_starts_its_own_helpers(monkeypatch, own_pool):
    monkeypatch.setattr(graph, "SPLIT_WORK", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    adj = normalize_adjacency(sbm_generate(4, 15, 0.3, 0.05, seed=2).graph)
    adj.matmul(np.ones((adj.num_rows, 2)))
    assert graph._helpers is not None
    child = multiprocessing.get_context("fork").Process(target=_split_product_exit_code)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("a split product in a forked child never finished")
    assert child.exitcode == 0
