import itertools

import numpy as np
import pytest

from staleburner.graph import csr_from_edges, normalize_adjacency, sbm_generate
from staleburner.partition import (make_batch, make_batch_from_nodes,
                                   partition_graph, schedule_epoch)
from staleburner.rng import Rng
from staleburner.trainer import rest_is_refresh_selection

from conftest import clique_union, dense_norm_adj, path_graph
from reference_setup import partition_graph_reference


def test_single_part_is_everything():
    g = path_graph(10)
    part = partition_graph(g, 1, seed=0)
    assert part.num_parts == 1
    assert len(part.clusters[0]) == 10
    assert part.edge_cut == 0


def test_two_cliques_split_cleanly():
    g = clique_union(2, 50)
    for seed in range(5):
        part = partition_graph(g, 2, seed=seed)
        assert part.edge_cut == 0
        sets = {frozenset(c.tolist()) for c in part.clusters}
        assert sets == {frozenset(range(50)), frozenset(range(50, 100))}


def test_path_of_four_minimum_cut():
    g = path_graph(4)
    # enumeration oracle: all balanced 2-partitions (sizes 2+2)
    best = min(
        sum(1 for (u, v) in [(0, 1), (1, 2), (2, 3)]
            if (u in left) != (v in left))
        for left in itertools.combinations(range(4), 2))
    assert best == 1
    for seed in range(5):
        part = partition_graph(g, 2, seed=seed)
        assert part.edge_cut == best
        assert {frozenset(c.tolist()) for c in part.clusters} == \
            {frozenset({0, 1}), frozenset({2, 3})}


def test_partition_is_deterministic():
    ds = sbm_generate(4, 30, 0.3, 0.03, seed=1)
    a = partition_graph(ds.graph, 6, seed=9)
    b = partition_graph(ds.graph, 6, seed=9)
    assert np.array_equal(a.cluster_of, b.cluster_of)
    assert a.edge_cut == b.edge_cut


def test_partition_balance_and_coverage():
    ds = sbm_generate(5, 40, 0.2, 0.02, seed=2)
    part = partition_graph(ds.graph, 8, seed=5)
    sizes = np.array([len(c) for c in part.clusters])
    assert sizes.sum() == 200
    assert sizes.min() >= 1
    assert sizes.max() <= int(1.3 * 200 / 8)
    part.validate(ds.graph)


def test_partition_rejects_bad_counts():
    g = path_graph(4)
    with pytest.raises(ValueError):
        partition_graph(g, 0, seed=0)
    with pytest.raises(ValueError):
        partition_graph(g, 5, seed=0)


def test_batch_all_clusters_has_no_halo():
    ds = sbm_generate(3, 10, 0.4, 0.05, seed=3)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 3, seed=1)
    batch = make_batch(g_norm, part, [0, 1, 2])
    assert len(batch.halo) == 0
    assert np.array_equal(batch.in_batch, np.arange(30))
    assert np.array_equal(batch.local_adj.col_idx, g_norm.col_idx)
    assert np.array_equal(batch.local_adj.values, g_norm.values)


def test_batch_isolated_node():
    import staleburner.graph as G
    g = G.csr_from_edges(1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    g_norm = normalize_adjacency(g)
    batch = make_batch_from_nodes(g_norm, np.array([0]))
    assert len(batch.halo) == 0
    assert batch.local_adj.to_dense().tolist() == [[1.0]]


def test_batch_path_middle_node():
    g = path_graph(3)
    g_norm = normalize_adjacency(g)
    batch = make_batch_from_nodes(g_norm, np.array([1]))
    assert np.array_equal(batch.in_batch, [1])
    assert np.array_equal(batch.halo, [0, 2])
    dense = dense_norm_adj(g)
    # local columns: [1 (in batch), 0, 2 (halo)]
    row = batch.local_adj.to_dense()[0]
    assert row[0] == pytest.approx(dense[1, 1], abs=0)
    assert row[1] == pytest.approx(dense[1, 0], abs=0)
    assert row[2] == pytest.approx(dense[1, 2], abs=0)


def test_batch_rows_match_global_rows_randomized():
    # 50 random batches: each in-batch row of local_adj carries exactly the
    # global operator row, re-addressed to local columns
    rng = np.random.default_rng(77)
    for trial in range(50):
        ds = sbm_generate(4, 10 + int(rng.integers(0, 20)), 0.3, 0.05,
                          seed=int(rng.integers(0, 1000)))
        g_norm = normalize_adjacency(ds.graph)
        dense = dense_norm_adj(ds.graph)
        part = partition_graph(ds.graph, 4, seed=int(rng.integers(0, 1000)))
        k = int(rng.integers(1, 4))
        ids = sorted(rng.choice(4, size=k, replace=False).tolist())
        batch = make_batch(g_norm, part, ids)
        local_dense = batch.local_adj.to_dense()
        for li, v in enumerate(batch.in_batch):
            reconstructed = np.zeros(ds.graph.num_nodes)
            reconstructed[batch.global_map] = local_dense[li]
            assert np.array_equal(reconstructed, dense[v])


def batch_from_nodes_loop_reference(g_norm, in_batch):
    """The per-row slicing make_batch_from_nodes used before it was
    vectorized: (halo, row_ptr, col_idx, values) of the local operator."""
    lo = g_norm.row_ptr[in_batch]
    hi = g_norm.row_ptr[in_batch + 1]
    nbr_chunks = [g_norm.col_idx[a:b] for a, b in zip(lo, hi)]
    halo = np.setdiff1d(np.unique(np.concatenate(nbr_chunks)), in_batch,
                        assume_unique=True)
    local_of = np.full(g_norm.num_cols, -1, dtype=np.int64)
    local_of[in_batch] = np.arange(len(in_batch))
    local_of[halo] = len(in_batch) + np.arange(len(halo))
    row_ptr = np.zeros(len(in_batch) + 1, dtype=np.int64)
    np.cumsum(hi - lo, out=row_ptr[1:])
    col_idx = local_of[np.concatenate(nbr_chunks)]
    values = np.concatenate([g_norm.values[a:b] for a, b in zip(lo, hi)])
    return halo, row_ptr, col_idx, values


def test_batch_arrays_match_loop_reference():
    ds = sbm_generate(5, 30, 0.2, 0.02, seed=4)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 6, seed=2)
    grad = make_batch(g_norm, part, [1, 4])
    halo_batches = rest_is_refresh_selection(grad, g_norm, 2, Rng(3))
    assert len(halo_batches) == 2
    for batch in [grad] + halo_batches:
        halo, row_ptr, col_idx, values = batch_from_nodes_loop_reference(
            g_norm, batch.in_batch)
        assert np.array_equal(batch.halo, halo)
        assert np.array_equal(batch.global_map, np.concatenate([batch.in_batch, halo]))
        assert batch.local_adj.num_cols == len(batch.in_batch) + len(halo)
        assert np.array_equal(batch.local_adj.row_ptr, row_ptr)
        assert np.array_equal(batch.local_adj.col_idx, col_idx)
        assert np.array_equal(batch.local_adj.values, values)


def test_batch_rejects_bad_cluster_ids():
    ds = sbm_generate(2, 10, 0.4, 0.05, seed=3)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 2, seed=1)
    with pytest.raises(ValueError):
        make_batch(g_norm, part, [])
    with pytest.raises(ValueError):
        make_batch(g_norm, part, [0, 0])
    with pytest.raises(ValueError):
        make_batch(g_norm, part, [2])


def _fake_partition(num_parts):
    import staleburner.partition as P
    clusters = tuple(np.array([i]) for i in range(num_parts))
    return P.Partition(num_parts=num_parts,
                       cluster_of=np.arange(num_parts, dtype=np.int64),
                       clusters=clusters, edge_cut=0)


def test_schedule_plain_epoch():
    part = _fake_partition(4)
    steps = schedule_epoch(part, 1, 0, "round_robin", seed=5)
    assert len(steps) == 4
    grads = [c for st in steps for c in st.grad]
    assert sorted(grads) == [0, 1, 2, 3]
    assert all(st.refresh == () for st in steps)


def test_schedule_refresh_covers_each_cluster_once():
    part = _fake_partition(4)
    steps = schedule_epoch(part, 1, 1, "round_robin", seed=5)
    assert len(steps) == 4
    assert all(len(st.refresh) == 1 for st in steps)
    grads = sorted(c for st in steps for c in st.grad)
    refreshes = sorted(c for st in steps for batch in st.refresh for c in batch)
    assert grads == [0, 1, 2, 3]
    assert refreshes == [0, 1, 2, 3]
    for st in steps:  # refresh and gradient chunks are disjoint
        assert set(st.refresh[0]).isdisjoint(st.grad)


def test_schedule_two_clusters_per_batch():
    part = _fake_partition(4)
    steps = schedule_epoch(part, 2, 0, "round_robin", seed=5)
    assert len(steps) == 2
    assert all(len(st.grad) == 2 for st in steps)
    assert sorted(c for st in steps for c in st.grad) == [0, 1, 2, 3]


def test_schedule_is_pure():
    part = _fake_partition(6)
    a = schedule_epoch(part, 2, 2, "round_robin", seed=3)
    b = schedule_epoch(part, 2, 2, "round_robin", seed=3)
    assert a == b
    c = schedule_epoch(part, 2, 2, "round_robin", seed=4)
    assert a != c


def test_schedule_uniform_draws_without_replacement():
    part = _fake_partition(6)
    steps = schedule_epoch(part, 1, 3, "uniform", seed=3, epoch=2)
    for st in steps:
        got = [st.refresh[i] for i in range(3)]
        assert len(set(got)) == 3


def test_schedule_full_refresh_mode_spans_everything():
    part = _fake_partition(5)
    steps = schedule_epoch(part, 1, 1, "round_robin", seed=1, refresh_mode="full")
    for st in steps:
        assert st.refresh[0] == tuple(range(5))


def test_schedule_half_refresh_mode():
    part = _fake_partition(8)
    steps = schedule_epoch(part, 1, 1, "round_robin", seed=1, refresh_mode="half")
    for st in steps:
        assert len(st.refresh[0]) == 4


def test_schedule_importance_carries_grad_only():
    part = _fake_partition(4)
    steps = schedule_epoch(part, 1, 2, "importance", seed=1)
    assert all(st.refresh == () for st in steps)
    assert sorted(c for st in steps for c in st.grad) == [0, 1, 2, 3]


def test_schedule_rejects_bad_args():
    part = _fake_partition(4)
    with pytest.raises(ValueError):
        schedule_epoch(part, 5, 0, "round_robin", seed=0)
    with pytest.raises(ValueError):
        schedule_epoch(part, 1, -1, "round_robin", seed=0)
    with pytest.raises(ValueError):
        schedule_epoch(part, 1, 0, "fancy", seed=0)


# ---------------------------------------------------------------------------
# candidate-only refinement against the full per-node sweep it replaced

def _with_isolated_nodes():
    # a path 0-1-2, a triangle 4-5-6, nodes 3, 7, 8 isolated
    return csr_from_edges(9, np.array([0, 1, 4, 5, 4]), np.array([1, 2, 5, 6, 6]))


PARTITION_CASES = [
    ("sbm-4x30", lambda: sbm_generate(4, 30, 0.3, 0.03, seed=1).graph, [1, 3, 6, 120]),
    ("sbm-5x40", lambda: sbm_generate(5, 40, 0.2, 0.02, seed=2).graph, [8, 40]),
    ("sweep-2k", lambda: sbm_generate(10, 200, 0.10, 0.002, seed=4).graph, [16]),
    ("sbm-20x300", lambda: sbm_generate(20, 300, 0.02, 0.0005, seed=6).graph, [32]),
    ("two-cliques", lambda: clique_union(2, 50), [1, 2, 3]),
    ("path-4", lambda: path_graph(4), [1, 2, 4]),
    ("isolated", _with_isolated_nodes, [1, 2, 3, 9]),
    ("edgeless", lambda: csr_from_edges(5, np.zeros(0, np.int64), np.zeros(0, np.int64)),
     [1, 2, 5]),
    # one edge, and node blocks of the proposal pass with no edge at all
    ("one-edge-8k", lambda: csr_from_edges(8300, np.array([8250]), np.array([8251])), [3]),
]


@pytest.mark.parametrize("name,make,part_counts", PARTITION_CASES,
                         ids=[c[0] for c in PARTITION_CASES])
def test_partition_matches_sweep_reference(name, make, part_counts):
    g = make()
    for num_parts in part_counts:
        for seed in (0, 9):
            got = partition_graph(g, num_parts, seed=seed)
            ref = partition_graph_reference(g, num_parts, seed=seed)
            assert np.array_equal(got.cluster_of, ref.cluster_of), (num_parts, seed)
            assert got.edge_cut == ref.edge_cut
            for a, b in zip(got.clusters, ref.clusters):
                assert np.array_equal(a, b)

