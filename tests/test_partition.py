import itertools
import tracemalloc

import numpy as np
import pytest

from staleburner import partition
from staleburner.graph import csr_from_edges, normalize_adjacency, sbm_generate
from staleburner.partition import (_neighbour_cluster_counts, make_batch,
                                   make_batch_from_nodes, partition_graph,
                                   schedule_epoch)
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
            reconstructed[np.concatenate([batch.in_batch, batch.halo])] = local_dense[li]
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
    halo_batches = rest_is_refresh_selection(grad, g_norm)
    assert len(halo_batches) == 1
    # unsorted node ids with repeats: the batch takes each node once, in id order
    ids = np.concatenate([part.clusters[3][::-1], part.clusters[0], part.clusters[3][:5]])
    unsorted = make_batch_from_nodes(g_norm, ids)
    assert np.array_equal(unsorted.in_batch, np.unique(ids))
    # a triangle and an isolated node, whose batch has no halo
    isolated = normalize_adjacency(_with_isolated_nodes())
    halo_free = make_batch_from_nodes(isolated, np.array([6, 3, 4, 5, 4]))
    assert len(halo_free.halo) == 0
    cases = [(g_norm, b) for b in [grad, *halo_batches, unsorted]] + [(isolated, halo_free)]
    for g, batch in cases:
        halo, row_ptr, col_idx, values = batch_from_nodes_loop_reference(g, batch.in_batch)
        assert batch.halo.dtype == np.int64 and batch.in_batch.dtype == np.int64
        assert np.array_equal(batch.halo, halo)
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
    steps = schedule_epoch(part, 1, 0, seed=5)
    assert len(steps) == 4
    grads = [c for st in steps for c in st.grad]
    assert sorted(grads) == [0, 1, 2, 3]
    assert all(st.refresh == () for st in steps)


def test_schedule_refresh_covers_each_cluster_once():
    part = _fake_partition(4)
    steps = schedule_epoch(part, 1, 1, seed=5)
    assert len(steps) == 4
    assert all(len(st.refresh) == 1 for st in steps)
    grads = sorted(c for st in steps for c in st.grad)
    refreshes = sorted(c for st in steps for batch in st.refresh for c in batch)
    assert grads == [0, 1, 2, 3]
    assert refreshes == [0, 1, 2, 3]
    for st in steps:  # refresh and gradient chunks are disjoint
        assert set(st.refresh[0]).isdisjoint(st.grad)


def _refresh_offsets(steps):
    """Each step's refresh chunks as offsets from its own gradient chunk in
    the epoch's chunk cycle."""
    cycle = [st.grad for st in steps]
    return [[(cycle.index(chunk) - j) % len(cycle) for chunk in st.refresh]
            for j, st in enumerate(steps)]


@pytest.mark.parametrize("num_parts,F,want", [(4, 4, [1, 2, 3]), (2, 3, [1])])
def test_schedule_refreshes_each_other_chunk_at_most_once(num_parts, F, want):
    # F at or past the chunk count: one slot per other chunk, never the
    # step's own gradient chunk (offset 0) and no chunk twice
    steps = schedule_epoch(_fake_partition(num_parts), 1, F, seed=5)
    assert _refresh_offsets(steps) == [want] * num_parts
    assert steps == schedule_epoch(_fake_partition(num_parts), 1, num_parts - 1, seed=5)


def test_schedule_two_clusters_per_batch():
    part = _fake_partition(4)
    steps = schedule_epoch(part, 2, 0, seed=5)
    assert len(steps) == 2
    assert all(len(st.grad) == 2 for st in steps)
    assert sorted(c for st in steps for c in st.grad) == [0, 1, 2, 3]


def test_schedule_is_pure():
    part = _fake_partition(6)
    a = schedule_epoch(part, 2, 2, seed=3)
    b = schedule_epoch(part, 2, 2, seed=3)
    assert a == b
    c = schedule_epoch(part, 2, 2, seed=4)
    assert a != c


def test_schedule_rejects_bad_args():
    part = _fake_partition(4)
    with pytest.raises(ValueError):
        schedule_epoch(part, 5, 0, seed=0)
    with pytest.raises(ValueError):
        schedule_epoch(part, 1, -1, seed=0)


# ---------------------------------------------------------------------------
# candidate-only refinement against the full per-node sweep it replaced

def _with_isolated_nodes():
    # a path 0-1-2, a triangle 4-5-6, nodes 3, 7, 8 isolated
    return csr_from_edges(9, np.array([0, 1, 4, 5, 4]), np.array([1, 2, 5, 6, 6]))


def _paths_stars_isolated():
    # 300 disjoint 3-node paths, 40 stars of 6 leaves, then 30 isolated nodes
    path = np.arange(300, dtype=np.int64) * 3
    center = 900 + np.arange(40, dtype=np.int64) * 7
    leaves = (center[:, None] + np.arange(1, 7)).ravel()
    return csr_from_edges(900 + 280 + 30,
                          np.concatenate([path, path + 1, np.repeat(center, 6)]),
                          np.concatenate([path + 1, path + 2, leaves]))


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
    # BFS re-seeds after every path and star, and parts that fill up in the
    # middle of a star's leaf level
    ("paths-stars-isolated", _paths_stars_isolated, [7, 64]),
    # one edge, and row blocks of the neighbour-count table with no edge at all
    ("one-edge-8k", lambda: csr_from_edges(8300, np.array([8250]), np.array([8251])), [3]),
    # a hub of degree 300: the neighbour-cluster table needs uint16
    ("sbm-with-hub", lambda: _sbm_with_hub(), [4, 16]),
    # many parts: most rows of the table are zero, clusters of 2 to 10 nodes
    ("sweep-2k-256", lambda: sbm_generate(10, 200, 0.10, 0.002, seed=4).graph, [256, 1000]),
]


def _sbm_with_hub():
    """A 400-node SBM and one hub joined to every other SBM node and to 100
    leaves of its own: degree 300."""
    g = sbm_generate(4, 100, 0.1, 0.01, seed=5).graph
    rows = np.repeat(np.arange(400, dtype=np.int64), np.diff(g.row_ptr))
    once = rows < g.col_idx
    hub = 400
    spokes = np.concatenate([np.arange(0, 400, 2), np.arange(401, 501)])
    return csr_from_edges(501, np.concatenate([rows[once], np.full(300, hub)]),
                          np.concatenate([g.col_idx[once], spokes]))


def test_neighbour_cluster_table_counts_in_the_narrowest_dtype():
    for g, dtype in ((_sbm_with_hub(), np.uint16), (path_graph(6), np.uint8),
                     (csr_from_edges(3, np.zeros(0, np.int64), np.zeros(0, np.int64)),
                      np.uint8)):
        n = g.num_nodes
        cluster_of = np.arange(n, dtype=np.int64) % 3
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.row_ptr))
        table = _neighbour_cluster_counts(g, rows, cluster_of, 3)
        want = np.zeros((n, 3), dtype=np.int64)
        np.add.at(want, (rows, cluster_of[g.col_idx]), 1)
        assert table.dtype == dtype
        assert np.array_equal(table, want)
    assert int(np.diff(_sbm_with_hub().row_ptr).max()) == 300


def test_partition_memory_stays_near_the_table():
    """A 20k-node graph at 512 parts: the uint8 table is 10 MB, and no int64
    array of its shape (80 MB) is built on the way."""
    g = sbm_generate(20, 1000, 0.01, 1e-4, seed=1).graph
    tracemalloc.start()
    try:
        part = partition_graph(g, 512, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    part.validate(g)
    assert peak < 32 * 2**20, peak


def test_partition_refuses_a_table_above_the_limit(monkeypatch):
    n = 12000  # a path: a uint8 table of n * n bytes, 137 MiB
    g = csr_from_edges(n, np.arange(n - 1), np.arange(1, n))
    with pytest.raises(ValueError, match="12000 nodes at 12000 parts.* at most 11184 parts"):
        partition_graph(g, n, seed=0)
    # the limit counts bytes, so the hub's uint16 table takes twice the room
    hub = _sbm_with_hub()
    monkeypatch.setattr(partition, "TABLE_MAX_BYTES", 501 * 16 * 2)
    partition_graph(hub, 16, seed=0).validate(hub)
    with pytest.raises(ValueError, match="501 nodes at 17 parts.* at most 16 parts"):
        partition_graph(hub, 17, seed=0)


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

