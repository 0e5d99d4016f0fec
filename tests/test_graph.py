import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from staleburner import graph
from staleburner.graph import (CsrGraph, Dataset, DatasetError, NormAdj, csr_from_edges,
                               load_dataset, normalize_adjacency, save_dataset,
                               sbm_generate)
from staleburner.partition import make_batch, partition_graph
from staleburner.rng import Rng, derive_seed

from conftest import dense_norm_adj, path_graph, star_graph
from reference_setup import sbm_generate_reference


def write_dataset_dir(tmp_path, edges, features, labels, masks):
    (tmp_path / "edges.tsv").write_text("".join(f"{u}\t{v}\n" for u, v in edges))
    (tmp_path / "features.csv").write_text(
        "".join(",".join(str(x) for x in row) + "\n" for row in features))
    (tmp_path / "labels.csv").write_text("".join(f"{y}\n" for y in labels))
    (tmp_path / "masks.csv").write_text("".join(m + "\n" for m in masks))


def test_load_two_node_dataset(tmp_path):
    write_dataset_dir(tmp_path, [(0, 1)], [[1.0], [2.0]], [0, 1],
                      ["train", "train"])
    ds = load_dataset(str(tmp_path))
    assert np.array_equal(ds.graph.row_ptr, [0, 1, 2])
    assert np.array_equal(ds.graph.col_idx, [1, 0])


def test_load_symmetrization_idempotent(tmp_path):
    write_dataset_dir(tmp_path, [(0, 1), (1, 0)], [[1.0], [2.0]], [0, 1],
                      ["train", "train"])
    ds = load_dataset(str(tmp_path))
    assert np.array_equal(ds.graph.row_ptr, [0, 1, 2])
    assert np.array_equal(ds.graph.col_idx, [1, 0])


def test_load_label_out_of_range(tmp_path):
    write_dataset_dir(tmp_path, [(0, 1), (1, 2), (2, 3)],
                      [[1.0]] * 4, [0, 1, 2, 7],
                      ["train"] * 4)
    with pytest.raises(DatasetError, match=r"labels\.csv:4"):
        load_dataset(str(tmp_path))


def test_load_missing_file(tmp_path):
    (tmp_path / "edges.tsv").write_text("")
    with pytest.raises(DatasetError, match="features.csv"):
        load_dataset(str(tmp_path))


def test_load_ragged_features(tmp_path):
    write_dataset_dir(tmp_path, [(0, 1)], [[1.0, 2.0]], [0, 0],
                      ["train", "train"])
    (tmp_path / "features.csv").write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DatasetError, match=r"features\.csv:2"):
        load_dataset(str(tmp_path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
def test_load_non_finite_features(tmp_path, value):
    # 1e39 parses, then overflows float32 to inf
    write_dataset_dir(tmp_path, [(0, 1)], [[1.0, 2.0], [3.0, value]], [0, 0],
                      ["train", "train"])
    with pytest.raises(DatasetError, match=r"features\.csv:2: non-finite value"):
        load_dataset(str(tmp_path))


def test_load_bad_mask_token(tmp_path):
    write_dataset_dir(tmp_path, [(0, 1)], [[1.0], [2.0]], [0, 1],
                      ["train", "holdout"])
    with pytest.raises(DatasetError, match=r"masks\.csv:2"):
        load_dataset(str(tmp_path))


def test_load_rejects_self_loop(tmp_path):
    write_dataset_dir(tmp_path, [(0, 0)], [[1.0], [2.0]], [0, 1],
                      ["train", "train"])
    with pytest.raises(DatasetError, match=r"edges\.tsv:1"):
        load_dataset(str(tmp_path))


def test_csr_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        csr_from_edges(2, np.array([0]), np.array([0]))


def test_sbm_two_singleton_blocks():
    ds = sbm_generate(blocks=2, nodes_per_block=1, p_in=1.0, p_out=0.0, seed=7)
    assert ds.graph.num_nodes == 2
    assert ds.graph.num_edges == 0
    assert np.array_equal(ds.labels, [0, 1])


def test_sbm_two_cliques():
    ds = sbm_generate(blocks=2, nodes_per_block=50, p_in=1.0, p_out=0.0, seed=3)
    assert np.array_equal(ds.graph.degrees(), np.full(100, 49))
    # no cross-block edge
    for v in range(50):
        assert ds.graph.neighbors(v).max() < 50


def test_sbm_intra_degree_matches_expectation():
    # expected intra-block degree p_in * (nodes_per_block - 1) = 9.95
    ds = sbm_generate(blocks=10, nodes_per_block=200, p_in=0.05, p_out=0.002,
                      seed=1)
    labels = ds.labels
    intra = 0
    for v in range(ds.graph.num_nodes):
        intra += int(np.count_nonzero(labels[ds.graph.neighbors(v)] == labels[v]))
    mean_intra = intra / ds.graph.num_nodes
    assert abs(mean_intra - 9.95) <= 0.995


def test_sbm_is_pure_function():
    a = sbm_generate(3, 20, 0.4, 0.05, d_in=5, seed=99)
    b = sbm_generate(3, 20, 0.4, 0.05, d_in=5, seed=99)
    assert np.array_equal(a.graph.col_idx, b.graph.col_idx)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.train_mask, b.train_mask)
    c = sbm_generate(3, 20, 0.4, 0.05, d_in=5, seed=100)
    assert not np.array_equal(a.graph.col_idx, c.graph.col_idx) or \
        not np.array_equal(a.features, c.features)


def test_sbm_rejects_degenerate_probs():
    with pytest.raises(ValueError):
        sbm_generate(2, 5, p_in=0.1, p_out=0.1, seed=0)
    with pytest.raises(ValueError):
        sbm_generate(0, 5, p_in=0.5, p_out=0.1, seed=0)


def test_sbm_refuses_negative_d_in():
    with pytest.raises(ValueError, match="d_in must be >= 0, got -3"):
        sbm_generate(3, 10, 0.5, 0.05, d_in=-3)
    assert sbm_generate(3, 10, 0.5, 0.05, d_in=0).num_features == 3


def test_sbm_masks_stratified():
    ds = sbm_generate(4, 50, 0.3, 0.01, seed=5)
    for c in range(4):
        cls = ds.labels == c
        assert np.count_nonzero(ds.train_mask & cls) == 30
        assert np.count_nonzero(ds.val_mask & cls) == 10
        assert np.count_nonzero(ds.test_mask & cls) == 10


def features_one_shot(labels: np.ndarray, d_in: int, seed: int) -> np.ndarray:
    """The features as sbm_generate built them before it worked in row
    blocks: one draw of n * d_in normals, scaled, shifted and cast whole."""
    n = len(labels)
    feat_rng = Rng(derive_seed(seed, "sbm-features"))
    features = (0.5 * feat_rng.normals(n * d_in)).reshape(n, d_in)
    features[np.arange(n), labels % d_in] += 1.0
    return features.astype(np.float32)


@pytest.mark.parametrize("block_values", [None, 50, 7, 1], ids=["default", "50", "7", "1"])
@pytest.mark.parametrize("args", [
    (3, 5, 0.5, 0.1, 3),          # n * d_in = 45, odd
    (4, 25, 0.3, 0.05, 6),        # even d_in
    (5, 9, 0.3, 0.05, 0),         # d_in = 0: one column per block, 5; n * d_in odd
    (4, 2000, 0.02, 0.0005, 33),  # three default blocks of odd width
], ids=["odd-product", "even-d_in", "d_in-0", "odd-wide"])
def test_sbm_features_equal_one_shot_draw(monkeypatch, args, block_values):
    """Row blocks of any size give the bytes of one whole draw: the default
    block holds the small graphs whole and cuts the wide one in three, and
    small blocks (two rows at 7 and 1 values) leave an odd last draw."""
    if block_values is not None:
        monkeypatch.setattr(graph, "FEATURE_BLOCK_VALUES", block_values)
    blocks, npb, p_in, p_out, d_in = args
    ds = sbm_generate(blocks, npb, p_in, p_out, d_in=d_in, seed=17)
    want = features_one_shot(ds.labels, d_in or blocks, 17)
    assert ds.features.dtype == np.float32 and ds.features.flags.c_contiguous
    assert ds.features.shape == want.shape
    assert ds.features.tobytes() == want.tobytes()


def test_sbm_generate_peak_is_the_edge_phase():
    """sbm_generate(20, 1000, 0.01, 1e-4, d_in=32) has 20k nodes and
    119,346 edges (E), and its tracemalloc peak is the edge phase, 14.0 MB:
    csr_from_edges, entered with the sampled endpoints and their two
    concatenations live (4.1 MB), holds both directions, the edge keys,
    their sorted copy and the kept keys (five int64 arrays of 2E, 9.5 MB)
    and a bool mask. The feature phase holds the graph, the endpoints and
    the float32 features (n * d_in * 4 = 2.56 MB), 7.0 MB, plus one block
    of FEATURE_BLOCK_VALUES values: Rng.normals' words, unit floats and
    Box-Muller arrays and the scaled block, 5.2 MB, so it peaks at 12.3 MB.
    Built whole, the features' float64 temporaries (n * d_in * 8 = 5.12 MB
    each) took the peak to 27.5 MB."""
    tracemalloc.start()
    try:
        ds = sbm_generate(20, 1000, 0.01, 1e-4, d_in=32, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.graph.num_edges == 119_346
    assert peak <= 16_000_000


def features_csv_loop_reference(features: np.ndarray) -> bytes:
    """The per-value loop save_dataset wrote features.csv with before it
    formatted a row with one % call."""
    return "".join(",".join(f"{x:.9g}" for x in row) + "\n" for row in features).encode()


F32 = np.finfo(np.float32)


@pytest.mark.parametrize("features", [
    lambda: np.array([[-0.0, 0.0, 1.0, -1.0],
                      [F32.smallest_subnormal, -F32.smallest_subnormal,
                       3 * F32.smallest_subnormal, F32.smallest_normal],
                      [F32.max, F32.min, F32.eps, F32.tiny],
                      [1 / 3, -2.5e-30, 123456789.0, 1e-5]], dtype=np.float32),
    lambda: sbm_generate(4, 30, 0.3, 0.03, d_in=5, seed=1).features,
    lambda: np.zeros((3, 1), dtype=np.float32),
], ids=["extremes", "sbm", "one-column"])
def test_save_dataset_features_match_loop_writer(tmp_path, features):
    x = features()
    n = len(x)
    ds = Dataset(graph=csr_from_edges(n, np.zeros(0, np.int64), np.zeros(0, np.int64)),
                 features=x, labels=np.zeros(n, dtype=np.int64),
                 train_mask=np.ones(n, dtype=bool), val_mask=np.zeros(n, dtype=bool),
                 test_mask=np.zeros(n, dtype=bool))
    save_dataset(ds, str(tmp_path / "d"))
    assert (tmp_path / "d" / "features.csv").read_bytes() == features_csv_loop_reference(x)
    assert load_dataset(str(tmp_path / "d")).features.tobytes() == x.tobytes()


def test_dataset_round_trip(tmp_path):
    ds = sbm_generate(3, 15, 0.5, 0.05, d_in=4, seed=21)
    save_dataset(ds, str(tmp_path / "d"))
    back = load_dataset(str(tmp_path / "d"))
    assert np.array_equal(back.graph.row_ptr, ds.graph.row_ptr)
    assert np.array_equal(back.graph.col_idx, ds.graph.col_idx)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.train_mask, ds.train_mask)
    assert np.array_equal(back.val_mask, ds.val_mask)
    assert np.array_equal(back.test_mask, ds.test_mask)


def edges_tsv_loop_reference(g):
    """The per-edge loop save_dataset wrote edges.tsv with before it was
    vectorized."""
    lines = []
    for v in range(g.num_nodes):
        for u in g.neighbors(v):
            if v < u:  # store each undirected edge once
                lines.append(f"{v}\t{u}\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("graph", [
    # nodes 3, 7 and 8 isolated; node 9's only edge goes to node 0
    lambda: csr_from_edges(10, np.array([0, 1, 4, 5, 4, 9]), np.array([1, 2, 5, 6, 6, 0])),
    lambda: csr_from_edges(4, np.zeros(0, np.int64), np.zeros(0, np.int64)),
    lambda: sbm_generate(4, 30, 0.3, 0.03, seed=1).graph,
], ids=["isolated", "edgeless", "sbm"])
def test_save_dataset_edges_match_loop_writer(tmp_path, graph):
    g = graph()
    n = g.num_nodes
    ds = Dataset(graph=g, features=np.zeros((n, 2), dtype=np.float32),
                 labels=np.zeros(n, dtype=np.int64), train_mask=np.ones(n, dtype=bool),
                 val_mask=np.zeros(n, dtype=bool), test_mask=np.zeros(n, dtype=bool))
    save_dataset(ds, str(tmp_path / "d"))
    assert (tmp_path / "d" / "edges.tsv").read_bytes() == edges_tsv_loop_reference(g)
    back = load_dataset(str(tmp_path / "d"))
    assert np.array_equal(back.graph.row_ptr, g.row_ptr)
    assert np.array_equal(back.graph.col_idx, g.col_idx)


def test_save_dataset_labels_and_masks_bytes(tmp_path):
    ds = sbm_generate(3, 15, 0.5, 0.05, d_in=4, seed=21)
    save_dataset(ds, str(tmp_path / "d"))
    labels = ""
    masks = ""
    for v in range(ds.graph.num_nodes):
        labels += str(int(ds.labels[v])) + "\n"
        if ds.train_mask[v]:
            masks += "train\n"
        elif ds.val_mask[v]:
            masks += "val\n"
        else:
            masks += "test\n"
    assert {"train\n", "val\n", "test\n"} <= set(masks.splitlines(keepends=True))
    assert (tmp_path / "d" / "labels.csv").read_bytes() == labels.encode()
    assert (tmp_path / "d" / "masks.csv").read_bytes() == masks.encode()


def test_save_dataset_refuses_node_in_no_mask(tmp_path):
    ds = sbm_generate(3, 15, 0.5, 0.05, d_in=4, seed=21)
    first, second = np.flatnonzero(ds.test_mask)[:2]
    ds.test_mask[[first, second]] = False
    ds.validate()  # a node in no mask is a valid dataset
    with pytest.raises(DatasetError, match=f"node {first} is in no mask"):
        save_dataset(ds, str(tmp_path / "d"))
    assert not (tmp_path / "d").exists()


def test_sbm_graph_invariants():
    for seed in range(5):
        ds = sbm_generate(4, 30, 0.2, 0.02, seed=seed)
        ds.graph.validate()


def test_normalize_isolated_node():
    g = csr_from_edges(1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    adj = normalize_adjacency(g)
    assert adj.to_dense().tolist() == [[1.0]]


def test_normalize_single_edge():
    g = path_graph(2)
    adj = normalize_adjacency(g)
    assert np.allclose(adj.to_dense(), [[0.5, 0.5], [0.5, 0.5]], atol=0)


def test_normalize_star_values():
    # center degree 2 -> d~=3; leaves d~=2
    adj = normalize_adjacency(star_graph(2)).to_dense()
    assert adj[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert adj[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-12)
    assert adj[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(adj, dense_norm_adj(star_graph(2)), atol=1e-12)


def test_normalize_matches_dense_oracle_random():
    for seed in range(5):
        ds = sbm_generate(3, 12, 0.4, 0.08, seed=seed)
        adj = normalize_adjacency(ds.graph)
        assert np.allclose(adj.to_dense(), dense_norm_adj(ds.graph), atol=1e-12)


def test_norm_adj_spectral_bounded():
    for seed in range(10):
        ds = sbm_generate(4, 15, 0.3, 0.05, seed=seed)
        adj = normalize_adjacency(ds.graph)
        eigs = np.linalg.eigvalsh(adj.to_dense())
        assert np.abs(eigs).max() <= 1.0 + 1e-6


def test_matmul_matches_dense():
    for seed in range(3):
        ds = sbm_generate(3, 10, 0.5, 0.1, seed=seed)
        adj = normalize_adjacency(ds.graph)
        x = np.random.default_rng(seed).normal(size=(30, 4))
        assert np.allclose(adj.matmul(x), adj.to_dense() @ x, atol=1e-12)
        assert np.allclose(adj.t_matmul(x), adj.to_dense().T @ x, atol=1e-12)


def test_row_norms_match_dense():
    ds = sbm_generate(3, 10, 0.5, 0.1, seed=4)
    adj = normalize_adjacency(ds.graph)
    assert np.allclose(adj.row_norms(),
                       np.linalg.norm(adj.to_dense(), axis=1), atol=1e-12)


def normalize_loop_reference(g):
    """The per-node construction normalize_adjacency used before it was
    vectorized: insert the self-loop into each sorted row, then scale."""
    n = g.num_nodes
    inv_sqrt = 1.0 / np.sqrt(g.degrees().astype(np.float64) + 1.0)
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.diff(g.row_ptr) + 1, out=row_ptr[1:])
    col_idx = np.empty(int(row_ptr[-1]), dtype=np.int64)
    values = np.empty(int(row_ptr[-1]), dtype=np.float64)
    for v in range(n):
        nbrs = g.neighbors(v)
        out = np.insert(nbrs, np.searchsorted(nbrs, v), v)
        lo = row_ptr[v]
        col_idx[lo:lo + len(out)] = out
        values[lo:lo + len(out)] = inv_sqrt[v] * inv_sqrt[out]
    return row_ptr, col_idx, values


def test_normalize_matches_loop_reference_bitwise():
    graphs = [sbm_generate(3, 12, 0.4, 0.08, seed=s).graph for s in range(3)]
    graphs.append(sbm_generate(10, 200, 0.10, 0.002, seed=0).graph)
    graphs.append(csr_from_edges(6, np.array([0, 4]), np.array([1, 0])))  # 2, 3, 5 isolated
    graphs.append(csr_from_edges(1, np.array([], dtype=np.int64),
                                 np.array([], dtype=np.int64)))
    for g in graphs:
        adj = normalize_adjacency(g)
        row_ptr, col_idx, values = normalize_loop_reference(g)
        assert np.array_equal(adj.row_ptr, row_ptr)
        assert np.array_equal(adj.col_idx, col_idx)
        assert np.array_equal(adj.values, values)


def matmul_csr_order_reference(adj: NormAdj, x: np.ndarray) -> np.ndarray:
    """Each output row sums values[k] * x[col_idx[k]] one term at a time,
    in CSR order, in float64."""
    x = x.astype(np.float64)
    out = np.zeros((adj.num_rows, x.shape[1]))
    for r in range(adj.num_rows):
        acc = np.zeros(x.shape[1])
        for k in range(adj.row_ptr[r], adj.row_ptr[r + 1]):
            acc = acc + adj.values[k] * x[adj.col_idx[k]]
        out[r] = acc
    return out


def t_matmul_scatter_reference(adj: NormAdj, x: np.ndarray) -> np.ndarray:
    """The np.add.at scatter t_matmul used before the scipy kernel."""
    rows = np.repeat(np.arange(adj.num_rows, dtype=np.int64), np.diff(adj.row_ptr))
    out = np.zeros((adj.num_cols, x.shape[1]), dtype=np.float64)
    np.add.at(out, adj.col_idx, adj.values[:, None] * x[rows])
    return out


def _square_and_halo_operators():
    ds = sbm_generate(4, 15, 0.3, 0.05, seed=2)
    adj = normalize_adjacency(ds.graph)
    batch = make_batch(adj, partition_graph(ds.graph, 4, seed=1), [0, 2])
    assert len(batch.halo) > 0 and batch.local_adj.num_cols > batch.local_adj.num_rows
    return [adj, batch.local_adj]


def test_matmul_sums_in_csr_order_bitwise():
    rng = np.random.default_rng(5)
    for adj in _square_and_halo_operators():
        for dtype in (np.float64, np.float32):
            x = rng.normal(size=(adj.num_cols, 6)).astype(dtype)
            got = adj.matmul(x)
            assert got.dtype == np.float64
            assert np.array_equal(got, matmul_csr_order_reference(adj, x))


def test_row_norms_and_to_dense_equal_scipy_bitwise():
    from scipy import sparse
    adj, local = _square_and_halo_operators()
    assert np.array_equal(adj.row_norms(), np.sqrt(adj.csr.power(2) @ np.ones(adj.num_cols)))
    # a batch's rows are not column-sorted, and scipy's power() sorts them
    # first: the row sums are scipy's product of the squares in CSR order
    squares = sparse.csr_array((local.values ** 2, local.col_idx, local.row_ptr),
                               shape=(local.num_rows, local.num_cols))
    assert np.array_equal(local.row_norms(), np.sqrt(squares @ np.ones(local.num_cols)))
    for op in (adj, local):
        assert np.array_equal(op.to_dense(), op.csr.toarray())


def test_row_norms_leave_a_batch_operator_unchanged():
    """scipy's power() sorts the columns of the arrays it shares in place,
    which reordered the operator's later products."""
    _, local = _square_and_halo_operators()
    col_idx, values = local.col_idx.copy(), local.values.copy()
    x = np.random.default_rng(7).normal(size=(local.num_cols, 3))
    before = local.matmul(x)
    local.row_norms()
    assert np.array_equal(local.col_idx, col_idx) and np.array_equal(local.values, values)
    assert np.array_equal(local.matmul(x), before)


def test_missing_kernel_file_fails_loudly(tmp_path):
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        graph.load_sparsetools(str(tmp_path))


def test_runs_import_neither_scipy_nor_scipy_sparse():
    """Training and the bound constants run on scipy's compiled kernels
    alone; the kernel is the one `scipy.sparse` exposes once imported."""
    script = textwrap.dedent("""
        import sys
        import staleburner, staleburner.cli, staleburner.trainer, staleburner.boundcheck
        from staleburner import graph
        from staleburner.graph import normalize_adjacency, sbm_generate
        from staleburner.metrics import bound_constants
        from staleburner.partition import partition_graph
        from staleburner.trainer import TrainConfig, run_training

        ds = sbm_generate(3, 20, 0.3, 0.05, seed=1)
        cfg = TrainConfig(mode="rest", hidden=8, epochs=1, lr=0.01, seed=2)
        records, params = run_training(cfg, ds, partition_graph(ds.graph, 2, seed=3))
        assert len(records) == 2, len(records)
        bound_constants(params, normalize_adjacency(ds.graph))
        assert "scipy" not in sys.modules and "scipy.sparse" not in sys.modules
        from scipy.sparse import _sparsetools
        assert graph.csr_matvecs is _sparsetools.csr_matvecs
    """)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_t_matmul_matches_scatter_bitwise():
    rng = np.random.default_rng(6)
    for adj in _square_and_halo_operators():
        for dtype in (np.float64, np.float32):
            x = rng.normal(size=(adj.num_rows, 6)).astype(dtype)
            got = adj.t_matmul(x)
            assert got.dtype == np.float64
            # the targets' rows: a batch's halo rows are not computed
            assert np.array_equal(got, t_matmul_scatter_reference(adj, x)[:adj.num_rows])


# ---------------------------------------------------------------------------
# the vectorized set-up path against the loop implementations it replaced

SBM_GRID = [
    # blocks, nodes_per_block, p_in, p_out, d_in
    (2, 1, 1.0, 0.0, 0),          # p_in = 1: every pair, no draw
    (3, 12, 1.0, 0.2, 5),         # p_in = 1 beside a sampled cross range
    (4, 30, 0.2, 0.0, 0),         # p_out = 0: no cross-block draw
    (5, 40, 0.3, 0.01, 7),        # d_in != blocks
    (1, 50, 0.5, 0.0, 3),         # one block, no cross range at all
    (10, 200, 0.10, 0.002, 10),   # the sweep-2k graph
    (4, 2000, 0.02, 0.0005, 9),   # large bulk draws for both edges and features
]


@pytest.mark.parametrize("args", SBM_GRID)
@pytest.mark.parametrize("seed", [0, 5, 12345])
def test_sbm_matches_loop_reference_bitwise(args, seed):
    blocks, npb, p_in, p_out, d_in = args
    got = sbm_generate(blocks, npb, p_in, p_out, d_in=d_in, seed=seed)
    ref = sbm_generate_reference(blocks, npb, p_in, p_out, d_in=d_in, seed=seed)
    assert np.array_equal(got.graph.row_ptr, ref.graph.row_ptr)
    assert np.array_equal(got.graph.col_idx, ref.graph.col_idx)
    assert got.features.dtype == ref.features.dtype
    assert np.array_equal(got.features, ref.features)
    assert np.array_equal(got.labels, ref.labels)
    assert np.array_equal(got.train_mask, ref.train_mask)
    assert np.array_equal(got.val_mask, ref.val_mask)
    assert np.array_equal(got.test_mask, ref.test_mask)


def test_csr_from_edges_row_ptr_counts_rows():
    g = csr_from_edges(6, np.array([0, 0, 4, 2]), np.array([1, 4, 1, 1]))
    assert g.row_ptr.tolist() == [0, 2, 5, 6, 6, 8, 8]
    assert g.col_idx.tolist() == [1, 4, 0, 2, 4, 1, 0, 1]


def csr(n, rows):
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=row_ptr[1:])
    col_idx = np.array([c for r in rows for c in r], dtype=np.int64)
    return CsrGraph(num_nodes=n, row_ptr=row_ptr, col_idx=col_idx)


def test_validate_accepts_symmetric_graph():
    csr(4, [[1], [0, 2], [1], []]).validate()
    csr(0, []).validate()


@pytest.mark.parametrize("graph,message", [
    (CsrGraph(2, np.array([0, 1], dtype=np.int64), np.array([1], dtype=np.int64)),
     "row_ptr must have length num_nodes+1 and start at 0"),
    (CsrGraph(2, np.array([1, 1, 2], dtype=np.int64), np.array([1, 0], dtype=np.int64)),
     "row_ptr must have length num_nodes+1 and start at 0"),
    (CsrGraph(2, np.array([0, 2, 1], dtype=np.int64), np.array([1, 0], dtype=np.int64)),
     "row_ptr must be nondecreasing and end at len(col_idx)"),
    (CsrGraph(2, np.array([0, 1, 2], dtype=np.int64), np.array([1, 0, 0], dtype=np.int64)),
     "row_ptr must be nondecreasing and end at len(col_idx)"),
    (csr(3, [[1], [0, 3], [1]]), "col_idx out of range"),
    (csr(3, [[1], [0], [-1]]), "col_idx out of range"),
    (csr(4, [[1, 2], [3, 0], [0], [1]]), "row 1 is unsorted or has duplicates"),
    (csr(3, [[1], [0, 2, 2], [1]]), "row 1 is unsorted or has duplicates"),
    # row 1 is unsorted and holds a self-loop: the order check comes first
    (csr(3, [[1], [1, 0], [2]]), "row 1 is unsorted or has duplicates"),
    (csr(3, [[1], [0], [0, 2]]), "self-loop on node 2"),
    # the self-loop on node 0 comes before the unsorted row 1
    (csr(3, [[0, 1], [2, 0], [1]]), "self-loop on node 0"),
    (csr(3, [[1], [0, 2], []]), "adjacency is not symmetric"),
])
def test_validate_error_branches(graph, message):
    with pytest.raises(ValueError) as err:
        graph.validate()
    assert str(err.value) == message
