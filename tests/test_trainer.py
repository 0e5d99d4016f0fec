import copy
import logging

import numpy as np
import pytest

from staleburner import trainer
from staleburner.graph import normalize_adjacency, sbm_generate
from staleburner.history import HistoryTable, persistence_stats
from staleburner.model import Adam, backward, full_forward, init_params, loss_and_grad
from staleburner.partition import (Partition, make_batch, make_batch_from_nodes,
                                   partition_graph)
from staleburner.trainer import (TrainConfig, TrainState,
                                 batch_forward_with_history,
                                 rest_is_refresh_selection, rest_refresh_pass,
                                 run_training, train_step_gas)
from staleburner.rng import Rng, derive_seed

from conftest import dense_forward, dense_norm_adj, max_rel_err, path_graph


def small_dataset(seed=0):
    return sbm_generate(4, 10, 0.4, 0.05, seed=seed)


def fresh_state(ds, dims, seed=0):
    return TrainState(params=init_params(dims, seed),
                      adam=Adam(lr=0.01),
                      history=HistoryTable(ds.graph.num_nodes, dims[1:-1]))


def clone_state(state):
    return copy.deepcopy(state)


def path_dataset(n, d_in=3, classes=2, seed=0):
    """Path graph with random features/labels, everything in the train mask."""
    import staleburner.graph as G
    rng = np.random.default_rng(seed)
    g = path_graph(n)
    return G.Dataset(graph=g,
                     features=rng.normal(size=(n, d_in)).astype(np.float32),
                     labels=rng.integers(0, classes, size=n),
                     train_mask=np.ones(n, dtype=bool),
                     val_mask=np.zeros(n, dtype=bool),
                     test_mask=np.zeros(n, dtype=bool))


def singleton_partition(n):
    return Partition(num_parts=n, cluster_of=np.arange(n, dtype=np.int64),
                     clusters=tuple(np.array([i]) for i in range(n)), edge_cut=n - 1)


# ---------------------------------------------------------------- forward ---

def test_whole_graph_batch_equals_full_forward_bitwise():
    ds = small_dataset()
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=1)
    batch = make_batch(g_norm, part, [0, 1, 2, 3])
    dims = [ds.num_features, 6, ds.num_classes]
    params = init_params(dims, seed=2)
    table = HistoryTable(ds.graph.num_nodes, dims[1:-1])
    hs_batch, _, cold = batch_forward_with_history(batch, ds.features, params,
                                                   table, push=False, step=0)
    hs_full, _ = full_forward(g_norm, ds.features, params)
    assert cold == 0
    for a, b in zip(hs_batch, hs_full):
        assert np.array_equal(a, b)


def test_fresh_table_reproduces_full_forward():
    ds = small_dataset(seed=3)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=1)
    dims = [ds.num_features, 8, ds.num_classes]
    params = init_params(dims, seed=5)
    hs_full, _ = full_forward(g_norm, ds.features, params)
    table = HistoryTable(ds.graph.num_nodes, dims[1:-1])
    table.push(1, np.arange(ds.graph.num_nodes), hs_full[0], step=0)
    batch = make_batch(g_norm, part, [1])
    hs_batch, _, cold = batch_forward_with_history(batch, ds.features, params,
                                                   table, push=False, step=0)
    assert cold == 0
    assert np.allclose(hs_batch[-1], hs_full[-1][batch.in_batch], atol=1e-6)


def test_zero_init_table_matches_masked_dense_oracle():
    ds = small_dataset(seed=4)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=2)
    dims = [ds.num_features, 5, 5, ds.num_classes]
    params = init_params(dims, seed=6)
    batch = make_batch(g_norm, part, [2])
    table = HistoryTable(ds.graph.num_nodes, dims[1:-1])
    hs_batch, _, cold = batch_forward_with_history(batch, ds.features, params,
                                                   table, push=False, step=0)
    assert cold == len(batch.halo) * 2  # two hidden layers pulled cold

    # dense oracle: halo rows contribute raw features at layer 1 and zeros at
    # deeper layers
    adj = dense_norm_adj(ds.graph)
    n = ds.graph.num_nodes
    h_global = ds.features.astype(np.float64)
    out = None
    for l in range(params.num_layers):
        z = adj[batch.in_batch] @ h_global @ params.weights[l] + params.biases[l]
        out = z if l == params.num_layers - 1 else np.maximum(z, 0.0)
        h_global = np.zeros((n, out.shape[1]))
        h_global[batch.in_batch] = out
    assert np.allclose(hs_batch[-1], out, atol=1e-8)


def test_batch_forward_pushes_at_step():
    ds = small_dataset(seed=5)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=3)
    dims = [ds.num_features, 6, ds.num_classes]
    params = init_params(dims, seed=7)
    table = HistoryTable(ds.graph.num_nodes, dims[1:-1])
    batch = make_batch(g_norm, part, [0])
    hs, _, _ = batch_forward_with_history(batch, ds.features, params, table,
                                          push=True, step=4)
    got, cold = table.pull(1, batch.in_batch)
    assert cold == 0
    assert np.array_equal(got, hs[0].astype(np.float32))
    assert np.all(table.last_update[batch.in_batch, 0] == 4)


# ------------------------------------------------------------------ steps ---

def test_gas_step_rejects_batch_without_train_nodes():
    ds = small_dataset(seed=6)
    ds.train_mask[:] = False
    ds.train_mask[0] = True
    g_norm = normalize_adjacency(ds.graph)
    dims = [ds.num_features, 4, ds.num_classes]
    state = fresh_state(ds, dims)
    batch = make_batch_from_nodes(g_norm, np.array([5, 6]))
    with pytest.raises(ValueError, match="no training nodes"):
        train_step_gas(batch, state, ds)


def test_second_step_reads_rows_pushed_by_first():
    ds = path_dataset(2)
    g_norm = normalize_adjacency(ds.graph)
    dims = [3, 4, 2]
    state = fresh_state(ds, dims)
    b0 = make_batch_from_nodes(g_norm, np.array([0]))
    b1 = make_batch_from_nodes(g_norm, np.array([1]))

    hs0, _, _ = batch_forward_with_history(b0, ds.features, state.params,
                                           state.history, push=False, step=0)
    train_step_gas(b0, state, ds)
    stored, cold = state.history.pull(1, np.array([0]))
    assert cold == 0
    assert np.array_equal(stored, hs0[0].astype(np.float32))
    # at the start of the second step the row is stale by exactly one update
    stats = persistence_stats(state.history, now=state.model_step)
    assert stats[0].max == 1
    train_step_gas(b1, state, ds)
    assert state.model_step == 2


def test_refresh_pass_never_touches_parameters():
    ds = small_dataset(seed=7)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=4)
    dims = [ds.num_features, 6, ds.num_classes]
    state = fresh_state(ds, dims)
    before = state.params.flat().copy()
    batches = [make_batch(g_norm, part, [c]) for c in range(4)]
    rest_refresh_pass(batches, state, ds)
    assert np.array_equal(state.params.flat(), before)
    assert state.model_step == 0
    stats = persistence_stats(state.history, now=0)
    assert stats[0].cold == 0 and stats[0].max == 0


def test_refresh_pass_empty_list_is_noop():
    ds = small_dataset(seed=8)
    dims = [ds.num_features, 6, ds.num_classes]
    state = fresh_state(ds, dims)
    snap = clone_state(state)
    rest_refresh_pass([], state, ds)
    assert np.array_equal(state.params.flat(), snap.params.flat())
    assert np.array_equal(state.history.last_update, snap.history.last_update)


def test_refresh_updates_only_named_cluster():
    ds = small_dataset(seed=9)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=5)
    dims = [ds.num_features, 6, ds.num_classes]
    state = fresh_state(ds, dims)
    rest_refresh_pass([make_batch(g_norm, part, [2])], state, ds)
    touched = np.flatnonzero(state.history.last_update[:, 0] != -1)
    assert np.array_equal(touched, part.clusters[2])


def test_snapshot_refresh_reads_pre_pass_table():
    # depth 3 makes layer-2 pushes depend on layer-1 pulls, so a later
    # refresh batch can observe an earlier one's writes only in sequential
    # (reference) mode
    ds = path_dataset(3, d_in=3)
    g_norm = normalize_adjacency(ds.graph)
    dims = [3, 4, 4, 2]
    seq = fresh_state(ds, dims, seed=5)
    par = clone_state(seq)
    # seed the table so snapshot reads are warm but distinct from fresh rows
    for st in (seq, par):
        for layer in (1, 2):
            st.history.push(layer, np.arange(3),
                            np.full((3, 4), 0.25, dtype=np.float32), step=0)
    batches = [make_batch_from_nodes(g_norm, np.array([0])),
               make_batch_from_nodes(g_norm, np.array([1]))]
    rest_refresh_pass(batches, seq, ds)
    rest_refresh_pass(batches, par, ds, snapshot_reads=True)
    # batch {1} pulls node 0's layer-1 row: fresh in sequential mode,
    # pre-pass value under snapshot semantics, so its layer-2 rows differ
    assert np.array_equal(seq.history.layers[0], par.history.layers[0])
    assert not np.array_equal(seq.history.layers[1][1], par.history.layers[1][1])
    # both leave parameters untouched and are internally deterministic
    par2 = clone_state(fresh_state(ds, dims, seed=5))
    for layer in (1, 2):
        par2.history.push(layer, np.arange(3),
                          np.full((3, 4), 0.25, dtype=np.float32), step=0)
    rest_refresh_pass(batches, par2, ds, snapshot_reads=True)
    assert np.array_equal(par.history.layers[1], par2.history.layers[1])


# ------------------------------------------------------- importance batches ---

def test_importance_selection_empty_without_halo(caplog):
    ds = small_dataset(seed=11)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 1, seed=0)
    batch = make_batch(g_norm, part, [0])
    with caplog.at_level(logging.WARNING):
        got = rest_is_refresh_selection(batch, g_norm, 2, Rng(0))
    assert got == []
    assert "degenerates" in caplog.text


def test_importance_selection_covers_halo_once():
    ds = small_dataset(seed=12)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=7)
    batch = make_batch(g_norm, part, [0])
    for f in (1, 2, 3):
        sel = rest_is_refresh_selection(batch, g_norm, f, Rng(3))
        covered = np.sort(np.concatenate([b.in_batch for b in sel]))
        assert np.array_equal(covered, batch.halo)
        assert len(sel) == min(f, len(batch.halo))


def test_importance_selection_star_leaves():
    import staleburner.graph as G
    from conftest import star_graph
    g = star_graph(6)
    g_norm = normalize_adjacency(g)
    batch = make_batch_from_nodes(g_norm, np.array([0]))  # center
    assert np.array_equal(batch.halo, np.arange(1, 7))
    sel = rest_is_refresh_selection(batch, g_norm, 3, Rng(5))
    covered = np.sort(np.concatenate([b.in_batch for b in sel]))
    assert np.array_equal(covered, np.arange(1, 7))


def test_importance_refresh_makes_read_rows_fresh():
    # path 0-1-2, gradient batch {1}: after refreshing its halo, node 1's
    # final output equals the whole-graph forward at current parameters
    ds = path_dataset(3)
    g_norm = normalize_adjacency(ds.graph)
    dims = [3, 4, 2]
    state = fresh_state(ds, dims)
    grad_batch = make_batch_from_nodes(g_norm, np.array([1]))
    sel = rest_is_refresh_selection(grad_batch, g_norm, 1, Rng(1))
    assert np.array_equal(sel[0].in_batch, [0, 2])
    rest_refresh_pass(sel, state, ds)
    hs, _, cold = batch_forward_with_history(grad_batch, ds.features, state.params,
                                             state.history, push=False, step=0)
    assert cold == 0
    ref = dense_forward(dense_norm_adj(ds.graph), ds.features, state.params)
    assert np.allclose(hs[-1][0], ref[-1][1], atol=1e-6)


# --------------------------------------------------- gradient semantics ---

def test_history_rows_are_constants_in_backward():
    ds = small_dataset(seed=15)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=9)
    dims = [ds.num_features, 5, ds.num_classes]
    params = init_params(dims, seed=16)
    table = HistoryTable(ds.graph.num_nodes, dims[1:-1])
    # populate the table at a nearby parameter vector so halo rows are stale
    stale = init_params(dims, seed=17)
    hs_stale, _ = full_forward(g_norm, ds.features, stale)
    table.push(1, np.arange(ds.graph.num_nodes), hs_stale[0], step=0)

    batch = make_batch(g_norm, part, [1])
    assert len(batch.halo) > 0
    hs, cache, _ = batch_forward_with_history(batch, ds.features, params, table,
                                              push=False, step=0)
    mask = ds.train_mask[batch.in_batch]
    _, dlog = loss_and_grad(hs[-1], ds.labels[batch.in_batch], mask)
    analytic, _ = backward(cache, dlog, params)

    def frozen_loss(p):
        out, _, _ = batch_forward_with_history(batch, ds.features, p, table,
                                               push=False, step=0)
        return loss_and_grad(out[-1], ds.labels[batch.in_batch], mask)[0]

    from conftest import fd_param_grads
    fd = fd_param_grads(frozen_loss, params, step=1e-4)
    for a, f in zip(analytic.weights + analytic.biases, fd):
        assert max_rel_err(a, f) <= 1e-4

    def recomputed_loss(p):
        # the table tracks the perturbed parameters: gradients would flow
        # through it, which the backward pass must NOT account for
        t2 = HistoryTable(ds.graph.num_nodes, dims[1:-1])
        out_full, _ = full_forward(g_norm, ds.features, p)
        t2.push(1, np.arange(ds.graph.num_nodes), out_full[0], step=0)
        out, _, _ = batch_forward_with_history(batch, ds.features, p, t2,
                                               push=False, step=0)
        return loss_and_grad(out[-1], ds.labels[batch.in_batch], mask)[0]

    fd2 = fd_param_grads(recomputed_loss, params, step=1e-4)
    worst = max(max_rel_err(a, f)
                for a, f in zip(analytic.weights + analytic.biases, fd2))
    assert worst > 1e-3


# ------------------------------------------------------------ run_training ---

def test_run_training_zero_epochs():
    ds = small_dataset(seed=18)
    part = partition_graph(ds.graph, 4, seed=1)
    cfg = TrainConfig(mode="gas", epochs=0, hidden=4, seed=0)
    records, params = run_training(cfg, ds, part)
    assert records == []
    init = init_params([ds.num_features, 4, ds.num_classes], derive_seed(0, "init"))
    assert np.array_equal(params.flat(), init.flat())


def test_rest_with_no_refresh_equals_gas():
    # ablate-f's F=0 arm stands in for gas
    ds = small_dataset(seed=10)
    part = partition_graph(ds.graph, 4, seed=6)
    for sampler in ("round_robin", "uniform"):
        common = dict(epochs=2, hidden=6, seed=3, sampler=sampler, probe_every=1)
        rec_gas, par_gas = run_training(
            TrainConfig(mode="gas", refresh_per_step=2, **common), ds, part)
        rec_rest, par_rest = run_training(
            TrainConfig(mode="rest", refresh_per_step=0, **common), ds, part)
        assert rec_gas == rec_rest
        assert np.array_equal(par_gas.flat(), par_rest.flat())


def test_full_mode_probe_skips_oracle_forward(monkeypatch):
    ds = small_dataset(seed=19)
    part = partition_graph(ds.graph, 4, seed=2)
    calls = []
    real = trainer.full_forward
    monkeypatch.setattr(trainer, "full_forward",
                        lambda *a: calls.append(1) or real(*a))
    run_training(TrainConfig(mode="full", epochs=3, hidden=4, seed=1,
                             probe_every=1), ds, part)
    assert len(calls) == 3  # one evaluate per step, none for the probe


def test_full_mode_has_no_staleness():
    ds = small_dataset(seed=19)
    part = partition_graph(ds.graph, 4, seed=2)
    cfg = TrainConfig(mode="full", epochs=3, hidden=4, seed=1, probe_every=1)
    records, _ = run_training(cfg, ds, part)
    assert len(records) == 3
    for r in records:
        assert r.persist_mean == (0.0,)
        assert r.persist_max == (0,)
        assert r.apx_err == (0.0, 0.0)


def test_degenerate_single_cluster_modes_agree_bitwise():
    ds = sbm_generate(4, 25, 0.3, 0.02, seed=20)
    part = partition_graph(ds.graph, 1, seed=0)
    logging.disable(logging.WARNING)
    try:
        trajs = {}
        for mode in ("full", "gas", "rest", "rest_is"):
            snaps = []
            cfg = TrainConfig(mode=mode, epochs=5, hidden=6, seed=3,
                              refresh_per_step=1)
            run_training(cfg, ds, part,
                         on_step=lambda st: snaps.append(st.params.flat().tobytes()))
            trajs[mode] = snaps
    finally:
        logging.disable(logging.NOTSET)
    for mode in ("gas", "rest", "rest_is"):
        assert trajs[mode] == trajs["full"], mode


def test_persistence_law_and_monotonicity():
    ds = sbm_generate(4, 25, 0.3, 0.02, seed=21)
    part = partition_graph(ds.graph, 4, seed=3)
    maxima = []
    for f in (0, 1, 3):
        cfg = TrainConfig(mode="rest", refresh_per_step=f, epochs=3,
                          hidden=4, seed=2)
        records, _ = run_training(cfg, ds, part)
        warm = [r for r in records if r.step > 4]  # one epoch of warm-up
        law = -(-4 // (f + 1))  # ceil(P / (F+1)) with c=1
        assert all(r.persist_max == (law,) for r in warm), (f, [r.persist_max for r in warm])
        maxima.append(max(r.persist_max[0] for r in warm))
    assert maxima == sorted(maxima, reverse=True)


def test_run_training_deterministic():
    ds = small_dataset(seed=22)
    part = partition_graph(ds.graph, 4, seed=4)
    cfg = TrainConfig(mode="rest", epochs=2, hidden=5, seed=9, probe_every=1)
    rec_a, par_a = run_training(cfg, ds, part)
    rec_b, par_b = run_training(cfg, ds, part)
    assert np.array_equal(par_a.flat(), par_b.flat())
    assert rec_a == rec_b
    assert all(r.wall_ms == 0.0 for r in rec_a)


def test_run_training_warmup_removes_cold_reads():
    ds = small_dataset(seed=23)
    part = partition_graph(ds.graph, 4, seed=5)
    cfg = TrainConfig(mode="gas", epochs=1, hidden=4, seed=1, warmup_refresh=True)
    records, _ = run_training(cfg, ds, part)
    assert records[0].cold_rows == 0


def test_run_training_uniform_sampler_runs():
    ds = small_dataset(seed=24)
    part = partition_graph(ds.graph, 4, seed=6)
    cfg = TrainConfig(mode="rest", sampler="uniform", refresh_per_step=2,
                      epochs=2, hidden=4, seed=1)
    records, _ = run_training(cfg, ds, part)
    assert len(records) == 8


def test_run_training_refresh_mode_full_resets_persistence():
    ds = small_dataset(seed=25)
    part = partition_graph(ds.graph, 4, seed=7)
    cfg = TrainConfig(mode="rest", refresh_mode="full", refresh_per_step=1,
                      epochs=2, hidden=4, seed=1)
    records, _ = run_training(cfg, ds, part)
    # every step's refresh spans all clusters, so nothing is ever older than
    # one update when the next step starts
    for r in records[1:]:
        assert r.persist_max == (1,)


def test_divergence_aborts_with_checkpoint_dump(tmp_path):
    ds = small_dataset(seed=26)
    part = partition_graph(ds.graph, 2, seed=1)
    for mode in ("gas", "full"):
        cfg = TrainConfig(mode=mode, epochs=2, hidden=4, seed=1, lr=1.0)
        prefix = str(tmp_path / mode)
        with np.errstate(over="ignore", invalid="ignore"):
            ds.features[:] = 1e200  # first forward goes non-finite
            with pytest.raises(FloatingPointError):
                run_training(cfg, ds, part, dump_prefix=prefix)
        assert (tmp_path / f"{mode}_diverged.ckpt").exists(), mode
        assert (tmp_path / f"{mode}_history_l1.bin").exists(), mode


def test_dropout_is_seeded_and_changes_training():
    ds = small_dataset(seed=27)
    part = partition_graph(ds.graph, 4, seed=8)
    cfg = TrainConfig(mode="gas", epochs=2, hidden=5, seed=4, dropout=0.3,
                      probe_every=1)
    rec_a, par_a = run_training(cfg, ds, part)
    rec_b, par_b = run_training(cfg, ds, part)
    assert np.array_equal(par_a.flat(), par_b.flat())
    assert rec_a == rec_b
    _, par_c = run_training(
        TrainConfig(mode="gas", epochs=2, hidden=5, seed=4, dropout=0.0), ds, part)
    assert not np.array_equal(par_a.flat(), par_c.flat())


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="sgd").validate()
    with pytest.raises(ValueError):
        TrainConfig(mode="rest_is", refresh_per_step=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(mode="gas", refresh_mode="full").validate()
    for bad in (dict(mode="rest", sampler="importance", refresh_per_step=3),
                dict(mode="full", sampler="anything"),
                dict(clusters_per_batch=0),
                dict(probe_every=-1)):
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()
    TrainConfig(mode="rest", sampler="uniform", refresh_mode="half",
                clusters_per_batch=2, probe_every=0).validate()
