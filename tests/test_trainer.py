import copy
import dataclasses
import re
import struct
import time

import numpy as np
import pytest

from staleburner import trainer
from staleburner.cli import main
from staleburner.graph import NormAdj, normalize_adjacency, sbm_generate
from staleburner.history import NEVER, HistoryTable, persistence_stats
from staleburner.metrics import format_record
from staleburner.model import (Adam, accuracy, backward, full_forward, init_params,
                               loss_and_grad)
from staleburner.partition import (MiniBatch, Partition, make_batch,
                                   make_batch_from_nodes, partition_graph)
from staleburner.trainer import (TrainConfig, TrainState,
                                 batch_forward_with_history, evaluate,
                                 rest_is_refresh_selection, rest_refresh_pass,
                                 run_training, train_step_gas)
from staleburner.rng import derive_seed

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
    hs_batch, _ = batch_forward_with_history(batch, g_norm.matmul(ds.features),
                                             params, table, push=False, step=0)
    hs_full, _ = full_forward(g_norm, ds.features, params)
    assert len(batch.halo) == 0  # the whole graph reads no table row
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
    hs_batch, _ = batch_forward_with_history(batch, g_norm.matmul(ds.features),
                                             params, table, push=False, step=0)
    assert len(batch.halo) and np.all(table.last_update[batch.halo, 0] == 0)
    assert np.allclose(hs_batch[-1], hs_full[-1][batch.in_batch], atol=1e-6)


def test_zero_init_table_matches_masked_dense_oracle():
    ds = small_dataset(seed=4)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=2)
    dims = [ds.num_features, 5, 5, ds.num_classes]
    params = init_params(dims, seed=6)
    batch = make_batch(g_norm, part, [2])
    table = HistoryTable(ds.graph.num_nodes, dims[1:-1])
    hs_batch, _ = batch_forward_with_history(batch, g_norm.matmul(ds.features),
                                             params, table, push=False, step=0)
    # both hidden layers pull halo rows that were never written
    assert len(batch.halo) and np.all(table.last_update[batch.halo] == NEVER)

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
    hs, _ = batch_forward_with_history(batch, g_norm.matmul(ds.features), params,
                                       table, push=True, step=4)
    got, cold = table.pull(1, batch.in_batch)
    assert cold == 0
    assert np.array_equal(got, hs[0].astype(np.float32))
    assert np.all(table.last_update[batch.in_batch, 0] == 4)


def test_ax_rows_equal_batch_aggregation_bitwise():
    # layer 1 of a batch forward may gather rows of the whole-graph Â·X: every
    # kind of batch the trainer builds sums the same terms in CSR order
    ds = sbm_generate(4, 25, 0.3, 0.05, d_in=7, seed=40)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=1)
    ax = g_norm.matmul(ds.features)
    assert ds.features.dtype == np.float32
    assert np.array_equal(ax, g_norm.matmul(ds.features.astype(np.float64)))
    n = ds.graph.num_nodes
    grad_batch = make_batch(g_norm, part, [2])
    batches = [make_batch(g_norm, part, [0]),
               make_batch(g_norm, part, [1, 3]),
               *rest_is_refresh_selection(grad_batch, g_norm),
               make_batch(g_norm, part, [0, 1, 2, 3]),
               MiniBatch(in_batch=np.arange(n), halo=np.empty(0, dtype=np.int64),
                         local_adj=g_norm)]
    assert len(batches) == 5
    for b in batches:
        local = np.concatenate([b.in_batch, b.halo])
        ref = b.local_adj.matmul(ds.features[local].astype(np.float64))
        assert np.array_equal(ax[b.in_batch], ref)


def test_batch_forward_with_ax_is_bitwise_identical():
    ds = small_dataset(seed=6)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=3)
    dims = [ds.num_features, 5, 5, ds.num_classes]
    params = init_params(dims, seed=8)
    ax = g_norm.matmul(ds.features)
    hs_full, _ = full_forward(g_norm, ds.features, params)
    hs_ax, _ = full_forward(g_norm, ds.features, params, agg=ax)
    for a, b in zip(hs_full, hs_ax):
        assert np.array_equal(a, b)
    # a batch forward's layer 1 is the aggregation of the batch's own
    # features, bit for bit; every deeper layer follows from it and the table
    for ids in ([0], [1, 2]):
        batch = make_batch(g_norm, part, ids)
        table = HistoryTable(ds.graph.num_nodes, dims[1:-1])
        table.push(1, np.arange(ds.graph.num_nodes), hs_full[0], step=0)
        _, cache = batch_forward_with_history(batch, ax, params, table,
                                              push=True, step=1)
        local = np.concatenate([batch.in_batch, batch.halo])
        assert np.array_equal(cache.aggs[0],
                              batch.local_adj.matmul(ds.features[local].astype(np.float64)))


@pytest.mark.parametrize("empty", ["none", "train", "test"])
def test_evaluate_equals_accuracy_per_mask(empty):
    ds = small_dataset(seed=7)
    if empty != "none":
        ds = dataclasses.replace(ds, **{f"{empty}_mask": np.zeros(40, dtype=bool)})
    g_norm = normalize_adjacency(ds.graph)
    params = init_params([ds.num_features, 5, ds.num_classes], seed=8)
    hs, _ = full_forward(g_norm, ds.features, params)
    want = tuple(accuracy(hs[-1], ds.labels, m)
                 for m in (ds.train_mask, ds.val_mask, ds.test_mask))
    assert evaluate(ds, lambda: full_forward(g_norm, ds.features, params,
                                             keep_z=False)[1]) == want
    assert 0.0 < sum(want) and (empty == "none" or 0.0 in want)


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
        train_step_gas(batch, state, ds, g_norm.matmul(ds.features))


def test_second_step_reads_rows_pushed_by_first():
    ds = path_dataset(2)
    g_norm = normalize_adjacency(ds.graph)
    dims = [3, 4, 2]
    state = fresh_state(ds, dims)
    b0 = make_batch_from_nodes(g_norm, np.array([0]))
    b1 = make_batch_from_nodes(g_norm, np.array([1]))
    ax = g_norm.matmul(ds.features)

    hs0, _ = batch_forward_with_history(b0, ax, state.params,
                                        state.history, push=False, step=0)
    train_step_gas(b0, state, ds, ax)
    stored, cold = state.history.pull(1, np.array([0]))
    assert cold == 0
    assert np.array_equal(stored, hs0[0].astype(np.float32))
    # at the start of the second step the row is stale by exactly one update
    stats = persistence_stats(state.history, now=state.model_step)
    assert stats[0].max == 1
    train_step_gas(b1, state, ds, ax)
    assert state.model_step == 2


def test_refresh_pass_never_touches_parameters():
    ds = small_dataset(seed=7)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=4)
    dims = [ds.num_features, 6, ds.num_classes]
    state = fresh_state(ds, dims)
    before = state.params.flat().copy()
    batches = [make_batch(g_norm, part, [c]) for c in range(4)]
    rest_refresh_pass(batches, state, g_norm.matmul(ds.features))
    assert np.array_equal(state.params.flat(), before)
    assert state.model_step == 0
    stats = persistence_stats(state.history, now=0)
    assert stats[0].cold == 0 and stats[0].max == 0


def test_refresh_pass_empty_list_is_noop():
    ds = small_dataset(seed=8)
    dims = [ds.num_features, 6, ds.num_classes]
    state = fresh_state(ds, dims)
    snap = clone_state(state)
    rest_refresh_pass([], state, None)
    assert np.array_equal(state.params.flat(), snap.params.flat())
    assert np.array_equal(state.history.last_update, snap.history.last_update)


def test_refresh_updates_only_named_cluster():
    ds = small_dataset(seed=9)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=5)
    dims = [ds.num_features, 6, ds.num_classes]
    state = fresh_state(ds, dims)
    rest_refresh_pass([make_batch(g_norm, part, [2])], state, g_norm.matmul(ds.features))
    touched = np.flatnonzero(state.history.last_update[:, 0] != -1)
    assert np.array_equal(touched, part.clusters[2])


@pytest.mark.parametrize("num_layers", [2, 3])
def test_refresh_forward_stops_at_last_pushed_layer(monkeypatch, num_layers):
    ds = small_dataset(seed=10)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=5)
    dims = [ds.num_features] + [6] * (num_layers - 1) + [ds.num_classes]
    params = init_params(dims, seed=3)
    ax = g_norm.matmul(ds.features)
    batches = [make_batch(g_norm, part, [c]) for c in (2, 0, 3, 1, 2)]
    full, short = (HistoryTable(ds.graph.num_nodes, dims[1:-1]) for _ in range(2))
    lasts = []
    real = trainer.layer_apply
    monkeypatch.setattr(trainer, "layer_apply",
                        lambda *a, **kw: lasts.append(kw["last"]) or real(*a, **kw))
    for step, batch in enumerate(batches):
        hs_full, _ = batch_forward_with_history(batch, ax, params, full,
                                                push=True, step=step)
        del lasts[:]
        hs_short, _ = batch_forward_with_history(batch, ax, params, short,
                                                 push=True, step=step, refresh=True)
        assert lasts == [False] * (num_layers - 1)
        assert len(hs_short) == num_layers - 1
        assert all(np.array_equal(a, b) for a, b in zip(hs_short, hs_full))
    assert all(np.array_equal(a, b) for a, b in zip(short.layers, full.layers))
    assert np.array_equal(short.last_update, full.last_update)


# ------------------------------------------------------- importance batches ---

def test_importance_selection_empty_without_halo():
    ds = small_dataset(seed=11)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 1, seed=0)
    batch = make_batch(g_norm, part, [0])
    assert rest_is_refresh_selection(batch, g_norm) == []


def test_importance_selection_covers_halo_once():
    ds = small_dataset(seed=12)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=7)
    batch = make_batch(g_norm, part, [0])
    sel = rest_is_refresh_selection(batch, g_norm)
    assert len(sel) == 1
    assert np.array_equal(sel[0].in_batch, batch.halo)


def test_importance_selection_star_leaves():
    import staleburner.graph as G
    from conftest import star_graph
    g = star_graph(6)
    g_norm = normalize_adjacency(g)
    batch = make_batch_from_nodes(g_norm, np.array([0]))  # center
    assert np.array_equal(batch.halo, np.arange(1, 7))
    sel = rest_is_refresh_selection(batch, g_norm)
    assert len(sel) == 1
    assert np.array_equal(sel[0].in_batch, np.arange(1, 7))


def test_importance_refresh_makes_read_rows_fresh():
    # path 0-1-2, gradient batch {1}: after refreshing its halo, node 1's
    # final output equals the whole-graph forward at current parameters
    ds = path_dataset(3)
    g_norm = normalize_adjacency(ds.graph)
    dims = [3, 4, 2]
    state = fresh_state(ds, dims)
    grad_batch = make_batch_from_nodes(g_norm, np.array([1]))
    sel = rest_is_refresh_selection(grad_batch, g_norm)
    assert np.array_equal(sel[0].in_batch, [0, 2])
    ax = g_norm.matmul(ds.features)
    rest_refresh_pass(sel, state, ax)
    hs, _ = batch_forward_with_history(grad_batch, ax, state.params,
                                       state.history, push=False, step=0)
    assert np.all(state.history.last_update[grad_batch.halo, 0] == 0)
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
    ax = g_norm.matmul(ds.features)
    hs, cache = batch_forward_with_history(batch, ax, params, table,
                                           push=False, step=0)
    mask = ds.train_mask[batch.in_batch]
    _, dlog = loss_and_grad(hs[-1], ds.labels[batch.in_batch], mask)
    analytic, _ = backward(cache, dlog, params)

    def frozen_loss(p):
        out, _ = batch_forward_with_history(batch, ax, p, table,
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
        out, _ = batch_forward_with_history(batch, ax, p, t2,
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


def test_rest_is_reads_no_refresh_per_step():
    # at 3 layers a layer-2 push reads layer-1 rows, so a halo refreshed in
    # several forwards could depend on their order; rest_is runs one
    ds = small_dataset(seed=10)
    part = partition_graph(ds.graph, 4, seed=6)
    runs = [run_training(TrainConfig(mode="rest_is", refresh_per_step=f, num_layers=3,
                                     epochs=2, hidden=6, seed=3, probe_every=1),
                         ds, part) for f in (1, 3)]
    (rec1, par1), (rec3, par3) = runs
    assert [format_record(r) for r in rec1] == [format_record(r) for r in rec3]
    assert np.array_equal(par1.flat(), par3.flat())


def test_rest_with_no_refresh_equals_gas():
    # ablate-f's F=0 arm stands in for gas
    ds = small_dataset(seed=10)
    part = partition_graph(ds.graph, 4, seed=6)
    common = dict(epochs=2, hidden=6, seed=3, probe_every=1)
    rec_gas, par_gas = run_training(
        TrainConfig(mode="gas", refresh_per_step=2, **common), ds, part)
    rec_rest, par_rest = run_training(
        TrainConfig(mode="rest", refresh_per_step=0, **common), ds, part)
    assert rec_gas == rec_rest
    assert np.array_equal(par_gas.flat(), par_rest.flat())


def test_run_training_plans_schedule_once(monkeypatch):
    ds = small_dataset(seed=24)
    part = partition_graph(ds.graph, 4, seed=6)
    calls = []
    real = trainer.schedule_epoch
    monkeypatch.setattr(trainer, "schedule_epoch",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    records, _ = run_training(TrainConfig(mode="rest", refresh_per_step=1, epochs=3,
                                          hidden=4, seed=1), ds, part)
    assert len(records) == 12
    assert len(calls) == 1  # every epoch repeats the one plan


def test_rest_refresh_past_the_chunk_count_equals_every_other_chunk():
    """F at or past the chunk count refreshes each other chunk once, as
    F = chunks - 1 does. At 3 layers a refresh of the step's own gradient
    chunk would move the records: the step's later refreshes read the
    layer-1 rows it pushed."""
    ds = small_dataset(seed=24)
    part = partition_graph(ds.graph, 4, seed=6)
    common = dict(mode="rest", num_layers=3, epochs=2, hidden=4, seed=1, probe_every=1)
    rec_all, par_all = run_training(TrainConfig(refresh_per_step=3, **common), ds, part)
    for F in (4, 6):
        records, params = run_training(TrainConfig(refresh_per_step=F, **common), ds, part)
        assert records == rec_all
        assert np.array_equal(params.flat(), par_all.flat())


@pytest.mark.parametrize("mode", ["gas", "rest", "rest_is"])
def test_run_training_builds_each_cluster_set_once(monkeypatch, mode):
    """Every memory mode plans with the config's F, and the refresh slots
    reuse the gradient chunks, so no mode builds a batch beyond its
    gradient batches."""
    ds = small_dataset(seed=24)
    part = partition_graph(ds.graph, 4, seed=6)
    cfg = TrainConfig(mode=mode, refresh_per_step=2, epochs=3, hidden=4, seed=1,
                      probe_every=1)
    steps = trainer.schedule_epoch(part, 1, 2, derive_seed(1, "schedule"))
    sets = {frozenset(ids) for st in steps for ids in (st.grad, *st.refresh)}
    assert sets == {frozenset(st.grad) for st in steps}
    built = []
    real = trainer.make_batch
    monkeypatch.setattr(trainer, "make_batch",
                        lambda g, p, ids: built.append(frozenset(ids)) or real(g, p, ids))
    records, _ = run_training(cfg, ds, part)
    assert len(records) == 12
    assert sorted(built, key=sorted) == sorted(sets, key=sorted)


def test_rest_is_builds_its_halo_batch_every_step(monkeypatch):
    """rest_is's halo batches are built by their step, not held in the plan:
    holding every one of them lifted the sweep-2k benchmark's peak RSS by
    about 7%, past its 5% bound. So each step builds exactly one."""
    ds = small_dataset(seed=24)
    part = partition_graph(ds.graph, 4, seed=6)
    calls = []
    real = trainer.make_batch_from_nodes
    monkeypatch.setattr(trainer, "make_batch_from_nodes",
                        lambda *a: calls.append(1) or real(*a))
    records, _ = run_training(TrainConfig(mode="rest_is", epochs=3, hidden=4, seed=1),
                              ds, part)
    assert len(records) == 12
    assert len(calls) == len(records)


def test_wall_ms_leaves_out_the_probe(monkeypatch):
    ds = small_dataset(seed=24)
    part = partition_graph(ds.graph, 4, seed=6)
    real = trainer._probe_apx_errors
    monkeypatch.setattr(trainer, "_probe_apx_errors",
                        lambda *a: time.sleep(0.05) or real(*a))
    for mode in ("full", "rest", "rest_is"):
        records, _ = run_training(TrainConfig(mode=mode, epochs=2, hidden=4, seed=1,
                                              probe_every=1, timing=True), ds, part)
        assert all(0.0 < r.wall_ms < 50.0 for r in records), (mode, records)


def test_run_training_rejects_oversized_batch_before_any_work(monkeypatch):
    ds = small_dataset(seed=24)
    part = partition_graph(ds.graph, 4, seed=6)

    def no_work(*a, **kw):
        raise AssertionError("normalized before the schedule was checked")

    monkeypatch.setattr(trainer, "normalize_adjacency", no_work)
    with pytest.raises(ValueError, match="clusters_per_batch"):
        run_training(TrainConfig(mode="gas", clusters_per_batch=9, hidden=4), ds, part)


def test_full_mode_probe_skips_oracle_forward(monkeypatch):
    ds = small_dataset(seed=19)
    part = partition_graph(ds.graph, 4, seed=2)
    calls = []
    real = trainer.full_forward
    monkeypatch.setattr(trainer, "full_forward",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    run_training(TrainConfig(mode="full", epochs=3, hidden=4, seed=1,
                             probe_every=1), ds, part)
    # step 0's gradient forward, then one evaluate per step; none for the probe
    assert len(calls) == 4


def count_whole_graph_forwards(monkeypatch, n):
    """Patch the trainer's forwards; returns the list each whole-graph
    forward appends its kind to."""
    calls = []
    real_full, real_batch = trainer.full_forward, trainer.batch_forward_with_history

    def full(*a, **kw):
        calls.append("full_forward")
        return real_full(*a, **kw)

    def batch(b, *a, **kw):
        if len(b.in_batch) == n:
            calls.append("batch")
        return real_batch(b, *a, **kw)

    monkeypatch.setattr(trainer, "full_forward", full)
    monkeypatch.setattr(trainer, "batch_forward_with_history", batch)
    return calls


def test_full_mode_shares_evaluate_forward_with_next_step(monkeypatch):
    ds = small_dataset(seed=19)
    part = partition_graph(ds.graph, 4, seed=2)
    calls = count_whole_graph_forwards(monkeypatch, ds.graph.num_nodes)
    run_training(TrainConfig(mode="full", epochs=5, hidden=4, seed=1), ds, part)
    # step 0's gradient forward, then one evaluate per step whose forward is
    # also the next step's gradient forward: E + 1, not 2E, and never a batch
    # forward
    assert calls == ["full_forward"] * 6


@pytest.mark.parametrize("mode,probe_every", [("full", 0), ("rest", 1), ("rest_is", 0)])
def test_whole_graph_forwards_reuse_the_first_forwards_arrays(monkeypatch, mode, probe_every):
    ds = small_dataset(seed=19)
    part = partition_graph(ds.graph, 4, seed=2)
    addresses, kept, shared, masks = [], [], [], []
    real = trainer.full_forward

    def full(*a, **kw):
        hs, cache = real(*a, **kw)
        addresses.append([h.ctypes.data for h in hs])
        kept.append(list(hs))  # so a freed array's address cannot come back
        shared.append(all(np.shares_memory(h, hs[-1]) for h in hs))
        masks.append(len(cache.masks))
        return hs, cache

    monkeypatch.setattr(trainer, "full_forward", full)
    records, _ = run_training(TrainConfig(mode=mode, epochs=2, hidden=4, seed=1,
                                          num_layers=3, probe_every=probe_every), ds, part)
    assert len(addresses) >= len(records) > 1
    # only the run's first forward allocates its layer outputs
    assert all(a == addresses[0] for a in addresses[1:])
    # full mode's forwards feed its backward: every layer's output in one
    # buffer, both hidden masks packed. Other modes' only feed reads
    assert shared == [mode == "full"] * len(shared)
    assert masks == [2 if mode == "full" else 0] * len(masks)


def test_only_batch_forwards_that_feed_backward_pack_masks(monkeypatch):
    ds = small_dataset(seed=19)
    part = partition_graph(ds.graph, 4, seed=2)
    packed = []
    real = trainer.relu_masks

    def counting(h):
        packed.append(len(h))
        return real(h)

    monkeypatch.setattr(trainer, "relu_masks", counting)
    records, _ = run_training(TrainConfig(mode="rest", refresh_per_step=2, epochs=2, hidden=4,
                                          seed=1, num_layers=3, probe_every=1,
                                          warmup_refresh=True), ds, part)
    # two hidden layers of each gradient step's batch forward; the warm-up,
    # the refresh forwards and the probe's table_logits pack none
    assert len(packed) == 2 * len(records) > 0


def test_full_forward_refuses_a_bad_out():
    ds = small_dataset()
    g = normalize_adjacency(ds.graph)
    params = init_params([ds.num_features, 5, ds.num_classes], seed=0)
    n = ds.graph.num_nodes
    hs, _ = full_forward(g, ds.features, params, keep_z=False)
    out = [np.empty_like(h) for h in hs]
    hs2, _ = full_forward(g, ds.features, params, keep_z=False, out=out)
    assert all(a is b for a, b in zip(hs2, out))
    assert all(np.array_equal(a, b) for a, b in zip(hs, hs2))
    for bad in ([np.empty((n, 5)), np.empty((n, 5))],         # wrong width
                [np.empty((n - 1, 5)), np.empty_like(hs[1])],  # wrong row count
                [np.empty((n, 5), dtype=np.float32), np.empty_like(hs[1])],
                out[:1]):                                       # one array for two layers
        with pytest.raises(ValueError, match="out"):
            full_forward(g, ds.features, params, keep_z=False, out=bad)
    with pytest.raises(ValueError, match="keep_z"):
        full_forward(g, ds.features, params, keep_z=True, out=out)


def test_probe_reuses_evaluate_forward(monkeypatch):
    ds = small_dataset(seed=19)
    part = partition_graph(ds.graph, 4, seed=2)
    calls = count_whole_graph_forwards(monkeypatch, ds.graph.num_nodes)
    records, _ = run_training(TrainConfig(mode="rest", epochs=2, hidden=4, seed=1,
                                          probe_every=1), ds, part)
    # the probe opening step 0 runs the only forward evaluate did not:
    # S + 1 oracle forwards over S steps, not 2S
    assert len(records) == 8
    assert calls == ["full_forward"] * 9
    assert all(not np.isnan(r.apx_err).any() for r in records)


@pytest.mark.parametrize("layers", [2, 3])
def test_full_mode_has_no_staleness(layers):
    """Full mode keeps a table of every hidden layer and never writes a row
    of it, so its records report every hidden row cold."""
    ds = small_dataset(seed=19)
    part = partition_graph(ds.graph, 4, seed=2)
    n = ds.graph.num_nodes
    cfg = TrainConfig(mode="full", epochs=3, hidden=4, seed=1, probe_every=1,
                      num_layers=layers)
    checked = []

    def never_written(state):
        assert state.history.last_update.shape == (n, layers - 1)
        assert np.all(state.history.last_update == NEVER)
        checked.append(state.model_step)

    records, _ = run_training(cfg, ds, part, on_step=never_written)
    assert checked == [1, 2, 3] == [r.step for r in records]
    for r in records:
        assert r.persist_mean == (0.0,) * (layers - 1)
        assert r.persist_max == (0,) * (layers - 1)
        assert r.cold_rows == n * (layers - 1)
        assert r.apx_err == (0.0,) * layers


@pytest.mark.parametrize("layers", [2, 3])
def test_a_new_mode_needs_only_a_refresh_entry(monkeypatch, layers):
    """A mode is one REFRESH entry. Refreshing the gradient batch's own rows
    changes nothing its step reads, since the gradient forward recomputes
    them from the same halo rows, so this arm trains exactly as gas."""
    refreshed = []
    monkeypatch.setitem(trainer.REFRESH, "self",
                        lambda planned, grad, g_norm: refreshed.append(grad) or [grad])
    ds = small_dataset(seed=24)
    part = partition_graph(ds.graph, 4, seed=6)
    runs = {}
    for mode in ("gas", "self"):
        cfg = TrainConfig(mode=mode, epochs=2, hidden=4, seed=1, num_layers=layers,
                          probe_every=1)
        cfg.validate()
        runs[mode] = run_training(cfg, ds, part)
    (rec_gas, par_gas), (rec_self, par_self) = runs["gas"], runs["self"]
    assert len(refreshed) == len(rec_self) == 8
    assert rec_self == rec_gas
    assert par_self.flat().tobytes() == par_gas.flat().tobytes()


def test_degenerate_single_cluster_modes_agree_bitwise():
    ds = sbm_generate(4, 25, 0.3, 0.02, seed=20)
    part = partition_graph(ds.graph, 1, seed=0)
    trajs = {}
    for mode in ("full", "gas", "rest", "rest_is"):
        snaps = []
        cfg = TrainConfig(mode=mode, epochs=5, hidden=6, seed=3,
                          refresh_per_step=1)
        run_training(cfg, ds, part,
                     on_step=lambda st: snaps.append(st.params.flat().tobytes()))
        trajs[mode] = snaps
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


def test_divergence_aborts_with_checkpoint_dump(tmp_path):
    ds = small_dataset(seed=26)
    part = partition_graph(ds.graph, 2, seed=1)
    for mode in ("gas", "full"):
        cfg = TrainConfig(mode=mode, epochs=2, hidden=4, seed=1, lr=1.0)
        ckpt = str(tmp_path / f"{mode}.ckpt")
        with np.errstate(over="ignore", invalid="ignore"):
            ds.features[:] = 1e200  # first forward goes non-finite
            with pytest.raises(FloatingPointError):
                run_training(cfg, ds, part, checkpoint_path=ckpt)
        assert (tmp_path / f"{mode}_diverged.ckpt").exists(), mode
        assert (tmp_path / f"{mode}_history_l1.bin").exists(), mode


@pytest.mark.parametrize("mode", ["gas", "rest", "full"])
def test_parameter_divergence_dumps_before_raising(tmp_path, mode):
    # at lr=1e300 the first step's own forward is finite; the parameters it
    # writes make evaluate's whole-graph forward the first non-finite one
    ds = small_dataset(seed=26)
    part = partition_graph(ds.graph, 2, seed=1)
    cfg = TrainConfig(mode=mode, epochs=1, hidden=4, seed=1, lr=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            run_training(cfg, ds, part, checkpoint_path=str(tmp_path / "run.ckpt"))
    assert trainer.load_checkpoint(str(tmp_path / "run_diverged.ckpt")).dims == \
        [ds.num_features, 4, ds.num_classes]
    assert (tmp_path / "run_history_l1.bin").exists()
    assert not (tmp_path / "run.ckpt").exists()  # no epoch completed


def csc_t_matmul(adj: NormAdj, g: np.ndarray) -> np.ndarray:
    """The transpose product batch backward ran before every product took
    the row kernel: scipy's CSC scatter into every column, then the halo
    rows dropped."""
    return (adj.csr.T @ g)[:adj.num_rows]


@pytest.mark.parametrize("num_layers", [2, 3])
@pytest.mark.parametrize("parts", [1, 4])  # one part: a batch with no halo
def test_batch_backward_equals_scatter_transpose_bitwise(monkeypatch, num_layers, parts):
    ds = sbm_generate(4, 30, 0.2, 0.02, seed=7)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, parts, seed=3)
    batch = make_batch(g_norm, part, [0])
    assert (len(batch.halo) > 0) == (parts > 1)
    ax = g_norm.matmul(ds.features)
    dims = [ds.num_features] + [16] * (num_layers - 1) + [ds.num_classes]
    state = fresh_state(ds, dims, seed=num_layers)
    # every table row written, so the halo rows are not zeros
    rest_refresh_pass([make_batch(g_norm, part, list(range(parts)))], state, ax)
    mask = ds.train_mask[batch.in_batch]

    def gradients() -> list[bytes]:
        hs, cache = batch_forward_with_history(batch, ax, state.params, state.history,
                                               push=False, step=1)
        _, dlogits = loss_and_grad(hs[-1], ds.labels[batch.in_batch], mask)
        grads, d_hidden = backward(cache, dlogits, state.params)
        return [a.tobytes() for a in grads.weights + grads.biases + d_hidden]

    got = gradients()
    calls = []
    monkeypatch.setattr(NormAdj, "t_matmul", lambda adj, g, out: calls.append(1)
                        or np.copyto(out, csc_t_matmul(adj, g)) or out)
    assert gradients() == got
    assert len(calls) == num_layers - 1


def test_load_checkpoint_rejects_wrong_size(tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    params = init_params([5, 4, 3], seed=2)
    trainer.save_checkpoint(params, str(path))
    data = path.read_bytes()
    assert len(data) == 4 * (1 + 3 + 5 * 4 + 4 + 4 * 3 + 3)
    loaded = trainer.load_checkpoint(str(path))
    assert np.array_equal(loaded.flat(), params.flat().astype(np.float32))
    for bad in (data[:-4], data + bytes(8)):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=re.escape(str(path)) + f": .* takes "
                           f"{len(data)} bytes, the file has {len(bad)}"):
            trainer.load_checkpoint(str(path))
    path.write_bytes(data[:6])
    with pytest.raises(ValueError, match="no checkpoint header"):
        trainer.load_checkpoint(str(path))
    # a zero-layer header with dims [5] matches its own size, 8 bytes
    path.write_bytes(struct.pack("<II", 0, 5))
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": .*0 layers"):
        trainer.load_checkpoint(str(path))
    assert main(["eval", "--checkpoint", str(path), "--data",
                 "sbm:blocks=3,nodes_per_block=12,p_in=0.4,p_out=0.05"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]
    # an empty hidden layer: dims [5, 0, 3] also match their own size, 28 bytes
    path.write_bytes(struct.pack("<4I", 2, 5, 0, 3) + bytes(12))
    with pytest.raises(ValueError, match=re.escape(str(path)) + ": .*zero dimension"):
        trainer.load_checkpoint(str(path))
    assert main(["eval", "--checkpoint", str(path), "--data",
                 "sbm:blocks=3,nodes_per_block=12,p_in=0.4,p_out=0.05,d_in=5"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and str(path) in err[0]


@pytest.mark.parametrize("field,value,rule", [("epochs", -1, ">= 0"),
                                               ("num_layers", 0, ">= 1"),
                                               ("hidden", 0, ">= 1"),
                                               ("hidden", -3, ">= 1")])
def test_config_validation_names_the_field(field, value, rule):
    with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {value}$"):
        TrainConfig(**{field: value}).validate()
    TrainConfig(epochs=0).validate()  # no epochs is a valid run


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(mode="sgd").validate()
    for bad in (dict(refresh_per_step=-1),
                dict(clusters_per_batch=0),
                dict(probe_every=-1),
                dict(lr=float("nan")), dict(lr=float("inf")), dict(lr=-1.0), dict(lr=0.0),
                dict(weight_decay=-0.5), dict(weight_decay=float("nan")),
                dict(weight_decay=float("inf"))):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig(**bad).validate()
    TrainConfig(mode="rest", clusters_per_batch=2, probe_every=0).validate()
    TrainConfig(lr=1e-9, weight_decay=0.0).validate()
    TrainConfig(mode="rest_is", refresh_per_step=0).validate()  # F is rest's
