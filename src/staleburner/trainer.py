"""Training regimes over the history table.

Modes:
  full       one whole-graph gradient step per epoch, memory unused
  gas        mini-batch steps where out-of-batch neighbor rows come from the
             memory table; each step pushes its fresh in-batch rows
  rest       gas plus F gradient-free forward passes per step that refresh
             additional table rows before the gradient batch reads them
  rest_is    rest whose refresh set is the gradient batch's own halo, so the
             rows about to be read are refreshed first

Every mode runs the same step: a refresh pass over the step's refresh batches
(none for full and gas), then one gradient step that pushes its in-batch rows
unless the mode is full. Reference semantics are strictly sequential: refresh
batches in listed order, then the gradient batch. All modes collapse to
identical full-batch steps when the partition has a single cluster.
"""

from __future__ import annotations

import logging
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .graph import Dataset, NormAdj, normalize_adjacency
from .history import HistoryTable, persistence_stats
from .metrics import MetricsRecord, approximation_error
from .model import (Adam, GcnParams, LayerCache, accuracy, backward,
                    full_forward, init_params, layer_apply, loss_and_grad)
from .partition import (MiniBatch, Partition, ScheduleStep, make_batch,
                        make_batch_from_nodes, schedule_epoch)
from .rng import Rng, derive_seed

log = logging.getLogger(__name__)

MODES = ("full", "gas", "rest", "rest_is")


@dataclass
class TrainConfig:
    mode: str = "rest"
    refresh_per_step: int = 1        # forward-only refresh batches per gradient step
    clusters_per_batch: int = 1
    refresh_mode: str = "same"       # same | half | full (refresh batch width)
    sampler: str = "round_robin"
    epochs: int = 1
    seed: int = 0
    lr: float = 0.001
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    hidden: int = 128
    num_layers: int = 2
    dropout: float = 0.0
    warmup_refresh: bool = False
    probe_every: int = 0             # 0 disables the approximation-error probe
    timing: bool = False             # wall_ms stays 0.0 unless enabled
    parallel_refresh: bool = False   # refresh pulls read the pre-pass snapshot

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.refresh_per_step < 0:
            raise ValueError("refresh_per_step must be >= 0")
        if self.mode == "rest_is" and self.refresh_per_step < 1:
            raise ValueError("rest_is needs refresh_per_step >= 1")
        if self.refresh_mode not in ("same", "half", "full"):
            raise ValueError(f"unknown refresh_mode {self.refresh_mode!r}")
        if self.refresh_mode != "same" and self.mode != "rest":
            raise ValueError("refresh_mode half/full applies to rest only")
        if self.sampler not in ("round_robin", "uniform"):
            raise ValueError(f"unknown sampler {self.sampler!r} "
                             "(importance refresh is mode=rest_is)")
        if self.clusters_per_batch < 1:
            raise ValueError("clusters_per_batch must be >= 1")
        if self.probe_every < 0:
            raise ValueError("probe_every must be >= 0")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        if self.epochs < 0 or self.num_layers < 1 or self.hidden < 1:
            raise ValueError("epochs, num_layers, hidden must be positive")


@dataclass
class TrainState:
    params: GcnParams
    adam: Adam
    history: HistoryTable
    model_step: int = 0
    records: list[MetricsRecord] = field(default_factory=list)


def batch_forward_with_history(batch: MiniBatch, features: np.ndarray,
                               params: GcnParams, history: HistoryTable,
                               push: bool, step: int,
                               drop: tuple[float, np.random.Generator] | None = None,
                               pull_from: HistoryTable | None = None
                               ) -> tuple[list[np.ndarray], LayerCache, int]:
    """Forward over a batch, memory rows standing in for halo neighbors.

    Layer 1 aggregates raw features for every local node (inputs are never
    stale); deeper layers aggregate the freshly computed in-batch rows plus
    table rows for the halo. With push=True each computed in-batch hidden
    layer is written back at `step`. Returns the per-layer in-batch outputs,
    the backward cache, and how many pulled rows were never written.

    pull_from redirects reads to another table (the pre-pass snapshot used by
    the concurrent-refresh semantics); pushes always hit `history`.
    """
    L = params.num_layers
    nb = len(batch.in_batch)
    reads = history if pull_from is None else pull_from
    cache = LayerCache(adj=batch.local_adj, num_in_batch=nb)
    cold_total = 0
    inputs = features[batch.global_map].astype(np.float64)
    h = None
    for l in range(L):
        if drop is not None and drop[0] > 0.0:
            rate, gen = drop
            keep = gen.random(inputs.shape) >= rate
            inputs = inputs * keep / (1.0 - rate)
        agg, z, h = layer_apply(batch.local_adj, inputs, params.weights[l],
                                params.biases[l], last=(l == L - 1))
        cache.aggs.append(agg)
        cache.zs.append(z)
        cache.hs.append(h)
        if l < L - 1:
            if push:
                history.push(l + 1, batch.in_batch, h, step)
            if len(batch.halo):
                halo_rows, cold = reads.pull(l + 1, batch.halo)
                cold_total += cold
                inputs = np.vstack([h, halo_rows.astype(np.float64)])
            else:
                inputs = h
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("non-finite output in batch forward")
    return cache.hs, cache, cold_total


def train_step_gas(batch: MiniBatch, state: TrainState, ds: Dataset,
                   push: bool = True,
                   drop: tuple[float, np.random.Generator] | None = None) -> float:
    """One gradient step on a batch: forward with memory fill, masked loss,
    backward treating pulled rows as constants, optimizer update."""
    mask = ds.train_mask[batch.in_batch]
    if not mask.any():
        raise ValueError(
            f"no training nodes in batch of {len(batch.in_batch)} nodes "
            f"(first id {batch.in_batch[0]})")
    hs, cache, _ = batch_forward_with_history(
        batch, ds.features, state.params, state.history,
        push=push, step=state.model_step, drop=drop)
    loss, dlogits = loss_and_grad(hs[-1], ds.labels[batch.in_batch], mask)
    grads, _ = backward(cache, dlogits, state.params)
    state.adam.step(state.params, grads)
    state.model_step += 1
    return loss


def rest_refresh_pass(batches: list[MiniBatch], state: TrainState, ds: Dataset,
                      drop: tuple[float, np.random.Generator] | None = None,
                      snapshot_reads: bool = False) -> None:
    """Gradient-free forwards that only rewrite table rows; parameters and the
    step counter are untouched.

    snapshot_reads gives the pass the semantics of running its batches
    concurrently: every pull sees the table as it was when the pass started,
    and writes land last-writer-wins. The default (reference mode) is strictly
    sequential, each batch seeing the previous one's pushes.
    """
    pull_from = None
    if snapshot_reads and len(batches) > 1:
        pull_from = HistoryTable(state.history.num_nodes, state.history.dims)
        for li, mat in enumerate(state.history.layers):
            pull_from.layers[li][:] = mat
        pull_from.last_update[:] = state.history.last_update
    for batch in batches:
        batch_forward_with_history(batch, ds.features, state.params, state.history,
                                   push=True, step=state.model_step, drop=drop,
                                   pull_from=pull_from)


def rest_is_refresh_selection(grad_batch: MiniBatch, g_norm: NormAdj,
                              refresh_per_step: int, rng: Rng) -> list[MiniBatch]:
    """Refresh batches covering exactly the gradient batch's halo.

    The nodes whose rows the upcoming gradient step will read become the
    in-batch nodes of the refresh batches (split into refresh_per_step
    seeded, balanced chunks), so they are recomputed from their own
    neighborhoods and pushed before being read. With no halo (single-cluster
    partition) there is nothing to refresh.
    """
    if refresh_per_step < 1:
        raise ValueError("refresh_per_step must be >= 1")
    halo = grad_batch.halo
    if len(halo) == 0:
        log.warning("gradient batch has no out-of-batch neighbors; "
                    "importance refresh degenerates to plain history fill")
        return []
    order = list(range(len(halo)))
    rng.shuffle(order)
    shuffled = halo[np.array(order, dtype=np.int64)]
    chunks = np.array_split(shuffled, min(refresh_per_step, len(halo)))
    return [make_batch_from_nodes(g_norm, chunk) for chunk in chunks if len(chunk)]


def evaluate(g_norm: NormAdj, ds: Dataset, params: GcnParams
             ) -> tuple[float, float, float]:
    """Whole-graph accuracies at current parameters; no staleness in the
    reported numbers regardless of training mode."""
    hs, _ = full_forward(g_norm, ds.features, params)
    return (accuracy(hs[-1], ds.labels, ds.train_mask),
            accuracy(hs[-1], ds.labels, ds.val_mask),
            accuracy(hs[-1], ds.labels, ds.test_mask))


def _probe_apx_errors(g_norm: NormAdj, ds: Dataset, state: TrainState,
                      chunk_batches: list[MiniBatch], mode: str
                      ) -> tuple[float, ...]:
    """Per-layer mean distance between memory/run embeddings and a fresh
    whole-graph forward: stored layers come straight from the table, the final
    layer from re-running every batch against the current table. Full mode
    reads no table, so its errors are zero without a forward."""
    if mode == "full":
        return tuple(0.0 for _ in range(state.params.num_layers))
    oracle_hs, _ = full_forward(g_norm, ds.features, state.params)
    table_errs = approximation_error(state.history, oracle_hs)
    run_logits = np.zeros_like(oracle_hs[-1])
    for batch in chunk_batches:
        hs, _, _ = batch_forward_with_history(
            batch, ds.features, state.params, state.history,
            push=False, step=state.model_step)
        run_logits[batch.in_batch] = hs[-1]
    final_err = approximation_error(run_logits, oracle_hs[-1])
    return tuple(table_errs) + (final_err,)


def save_checkpoint(params: GcnParams, path: str) -> None:
    """Little-endian binary: uint32 layer count, uint32 dims[0..L], then per
    layer the float32 weight matrix (row-major) and bias vector."""
    dims = params.dims
    with open(path, "wb") as f:
        f.write(struct.pack("<I", params.num_layers))
        f.write(struct.pack(f"<{len(dims)}I", *dims))
        for w, b in zip(params.weights, params.biases):
            f.write(w.astype("<f4").tobytes(order="C"))
            f.write(b.astype("<f4").tobytes(order="C"))


def load_checkpoint(path: str) -> GcnParams:
    with open(path, "rb") as f:
        (L,) = struct.unpack("<I", f.read(4))
        dims = list(struct.unpack(f"<{L + 1}I", f.read(4 * (L + 1))))
        weights, biases = [], []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            w = np.frombuffer(f.read(4 * d_in * d_out), dtype="<f4")
            weights.append(w.reshape(d_in, d_out).astype(np.float64))
            b = np.frombuffer(f.read(4 * d_out), dtype="<f4")
            biases.append(b.astype(np.float64))
    return GcnParams(weights=weights, biases=biases)


def run_training(cfg: TrainConfig, ds: Dataset, part: Partition,
                 dump_prefix: str | None = None,
                 on_step=None,
                 checkpoint_path: str | None = None
                 ) -> tuple[list[MetricsRecord], GcnParams]:
    """Drive epochs of scheduled steps; returns the metrics series and final
    parameters. Deterministic for a fixed config (wall_ms stays 0.0 unless
    cfg.timing is set)."""
    cfg.validate()
    ds.validate()
    g_norm = normalize_adjacency(ds.graph)
    n = ds.graph.num_nodes
    dims = ([ds.num_features]
            + [cfg.hidden] * (cfg.num_layers - 1)
            + [ds.num_classes])
    state = TrainState(
        params=init_params(dims, derive_seed(cfg.seed, "init")),
        adam=Adam(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                  eps=cfg.adam_eps, weight_decay=cfg.weight_decay),
        history=HistoryTable(n, dims[1:-1]),
    )
    drop = None
    if cfg.dropout > 0.0:
        drop = (cfg.dropout,
                np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, "dropout"))))
    is_rng = Rng(derive_seed(cfg.seed, "importance"))
    sched_seed = derive_seed(cfg.seed, "schedule")
    sampler = "importance" if cfg.mode == "rest_is" else cfg.sampler
    memory = cfg.mode != "full"
    # gas is rest without refresh batches, whatever F its config carries
    refresh_per_step = 0 if cfg.mode == "gas" else cfg.refresh_per_step
    whole_ids = tuple(range(part.num_parts))

    batch_cache: dict[tuple[int, ...], MiniBatch] = {}

    def cluster_batch(ids: tuple[int, ...]) -> MiniBatch:
        key = tuple(sorted(ids))
        if key not in batch_cache:
            batch_cache[key] = make_batch(g_norm, part, list(key))
        return batch_cache[key]

    if cfg.warmup_refresh and memory:
        # gradient-free whole-graph refresh so no pull ever reads the zero init
        batch_forward_with_history(cluster_batch(whole_ids), ds.features,
                                   state.params, state.history, push=True, step=0)

    for epoch in range(cfg.epochs):
        if memory:
            steps = schedule_epoch(part, cfg.clusters_per_batch, refresh_per_step,
                                   sampler, sched_seed, epoch=epoch,
                                   refresh_mode=cfg.refresh_mode)
        else:
            steps = [ScheduleStep(refresh=(), grad=whole_ids)]
        chunk_ids = [st.grad for st in steps]
        for st in steps:
            t0 = time.perf_counter()
            pstats = persistence_stats(state.history, state.model_step)
            if cfg.probe_every > 0 and state.model_step % cfg.probe_every == 0:
                apx = _probe_apx_errors(g_norm, ds, state,
                                        [cluster_batch(c) for c in chunk_ids], cfg.mode)
            else:
                apx = tuple([float("nan")] * cfg.num_layers)
            grad_batch = cluster_batch(st.grad)
            if cfg.mode == "rest_is":
                refresh = rest_is_refresh_selection(grad_batch, g_norm,
                                                    cfg.refresh_per_step, is_rng)
            else:
                refresh = [cluster_batch(c) for c in st.refresh]
            try:
                rest_refresh_pass(refresh, state, ds, drop=drop,
                                  snapshot_reads=cfg.parallel_refresh)
                loss = train_step_gas(grad_batch, state, ds, push=memory, drop=drop)
            except FloatingPointError:
                if dump_prefix is not None:
                    save_checkpoint(state.params, dump_prefix + "_diverged.ckpt")
                    state.history.dump(dump_prefix + "_history")
                raise
            wall = (time.perf_counter() - t0) * 1e3 if cfg.timing else 0.0
            acc_tr, acc_val, acc_te = evaluate(g_norm, ds, state.params)
            state.records.append(MetricsRecord(
                step=state.model_step, epoch=epoch, loss=loss,
                acc_train=acc_tr, acc_val=acc_val, acc_test=acc_te,
                persist_mean=tuple(p.mean for p in pstats),
                persist_max=tuple(p.max for p in pstats),
                cold_rows=sum(p.cold for p in pstats),
                apx_err=apx, wall_ms=wall))
            if on_step is not None:
                on_step(state)
        if checkpoint_path is not None:
            save_checkpoint(state.params, checkpoint_path)
    return state.records, state.params
