"""Training regimes over the history table.

Modes:
  full       one whole-graph gradient step per epoch, no memory table
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

Every step ends with a whole-graph evaluate. Its forward is held until the
parameters change: it is the oracle of the probe that opens the next step
and, in full mode without dropout, the next gradient step's forward. Without
dropout the memory modes also compute Â·X once per run, so layer 1 gathers
rows instead of aggregating. Records and parameters stay bit-identical.
"""

from __future__ import annotations

import logging
import struct
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .graph import Dataset, NormAdj, normalize_adjacency
from .history import HistoryTable, LayerPersistence, persistence_stats
from .metrics import MetricsRecord, approximation_error
from .model import (Adam, GcnParams, LayerCache, backward,
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
                               pull_from: HistoryTable | None = None,
                               ax: np.ndarray | None = None
                               ) -> tuple[list[np.ndarray], LayerCache, int]:
    """Forward over a batch, memory rows standing in for halo neighbors.

    Layer 1 aggregates raw features for every local node (inputs are never
    stale); deeper layers aggregate the freshly computed in-batch rows plus
    table rows for the halo. With push=True each computed in-batch hidden
    layer is written back at `step`. Returns the per-layer in-batch outputs,
    the backward cache, and how many pulled rows were never written.

    pull_from redirects reads to another table (the pre-pass snapshot used by
    the concurrent-refresh semantics); pushes always hit `history`.

    ax, the whole-graph product Â·X, gives layer 1's aggregation as its
    in-batch rows: each row sums the same terms in the same CSR order, so the
    result is bit-identical. It cannot stand in for dropped-out inputs.
    """
    dropping = drop is not None and drop[0] > 0.0
    if ax is not None and dropping:
        raise ValueError("Â·X cannot stand in for aggregating dropped-out inputs")
    L = params.num_layers
    nb = len(batch.in_batch)
    reads = history if pull_from is None else pull_from
    cache = LayerCache(adj=batch.local_adj, num_in_batch=nb)
    cold_total = 0
    inputs = None if ax is not None else features[batch.global_map].astype(np.float64)
    h = None
    for l in range(L):
        if dropping:
            rate, gen = drop
            keep = gen.random(inputs.shape) >= rate
            inputs = inputs * keep / (1.0 - rate)
        agg, _, h = layer_apply(batch.local_adj, inputs, params.weights[l],
                                params.biases[l], last=(l == L - 1),
                                agg=ax[batch.in_batch] if l == 0 and ax is not None
                                else None)
        cache.aggs.append(agg)
        cache.hs.append(h)
        if l < L - 1:
            if push:
                history.push(l + 1, batch.in_batch, h, step)
            if len(batch.halo):
                halo_rows, cold = reads.pull(l + 1, batch.halo)
                cold_total += cold
                inputs = np.empty((nb + len(batch.halo), h.shape[1]))
                inputs[:nb] = h
                inputs[nb:] = halo_rows
            else:
                inputs = h
    if not np.all(np.isfinite(h)):
        raise FloatingPointError("non-finite output in batch forward")
    return cache.hs, cache, cold_total


def train_step_gas(batch: MiniBatch, state: TrainState, ds: Dataset,
                   push: bool = True,
                   drop: tuple[float, np.random.Generator] | None = None,
                   ax: np.ndarray | None = None,
                   forward: LayerCache | None = None) -> float:
    """One gradient step on a batch: forward with memory fill, masked loss,
    backward treating pulled rows as constants, optimizer update.

    forward, a whole-graph forward already run at the current parameters,
    is the step's forward when the batch is the whole graph, which has no
    halo and lists its nodes in global order; it must be dropout-free."""
    mask = ds.train_mask[batch.in_batch]
    if not mask.any():
        raise ValueError(
            f"no training nodes in batch of {len(batch.in_batch)} nodes "
            f"(first id {batch.in_batch[0]})")
    if forward is None:
        hs, cache, _ = batch_forward_with_history(
            batch, ds.features, state.params, state.history,
            push=push, step=state.model_step, drop=drop, ax=ax)
    elif len(batch.halo) or forward.num_in_batch != len(batch.in_batch):
        raise ValueError("a whole-graph forward can only stand in for the whole graph")
    else:
        hs, cache = forward.hs, forward
    loss, dlogits = loss_and_grad(hs[-1], ds.labels[batch.in_batch], mask)
    grads, _ = backward(cache, dlogits, state.params)
    state.adam.step(state.params, grads)
    state.model_step += 1
    return loss


def rest_refresh_pass(batches: list[MiniBatch], state: TrainState, ds: Dataset,
                      drop: tuple[float, np.random.Generator] | None = None,
                      snapshot_reads: bool = False,
                      ax: np.ndarray | None = None) -> None:
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
                                   pull_from=pull_from, ax=ax)


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


def evaluate(g_norm: NormAdj, ds: Dataset, params: GcnParams,
             forward: Callable[[], LayerCache] | None = None
             ) -> tuple[float, float, float]:
    """Whole-graph accuracies at current parameters; no staleness in the
    reported numbers regardless of training mode. `forward` returns the
    whole-graph forward at `params` when the caller keeps one to share.
    One argmax over every row serves all three masks; each equals
    `accuracy` on its mask."""
    if forward is None:
        hs, _ = full_forward(g_norm, ds.features, params, keep_z=False)
    else:
        hs = forward().hs
    hit = hs[-1].argmax(axis=1) == ds.labels
    accs = []
    for mask in (ds.train_mask, ds.val_mask, ds.test_mask):
        count = int(np.count_nonzero(mask))
        accs.append(float(np.count_nonzero(hit[mask])) / count if count else 0.0)
    return tuple(accs)


def _probe_apx_errors(ds: Dataset, state: TrainState,
                      chunk_batches: list[MiniBatch], mode: str,
                      oracle: Callable[[], LayerCache],
                      ax: np.ndarray | None = None) -> tuple[float, ...]:
    """Per-layer mean distance between memory/run embeddings and a fresh
    whole-graph forward (`oracle()`, at the current parameters): stored layers
    come straight from the table, the final layer from re-running every batch
    against the current table. Full mode reads no table, so its errors are
    zero without a forward."""
    if mode == "full":
        return tuple(0.0 for _ in range(state.params.num_layers))
    oracle_hs = oracle().hs
    table_errs = approximation_error(state.history, oracle_hs)
    run_logits = np.zeros_like(oracle_hs[-1])
    for batch in chunk_batches:
        hs, _, _ = batch_forward_with_history(
            batch, ds.features, state.params, state.history,
            push=False, step=state.model_step, ax=ax)
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
    memory = cfg.mode != "full"
    # full mode reads no table: it keeps an empty one and reports what a
    # never-written table would, every hidden row cold
    state = TrainState(
        params=init_params(dims, derive_seed(cfg.seed, "init")),
        adam=Adam(lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                  eps=cfg.adam_eps, weight_decay=cfg.weight_decay),
        history=HistoryTable(n, dims[1:-1] if memory else []),
    )
    cold_stats = [LayerPersistence(mean=0.0, max=0, hist=np.zeros(1, dtype=np.int64),
                                   cold=n)] * (cfg.num_layers - 1)
    drop = None
    if cfg.dropout > 0.0:
        drop = (cfg.dropout,
                np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, "dropout"))))
    # Â·X is parameter-free, so without input dropout layer 1 gathers its rows
    # instead of aggregating; full mode aggregates X once per step anyway and
    # would only carry the n x d_in float64 array
    ax = g_norm.matmul(ds.features) if memory and drop is None else None
    is_rng = Rng(derive_seed(cfg.seed, "importance"))
    sched_seed = derive_seed(cfg.seed, "schedule")
    sampler = "importance" if cfg.mode == "rest_is" else cfg.sampler
    # gas is rest without refresh batches, whatever F its config carries
    refresh_per_step = 0 if cfg.mode == "gas" else cfg.refresh_per_step
    whole_ids = tuple(range(part.num_parts))
    whole = np.arange(n, dtype=np.int64)
    batch_cache: dict[tuple[int, ...], MiniBatch] = {
        whole_ids: MiniBatch(in_batch=whole, halo=np.empty(0, dtype=np.int64),
                             local_adj=g_norm, global_map=whole)}

    def cluster_batch(ids: tuple[int, ...]) -> MiniBatch:
        key = tuple(sorted(ids))
        if key not in batch_cache:
            batch_cache[key] = make_batch(g_norm, part, list(key))
        return batch_cache[key]

    # full mode without dropout trains on the whole graph with evaluate's
    # forward; every other mode reads only that forward's outputs
    share_grad_forward = not memory and drop is None
    # the latest whole-graph forward, keyed by the parameter version it ran at
    held: dict[int, LayerCache] = {}

    def whole_forward() -> LayerCache:
        """The whole-graph forward at the current parameters, run once per
        version: evaluate's forward after step t is the oracle of the probe
        that opens step t+1 and, in full mode, its gradient forward. The old
        version's is dropped first, so two whole-graph caches never coexist,
        and the backward intermediates are kept only for a gradient step."""
        if state.model_step not in held:
            held.clear()
            hs, cache = full_forward(g_norm, ds.features, state.params, agg=ax,
                                     keep_z=False)
            held[state.model_step] = (cache if share_grad_forward
                                      else LayerCache(adj=g_norm, num_in_batch=n, hs=hs))
        return held[state.model_step]

    if cfg.warmup_refresh and memory:
        # gradient-free whole-graph refresh so no pull ever reads the zero init
        batch_forward_with_history(cluster_batch(whole_ids), ds.features,
                                   state.params, state.history, push=True, step=0,
                                   ax=ax)

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
            pstats = (persistence_stats(state.history, state.model_step) if memory
                      else cold_stats)
            if cfg.probe_every > 0 and state.model_step % cfg.probe_every == 0:
                apx = _probe_apx_errors(ds, state, [cluster_batch(c) for c in chunk_ids],
                                        cfg.mode, whole_forward, ax)
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
                                  snapshot_reads=cfg.parallel_refresh, ax=ax)
                # the held forward is passed, never bound here, so it is
                # released before evaluate computes the next one
                loss = train_step_gas(
                    grad_batch, state, ds, push=memory, drop=drop, ax=ax,
                    forward=held.get(state.model_step) if share_grad_forward else None)
            except FloatingPointError:
                if dump_prefix is not None:
                    save_checkpoint(state.params, dump_prefix + "_diverged.ckpt")
                    table = state.history if memory else HistoryTable(n, dims[1:-1])
                    table.dump(dump_prefix + "_history")
                raise
            wall = (time.perf_counter() - t0) * 1e3 if cfg.timing else 0.0
            acc_tr, acc_val, acc_te = evaluate(g_norm, ds, state.params, whole_forward)
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
