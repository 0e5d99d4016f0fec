"""Training regimes over the history table.

Modes, each one entry of REFRESH, the table naming the batches a step
refreshes:
  full       one whole-graph gradient step per epoch; its table is never
             written, so every hidden row reads as cold
  gas        mini-batch steps where out-of-batch neighbor rows come from the
             memory table; each step pushes its fresh in-batch rows
  rest       gas plus F gradient-free forward passes per step that refresh
             additional table rows before the gradient batch reads them
  rest_is    gas plus one gradient-free forward per step over the gradient
             batch's own halo, so the rows about to be read are refreshed
             first (its scheduled batches are not read)

Before its first step a run builds one plan, a list of (scheduled refresh
batches, gradient batch) pairs that every epoch walks: one pair per step of
the schedule, which every memory mode draws with the config's F, or the whole
graph alone in full mode. Every mode runs the same step: a refresh pass over
the batches its REFRESH entry names, then one gradient step that pushes its
in-batch rows unless the mode is full. Reference semantics are strictly
sequential: refresh batches in listed order, then the gradient batch. All
modes collapse to identical full-batch steps when the partition has a single
cluster.

Every step ends with a whole-graph evaluate. That one forward serves until
the next gradient step moves the parameters: it is the oracle of the probe
that opens the next step and, in full mode, the next gradient step's
forward. The run then keeps it as stale, and the next whole-graph forward
writes its layer outputs into the stale one's arrays, so only a run's first
whole-graph forward allocates them. Each aggregation stays a per-call
temporary, except where a memory-mode evaluate's forward serves no probe:
its logit layer writes its class-width product Â·(H·W) straight into the
held output, and only the transform H·W is a temporary
(model.full_forward's transform_first). A forward the next step's probe
reads aggregates first, so every apx_err bit stays. In full mode the held
forward is the one backward reads: it packs each hidden layer's ReLU mask
and writes every layer's output into one n x max(hidden, classes) buffer
(model.shared_outputs), the logits over the spent hidden output, so a step
never holds a hidden output and the logits at once. A forward no backward
reads (memory-mode evaluate and probe oracle, refresh forwards,
table_logits) packs no mask and keeps its hidden outputs. Every mode computes Â·X once per run, so no forward aggregates X:
batch forwards gather layer 1's rows and whole-graph forwards take it whole.
Refresh forwards stop at the last layer they push. Records and parameters
stay bit-identical.
"""

from __future__ import annotations

import math
import os
import struct
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .graph import Dataset, NormAdj, normalize_adjacency
from .history import HistoryTable, persistence_stats
from .metrics import MetricsRecord, approximation_error
from .model import (Adam, GcnParams, LayerCache, backward, check_finite, full_forward,
                    init_params, layer_apply, loss_and_grad, relu_masks, shared_outputs)
from .partition import (MiniBatch, Partition, make_batch,
                        make_batch_from_nodes, schedule_epoch)
from .rng import derive_seed

# per mode, the batches a step refreshes, given its scheduled refresh batches,
# its gradient batch and Â. rest_is's entry looks its selector up by name at
# each call, so a wrapper set on the module attribute still sees every call
REFRESH: dict[str, Callable[[list[MiniBatch], MiniBatch, NormAdj], list[MiniBatch]]] = {
    "full": lambda planned, grad, g_norm: [],
    "gas": lambda planned, grad, g_norm: [],
    "rest": lambda planned, grad, g_norm: planned,
    "rest_is": lambda planned, grad, g_norm: rest_is_refresh_selection(grad, g_norm),
}


@dataclass
class TrainConfig:
    mode: str = "rest"
    refresh_per_step: int = 1        # rest's refresh batches per gradient step
    clusters_per_batch: int = 1
    epochs: int = 1
    seed: int = 0
    lr: float = 0.001
    weight_decay: float = 0.0
    hidden: int = 128
    num_layers: int = 2
    warmup_refresh: bool = False
    probe_every: int = 0             # 0 disables the approximation-error probe
    timing: bool = False             # wall_ms stays 0.0 unless enabled

    def validate(self) -> None:
        if self.mode not in REFRESH:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.refresh_per_step < 0:
            raise ValueError("refresh_per_step must be >= 0")
        if self.clusters_per_batch < 1:
            raise ValueError("clusters_per_batch must be >= 1")
        if self.probe_every < 0:
            raise ValueError("probe_every must be >= 0")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass
class TrainState:
    params: GcnParams
    adam: Adam
    history: HistoryTable

    @property
    def model_step(self) -> int:
        """Completed optimizer steps: Adam's count, which a step whose
        gradient is not finite leaves unmoved."""
        return self.adam.t


def batch_forward_with_history(batch: MiniBatch, ax: np.ndarray,
                               params: GcnParams, history: HistoryTable,
                               push: bool, step: int, refresh: bool = False,
                               masks: bool = True
                               ) -> tuple[list[np.ndarray], LayerCache]:
    """Forward over a batch, memory rows standing in for halo neighbors.

    Layer 1's aggregation is the batch's rows of ax, the whole-graph product
    Â·X: inputs are never stale, and each row sums the same terms in the same
    CSR order as aggregating the batch's own features, so the result is
    bit-identical. Deeper layers aggregate the freshly computed in-batch rows
    plus table rows for the halo. With push=True each computed in-batch
    hidden layer is written back at `step`. A refresh forward (refresh=True)
    stops once it has pushed layer L-1: nothing reads its layer L, so that
    layer's pull, aggregation and transform are skipped, and the non-finite
    check looks at layer L-1. With masks=True the cache also holds each
    hidden layer's packed ReLU mask, which backward reads; a forward no
    backward reads passes False. Returns the per-layer in-batch outputs and
    the backward cache.
    """
    L = params.num_layers
    depth = L - 1 if refresh else L
    nb = len(batch.in_batch)
    cache = LayerCache(adj=batch.local_adj)
    inputs = h = None
    for l in range(depth):
        if l > 0:
            inputs = h
            if len(batch.halo):
                inputs = np.empty((nb + len(batch.halo), h.shape[1]))
                inputs[:nb] = h
                inputs[nb:] = history.pull(l, batch.halo)[0]
        agg, _, h = layer_apply(batch.local_adj, inputs, params.weights[l],
                                params.biases[l], last=(l == L - 1),
                                agg=ax[batch.in_batch] if l == 0 else None)
        cache.aggs.append(agg)
        cache.hs.append(h)
        if masks and l < L - 1:
            cache.masks.append(relu_masks(h))
        if push and l < L - 1:
            history.push(l + 1, batch.in_batch, h, step)
    if depth:
        check_finite(h, "batch forward")
    return cache.hs, cache


def train_step_gas(batch: MiniBatch, state: TrainState, ds: Dataset,
                   ax: np.ndarray,
                   forward: LayerCache | None = None) -> float:
    """One gradient step on a batch: forward with memory fill, masked loss,
    backward treating pulled rows as constants, optimizer update.

    Without `forward` the step runs a batch forward from ax (Â·X) that
    pushes its in-batch rows. forward, a whole-graph forward already run at
    the current parameters, is the step's forward when the batch is the
    whole graph, which has no halo and lists its nodes in global order."""
    mask = ds.train_mask[batch.in_batch]
    if not mask.any():
        raise ValueError(
            f"no training nodes in batch of {len(batch.in_batch)} nodes "
            f"(first id {batch.in_batch[0]})")
    if forward is None:
        hs, cache = batch_forward_with_history(
            batch, ax, state.params, state.history, push=True, step=state.model_step)
    elif len(batch.halo) or forward.adj.num_rows != len(batch.in_batch):
        raise ValueError("a whole-graph forward can only stand in for the whole graph")
    else:
        hs, cache = forward.hs, forward
    # the gradient overwrites the logits, which nothing reads after the loss
    loss, dlogits = loss_and_grad(hs[-1], ds.labels[batch.in_batch], mask, out=hs[-1])
    grads, _ = backward(cache, dlogits, state.params)
    state.adam.step(state.params, grads)
    return loss


def rest_refresh_pass(batches: list[MiniBatch], state: TrainState,
                      ax: np.ndarray) -> None:
    """Gradient-free forwards that only rewrite table rows; parameters and the
    step counter are untouched. Batches run in listed order, each one
    reading the rows the previous ones pushed."""
    for batch in batches:
        batch_forward_with_history(batch, ax, state.params, state.history, push=True,
                                   step=state.model_step, refresh=True, masks=False)


def rest_is_refresh_selection(grad_batch: MiniBatch,
                              g_norm: NormAdj) -> list[MiniBatch]:
    """One refresh batch whose in-batch nodes are the gradient batch's halo.

    The nodes whose rows the upcoming gradient step will read are recomputed
    from their own neighborhoods in one forward and pushed before being
    read. With no halo (single-cluster partition) there is nothing to
    refresh.
    """
    if len(grad_batch.halo) == 0:
        return []
    return [make_batch_from_nodes(g_norm, grad_batch.halo)]


def evaluate(ds: Dataset, forward: Callable[[], LayerCache]
             ) -> tuple[float, float, float]:
    """Train, validation and test accuracy of the whole-graph forward that
    `forward()` returns, at the parameters being evaluated. It is called
    here, so a tracer timing this function times the forward too. The
    forward is fresh, so the numbers carry no staleness whatever the
    training mode. One argmax over every row serves all three masks; each
    equals `accuracy` on its mask."""
    hit = forward().hs[-1].argmax(axis=1) == ds.labels
    accs = []
    for mask in (ds.train_mask, ds.val_mask, ds.test_mask):
        count = int(np.count_nonzero(mask))
        accs.append(float(np.count_nonzero(hit[mask])) / count if count else 0.0)
    return tuple(accs)


def table_logits(batches: list[MiniBatch], ax: np.ndarray, params: GcnParams,
                 history: HistoryTable) -> np.ndarray:
    """Whole-graph logits read through the table: every batch runs against
    `history` without pushing, so no batch sees another's rows, and writes
    its in-batch rows of one n x classes array. Rows no batch covers stay
    zero."""
    logits = np.zeros((len(ax), params.dims[-1]))
    for batch in batches:
        # step is read only by pushes
        hs, _ = batch_forward_with_history(batch, ax, params, history,
                                           push=False, step=0, masks=False)
        logits[batch.in_batch] = hs[-1]
    return logits


def _probe_apx_errors(state: TrainState, grad_batches: list[MiniBatch], memory: bool,
                      oracle: Callable[[], LayerCache],
                      ax: np.ndarray) -> tuple[float, ...]:
    """Per-layer mean distance between memory/run embeddings and a fresh
    whole-graph forward (`oracle()`, at the current parameters): stored layers
    come straight from the table, the final layer from re-running every
    gradient batch against the current table. Full mode (memory False) never
    reads its table, so its errors are zero without a forward."""
    if not memory:
        return tuple(0.0 for _ in range(state.params.num_layers))
    oracle_hs = oracle().hs
    table_errs = approximation_error(state.history, oracle_hs)
    final_err = approximation_error(
        table_logits(grad_batches, ax, state.params, state.history), oracle_hs[-1])
    return tuple(table_errs) + (final_err,)


def save_checkpoint(params: GcnParams, path: str) -> None:
    """Little-endian binary: uint32 layer count, uint32 dims[0..L], then per
    layer the float32 weight matrix (row-major) and bias vector. A value
    beyond float32's range is written as +inf or -inf."""
    dims = params.dims
    with open(path, "wb") as f:
        f.write(struct.pack("<I", params.num_layers))
        f.write(struct.pack(f"<{len(dims)}I", *dims))
        for w, b in zip(params.weights, params.biases):
            f.write(w.astype("<f4").tobytes(order="C"))
            f.write(b.astype("<f4").tobytes(order="C"))


def load_checkpoint(path: str) -> GcnParams:
    """Read a save_checkpoint file. A header naming no layer or a zero
    dimension, or a file whose size does not match the dims in its header,
    cut short or with trailing bytes, raises ValueError."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        (L,) = struct.unpack_from("<I", data)
        dims = list(struct.unpack_from(f"<{L + 1}I", data, 4))
    except struct.error:
        raise ValueError(f"{path}: {len(data)} bytes hold no checkpoint header") from None
    if L == 0 or 0 in dims:
        raise ValueError(f"{path}: the header names {L} layers of dims {dims}; a "
                         "checkpoint has at least one layer and no zero dimension")
    offset = 4 * (L + 2)
    expected = offset + 4 * sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    if len(data) != expected:
        raise ValueError(f"{path}: a checkpoint of dims {dims} takes {expected} bytes, "
                         f"the file has {len(data)}")
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = np.frombuffer(data, dtype="<f4", count=d_in * d_out, offset=offset)
        offset += 4 * d_in * d_out
        weights.append(w.reshape(d_in, d_out).astype(np.float64))
        b = np.frombuffer(data, dtype="<f4", count=d_out, offset=offset)
        offset += 4 * d_out
        biases.append(b.astype(np.float64))
    return GcnParams(weights=weights, biases=biases)


def run_training(cfg: TrainConfig, ds: Dataset, part: Partition,
                 on_step=None,
                 checkpoint_path: str | None = None
                 ) -> tuple[list[MetricsRecord], GcnParams]:
    """Drive epochs over one plan of steps; returns the metrics series and
    final parameters. Deterministic for a fixed config (wall_ms stays 0.0
    unless cfg.timing is set).

    With checkpoint_path, the parameters are saved there after every epoch.
    A step that raises FloatingPointError (a non-finite forward, gradient or
    evaluate) first leaves, next to it under the path's stem (the path less
    its extension), '<stem>_diverged.ckpt' with the parameters and one
    '<stem>_history_l<k>.bin' per stored layer (HistoryTable.dump)."""
    cfg.validate()
    ds.validate()
    memory = cfg.mode != "full"
    # planned first, so a batch size the partition cannot fill fails before
    # any work. Every F draws the same gradient order, and refresh slots reuse
    # its chunks, so modes that refresh none of them build no extra batch
    steps = schedule_epoch(part, cfg.clusters_per_batch, cfg.refresh_per_step,
                           derive_seed(cfg.seed, "schedule")) if memory else []
    g_norm = normalize_adjacency(ds.graph)
    n = ds.graph.num_nodes
    # the plan every epoch walks. Each distinct cluster set is built once; one
    # covering every cluster is the whole graph on g_norm, so single-cluster
    # runs match full mode bit for bit. rest_is builds its halo batches at the
    # step, through REFRESH: holding them all lifted sweep-2k's peak RSS
    # 59 -> 63 MiB, past the 5% bound
    whole = MiniBatch(in_batch=np.arange(n, dtype=np.int64),
                      halo=np.empty(0, dtype=np.int64), local_adj=g_norm)
    built = {ids: whole if len(ids) == part.num_parts else make_batch(g_norm, part, list(ids))
             for ids in dict.fromkeys(c for st in steps for c in (st.grad, *st.refresh))}
    plan = ([([built[c] for c in st.refresh], built[st.grad]) for st in steps]
            if memory else [([], whole)])
    dims = ([ds.num_features]
            + [cfg.hidden] * (cfg.num_layers - 1)
            + [ds.num_classes])
    # full mode never writes its table, so every hidden row reads as cold.
    # Its zero-filled layers stay untouched pages; only last_update, 8 B per
    # node and hidden layer, is written, at creation
    state = TrainState(
        params=init_params(dims, derive_seed(cfg.seed, "init")),
        adam=Adam(lr=cfg.lr, weight_decay=cfg.weight_decay),
        history=HistoryTable(n, dims[1:-1]),
    )
    # Â·X is parameter-free, so every batch forward gathers layer 1's rows
    # and every whole-graph forward takes it whole instead of aggregating
    ax = g_norm.matmul(ds.features)
    held: LayerCache | None = None  # the last whole-graph forward
    stale = True  # held is missing or ran at parameters that have since moved
    # full mode's run-long output buffer; its pages are touched by the first forward
    outs = None if memory else shared_outputs(n, dims)

    def whole_forward(probe_reads: bool = True) -> LayerCache:
        """The whole-graph forward at the current parameters, run once per
        version: evaluate's is the next probe's oracle and, in full mode, the
        next gradient forward, whose backward and loss consume the
        intermediates and masks kept only in that mode, where every layer's
        output is in `outs`. Never two at once. A stale forward's layer
        outputs are overwritten by the next, so only the run's first forward
        allocates them; the aggregations stay per call. A memory-mode
        forward that no probe reads (probe_reads False) transforms its
        logit layer before aggregating it (full_forward's transform_first):
        only an argmax reads its logits."""
        nonlocal held, stale
        if stale:
            hs, cache = full_forward(g_norm, ds.features, state.params, agg=ax, keep_z=False,
                                     out=outs if held is None else held.hs, masks=not memory,
                                     transform_first=memory and not probe_reads)
            held = LayerCache(adj=g_norm, hs=hs) if memory else cache
            stale = False
        return held

    if cfg.warmup_refresh and memory:
        # gradient-free whole-graph refresh so no pull ever reads the zero init
        rest_refresh_pass([whole], state, ax)

    def probes(step: int) -> bool:
        return cfg.probe_every > 0 and step % cfg.probe_every == 0

    records: list[MetricsRecord] = []
    grad_batches = [grad for _, grad in plan]
    for epoch in range(cfg.epochs):
        for refresh, grad_batch in plan:
            pstats = persistence_stats(state.history, state.model_step)
            if probes(state.model_step):
                apx = _probe_apx_errors(state, grad_batches, memory, whole_forward, ax)
            else:
                apx = tuple([float("nan")] * cfg.num_layers)
            # wall_ms times the step's own work, not the probe or evaluate
            t0 = time.perf_counter()
            try:
                rest_refresh_pass(REFRESH[cfg.mode](refresh, grad_batch, g_norm), state, ax)
                loss = train_step_gas(grad_batch, state, ds, ax,
                                      forward=None if memory else whole_forward())
                stale = True  # the parameters moved
                wall = (time.perf_counter() - t0) * 1e3 if cfg.timing else 0.0
                # the forward is the next step's probe oracle if that step probes
                acc_tr, acc_val, acc_te = evaluate(
                    ds, lambda: whole_forward(probe_reads=probes(state.model_step)))
            except FloatingPointError:
                if checkpoint_path is not None:
                    stem = os.path.splitext(checkpoint_path)[0]
                    save_checkpoint(state.params, stem + "_diverged.ckpt")
                    state.history.dump(stem + "_history")
                raise
            records.append(MetricsRecord(
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
    return records, state.params
