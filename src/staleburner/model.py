"""GCN with hand-derived forward and backward passes.

Layer l computes H^(l) = act(adj @ H^(l-1) @ W_l + b_l) with ReLU on hidden
layers and identity on the last (logits). Parameters and activations are kept
in float64 so finite-difference gradient checks hold at tight tolerances;
only the history storage (float32) rounds.

The backward pass differentiates exactly the computation the forward ran:
input rows beyond the in-batch targets (halo rows filled from memory) are
constants, so its transpose products compute the targets' rows only. It
masks each hidden layer on its output, h > 0, which for h = max(z, 0) is the
same mask as z > 0 element for element (-0.0 and NaN included), so a forward
keeps one array per hidden layer and applies bias and ReLU in place. A
forward that a backward will read packs that mask, 8 columns to a byte, as
soon as it has computed the output (relu_masks); backward reads the packed
masks only, never the outputs' values.

So a whole-graph forward may write every layer's output into one buffer
(shared_outputs): each output overwrites the one below it, which the
layer's aggregation has read and whose mask is packed, and the buffer ends
up holding the logits. Backward then writes into the arrays of the forward
it consumes: each layer's dz @ W.T into the aggregation whose weight
gradient it has taken, and each transpose product into the output array
below it, which by then holds only a consumed gradient. On the whole graph
it allocates no n x d float array (a batch's transpose product pads its
operand with the halo rows), and the gradients it returns for the hidden
layers are those output arrays.

Whole-graph dense work runs on graph.run_blocks, the block runner of the
sparse kernel, when graph.even_blocks splits it: a layer's transform, bias
and ReLU and the per-row terms of the loss by row block; backward's
masking and dz @ W.T by row block. The masks are packed on the calling
thread, in the row blocks of backward's masking pass. Each block kernel
below calls numpy only and writes its own rows of one output, and every
block gives the bits of the unsplit computation. Batch-sized work stays
below the split floor.

A forward no backward reads (masks=False) keeps no aggregation, so on the
whole graph a layer that narrows, the logit layer of every default model
(64 hidden units to 20 classes on rest-20k), may transform before it
aggregates: Â·(H·W), the order of Kipf and Welling's GCN and of PyG's
GCNConv, runs the sparse product at the output's width and the same dense
work (full_forward's and layer_apply's transform_first). Each flipped
output sums the same products of the same values in another order, so it
differs from the aggregate-first one by a few ulps. Only a forward whose
logits feed no record but an argmax asks for it: the approximation-error
probe subtracts the oracle's logits from the table's, and where the two
nearly agree (about 1e-9 apart right after a warm-up refresh) those ulps
moved the ninth printed digit. Forwards a backward reads and batch
forwards, whose inputs include the halo rows, keep the aggregate-first
order and its bits.

Each layer's weight and bias gradients, agg.T @ dz and dz.sum(axis=0),
are a sum in a fixed order of block partials (param_grads): the rows are
cut, from row 0, into chunks of GRAD_CHUNK_ROWS and blocks of GRAD_ROWS;
each chunk's slot is the serial sum of its blocks' partials, and the
gradient the serial sum of the slots. The order depends on the row count
alone, so the CPU count decides only which thread fills a slot, and a
product of at most GRAD_ROWS rows is the whole product. A block's rows are
the depth of its dgemm, and a multi-threaded OpenBLAS cuts a depth of more
than one panel (384 rows on a 2-core AVX-512 VM) in other places than a
single thread does: there, weight gradients of 64 x 50 and 32 x 64 over
every third row count from 257 to 1097 gave other bits with two BLAS
threads than with one at 223 of the 281 counts, none below 386, while
at 55 row counts from 1 to 384 none of eleven widths from 7 x 3 to
500 x 64 moved at one to four threads. GRAD_ROWS = 256 leaves a margin
for kernels with shallower panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import NormAdj, even_blocks, run_blocks
from .rng import Rng

# The work of one element of an elementwise pass, in the multiply-adds
# SPLIT_WORK counts: on a 2-core AVX-512 VM (OpenBLAS, one thread) the
# softmax, log and gradient terms of a logit took 14.8 ns, masking one
# element of a gradient 3.5 ns, a multiply-add of a layer dgemm 0.11 ns.
LOGIT_WORK = 128
MASK_WORK = 32
# rows of one dgemm of a weight gradient (param_grads), at most OpenBLAS's
# dgemm panel depth, and rows of the chunk whose partials one slot sums:
# 50000 rows take 25 slots, 640 KiB at 64 x 50
GRAD_ROWS = 256
GRAD_CHUNK_ROWS = 8 * GRAD_ROWS
# values per row block of check_finite: its bool array is 64 KiB, under
# glibc's smallest mmap threshold, so it reuses heap memory
FINITE_BLOCK_VALUES = 1 << 16


@dataclass
class GcnParams:
    weights: list[np.ndarray]  # float64, (d_{l-1}, d_l)
    biases: list[np.ndarray]   # float64, (d_l,)

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def copy(self) -> "GcnParams":
        return GcnParams(weights=[w.copy() for w in self.weights],
                         biases=[b.copy() for b in self.biases])

    def flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.weights + self.biases])


def init_params(dims: list[int], seed: int) -> GcnParams:
    """Glorot-uniform weights (row-major draw order), zero biases."""
    if len(dims) < 2:
        raise ValueError("need at least input and output dims")
    rng = Rng(seed)
    weights, biases = [], []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / (d_in + d_out))
        w = rng.uniforms(d_in * d_out, -limit, limit).reshape(d_in, d_out)
        weights.append(w)
        biases.append(np.zeros(d_out, dtype=np.float64))
    return GcnParams(weights=weights, biases=biases)


@dataclass
class LayerCache:
    """Forward intermediates needed by backward: the aggregated inputs, the
    layer outputs, the packed ReLU mask of each hidden output (relu_masks,
    one entry per hidden layer), and the adjacency that produced them, whose
    rows are the targets. `zs` holds pre-activations only when the forward
    was asked to keep them; backward never reads it. Backward sets each
    entry of `aggs` to None once it has used it, and overwrites the hidden
    entries of `hs` with their gradients. A forward that packed no masks
    leaves `masks` empty, and backward refuses its cache."""

    adj: NormAdj
    aggs: list[np.ndarray] = field(default_factory=list)
    zs: list[np.ndarray] = field(default_factory=list)
    hs: list[np.ndarray] = field(default_factory=list)
    masks: list[list[tuple[tuple[int, int], np.ndarray]]] = field(default_factory=list)


def relu_masks(h: np.ndarray) -> list[tuple[tuple[int, int], np.ndarray]]:
    """The ReLU mask h > 0 of a hidden output as backward reads it: per row
    block (r0, r1) of graph.even_blocks(len(h), MASK_WORK * width), those
    rows packed 8 columns to a byte. The blocks are taken one by one on this
    thread, so one block's bool array exists at a time, and a split masking
    pass unpacks one block per thread, never a whole n x d one."""
    bounds = even_blocks(len(h), MASK_WORK * h.shape[1])
    return [((r0, r1), np.packbits(h[r0:r1] > 0.0, axis=1))
            for r0, r1 in zip(bounds[:-1], bounds[1:])]


def shared_outputs(n: int, dims: list[int]) -> list[np.ndarray]:
    """full_forward's `out` for a forward a backward reads: per layer an
    n x d_l float64 view of one buffer of n x max(d_l) values, so each
    layer's output is written over the one below it (see full_forward)."""
    buf = np.empty(n * max(dims[1:]))
    return [buf[:n * d].reshape(n, d) for d in dims[1:]]


def layer_apply(adj: NormAdj, inputs: np.ndarray | None, w: np.ndarray,
                b: np.ndarray, last: bool, agg: np.ndarray | None = None,
                keep_z: bool = False, out: np.ndarray | None = None,
                transform_first: bool = False
                ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    """One propagation layer; returns (agg, pre-activation, output). A given
    `agg` is adj @ inputs already computed, and inputs are then unused.

    The bias and a hidden layer's ReLU are applied in place in the product's
    array, so the pre-activation is returned as None unless `keep_z` asks
    for it (at the cost of a second array); on the last layer it is the
    output. A given `out`, a float64 array of the output's shape, is that
    array: the layer overwrites it through numpy's out= and returns it,
    bit for bit what a fresh array would hold. Another shape or dtype, or
    `out` with keep_z=True, raises ValueError.

    With transform_first=True, which only a forward no backward reads may
    pass, a layer that narrows (w.shape[1] < w.shape[0]) on a square
    operator and has no given `agg` computes adj @ (inputs @ w) instead,
    the order of Kipf and Welling's GCN: the sparse product runs at the
    output's width and writes into `out`, which must then also be
    C-contiguous. It returns None for agg, which it never forms. The dense
    work is the same in either order on a square operator; on a batch's,
    with halo rows among the inputs, it would grow with the halo. Each
    output sums the same terms in another order, so it lies within a few
    ulps of the aggregate-first one."""
    if out is not None:
        shape = (adj.num_rows, w.shape[1])
        if keep_z:
            raise ValueError("out holds the output only; keep_z=True needs a second array")
        if out.shape != shape or out.dtype != np.float64:
            raise ValueError(f"out is {out.dtype} {out.shape}, the layer writes float64 {shape}")
    if (transform_first and agg is None and w.shape[1] < w.shape[0]
            and adj.num_rows == adj.num_cols):
        t = np.empty((len(inputs), w.shape[1]))
        bounds = even_blocks(len(t), w.size)
        run_blocks(_affine_rows, [(inputs[r0:r1], w, None, t[r0:r1], None)
                                  for r0, r1 in zip(bounds[:-1], bounds[1:])])
        z = adj.matmul(t, out=out)
        del t
        h = None if last else np.empty_like(z) if keep_z else z
        z += b
        if h is not None:
            np.maximum(z, 0.0, out=h)
    else:
        if agg is None:
            agg = adj.matmul(inputs)
        z = np.empty((agg.shape[0], w.shape[1])) if out is None else out
        h = None if last else np.empty_like(z) if keep_z else z
        bounds = even_blocks(len(z), w.size)
        run_blocks(_affine_rows, [(agg[r0:r1], w, b, z[r0:r1], None if h is None else h[r0:r1])
                                  for r0, r1 in zip(bounds[:-1], bounds[1:])])
    if last:
        return agg, z, z
    return agg, z if keep_z else None, h


def _affine_rows(agg: np.ndarray, w: np.ndarray, b: np.ndarray | None, z: np.ndarray,
                 h: np.ndarray | None) -> None:
    """Block kernel: z = agg @ w + b (no bias if b is None), and
    h = max(z, 0) unless h is None (h may be z itself)."""
    np.matmul(agg, w, out=z)
    if b is not None:
        z += b
    if h is not None:
        np.maximum(z, 0.0, out=h)


def check_finite(h: np.ndarray, what: str) -> None:
    """Raise FloatingPointError naming `what` if h holds a NaN or an
    infinity. Rows are tested a block of FINITE_BLOCK_VALUES values at a
    time, so no bool array of h's shape is built at the forward's peak."""
    rows = max(1, FINITE_BLOCK_VALUES // max(h.shape[1], 1))
    for r0 in range(0, len(h), rows):
        if not np.isfinite(h[r0:r0 + rows]).all():
            raise FloatingPointError(f"non-finite output in {what}")


def full_forward(adj: NormAdj, features: np.ndarray, params: GcnParams,
                 agg: np.ndarray | None = None, keep_z: bool = True,
                 out: list[np.ndarray] | None = None, masks: bool = True,
                 transform_first: bool = False
                 ) -> tuple[list[np.ndarray], LayerCache]:
    """Whole-graph forward at current parameters; the reference against which
    memory-filled runs are measured. `agg`, when given, is adj @ features
    (parameter-free) and stands in for layer 1's aggregation. With
    keep_z=False the cache holds no pre-activations, one n x d array less
    per hidden layer; backward does not need them. With masks=False the
    cache holds no ReLU masks, and no backward can read it: a forward whose
    outputs are only read packs none. Such a forward may also pass
    transform_first=True, and each layer that narrows then transforms
    before it aggregates (layer_apply's transform_first), leaving None in
    cache.aggs; transform_first with masks=True raises ValueError. The
    logits are checked for NaN and infinity a row block at a time
    (check_finite).

    `out`, one array per layer, receives the layer outputs as layer_apply's
    `out` does, and the returned list holds those same arrays, so a caller
    can hand back the outputs of a forward it no longer reads and allocate
    no n x d output. The aggregations stay fresh per call. With masks=True
    the arrays may share one buffer (shared_outputs): each hidden output's
    mask is packed as soon as it is computed, and the next layer writes its
    output over it once its aggregation has read it, so only the logits
    remain readable and backward still has all it reads. A list of another length, an array
    of the wrong shape, or `out` with keep_z=True raises ValueError."""
    n = adj.num_rows
    if features.shape[0] != n:
        raise ValueError("feature rows != graph size")
    if out is not None and len(out) != params.num_layers:
        raise ValueError(f"out holds {len(out)} arrays for {params.num_layers} layers")
    if transform_first and masks:
        raise ValueError("a forward backward reads keeps its aggregations; "
                         "transform_first needs masks=False")
    cache = LayerCache(adj=adj)
    h = None if agg is not None else features.astype(np.float64, copy=False)
    for l in range(params.num_layers):
        last = l == params.num_layers - 1
        a, z, h = layer_apply(adj, h, params.weights[l], params.biases[l], last=last,
                              agg=agg if l == 0 else None, keep_z=keep_z,
                              out=None if out is None else out[l],
                              transform_first=transform_first)
        cache.aggs.append(a)
        if keep_z:
            cache.zs.append(z)
        cache.hs.append(h)
        if masks and not last:
            cache.masks.append(relu_masks(h))
    check_finite(cache.hs[-1], "forward pass")
    return cache.hs, cache


def loss_and_grad(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray,
                  out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over masked rows.

    Gradient rows are (softmax - onehot) / mask_count on masked rows and zero
    elsewhere. They are computed where they lie: in `out` when given, which
    may be `logits` itself, so the gradient overwrites logits that nothing
    reads after the loss, and in a fresh array otherwise. Each block of
    rows is copied there unless it is there already, then shifted,
    exponentiated, normalized and turned into its gradient in place; the
    loss allocates no array of more than one value per row.

    Every row of a block is computed, an unmasked one on zeros, and zeroed
    again afterwards, so whatever an unmasked row of `logits` holds, inf
    and nan included, it changes neither the loss nor the gradient. Its
    label must still be a class index.
    """
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise ValueError("empty mask")
    if out is None:
        out = np.empty_like(logits)
    src = None if out is logits else logits
    terms = np.empty(len(logits))  # log-likelihood of each row
    bounds = even_blocks(len(logits), LOGIT_WORK * logits.shape[1])
    run_blocks(_softmax_rows, [(out[a:b], labels[a:b], mask[a:b], count, terms[a:b],
                                None if src is None else src[a:b])
                               for a, b in zip(bounds[:-1], bounds[1:])])
    return float(-terms[mask].mean()), out


def _softmax_rows(d: np.ndarray, labels: np.ndarray, keep: np.ndarray, count: int,
                  terms: np.ndarray, logits: np.ndarray | None) -> None:
    """Block kernel: the log-likelihood terms and gradient rows of a block,
    computed in d after `logits` is copied into it (None: d holds them).
    Rows outside `keep` are zeroed before and after: their gradient rows
    are zero, and their terms finite and not read."""
    if logits is not None:
        np.copyto(d, logits)
    drop = ~keep
    d[drop] = 0.0
    rows = np.arange(len(d))
    d -= d.max(axis=1, keepdims=True)
    z_y = d[rows, labels]
    np.exp(d, out=d)
    denom = d.sum(axis=1)
    np.subtract(z_y, np.log(denom), out=terms)
    d /= denom[:, None]
    d[rows, labels] -= 1.0
    d /= count
    d[drop] = 0.0


@dataclass
class Grads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def backward(cache: LayerCache, d_out: np.ndarray, params: GcnParams
             ) -> tuple[Grads, list[np.ndarray]]:
    """Exact gradients of the cached forward.

    Returns parameter gradients and, per layer l (1-based list index l-1),
    the loss gradient with respect to the in-batch rows of H^(l), the rows
    of `cache.adj`, which is all its transpose products compute.

    Backward consumes the cache, as autograd frees the tensors it saved,
    and writes into its arrays rather than allocating n x d ones: for each
    list index l >= 1 it takes dw[l] from cache.aggs[l], sets that entry to
    None and writes dz @ W_l.T into its array, then has the transpose
    product write d_hidden[l-1] into cache.hs[l-1], which it masks with
    cache.masks[l-1]. Afterwards every entry of cache.aggs is None,
    d_hidden[l-1] is the array cache.hs[l-1] for l >= 1, and d_hidden[-1]
    is d_out, which may be the logits array itself: the hidden layer
    outputs are gone. When the forward's outputs shared one buffer
    (shared_outputs), those arrays are views of it, each written over the
    one whose gradient has been consumed, and only d_hidden[0] holds its
    gradient at the end. A second backward on the same cache raises, as
    does a cache without masks. cache.aggs[0] is read, never written, so it
    may be a shared Â·X.
    """
    L = params.num_layers
    if len(cache.hs) != L:
        raise ValueError("cache does not match parameter depth")
    if len(cache.masks) != L - 1:
        raise ValueError(f"cache holds {len(cache.masks)} ReLU masks for {L - 1} hidden "
                         "layers; run the forward with masks=True")
    if any(a is None for a in cache.aggs):
        raise ValueError("cache's aggregations were released by an earlier backward; "
                         "run a fresh forward")
    if d_out.shape != cache.hs[-1].shape:
        raise ValueError(f"d_out shape {d_out.shape} != logits {cache.hs[-1].shape}")
    nb = cache.adj.num_rows
    dw: list[np.ndarray] = [None] * L
    db: list[np.ndarray] = [None] * L
    d_hidden: list[np.ndarray] = [None] * L
    # the last layer's gradient is d_out itself; a hidden layer's masked
    # one overwrites dz, the product array of the layer above
    dh = dz = d_out
    for l in range(L - 1, -1, -1):
        d_hidden[l] = dh
        w = params.weights[l]
        if l < L - 1:
            run_blocks(_backward_rows, [(dh[r0:r1], m, dz[r0:r1], w, None)
                                        for (r0, r1), m in cache.masks[l]])
        dw[l], db[l] = param_grads(cache.aggs[l], dz)
        p, cache.aggs[l] = cache.aggs[l], None
        if l == 0:
            break
        bounds = even_blocks(nb, w.size)
        run_blocks(_backward_rows, [(dz[r0:r1], None, dz[r0:r1], w, p[r0:r1])
                                    for r0, r1 in zip(bounds[:-1], bounds[1:])])
        dh = cache.adj.t_matmul(p, out=cache.hs[l - 1])
        dz = p
    return Grads(weights=dw, biases=db), d_hidden


def param_grads(agg: np.ndarray, dz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """agg.T @ dz and dz.sum(axis=0) summed in an order fixed by the row
    count: per GRAD_CHUNK_ROWS-row chunk from row 0, the serial sum of its
    GRAD_ROWS-row blocks' partials, then the serial sum of the chunks'.
    Up to GRAD_ROWS rows it is the whole product and sum. Consecutive
    chunks are grouped into jobs of at least SPLIT_WORK multiply-adds
    (graph.even_blocks over the full chunks, the last job taking the
    partial one), so a gradient of fewer than 2 * SPLIT_WORK starts no
    helper, and each slot holds the same bits whichever thread fills it."""
    if len(dz) <= GRAD_ROWS:
        return agg.T @ dz, dz.sum(axis=0)
    k = -(-len(dz) // GRAD_CHUNK_ROWS)
    dws = np.empty((k, agg.shape[1], dz.shape[1]))
    dbs = np.empty((k, dz.shape[1]))
    jobs = even_blocks(len(dz) // GRAD_CHUNK_ROWS,
                       GRAD_CHUNK_ROWS * agg.shape[1] * dz.shape[1])
    jobs[-1] = k
    run_blocks(_grad_rows, [(agg[c0 * GRAD_CHUNK_ROWS:c1 * GRAD_CHUNK_ROWS],
                             dz[c0 * GRAD_CHUNK_ROWS:c1 * GRAD_CHUNK_ROWS], dws[c0:c1], dbs[c0:c1])
                            for c0, c1 in zip(jobs[:-1], jobs[1:])])
    dw, db = dws[0].copy(), dbs[0].copy()
    for i in range(1, k):
        dw += dws[i]
        db += dbs[i]
    return dw, db


def _grad_rows(agg: np.ndarray, dz: np.ndarray, dw: np.ndarray, db: np.ndarray) -> None:
    """Block kernel: slot i of dw and db gets the serial sum of
    agg_b.T @ dz_b and dz_b.sum(axis=0) over the GRAD_ROWS-row blocks b of
    the i-th GRAD_CHUNK_ROWS rows of agg and dz, each of which has a row.
    A chunk's whole blocks are one stacked matmul and one sum, each block of
    which gives the bits of its own 2-d product."""
    for i in range(len(dw)):
        a = agg[i * GRAD_CHUNK_ROWS:(i + 1) * GRAD_CHUNK_ROWS]
        d = dz[i * GRAD_CHUNK_ROWS:(i + 1) * GRAD_CHUNK_ROWS]
        whole = len(d) // GRAD_ROWS * GRAD_ROWS
        a3 = a[:whole].reshape(-1, GRAD_ROWS, a.shape[1])
        d3 = d[:whole].reshape(-1, GRAD_ROWS, d.shape[1])
        pw = list(np.matmul(a3.transpose(0, 2, 1), d3))
        pb = list(d3.sum(axis=1))
        if whole < len(d):
            pw.append(a[whole:].T @ d[whole:])
            pb.append(d[whole:].sum(axis=0))
        dw[i], db[i] = pw[0], pb[0]
        for w, b in zip(pw[1:], pb[1:]):
            dw[i] += w
            db[i] += b


def _backward_rows(dh: np.ndarray, mask: np.ndarray | None, dz: np.ndarray,
                   w: np.ndarray, p: np.ndarray | None) -> None:
    """Block kernel: dz = dh * mask, the block's ReLU mask packed along rows
    by np.packbits and read as 1.0 and 0.0 (mask None: dz is dh already),
    then p = dz @ w.T unless p is None."""
    if mask is not None:
        # the mask cast into dz first, which needs no buffer; multiplying
        # by the uint8 array casts it through 64 KiB per thread in flight
        np.copyto(dz, np.unpackbits(mask, axis=1, count=dz.shape[1]))
        np.multiply(dh, dz, out=dz)
    if p is not None:
        np.matmul(dz, w.T, out=p)


class Adam:
    """Adam with optional L2 weight decay folded into the gradient, at the
    standard moment decays and epsilon.

    Deterministic: state is a pure function of the gradient sequence.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr: float = 0.001, weight_decay: float = 0.0):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None

    def step(self, params: GcnParams, grads: Grads) -> None:
        tensors = params.weights + params.biases
        gs = grads.weights + grads.biases
        for g in gs:
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient")
        if self._m is None:
            self._m = [np.zeros_like(p) for p in tensors]
            self._v = [np.zeros_like(p) for p in tensors]
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for i, (p, g) in enumerate(zip(tensors, gs)):
            if self.weight_decay and i < len(params.weights):
                g = g + self.weight_decay * p
            self._m[i] = self.BETA1 * self._m[i] + (1.0 - self.BETA1) * g
            self._v[i] = self.BETA2 * self._v[i] + (1.0 - self.BETA2) * (g * g)
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    count = int(np.count_nonzero(mask))
    if count == 0:
        return 0.0
    pred = logits[mask].argmax(axis=1)
    return float(np.count_nonzero(pred == labels[mask])) / count
