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

The weight gradient agg.T @ dz stays whole. Its sums run over every row of
the graph, and a multi-threaded OpenBLAS orders them by the shape and its
thread count: 50000 x 64 by 20 columns gave other bits with two BLAS
threads than with one, and blocks of fewer than 17 of agg's columns other
bits than the whole product with two.
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
                keep_z: bool = False, out: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """One propagation layer; returns (agg, pre-activation, output). A given
    `agg` is adj @ inputs already computed, and inputs are then unused.

    The bias and a hidden layer's ReLU are applied in place in the product's
    array, so the pre-activation is returned as None unless `keep_z` asks
    for it (at the cost of a second array); on the last layer it is the
    output. A given `out`, a float64 array of the output's shape, is that
    array: the layer overwrites it through numpy's out= and returns it,
    bit for bit what a fresh array would hold. Another shape or dtype, or
    `out` with keep_z=True, raises ValueError."""
    if out is not None:
        shape = (adj.num_rows, w.shape[1])
        if keep_z:
            raise ValueError("out holds the output only; keep_z=True needs a second array")
        if out.shape != shape or out.dtype != np.float64:
            raise ValueError(f"out is {out.dtype} {out.shape}, the layer writes float64 {shape}")
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


def _affine_rows(agg: np.ndarray, w: np.ndarray, b: np.ndarray, z: np.ndarray,
                 h: np.ndarray | None) -> None:
    """Block kernel: z = agg @ w + b, and h = max(z, 0) unless h is None
    (h may be z itself)."""
    np.matmul(agg, w, out=z)
    z += b
    if h is not None:
        np.maximum(z, 0.0, out=h)


def full_forward(adj: NormAdj, features: np.ndarray, params: GcnParams,
                 agg: np.ndarray | None = None, keep_z: bool = True,
                 out: list[np.ndarray] | None = None, masks: bool = True
                 ) -> tuple[list[np.ndarray], LayerCache]:
    """Whole-graph forward at current parameters; the reference against which
    memory-filled runs are measured. `agg`, when given, is adj @ features
    (parameter-free) and stands in for layer 1's aggregation. With
    keep_z=False the cache holds no pre-activations, one n x d array less
    per hidden layer; backward does not need them. With masks=False the
    cache holds no ReLU masks, and no backward can read it: a forward whose
    outputs are only read packs none.

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
    cache = LayerCache(adj=adj)
    h = None if agg is not None else features.astype(np.float64, copy=False)
    for l in range(params.num_layers):
        last = l == params.num_layers - 1
        a, z, h = layer_apply(adj, h, params.weights[l], params.biases[l], last=last,
                              agg=agg if l == 0 else None, keep_z=keep_z,
                              out=None if out is None else out[l])
        cache.aggs.append(a)
        if keep_z:
            cache.zs.append(z)
        cache.hs.append(h)
        if masks and not last:
            cache.masks.append(relu_masks(h))
    if not np.all(np.isfinite(cache.hs[-1])):
        raise FloatingPointError("non-finite output in forward pass")
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
    if any(a is None for a in cache.aggs):
        raise ValueError("cache's aggregations were released by an earlier backward; "
                         "run a fresh forward")
    if len(cache.masks) != L - 1:
        raise ValueError(f"cache holds {len(cache.masks)} ReLU masks for {L - 1} hidden "
                         "layers; run the forward with masks=True")
    if d_out.shape != cache.hs[-1].shape:
        raise ValueError(f"d_out shape {d_out.shape} != logits {cache.hs[-1].shape}")
    nb = cache.adj.num_rows
    dw = [np.zeros_like(w) for w in params.weights]
    db = [np.zeros_like(b) for b in params.biases]
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
        dw[l] = cache.aggs[l].T @ dz
        p, cache.aggs[l] = cache.aggs[l], None
        db[l] = dz.sum(axis=0)
        if l == 0:
            break
        bounds = even_blocks(nb, w.size)
        run_blocks(_backward_rows, [(dz[r0:r1], None, dz[r0:r1], w, p[r0:r1])
                                    for r0, r1 in zip(bounds[:-1], bounds[1:])])
        dh = cache.adj.t_matmul(p, out=cache.hs[l - 1])
        dz = p
    return Grads(weights=dw, biases=db), d_hidden


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
