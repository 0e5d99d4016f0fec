"""GCN with hand-derived forward and backward passes.

Layer l computes H^(l) = act(adj @ H^(l-1) @ W_l + b_l) with ReLU on hidden
layers and identity on the last (logits). Parameters and activations are kept
in float64 so finite-difference gradient checks hold at tight tolerances;
only the history storage (float32) rounds.

The backward pass differentiates exactly the computation the forward ran:
input rows beyond the in-batch targets (halo rows filled from memory) are
constants and receive no gradient. It masks each hidden layer on its output,
h > 0, which for h = max(z, 0) is the same mask as z > 0 element for element
(-0.0 and NaN included), so a forward keeps one array per hidden layer and
applies bias and ReLU in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import NormAdj
from .rng import Rng


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
    layer outputs (whose signs give the ReLU mask), and the adjacency that
    produced them. `zs` holds the pre-activations only when the forward was
    asked to keep them; backward never reads it."""

    adj: NormAdj
    num_in_batch: int
    aggs: list[np.ndarray] = field(default_factory=list)
    zs: list[np.ndarray] = field(default_factory=list)
    hs: list[np.ndarray] = field(default_factory=list)


def layer_apply(adj: NormAdj, inputs: np.ndarray | None, w: np.ndarray,
                b: np.ndarray, last: bool, agg: np.ndarray | None = None,
                keep_z: bool = False
                ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """One propagation layer; returns (agg, pre-activation, output). A given
    `agg` is adj @ inputs already computed, and inputs are then unused.

    The bias and a hidden layer's ReLU are applied in place in the product's
    array, so the pre-activation is returned as None unless `keep_z` asks
    for it (at the cost of a second array); on the last layer it is the
    output."""
    if agg is None:
        agg = adj.matmul(inputs)
    z = agg @ w
    z += b
    if last:
        return agg, z, z
    if keep_z:
        return agg, z, np.maximum(z, 0.0)
    return agg, None, np.maximum(z, 0.0, out=z)


def full_forward(adj: NormAdj, features: np.ndarray, params: GcnParams,
                 agg: np.ndarray | None = None, keep_z: bool = True
                 ) -> tuple[list[np.ndarray], LayerCache]:
    """Whole-graph forward at current parameters; the reference against which
    memory-filled runs are measured. `agg`, when given, is adj @ features
    (parameter-free) and stands in for layer 1's aggregation. With
    keep_z=False the cache holds no pre-activations, one n x d array less
    per hidden layer; backward does not need them."""
    n = adj.num_rows
    if features.shape[0] != n:
        raise ValueError("feature rows != graph size")
    cache = LayerCache(adj=adj, num_in_batch=n)
    h = None if agg is not None else features.astype(np.float64, copy=False)
    for l in range(params.num_layers):
        a, z, h = layer_apply(adj, h, params.weights[l], params.biases[l],
                              last=(l == params.num_layers - 1),
                              agg=agg if l == 0 else None, keep_z=keep_z)
        cache.aggs.append(a)
        if keep_z:
            cache.zs.append(z)
        cache.hs.append(h)
    if not np.all(np.isfinite(cache.hs[-1])):
        raise FloatingPointError("non-finite output in forward pass")
    return cache.hs, cache


def loss_and_grad(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray
                  ) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over masked rows.

    Gradient rows are (softmax - onehot) / mask_count on masked rows and zero
    elsewhere.
    """
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise ValueError("empty mask")
    # the masked copy is the only work array: shifted logits, then their
    # exponentials, then the gradient rows
    d = logits[mask]
    y = labels[mask]
    rows = np.arange(len(y))
    d -= d.max(axis=1, keepdims=True)
    z_y = d[rows, y]
    np.exp(d, out=d)
    denom = d.sum(axis=1)
    loss = float(-(z_y - np.log(denom)).mean())
    d /= denom[:, None]
    d[rows, y] -= 1.0
    d /= count
    dlogits = np.zeros_like(logits)
    dlogits[mask] = d
    return loss, dlogits


@dataclass
class Grads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def backward(cache: LayerCache, d_out: np.ndarray, params: GcnParams
             ) -> tuple[Grads, list[np.ndarray]]:
    """Exact gradients of the cached forward.

    Returns parameter gradients and, per layer l (1-based list index l-1),
    the loss gradient with respect to the in-batch rows of H^(l).
    """
    L = params.num_layers
    if len(cache.hs) != L:
        raise ValueError("cache does not match parameter depth")
    if d_out.shape != cache.hs[-1].shape:
        raise ValueError(f"d_out shape {d_out.shape} != logits {cache.hs[-1].shape}")
    nb = cache.num_in_batch
    dw = [np.zeros_like(w) for w in params.weights]
    db = [np.zeros_like(b) for b in params.biases]
    d_hidden: list[np.ndarray] = [None] * L
    dh = d_out
    for l in range(L - 1, -1, -1):
        d_hidden[l] = dh
        dz = dh if l == L - 1 else dh * (cache.hs[l] > 0.0)
        dw[l] = cache.aggs[l].T @ dz
        db[l] = dz.sum(axis=0)
        if l == 0:
            break
        d_inputs = cache.adj.t_matmul(dz @ params.weights[l].T)
        dh = d_inputs[:nb]  # halo rows were constants pulled from memory
    return Grads(weights=dw, biases=db), d_hidden


class Adam:
    """Adam with optional L2 weight decay folded into the gradient.

    Deterministic: state is a pure function of the gradient sequence.
    """

    def __init__(self, lr: float = 0.001, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, (p, g) in enumerate(zip(tensors, gs)):
            if self.weight_decay and i < len(params.weights):
                g = g + self.weight_decay * p
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    count = int(np.count_nonzero(mask))
    if count == 0:
        return 0.0
    pred = logits[mask].argmax(axis=1)
    return float(np.count_nonzero(pred == labels[mask])) / count
