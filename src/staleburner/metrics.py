"""Staleness instrumentation and the gradient-error bound checker.

The bound: for an L-layer GCN whose weight matrices have 2-norms beta_l and
whose layers propagate through the normalized adjacency A (graph.py), and a
loss whose gradient is eps-Lipschitz in the logits, the gap between loss
gradients evaluated at memory-filled outputs and at fresh outputs satisfies

    |grad_L(out_stale) - grad_L(out_fresh)|
        <= eps * sum_l (prod_{k>l} beta_k) * beta_l * C_v * E_{l-1}

where E_l is the stored-versus-fresh error of layer l's rows and C_v is
either |N(v)| * |row_v(A)| (per-node form) or |A|_2 = 1 (matrix form,
Frobenius layer errors). Layer 0 inputs are raw features, so E_0 = 0 by
construction. Layer k's full map (ReLU, weights, propagation) is
beta_k-Lipschitz: ReLU is 1-Lipschitz and |A|_2 = 1.

Both norms are exact. With self-loops and symmetric normalization, A is
similar to the row-stochastic D^-1 (adjacency + I), so no eigenvalue
exceeds 1 in modulus, and 1 is attained at D^(1/2) * 1; A is symmetric, so
its 2-norm is that 1. Acceptance criterion 8 checks this on 100 graphs.
Each beta_l is the largest singular value of W_l, np.linalg.norm(W_l, 2).

eps (the module constant EPS) is 1.0 for mean softmax cross-entropy: the
softmax Jacobian is symmetric with eigenvalues p_i(1 - p_i) and pair terms
bounded by its diagonal, so its 2-norm is at most 1; averaging over the mask
divides by the mask size, which only shrinks the constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import NormAdj
from .history import NEVER, HistoryTable
from .model import GcnParams

# the loss gradient's Lipschitz constant in the logits (module docstring)
EPS = 1.0


@dataclass(frozen=True)
class MetricsRecord:
    step: int
    epoch: int
    loss: float
    acc_train: float
    acc_val: float
    acc_test: float
    persist_mean: tuple[float, ...]  # one per stored layer
    persist_max: tuple[int, ...]
    cold_rows: int
    apx_err: tuple[float, ...]       # one per model layer; nan when not probed
    wall_ms: float


def csv_header(num_layers: int) -> str:
    """The metrics CSV header of a num_layers-deep model: persistence columns
    for its num_layers - 1 stored layers, error columns for every layer."""
    cols = ["step", "epoch", "loss", "acc_train", "acc_val", "acc_test"]
    cols += [f"persist_mean_l{i}" for i in range(1, num_layers)]
    cols += [f"persist_max_l{i}" for i in range(1, num_layers)]
    cols.append("cold_rows")
    cols += [f"apxerr_l{i}" for i in range(1, num_layers + 1)]
    cols.append("wall_ms")
    return ",".join(cols)


def format_record(r: MetricsRecord) -> str:
    """One CSV row with stable 9-significant-digit floats."""
    fields = [str(r.step), str(r.epoch), f"{r.loss:.9g}",
              f"{r.acc_train:.9g}", f"{r.acc_val:.9g}", f"{r.acc_test:.9g}"]
    fields += [f"{x:.9g}" for x in r.persist_mean]
    fields += [str(x) for x in r.persist_max]
    fields.append(str(r.cold_rows))
    fields += [f"{x:.9g}" for x in r.apx_err]
    fields.append(f"{r.wall_ms:.9g}")
    return ",".join(fields)


def export_metrics(series: list[MetricsRecord], num_layers: int, path: str) -> None:
    """Write the header of a num_layers-deep model, then one row per record;
    an empty series writes the header only."""
    with open(path, "w") as f:
        f.write(csv_header(num_layers) + "\n")
        for r in series:
            f.write(format_record(r) + "\n")


# bytes of the float64 block buffer approximation_error reuses: below
# glibc's smallest mmap threshold (128 KiB), so it is heap memory, not a
# fresh mapping to fault in on every call
APX_BLOCK_BYTES = 1 << 16


def _mean_row_distance(stored: np.ndarray, fresh: np.ndarray,
                       warm: np.ndarray | None = None) -> float:
    """Mean L2 distance between the rows of stored and fresh, two arrays of
    one (n, d) shape, over the rows the boolean mask `warm` selects (None:
    every row).

    The call allocates two arrays: the n-float vector of row norms and one
    float64 buffer of at most APX_BLOCK_BYTES (one row if a row is larger);
    a mask adds the vector of its rows' norms. Row slices, never gathers,
    pass through the buffer a block at a time: the stored rows cast to
    float64, minus the fresh rows, squared, summed per row, then the square
    roots. These are the operations of np.linalg.norm(stored.astype(
    np.float64) - fresh, axis=1) in the same order, and a row's norm does
    not depend on its block, so every norm and the mean have the
    whole-array formula's bits. The cast is a copy into the buffer, since a
    casting ufunc allocates a 64 KiB buffer of its own on every call."""
    n, d = stored.shape
    rows = max(1, APX_BLOCK_BYTES // max(1, 8 * d))
    norms = np.empty(n)
    buf = np.empty((min(rows, n), d))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        blk = buf[:stop - start]
        np.copyto(blk, stored[start:stop])  # the exact float64 cast, unbuffered
        np.subtract(blk, fresh[start:stop], out=blk)
        np.multiply(blk, blk, out=blk)
        np.add.reduce(blk, axis=1, out=norms[start:stop])
    np.sqrt(norms, out=norms)
    if warm is not None:
        norms = norms[warm]
    return float(norms.mean())


def _check_shapes(stored: np.ndarray, fresh: np.ndarray, what: str) -> None:
    if stored.ndim != 2 or stored.shape != fresh.shape:
        raise ValueError(f"approximation_error: {what} has shape {stored.shape}, "
                         f"the oracle {fresh.shape}")


def approximation_error(source, oracle) -> list[float] | float:
    """Mean per-node embedding distance from a fresh whole-graph forward.

    With a HistoryTable source: per stored layer, the mean row L2 distance
    between the table and the oracle layer, over rows that were pushed at
    least once (a never-written table reports 0). With an array source (a
    memory-filled run's output matrix): the scalar mean row distance.

    Each compared pair must have one 2-D shape (a table layer that of its
    oracle layer), or ValueError names both. Each distance is one
    `_mean_row_distance` pass: row slices through one reused float64 block
    buffer, bit for bit the whole-array norm formula.
    """
    if isinstance(source, HistoryTable):
        out = []
        for li in range(source.num_layers):
            stored, fresh = source.layers[li], np.asarray(oracle[li])
            _check_shapes(stored, fresh, f"table layer {li + 1}")
            warm = source.last_update[:, li] != NEVER
            out.append(_mean_row_distance(stored, fresh, None if warm.all() else warm)
                       if warm.any() else 0.0)
        return out
    source, oracle = np.asarray(source), np.asarray(oracle)
    _check_shapes(source, oracle, "the source")
    if source.shape[0] == 0:
        return 0.0
    return _mean_row_distance(source, oracle)


@dataclass(frozen=True)
class BoundConstants:
    """The norms the bound multiplies. Layer l's full map (ReLU, weights,
    propagation) is beta[l-1]-Lipschitz, since the propagation's 2-norm is
    1 (module docstring)."""
    beta: tuple[float, ...]       # per-layer weight-matrix 2-norm
    row_norms: np.ndarray         # per-node row 2-norms of the propagation
    degrees: np.ndarray           # per-node aggregation fan-in (self included)

    def validate(self) -> None:
        if not all(np.isfinite(b) and b > 0 for b in self.beta):
            raise ValueError("bound constants must be positive and finite")


def bound_constants(params: GcnParams, adj: NormAdj) -> BoundConstants:
    return BoundConstants(beta=tuple(float(np.linalg.norm(w, 2)) for w in params.weights),
                          row_norms=adj.row_norms(),
                          degrees=np.diff(adj.row_ptr).astype(np.float64))


def gradient_error_bound(consts: BoundConstants, layer_errors: list[float],
                         node: int | np.ndarray | None = None
                         ) -> float | np.ndarray:
    """Evaluate the gradient-error bound, EPS times the telescoped sum.

    layer_errors[l] is the error of layer-l rows (l = 0 is the input layer
    and is 0 whenever raw features feed the first layer). node selects the
    per-node form: a node id gives that node's bound, an array of ids one
    bound per id. None uses the matrix form, whose propagation factor is
    the operator's 2-norm, 1; divided by EPS, that form bounds the
    final-layer output gap itself. Layer k's tail factor is beta[k-1].
    """
    L = len(consts.beta)
    if len(layer_errors) != L:
        raise ValueError(f"need {L} layer errors, got {len(layer_errors)}")
    if node is None:
        factor = 1.0
    else:
        factor = consts.degrees[node] * consts.row_norms[node]
    total = 0.0
    for l in range(1, L + 1):
        tail = 1.0
        for k in range(l + 1, L + 1):
            tail *= consts.beta[k - 1]
        total += tail * consts.beta[l - 1] * factor * layer_errors[l - 1]
    return EPS * total
