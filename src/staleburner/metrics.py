"""Staleness instrumentation and the gradient-error bound checker.

The bound: for an L-layer GCN whose layer maps have Lipschitz envelopes
alpha_l (propagation + weights) and beta_l (weights alone), and a loss whose
gradient is eps-Lipschitz in the logits, the gap between loss gradients
evaluated at memory-filled outputs and at fresh outputs satisfies

    |grad_L(out_stale) - grad_L(out_fresh)|
        <= eps * sum_l (prod_{k>l} alpha_k) * beta_l * C_v * E_{l-1}

where E_l is the stored-versus-fresh error of layer l's rows and C_v is
either |N(v)| * |row_v(adj)| (per-node form) or the operator 2-norm of the
propagation matrix (matrix form, Frobenius layer errors). Layer 0 inputs are
raw features, so E_0 = 0 by construction.

eps = 1.0 for mean softmax cross-entropy: the softmax Jacobian is symmetric
with eigenvalues p_i(1 - p_i) and pair terms bounded by its diagonal, so its
2-norm is at most 1; averaging over the mask divides by the mask size, which
only shrinks the constant. Norm envelopes come from power iteration inflated
by (1 + tol), so undershoot cannot break dominance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import NormAdj, spectral_norm_upper
from .history import NEVER, HistoryTable
from .model import GcnParams


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


def csv_header(num_hidden_layers: int, num_layers: int) -> str:
    cols = ["step", "epoch", "loss", "acc_train", "acc_val", "acc_test"]
    cols += [f"persist_mean_l{i}" for i in range(1, num_hidden_layers + 1)]
    cols += [f"persist_max_l{i}" for i in range(1, num_hidden_layers + 1)]
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


def export_metrics(series: list[MetricsRecord], path: str) -> None:
    if not series:
        raise ValueError("empty metrics series")
    num_hidden = len(series[0].persist_mean)
    num_layers = len(series[0].apx_err)
    with open(path, "w") as f:
        f.write(csv_header(num_hidden, num_layers) + "\n")
        for r in series:
            f.write(format_record(r) + "\n")


# rows per float64 difference block in approximation_error
APX_BLOCK_ROWS = 4096


def _mean_row_distance(stored: np.ndarray, fresh: np.ndarray, rows: np.ndarray
                       ) -> float:
    """Mean L2 distance between stored[rows] and fresh[rows], one block of
    rows at a time, so no float64 copy of every row is built. A row's norm
    does not depend on its block, so the mean is the one-block value."""
    norms = np.empty(len(rows))
    for start in range(0, len(rows), APX_BLOCK_ROWS):
        r = rows[start:start + APX_BLOCK_ROWS]
        diff = stored[r].astype(np.float64) - fresh[r]
        norms[start:start + len(r)] = np.linalg.norm(diff, axis=1)
    return float(norms.mean())


def approximation_error(source, oracle) -> list[float] | float:
    """Mean per-node embedding distance from a fresh whole-graph forward.

    With a HistoryTable source: per stored layer, the mean row L2 distance
    between the table and the oracle layer, over rows that were pushed at
    least once (a never-written table reports 0). With an array source (a
    memory-filled run's output matrix): the scalar mean row distance.
    """
    if isinstance(source, HistoryTable):
        out = []
        for li in range(source.num_layers):
            warm = np.flatnonzero(source.last_update[:, li] != NEVER)
            out.append(_mean_row_distance(source.layers[li], oracle[li], warm)
                       if len(warm) else 0.0)
        return out
    diff = np.asarray(source, dtype=np.float64) - np.asarray(oracle, dtype=np.float64)
    if diff.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm(diff, axis=1).mean())


@dataclass(frozen=True)
class BoundConstants:
    alpha: tuple[float, ...]      # per-layer full-map Lipschitz envelope
    beta: tuple[float, ...]       # per-layer weight-matrix norm envelope
    eps: float
    adj_norm: float               # operator 2-norm envelope of the propagation
    row_norms: np.ndarray         # per-node row 2-norms of the propagation
    degrees: np.ndarray           # per-node aggregation fan-in (self included)

    def validate(self) -> None:
        vals = list(self.alpha) + list(self.beta) + [self.eps, self.adj_norm]
        if not all(np.isfinite(v) and v > 0 for v in vals):
            raise ValueError("bound constants must be positive and finite")


def bound_constants(params: GcnParams, adj: NormAdj, tol: float = 1e-3
                    ) -> BoundConstants:
    adj_norm, _ = spectral_norm_upper(adj, tol=tol)
    betas = []
    for w in params.weights:
        s, _ = spectral_norm_upper(w, tol=tol)
        betas.append(s)
    alphas = [b * adj_norm for b in betas]  # ReLU is 1-Lipschitz
    return BoundConstants(alpha=tuple(alphas), beta=tuple(betas), eps=1.0,
                          adj_norm=adj_norm, row_norms=adj.row_norms(),
                          degrees=np.diff(adj.row_ptr).astype(np.float64))


def gradient_error_bound(consts: BoundConstants, layer_errors: list[float],
                 node: int | None = None) -> float:
    """Evaluate the gradient-error bound.

    layer_errors[l] is the error of layer-l rows (l = 0 is the input layer
    and is 0 whenever raw features feed the first layer). node selects the
    per-node form; None uses the matrix form with the operator norm.
    """
    L = len(consts.alpha)
    if len(layer_errors) != L:
        raise ValueError(f"need {L} layer errors, got {len(layer_errors)}")
    if node is None:
        factor = consts.adj_norm
    else:
        factor = consts.degrees[node] * consts.row_norms[node]
    total = 0.0
    for l in range(1, L + 1):
        tail = 1.0
        for k in range(l + 1, L + 1):
            tail *= consts.alpha[k - 1]
        total += tail * consts.beta[l - 1] * factor * layer_errors[l - 1]
    return consts.eps * total


def telescoped_output_bound(consts: BoundConstants, layer_errors: list[float]
                            ) -> float:
    """Bound on the final-layer output gap itself (the pre-loss version of
    the same telescoping)."""
    return gradient_error_bound(consts, layer_errors, node=None) / consts.eps
