"""Numerical dominance harness for the gradient-error bound.

Each instance builds a small community graph, fills the memory table from a
perturbed parameter vector (synthetic staleness), recomputes every node's
output through the memory-filled batch path at the current parameters, and
compares the measured loss-gradient gap against the bound evaluated from
exact operator norms. Ratios above 1 indicate a broken norm computation
or forward pass, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import normalize_adjacency, sbm_generate
from .history import HistoryTable
from .metrics import EPS, bound_constants, gradient_error_bound
from .model import full_forward, init_params, loss_and_grad
from .partition import make_batch, partition_graph
from .rng import Rng, derive_seed
from .trainer import table_logits


@dataclass(frozen=True)
class BoundCheckResult:
    matrix_ratio: float
    node_ratio: float
    output_gap: float       # measured final-layer Frobenius gap
    output_bound: float     # telescoped bound on that gap


def _ratio(lhs, rhs) -> np.ndarray:
    """lhs / rhs elementwise; where rhs is not positive, 0 for a zero lhs
    and inf otherwise. np.divide, unlike `/` on two Python floats, divides
    a zero rhs under the errstate instead of raising ZeroDivisionError."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhs > 0.0, np.divide(lhs, rhs), np.where(lhs < 1e-12, 0.0, np.inf))


def bound_check_instance(seed: int, n: int = 50, num_layers: int = 2) -> BoundCheckResult:
    """One instance on an SBM graph of about n nodes and a num_layers-deep
    GCN. A depth below 1, or fewer nodes than the graph's 5 blocks, raises
    ValueError. At depth 1 no layer is stored, both sides are 0 and every
    ratio reads 0."""
    # every instance's fixed shape: SBM blocks, hidden width, clusters, and
    # the scale of the parameter noise that makes the table stale
    blocks, hidden, num_parts, perturb = 5, 12, 4, 0.05
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    if n < blocks:
        raise ValueError(f"n must be >= {blocks}, got {n}")
    ds = sbm_generate(blocks, n // blocks, 0.3, 0.05, d_in=8,
                      seed=derive_seed(seed, "graph"))
    g_norm = normalize_adjacency(ds.graph)
    n_actual = ds.graph.num_nodes
    dims = [ds.num_features] + [hidden] * (num_layers - 1) + [ds.num_classes]
    params = init_params(dims, derive_seed(seed, "params"))

    # synthetic staleness: the table holds embeddings of a nearby parameter
    # vector, as if several optimizer steps passed since the rows were written
    noise = Rng(derive_seed(seed, "perturb"))
    stale_params = params.copy()
    for w in stale_params.weights:
        w += perturb * noise.normals(w.size).reshape(w.shape)
    stale_hs, _ = full_forward(g_norm, ds.features, stale_params)
    table = HistoryTable(n_actual, dims[1:-1])
    all_ids = np.arange(n_actual)
    for l in range(1, num_layers):
        table.push(l, all_ids, stale_hs[l - 1], step=0)

    oracle_hs, _ = full_forward(g_norm, ds.features, params)
    part = partition_graph(ds.graph, min(num_parts, n_actual),
                           derive_seed(seed, "part"))
    batches = [make_batch(g_norm, part, [c]) for c in range(part.num_parts)]
    run_logits = table_logits(batches, g_norm.matmul(ds.features), params, table)

    _, d_stale = loss_and_grad(run_logits, ds.labels, ds.train_mask)
    _, d_true = loss_and_grad(oracle_hs[-1], ds.labels, ds.train_mask)
    diff = d_stale - d_true

    # layer errors drive the bound: inputs are never stale, stored layers
    # measured table-versus-oracle in Frobenius norm
    errors = [0.0]
    for l in range(1, num_layers):
        errors.append(float(np.linalg.norm(
            table.layers[l - 1].astype(np.float64) - oracle_hs[l - 1])))

    consts = bound_constants(params, g_norm)
    consts.validate()
    lhs_matrix = float(np.linalg.norm(diff))
    rhs_matrix = gradient_error_bound(consts, errors, node=None)
    row_norms = np.linalg.norm(diff, axis=1)
    node_rhs = gradient_error_bound(consts, errors, node=np.arange(n_actual))

    out_gap = float(np.linalg.norm(run_logits - oracle_hs[-1]))
    out_bound = rhs_matrix / EPS  # the bound on the output gap itself
    return BoundCheckResult(matrix_ratio=float(_ratio(lhs_matrix, rhs_matrix)),
                            node_ratio=float(_ratio(row_norms, node_rhs).max(initial=0.0)),
                            output_gap=out_gap, output_bound=out_bound)


def run_bound_check(seeds: int, n: int = 50,
                    layer_choices: tuple[int, ...] = (2, 3)) -> float:
    """Max LHS/RHS ratio over `seeds` instances per layer depth; values at or
    below 1.0 mean the bound dominated every measurement. A seed count below
    1 raises ValueError, as a depth below 1 or an n below 5 does in
    bound_check_instance."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    worst = 0.0
    for num_layers in layer_choices:
        for s in range(seeds):
            res = bound_check_instance(seed=s * 7919 + num_layers, n=n,
                                       num_layers=num_layers)
            worst = max(worst, res.matrix_ratio, res.node_ratio,
                        float(_ratio(res.output_gap, res.output_bound)))
    return worst
