"""Desk-scale mini-batch GCN training around a per-layer embedding memory.

Out-of-batch neighbor rows are served from a history table instead of being
recomputed, and the table can be refreshed by extra gradient-free forward
passes scheduled between parameter updates. The package instruments how stale
the table gets (persistence, approximation error) and ships a numerical
checker for the induced gradient-error bound.
"""

from .graph import (CsrGraph, Dataset, NormAdj, load_dataset,
                    normalize_adjacency, sbm_generate, save_dataset,
                    spectral_norm_upper)
from .history import HistoryTable, persistence_stats
from .metrics import (BoundConstants, MetricsRecord, approximation_error,
                      bound_constants, export_metrics, gradient_error_bound)
from .model import Adam, GcnParams, backward, full_forward, init_params, loss_and_grad
from .partition import (MiniBatch, Partition, make_batch, make_batch_from_nodes,
                        partition_graph, schedule_epoch)
from .trainer import (TrainConfig, TrainState, batch_forward_with_history,
                      rest_is_refresh_selection, rest_refresh_pass, run_training,
                      train_step_gas)

__version__ = "0.1.0"
