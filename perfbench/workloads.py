"""The benchmark's workloads: one graph each, and the training runs on it.

Every input derives from the run's seed the way the `train` CLI derives them:
`derive_seed(seed, "dataset")` for the graph, `derive_seed(seed,
"partition")` for the partition, and the config seed for init and schedule.
Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from staleburner.trainer import TrainConfig


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: int
    nodes_per_block: int
    p_in: float
    p_out: float
    d_in: int
    parts: int
    arms: Callable[[int], list[TrainConfig]]  # seed -> run_training configs


def _sweep_arms(seed: int) -> list[TrainConfig]:
    """The acceptance sweep fixture's six arms at one epoch each; the full
    anchor gets as many updates as one rest arm (one per cluster)."""
    base = dict(hidden=32, num_layers=2, lr=0.05, seed=seed)
    arms = [TrainConfig(mode="full", epochs=16, **base)]
    for mode, f, probe in [("rest", 0, 1), ("rest", 1, 1), ("rest", 2, 1),
                           ("rest", 4, 1), ("rest_is", 1, 0)]:
        arms.append(TrainConfig(mode=mode, refresh_per_step=f, probe_every=probe,
                                epochs=1, warmup_refresh=True, **base))
    return arms


def _rest_arms(seed: int) -> list[TrainConfig]:
    return [TrainConfig(mode="rest", refresh_per_step=1, hidden=64, num_layers=2,
                        lr=0.01, probe_every=8, epochs=1, seed=seed)]


def _full_arms(seed: int) -> list[TrainConfig]:
    return [TrainConfig(mode="full", hidden=64, num_layers=2, lr=0.01,
                        probe_every=0, epochs=5, seed=seed)]


WORKLOADS = {w.name: w for w in [
    Workload("sweep-2k", 10, 200, 0.10, 0.002, 10, 16, _sweep_arms),
    Workload("rest-20k", 20, 1000, 0.01, 1e-4, 32, 32, _rest_arms),
    Workload("full-50k", 50, 1000, 0.006, 5e-5, 32, 64, _full_arms),
]}
