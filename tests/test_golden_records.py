"""Golden records: the sha256 of every `format_record` line and of the final
parameter bytes for a small grid of runs, pinned to values recorded before
`run_training` shared its whole-graph forward and cached Â·X. The 3-layer
`full` case was recorded before forwards applied bias and ReLU in place and
backward masked on layer outputs.

Performance work on the training loop must keep both digests byte for byte.
Regenerate `golden_records.json` only for a change that is meant to move the
records, and say so where the change is described:

    PYTHONPATH=src python tests/test_golden_records.py > tests/golden_records.json
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from staleburner.graph import sbm_generate
from staleburner.metrics import format_record
from staleburner.partition import partition_graph
from staleburner.trainer import TrainConfig, run_training

GOLDEN_PATH = Path(__file__).with_name("golden_records.json")


def cases() -> dict[str, tuple[int, dict]]:
    """Case id -> (number of parts, TrainConfig overrides). The ids keep the
    grid they were recorded in, when input dropout was one of its axes. With
    dropout deleted, the `drop0.3` arm runs the same cases with weight decay
    0.3, the regularizer that remains; the `drop0.0` arm runs neither."""
    out = {}
    for mode, decay, probe, parts in itertools.product(
            ("full", "gas", "rest", "rest_is"), (0.0, 0.3), (0, 1, 3), (1, 4)):
        out[f"{mode}-drop{decay}-probe{probe}-parts{parts}"] = (
            parts, dict(mode=mode, weight_decay=decay, probe_every=probe))
    out["rest-3layer-cpb2"] = (4, dict(mode="rest", num_layers=3,
                                       clusters_per_batch=2, probe_every=1))
    # rest_is at 3 layers, where its refresh forward computes layer 2 from
    # the layer-1 rows it has just computed
    out["rest_is-3layer"] = (4, dict(mode="rest_is", num_layers=3, probe_every=1))
    # full mode's shared whole-graph forward through two masked hidden layers
    for decay in (0.0, 0.3):
        out[f"full-3layer-drop{decay}"] = (4, dict(mode="full", num_layers=3,
                                                  weight_decay=decay))
    return out


def digests(parts: int, overrides: dict) -> list[str]:
    """[sha256 of the record lines, sha256 of the final float64 parameters]."""
    ds = sbm_generate(4, 15, 0.3, 0.03, d_in=6, seed=5)
    part = partition_graph(ds.graph, parts, seed=2)
    cfg = TrainConfig(epochs=2, hidden=6, lr=0.05, refresh_per_step=1, seed=3,
                      **overrides)
    records, params = run_training(cfg, ds, part)
    lines = "".join(format_record(r) + "\n" for r in records)
    return [hashlib.sha256(lines.encode()).hexdigest(),
            hashlib.sha256(params.flat().tobytes()).hexdigest()]


def test_golden_file_covers_the_grid():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_records_and_parameters_match_golden(case):
    golden = json.loads(GOLDEN_PATH.read_text())[case]
    assert digests(*cases()[case]) == golden


if __name__ == "__main__":
    print(json.dumps({c: digests(*a) for c, a in sorted(cases().items())}, indent=1))
