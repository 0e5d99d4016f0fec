"""The benchmark's own checks.

    python3 perfbench/selftest.py [workload ...]   # default: sweep-2k
    python3 -m pytest perfbench/selftest.py

1. BENCHMARK.json names the workloads and metrics this code reports, with
   the same units.
2. Two traced runs of one workload and seed give identical counts (every
   `*_calls` and `*_rows` metric, `graph.agg_flops`, `graph.agg_bytes`,
   `partition.edge_cut`, `history.persist_*`) and the same output hash as
   an untraced run, so the wrappers change no result.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import COUNT_KEYS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_matches_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in PER_LAYER]


def check_counts_repeat(workload: str, seed: int = 0) -> None:
    run.OUT.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    plain = run.child(workload, seed, t0)
    traced = [run.child(workload, seed, t0, "--spans",
                        str(run.OUT / f"selftest-{workload}-{i}.spans.jsonl"))
              for i in range(2)]
    for r in [plain] + traced:
        assert "error" not in r, r["error"]
    assert traced[0]["hash"] == traced[1]["hash"] == plain["hash"]
    a, b = (r["layers"] for r in traced)
    diff = {k: (a[k], b[k]) for k in COUNT_KEYS if a[k] != b[k]}
    assert not diff, f"{workload}: counts differ between traced runs: {diff}"


def test_counts_repeat_across_traced_runs():
    check_counts_repeat("sweep-2k")


if __name__ == "__main__":
    test_benchmark_json_matches_code()
    for name in sys.argv[1:] or ["sweep-2k"]:
        check_counts_repeat(name)
        print(f"{name}: counts and output hash repeat across traced runs")
    print("selftest passed")
