"""The benchmark's traced child run still works against the sources in `src/`.

`perfbench/tracer.py` wraps trainer functions by name and reads some of their
arguments and results, so a signature change in `src/` can break a traced
run without failing any other test. This runs one traced sweep-2k child (about
1 s) and checks what the benchmark reads from it. It reads `perfbench/` only:
no bytecode is written there and the spans go to a temporary directory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_traced_sweep_child_reports_layers(tmp_path):
    spans = tmp_path / "s.jsonl"
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--workload", "sweep-2k", "--seed", "0",
         "--spans", str(spans)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = out["layers"]
    assert layers["trainer.is_select_s"] > 0  # the rest_is arm selected its halos
    assert layers["trainer.refresh_rows"] > 0
    assert layers["model.fwd_l1.agg_s"] == 0  # every mode takes layer 1 from Â·X
    # backward's transpose products reach the tracer through t_matmul, one
    # per 2-layer step: the full anchor's 16 and the five memory arms' 16 each
    assert layers["graph.agg_t_calls"] == 96
    assert layers["model.bwd.agg_s"] > 0
    assert spans.stat().st_size > 0
