"""`tools/records_check.py` still runs against the sources in `src/`.

It imports the benchmark's workloads and set-up from `perfbench/` and runs
every arm of one workload in-process, so a change to either side can break
it without failing any other test. This runs it on sweep-2k (about 2 s).
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_records_check_prints_one_hash_per_arm():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "records_check.py"),
         "--workload", "sweep-2k", "--seed", "0"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr[-2000:]
    setup_line, *lines = proc.stdout.strip().splitlines()
    assert re.fullmatch("sweep-2k seed 0 setup [0-9a-f]{64}", setup_line), setup_line
    modes = ["full", "rest", "rest", "rest", "rest", "rest_is"]  # perfbench/workloads.py
    assert len(lines) == len(modes)
    for i, (line, mode) in enumerate(zip(lines, modes)):
        assert re.fullmatch(f"sweep-2k seed 0 arm {i} {mode} [0-9a-f]{{64}}", line), line
    assert len({line.split()[-1] for line in lines}) == len(lines)
