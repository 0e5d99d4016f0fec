"""`tools/rss_trace.py` still runs against the sources in `src/`.

It sets up a workload with `perfbench/`'s set-up and wraps functions of
`graph`, `partition` and `trainer` by name, so a change to either side can
break it without failing any other test. This runs it on sweep-2k (about
1 s) and checks the format of its lines.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIB = r"\d+\.\d"


def test_rss_trace_prints_each_traced_call():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "rss_trace.py"),
         "--workload", "sweep-2k", "--seed", "0"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr[-2000:]
    *lines, end = proc.stdout.strip().splitlines()
    calls = []
    for line in lines:
        m = re.fullmatch(f"sweep-2k seed 0 (setup|step1|step2) (\\w+) VmRSS ({MIB}) -> "
                         f"({MIB}) VmHWM ({MIB}) MiB", line)
        assert m, line
        calls.append((m[1], m[2]))
        assert float(m[5]) >= float(m[4]) > 0 and float(m[3]) > 0
    # the first arm is full mode: the first step runs its own forward, and
    # every step's evaluate runs the forward that the next step consumes
    assert calls == [("setup", "sbm_generate"), ("setup", "partition_graph"),
                     ("step1", "full_forward"), ("step1", "loss_and_grad"),
                     ("step1", "backward"), ("step1", "full_forward"),
                     ("step2", "loss_and_grad"), ("step2", "backward"),
                     ("step2", "full_forward")]
    assert re.fullmatch(f"sweep-2k seed 0 end ru_maxrss ({MIB}) MiB", end), end
