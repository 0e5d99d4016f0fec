"""One run of one workload, in its own process; `run.py` starts these.

    python3 perfbench/child.py --workload sweep-2k --seed 0 [--setup-only] \
        [--spans out.jsonl]

Sets up the workload (`sbm_generate` then `partition_graph`) and, unless
--setup-only, calls `run_training` for each of its configs, all with
`timing = 0`. Prints one JSON object: timings, the sha256 of every
`format_record` line, peak RSS and the quality figures. With --spans the
run is traced: wrappers are installed first, the per-layer metrics are added
to the result and the spans are written to the given file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from staleburner import graph, partition, trainer  # noqa: E402
from staleburner.metrics import format_record  # noqa: E402
from staleburner.rng import derive_seed  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def setup(w, seed: int):
    ds = graph.sbm_generate(w.blocks, w.nodes_per_block, w.p_in, w.p_out,
                            d_in=w.d_in, seed=derive_seed(seed, "dataset"))
    part = partition.partition_graph(ds.graph, w.parts, derive_seed(seed, "partition"))
    return ds, part


def run(workload: str, seed: int, setup_only: bool, spans: str | None) -> dict:
    w = WORKLOADS[workload]
    tr = None
    if spans is not None:
        import tracer
        tr = tracer.Tracer()
        tracer.install(tr)
    t0 = time.perf_counter()
    ds, part = setup(w, seed)
    setup_s = time.perf_counter() - t0
    if setup_only:
        return {"setup_s": setup_s}

    digest = hashlib.sha256()
    train_s, steps, step_ms, accs, stale, persist = 0.0, 0, [], [], [], []
    persist_max, table_bytes, finite = 0, 0, True
    for cfg in w.arms(seed):
        stamps: list[float] = []

        def on_step(state):
            nonlocal table_bytes
            stamps.append(time.perf_counter())
            if len(stamps) == 1:
                h = state.history
                table_bytes = max(table_bytes, h.last_update.nbytes
                                  + sum(m.nbytes for m in h.layers))

        start = time.perf_counter()
        records, _ = trainer.run_training(cfg, ds, part, on_step=on_step)
        train_s += time.perf_counter() - start
        steps += len(records)
        step_ms += [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
        digest.update(f"{cfg}\n".encode())
        for r in records:
            digest.update((format_record(r) + "\n").encode())
            finite &= math.isfinite(r.loss)
            persist += r.persist_mean
            persist_max = max(persist_max, *r.persist_max)
            if not math.isnan(r.apx_err[-1]):
                stale.append(r.apx_err[-1])
        accs.append(records[-1].acc_val)
    wall_s = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "setup_s": setup_s,
        "train_s": train_s,
        "wall_s": wall_s,
        "steps": steps,
        "step_ms": step_ms,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "acc_val_final": statistics.fmean(accs),
        "stale_err": statistics.fmean(stale) if stale else None,
        "finite": finite,
        "hash": digest.hexdigest(),
    }
    if tr is not None:
        layers = tracer.per_layer_metrics(tr)
        layers.update({
            "partition.edge_cut": part.edge_cut,
            "history.table_bytes": table_bytes,
            "history.persist_mean": statistics.fmean(persist) if persist else 0.0,
            "history.persist_max": persist_max,
            "acc_val_final": out["acc_val_final"],
            "stale_err": out["stale_err"] or 0.0,
        })
        out["layers"] = layers
        tr.write_spans(spans)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="trace the run, write spans here")
    args = p.parse_args(argv)
    # rest_is logs a warning for gradient batches without a halo
    logging.disable(logging.WARNING)
    print(json.dumps(run(args.workload, args.seed, args.setup_only, args.spans)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
