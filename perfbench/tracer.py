"""In-memory span tracer installed around staleburner's public functions.

Wrappers are installed from the benchmark's side, on the names that callers
look up at call time: `trainer` binds its model, graph and partition helpers
when it is imported, so those are wrapped on the `staleburner.trainer`
module, while methods are wrapped on their classes. Each wrapped call
records one span (name, start, end, parent) and, for some calls, counters
derived from its arguments. Nothing is written until `write_spans`.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time

from staleburner import graph, history, model, partition, rng, trainer

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("rng.bulk_draw_s", "s", "lower", "setup_s on full-50k; near zero on sweep-2k"),
    ("graph.sbm_generate_s", "s", "lower", "setup_s on full-50k (self time)"),
    ("graph.normalize_adjacency_s", "s", "lower",
     "wall_s on full-50k; runs inside run_training, so not in setup_s"),
    ("graph.agg_whole_s", "s", "lower", "steps_per_s and step_ms_p50 on rest-20k"),
    ("graph.agg_whole_calls", "count", "lower", "steps_per_s and step_ms_p50 on rest-20k"),
    ("graph.agg_batch_s", "s", "lower", "steps_per_s on sweep-2k; absent on full-50k"),
    ("graph.agg_batch_calls", "count", "lower", "steps_per_s on sweep-2k; absent on full-50k"),
    ("graph.agg_t_s", "s", "lower", "steps_per_s on full-50k; small on rest-20k"),
    ("graph.agg_t_calls", "count", "lower", "steps_per_s on full-50k; small on rest-20k"),
    ("graph.agg_flops", "flop", "lower",
     "steps_per_s on rest-20k and full-50k; computed as 2*nnz*d per call"),
    ("graph.agg_bytes", "B", "lower",
     "computed, includes the nnz*d float64 temporary; peak_rss_mb on full-50k"),
    ("partition.partition_graph_s", "s", "lower", "setup_s on full-50k"),
    ("partition.make_batch_s", "s", "lower", "wall_s on rest-20k"),
    ("partition.make_batch_calls", "count", "lower", "wall_s on rest-20k"),
    ("partition.batch_from_nodes_s", "s", "lower", "steps_per_s on sweep-2k (self time)"),
    ("partition.batch_from_nodes_calls", "count", "lower", "steps_per_s on sweep-2k"),
    ("partition.schedule_epoch_s", "s", "lower", "wall_s on sweep-2k; small everywhere"),
    ("partition.edge_cut", "count", "lower", "history reads, so step_ms_p50 on sweep-2k"),
    ("partition.halo_rows_mean", "count", "lower", "history reads, so step_ms_p50 on sweep-2k"),
    ("history.pull_s", "s", "lower", "step_ms_p50 on sweep-2k; zero on full-50k"),
    ("history.pull_rows", "count", "lower", "step_ms_p50 on sweep-2k; zero on full-50k"),
    ("history.push_s", "s", "lower", "step_ms_p50 on sweep-2k; zero on full-50k"),
    ("history.push_rows", "count", "lower", "step_ms_p50 on sweep-2k; zero on full-50k"),
    ("history.read_write_ratio", "ratio", "lower", "step_ms_p50 on sweep-2k"),
    ("history.cold_pulled_rows", "count", "lower", "stale_err on sweep-2k"),
    ("history.persistence_stats_s", "s", "lower", "step_ms_p50 on sweep-2k"),
    ("history.table_bytes", "B", "lower", "peak_rss_mb on rest-20k"),
    ("history.persist_mean", "steps", "lower",
     "none: deterministic, a perf change must not move it"),
    ("history.persist_max", "steps", "lower",
     "none: deterministic, a perf change must not move it"),
    ("model.fwd_l1.agg_s", "s", "lower", "steps_per_s on rest-20k"),
    ("model.fwd_l1.dense_s", "s", "lower", "steps_per_s on rest-20k"),
    ("model.fwd_l2.agg_s", "s", "lower", "steps_per_s on rest-20k"),
    ("model.fwd_l2.dense_s", "s", "lower", "steps_per_s on rest-20k"),
    ("model.bwd.agg_s", "s", "lower", "steps_per_s on full-50k"),
    ("model.bwd.dense_s", "s", "lower", "steps_per_s on full-50k"),
    ("model.full_forward_s", "s", "lower", "steps_per_s on rest-20k"),
    ("model.full_forward_calls", "count", "lower", "steps_per_s on rest-20k"),
    ("model.loss_s", "s", "lower", "steps_per_s on sweep-2k"),
    ("model.adam_s", "s", "lower", "steps_per_s on sweep-2k"),
    ("trainer.refresh_s", "s", "lower", "steps_per_s on sweep-2k (F=4 arm)"),
    ("trainer.refresh_rows", "count", "lower", "steps_per_s on sweep-2k"),
    ("trainer.grad_step_s", "s", "lower", "steps_per_s on sweep-2k and full-50k"),
    ("trainer.evaluate_s", "s", "lower", "steps_per_s and wall_s on rest-20k"),
    ("trainer.evaluate_calls", "count", "lower", "steps_per_s and wall_s on rest-20k"),
    ("trainer.probe_s", "s", "lower",
     "wall_s on sweep-2k; wraps the private _probe_apx_errors, its only entry"),
    ("trainer.probe_calls", "count", "lower", "wall_s on sweep-2k"),
    ("trainer.is_select_s", "s", "lower", "steps_per_s on sweep-2k (rest_is arm)"),
    ("trainer.train_work_share", "fraction", "higher", "steps_per_s on rest-20k"),
    ("trainer.rest_cost_ratio", "ratio", "lower",
     "steps_per_s on sweep-2k; refresh time over backward time"),
    ("trainer.fwd_rows_per_grad_row", "ratio", "lower", "steps_per_s on sweep-2k; REST's F+1"),
    ("trainer.unattributed_s", "s", "lower",
     "wall_s on sweep-2k; traced time in run_training that no span covers"),
    ("metrics.apx_error_s", "s", "lower", "wall_s on sweep-2k"),
    ("trace.overhead_s", "s", "lower", "none: traced wall minus the median untraced wall"),
    # end-to-end figures that cannot carry a bound, reported here as numbers
    ("acc_val_final", "fraction", "higher", "quality guard; a pure function of the seed"),
    ("stale_err", "L2", "lower",
     "quality guard on sweep-2k and rest-20k; 0 on full-50k, which has no table"),
    ("fail_ratio", "fraction", "lower", "failed runs over attempted runs; 0 when healthy"),
]

# counters that must repeat exactly across traced runs of one workload and seed
COUNT_KEYS = [name for name, _, _, _ in PER_LAYER
              if name.endswith(("_calls", "_rows"))
              or name in ("graph.agg_flops", "graph.agg_bytes", "partition.edge_cut",
                          "history.persist_mean", "history.persist_max")]


class Tracer:
    """Spans kept in four parallel lists; `stack` holds the open ones."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, owners, attr: str, name, on_call=None) -> None:
        """Replace `attr` on every owner (modules or classes sharing one
        function) with a span-recording wrapper. `name` is a span name or a
        function of the call's arguments; `on_call(args, kwargs, result)`
        updates counters."""
        fn = getattr(owners[0], attr)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name if isinstance(name, str) else name(args, kwargs))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        for owner in owners:
            setattr(owner, attr, wrapper)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for rec in zip(self.names, self.starts, self.ends, self.parents):
                f.write(json.dumps(rec) + "\n")

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """Per span name: total duration, self time and call count; and per
        (parent name, child name): the child's total duration."""
        child_time = [0.0] * len(self.names)
        dur: dict[str, float] = {}
        calls: dict[str, int] = {}
        under: dict[tuple[str, str], float] = {}
        for i, (nm, s, e, p) in enumerate(zip(self.names, self.starts,
                                              self.ends, self.parents)):
            d = e - s
            dur[nm] = dur.get(nm, 0.0) + d
            calls[nm] = calls.get(nm, 0) + 1
            if p >= 0:
                child_time[p] += d
                key = (self.names[p], nm)
                under[key] = under.get(key, 0.0) + d
        self_t: dict[str, float] = {}
        for i, nm in enumerate(self.names):
            self_t[nm] = self_t.get(nm, 0.0) + (self.ends[i] - self.starts[i]
                                                - child_time[i])
        return dur, self_t, calls, under


def _agg_counts(tr: Tracer, out_rows: int, nnz: int, dense) -> None:
    d = dense.shape[1]
    tr.add("agg_flops", 2 * nnz * d)
    # index and value arrays, the gathered rows, the float64 product
    # temporary and the output
    tr.add("agg_bytes", nnz * 16 + nnz * d * (dense.itemsize + 8) + out_rows * d * 8)


def install(tr: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    t = trainer

    def on_matmul(args, kwargs, res):
        adj, dense = args[0], args[1]
        _agg_counts(tr, adj.num_rows, len(adj.col_idx), dense)

    def on_t_matmul(args, kwargs, res):
        adj, dense = args[0], args[1]
        _agg_counts(tr, adj.num_cols, len(adj.col_idx), dense)

    def on_pull(args, kwargs, res):
        tr.add("pull_rows", len(args[2]))
        tr.add("cold_pulled_rows", res[1])

    def on_push(args, kwargs, res):
        tr.add("push_rows", len(args[2]))

    def on_refresh(args, kwargs, res):
        tr.add("refresh_rows", sum(len(b.in_batch) for b in args[0]))

    def on_grad_step(args, kwargs, res):
        tr.add("grad_rows", len(args[0].in_batch))

    def on_make_batch(args, kwargs, res):
        tr.add("halo_rows", len(res.halo))

    def layer_name(args, kwargs):
        return "fwd_l2" if kwargs.get("last", args[4] if len(args) > 4 else False) \
            else "fwd_l1"

    tr.wrap([graph.NormAdj], "matmul",
            lambda a, k: "agg_whole" if a[0].num_rows == a[0].num_cols else "agg_batch",
            on_matmul)
    tr.wrap([graph.NormAdj], "t_matmul", "agg_t", on_t_matmul)
    tr.wrap([graph], "sbm_generate", "sbm_generate")
    tr.wrap([t], "normalize_adjacency", "normalize_adjacency")
    tr.wrap([rng.Rng], "normals", "rng_draw")
    tr.wrap([rng.Rng], "uniforms", "rng_draw")
    tr.wrap([partition], "partition_graph", "partition_graph")
    tr.wrap([t], "make_batch", "make_batch", on_make_batch)
    tr.wrap([partition, t], "make_batch_from_nodes", "batch_from_nodes")
    tr.wrap([t], "schedule_epoch", "schedule_epoch")
    tr.wrap([history.HistoryTable], "pull", "pull", on_pull)
    tr.wrap([history.HistoryTable], "push", "push", on_push)
    tr.wrap([t], "persistence_stats", "persistence_stats")
    tr.wrap([model, t], "layer_apply", layer_name)
    tr.wrap([t], "backward", "backward")
    tr.wrap([t], "full_forward", "full_forward")
    tr.wrap([t], "loss_and_grad", "loss")
    tr.wrap([model.Adam], "step", "adam")
    tr.wrap([t], "rest_refresh_pass", "refresh", on_refresh)
    tr.wrap([t], "train_step_gas", "grad_step", on_grad_step)
    tr.wrap([t], "evaluate", "evaluate")
    tr.wrap([t], "_probe_apx_errors", "probe")
    tr.wrap([t], "rest_is_refresh_selection", "is_select")
    tr.wrap([t], "approximation_error", "apx_error")
    tr.wrap([t], "run_training", "run_training")


def per_layer_metrics(tr: Tracer) -> dict[str, float]:
    """Time and count metrics read from the spans and counters. Metrics that
    come from the run's records (persistence, stale_err, table bytes, edge
    cut) and the tracing overhead are filled in by the caller."""
    dur, self_t, calls, under = tr.totals()
    c = tr.counts.get
    g = dur.get
    refresh, grad_rows = g("refresh", 0.0), c("grad_rows", 0)
    train = g("run_training", 0.0)
    pulled, pushed = c("pull_rows", 0), c("push_rows", 0)
    agg_under = lambda parent: sum(under.get((parent, a), 0.0)
                                   for a in ("agg_whole", "agg_batch"))
    return {
        "rng.bulk_draw_s": g("rng_draw", 0.0),
        "graph.sbm_generate_s": self_t.get("sbm_generate", 0.0),
        "graph.normalize_adjacency_s": g("normalize_adjacency", 0.0),
        "graph.agg_whole_s": g("agg_whole", 0.0),
        "graph.agg_whole_calls": calls.get("agg_whole", 0),
        "graph.agg_batch_s": g("agg_batch", 0.0),
        "graph.agg_batch_calls": calls.get("agg_batch", 0),
        "graph.agg_t_s": g("agg_t", 0.0),
        "graph.agg_t_calls": calls.get("agg_t", 0),
        "graph.agg_flops": c("agg_flops", 0),
        "graph.agg_bytes": c("agg_bytes", 0),
        "partition.partition_graph_s": g("partition_graph", 0.0),
        "partition.make_batch_s": g("make_batch", 0.0),
        "partition.make_batch_calls": calls.get("make_batch", 0),
        "partition.batch_from_nodes_s": self_t.get("batch_from_nodes", 0.0),
        "partition.batch_from_nodes_calls": calls.get("batch_from_nodes", 0),
        "partition.schedule_epoch_s": g("schedule_epoch", 0.0),
        "partition.halo_rows_mean": (c("halo_rows", 0) / calls["make_batch"]
                                     if calls.get("make_batch") else 0.0),
        "history.pull_s": g("pull", 0.0),
        "history.pull_rows": pulled,
        "history.push_s": g("push", 0.0),
        "history.push_rows": pushed,
        "history.read_write_ratio": pulled / pushed if pushed else 0.0,
        "history.cold_pulled_rows": c("cold_pulled_rows", 0),
        "history.persistence_stats_s": g("persistence_stats", 0.0),
        "model.fwd_l1.agg_s": agg_under("fwd_l1"),
        "model.fwd_l1.dense_s": self_t.get("fwd_l1", 0.0),
        "model.fwd_l2.agg_s": agg_under("fwd_l2"),
        "model.fwd_l2.dense_s": self_t.get("fwd_l2", 0.0),
        "model.bwd.agg_s": under.get(("backward", "agg_t"), 0.0),
        "model.bwd.dense_s": self_t.get("backward", 0.0),
        "model.full_forward_s": g("full_forward", 0.0),
        "model.full_forward_calls": calls.get("full_forward", 0),
        "model.loss_s": g("loss", 0.0),
        "model.adam_s": g("adam", 0.0),
        "trainer.refresh_s": refresh,
        "trainer.refresh_rows": c("refresh_rows", 0),
        "trainer.grad_step_s": g("grad_step", 0.0),
        "trainer.evaluate_s": g("evaluate", 0.0),
        "trainer.evaluate_calls": calls.get("evaluate", 0),
        "trainer.probe_s": g("probe", 0.0),
        "trainer.probe_calls": calls.get("probe", 0),
        "trainer.is_select_s": g("is_select", 0.0),
        "trainer.train_work_share": (refresh + g("grad_step", 0.0)) / train if train else 0.0,
        "trainer.rest_cost_ratio": refresh / g("backward") if g("backward") else 0.0,
        "trainer.fwd_rows_per_grad_row": ((c("refresh_rows", 0) + grad_rows) / grad_rows
                                          if grad_rows else 0.0),
        "trainer.unattributed_s": self_t.get("run_training", 0.0),
        "metrics.apx_error_s": g("apx_error", 0.0),
    }
