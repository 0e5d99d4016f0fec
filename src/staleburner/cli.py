"""Command-line entry point for reproducible experiment runs.

Config files are flat key=value text (one pair per line, '#' comments).
Recognized keys:

    dataset        dir:<path> | sbm:blocks=..,nodes_per_block=..,p_in=..,
                   p_out=..[,d_in=..][,seed=..]   (required for train)
    parts          cluster count for the partitioner (default 1)
    mode           full | gas | rest | rest_is
    F              refresh forwards per gradient step (rest, rest_is)
    c              clusters per batch
    refresh_mode   same | half | full
    sampler        round_robin | uniform
    epochs, seed
    lr, weight_decay, beta1, beta2, adam_eps
    hidden, layers, dropout
    warmup_refresh 0|1    one gradient-free whole-graph refresh before training
    probe_every    approximation-error probe cadence in steps (0 = off)
    timing         0|1    record real wall-clock ms (off keeps runs bit-reproducible)
    parallel_refresh 0|1  refresh batches read the pre-pass table snapshot
                   (the concurrent-refresh semantics; default is sequential)

Unknown keys are rejected. The STALEBURNER_SEED environment variable, when
set, overrides the config seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .boundcheck import run_bound_check
from .graph import (Dataset, DatasetError, load_dataset, normalize_adjacency,
                    sbm_generate, save_dataset)
from .metrics import csv_header, export_metrics, format_record
from .partition import partition_graph
from .rng import derive_seed
from .trainer import TrainConfig, evaluate, load_checkpoint, run_training

def _flag(text: str) -> int:
    """A 0|1 value; any other integer is rejected, not read as true."""
    value = int(text)
    if value not in (0, 1):
        raise ValueError(f"{text!r} is not 0 or 1")
    return value


_CONFIG_KEYS = {
    "dataset": str, "parts": int, "mode": str, "F": int, "c": int,
    "refresh_mode": str, "sampler": str, "epochs": int, "seed": int,
    "lr": float, "weight_decay": float, "beta1": float, "beta2": float,
    "adam_eps": float, "hidden": int, "layers": int, "dropout": float,
    "warmup_refresh": _flag, "probe_every": int, "timing": _flag,
    "parallel_refresh": _flag,
}


class ConfigError(ValueError):
    pass


def parse_config(path: str) -> dict:
    out: dict = {}
    with open(path) as f:
        for ln, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            try:
                out[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{ln}: bad value {value!r} for {key}") from None
    env_seed = os.environ.get("STALEBURNER_SEED")
    if env_seed is not None:
        try:
            out["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"STALEBURNER_SEED={env_seed!r} is not an integer") from None
    return out


def _parse_sbm_params(text: str, default_seed: int) -> dict:
    fields = {"blocks": int, "nodes_per_block": int, "p_in": float,
              "p_out": float, "d_in": int, "seed": int}
    out = {"d_in": 0, "seed": default_seed}
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"sbm parameter {item!r} is not key=value")
        key, value = item.split("=", 1)
        if key not in fields:
            raise ConfigError(f"unknown sbm field {key!r}")
        out[key] = fields[key](value)
    for req in ("blocks", "nodes_per_block", "p_in", "p_out"):
        if req not in out:
            raise ConfigError(f"sbm parameters missing {req}")
    return out


def load_data_source(source: str, run_seed: int) -> Dataset:
    """'dir:<path>' loads the on-disk format; 'sbm:<k=v,...>' synthesizes."""
    if source.startswith("dir:"):
        return load_dataset(source[4:])
    if source.startswith("sbm:"):
        kw = _parse_sbm_params(source[4:], derive_seed(run_seed, "dataset"))
        return sbm_generate(**kw)
    raise ConfigError(f"dataset source must start with dir: or sbm:, got {source!r}")


def train_config_from(cfg: dict) -> TrainConfig:
    tc = TrainConfig(
        mode=cfg.get("mode", "rest"),
        refresh_per_step=cfg.get("F", 1),
        clusters_per_batch=cfg.get("c", 1),
        refresh_mode=cfg.get("refresh_mode", "same"),
        sampler=cfg.get("sampler", "round_robin"),
        epochs=cfg.get("epochs", 1),
        seed=cfg.get("seed", 0),
        lr=cfg.get("lr", 0.001),
        weight_decay=cfg.get("weight_decay", 0.0),
        beta1=cfg.get("beta1", 0.9),
        beta2=cfg.get("beta2", 0.999),
        adam_eps=cfg.get("adam_eps", 1e-8),
        hidden=cfg.get("hidden", 128),
        num_layers=cfg.get("layers", 2),
        dropout=cfg.get("dropout", 0.0),
        warmup_refresh=bool(cfg.get("warmup_refresh", 0)),
        probe_every=cfg.get("probe_every", 0),
        timing=bool(cfg.get("timing", 0)),
        parallel_refresh=bool(cfg.get("parallel_refresh", 0)),
    )
    tc.validate()
    return tc


def _cmd_generate(args) -> int:
    ds = sbm_generate(blocks=args.blocks, nodes_per_block=args.nodes_per_block,
                      p_in=args.p_in, p_out=args.p_out, d_in=args.d_in,
                      seed=args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.graph.num_nodes} nodes, "
          f"{ds.graph.num_edges} edges, {ds.num_classes} classes")
    return 0


def _cmd_partition(args) -> int:
    ds = load_data_source(args.data, args.seed)
    part = partition_graph(ds.graph, args.parts, derive_seed(args.seed, "partition"))
    with open(args.out, "w") as f:
        for v in range(ds.graph.num_nodes):
            f.write(f"{v},{part.cluster_of[v]}\n")
    sizes = [len(c) for c in part.clusters]
    print(json.dumps({"parts": part.num_parts, "edge_cut": part.edge_cut,
                      "max_size": max(sizes)}))
    return 0


def _run_from_config(cfg: dict, train_cfg: TrainConfig, checkpoint: str | None):
    if "dataset" not in cfg:
        raise ConfigError("config is missing the dataset key")
    ds = load_data_source(cfg["dataset"], train_cfg.seed)
    parts = cfg.get("parts", 1)
    part = partition_graph(ds.graph, parts, derive_seed(train_cfg.seed, "partition"))
    return run_training(train_cfg, ds, part,
                        dump_prefix=os.path.splitext(checkpoint)[0] if checkpoint else None,
                        checkpoint_path=checkpoint)


def _cmd_train(args) -> int:
    cfg = parse_config(args.config)
    train_cfg = train_config_from(cfg)
    records, _ = _run_from_config(cfg, train_cfg, args.checkpoint)
    if records:
        export_metrics(records, args.out)
    else:
        with open(args.out, "w") as f:
            f.write(csv_header(train_cfg.num_layers - 1, train_cfg.num_layers) + "\n")
    print(f"wrote {args.out}: {len(records)} steps")
    return 0


def _cmd_eval(args) -> int:
    ds = load_data_source(args.data, args.seed)
    params = load_checkpoint(args.checkpoint)
    if params.dims[0] != ds.num_features:
        raise ConfigError(
            f"checkpoint expects {params.dims[0]} features, dataset has {ds.num_features}")
    acc_tr, acc_val, acc_te = evaluate(normalize_adjacency(ds.graph), ds, params)
    print(f"acc_train={acc_tr:.9g} acc_val={acc_val:.9g} acc_test={acc_te:.9g}")
    return 0


def _cmd_bound_check(args) -> int:
    layers = tuple(int(x) for x in args.layers.split(","))
    ratio = run_bound_check(seeds=args.seeds, n=args.n, layer_choices=layers)
    print(f"max_ratio={ratio:.9g}")
    return 0


def _cmd_ablate_f(args) -> int:
    cfg = parse_config(args.config)
    f_values = [int(x) for x in args.f_values.split(",")]
    if not f_values:
        raise ConfigError("--f-values must name at least one frequency")
    rows: list[str] = []
    header = None
    for f_val in f_values:
        # refresh frequency only matters under the refresh regime; F=0 is the
        # plain history baseline
        sweep = dict(cfg)
        sweep["mode"] = "rest"
        sweep["F"] = f_val
        train_cfg = train_config_from(sweep)
        records, _ = _run_from_config(sweep, train_cfg, None)
        if header is None:
            header = "f," + csv_header(train_cfg.num_layers - 1, train_cfg.num_layers)
        rows.extend(f"{f_val},{format_record(r)}" for r in records)
    with open(args.out, "w") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(row + "\n")
    print(f"wrote {args.out}: F in {f_values}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> _Parser:
    p = _Parser(prog="staleburner",
                description="history-table GCN training engine")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("generate", help="synthesize a dataset directory")
    g.add_argument("--out", required=True)
    g.add_argument("--blocks", type=int, required=True)
    g.add_argument("--nodes-per-block", type=int, required=True)
    g.add_argument("--p-in", type=float, required=True)
    g.add_argument("--p-out", type=float, required=True)
    g.add_argument("--d-in", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=_cmd_generate)

    pa = sub.add_parser("partition", help="cluster a graph and emit clusters.csv")
    pa.add_argument("--data", required=True, help="dir:<path> or sbm:<k=v,...>")
    pa.add_argument("--parts", type=int, required=True)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--out", default="clusters.csv")
    pa.set_defaults(fn=_cmd_partition)

    t = sub.add_parser("train", help="run a training config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", default="metrics.csv")
    t.add_argument("--checkpoint", default=None)
    t.set_defaults(fn=_cmd_train)

    e = sub.add_parser("eval", help="whole-graph accuracy of a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(fn=_cmd_eval)

    b = sub.add_parser("bound-check", help="gradient-error bound dominance sweep")
    b.add_argument("--seeds", type=int, default=100)
    b.add_argument("--n", type=int, default=50)
    b.add_argument("--layers", default="2,3")
    b.set_defaults(fn=_cmd_bound_check)

    a = sub.add_parser("ablate-f", help="refresh-frequency sweep, merged CSV")
    a.add_argument("--config", required=True)
    a.add_argument("--f-values", default="0,1,2,4")
    a.add_argument("--out", default="ablate_f.csv")
    a.set_defaults(fn=_cmd_ablate_f)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (ConfigError, DatasetError, ValueError, OSError, FloatingPointError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
