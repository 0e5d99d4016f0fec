"""Command-line entry point for reproducible experiment runs.

Config files are flat key=value text (one pair per line, '#' comments).
Recognized keys:

    dataset        dir:<path> | sbm:blocks=..,nodes_per_block=..,p_in=..,
                   p_out=..[,d_in=..][,seed=..]   (required for train; an sbm
                   field given twice or left unreadable is refused)
    parts          cluster count for the partitioner (default 1)
    mode           full | gas | rest | rest_is, one entry each of the
                   trainer's REFRESH table
    F              refresh batches per gradient step. Every memory mode
                   schedules them, only rest refreshes them (rest_is
                   refreshes each gradient batch's halo in one forward)
    c              clusters per batch
    epochs, seed
    lr, weight_decay   Adam runs at beta1 0.9, beta2 0.999, eps 1e-8
    hidden, layers
    warmup_refresh 0|1    one gradient-free whole-graph refresh before training
    probe_every    approximation-error probe cadence in steps (0 = off)
    timing         0|1    record real wall-clock ms (off keeps runs bit-reproducible)

Refresh batches run one after another, and every epoch repeats one
round-robin plan. Unknown keys are rejected, the deleted beta1, beta2 and
adam_eps among them; a key left out keeps its TrainConfig default. The
STALEBURNER_SEED environment variable, when set, overrides the config seed.

`train` writes one metrics.csv row per step after its header, the header
alone for a run of no step. With --checkpoint m.ckpt it saves the
parameters to m.ckpt after every epoch, and a run that diverges leaves
m_diverged.ckpt and one m_history_l<k>.bin per stored layer. `eval` prints
the whole-graph accuracies of a checkpoint on a dataset. `bound-check`
refuses a depth or a seed count below 1. `generate` and the sbm source
refuse a d_in below 0; d_in 0 gives one feature column per block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .boundcheck import run_bound_check
from .graph import (Dataset, DatasetError, load_dataset, normalize_adjacency,
                    sbm_generate, save_dataset)
from .metrics import csv_header, export_metrics, format_record
from .model import full_forward
from .partition import Partition, partition_graph
from .rng import derive_seed
from .trainer import TrainConfig, evaluate, load_checkpoint, run_training

def _flag(text: str) -> bool:
    """A 0|1 value; any other integer is rejected, not read as true."""
    value = int(text)
    if value not in (0, 1):
        raise ValueError(f"{text!r} is not 0 or 1")
    return value == 1


_CONFIG_KEYS = {
    "dataset": str, "parts": int, "mode": str, "F": int, "c": int,
    "epochs": int, "seed": int, "lr": float, "weight_decay": float,
    "hidden": int, "layers": int, "warmup_refresh": _flag, "probe_every": int,
    "timing": _flag,
}
# config keys named differently from their TrainConfig field
_FIELD_OF = {"F": "refresh_per_step", "c": "clusters_per_batch",
             "layers": "num_layers"}


class ConfigError(ValueError):
    pass


def parse_config(path: str) -> dict:
    out: dict = {}
    line_of: dict[str, int] = {}
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
            if key in line_of:
                raise ConfigError(
                    f"{path}:{ln}: key {key!r} already set on line {line_of[key]}")
            line_of[key] = ln
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
    """sbm_generate's keyword arguments from 'k=v,...'. An unknown field, a
    field given twice or a value its type cannot read raises ConfigError
    naming the field."""
    fields = {"blocks": int, "nodes_per_block": int, "p_in": float,
              "p_out": float, "d_in": int, "seed": int}
    out = {}
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"sbm parameter {item!r} is not key=value")
        key, value = item.split("=", 1)
        if key not in fields:
            raise ConfigError(f"unknown sbm field {key!r}")
        if key in out:
            raise ConfigError(f"sbm field {key!r} is given twice")
        try:
            out[key] = fields[key](value)
        except ValueError:
            raise ConfigError(f"bad value {value!r} for sbm field {key}") from None
    for req in ("blocks", "nodes_per_block", "p_in", "p_out"):
        if req not in out:
            raise ConfigError(f"sbm parameters missing {req}")
    return {"d_in": 0, "seed": default_seed, **out}


def load_data_source(source: str, run_seed: int) -> Dataset:
    """'dir:<path>' loads the on-disk format; 'sbm:<k=v,...>' synthesizes."""
    if source.startswith("dir:"):
        return load_dataset(source[4:])
    if source.startswith("sbm:"):
        kw = _parse_sbm_params(source[4:], derive_seed(run_seed, "dataset"))
        return sbm_generate(**kw)
    raise ConfigError(f"dataset source must start with dir: or sbm:, got {source!r}")


def train_config_from(cfg: dict) -> TrainConfig:
    """The TrainConfig a parsed config sets; the run-level keys (dataset,
    parts) are not its fields."""
    tc = TrainConfig(**{_FIELD_OF.get(k, k): v for k, v in cfg.items()
                        if k not in ("dataset", "parts")})
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
        f.write("".join(map("{},{}\n".format, range(ds.graph.num_nodes),
                            part.cluster_of.tolist())))
    sizes = [len(c) for c in part.clusters]
    print(json.dumps({"parts": part.num_parts, "edge_cut": part.edge_cut,
                      "max_size": max(sizes)}))
    return 0


def _setup(cfg: dict, seed: int) -> tuple[Dataset, Partition]:
    """The dataset and partition of a run config. Neither reads the mode or
    F, so one set-up serves every run of an ablate-f sweep."""
    if "dataset" not in cfg:
        raise ConfigError("config is missing the dataset key")
    ds = load_data_source(cfg["dataset"], seed)
    return ds, partition_graph(ds.graph, cfg.get("parts", 1), derive_seed(seed, "partition"))


def _cmd_train(args) -> int:
    cfg = parse_config(args.config)
    train_cfg = train_config_from(cfg)
    ds, part = _setup(cfg, train_cfg.seed)
    records, _ = run_training(train_cfg, ds, part, checkpoint_path=args.checkpoint)
    export_metrics(records, train_cfg.num_layers, args.out)
    print(f"wrote {args.out}: {len(records)} steps")
    return 0


def _cmd_eval(args) -> int:
    ds = load_data_source(args.data, args.seed)
    params = load_checkpoint(args.checkpoint)
    if params.dims[0] != ds.num_features:
        raise ConfigError(
            f"checkpoint expects {params.dims[0]} features, dataset has {ds.num_features}")
    if params.dims[-1] != ds.num_classes:
        raise ConfigError(
            f"checkpoint outputs {params.dims[-1]} classes, dataset has {ds.num_classes}")
    g_norm = normalize_adjacency(ds.graph)
    acc_tr, acc_val, acc_te = evaluate(
        ds, lambda: full_forward(g_norm, ds.features, params, keep_z=False, masks=False,
                                 transform_first=True)[1])
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
    # F only matters in rest mode, where F=0 is the plain history baseline;
    # every F value is checked before any work
    train_cfgs = [train_config_from({**cfg, "mode": "rest", "F": f_val})
                  for f_val in f_values]
    ds, part = _setup(cfg, train_cfgs[0].seed)
    lines = ["f," + csv_header(train_cfgs[0].num_layers)]
    for f_val, train_cfg in zip(f_values, train_cfgs):
        records, _ = run_training(train_cfg, ds, part)
        lines += [f"{f_val},{format_record(r)}" for r in records]
    with open(args.out, "w") as f:
        f.write("".join(line + "\n" for line in lines))
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
    """Run one command; an error prints one `error:` line and returns 1.
    numpy's overflow and invalid-value warnings are silenced while the
    command runs, in every thread: a diverging run is reported by its own
    finiteness checks, and the warnings would only precede that line."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"(overflow|invalid value) encountered",
                                    RuntimeWarning)
            return args.fn(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (ConfigError, DatasetError, ValueError, OSError, FloatingPointError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
