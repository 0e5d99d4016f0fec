import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from staleburner import cli
from staleburner.cli import (ConfigError, load_data_source, main, parse_config,
                             train_config_from)
from staleburner.graph import load_dataset
from staleburner.partition import partition_graph
from staleburner.rng import derive_seed
from staleburner.trainer import TrainConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, **overrides):
    base = {
        "dataset": "sbm:blocks=3,nodes_per_block=12,p_in=0.4,p_out=0.05",
        "parts": 3, "mode": "rest", "F": 1, "c": 1, "epochs": 2,
        "seed": 5, "lr": 0.01, "hidden": 6, "layers": 2, "probe_every": 1,
    }
    base.update(overrides)
    path.write_text("# test config\n" +
                    "".join(f"{k}={v}\n" for k, v in base.items()))
    return str(path)


def test_generate_writes_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    code, stdout, _ = run_cli(capsys, "generate", "--out", str(out),
                              "--blocks", "3", "--nodes-per-block", "10",
                              "--p-in", "0.5", "--p-out", "0.05", "--seed", "2")
    assert code == 0
    assert "30 nodes" in stdout
    ds = load_dataset(str(out))
    assert ds.graph.num_nodes == 30


def test_partition_emits_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "clusters.csv"
    code, stdout, _ = run_cli(capsys, "partition",
                              "--data", "sbm:blocks=2,nodes_per_block=20,p_in=0.5,p_out=0.02",
                              "--parts", "2", "--out", str(out))
    assert code == 0
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert summary["parts"] == 2
    assert set(summary) == {"parts", "edge_cut", "max_size"}
    lines = out.read_text().splitlines()
    assert len(lines) == 40
    assert lines[0].split(",")[0] == "0"
    # the bytes: one "node,cluster" line per node, in node order
    ds = load_data_source("sbm:blocks=2,nodes_per_block=20,p_in=0.5,p_out=0.02", 0)
    part = partition_graph(ds.graph, 2, derive_seed(0, "partition"))
    want = "".join(f"{v},{int(part.cluster_of[v])}\n" for v in range(40))
    assert out.read_bytes() == want.encode()


def test_partition_refuses_a_table_above_the_limit(tmp_path, capsys):
    out = tmp_path / "clusters.csv"
    code, _, stderr = run_cli(capsys, "partition", "--data",
                              "sbm:blocks=12,nodes_per_block=1000,p_in=0.002,p_out=1e-5",
                              "--parts", "12000", "--out", str(out))
    assert code == 1
    assert stderr.startswith("error: ValueError: 12000 nodes at 12000 parts need a 137 MiB")
    assert not out.exists()


def test_train_writes_metrics(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg")
    out = tmp_path / "metrics.csv"
    code, stdout, _ = run_cli(capsys, "train", "--config", cfg, "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3  # header + epochs * clusters
    assert lines[0].startswith("step,epoch,loss")


def test_train_zero_epochs_header_only(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", epochs=0)
    out = tmp_path / "metrics.csv"
    code, _, _ = run_cli(capsys, "train", "--config", cfg, "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("step,epoch,loss")


@pytest.mark.parametrize("layers,header", [
    (2, "step,epoch,loss,acc_train,acc_val,acc_test,persist_mean_l1,persist_max_l1,"
        "cold_rows,apxerr_l1,apxerr_l2,wall_ms\n"),
    (3, "step,epoch,loss,acc_train,acc_val,acc_test,persist_mean_l1,persist_mean_l2,"
        "persist_max_l1,persist_max_l2,cold_rows,apxerr_l1,apxerr_l2,apxerr_l3,wall_ms\n"),
])
def test_train_zero_epochs_writes_header_bytes(tmp_path, capsys, layers, header):
    cfg = write_config(tmp_path / "c.cfg", epochs=0, layers=layers)
    out = tmp_path / "metrics.csv"
    assert run_cli(capsys, "train", "--config", cfg, "--out", str(out))[0] == 0
    assert out.read_bytes() == header.encode()


def test_train_divergence_leaves_dump_next_to_checkpoint(tmp_path):
    # the parameters blow up in the first step: evaluate's forward is the
    # first to go non-finite, so the dump must cover it. Run as a user runs
    # it, so that numpy's warnings would reach stderr: the error line must
    # be all it prints.
    cfg = write_config(tmp_path / "c.cfg", mode="gas", lr=1e300)
    ckpt = tmp_path / "m.ckpt"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "staleburner.cli", "train", "--config",
                           cfg, "--out", str(tmp_path / "m.csv"), "--checkpoint", str(ckpt)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: FloatingPointError:")
    assert (tmp_path / "m_diverged.ckpt").exists()
    assert (tmp_path / "m_history_l1.bin").exists()


def test_train_is_bit_reproducible(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg")
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert run_cli(capsys, "train", "--config", cfg, "--out", str(out1))[0] == 0
    assert run_cli(capsys, "train", "--config", cfg, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_env_seed_overrides_config(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path / "c.cfg", seed=5)
    base = tmp_path / "base.csv"
    assert run_cli(capsys, "train", "--config", cfg, "--out", str(base))[0] == 0

    monkeypatch.setenv("STALEBURNER_SEED", "99")
    env_out = tmp_path / "env.csv"
    assert run_cli(capsys, "train", "--config", cfg, "--out", str(env_out))[0] == 0
    assert env_out.read_bytes() != base.read_bytes()

    cfg99 = write_config(tmp_path / "c99.cfg", seed=99)
    monkeypatch.delenv("STALEBURNER_SEED")
    want = tmp_path / "want.csv"
    assert run_cli(capsys, "train", "--config", cfg99, "--out", str(want))[0] == 0
    assert env_out.read_bytes() == want.read_bytes()


def test_unknown_flag_exits_2(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "train", "--config", "x.cfg", "--frobnicate")
    assert code == 2
    assert "--frobnicate" in stderr
    assert len([l for l in stderr.strip().splitlines() if l.startswith("error")]) == 1


# refresh_mode, sampler, parallel_refresh, dropout, beta1, beta2 and adam_eps
# were keys once; a stale config that still sets them is rejected, not
# silently run with the defaults
@pytest.mark.parametrize("key", ["batchsize", "refresh_mode", "sampler",
                                 "parallel_refresh", "dropout", "beta1", "beta2",
                                 "adam_eps"])
def test_unknown_config_key_fails(tmp_path, capsys, key):
    path = tmp_path / "bad.cfg"
    path.write_text(f"mode=rest\n{key}=4\n")
    code, _, stderr = run_cli(capsys, "train", "--config", str(path))
    assert code == 1
    assert f"unknown key {key!r}" in stderr
    assert ":2" in stderr


def test_missing_dataset_key_fails(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("mode=gas\nepochs=1\n")
    code, _, stderr = run_cli(capsys, "train", "--config", str(path))
    assert code == 1
    assert "dataset" in stderr


def test_parse_config_types(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("lr=0.05\nepochs=3\nmode=gas\n# comment\n\n")
    cfg = parse_config(str(path))
    assert cfg == {"lr": 0.05, "epochs": 3, "mode": "gas"}
    path.write_text("epochs=three\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(str(path))


def test_parse_config_refuses_a_key_set_twice(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("lr=0.05\n# comment\nepochs=3\n\nlr = 0.1\n")
    with pytest.raises(ConfigError, match="c.cfg:5: key 'lr' already set on line 1"):
        parse_config(str(path))


def test_sbm_source_refuses_a_field_set_twice():
    with pytest.raises(ConfigError, match="sbm field 'blocks' is given twice"):
        load_data_source("sbm:blocks=2,nodes_per_block=5,p_in=0.5,p_out=0.1,blocks=3", 0)


def test_sbm_source_names_a_field_with_a_bad_value():
    with pytest.raises(ConfigError, match="bad value 'abc' for sbm field blocks"):
        load_data_source("sbm:blocks=abc,nodes_per_block=5,p_in=0.5,p_out=0.1", 0)


def test_config_keys_land_on_train_config_fields(tmp_path, monkeypatch):
    monkeypatch.delenv("STALEBURNER_SEED", raising=False)
    # a key left out keeps the TrainConfig default
    assert train_config_from({}) == TrainConfig()
    path = tmp_path / "c.cfg"
    path.write_text("dataset=sbm:blocks=2,nodes_per_block=5,p_in=0.5,p_out=0.1\n"
                    "parts=3\nmode=rest_is\nF=3\nc=2\nepochs=4\nseed=7\n"
                    "lr=0.02\nweight_decay=0.001\nhidden=9\nlayers=3\n"
                    "warmup_refresh=1\nprobe_every=2\ntiming=1\n")
    want = TrainConfig(mode="rest_is", refresh_per_step=3, clusters_per_batch=2,
                       epochs=4, seed=7, lr=0.02, weight_decay=0.001, hidden=9,
                       num_layers=3, warmup_refresh=True, probe_every=2, timing=True)
    got = train_config_from(parse_config(str(path)))
    assert got == want
    # every field was set away from its default, so none was left behind
    assert all(getattr(got, f.name) != f.default for f in dataclasses.fields(TrainConfig))


def test_checkpoint_and_eval(tmp_path, capsys):
    data_dir = tmp_path / "data"
    run_cli(capsys, "generate", "--out", str(data_dir), "--blocks", "3",
            "--nodes-per-block", "12", "--p-in", "0.5", "--p-out", "0.05",
            "--seed", "4")
    cfg = write_config(tmp_path / "c.cfg", dataset=f"dir:{data_dir}")
    ckpt = tmp_path / "model.ckpt"
    code, _, _ = run_cli(capsys, "train", "--config", cfg,
                         "--out", str(tmp_path / "m.csv"), "--checkpoint", str(ckpt))
    assert code == 0
    assert ckpt.exists()
    code, stdout, _ = run_cli(capsys, "eval", "--checkpoint", str(ckpt),
                              "--data", f"dir:{data_dir}")
    assert code == 0
    line = stdout.strip().splitlines()[-1]
    assert line.startswith("acc_train=")
    parts = dict(kv.split("=") for kv in line.split())
    assert 0.0 <= float(parts["acc_val"]) <= 1.0


def test_eval_refuses_checkpoint_with_wrong_class_count(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg",  # 3 classes
                       dataset="sbm:blocks=3,nodes_per_block=12,p_in=0.4,p_out=0.05,d_in=6")
    ckpt = tmp_path / "model.ckpt"
    code, _, _ = run_cli(capsys, "train", "--config", cfg, "--out", str(tmp_path / "m.csv"),
                         "--checkpoint", str(ckpt))
    assert code == 0
    # the same feature width, 5 classes
    code, stdout, stderr = run_cli(
        capsys, "eval", "--checkpoint", str(ckpt),
        "--data", "sbm:blocks=5,nodes_per_block=12,p_in=0.4,p_out=0.05,d_in=6")
    assert code == 1
    assert stdout == ""
    lines = stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ConfigError:")
    assert "3 classes" in lines[0] and "has 5" in lines[0]


def test_eval_is_deterministic_on_regenerated_dataset(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg")
    ckpt = tmp_path / "model.ckpt"
    run_cli(capsys, "train", "--config", cfg, "--out", str(tmp_path / "m.csv"),
            "--checkpoint", str(ckpt))
    # --seed 5 makes eval derive the same dataset seed the training run used
    argv = ["eval", "--checkpoint", str(ckpt), "--seed", "5",
            "--data", "sbm:blocks=3,nodes_per_block=12,p_in=0.4,p_out=0.05"]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out1 == out2
    parts = dict(kv.split("=") for kv in out1.strip().splitlines()[-1].split())
    assert 0.0 <= float(parts["acc_train"]) <= 1.0


def test_bound_check_smoke(capsys):
    code, stdout, _ = run_cli(capsys, "bound-check", "--seeds", "3", "--n", "30",
                              "--layers", "2")
    assert code == 0
    line = stdout.strip().splitlines()[-1]
    assert line.startswith("max_ratio=")
    assert float(line.split("=")[1]) <= 1.0


def test_bound_check_depth_one_reads_zero(capsys):
    code, stdout, stderr = run_cli(capsys, "bound-check", "--seeds", "2", "--n", "30",
                                   "--layers", "1")
    assert (code, stdout, stderr) == (0, "max_ratio=0\n", "")


@pytest.mark.parametrize("flag,value,name", [("--layers", "0", "num_layers"),
                                             ("--layers", "2,0", "num_layers"),
                                             ("--seeds", "0", "seeds"),
                                             ("--seeds", "-1", "seeds")])
def test_bound_check_refuses_depth_or_seeds_below_one(capsys, flag, value, name):
    code, stdout, stderr = run_cli(capsys, "bound-check", "--n", "30", flag, value)
    assert code == 1 and stdout == ""
    lines = stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ValueError:")
    assert f"{name} must be >= 1, got {value.split(',')[-1]}" in lines[0]


@pytest.mark.parametrize("n", ["4", "3", "0", "-5"])
def test_bound_check_refuses_n_below_five(capsys, n):
    code, stdout, stderr = run_cli(capsys, "bound-check", "--seeds", "1", "--n", n)
    assert code == 1 and stdout == ""
    lines = stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ValueError:")
    assert f"n must be >= 5, got {n}" in lines[0]


@pytest.mark.parametrize("argv", [
    ["generate", "--out", "x", "--blocks", "3", "--nodes-per-block", "10",
     "--p-in", "0.5", "--p-out", "0.05", "--d-in", "-3"],
    ["partition", "--parts", "2", "--out", "x",
     "--data", "sbm:blocks=3,nodes_per_block=10,p_in=0.5,p_out=0.05,d_in=-3"],
])
def test_negative_d_in_is_refused(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert stderr == "error: ValueError: d_in must be >= 0, got -3\n"
    assert not (tmp_path / "x").exists()


def test_ablate_f_merged_csv(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", epochs=1)
    out = tmp_path / "ablate.csv"
    code, _, _ = run_cli(capsys, "ablate-f", "--config", cfg,
                         "--f-values", "0,1", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("f,step,epoch,loss")
    f_col = {line.split(",")[0] for line in lines[1:]}
    assert f_col == {"0", "1"}
    assert len(lines) == 1 + 2 * 3  # two runs x one epoch x 3 clusters


def test_ablate_f_sets_up_once(tmp_path, capsys, monkeypatch):
    """Neither the dataset nor the partition reads F: the sweep builds them
    once, and each F's rows are what `train` writes for that F."""
    calls = []
    partition = cli.partition_graph
    monkeypatch.setattr(cli, "partition_graph",
                        lambda *a, **k: calls.append(1) or partition(*a, **k))
    out = tmp_path / "ablate.csv"
    code, _, _ = run_cli(capsys, "ablate-f", "--config", write_config(tmp_path / "c.cfg"),
                         "--f-values", "0,1,2", "--out", str(out))
    assert code == 0
    assert len(calls) == 1
    header, *rows = out.read_text().splitlines()
    for f_val in (0, 1, 2):
        metrics = tmp_path / f"m{f_val}.csv"
        cfg = write_config(tmp_path / f"c{f_val}.cfg", mode="rest", F=f_val)
        assert run_cli(capsys, "train", "--config", cfg, "--out", str(metrics))[0] == 0
        train_header, *train_rows = metrics.read_text().splitlines()
        assert header == "f," + train_header
        assert [r for r in rows if r.startswith(f"{f_val},")] == \
            [f"{f_val},{r}" for r in train_rows]


def test_ablate_f_empty_f_values_fails(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", epochs=1)
    code, _, stderr = run_cli(capsys, "ablate-f", "--config", cfg,
                              "--f-values", "", "--out", str(tmp_path / "a.csv"))
    assert code == 1
    assert stderr.strip().startswith("error:")
    assert len(stderr.strip().splitlines()) == 1


def test_missing_data_dir_fails_cleanly(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "eval", "--checkpoint", "nope.ckpt",
                              "--data", f"dir:{tmp_path / 'absent'}")
    assert code == 1
    assert stderr.strip().startswith("error:")
    assert len(stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("key", ["warmup_refresh", "timing"])
def test_flags_accept_only_0_and_1(tmp_path, key):
    path = tmp_path / "c.cfg"
    for value, parsed in (("0", 0), ("1", 1), (" 1 ", 1)):
        path.write_text(f"{key}={value}\n")
        assert parse_config(str(path)) == {key: parsed}
    for value in ("7", "-3", "2", "-1", "true", "1.0"):
        path.write_text(f"mode=gas\n{key}={value}\n")
        with pytest.raises(ConfigError, match=f"c.cfg:2: bad value '{value}' for {key}"):
            parse_config(str(path))
