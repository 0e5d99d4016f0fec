import json

import pytest

from staleburner.cli import main, parse_config, ConfigError
from staleburner.graph import load_dataset


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


def test_unknown_config_key_fails(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("mode=rest\nbatchsize=4\n")
    code, _, stderr = run_cli(capsys, "train", "--config", str(path))
    assert code == 1
    assert "batchsize" in stderr
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


def test_missing_data_dir_fails_cleanly(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "eval", "--checkpoint", "nope.ckpt",
                              "--data", f"dir:{tmp_path / 'absent'}")
    assert code == 1
    assert stderr.strip().startswith("error:")
    assert len(stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("key", ["warmup_refresh", "timing", "parallel_refresh"])
def test_flags_accept_only_0_and_1(tmp_path, key):
    path = tmp_path / "c.cfg"
    for value, parsed in (("0", 0), ("1", 1), (" 1 ", 1)):
        path.write_text(f"{key}={value}\n")
        assert parse_config(str(path)) == {key: parsed}
    for value in ("7", "-3", "2", "-1", "true", "1.0"):
        path.write_text(f"mode=gas\n{key}={value}\n")
        with pytest.raises(ConfigError, match=f"c.cfg:2: bad value '{value}' for {key}"):
            parse_config(str(path))
