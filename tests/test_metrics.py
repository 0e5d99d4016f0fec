import numpy as np
import pytest

from staleburner import metrics
from staleburner.boundcheck import bound_check_instance, run_bound_check
from staleburner.graph import normalize_adjacency, sbm_generate
from staleburner.history import HistoryTable
from staleburner.metrics import (MetricsRecord, approximation_error,
                                 bound_constants, csv_header, export_metrics,
                                 gradient_error_bound)
from staleburner.model import Adam, full_forward, init_params, loss_and_grad


def make_record(step=1):
    return MetricsRecord(step=step, epoch=0, loss=1.25, acc_train=0.5,
                         acc_val=0.25, acc_test=0.125,
                         persist_mean=(1.5,), persist_max=(3,),
                         cold_rows=2, apx_err=(0.001, 0.002), wall_ms=0.0)


def test_rhs_zero_errors_gives_zero():
    ds = sbm_generate(2, 10, 0.4, 0.05, seed=1)
    adj = normalize_adjacency(ds.graph)
    params = init_params([ds.num_features, 4, ds.num_classes], seed=2)
    consts = bound_constants(params, adj)
    assert gradient_error_bound(consts, [0.0, 0.0]) == 0.0
    assert gradient_error_bound(consts, [0.0, 0.0], node=3) == 0.0


def test_rhs_single_layer_fresh_inputs():
    # one-layer model: the only error term is the input layer, which is
    # always fresh, so the bound is identically zero
    ds = sbm_generate(2, 10, 0.4, 0.05, seed=3)
    adj = normalize_adjacency(ds.graph)
    params = init_params([ds.num_features, ds.num_classes], seed=4)
    consts = bound_constants(params, adj)
    assert gradient_error_bound(consts, [0.0]) == 0.0
    # and with a synthetic input error the per-node form carries exactly
    # eps * beta * |N(v)| * |row_v| * err
    err = 0.37
    v = 5
    want = consts.eps * consts.beta[0] * consts.degrees[v] * consts.row_norms[v] * err
    assert gradient_error_bound(consts, [err], node=v) == pytest.approx(want, rel=1e-12)


def test_rhs_wrong_length_rejected():
    ds = sbm_generate(2, 8, 0.4, 0.05, seed=5)
    adj = normalize_adjacency(ds.graph)
    params = init_params([ds.num_features, 4, ds.num_classes], seed=6)
    consts = bound_constants(params, adj)
    with pytest.raises(ValueError):
        gradient_error_bound(consts, [0.0])


def test_bound_constants_structure():
    ds = sbm_generate(3, 12, 0.3, 0.05, seed=7)
    adj = normalize_adjacency(ds.graph)
    params = init_params([ds.num_features, 5, ds.num_classes], seed=8)
    consts = bound_constants(params, adj)
    consts.validate()
    assert len(consts.alpha) == len(consts.beta) == 2
    for a, b in zip(consts.alpha, consts.beta):
        assert a == pytest.approx(b * consts.adj_norm, rel=1e-12)
    assert consts.eps == 1.0
    assert consts.degrees.min() >= 1.0


def test_approximation_error_fresh_table_is_zero():
    ds = sbm_generate(3, 10, 0.4, 0.05, seed=9)
    adj = normalize_adjacency(ds.graph)
    dims = [ds.num_features, 6, ds.num_classes]
    params = init_params(dims, seed=10)
    hs, _ = full_forward(adj, ds.features, params)
    table = HistoryTable(ds.graph.num_nodes, dims[1:-1])
    errs = approximation_error(table, hs)
    assert errs == [0.0]  # untouched table reports zero, rows are all cold
    table.push(1, np.arange(ds.graph.num_nodes), hs[0], step=0)
    errs = approximation_error(table, hs)
    assert errs[0] <= 1e-6  # float32 storage rounding only


def test_approximation_error_blocks_match_one_pass(monkeypatch):
    ds = sbm_generate(3, 10, 0.4, 0.05, seed=13)
    adj = normalize_adjacency(ds.graph)
    dims = [ds.num_features, 6, 5, ds.num_classes]
    hs, _ = full_forward(adj, ds.features, init_params(dims, seed=14))
    stale, _ = full_forward(adj, ds.features, init_params(dims, seed=15))
    table = HistoryTable(ds.graph.num_nodes, dims[1:-1])
    warm = np.flatnonzero(np.arange(30) % 3 != 1)  # 20 of 30 rows, gaps between
    table.push(1, warm, stale[0][warm], step=0)
    table.push(2, warm[:4], stale[1][warm[:4]], step=0)
    # the whole-table formula the blocked pass replaces
    want = []
    for li in range(2):
        rows = table.last_update[:, li] != -1
        diff = table.layers[li][rows].astype(np.float64) - hs[li][rows]
        want.append(float(np.linalg.norm(diff, axis=1).mean()))
    monkeypatch.setattr(metrics, "APX_BLOCK_ROWS", 3)
    assert approximation_error(table, hs) == want
    assert all(e > 0.0 for e in want)


def test_approximation_error_grows_after_update():
    ds = sbm_generate(3, 10, 0.4, 0.05, seed=11)
    adj = normalize_adjacency(ds.graph)
    dims = [ds.num_features, 6, ds.num_classes]
    params = init_params(dims, seed=12)
    hs, cache = full_forward(adj, ds.features, params)
    table = HistoryTable(ds.graph.num_nodes, dims[1:-1])
    table.push(1, np.arange(ds.graph.num_nodes), hs[0], step=0)

    from staleburner.model import backward
    loss, dlog = loss_and_grad(hs[-1], ds.labels, ds.train_mask)
    grads, _ = backward(cache, dlog, params)
    Adam(lr=0.05).step(params, grads)
    hs2, _ = full_forward(adj, ds.features, params)
    errs = approximation_error(table, hs2)
    assert errs[0] > 1e-6
    out_err = approximation_error(hs[-1], hs2[-1])
    assert out_err > 0.0


def test_bound_dominates_measured_gradient_error():
    for seed in range(10):
        res = bound_check_instance(seed=seed, n=50, num_layers=2)
        assert res.matrix_ratio <= 1.0
        assert res.node_ratio <= 1.0
        assert res.output_gap <= res.output_bound


def test_bound_dominates_three_layers():
    for seed in range(5):
        res = bound_check_instance(seed=seed, n=40, num_layers=3)
        assert res.matrix_ratio <= 1.0
        assert res.node_ratio <= 1.0


def test_run_bound_check_aggregates():
    ratio = run_bound_check(seeds=3, n=30, layer_choices=(2,))
    assert 0.0 <= ratio <= 1.0


def test_export_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        export_metrics([], str(tmp_path / "m.csv"))


def test_export_single_record(tmp_path):
    path = tmp_path / "m.csv"
    export_metrics([make_record()], str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == csv_header(1, 2)
    assert lines[0].split(",")[:6] == ["step", "epoch", "loss",
                                       "acc_train", "acc_val", "acc_test"]


def test_export_round_trip_values(tmp_path):
    records = [make_record(step=i + 1) for i in range(3)]
    path = tmp_path / "m.csv"
    export_metrics(records, str(path))
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for rec, line in zip(records, lines[1:]):
        row = dict(zip(header, line.split(",")))
        assert int(row["step"]) == rec.step
        assert float(row["loss"]) == pytest.approx(rec.loss, rel=1e-8)
        assert float(row["apxerr_l2"]) == pytest.approx(rec.apx_err[1], rel=1e-8)
        assert float(row["persist_mean_l1"]) == pytest.approx(rec.persist_mean[0], rel=1e-8)
        assert int(row["persist_max_l1"]) == rec.persist_max[0]
