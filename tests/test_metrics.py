import tracemalloc

import numpy as np
import pytest

from staleburner import boundcheck, metrics
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
    # EPS * beta * |N(v)| * |row_v| * err
    err = 0.37
    v = 5
    want = metrics.EPS * consts.beta[0] * consts.degrees[v] * consts.row_norms[v] * err
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
    assert len(consts.beta) == 2
    assert consts.beta == tuple(float(np.linalg.norm(w, 2)) for w in params.weights)
    assert all(b > 0 for b in consts.beta)
    assert metrics.EPS == 1.0
    assert consts.degrees.min() >= 1.0


def test_bound_constants_are_at_least_each_weights_largest_singular_value(monkeypatch):
    # criterion 3's depth-3 instance at seed 41: each weight's two largest
    # singular values lie within 14% of each other, where an iterative
    # estimate that stops early reads low
    seen = []
    real = boundcheck.bound_constants

    def recording(params, adj):
        seen.append((params, real(params, adj)))
        return seen[-1][1]

    monkeypatch.setattr(boundcheck, "bound_constants", recording)
    bound_check_instance(seed=41 * 7919 + 3, n=50, num_layers=3)
    (params, consts), = seen
    assert len(consts.beta) == 3
    for w, beta in zip(params.weights, consts.beta):
        sigma = float(np.sqrt(np.linalg.eigvalsh(w.T @ w).max()))
        assert beta >= sigma * (1.0 - 1e-12)


def test_matrix_form_propagates_with_factor_one():
    # |A|_2 = 1, so at 2 layers the matrix form is EPS * beta_2 * E_1
    ds = sbm_generate(3, 12, 0.3, 0.05, seed=11)
    adj = normalize_adjacency(ds.graph)
    params = init_params([ds.num_features, 5, ds.num_classes], seed=12)
    consts = bound_constants(params, adj)
    err = 0.37
    assert gradient_error_bound(consts, [0.0, err]) == metrics.EPS * consts.beta[1] * err


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


def whole_array_distance(a, b):
    """The one-pass formula the blocked pass must reproduce bit for bit."""
    return float(np.linalg.norm(a.astype(np.float64) - b, axis=1).mean())


def test_approximation_error_blocks_match_one_pass(monkeypatch):
    ds = sbm_generate(3, 10, 0.4, 0.05, seed=13)
    adj = normalize_adjacency(ds.graph)
    dims = [ds.num_features, 6, 5, ds.num_classes]
    hs, _ = full_forward(adj, ds.features, init_params(dims, seed=14))
    stale, _ = full_forward(adj, ds.features, init_params(dims, seed=15))
    every = np.arange(ds.graph.num_nodes)
    warm = np.flatnonzero(every % 3 != 1)  # 20 of 30 rows, gaps between
    # one row per block, 3 rows of the 6-wide layer, every row in one block
    for block_bytes in (1, 3 * 8 * 6, 1 << 30):
        monkeypatch.setattr(metrics, "APX_BLOCK_BYTES", block_bytes)
        # partly warm: gaps in layer 1, four rows of layer 2
        table = HistoryTable(ds.graph.num_nodes, dims[1:-1])
        table.push(1, warm, stale[0][warm], step=0)
        table.push(2, warm[:4], stale[1][warm[:4]], step=0)
        want = []
        for li in range(2):
            rows = table.last_update[:, li] != -1
            want.append(whole_array_distance(table.layers[li][rows], hs[li][rows]))
        assert approximation_error(table, hs) == want
        assert all(e > 0.0 for e in want)
        # every row warm: the blocks are row slices of the table
        for li in range(2):
            table.push(li + 1, every, stale[li], step=1)
        want = [whole_array_distance(table.layers[li], hs[li]) for li in range(2)]
        assert approximation_error(table, hs) == want
        # the array path: a run's logits against the oracle's
        assert (approximation_error(stale[-1], hs[-1])
                == whole_array_distance(stale[-1], hs[-1]))


def test_approximation_error_allocates_norms_and_one_block():
    """Each distance allocates the n-float norms vector and one block
    buffer; the table path also builds its n-bool warm mask."""
    n = 20000
    rng = np.random.default_rng(0)
    table = HistoryTable(n, [64])
    table.push(1, np.arange(n), rng.standard_normal((n, 64)), step=0)
    hs = [rng.standard_normal((n, 64)), rng.standard_normal((n, 20))]
    run_logits = rng.standard_normal((n, 20))
    slack = 4096
    tracemalloc.start()
    try:
        for call, bound in ((lambda: approximation_error(table, hs), 9 * n),
                            (lambda: approximation_error(run_logits, hs[1]), 8 * n)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= bound + metrics.APX_BLOCK_BYTES + slack
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("source,oracle", [
    (np.zeros((1, 3)), np.ones((5, 3))),
    (np.zeros((5, 1)), np.ones((5, 3))),
    (np.zeros(5), np.ones(5)),
], ids=["rows", "columns", "one-dimensional"])
def test_approximation_error_refuses_mismatched_arrays(source, oracle):
    with pytest.raises(ValueError) as err:
        approximation_error(source, oracle)
    assert str(source.shape) in str(err.value)
    assert str(oracle.shape) in str(err.value)


@pytest.mark.parametrize("oracle_shape", [(4, 3), (6, 3), (5, 2)],
                         ids=["fewer-rows", "more-rows", "columns"])
def test_approximation_error_refuses_mismatched_table(oracle_shape):
    table = HistoryTable(5, [3])
    table.push(1, np.arange(5), np.ones((5, 3)), step=0)
    with pytest.raises(ValueError) as err:
        approximation_error(table, [np.zeros(oracle_shape), np.zeros((5, 2))])
    assert "(5, 3)" in str(err.value)
    assert str(oracle_shape) in str(err.value)


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


def test_bound_check_depth_one_reads_zero():
    # one layer stores nothing: both sides are 0, which reads as ratio 0
    res = bound_check_instance(seed=3, n=30, num_layers=1)
    assert (res.matrix_ratio, res.node_ratio) == (0.0, 0.0)
    assert res.output_gap == res.output_bound == 0.0
    assert run_bound_check(seeds=2, n=30, layer_choices=(1,)) == 0.0


def test_bound_check_refuses_depth_below_one():
    for depth in (0, -1):
        with pytest.raises(ValueError, match=f"num_layers must be >= 1, got {depth}"):
            bound_check_instance(seed=0, n=30, num_layers=depth)
    with pytest.raises(ValueError, match="num_layers must be >= 1, got 0"):
        run_bound_check(seeds=1, n=30, layer_choices=(2, 0))


def test_bound_check_refuses_fewer_nodes_than_blocks():
    # n // 5 nodes per block: below 5, n was floored to 5-node graphs
    for n in (4, 3, 0, -5):
        with pytest.raises(ValueError, match=f"n must be >= 5, got {n}"):
            bound_check_instance(seed=0, n=n, num_layers=2)
    with pytest.raises(ValueError, match="n must be >= 5, got 3"):
        run_bound_check(seeds=1, n=3)
    assert bound_check_instance(seed=0, n=5, num_layers=2).matrix_ratio <= 1.0


def test_run_bound_check_refuses_no_seeds():
    with pytest.raises(ValueError, match="seeds must be >= 1, got 0"):
        run_bound_check(seeds=0, n=30)


def test_run_bound_check_aggregates():
    ratio = run_bound_check(seeds=3, n=30, layer_choices=(2,))
    assert 0.0 <= ratio <= 1.0


def test_export_empty_writes_header_only(tmp_path):
    path = tmp_path / "m.csv"
    export_metrics([], 3, str(path))
    assert path.read_text() == csv_header(3) + "\n"
    assert csv_header(3).split(",")[6:] == [
        "persist_mean_l1", "persist_mean_l2", "persist_max_l1", "persist_max_l2",
        "cold_rows", "apxerr_l1", "apxerr_l2", "apxerr_l3", "wall_ms"]


def test_export_single_record(tmp_path):
    path = tmp_path / "m.csv"
    export_metrics([make_record()], 2, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == csv_header(2)
    assert lines[0].split(",")[:6] == ["step", "epoch", "loss",
                                       "acc_train", "acc_val", "acc_test"]


def test_export_round_trip_values(tmp_path):
    records = [make_record(step=i + 1) for i in range(3)]
    path = tmp_path / "m.csv"
    export_metrics(records, 2, str(path))
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for rec, line in zip(records, lines[1:]):
        row = dict(zip(header, line.split(",")))
        assert int(row["step"]) == rec.step
        assert float(row["loss"]) == pytest.approx(rec.loss, rel=1e-8)
        assert float(row["apxerr_l2"]) == pytest.approx(rec.apx_err[1], rel=1e-8)
        assert float(row["persist_mean_l1"]) == pytest.approx(rec.persist_mean[0], rel=1e-8)
        assert int(row["persist_max_l1"]) == rec.persist_max[0]
