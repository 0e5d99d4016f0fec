import tracemalloc

import numpy as np
import pytest

from staleburner import graph
from staleburner.graph import NormAdj, csr_from_edges, normalize_adjacency, sbm_generate
from staleburner.history import HistoryTable
from staleburner.model import (FINITE_BLOCK_VALUES, Adam, GcnParams, Grads, accuracy,
                               backward, check_finite, full_forward, init_params, layer_apply,
                               loss_and_grad)
from staleburner.partition import make_batch, partition_graph
from staleburner.trainer import TrainState, batch_forward_with_history, rest_refresh_pass

from conftest import (dense_forward, dense_norm_adj, fd_param_grads,
                      max_rel_err, path_graph)


def isolated_graph():
    return csr_from_edges(1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))


def test_forward_isolated_node_identity_weights():
    adj = normalize_adjacency(isolated_graph())
    x = np.array([[0.3, 0.7]], dtype=np.float32)
    params = GcnParams(weights=[np.eye(2), np.eye(2)],
                       biases=[np.zeros(2), np.zeros(2)])
    hs, _ = full_forward(adj, x, params)
    assert np.allclose(hs[0], x, atol=1e-12)  # propagation is [[1]], relu no-op
    assert np.allclose(hs[1], x, atol=1e-12)


def test_forward_zero_weights_zero_logits():
    ds = sbm_generate(3, 8, 0.5, 0.1, seed=2)
    adj = normalize_adjacency(ds.graph)
    params = init_params([ds.num_features, 5, 3], seed=1)
    for w in params.weights:
        w[:] = 0.0
    hs, _ = full_forward(adj, ds.features, params)
    assert np.all(hs[-1] == 0.0)


def test_forward_matches_dense_oracle():
    g = path_graph(3)
    adj = normalize_adjacency(g)
    x = np.random.default_rng(0).normal(size=(3, 4)).astype(np.float32)
    params = init_params([4, 6, 2], seed=3)
    hs, _ = full_forward(adj, x, params)
    ref = dense_forward(dense_norm_adj(g), x, params)
    for got, want in zip(hs, ref):
        assert np.allclose(got, want, atol=1e-6)


def test_forward_permutation_equivariance():
    ds = sbm_generate(3, 10, 0.4, 0.05, seed=4)
    adj = normalize_adjacency(ds.graph)
    params = init_params([ds.num_features, 7, 3], seed=5)
    hs, _ = full_forward(adj, ds.features, params)

    rng = np.random.default_rng(6)
    perm = rng.permutation(30)
    inv = np.argsort(perm)
    # relabel nodes by perm: node v becomes perm[v]
    rows = np.repeat(np.arange(30), np.diff(ds.graph.row_ptr))
    src, dst = perm[rows], perm[ds.graph.col_idx]
    keep = src < dst
    g2 = csr_from_edges(30, src[keep], dst[keep])
    hs2, _ = full_forward(normalize_adjacency(g2), ds.features[inv], params)
    assert np.allclose(hs2[-1], hs[-1][inv], atol=1e-6)


def test_loss_uniform_logits():
    logits = np.zeros((6, 4))
    labels = np.array([0, 1, 2, 3, 0, 1])
    mask = np.ones(6, dtype=bool)
    loss, dlogits = loss_and_grad(logits, labels, mask)
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)
    assert dlogits.shape == (6, 4)


def test_loss_saturated_correct_prediction():
    logits = np.zeros((1, 3))
    logits[0, 2] = 1e6
    loss, dlogits = loss_and_grad(logits, np.array([2]), np.ones(1, dtype=bool))
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(dlogits, 0.0, atol=1e-12)


def test_loss_respects_mask():
    logits = np.random.default_rng(1).normal(size=(4, 3))
    labels = np.array([0, 1, 2, 0])
    mask = np.array([True, False, True, False])
    _, dlogits = loss_and_grad(logits, labels, mask)
    assert np.all(dlogits[~mask] == 0.0)
    with pytest.raises(ValueError, match="empty mask"):
        loss_and_grad(logits, labels, np.zeros(4, dtype=bool))


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    mask = np.array([True, True, False, True, True])
    _, dlogits = loss_and_grad(logits, labels, mask)
    fd = np.zeros_like(logits)
    h = 1e-4
    for i in range(5):
        for j in range(3):
            up, down = logits.copy(), logits.copy()
            up[i, j] += h
            down[i, j] -= h
            fd[i, j] = (loss_and_grad(up, labels, mask)[0]
                        - loss_and_grad(down, labels, mask)[0]) / (2 * h)
    assert max_rel_err(dlogits, fd, floor=1e-5) <= 1e-5


def test_backward_zero_upstream_gives_zero_grads():
    ds = sbm_generate(2, 6, 0.5, 0.1, seed=8)
    adj = normalize_adjacency(ds.graph)
    params = init_params([ds.num_features, 4, 2], seed=9)
    hs, cache = full_forward(adj, ds.features, params)
    grads, _ = backward(cache, np.zeros_like(hs[-1]), params)
    assert all(np.all(g == 0.0) for g in grads.weights + grads.biases)


def test_backward_single_node_linear_closed_form():
    adj = normalize_adjacency(isolated_graph())
    x = np.array([[0.5, -1.5, 2.0]], dtype=np.float64)
    params = init_params([3, 2], seed=11)
    hs, cache = full_forward(adj, x, params)
    _, dlogits = loss_and_grad(hs[-1], np.array([1]), np.ones(1, dtype=bool))
    grads, _ = backward(cache, dlogits, params)
    assert np.allclose(grads.weights[0], x.T @ dlogits, atol=1e-12)
    assert np.allclose(grads.biases[0], dlogits[0], atol=1e-12)


@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_backward_matches_finite_differences(num_layers):
    from conftest import smooth_gradcheck_instance
    ds, adj, params = smooth_gradcheck_instance(40 + num_layers, num_layers)
    hs, cache = full_forward(adj, ds.features, params)
    loss, dlogits = loss_and_grad(hs[-1], ds.labels, ds.train_mask)
    grads, _ = backward(cache, dlogits, params)

    def loss_of(p):
        out, _ = full_forward(adj, ds.features, p)
        return loss_and_grad(out[-1], ds.labels, ds.train_mask)[0]

    fd = fd_param_grads(loss_of, params, step=1e-4)
    analytic = grads.weights + grads.biases
    for a, f in zip(analytic, fd):
        assert max_rel_err(a, f) <= 1e-4


def reference_loss_and_grad(logits, labels, mask):
    """The out-of-place formula loss_and_grad computed before it worked in
    its masked copy."""
    count = int(np.count_nonzero(mask))
    z = logits[mask]
    y = labels[mask]
    z = z - z.max(axis=1, keepdims=True)
    expz = np.exp(z)
    denom = expz.sum(axis=1)
    logp = z[np.arange(len(y)), y] - np.log(denom)
    loss = float(-logp.mean())
    d = expz / denom[:, None]
    d[np.arange(len(y)), y] -= 1.0
    d /= count
    dlogits = np.zeros_like(logits)
    dlogits[mask] = d
    return loss, dlogits


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loss_matches_out_of_place_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=10.0, size=(200, 7))
    logits[3, 2] = 1e6  # saturated row
    logits[5] = 0.0     # uniform row
    labels = rng.integers(0, 7, size=200)
    mask = rng.random(200) < 0.4
    mask[[3, 5]] = True
    before = logits.copy()
    loss, dlogits = loss_and_grad(logits, labels, mask)
    ref_loss, ref_dlogits = reference_loss_and_grad(logits, labels, mask)
    assert loss == ref_loss
    assert dlogits.tobytes() == ref_dlogits.tobytes()
    assert logits.tobytes() == before.tobytes()  # the input is not written


def zero_kink_instance():
    """(dataset, adjacency, 3-layer params) whose hidden layers each have
    two columns of exact-zero pre-activations: zero weight columns with a
    +0.0 and a -0.0 bias. The other columns mix signs."""
    ds = sbm_generate(3, 8, 0.5, 0.1, d_in=4, seed=21)
    adj = normalize_adjacency(ds.graph)
    params = init_params([4, 6, 5, ds.num_classes], seed=22)
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        w[:, :2] = 0.0
        b[:] = np.linspace(-0.2, 0.2, len(b))
        b[0], b[1] = 0.0, -0.0
    return ds, adj, params


def test_backward_without_pre_activations_is_bitwise_identical():
    ds, adj, params = zero_kink_instance()
    hs_kept, kept = full_forward(adj, ds.features, params, keep_z=True)
    hs_lean, lean = full_forward(adj, ds.features, params, keep_z=False)
    assert lean.zs == []
    for z in kept.zs[:-1]:
        assert np.all(z[:, :2] == 0.0)  # the kink itself, masked off
        assert (z > 0).any() and (z < 0).any()
    for a, b in zip(hs_kept, hs_lean):
        assert a.tobytes() == b.tobytes()
    _, dlogits = loss_and_grad(hs_kept[-1], ds.labels, ds.train_mask)
    g_kept, d_kept = backward(kept, dlogits, params)
    g_lean, d_lean = backward(lean, dlogits, params)
    for a, b in zip(g_kept.weights + g_kept.biases + d_kept,
                    g_lean.weights + g_lean.biases + d_lean):
        assert a.tobytes() == b.tobytes()
    # a dead column gets no gradient, whichever the sign of its zero bias
    assert np.all(g_lean.biases[0][:2] == 0.0)


def test_output_mask_equals_pre_activation_mask():
    # backward masks on h = max(z, 0) > 0; a whole-graph forward cannot
    # carry -0.0 or NaN pre-activations into backward (products of zero
    # weight columns are +0.0, and NaN fails the finiteness check), so the
    # identity is checked on the values themselves
    z = np.array([-0.0, 0.0, np.nan, -np.inf, np.inf, 5e-324, -5e-324, 1.5, -1.5])
    h = z.copy()
    np.maximum(h, 0.0, out=h)
    assert np.array_equal(h > 0.0, z > 0.0)


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_without_pre_activations_peaks_lower():
    ds = sbm_generate(4, 500, 0.01, 0.001, d_in=8, seed=23)
    adj = normalize_adjacency(ds.graph)
    hidden = 64
    params = init_params([ds.num_features, hidden, ds.num_classes], seed=24)
    full_forward(adj, ds.features, params)  # lazy set-up out of the measurement
    one_layer = ds.graph.num_nodes * hidden * 8
    kept = traced_peak(lambda: full_forward(adj, ds.features, params, keep_z=True))
    lean = traced_peak(lambda: full_forward(adj, ds.features, params, keep_z=False))
    assert kept - lean >= one_layer
    # a hidden layer allocates its output and nothing else of that size:
    # bias and ReLU run in the product's array
    agg = adj.matmul(ds.features.astype(np.float64))
    peak = traced_peak(lambda: layer_apply(adj, None, params.weights[0],
                                           params.biases[0], last=False, agg=agg))
    assert peak < 2 * one_layer


def aggregate_first(adj: NormAdj, feats: np.ndarray, params: GcnParams) -> list[np.ndarray]:
    """The reference order of every layer: aggregate, then transform;
    relu(adj @ H @ W + b), identity on the last layer."""
    h = np.asarray(feats, dtype=np.float64)
    out = []
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = adj.matmul(h) @ w + b
        h = z if l == params.num_layers - 1 else np.maximum(z, 0.0)
        out.append(h)
    return out


# (blocks, hidden widths): a narrowing logit layer as on rest-20k, a
# narrowing hidden layer before it, and a logit layer wider than the hidden
ORDER_CASES = {"64-20": (20, [64]), "64-16-10": (10, [64, 16]), "8-20": (20, [8])}


@pytest.mark.parametrize("case", ORDER_CASES)
def test_unread_forward_transforms_narrow_layers_first(monkeypatch, case):
    """A whole-graph forward with masks=False and transform_first=True runs
    each narrowing layer's sparse product at its output width and agrees
    with the aggregate-first reference and the dense oracle to 1e-12
    relative; a layer that does not narrow, and every layer of a forward
    without transform_first, keep the reference's bytes."""
    blocks, hidden = ORDER_CASES[case]
    ds = sbm_generate(blocks, 600 // blocks, 0.2, 0.01, d_in=32, seed=41)
    adj = normalize_adjacency(ds.graph)
    dims = [ds.num_features] + hidden + [ds.num_classes]
    params = init_params(dims, seed=42)
    want = aggregate_first(adj, ds.features, params)
    dense = dense_forward(dense_norm_adj(ds.graph), ds.features, params)
    widths = []
    real = NormAdj.matmul

    def counting(self, dense, out=None):
        widths.append(dense.shape[1])
        return real(self, dense, out=out)

    monkeypatch.setattr(NormAdj, "matmul", counting)
    for masks in (True, False):
        del widths[:]
        kept, _ = full_forward(adj, ds.features, params, masks=masks)
        assert widths == dims[:-1]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, want))
    with pytest.raises(ValueError, match="transform_first needs masks=False"):
        full_forward(adj, ds.features, params, transform_first=True)
    del widths[:]
    unread, cache = full_forward(adj, ds.features, params, keep_z=False, masks=False,
                                 transform_first=True)
    narrow = [d_out < d_in for d_in, d_out in zip(dims[:-1], dims[1:])]
    assert widths == [d_out if n else d_in
                      for d_in, d_out, n in zip(dims[:-1], dims[1:], narrow)]
    assert [a is None for a in cache.aggs] == narrow
    for l, (got, ref, oracle) in enumerate(zip(unread, want, dense)):
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-12 * scale
        assert np.abs(got - oracle).max() <= 1e-12 * scale
        if not any(narrow[:l + 1]):
            assert got.tobytes() == ref.tobytes()
    if any(narrow):
        assert unread[-1].tobytes() != want[-1].tobytes()  # the order did change


def test_halo_batch_forwards_keep_the_aggregate_first_bytes():
    """Batch forwards aggregate first whether a backward reads them or not:
    a narrowing layer there would transform the halo rows too."""
    ds = sbm_generate(10, 40, 0.2, 0.01, d_in=32, seed=43)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, 4, seed=44)
    ax = g_norm.matmul(ds.features)
    dims = [ds.num_features, 64, 16, ds.num_classes]
    params = init_params(dims, seed=45)
    history = HistoryTable(ds.graph.num_nodes, dims[1:-1])
    # every table row written, so the halo rows are not zeros
    state = TrainState(params=params, adam=Adam(lr=0.01), history=history)
    rest_refresh_pass([make_batch(g_norm, part, list(range(4)))], state, ax)
    for c in range(4):
        batch = make_batch(g_norm, part, [c])
        assert len(batch.halo)
        nb = len(batch.in_batch)
        want, h = [], None
        for l, (w, b) in enumerate(zip(params.weights, params.biases)):
            if l == 0:
                agg = ax[batch.in_batch]
            else:
                agg = batch.local_adj.matmul(np.vstack([h, history.pull(l, batch.halo)[0]]))
            z = agg @ w + b
            h = z if l == len(dims) - 2 else np.maximum(z, 0.0)
            want.append(h)
        for masks in (True, False):
            hs, _ = batch_forward_with_history(batch, ax, params, history, push=False,
                                               step=1, masks=masks)
            assert len(hs[0]) == nb
            assert all(a.tobytes() == b.tobytes() for a, b in zip(hs, want)), masks


@pytest.fixture(scope="module")
def sbm_20k_ax():
    ds = sbm_generate(20, 1000, 0.01, 1e-4, d_in=32, seed=46)
    return ds, normalize_adjacency(ds.graph).matmul(ds.features)


def test_unread_forward_peaks_lower_by_the_narrow_aggregation(monkeypatch, sbm_20k_ax):
    """On rest-20k's shape (20k nodes, 64 hidden units, 20 classes) a
    transform_first forward never holds the 64-wide aggregation of the
    logit layer, only its 20-wide transform: its peak sits at least
    n x (64 - 20) x 8 bytes below that of the aggregate-first forward. One
    CPU, so no block's timing moves either peak."""
    ds, ax = sbm_20k_ax
    monkeypatch.setattr(graph, "_cpus", lambda: 1)
    adj = normalize_adjacency(ds.graph)  # row bounds are cached per operator
    params = init_params([ds.num_features, 64, ds.num_classes], seed=47)

    def forward(transform_first):
        return lambda: full_forward(adj, ds.features, params, agg=ax, keep_z=False,
                                    masks=False, transform_first=transform_first)

    forward(True)()  # lazy set-up out of the measurement
    aggregate = traced_peak(forward(False))
    transform = traced_peak(forward(True))
    assert aggregate - transform >= ds.graph.num_nodes * (64 - ds.num_classes) * 8


def test_finiteness_is_checked_in_every_row_block(sbm_20k_ax):
    """check_finite tests the rows a block at a time: a NaN in the first
    block and an infinity in the last raise, from the check and from
    whole-graph forwards in either order."""
    ds, ax = sbm_20k_ax
    n = ds.graph.num_nodes
    assert n * ds.num_classes > 2 * FINITE_BLOCK_VALUES  # several blocks
    h = np.zeros((n, ds.num_classes))
    check_finite(h, "test")
    for row, value in ((0, np.nan), (n - 1, np.inf)):
        bad = h.copy()
        bad[row, -1] = value
        with pytest.raises(FloatingPointError, match="non-finite output in test"):
            check_finite(bad, "test")
    adj = normalize_adjacency(ds.graph)
    params = init_params([ds.num_features, 64, ds.num_classes], seed=48)
    for row, value in ((0, np.nan), (n - 1, np.inf)):
        feats = ds.features.copy()
        feats[row] = value
        for masks in (True, False):
            with pytest.raises(FloatingPointError, match="non-finite output in forward pass"):
                full_forward(adj, feats, params, keep_z=False, masks=masks,
                             transform_first=not masks)


def test_adam_zero_grad_is_identity():
    params = init_params([3, 2], seed=1)
    before = params.flat().copy()
    opt = Adam(lr=0.01)
    opt.step(params, Grads(weights=[np.zeros((3, 2))], biases=[np.zeros(2)]))
    assert np.array_equal(params.flat(), before)


def test_adam_zero_lr_is_identity():
    params = init_params([3, 2], seed=1)
    before = params.flat().copy()
    opt = Adam(lr=0.0)
    opt.step(params, Grads(weights=[np.ones((3, 2))], biases=[np.ones(2)]))
    assert np.array_equal(params.flat(), before)


def test_adam_first_step_scalar_hand_computation():
    # single scalar weight w=1.0, gradient g=0.4, lr=0.01:
    #   m1 = 0.1*g, v1 = 0.001*g^2, mhat = g, vhat = g^2
    #   w' = w - lr * g / (|g| + eps)
    params = GcnParams(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
    opt = Adam(lr=0.01)
    g = 0.4
    opt.step(params, Grads(weights=[np.array([[g]])], biases=[np.array([0.0])]))
    expected = 1.0 - 0.01 * g / (abs(g) + 1e-8)
    assert params.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
    assert opt._m[0][0, 0] == pytest.approx(0.1 * g, abs=1e-15)
    assert opt._v[0][0, 0] == pytest.approx(0.001 * g * g, abs=1e-18)


def test_adam_rejects_non_finite():
    params = GcnParams(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
    opt = Adam()
    with pytest.raises(FloatingPointError):
        opt.step(params, Grads(weights=[np.array([[np.nan]])],
                               biases=[np.array([0.0])]))


def test_adam_weight_decay_shrinks_weights():
    params = GcnParams(weights=[np.array([[2.0]])], biases=[np.array([0.0])])
    opt = Adam(lr=0.01, weight_decay=5e-4)
    opt.step(params, Grads(weights=[np.array([[0.0]])], biases=[np.array([0.0])]))
    assert params.weights[0][0, 0] < 2.0


def test_init_params_deterministic_and_bounded():
    a = init_params([10, 7, 3], seed=4)
    b = init_params([10, 7, 3], seed=4)
    assert np.array_equal(a.flat(), b.flat())
    c = init_params([10, 7, 3], seed=5)
    assert not np.array_equal(a.flat(), c.flat())
    limit0 = np.sqrt(6.0 / (10 + 7))
    assert np.abs(a.weights[0]).max() <= limit0
    assert np.all(a.biases[0] == 0.0)


def test_accuracy():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
    labels = np.array([0, 1, 1])
    assert accuracy(logits, labels, np.ones(3, dtype=bool)) == pytest.approx(2 / 3)
    assert accuracy(logits, labels, np.zeros(3, dtype=bool)) == 0.0
