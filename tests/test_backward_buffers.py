"""Backward writes into the arrays of the forward it consumes. Its gradients
must equal, byte for byte, those of the out-of-place backward it replaced,
which is kept below as the oracle, on whole-graph and halo-batch caches,
split or not, with +0.0 and -0.0 at the ReLU kink. A full-mode step whose
forward writes every layer's output into one buffer must give the bytes of
the step on fresh output arrays, and peak lower by the logits.
"""

from __future__ import annotations

import numpy as np
import pytest

from staleburner import graph, model
from staleburner.graph import even_blocks, normalize_adjacency, run_blocks, sbm_generate
from staleburner.history import HistoryTable
from staleburner.model import (MASK_WORK, Adam, GcnParams, Grads, LayerCache, backward,
                               full_forward, init_params, loss_and_grad, shared_outputs)
from staleburner.partition import make_batch, partition_graph
from staleburner.trainer import TrainState, batch_forward_with_history, rest_refresh_pass

from test_model import traced_peak, zero_kink_instance


def reference_backward(cache: LayerCache, d_out: np.ndarray, params: GcnParams
                       ) -> tuple[Grads, list[np.ndarray]]:
    """The backward that allocated its products and transpose outputs
    afresh and left `cache.hs` unwritten, verbatim."""
    L = params.num_layers
    if len(cache.hs) != L:
        raise ValueError("cache does not match parameter depth")
    if any(a is None for a in cache.aggs):
        raise ValueError("cache's aggregations were released by an earlier backward; "
                         "run a fresh forward")
    if d_out.shape != cache.hs[-1].shape:
        raise ValueError(f"d_out shape {d_out.shape} != logits {cache.hs[-1].shape}")
    nb = cache.adj.num_rows
    dw = [np.zeros_like(w) for w in params.weights]
    db = [np.zeros_like(b) for b in params.biases]
    d_hidden: list[np.ndarray] = [None] * L
    dh = d_out
    spare = None  # the nb x d_l input of the last transpose product, no longer read
    for l in range(L - 1, -1, -1):
        d_hidden[l] = dh
        w = params.weights[l]
        # the last layer's gradient is d_out itself; a hidden layer's masked
        # one overwrites `spare`
        h, dz = (None, dh) if l == L - 1 else (cache.hs[l], spare)
        p = np.empty((nb, w.shape[0])) if l > 0 else None
        if L > 1:  # a mask, a product or both
            bounds = even_blocks(nb, w.size if l > 0 else MASK_WORK * w.shape[1])
            run_blocks(_reference_rows,
                       [(dh[r0:r1], None if h is None else h[r0:r1], dz[r0:r1], w,
                         None if p is None else p[r0:r1])
                        for r0, r1 in zip(bounds[:-1], bounds[1:])])
        dw[l] = cache.aggs[l].T @ dz
        cache.aggs[l] = None
        db[l] = dz.sum(axis=0)
        if l == 0:
            break
        dh = cache.adj.t_matmul(p)
        spare = p
    return Grads(weights=dw, biases=db), d_hidden


def _reference_rows(dh: np.ndarray, h: np.ndarray | None, dz: np.ndarray,
                    w: np.ndarray, p: np.ndarray | None) -> None:
    """Block kernel: dz = dh masked where h > 0 (h None: dz is dh already),
    then p = dz @ w.T unless p is None."""
    if h is not None:
        np.multiply(dh, h > 0.0, out=dz)
    if p is not None:
        np.matmul(dz, w.T, out=p)


def check_against_reference(cache: LayerCache, d_out: np.ndarray, params: GcnParams) -> Grads:
    """backward(cache, d_out) gives the oracle's bytes on a copy of the
    cache, and leaves the cache as its contract says. Returns backward's
    parameter gradients."""
    L = params.num_layers
    copy = LayerCache(adj=cache.adj, aggs=[a.copy() for a in cache.aggs],
                      hs=[h.copy() for h in cache.hs])
    ref_d_out = copy.hs[-1] if d_out is cache.hs[-1] else d_out.copy()
    want_g, want_d = reference_backward(copy, ref_d_out, params)
    agg0, hs = cache.aggs[0].copy(), list(cache.hs)
    first_agg = cache.aggs[0]
    got_g, got_d = backward(cache, d_out, params)
    got = got_g.weights + got_g.biases + got_d
    want = want_g.weights + want_g.biases + want_d
    assert [a.shape for a in got] == [a.shape for a in want]
    assert all(a.dtype == np.float64 for a in got)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert cache.aggs == [None] * L
    assert first_agg.tobytes() == agg0.tobytes()  # a shared Â·X stays as it was
    assert all(cache.hs[l] is hs[l] for l in range(L))
    for l in range(1, L):
        assert got_d[l - 1] is cache.hs[l - 1]
    assert got_d[-1] is d_out
    return got_g


@pytest.fixture(scope="module")
def sbm_20k():
    ds = sbm_generate(20, 1000, 0.01, 1e-4, d_in=32, seed=7)
    return ds, normalize_adjacency(ds.graph).matmul(ds.features)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("hidden", [[64], [64, 64]], ids=["2-layer", "3-layer"])
def test_whole_graph_backward_equals_reference(monkeypatch, sbm_20k, cpus, hidden):
    """Whole-graph caches as the trainer runs them: layer 1 from a shared
    Â·X, no pre-activations, the loss gradient written over the logits."""
    ds, ax = sbm_20k
    monkeypatch.setattr(graph, "_cpus", lambda: cpus)
    adj = normalize_adjacency(ds.graph)  # row bounds are cached per operator
    params = init_params([ds.num_features] + hidden + [ds.num_classes], seed=len(hidden))
    hs, cache = full_forward(adj, ds.features, params, agg=ax, keep_z=False)
    assert cache.aggs[0] is ax
    _, dlogits = loss_and_grad(hs[-1], ds.labels, ds.train_mask, out=hs[-1])
    check_against_reference(cache, dlogits, params)


@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
@pytest.mark.parametrize("num_layers", [2, 3])
@pytest.mark.parametrize("parts", [1, 4])  # one part: a batch with no halo
def test_batch_backward_equals_reference(monkeypatch, split, num_layers, parts):
    if split:  # every batch job cut into blocks, on two CPUs
        monkeypatch.setattr(graph, "_cpus", lambda: 2)
        monkeypatch.setattr(graph, "SPLIT_WORK", 64)
    ds = sbm_generate(4, 30, 0.2, 0.02, seed=7)
    g_norm = normalize_adjacency(ds.graph)
    part = partition_graph(ds.graph, parts, seed=3)
    ax = g_norm.matmul(ds.features)
    dims = [ds.num_features] + [16] * (num_layers - 1) + [ds.num_classes]
    state = TrainState(params=init_params(dims, seed=num_layers), adam=Adam(lr=0.01),
                       history=HistoryTable(ds.graph.num_nodes, dims[1:-1]))
    # every table row written, so the halo rows are not zeros
    rest_refresh_pass([make_batch(g_norm, part, list(range(parts)))], state, ax)
    for c in range(parts):
        batch = make_batch(g_norm, part, [c])
        assert (len(batch.halo) > 0) == (parts > 1)
        hs, cache = batch_forward_with_history(batch, ax, state.params, state.history,
                                               push=False, step=1)
        mask = ds.train_mask[batch.in_batch]
        if mask.any():
            _, dlogits = loss_and_grad(hs[-1], ds.labels[batch.in_batch], mask)
        else:
            dlogits = np.ones_like(hs[-1])
        check_against_reference(cache, dlogits, state.params)


@pytest.mark.parametrize("keep_z", [False, True])
def test_zero_kink_backward_equals_reference(keep_z):
    """Hidden columns whose pre-activations are exactly +0.0 or -0.0: the
    mask drops them either way, and the gradient's signed zeros must match."""
    ds, adj, params = zero_kink_instance()
    hs, cache = full_forward(adj, ds.features, params, keep_z=keep_z)
    for h in hs[:-1]:
        assert np.all(h[:, :2] == 0.0)
    _, dlogits = loss_and_grad(hs[-1], ds.labels, ds.train_mask)
    check_against_reference(cache, dlogits, params)


def test_backward_refuses_a_cache_without_masks():
    ds, adj, params = zero_kink_instance()
    hs, cache = full_forward(adj, ds.features, params, masks=False)
    assert cache.masks == [] and params.num_layers > 1
    with pytest.raises(ValueError, match="masks=True"):
        backward(cache, np.zeros_like(hs[-1]), params)


def full_mode_steps(ds, ax: np.ndarray, params: GcnParams, out: list[np.ndarray] | None,
                    steps: int = 2) -> tuple[list[list[bytes]], bytes]:
    """`steps` Adam steps from a copy of `params` as a full-mode run takes
    them: a whole-graph forward from Â·X without pre-activations, into `out`
    when given, the loss over the logits in place, backward, Adam. Returns
    each step's parameter gradients and the final parameters, as bytes. On
    fresh outputs (out None) each backward is checked against the oracle."""
    adj = normalize_adjacency(ds.graph)
    params = params.copy()
    adam = Adam(lr=0.01)
    got = []
    for _ in range(steps):
        hs, cache = full_forward(adj, ds.features, params, agg=ax, keep_z=False, out=out)
        _, dlogits = loss_and_grad(hs[-1], ds.labels, ds.train_mask, out=hs[-1])
        if out is None:
            grads = check_against_reference(cache, dlogits, params)
        else:
            assert all(h is o for h, o in zip(hs, out))
            grads, d_hidden = backward(cache, dlogits, params)
            assert cache.aggs == [None] * params.num_layers
            assert d_hidden[0] is out[0]  # the one gradient the buffer still holds
        adam.step(params, grads)
        got.append([g.tobytes() for g in grads.weights + grads.biases])
    return got, params.flat().tobytes()


@pytest.fixture(scope="module")
def sbm_6_classes():
    ds = sbm_generate(6, 500, 0.02, 5e-4, d_in=8, seed=11)
    return ds, normalize_adjacency(ds.graph).matmul(ds.features)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", ["2-layer", "3-layer", "classes-wider"])
def test_shared_buffer_steps_equal_fresh_outputs(monkeypatch, request, case, cpus):
    """Two full-mode steps through one output buffer give the bytes of two
    on fresh output arrays. The buffer is n x max(hidden, classes) and
    holds every layer's output: 20 classes under 64 hidden units on 20k
    nodes, 6 above 4 on 3k, where the split floor is lowered so that, on
    two CPUs, every dense job of the step and every mask is split."""
    if case == "classes-wider":
        ds, ax = request.getfixturevalue("sbm_6_classes")
        monkeypatch.setattr(graph, "SPLIT_WORK", 64)
        hidden = [4]
    else:
        ds, ax = request.getfixturevalue("sbm_20k")
        hidden = [64] if case == "2-layer" else [64, 64]
    monkeypatch.setattr(graph, "_cpus", lambda: cpus)
    blocks = []
    real = model.run_blocks

    def counting(kernel, jobs):
        blocks.append(len(jobs))
        return real(kernel, jobs)

    monkeypatch.setattr(model, "run_blocks", counting)
    dims = [ds.num_features] + hidden + [ds.num_classes]
    params = init_params(dims, seed=len(hidden))
    n = ds.graph.num_nodes
    out = shared_outputs(n, dims)
    assert out[0].base.nbytes == n * max(dims[1:]) * 8
    assert all(o.base is out[0].base for o in out)
    want = full_mode_steps(ds, ax, params, None)
    del blocks[:]
    assert full_mode_steps(ds, ax, params, out) == want
    assert blocks and all((b > 1) == (cpus > 1) for b in blocks)
    assert all((len(even_blocks(n, MASK_WORK * d)) > 2) == (cpus > 1) for d in hidden)


def test_shared_buffer_step_peaks_lower_by_the_logits(sbm_20k):
    """The peak of a full-mode forward, loss and backward on the shared
    buffer, counting the buffer's bytes, sits at least one n x classes
    float64 array below that of a step on fresh outputs: the logits take the
    spent hidden output's place. Both steps pack their ReLU masks inside the
    measurement. A run allocates its buffer once, so it is built outside."""
    ds, ax = sbm_20k
    adj = normalize_adjacency(ds.graph)
    dims = [ds.num_features, 64, ds.num_classes]
    params = init_params(dims, seed=5)
    n = ds.graph.num_nodes

    def step(out):
        hs, cache = full_forward(adj, ds.features, params, agg=ax, keep_z=False, out=out)
        _, dlogits = loss_and_grad(hs[-1], ds.labels, ds.train_mask, out=hs[-1])
        backward(cache, dlogits, params)

    step(None)  # lazy set-up and helper threads out of the measurement
    out = shared_outputs(n, dims)
    fresh = traced_peak(lambda: step(None))
    shared = traced_peak(lambda: step(out)) + out[0].base.nbytes
    assert fresh - shared >= n * ds.num_classes * 8
