"""`loss_and_grad` computes each block of rows where it lies, in `out` or in
the logits themselves, against the implementation that gathered the masked
rows into a count x classes work array, kept below verbatim as the oracle.
The loss float and the gradient bytes must be equal on a full-50k-sized
logits array, on one CPU and on two, at a low and a high label rate, and
whatever the rows outside the mask hold.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from staleburner import graph
from staleburner.graph import even_blocks, run_blocks
from staleburner.model import LOGIT_WORK, loss_and_grad


def gather_loss_and_grad(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray,
                         out: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy over masked rows.

    Gradient rows are (softmax - onehot) / mask_count on masked rows and zero
    elsewhere. They are written to `out` when given, which may be `logits`
    itself, as numpy's out= arguments: each block reads its own masked rows
    and writes the same rows back, and no other block touches them, so the
    gradient can overwrite logits that nothing reads after the loss.
    """
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise ValueError("empty mask")
    ids = np.flatnonzero(mask)
    # the only work array: the masked rows, shifted, then their exponentials,
    # then the gradient rows. Allocated here rather than per block in the
    # threads that run them, whose own heaps would keep the freed blocks
    # resident into backward, where a step peaks.
    work = np.empty((count, logits.shape[1]))
    if out is None:
        out = np.zeros_like(logits)
    else:
        out[~mask] = 0.0  # rows no block reads
    terms = np.empty(count)  # log-likelihood of each masked row
    bounds = even_blocks(count, LOGIT_WORK * logits.shape[1])
    run_blocks(_gather_softmax_rows, [(logits, labels, ids[a:b], count, work[a:b], terms[a:b],
                                       out) for a, b in zip(bounds[:-1], bounds[1:])])
    return float(-terms.mean()), out


def _gather_softmax_rows(logits: np.ndarray, labels: np.ndarray, ids: np.ndarray,
                         count: int, d: np.ndarray, terms: np.ndarray,
                         dlogits: np.ndarray) -> None:
    """Block kernel: the log-likelihood terms and gradient rows of rows
    `ids`, computed in d."""
    np.take(logits, ids, axis=0, out=d, mode="clip")  # "raise" stages a copy of d
    y = labels[ids]
    rows = np.arange(len(ids))
    d -= d.max(axis=1, keepdims=True)
    z_y = d[rows, y]
    np.exp(d, out=d)
    denom = d.sum(axis=1)
    np.subtract(z_y, np.log(denom), out=terms)
    d /= denom[:, None]
    d[rows, y] -= 1.0
    d /= count
    dlogits[ids] = d


@pytest.fixture
def own_pool(monkeypatch):
    """Start from no helper threads; shut down whatever pool the test starts."""
    monkeypatch.setattr(graph, "_helpers", None)
    yield
    if graph._helpers is not None:
        graph._helpers.shutdown()


def logits_50k(rate: float, seed: int = 70):
    """(logits, labels, mask) of full-50k's shape, 50000 x 50, with a
    saturated and a uniform masked row."""
    gen = np.random.default_rng(seed)
    logits = gen.normal(scale=5.0, size=(50_000, 50))
    logits[7, 3] = 1e6
    logits[11] = 0.0
    labels = gen.integers(0, 50, size=50_000)
    mask = gen.random(50_000) < rate
    mask[[7, 11]] = True
    return logits, labels, mask


def run_loss(logits, labels, mask, where: str):
    """loss_and_grad with out=None ('fresh'), out=logits ('logits', on a
    copy) or a separate array full of garbage ('separate'); the input is
    checked unwritten unless it is the output."""
    before = logits.tobytes()
    if where == "fresh":
        loss, grad = loss_and_grad(logits, labels, mask)
    elif where == "logits":
        logits = logits.copy()
        loss, grad = loss_and_grad(logits, labels, mask, out=logits)
        assert grad is logits
        return loss, grad.tobytes()
    else:
        out = np.full_like(logits, np.nan)
        loss, grad = loss_and_grad(logits, labels, mask, out=out)
        assert grad is out
    assert logits.tobytes() == before
    return loss, grad.tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("rate", [0.05, 0.6])
@pytest.mark.parametrize("where", ["fresh", "logits", "separate"])
def test_in_place_loss_equals_gather_oracle(monkeypatch, own_pool, cpus, rate, where):
    monkeypatch.setattr(graph, "_cpus", lambda: cpus)
    logits, labels, mask = logits_50k(rate)
    want_loss, want_grad = gather_loss_and_grad(logits, labels, mask)
    loss, grad = run_loss(logits, labels, mask, where)
    assert loss == want_loss
    assert grad == want_grad.tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("where", ["fresh", "logits", "separate"])
def test_unmasked_non_finite_rows_change_nothing(monkeypatch, own_pool, cpus, where):
    monkeypatch.setattr(graph, "_cpus", lambda: cpus)
    logits, labels, mask = logits_50k(0.05)
    want_loss, want_grad = gather_loss_and_grad(logits, labels, mask)
    unmasked = np.flatnonzero(~mask)
    bad = logits.copy()
    bad[unmasked[0::4]] = np.inf
    bad[unmasked[1::4]] = -np.inf
    bad[unmasked[2::4]] = np.nan
    bad[unmasked[3::4], ::2] = np.inf  # inf beside finite values
    bad[unmasked[3::4], 1::2] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grad = run_loss(bad, labels, mask, where)
    assert loss == want_loss
    assert grad == want_grad.tobytes()


def test_empty_mask_still_raises():
    logits, labels, _ = logits_50k(0.05)
    for out in (None, logits):
        with pytest.raises(ValueError, match="empty mask"):
            loss_and_grad(logits, labels, np.zeros(len(logits), dtype=bool), out=out)
