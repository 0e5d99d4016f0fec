import numpy as np
import pytest

from staleburner import rng as rng_module
from staleburner.rng import (Rng, _from_bits, _jump_matrix, _to_bits, derive_seed,
                             splitmix64)

from reference_setup import normals_reference, u64s_reference, uniforms_reference


def reference_splitmix64(state):
    # independent transcription of the reference algorithm
    mask = (1 << 64) - 1
    state = (state + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return state, z ^ (z >> 31)


def test_splitmix64_matches_reference():
    s = 0
    s_ref = 0
    for _ in range(100):
        s, out = splitmix64(s)
        s_ref, out_ref = reference_splitmix64(s_ref)
        assert out == out_ref
        assert 0 <= out < (1 << 64)


def test_stream_determinism():
    a = Rng(42)
    b = Rng(42)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_streams_differ_by_seed_and_path():
    assert Rng(1).next_u64() != Rng(2).next_u64()
    s1 = derive_seed(7, "init")
    s2 = derive_seed(7, "schedule")
    s3 = derive_seed(7, "schedule", 1)
    assert len({s1, s2, s3}) == 3
    assert derive_seed(7, "schedule", 1) == s3


def test_random_in_unit_interval():
    r = Rng(3)
    xs = [r.random() for _ in range(2000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(np.mean(xs) - 0.5) < 0.05


def test_below_bounds_and_coverage():
    r = Rng(5)
    seen = {r.below(7) for _ in range(500)}
    assert seen == set(range(7))


def test_shuffle_is_permutation():
    r = Rng(11)
    items = list(range(30))
    r.shuffle(items)
    assert sorted(items) == list(range(30))
    assert items != list(range(30))


def test_sample_distinct():
    r = Rng(13)
    for _ in range(50):
        got = r.sample(10, 4)
        assert len(set(got)) == 4
        assert all(0 <= x < 10 for x in got)


def test_normals_moments():
    xs = Rng(17).normals(20000)
    assert abs(xs.mean()) < 0.05
    assert abs(xs.std() - 1.0) < 0.05


def test_geometric_skip_mean():
    r = Rng(19)
    p = 0.2
    gaps = [r.geometric_skip(p) for _ in range(20000)]
    # E[gap] = (1-p)/p for the number of failures before a success
    assert abs(np.mean(gaps) - (1 - p) / p) < 0.15


# ---------------------------------------------------------------------------
# bulk draws: every path must reproduce the scalar stream, state included

# xoshiro256** from state [1, 2, 3, 4], as the reference implementation gives it
XOSHIRO_1234 = [11520, 0, 1509978240, 1215971899390074240, 1216172134540287360,
                607988272756665600, 16172922978634559625, 8476171486693032832,
                10595114339597558777, 2904607092377533576]


def rng_at(state):
    r = Rng(0)
    r._s = list(state)
    return r


def test_next_u64_reference_vector():
    r = rng_at([1, 2, 3, 4])
    assert [r.next_u64() for _ in range(10)] == XOSHIRO_1234


def test_bulk_reference_vector():
    assert rng_at([1, 2, 3, 4]).next_u64s(10).tolist() == XOSHIRO_1234
    # the same prefix from a draw of many lanes
    assert rng_at([1, 2, 3, 4]).next_u64s(1 << 15)[:10].tolist() == XOSHIRO_1234


def _lane_len(count):
    return 1 << ((count.bit_length() + 1) // 2)


BULK_COUNTS = sorted({
    0, 1, 2, 7, 1001,
    (1 << 15) - 1, 1 << 15, (1 << 15) + 1,
    # lane boundaries: a whole number of lanes, one draw short, one over
    150 * _lane_len(150 * 256) - 1, 150 * _lane_len(150 * 256),
    150 * _lane_len(150 * 256) + 1,
    # the lane length doubles between these
    (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
    640_000,
})


@pytest.mark.parametrize("count", BULK_COUNTS)
def test_bulk_matches_scalar_loop(count):
    bulk, loop = Rng(23), Rng(23)
    got = bulk.next_u64s(count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert np.array_equal(got, u64s_reference(loop, count))
    assert bulk._s == loop._s


def test_bulk_calls_continue_the_stream():
    bulk, loop = Rng(29), Rng(29)
    for count in ((1 << 15) + 5, 3, 0, 50_001, (1 << 15) - 1):
        assert np.array_equal(bulk.next_u64s(count), u64s_reference(loop, count))
    assert bulk.next_u64() == loop.next_u64()


@pytest.mark.parametrize("count", [0, 1, 5, (1 << 15) - 1, (1 << 15) + 3, 100_001])
def test_uniforms_and_normals_match_scalar_loop(count):
    a, b = Rng(31), Rng(31)
    assert np.array_equal(a.uniforms(count), uniforms_reference(b, count))
    assert np.array_equal(a.uniforms(count, -0.3, 0.7),
                          uniforms_reference(b, count, -0.3, 0.7))
    assert np.array_equal(a.normals(count), normals_reference(b, count))
    assert a._s == b._s


@pytest.mark.parametrize("k", range(7))
def test_jump_matrix_equals_stepping(k):
    r = Rng(37)
    bits = _to_bits(np.array(r._s, dtype=np.uint64)[:, None])
    jumped = (_jump_matrix(k).astype(np.int64) @ bits) & 1
    for _ in range(1 << k):
        r.next_u64()
    assert _from_bits(jumped)[:, 0].tolist() == r._s


@pytest.mark.parametrize("count", [0, 1, 2, 3, 255, 1000, 65_537])
def test_advance_equals_discarded_draws(count):
    jumped, stepped = Rng(41), Rng(41)
    jumped.advance(count)
    u64s_reference(stepped, count)
    assert jumped._s == stepped._s


def geometric_hits_reference(r, p, total):
    hits = []
    t = r.geometric_skip(p)
    while t < total:
        hits.append(t)
        t += 1 + r.geometric_skip(p)
    return hits


@pytest.mark.parametrize("p,total", [
    (0.3, 10), (0.999, 50), (1e-9, 10_000),      # few draws
    (0.01, 5_000_000), (0.5, 70_000),             # many draws
])
def test_geometric_hits_match_skip_loop(p, total):
    a, b = Rng(43), Rng(43)
    got = a.geometric_hits(p, total)
    assert got.dtype == np.int64
    assert got.tolist() == geometric_hits_reference(b, p, total)
    assert a._s == b._s


def test_geometric_hits_across_short_blocks(monkeypatch):
    # blocks sized below the expected draws force the multi-block path
    monkeypatch.setattr(rng_module, "_HIT_MARGIN", -3.0)
    a, b = Rng(47), Rng(47)
    assert a.geometric_hits(0.02, 3_000_000).tolist() == \
        geometric_hits_reference(b, 0.02, 3_000_000)
    assert a._s == b._s
