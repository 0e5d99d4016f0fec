import numpy as np
import pytest

from staleburner import rng as rng_module
from staleburner.rng import Rng, derive_seed, splitmix64

from reference_setup import normals_reference, u64s_reference, uniforms_reference


GOLDEN = 0x9E3779B97F4A7C15


def reference_splitmix64(state):
    # independent transcription of the reference algorithm
    mask = (1 << 64) - 1
    state = (state + GOLDEN) & mask
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

# SplitMix64 from state 1234567, as the reference implementation gives it
SPLITMIX64_1234567 = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                      4593380528125082431, 16408922859458223821]


def test_next_u64_reference_vector():
    r = Rng(1234567)
    assert [r.next_u64() for _ in range(5)] == SPLITMIX64_1234567


def test_bulk_reference_vector():
    assert Rng(1234567).next_u64s(5).tolist() == SPLITMIX64_1234567
    assert Rng(1234567).next_u64s(1 << 15)[:5].tolist() == SPLITMIX64_1234567


@pytest.mark.parametrize("seed", [0, 1, 1234567, 1 << 63, (1 << 64) - 1, -1, 1 << 70])
def test_first_draw_is_splitmix64_of_the_seed(seed):
    assert Rng(seed).next_u64() == splitmix64(seed & ((1 << 64) - 1))[1]


BULK_COUNTS = [0, 1, 2, 7, 1001, 32767, 32768, 32769, 38399, 38400, 38401,
               65535, 65536, 65537, 640_000]


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


@pytest.mark.parametrize("count", [0, 1, 2, 3, 255, 1000, 65_537])
def test_advance_equals_discarded_draws(count):
    jumped, stepped = Rng(41), Rng(41)
    jumped.advance(count)
    u64s_reference(stepped, count)
    assert jumped._s == stepped._s


@pytest.mark.parametrize("count", [1 << 48, (1 << 48) + 3, (1 << 63) + 12_345, (1 << 64) + 7])
def test_advance_takes_counts_past_2_48(count):
    r = Rng(67)
    r.advance(count)
    state = (67 + count * GOLDEN) % (1 << 64)
    assert r._s == state
    want = []
    for _ in range(6):
        state, out = reference_splitmix64(state)
        want.append(out)
    assert r.next_u64s(3).tolist() + [r.next_u64() for _ in range(3)] == want


def run_seeds(root):
    """The stream seeds one run derives from its root seed: the CLI's and
    the benchmark workloads' dataset, partition, init and schedule seeds,
    and sbm_generate's three from the dataset seed."""
    dataset = derive_seed(root, "dataset")
    return ([dataset] + [derive_seed(dataset, p) for p in ("sbm-edges", "sbm-features",
                                                           "sbm-masks")]
            + [derive_seed(root, p) for p in ("partition", "init", "schedule")])


def test_derived_streams_lie_far_apart():
    # the stream seeded with b starts (b - a) / GOLDEN mod 2^64 draws after
    # the one seeded with a; both directions must leave room for any run
    seeds = [s for root in range(20) for s in run_seeds(root)]
    inverse = pow(GOLDEN, -1, 1 << 64)
    gaps = [(b - a) * inverse % (1 << 64)
            for i, a in enumerate(seeds) for j, b in enumerate(seeds) if i != j]
    assert min(gaps) >= 1 << 40


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


# ---------------------------------------------------------------------------
# shuffle: the bulk path must reproduce a Fisher-Yates loop of below() draws

def shuffle_reference(r, items):
    for i in range(len(items) - 1, 0, -1):
        j = r.below(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("size", [0, 1, 2, 7, 200, 256, 257, 1000, 5000])
def test_shuffle_matches_below_loop(size):
    a, b = Rng(53), Rng(53)
    got, want = list(range(size)), list(range(size))
    a.shuffle(got)
    shuffle_reference(b, want)
    assert got == want
    assert a.next_u64() == b.next_u64()


def test_shuffle_replays_a_rejected_draw(monkeypatch):
    size, pos = 1000, 3  # draw 3 is below(997); 2^64 - 1 is above its bound
    m = size - pos
    assert 2**64 % m != 0
    bulk = Rng.next_u64s
    draws = bulk(Rng(59), size - 1)
    assert int(draws[pos]) % m != (2**64 - 1) % m  # taking the draw would show
    calls = []

    def rejected_at_pos(self, count):
        calls.append(count)
        x = bulk(self, count)
        x[pos] = np.uint64(2**64 - 1)
        return x

    monkeypatch.setattr(Rng, "next_u64s", rejected_at_pos)
    a, b = Rng(59), Rng(59)
    got, want = list(range(size)), list(range(size))
    a.shuffle(got)
    shuffle_reference(b, want)
    assert calls == [size - 1]
    assert got == want
    assert a._s == b._s


# ---------------------------------------------------------------------------
# refused arguments: each raises before the state moves

@pytest.mark.parametrize("count", [-1, -5])
@pytest.mark.parametrize("draw", ["advance", "next_u64s", "uniforms", "normals"])
def test_counts_out_of_range_are_refused(draw, count):
    r = Rng(61)
    with pytest.raises(ValueError, match=f"got {count}$"):
        getattr(r, draw)(count)
    assert r._s == Rng(61)._s


@pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.1, float("nan")])
def test_geometric_hits_refuses_p_outside_unit_interval(p):
    r = Rng(71)
    with pytest.raises(ValueError, match="0 < p < 1"):
        r.geometric_hits(p, 100)
    assert r._s == Rng(71)._s
