"""Deterministic pseudo-random streams.

Every random choice in this package (graph synthesis, mask splits, partition
tie-breaks, epoch schedules, weight init) flows from a single root seed
through named substreams, so identical inputs reproduce identical results
bit for bit, independent of numpy version or platform.

Generator: SplitMix64 (Steele, Lea and Flood, OOPSLA 2014), which passes
BigCrush. Its state is one 64-bit integer s, and a step adds the odd
constant GOLDEN modulo 2^64 and returns mix(s), mix being `splitmix64`'s
output function. It is therefore counter-based: draw i (i = 1, 2, ...) of
the stream seeded with s is mix(s + i * GOLDEN mod 2^64). Single draws use
plain Python integers masked to 64 bits. Bulk draws (`next_u64s`, and
through it `normals`, `uniforms`, `geometric_hits` and `shuffle`) compute
the same values for i = 1 .. count with a few numpy uint64 array
operations, which wrap modulo 2^64 exactly as the masked integers do, and
`advance` is one addition. The package uses it for that: one value at a
time or a block at a time gives the same stream, a bulk draw needs no
set-up, a jump of any length is one addition, and `derive_seed` already
mixes with the same function. numpy's own bit generators are not used: importing
`numpy.random` alone raised a process's peak RSS from 26.9 to 33.1 MiB
(Python 3.11, numpy 2.4).

Since GOLDEN is odd, s + i * GOLDEN visits every 64-bit value once per
2^64 draws, so each stream has period 2^64, and every stream is a window on
that one cycle: the stream seeded with s2 starts (s2 - s1) * GOLDEN^-1 mod
2^64 draws after the one seeded with s1, and the two overlap only if one of
them draws that far. `tests/test_rng.py` checks that the seeds the CLI, the
benchmark workloads and `sbm_generate` derive for roots 0-19 lie pairwise
at least 2^40 draws apart in both directions; the largest draw of the
benchmark workloads, full-50k's features, takes 1.6 million values.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53

_HIT_MARGIN = 5.0   # geometric_hits blocks hold this many standard deviations of spare draws


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(root: int, *path: int | str) -> int:
    """Map (root seed, substream path) to a new 64-bit seed.

    Path components may be ints or short strings; strings are folded bytewise.
    Used so that e.g. the weight-init stream and the schedule stream of one
    run never overlap.
    """
    s = root & _MASK64
    for part in path:
        if isinstance(part, str):
            part = int.from_bytes(part.encode("utf-8")[:24].ljust(8, b"\0"), "little") & _MASK64
        s, out = splitmix64(s ^ (part & _MASK64))
        s = out
    s, out = splitmix64(s)
    return out


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"draw count must be >= 0, got {count}")


class Rng:
    """SplitMix64 stream: draw i (i = 1, 2, ...) from seed s is
    mix(s + i * GOLDEN mod 2^64), where mix is splitmix64's output function."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        self._s = seed & _MASK64

    def next_u64(self) -> int:
        self._s, out = splitmix64(self._s)
        return out

    def random(self) -> float:
        """Uniform float64 in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: position i, from the last down to
        1, swaps with position below(i + 1).

        The len - 1 draws come from one next_u64s call and below()'s
        rejection bound is tested at every position at once. A draw below(m)
        would reject has probability under m / 2^64; if one occurs, the
        state goes back and the scalar loop runs. Either way the swaps and
        the state after are those of the scalar loop."""
        n = len(items)
        if n < 2:
            return
        saved = self._s
        x = self.next_u64s(n - 1)
        m = np.arange(n, 1, -1, dtype=np.uint64)  # below()'s bound at each draw
        # below(m) takes x when x <= 2^64 - 1 - (2^64 mod m), and 2^64 mod m
        # is (0 - m) mod m in uint64
        if not np.all(x <= np.uint64(_MASK64) - (np.uint64(0) - m) % m):
            self._s = saved
            self._shuffle_scalar(items)
            return
        for i, j in zip(range(n - 1, 0, -1), (x % m).tolist()):
            items[i], items[j] = items[j], items[i]

    def _shuffle_scalar(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        items = list(range(n))
        self.shuffle(items)
        return items

    def next_u64s(self, count: int) -> np.ndarray:
        """The next `count` outputs as a uint64 array, leaving the state
        where `count` calls to next_u64 would. A count below 0 raises
        ValueError."""
        _check_count(count)
        # uint64 arithmetic wraps modulo 2^64 exactly as the masked integers do
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._s)
        t = z >> np.uint64(30)
        z ^= t
        z *= np.uint64(_MIX1)
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= np.uint64(_MIX2)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
        self.advance(count)
        return z

    def advance(self, count: int) -> None:
        """Move the stream `count` draws ahead, as `count` calls to next_u64
        would, without producing them. A count below 0 raises ValueError."""
        _check_count(count)
        self._s = (self._s + count * _GOLDEN) & _MASK64

    def _unit_floats(self, count: int) -> np.ndarray:
        """next_u64s mapped to [0, 1) exactly as random() maps one draw."""
        return (self.next_u64s(count) >> np.uint64(11)) * _INV_2_53

    def normals(self, count: int) -> np.ndarray:
        """Vector of standard normals, float64. Both Box-Muller branches of
        each uniform pair are used, so the stream advances 2*ceil(count/2)."""
        _check_count(count)
        pairs = (count + 1) // 2
        u = self._unit_floats(2 * pairs)
        u1 = np.maximum(u[0::2], _INV_2_53)
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:count]

    def uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return lo + (hi - lo) * self._unit_floats(count)

    def geometric_skip(self, p: float) -> int:
        """Gap to the next success of a Bernoulli(p) stream (0 = immediate).

        Lets sparse edge sampling visit only the successful pairs instead of
        every candidate pair. Requires 0 < p < 1.
        """
        r = self.random()
        return int(math.log1p(-r) / math.log1p(-p))

    def geometric_hits(self, p: float, total: int) -> np.ndarray:
        """Sorted positions in [0, total) of the successes of a Bernoulli(p)
        stream, int64; requires 0 < p < 1.

        Identical, draws consumed included, to the loop
        `t = geometric_skip(p); while t < total: hit(t); t += 1 + geometric_skip(p)`,
        which takes hits + 1 draws. The uniforms come in bulk blocks sized
        to the expected remaining hits. Once a block holds the draw that ends
        the stream, the state goes back to where that block began and
        advances by exactly the draws used. A p outside (0, 1) raises
        ValueError.
        """
        if not 0.0 < p < 1.0:
            raise ValueError(f"geometric_hits needs 0 < p < 1, got {p}")
        log_q = math.log1p(-p)
        parts = []
        base = 0  # position the next draw's gap counts from
        while True:
            expect = (total - base) * p
            block = max(1, int(expect + _HIT_MARGIN * math.sqrt(expect)) + 16)
            saved = self._s
            r = self._unit_floats(block)
            # math.log1p as in geometric_skip: np.log1p may differ by an ulp,
            # which can move the truncated gap. Gaps of total or more all end
            # the stream, so clipping them keeps the int64 positions exact.
            # Mapping over the array, not a list of it, keeps no block of
            # Python floats alive.
            logs = np.fromiter(map(math.log1p, -r), dtype=np.float64, count=block)
            gaps = np.minimum(logs / log_q, float(total)).astype(np.int64)
            pos = base + np.cumsum(gaps + 1) - 1
            end = int(np.searchsorted(pos, total))
            if end < block:
                parts.append(pos[:end])
                self._s = saved
                self.advance(end + 1)
                return np.concatenate(parts)
            parts.append(pos)
            base = int(pos[-1]) + 1
