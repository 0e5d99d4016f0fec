"""Deterministic pseudo-random streams.

Every random choice in this package (graph synthesis, mask splits, partition
tie-breaks, epoch schedules, weight init) flows from a single root seed
through named substreams, so identical inputs reproduce identical results
bit for bit, independent of numpy version or platform.

Generator: xoshiro256** with its four state words filled from splitmix64, the
combination recommended by the generators' reference implementations. Single
draws use plain Python integers masked to 64 bits.

Bulk draws (`next_u64s`, and through it `normals`, `uniforms`,
`geometric_hits` and the shuffle of a long list) produce the same stream
with numpy. The xoshiro state
update is linear over GF(2), so it is a 256x256 bit matrix T, and jumping the
stream ahead by 2^k draws is one product with T^(2^k). Those powers, for
k < JUMP_COUNT = 48, are constants: `tools/xoshiro_jumps.py` builds them by
repeated squaring and the package ships them packed in `xoshiro_jumps.npy`
(384 KiB), which is read once per process, on first use. Squaring them in
every process cost about 10 ms and 2,200 minor page faults (2-core VM). A bulk
draw of `count` values splits the stream into lanes of 2^j consecutive
draws, jumps one state per lane to its start (lane i starts at draw
i * 2^j), then steps every lane together with numpy uint64 arithmetic, which
wraps modulo 2^64 exactly as the masked integers do. Every bulk draw takes
this path and leaves the state where `count` calls to `next_u64` would.
Counts of 2^48 or more, which the table cannot jump, are refused.
"""

from __future__ import annotations

import math
import os

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53

# shuffles of at most this many items draw one value at a time: up to about
# 250 items the scalar draws cost no more than next_u64s' lane set-up
# (2-core VM: 250 against 300 us at 200 items, 1.9 against 0.54 ms at 1000)
_SHUFFLE_SCALAR_MAX = 256
_HIT_MARGIN = 5.0   # geometric_hits blocks hold this many standard deviations of spare draws


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state; returns (new_state, output)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
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


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _step_lanes(s0: np.ndarray, s1: np.ndarray, s2: np.ndarray, s3: np.ndarray,
                t: np.ndarray) -> None:
    """One xoshiro256** state update of every lane, in place; t is a work buffer."""
    np.left_shift(s1, 17, out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.right_shift(s3, 19, out=t)
    s3 <<= 45
    s3 |= t


def _to_bits(words: np.ndarray) -> np.ndarray:
    """(4, L) uint64 states -> (256, L) uint8 0/1 bit columns; row 64*w + b
    holds bit b of word w."""
    raw = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)
    return np.ascontiguousarray(np.unpackbits(raw, axis=1, bitorder="little").T)


def _from_bits(bits: np.ndarray) -> np.ndarray:
    """Inverse of _to_bits: (256, L) 0/1 -> (4, L) uint64."""
    raw = np.packbits(np.ascontiguousarray(bits.T, dtype=np.uint8), axis=1,
                      bitorder="little")
    return np.ascontiguousarray(raw.view("<u8").T, dtype=np.uint64)


# T^(2^k) for k < JUMP_COUNT, T the 256x256 GF(2) matrix of one state
# update, each row packed into 32 bytes: a (JUMP_COUNT, 256, 32) uint8 table
# of constants that tools/xoshiro_jumps.py writes. Read on first use.
JUMP_COUNT = 48
JUMPS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "xoshiro_jumps.npy")
_JUMPS: np.ndarray | None = None


def _gf2_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over GF(2) for 0/1 matrices, as uint8. The product runs in
    float32 BLAS: each entry sums at most 256 ones, which float32 holds
    exactly, before it is reduced mod 2."""
    prod = np.matmul(a.astype(np.float32), b.astype(np.float32))
    return (prod.astype(np.int32) & 1).astype(np.uint8)


def _jump_table() -> np.ndarray:
    """The packed jump table, mapped from JUMPS_FILE once per process, so
    only the powers a process reads become resident. A missing or malformed
    file, or one cut short, raises RuntimeError naming it; there is no
    fallback to building the table here."""
    global _JUMPS
    if _JUMPS is None:
        try:
            table = np.load(JUMPS_FILE, allow_pickle=False, mmap_mode="r")
        except (OSError, ValueError) as err:
            raise RuntimeError(f"cannot read the xoshiro256** jump table {JUMPS_FILE}: "
                               f"{err}") from err
        if table.dtype != np.uint8 or table.shape != (JUMP_COUNT, 256, 32):
            raise RuntimeError(f"the xoshiro256** jump table {JUMPS_FILE} holds "
                               f"{table.dtype} {table.shape}, not uint8 "
                               f"{(JUMP_COUNT, 256, 32)}; rerun tools/xoshiro_jumps.py")
        _JUMPS = table
    return _JUMPS


def _jump_matrix(k: int) -> np.ndarray:
    """T^(2^k) as a 256x256 0/1 uint8 matrix."""
    return np.unpackbits(_jump_table()[k], axis=1)


def _check_count(count: int) -> None:
    # a count of 2^JUMP_COUNT or more would need T^(2^JUMP_COUNT)
    if not 0 <= count < 1 << JUMP_COUNT:
        raise ValueError(f"draw count must lie in [0, 2^{JUMP_COUNT}), got {count}")


class Rng:
    """xoshiro256** stream seeded via splitmix64."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, out = splitmix64(state)
            s.append(out)
        # all-zero state is invalid for xoshiro; splitmix64 output of four
        # consecutive draws is never all zero, but guard anyway
        if not any(s):
            s[0] = _GOLDEN
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

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

        Above _SHUFFLE_SCALAR_MAX items the len - 1 draws come from one
        next_u64s call and below()'s rejection bound is tested at every
        position at once. A draw below(m) would reject has probability
        under m / 2^64; if one occurs, the state goes back and the scalar
        loop runs. Either way the swaps and the state after are those of
        the scalar loop."""
        n = len(items)
        if n <= _SHUFFLE_SCALAR_MAX:
            self._shuffle_scalar(items)
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
        where `count` calls to next_u64 would. A count below 0 or of
        2^JUMP_COUNT or more raises ValueError."""
        _check_count(count)
        if count == 0:
            return np.zeros(0, dtype=np.uint64)
        # lane length 2^j near sqrt(count) balances the per-step numpy calls
        # (one per lane step) against the jump products (one column per lane)
        log_len = (count.bit_length() + 1) // 2
        lane_len = 1 << log_len
        lanes = -(-count // lane_len)
        # lane i starts 2^log_len * i draws ahead: double the lane set with
        # jumps of 2^(log_len + d) draws
        start = _to_bits(np.array(self._s, dtype=np.uint64)[:, None])
        d = 0
        while start.shape[1] < lanes:
            take = min(start.shape[1], lanes - start.shape[1])
            jumped = _gf2_product(_jump_matrix(log_len + d), start[:, :take])
            start = np.concatenate([start, jumped], axis=1)
            d += 1
        s0, s1, s2, s3 = _from_bits(start)
        t = np.empty(lanes, dtype=np.uint64)
        seen = np.empty((lane_len, lanes), dtype=np.uint64)  # s1 before each step
        last_steps = count - (lanes - 1) * lane_len  # draws taken from the last lane
        for j in range(lane_len):
            seen[j] = s1
            _step_lanes(s0, s1, s2, s3, t)
            if j + 1 == last_steps:
                final = [int(s0[-1]), int(s1[-1]), int(s2[-1]), int(s3[-1])]
        self._s = final
        # the output function rotl(s1 * 5, 7) * 9 on every recorded s1
        seen *= np.uint64(5)
        rot = seen >> np.uint64(57)
        seen <<= np.uint64(7)
        seen |= rot
        seen *= np.uint64(9)
        return seen.T.reshape(-1)[:count]

    def advance(self, count: int) -> None:
        """Move the stream `count` draws ahead, as `count` calls to next_u64
        would, without producing them. A count below 0 or of 2^JUMP_COUNT
        or more raises ValueError."""
        _check_count(count)
        bits = _to_bits(np.array(self._s, dtype=np.uint64)[:, None])
        k = 0
        while count:
            if count & 1:
                bits = _gf2_product(_jump_matrix(k), bits)
            count >>= 1
            k += 1
        self._s = [int(w) for w in _from_bits(bits)[:, 0]]

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
