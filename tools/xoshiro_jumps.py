"""Write the xoshiro256** jump table that `staleburner.rng` loads.

    python3 tools/xoshiro_jumps.py [--out PATH]

The xoshiro256** state update is linear over GF(2): a 256x256 bit matrix T,
whose column j is the update of the state with only bit j set (row
64*w + b holds bit b of word w). Entry k of the table is T^(2^k), for
k = 0 .. JUMP_COUNT - 1, built by repeated squaring with each row packed
into 32 bytes (`np.packbits`, big-endian bit order): a uint8 array of shape
(JUMP_COUNT, 256, 32), saved with `np.save` to `src/staleburner/
xoshiro_jumps.npy` unless --out names another file. The output is
deterministic, so running this again reproduces the shipped file byte for
byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from staleburner.rng import (JUMP_COUNT, JUMPS_FILE, _gf2_product,  # noqa: E402
                             _step_lanes, _to_bits)


def jump_table() -> np.ndarray:
    """T^(2^k) for k < JUMP_COUNT, rows packed: uint8 (JUMP_COUNT, 256, 32)."""
    basis = np.zeros((4, 256), dtype=np.uint64)
    bit = np.arange(256)
    basis[bit // 64, bit] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    _step_lanes(*basis, np.empty(256, dtype=np.uint64))
    power = _to_bits(basis)  # column j: the update of basis state j
    table = np.empty((JUMP_COUNT, 256, 32), dtype=np.uint8)
    for k in range(JUMP_COUNT):
        table[k] = np.packbits(power, axis=1)
        power = _gf2_product(power, power)
    return table


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=JUMPS_FILE, help="file to write (default: %(default)s)")
    args = ap.parse_args(argv)
    np.save(args.out, jump_table())


if __name__ == "__main__":
    main()
