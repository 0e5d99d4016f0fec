"""The shipped xoshiro256** jump table, `src/staleburner/xoshiro_jumps.npy`.

Entry k must be T^(2^k), T the GF(2) matrix of one state update: entry 0 is
checked against the scalar `next_u64` on the 256 basis states, every later
entry against a square computed here, on the packed rows, without the
float32 product that `tools/xoshiro_jumps.py` and `rng` use. The tool must
reproduce the file, and the package must declare it as package data.
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from staleburner import rng as rng_module
from staleburner.rng import Rng

ROOT = Path(__file__).resolve().parent.parent


def table():
    return np.load(rng_module.JUMPS_FILE)


def gf2_square_of_packed(packed):
    """M @ M over GF(2), rows packed: row i of the square is the XOR of the
    rows j of M with M[i, j] = 1."""
    bits = np.unpackbits(packed, axis=1).astype(bool)
    return np.bitwise_xor.reduce(np.where(bits[:, :, None], packed[None, :, :], 0), axis=1)


def test_table_shape_and_dtype():
    t = table()
    assert t.dtype == np.uint8
    assert t.shape == (rng_module.JUMP_COUNT, 256, 32)


def test_entry_0_is_one_state_update_of_the_basis_states():
    t0 = np.unpackbits(table()[0], axis=1)
    for j in range(256):
        r = Rng(0)
        r._s = [1 << (j % 64) if w == j // 64 else 0 for w in range(4)]
        r.next_u64()
        column = [(r._s[i // 64] >> (i % 64)) & 1 for i in range(256)]
        assert t0[:, j].tolist() == column, j


def test_each_entry_squares_the_one_before():
    t = table()
    for k in range(1, len(t)):
        assert np.array_equal(t[k], gf2_square_of_packed(t[k - 1])), k


def test_tool_regenerates_the_file_byte_for_byte(tmp_path):
    out = tmp_path / "jumps.npy"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "xoshiro_jumps.py"),
                           "--out", str(out)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert out.read_bytes() == Path(rng_module.JUMPS_FILE).read_bytes()


@pytest.mark.parametrize("content", [None, b"not a numpy file",
                                     np.zeros((3, 256, 32), dtype=np.uint8),
                                     pytest.param(Path(rng_module.JUMPS_FILE).read_bytes()
                                                  [:100_000], id="cut short")])
def test_missing_or_malformed_table_fails_naming_the_file(tmp_path, monkeypatch, content):
    path = tmp_path / "xoshiro_jumps.npy"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        np.save(path, content)
    monkeypatch.setattr(rng_module, "JUMPS_FILE", str(path))
    monkeypatch.setattr(rng_module, "_JUMPS", None)
    with pytest.raises(RuntimeError, match=re.escape(str(path))):
        Rng(73).advance(5)


def test_package_data_declares_the_table():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["tool"]["setuptools"]["package-data"]["staleburner"]
    package = Path(rng_module.__file__).parent
    shipped = {p.name for pattern in declared for p in package.glob(pattern)}
    assert shipped == {Path(rng_module.JUMPS_FILE).name}
