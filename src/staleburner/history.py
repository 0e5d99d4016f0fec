"""Per-layer embedding memory with last-update bookkeeping.

One table row per node per stored layer. Rows are written by forward passes
(float32 storage) and read back to stand in for out-of-batch neighbors; the
step counters make staleness measurable: a row's persistence is the number of
parameter updates since it was last written.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

NEVER = -1  # last_update value of a row that was never pushed


class HistoryTable:
    """Dense per-layer row cache. Layer indices are 1-based and count model
    layers, i.e. layer l holds the post-activation outputs of layer l."""

    def __init__(self, num_nodes: int, dims: list[int]):
        self.num_nodes = num_nodes
        self.dims = list(dims)
        self.layers = [np.zeros((num_nodes, d), dtype=np.float32) for d in dims]
        self.last_update = np.full((num_nodes, len(dims)), NEVER, dtype=np.int64)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def _check_layer(self, layer: int) -> int:
        if not (1 <= layer <= len(self.layers)):
            raise ValueError(f"layer {layer} out of range [1, {len(self.layers)}]")
        return layer - 1

    def pull(self, layer: int, ids: np.ndarray) -> tuple[np.ndarray, int]:
        """Copy of the stored rows (the gather copies) plus the count of
        never-pushed ones (which read back as the zero initialization)."""
        li = self._check_layer(layer)
        ids = np.asarray(ids, dtype=np.int64)
        cold = int(np.count_nonzero(self.last_update[ids, li] == NEVER))
        return self.layers[li][ids], cold

    def push(self, layer: int, ids: np.ndarray, values: np.ndarray, step: int) -> None:
        li = self._check_layer(layer)
        ids = np.asarray(ids, dtype=np.int64)
        if values.shape != (len(ids), self.dims[li]):
            raise ValueError(
                f"push shape {values.shape} != ({len(ids)}, {self.dims[li]})")
        prev = self.last_update[ids, li]
        if len(prev) and step < prev.max():
            raise ValueError(f"step regression: pushing step {step} over {prev.max()}")
        self.layers[li][ids] = values.astype(np.float32, copy=False)
        self.last_update[ids, li] = step

    def dump(self, prefix: str) -> list[str]:
        """Write each layer as '<prefix>_l<k>.bin': an 8-byte header of two
        little-endian uint32 (num_nodes, dim) followed by row-major float32."""
        paths = []
        for k, mat in enumerate(self.layers, start=1):
            path = f"{prefix}_l{k}.bin"
            with open(path, "wb") as f:
                f.write(struct.pack("<II", mat.shape[0], mat.shape[1]))
                f.write(mat.astype("<f4", copy=False).tobytes(order="C"))
            paths.append(path)
        return paths


def load_table_dump(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        n, d = struct.unpack("<II", f.read(8))
        return np.frombuffer(f.read(), dtype="<f4").reshape(n, d)


@dataclass(frozen=True)
class LayerPersistence:
    mean: float          # over rows pushed at least once
    max: int             # 0 when every row is cold
    hist: np.ndarray     # bincount of warm-row persistences
    cold: int            # rows never pushed


def persistence_stats(table: HistoryTable, now: int) -> list[LayerPersistence]:
    """Per-layer persistence = now - last_update, in parameter updates.

    `now` is the number of completed optimizer steps; pushes record the step
    counter before its increment, so a row written during the latest step
    reads as persistence 1 at the start of the next one.
    """
    out = []
    for li in range(table.num_layers):
        last = table.last_update[:, li]
        warm = last != NEVER
        if len(last) and now < last[warm].max(initial=NEVER):
            raise ValueError(f"now={now} is behind a stored step {last[warm].max()}")
        ages = now - last[warm]
        if ages.size:
            out.append(LayerPersistence(mean=float(ages.mean()), max=int(ages.max()),
                                        hist=np.bincount(ages),
                                        cold=int(np.count_nonzero(~warm))))
        else:
            out.append(LayerPersistence(mean=0.0, max=0, hist=np.zeros(1, dtype=np.int64),
                                        cold=int(np.count_nonzero(~warm))))
    return out
