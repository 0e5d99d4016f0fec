"""Graph storage, dataset synthesis/IO, and the normalized propagation operator.

Graphs are undirected, stored in CSR form without self-loops. The propagation
operator adds self-loops and symmetric degree normalization, so its spectral
norm is exactly 1 regardless of the input graph.

Operator products, and transposes of the symmetric operator, run through
one row kernel, scipy's CSR multi-vector product, writing straight into one
output the caller allocates. A product whose work nnz * width reaches
SPLIT_WORK, on a process that may run on more than one CPU, is cut into
BLOCKS_PER_CPU row blocks of about equal nnz per CPU. Each output row is
summed in CSR order whichever thread runs its block, so the result is
bit-identical to the unsplit product.

Blocks run through one block runner, `run_blocks`, which the dense side of
a whole-graph step (model.py) shares. Helper threads, one fewer than the
CPUs and started on the first split job, take blocks from the front; the
calling thread runs the first block, then takes back, last first, every
block no helper has started. Helpers run only the kernel a job hands the
runner: scipy's CSR product or one of model.py's block kernels, which call
numpy only.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvecs

from .rng import Rng, derive_seed

# nnz * width at which a sparse product is split into row blocks, and the
# least work of every block of a split dense job (even_blocks). On a 2-core
# VM, splitting a 2k-node whole-graph product (1.6M) saved 0.15 ms, less
# than waking a helper thread takes one time in ten (0.7-0.9 ms); 20k-node
# products (8.2M, 16.5M) saved 2.5 and 5 ms. A dgemm block of this work
# takes about 0.45 ms.
SPLIT_WORK = 1 << 22
# More blocks than CPUs, so that a helper whose CPU is busy elsewhere delays
# a product by at most the block it has started, not by a share of the rows.
BLOCKS_PER_CPU = 4

_helpers: ThreadPoolExecutor | None = None  # started by the first split job
_helpers_lock = threading.Lock()


class DatasetError(ValueError):
    """Raised when dataset files violate the on-disk contract."""


@dataclass(frozen=True)
class CsrGraph:
    """Undirected graph in CSR form. col_idx is sorted within each row,
    contains no duplicates and no self-loops; adjacency is symmetric."""

    num_nodes: int
    row_ptr: np.ndarray  # int64, shape (num_nodes + 1,)
    col_idx: np.ndarray  # int64, shape (num_edges_directed,)

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return len(self.col_idx) // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.col_idx[self.row_ptr[v]:self.row_ptr[v + 1]]

    def validate(self) -> None:
        n = self.num_nodes
        if self.row_ptr.shape != (n + 1,) or self.row_ptr[0] != 0:
            raise ValueError("row_ptr must have length num_nodes+1 and start at 0")
        if np.any(np.diff(self.row_ptr) < 0) or self.row_ptr[-1] != len(self.col_idx):
            raise ValueError("row_ptr must be nondecreasing and end at len(col_idx)")
        if len(self.col_idx) and (self.col_idx.min() < 0 or self.col_idx.max() >= n):
            raise ValueError("col_idx out of range")
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.row_ptr))
        # the first offending row decides the message; within one row the
        # order check comes before the self-loop check
        same_row = rows[1:] == rows[:-1]
        unsorted = rows[1:][same_row & (self.col_idx[1:] <= self.col_idx[:-1])]
        loops = rows[self.col_idx == rows]
        first_unsorted = int(unsorted[0]) if len(unsorted) else n
        first_loop = int(loops[0]) if len(loops) else n
        if first_unsorted < n and first_unsorted <= first_loop:
            raise ValueError(f"row {first_unsorted} is unsorted or has duplicates")
        if first_loop < n:
            raise ValueError(f"self-loop on node {first_loop}")
        # symmetry: the multiset of (u, v) pairs equals the multiset of (v, u)
        fwd = rows * n + self.col_idx
        rev = self.col_idx * n + rows
        if not np.array_equal(np.sort(fwd), np.sort(rev)):
            raise ValueError("adjacency is not symmetric")


def csr_from_edges(num_nodes: int, src: np.ndarray, dst: np.ndarray) -> CsrGraph:
    """Build a CsrGraph from directed edge endpoints.

    Edges are symmetrized (both directions stored), duplicates collapsed.
    Self-loops are rejected.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if len(src) and (src.min() < 0 or dst.min() < 0 or
                     src.max() >= num_nodes or dst.max() >= num_nodes):
        raise ValueError("edge endpoint out of range")
    if np.any(src == dst):
        bad = int(np.flatnonzero(src == dst)[0])
        raise ValueError(f"self-loop edge at position {bad}")
    u = np.concatenate([src, dst])
    v = np.concatenate([dst, src])
    keys = np.unique(u * np.int64(num_nodes) + v)
    rows = keys // num_nodes
    cols = keys % num_nodes
    row_ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=row_ptr[1:])
    return CsrGraph(num_nodes=num_nodes, row_ptr=row_ptr, col_idx=cols)


@dataclass(frozen=True)
class Dataset:
    """Node-classification dataset: graph, features, labels, split masks."""

    graph: CsrGraph
    features: np.ndarray  # float32, (n, d_in)
    labels: np.ndarray    # int64, (n,), values in [0, num_classes)
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def validate(self) -> None:
        n = self.graph.num_nodes
        if self.features.shape[0] != n:
            raise ValueError("feature row count != num_nodes")
        if self.labels.shape != (n,) or self.labels.min() < 0:
            raise ValueError("labels must be nonnegative with one entry per node")
        for name, m in (("train", self.train_mask), ("val", self.val_mask),
                        ("test", self.test_mask)):
            if m.shape != (n,) or m.dtype != np.bool_:
                raise ValueError(f"{name} mask must be a boolean vector of length n")
        if np.any(self.train_mask & self.val_mask) or \
           np.any(self.train_mask & self.test_mask) or \
           np.any(self.val_mask & self.test_mask):
            raise ValueError("masks overlap")


@dataclass(frozen=True)
class NormAdj:
    """Degree-normalized adjacency with self-loops, CSR.

    Square and `symmetric` when built by normalize_adjacency; batch
    construction reuses the type for rectangular row restrictions (rows =
    batch targets, columns = batch plus halo), values copied bit-exactly
    from the square operator. Products use one scipy CSR array built on
    first use from the three arrays below, which must not be mutated after
    that. `matmul`, and `t_matmul` of a symmetric operator, run the row
    kernel of the module docstring; other transposes use scipy's CSC
    scatter.
    """

    num_rows: int
    num_cols: int
    row_ptr: np.ndarray  # int64
    col_idx: np.ndarray  # int64
    values: np.ndarray   # float64
    # entry (u, v) equals entry (v, u) bit for bit and every row is sorted;
    # set only where that is known by construction, never inferred
    symmetric: bool = False

    @cached_property
    def csr(self) -> sparse.csr_array:
        """The operator as a scipy CSR array, sharing `values`."""
        return sparse.csr_array((self.values, self.col_idx, self.row_ptr),
                                shape=(self.num_rows, self.num_cols))

    @cached_property
    def row_bounds(self) -> list[int]:
        """Bounds of the row blocks a split product runs; one block when
        the process may run on one CPU only."""
        cpus = _cpus()
        return row_blocks(self.row_ptr, BLOCKS_PER_CPU * cpus if cpus > 1 else 1)

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """(num_rows, d) float64 product of a (num_cols, d) array; each row
        sums its terms sequentially in CSR order."""
        return self._row_product(dense)

    def t_matmul(self, dense: np.ndarray) -> np.ndarray:
        """Transpose product: (num_cols, d) result from (num_rows, d) input.

        For a symmetric operator the CSC scatter of the transpose adds, into
        each output row, the same products in the same (ascending column)
        order as the CSR gather, so the row kernel gives the same bits."""
        if self.symmetric:
            return self._row_product(dense)
        return self.csr.T @ dense

    def _row_product(self, dense: np.ndarray) -> np.ndarray:
        shape = np.shape(dense)
        if len(shape) != 2 or shape[0] != self.num_cols:
            raise ValueError(f"operand of shape {shape} does not fit an operator "
                             f"of shape ({self.num_rows}, {self.num_cols})")
        d = shape[1]
        # the output first, then the operand converted as scipy converts it
        # (float32 features become float64): in the other order rest-20k's
        # peak RSS rose by 1.9 MiB
        out = np.zeros((self.num_rows, d))
        x = np.ascontiguousarray(dense, dtype=np.float64)
        csr = self.csr
        bounds = (self.row_bounds if len(self.values) * d >= SPLIT_WORK
                  else [0, self.num_rows])
        flat_x = x.ravel()
        run_blocks(csr_matvecs, [(r1 - r0, self.num_cols, d, csr.indptr[r0:r1 + 1],
                                  csr.indices, csr.data, flat_x, out[r0:r1].ravel())
                                 for r0, r1 in zip(bounds[:-1], bounds[1:])])
        return out

    def row_norms(self) -> np.ndarray:
        """Per-row Euclidean norm of the operator rows."""
        return np.sqrt(self.csr.power(2) @ np.ones(self.num_cols))

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helper_pool() -> ThreadPoolExecutor:
    """The helper threads, one fewer than the CPUs, started by the first
    split job."""
    global _helpers
    with _helpers_lock:
        if _helpers is None:
            _helpers = ThreadPoolExecutor(max_workers=max(_cpus() - 1, 1),
                                          thread_name_prefix="staleburner-rows")
        return _helpers


def _forget_helpers() -> None:
    """A forked child has none of its parent's threads; a pool it inherited
    would queue work that never runs."""
    global _helpers, _helpers_lock
    _helpers, _helpers_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def run_blocks(kernel, blocks: list[tuple]) -> None:
    """Call kernel(*args) once for every args in `blocks`, which must write
    disjoint outputs. The caller runs the first block; helpers take the
    others from the front, and the caller takes back, last first, every
    block no helper has started. With one block no thread is involved."""
    pending = [(_helper_pool().submit(kernel, *b), b) for b in blocks[1:]]
    kernel(*blocks[0])
    for job, block in reversed(pending):
        if job.cancel():  # no helper has started it
            kernel(*block)
        else:
            job.result()


def even_blocks(size: int, unit_work: int) -> list[int]:
    """Bounds cutting the `size` rows of a dense job, each carrying
    `unit_work` multiply-adds or their equivalent, into equal blocks: up to
    BLOCKS_PER_CPU per CPU, each of at least two rows and SPLIT_WORK work;
    one block otherwise.

    The floor keeps every split product on the kernel the whole product
    runs on. OpenBLAS computes a dgemm of M*N*K up to about 1e6 with its
    small-matrix kernel and numpy a one-row product as a matrix-vector one;
    either sums in another order than a large dgemm, so a block of 500 rows,
    or of one, of a 20000 x 64 @ 64 x 20 product differed in its last bits.
    Blocks of SPLIT_WORK and two rows equalled the unsplit product for every
    shape of the benchmark's workloads, at every offset tried."""
    if size * unit_work < 2 * SPLIT_WORK:  # batch-sized: no CPU count needed
        return [0, size]
    cpus = _cpus()
    least = max(2, -(-SPLIT_WORK // max(unit_work, 1)))
    parts = max(1, min(BLOCKS_PER_CPU * cpus if cpus > 1 else 1, size // least))
    return [size * i // parts for i in range(parts + 1)]


def row_blocks(row_ptr: np.ndarray, parts: int) -> list[int]:
    """parts + 1 row bounds cutting the rows into `parts` contiguous blocks
    of about equal nnz; blocks may be empty."""
    n = len(row_ptr) - 1
    targets = np.arange(parts + 1, dtype=np.int64) * int(row_ptr[-1]) // parts
    bounds = np.searchsorted(row_ptr, targets).tolist()
    bounds[0], bounds[-1] = 0, n
    return bounds


def normalize_adjacency(g: CsrGraph) -> NormAdj:
    """Self-loops plus symmetric normalization: entry (u, v) is
    1/sqrt((deg_u + 1) * (deg_v + 1)). Isolated nodes get the single value 1."""
    n = g.num_nodes
    degrees = g.degrees()
    inv_sqrt = 1.0 / np.sqrt(degrees.astype(np.float64) + 1.0)
    nodes = np.arange(n, dtype=np.int64)
    rows = np.concatenate([np.repeat(nodes, degrees), nodes])
    cols = np.concatenate([g.col_idx, nodes])
    # one sort by (row, col) slots each self-loop into its sorted row
    order = np.argsort(rows * n + cols, kind="stable")
    rows, cols = rows[order], cols[order]
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees + 1, out=row_ptr[1:])
    # inv_sqrt[u] * inv_sqrt[v] == inv_sqrt[v] * inv_sqrt[u]: symmetric bitwise
    return NormAdj(num_rows=n, num_cols=n, row_ptr=row_ptr, col_idx=cols,
                   values=inv_sqrt[rows] * inv_sqrt[cols], symmetric=True)


def spectral_norm_upper(m, iters: int = 200, tol: float = 1e-3) -> tuple[float, bool]:
    """Power-iteration upper envelope for the 2-norm of a matrix.

    Accepts a NormAdj or a dense ndarray. Iterates on the Gram operator
    M^T M from a fixed all-ones start, so the result is deterministic and
    sign-oscillation-free. Returns (estimate * (1 + tol), converged); on
    non-convergence the last estimate is still inflated and returned.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if isinstance(m, NormAdj):
        fwd = m.matmul
        bwd = m.t_matmul
        ncols = m.num_cols
    else:
        dense = np.asarray(m, dtype=np.float64)
        fwd = lambda x: dense @ x
        bwd = lambda x: dense.T @ x
        ncols = dense.shape[1]
    v = np.ones((ncols, 1), dtype=np.float64)
    v /= math.sqrt(ncols)
    sigma = 0.0
    converged = False
    for _ in range(iters):
        w = fwd(v)
        new_sigma = float(np.linalg.norm(w))
        if new_sigma == 0.0:
            return 0.0, True
        v = bwd(w)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return new_sigma * (1.0 + tol), True
        v /= nv
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-30):
            sigma = new_sigma
            converged = True
            break
        sigma = new_sigma
    return sigma * (1.0 + tol), converged


def sbm_generate(blocks: int, nodes_per_block: int, p_in: float, p_out: float,
                 d_in: int = 0, seed: int = 0) -> Dataset:
    """Planted-partition graph with block labels and noisy one-hot features.

    Nodes of block b occupy the contiguous id range [b*npb, (b+1)*npb). Each
    intra-block pair is an edge with probability p_in, cross-block with p_out;
    sparse regimes are sampled with geometric skipping so cost is O(edges).
    Features are one-hot block indicators plus N(0, 0.5^2) noise; masks split
    60/20/20 per class. Bitwise-deterministic in (arguments, seed).
    """
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    if nodes_per_block < 1:
        raise ValueError("nodes_per_block must be >= 1")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValueError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in} p_out={p_out}")
    if d_in <= 0:
        d_in = blocks
    n = blocks * nodes_per_block
    npb = nodes_per_block
    rng = Rng(derive_seed(seed, "sbm-edges"))

    def sample_ranges(range_start: np.ndarray, range_len: np.ndarray,
                      p: float) -> tuple[np.ndarray, np.ndarray]:
        # Bernoulli(p) over the concatenation of per-node candidate ranges:
        # node u pairs with v = range_start[u] + offset for offset < range_len[u].
        # Geometric skipping visits only the sampled pairs.
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(range_len, out=offsets[1:])
        total = int(offsets[-1])
        if p <= 0.0 or total == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        hits = np.arange(total, dtype=np.int64) if p >= 1.0 else rng.geometric_hits(p, total)
        u = np.searchsorted(offsets, hits, side="right") - 1
        return u, range_start[u] + (hits - offsets[u])

    block_end = (np.arange(n, dtype=np.int64) // npb + 1) * npb
    ids = np.arange(n, dtype=np.int64)
    # intra-block: v in (u, block_end)
    src_in, dst_in = sample_ranges(ids + 1, block_end - (ids + 1), p_in)
    # cross-block: v in [block_end, n)
    src_out, dst_out = sample_ranges(block_end, n - block_end, p_out)

    graph = csr_from_edges(n, np.concatenate([src_in, src_out]),
                           np.concatenate([dst_in, dst_out]))

    labels = np.repeat(np.arange(blocks, dtype=np.int64), npb)
    feat_rng = Rng(derive_seed(seed, "sbm-features"))
    features = (0.5 * feat_rng.normals(n * d_in)).reshape(n, d_in)
    features[np.arange(n), labels % d_in] += 1.0
    features = features.astype(np.float32)

    mask_rng = Rng(derive_seed(seed, "sbm-masks"))
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for c in range(blocks):
        ids = np.flatnonzero(labels == c).tolist()
        mask_rng.shuffle(ids)
        k = len(ids)
        n_tr = max(1, int(0.6 * k))
        n_val = int(0.2 * k)
        train[ids[:n_tr]] = True
        val[ids[n_tr:n_tr + n_val]] = True
        test[ids[n_tr + n_val:]] = True

    ds = Dataset(graph=graph, features=features, labels=labels,
                 train_mask=train, val_mask=val, test_mask=test)
    ds.validate()
    return ds


# ---------------------------------------------------------------------------
# on-disk dataset format: edges.tsv, features.csv, labels.csv, masks.csv
# (plain text, LF-terminated, no headers)

_MASK_NAMES = ("train", "val", "test")


def save_dataset(ds: Dataset, path: str) -> None:
    os.makedirs(path, exist_ok=True)
    g = ds.graph
    with open(os.path.join(path, "edges.tsv"), "w") as f:
        for v in range(g.num_nodes):
            for u in g.neighbors(v):
                if v < u:  # store each undirected edge once
                    f.write(f"{v}\t{u}\n")
    with open(os.path.join(path, "features.csv"), "w") as f:
        for row in ds.features:
            f.write(",".join(f"{x:.9g}" for x in row) + "\n")
    with open(os.path.join(path, "labels.csv"), "w") as f:
        for y in ds.labels:
            f.write(f"{y}\n")
    with open(os.path.join(path, "masks.csv"), "w") as f:
        for i in range(g.num_nodes):
            name = "train" if ds.train_mask[i] else ("val" if ds.val_mask[i] else "test")
            f.write(name + "\n")


def load_dataset(path: str) -> Dataset:
    """Load and validate a dataset directory.

    Errors carry the file name and 1-based line number of the offense.
    Edges are symmetrized and duplicates collapsed, so a file listing both
    directions of an edge loads identically to one listing a single direction.
    """
    for fname in ("edges.tsv", "features.csv", "labels.csv", "masks.csv"):
        if not os.path.isfile(os.path.join(path, fname)):
            raise DatasetError(f"{fname}: missing from {path}")

    feats: list[list[float]] = []
    width = -1
    with open(os.path.join(path, "features.csv")) as f:
        for ln, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split(",")
            try:
                row = [float(x) for x in parts]
            except ValueError:
                raise DatasetError(f"features.csv:{ln}: non-numeric value") from None
            if width < 0:
                width = len(row)
            elif len(row) != width:
                raise DatasetError(
                    f"features.csv:{ln}: ragged row ({len(row)} values, expected {width})")
            feats.append(row)
    if not feats:
        raise DatasetError("features.csv: empty")
    features = np.array(feats, dtype=np.float32)
    n = len(feats)

    labels = np.empty(n, dtype=np.int64)
    with open(os.path.join(path, "labels.csv")) as f:
        ln = 0
        for ln, line in enumerate(f, start=1):
            if ln > n:
                raise DatasetError(f"labels.csv:{ln}: more labels than nodes")
            try:
                labels[ln - 1] = int(line.strip())
            except ValueError:
                raise DatasetError(f"labels.csv:{ln}: not an integer") from None
        if ln != n:
            raise DatasetError(f"labels.csv: {ln} labels for {n} nodes")
    if labels.min() < 0:
        bad = int(np.flatnonzero(labels < 0)[0]) + 1
        raise DatasetError(f"labels.csv:{bad}: negative label")
    num_classes = len(np.unique(labels))
    if labels.max() >= num_classes:
        # classes must form the contiguous range 0..C-1
        bad = int(np.flatnonzero(labels >= num_classes)[0]) + 1
        raise DatasetError(
            f"labels.csv:{bad}: label {labels[bad - 1]} out of range [0,{num_classes})")

    masks = {name: np.zeros(n, dtype=bool) for name in _MASK_NAMES}
    with open(os.path.join(path, "masks.csv")) as f:
        ln = 0
        for ln, line in enumerate(f, start=1):
            if ln > n:
                raise DatasetError(f"masks.csv:{ln}: more rows than nodes")
            name = line.strip()
            if name not in masks:
                raise DatasetError(f"masks.csv:{ln}: expected train|val|test, got {name!r}")
            masks[name][ln - 1] = True
        if ln != n:
            raise DatasetError(f"masks.csv: {ln} rows for {n} nodes")

    srcs: list[int] = []
    dsts: list[int] = []
    with open(os.path.join(path, "edges.tsv")) as f:
        for ln, line in enumerate(f, start=1):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise DatasetError(f"edges.tsv:{ln}: expected 'u<TAB>v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DatasetError(f"edges.tsv:{ln}: non-integer endpoint") from None
            if not (0 <= u < n and 0 <= v < n):
                raise DatasetError(f"edges.tsv:{ln}: endpoint out of range [0,{n})")
            if u == v:
                raise DatasetError(f"edges.tsv:{ln}: self-loop not allowed")
            srcs.append(u)
            dsts.append(v)

    graph = csr_from_edges(n, np.array(srcs, dtype=np.int64),
                           np.array(dsts, dtype=np.int64))
    ds = Dataset(graph=graph, features=features, labels=labels,
                 train_mask=masks["train"], val_mask=masks["val"],
                 test_mask=masks["test"])
    ds.validate()
    return ds
