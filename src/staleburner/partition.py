"""Balanced graph clustering, mini-batch construction, and the epoch schedule.

The partitioner grows clusters by seeded BFS from peripheral (low-degree)
nodes, one cluster at a time, then runs greedy boundary refinement that moves
nodes to the adjacent cluster holding most of their neighbors, under a size
cap of 1.3 * n / P. The refinement reads every node's neighbour count per
cluster from one n x P table that each move updates along the mover's
neighbours, as METIS keeps its internal and external degrees (Karypis and
Kumar, SIAM J. Sci. Comput. 1998). Quality is reported (edge cut), not
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import CsrGraph, NormAdj, sorted_unique
from .rng import Rng


def balance_cap(num_nodes: int, num_parts: int) -> int:
    """Largest cluster size allowed: 1.3 * n / P, never below ceil(n / P)."""
    return max(math.ceil(num_nodes / num_parts), math.floor(1.3 * num_nodes / num_parts))


@dataclass(frozen=True)
class Partition:
    num_parts: int
    cluster_of: np.ndarray        # int64, node -> part
    clusters: tuple[np.ndarray, ...]  # per part, sorted node ids
    edge_cut: int

    def validate(self, g: CsrGraph) -> None:
        n = g.num_nodes
        if self.cluster_of.shape != (n,):
            raise ValueError("cluster_of must map every node")
        sizes = np.bincount(self.cluster_of, minlength=self.num_parts)
        if np.any(sizes == 0):
            raise ValueError("empty cluster")
        cap = balance_cap(n, self.num_parts)
        if sizes.max() > cap:
            raise ValueError(f"cluster size {sizes.max()} exceeds balance cap {cap}")


@dataclass(frozen=True)
class MiniBatch:
    """A set of target nodes plus everything needed to aggregate for them.

    in_batch and halo are sorted global ids; local_adj holds the normalized
    adjacency rows of the in_batch targets over local columns, where local id
    i < len(in_batch) is in_batch[i] and the rest are halo nodes. Values are
    exact copies of the global operator's entries.
    """

    in_batch: np.ndarray
    halo: np.ndarray
    local_adj: NormAdj


def _edge_cut(g: CsrGraph, cluster_of: np.ndarray) -> int:
    rows = np.repeat(np.arange(g.num_nodes, dtype=np.int64), np.diff(g.row_ptr))
    crossing = cluster_of[rows] != cluster_of[g.col_idx]
    return int(crossing.sum()) // 2


_TABLE_BLOCK = 1 << 14  # table entries counted per block: 128 KiB of int64
# bytes of the largest neighbour-cluster table partition_graph builds; it
# refuses larger ones. 50k nodes at 2684 parts, or 20k nodes at 6710, at
# degrees up to 255
TABLE_MAX_BYTES = 1 << 27


def _table_dtype(g: CsrGraph) -> np.dtype:
    """The narrowest unsigned dtype that holds g's largest degree."""
    return np.min_scalar_type(int(np.diff(g.row_ptr).max(initial=0)))


def _neighbour_cluster_counts(g: CsrGraph, rows: np.ndarray, cluster_of: np.ndarray,
                              num_parts: int) -> np.ndarray:
    """The n x num_parts table whose entry (v, p) counts v's neighbours in
    cluster p, in `_table_dtype(g)`; `rows` is the CSR row of every entry of
    g.col_idx. Rows are counted a block at a time, so the int64 counts of
    np.bincount never span more than _TABLE_BLOCK entries."""
    n = g.num_nodes
    table = np.empty((n, num_parts), dtype=_table_dtype(g))
    keys = rows * num_parts + cluster_of[g.col_idx]
    block = max(1, _TABLE_BLOCK // num_parts)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        counts = np.bincount(keys[g.row_ptr[lo]:g.row_ptr[hi]] - lo * num_parts,
                             minlength=(hi - lo) * num_parts)
        table[lo:hi] = counts.reshape(hi - lo, num_parts)
    return table


def _next_level(g: CsrGraph, cluster_of: np.ndarray, level: np.ndarray) -> np.ndarray:
    """The unassigned neighbours of `level`'s nodes, each once, in the order
    a BFS queue first takes them: by node of `level`, then by id."""
    if len(level) == 1:  # one CSR row: sorted, without duplicates
        v = int(level[0])
        nbrs = g.col_idx[g.row_ptr[v]:g.row_ptr[v + 1]]
        return nbrs[cluster_of[nbrs] < 0]
    lo = g.row_ptr[level]
    lengths = g.row_ptr[level + 1] - lo
    ends = np.cumsum(lengths)
    nbrs = g.col_idx[np.repeat(lo - ends + lengths, lengths) + np.arange(ends[-1])]
    nbrs = nbrs[cluster_of[nbrs] < 0]
    _, first = np.unique(nbrs, return_index=True)
    return nbrs[np.sort(first)]


def partition_graph(g: CsrGraph, num_parts: int, seed: int) -> Partition:
    """Cluster the graph into num_parts balanced, low-cut node sets.

    Deterministic in (graph, num_parts, seed); the seed only breaks ties in
    BFS seeding, so degenerate graphs (disjoint cliques, paths) always land
    in their natural clustering.

    The refinement holds an n x num_parts table of neighbour counts in the
    narrowest unsigned dtype of the largest degree: n * num_parts bytes up
    to degree 255 (10 MB at 20k nodes and 512 parts). A table above
    TABLE_MAX_BYTES is refused with a ValueError before any work, since it
    grows to n^2 bytes as num_parts nears n.
    """
    n = g.num_nodes
    if not (1 <= num_parts <= n):
        raise ValueError(f"num_parts must be in [1, {n}], got {num_parts}")
    table_bytes = n * num_parts * _table_dtype(g).itemsize
    if table_bytes > TABLE_MAX_BYTES:
        raise ValueError(
            f"{n} nodes at {num_parts} parts need a {table_bytes / 2**20:.0f} MiB "
            f"neighbour-count table; at most {TABLE_MAX_BYTES >> 20} MiB is "
            f"supported, so use at most {TABLE_MAX_BYTES // (table_bytes // num_parts)} parts")

    rng = Rng(seed)
    degrees = g.degrees()
    cluster_of = np.full(n, -1, dtype=np.int64)  # node -> part
    unassigned = n
    # nodes by (degree, id): the unassigned nodes of least degree, in id
    # order, are the unassigned part of the degree group at the first
    # unassigned position. Each re-seed moves that part to the group's end
    # and the first position up to it, so no re-seed scans the nodes an
    # earlier one found assigned.
    by_degree = np.argsort(degrees, kind="stable")
    degree_sorted = degrees[by_degree]
    first_free = 0

    # BFS one level at a time, as a FIFO queue that skips nodes assigned
    # since they were queued would pop them: every node of level k before
    # any of level k + 1, which holds the unassigned neighbours of level k in
    # the order they were first queued. A part whose target falls inside a
    # level takes that level's first nodes and drops the rest.
    for part in range(num_parts):
        target = math.ceil(unassigned / (num_parts - part))
        size = 0
        level = np.zeros(0, dtype=np.int64)
        while size < target:
            if len(level) == 0:
                # new BFS seed: lowest-degree unassigned node, seeded tie-break
                while cluster_of[by_degree[first_free]] >= 0:
                    first_free += 1
                group_end = np.searchsorted(degree_sorted, degree_sorted[first_free],
                                            side="right")
                group = by_degree[first_free:group_end]
                cand = group[cluster_of[group] < 0]
                first_free = group_end - len(cand)
                by_degree[first_free:group_end] = cand
                j = rng.below(len(cand))
                level = cand[j:j + 1]
            level = level[:target - size]
            cluster_of[level] = part
            size += len(level)
            if size < target:
                level = _next_level(g, cluster_of, level)
        unassigned -= size

    # greedy boundary refinement: visiting nodes in id order, move a node to
    # the adjacent cluster holding most of its neighbours (lowest id on ties)
    # when that strictly reduces the cut and keeps the size cap and floor.
    # table[v, p] counts v's neighbours in cluster p and follows every move,
    # so a visit reads its live row. A node's row changes within a sweep only
    # where a lower-id neighbour moved, so a sweep scans a pending mask
    # upward, starting from the nodes whose sweep-start row holds a better
    # cluster; a move marks the node's higher-id neighbours pending.
    cap = balance_cap(n, num_parts)
    floor_size = max(1, math.floor(n / num_parts / 1.3))
    # row_ptr and later stay arrays, read with .item(): a list of n Python
    # ints leaves half-empty interpreter arenas resident once it is freed
    # (rest-20k: 0.7 MiB more after set-up per list)
    row_ptr, col_idx = g.row_ptr, g.col_idx
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(row_ptr))
    table = _neighbour_cluster_counts(g, rows, cluster_of, num_parts)
    # row v's neighbours of higher id start at col_idx[later[v]]
    later = row_ptr[:-1] + np.bincount(rows[col_idx <= rows], minlength=n)
    del rows
    sizes = np.bincount(cluster_of, minlength=num_parts).tolist()
    nodes = np.arange(n)
    for _ in range(10):
        pending = bytearray((table.max(axis=1) > table[nodes, cluster_of]).tobytes())
        pending_mask = np.frombuffer(pending, dtype=bool)
        moved = 0
        v = -1
        while (v := pending.find(1, v + 1)) >= 0:
            row = table[v]
            dest = int(row.argmax())  # a numpy scalar's .item() costs more than the argmax
            cur = cluster_of.item(v)
            if row.item(dest) <= row.item(cur):
                continue
            if sizes[dest] + 1 > cap or sizes[cur] - 1 < floor_size:
                continue
            cluster_of[v] = dest
            sizes[cur] -= 1
            sizes[dest] += 1
            moved += 1
            end = row_ptr.item(v + 1)
            nbrs = col_idx[row_ptr.item(v):end]
            column = table[:, cur]  # one-index updates cost half of table[nbrs, cur]'s
            column[nbrs] -= 1
            column = table[:, dest]
            column[nbrs] += 1
            pending_mask[col_idx[later.item(v):end]] = True
        if moved == 0:
            break

    clusters = tuple(np.flatnonzero(cluster_of == p) for p in range(num_parts))
    part = Partition(num_parts=num_parts, cluster_of=cluster_of,
                     clusters=clusters, edge_cut=_edge_cut(g, cluster_of))
    part.validate(g)
    return part


def make_batch_from_nodes(g_norm: NormAdj, node_ids: np.ndarray) -> MiniBatch:
    """Build a MiniBatch whose targets are an explicit node set."""
    in_batch = sorted_unique(np.asarray(node_ids, dtype=np.int64))
    if len(in_batch) == 0:
        raise ValueError("empty batch")
    lo = g_norm.row_ptr[in_batch]
    lengths = g_norm.row_ptr[in_batch + 1] - lo
    row_ptr = np.zeros(len(in_batch) + 1, dtype=np.int64)
    np.cumsum(lengths, out=row_ptr[1:])
    # position in g_norm of every local entry, rows kept in in_batch order
    gather = np.repeat(lo - row_ptr[:-1], lengths) + np.arange(row_ptr[-1])
    cols = g_norm.col_idx[gather]
    in_halo = np.zeros(g_norm.num_cols, dtype=bool)
    in_halo[cols] = True
    in_halo[in_batch] = False
    halo = np.flatnonzero(in_halo)

    local_of = np.full(g_norm.num_cols, -1, dtype=np.int64)
    local_of[in_batch] = np.arange(len(in_batch))
    local_of[halo] = len(in_batch) + np.arange(len(halo))

    col_idx = local_of[cols]
    values = g_norm.values[gather]
    local_adj = NormAdj(num_rows=len(in_batch),
                        num_cols=len(in_batch) + len(halo),
                        row_ptr=row_ptr, col_idx=col_idx, values=values)
    return MiniBatch(in_batch=in_batch, halo=halo, local_adj=local_adj)


def make_batch(g_norm: NormAdj, part: Partition, cluster_ids: list[int]) -> MiniBatch:
    """Batch = union of the named clusters, plus their 1-hop halo."""
    if len(cluster_ids) == 0:
        raise ValueError("cluster_ids must be nonempty")
    if len(set(cluster_ids)) != len(cluster_ids):
        raise ValueError(f"duplicate cluster id in {cluster_ids}")
    for cid in cluster_ids:
        if not (0 <= cid < part.num_parts):
            raise ValueError(f"cluster id {cid} out of range [0,{part.num_parts})")
    nodes = np.concatenate([part.clusters[c] for c in cluster_ids])
    return make_batch_from_nodes(g_norm, nodes)


@dataclass(frozen=True)
class ScheduleStep:
    refresh: tuple[tuple[int, ...], ...]  # F cluster-id lists
    grad: tuple[int, ...]                 # cluster ids of the gradient batch


def schedule_epoch(part: Partition, clusters_per_batch: int, refresh_per_step: int,
                   seed: int) -> list[ScheduleStep]:
    """Plan the (refresh batches, gradient batch) groups of an epoch; every
    epoch of a run repeats the same plan.

    A seeded permutation of cluster ids is chunked into batches of
    clusters_per_batch; chunk j is the gradient batch of step j, so every
    cluster takes a gradient step exactly once per epoch. Refresh slots reuse
    the same chunk cycle at evenly strided nonzero offsets, one slot per
    other chunk at most: a step refreshes S = min(refresh_per_step,
    num_chunks - 1) chunks, never its own gradient chunk and none twice.
    This spaces the pushes of any one cluster ceil(num_chunks / (S + 1))
    steps apart -- the table-wide refresh gap the schedule is built to
    guarantee, across epoch boundaries too.
    """
    P = part.num_parts
    c = clusters_per_batch
    F = refresh_per_step
    if not (1 <= c <= P):
        raise ValueError(f"clusters_per_batch must be in [1, {P}], got {c}")
    if F < 0:
        raise ValueError("refresh_per_step must be >= 0")

    perm = Rng(seed).permutation(P)
    nb = math.ceil(P / c)
    chunks = [tuple(perm[i * c:(i + 1) * c]) for i in range(nb)]
    slots = min(F, nb - 1)
    offsets = [((i + 1) * nb) // (slots + 1) for i in range(slots)]
    return [ScheduleStep(refresh=tuple(chunks[(j + o) % nb] for o in offsets),
                         grad=chunks[j])
            for j in range(nb)]
