"""Balanced graph clustering, mini-batch construction, and the epoch schedule.

The partitioner grows clusters by seeded BFS from peripheral (low-degree)
nodes, one cluster at a time, then runs greedy boundary refinement that moves
nodes to the adjacent cluster holding most of their neighbors, under a size
cap of 1.3 * n / P. Quality is reported (edge cut), not assumed.
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


_NODE_BLOCK = 8192  # nodes per block of the proposal pass


def _proposals(g: CsrGraph, cluster_of: np.ndarray,
               num_parts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node's refinement proposal: the cluster holding most of its
    neighbours (lowest id on ties, as np.argmax picks it), that cluster's
    neighbour count, and the neighbour count of the node's own cluster.
    Nodes without neighbours get (-1, 0, 0).

    Only the (node, cluster) pairs that occur are counted, a block of nodes
    at a time: the temporaries stay small and are the same size from block
    to block, so the allocator hands every block the same memory instead of
    growing the heap under the arrays that outlive the partition."""
    n = g.num_nodes
    best = np.full(n, -1, dtype=np.int64)
    best_count = np.zeros(n, dtype=np.int64)
    own_count = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, _NODE_BLOCK):
        hi = min(lo + _NODE_BLOCK, n)
        ptr = g.row_ptr[lo:hi + 1]
        local = np.repeat(np.arange(hi - lo, dtype=np.int64), np.diff(ptr))
        nbr_cluster = cluster_of[g.col_idx[ptr[0]:ptr[-1]]]
        keys, counts = np.unique(local * num_parts + nbr_cluster, return_counts=True)
        node = keys // num_parts
        # max count first, then the lowest cluster id
        score = counts * num_parts + (num_parts - 1 - keys % num_parts)
        first = np.flatnonzero(np.diff(node, prepend=-1))
        top = np.maximum.reduceat(score, first)
        best[lo + node[first]] = num_parts - 1 - top % num_parts
        best_count[lo + node[first]] = top // num_parts
        own = nbr_cluster == cluster_of[lo:hi][local]
        own_count[lo:hi] = np.bincount(local[own], minlength=hi - lo)
    return best, best_count, own_count


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
    """
    n = g.num_nodes
    if not (1 <= num_parts <= n):
        raise ValueError(f"num_parts must be in [1, {n}], got {num_parts}")

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
    # Proposals change within a sweep only where a lower-id neighbour moved,
    # so a sweep computes them all up front, then scans a pending mask
    # upward; a move marks the node's higher-id neighbours pending and dirty,
    # and a dirty node is counted again from the live cluster_of.
    cap = balance_cap(n, num_parts)
    floor_size = max(1, math.floor(n / num_parts / 1.3))
    row_ptr, col_idx = g.row_ptr.tolist(), g.col_idx
    sizes = np.bincount(cluster_of, minlength=num_parts).tolist()
    for _ in range(10):
        best, best_count, own_count = _proposals(g, cluster_of, num_parts)
        pending = bytearray((best_count > own_count).tobytes())
        pending_mask = np.frombuffer(pending, dtype=bool)
        dirty = np.zeros(n, dtype=bool)  # a lower-id neighbour moved in this sweep
        moved = 0
        v = -1
        while (v := pending.find(1, v + 1)) >= 0:
            cur = cluster_of.item(v)
            nbrs = col_idx[row_ptr[v]:row_ptr[v + 1]]
            if dirty[v]:
                counts = np.bincount(cluster_of[nbrs], minlength=num_parts)
                dest = counts.argmax().item()
                if counts[dest] <= counts[cur]:
                    continue
            else:
                dest = best.item(v)
            if sizes[dest] + 1 > cap or sizes[cur] - 1 < floor_size:
                continue
            cluster_of[v] = dest
            sizes[cur] -= 1
            sizes[dest] += 1
            moved += 1
            later = nbrs[nbrs > v]
            dirty[later] = True
            pending_mask[later] = True
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
