"""Balanced graph clustering, mini-batch construction, and the epoch schedule.

The partitioner grows clusters by seeded BFS from peripheral (low-degree)
nodes, one cluster at a time, then runs greedy boundary refinement that moves
nodes to the adjacent cluster holding most of their neighbors, under a size
cap of 1.3 * n / P. Quality is reported (edge cut), not assumed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import CsrGraph, NormAdj
from .rng import Rng

SAMPLERS = ("round_robin", "uniform", "importance")


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
        cap = max(math.ceil(n / self.num_parts), math.floor(1.3 * n / self.num_parts))
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
    global_map: np.ndarray  # local id -> global id, len(in_batch) + len(halo)


def _edge_cut(g: CsrGraph, cluster_of: np.ndarray) -> int:
    rows = np.repeat(np.arange(g.num_nodes, dtype=np.int64), np.diff(g.row_ptr))
    crossing = cluster_of[rows] != cluster_of[g.col_idx]
    return int(crossing.sum()) // 2


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
    cluster_of = np.full(n, -1, dtype=np.int64)
    unassigned = n

    for part in range(num_parts):
        target = math.ceil(unassigned / (num_parts - part))
        size = 0
        frontier: deque[int] = deque()
        while size < target:
            if not frontier:
                # new BFS seed: lowest-degree unassigned node, seeded tie-break
                free = np.flatnonzero(cluster_of < 0)
                cand = free[degrees[free] == degrees[free].min()]
                frontier.append(int(cand[rng.below(len(cand))]))
            v = frontier.popleft()
            if cluster_of[v] >= 0:
                continue
            cluster_of[v] = part
            size += 1
            unassigned -= 1
            for u in g.neighbors(v):
                if cluster_of[u] < 0:
                    frontier.append(int(u))

    # greedy boundary refinement: move a node to the adjacent cluster holding
    # most of its neighbors when that strictly reduces the cut and respects
    # the balance cap
    cap = max(math.ceil(n / num_parts), math.floor(1.3 * n / num_parts))
    floor_size = max(1, math.floor(n / num_parts / 1.3))
    sizes = np.bincount(cluster_of, minlength=num_parts)
    for _ in range(10):
        moved = 0
        for v in range(n):
            nbrs = g.neighbors(v)
            if len(nbrs) == 0:
                continue
            cur = cluster_of[v]
            counts = np.bincount(cluster_of[nbrs], minlength=num_parts)
            best = int(np.argmax(counts))
            if best == cur or counts[best] <= counts[cur]:
                continue
            if sizes[best] + 1 > cap or sizes[cur] - 1 < floor_size:
                continue
            cluster_of[v] = best
            sizes[cur] -= 1
            sizes[best] += 1
            moved += 1
        if moved == 0:
            break

    clusters = tuple(np.flatnonzero(cluster_of == p) for p in range(num_parts))
    part = Partition(num_parts=num_parts, cluster_of=cluster_of,
                     clusters=clusters, edge_cut=_edge_cut(g, cluster_of))
    part.validate(g)
    return part


def make_batch_from_nodes(g_norm: NormAdj, node_ids: np.ndarray) -> MiniBatch:
    """Build a MiniBatch whose targets are an explicit node set."""
    in_batch = np.unique(np.asarray(node_ids, dtype=np.int64))
    if len(in_batch) == 0:
        raise ValueError("empty batch")
    lo = g_norm.row_ptr[in_batch]
    lengths = g_norm.row_ptr[in_batch + 1] - lo
    row_ptr = np.zeros(len(in_batch) + 1, dtype=np.int64)
    np.cumsum(lengths, out=row_ptr[1:])
    # position in g_norm of every local entry, rows kept in in_batch order
    gather = np.repeat(lo - row_ptr[:-1], lengths) + np.arange(row_ptr[-1])
    cols = g_norm.col_idx[gather]
    halo = np.setdiff1d(np.unique(cols), in_batch, assume_unique=True)

    local_of = np.full(g_norm.num_cols, -1, dtype=np.int64)
    local_of[in_batch] = np.arange(len(in_batch))
    local_of[halo] = len(in_batch) + np.arange(len(halo))

    col_idx = local_of[cols]
    values = g_norm.values[gather]
    local_adj = NormAdj(num_rows=len(in_batch),
                        num_cols=len(in_batch) + len(halo),
                        row_ptr=row_ptr, col_idx=col_idx, values=values)
    return MiniBatch(in_batch=in_batch, halo=halo, local_adj=local_adj,
                     global_map=np.concatenate([in_batch, halo]))


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
                   sampler: str, seed: int, epoch: int = 0,
                   refresh_mode: str = "same") -> list[ScheduleStep]:
    """Plan one epoch of (refresh batches, gradient batch) groups.

    A seeded permutation of cluster ids is chunked into batches of
    clusters_per_batch; chunk j is the gradient batch of step j, so every
    cluster takes a gradient step exactly once per epoch. Refresh slots reuse
    the same chunk cycle at evenly strided offsets, which spaces the pushes of
    any one cluster ceil(num_chunks / (refresh_per_step + 1)) steps apart --
    the table-wide refresh gap the schedule is built to guarantee.

    round_robin ignores `epoch` so the stride pattern holds across epoch
    boundaries; uniform draws fresh refresh chunks per step from a
    (seed, epoch) stream; importance carries gradient batches only, refresh
    selection happening per step from the gradient batch's halo.
    """
    P = part.num_parts
    c = clusters_per_batch
    F = refresh_per_step
    if not (1 <= c <= P):
        raise ValueError(f"clusters_per_batch must be in [1, {P}], got {c}")
    if F < 0:
        raise ValueError("refresh_per_step must be >= 0")
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}")
    if refresh_mode not in ("same", "half", "full"):
        raise ValueError(f"unknown refresh_mode {refresh_mode!r}")

    perm = Rng(seed).permutation(P)
    nb = math.ceil(P / c)
    chunks = [tuple(perm[i * c:(i + 1) * c]) for i in range(nb)]

    def widen(start: int) -> tuple[int, ...]:
        # half/full refresh batches span more chunks, gradient batches never
        if refresh_mode == "full":
            return tuple(range(P))
        span = math.ceil(nb / 2) if refresh_mode == "half" else 1
        ids: list[int] = []
        for k in range(span):
            ids.extend(chunks[(start + k) % nb])
        return tuple(dict.fromkeys(ids))

    steps: list[ScheduleStep] = []
    if sampler == "uniform":
        draw = Rng(seed ^ (epoch + 1))
        for j in range(nb):
            picks = draw.sample(nb, min(F, nb))
            refresh = tuple(widen(i) for i in picks)
            steps.append(ScheduleStep(refresh=refresh, grad=chunks[j]))
    elif sampler == "importance":
        for j in range(nb):
            steps.append(ScheduleStep(refresh=(), grad=chunks[j]))
    else:
        offsets = [((i + 1) * nb) // (F + 1) for i in range(F)]
        for j in range(nb):
            refresh = tuple(widen((j + o) % nb) for o in offsets)
            steps.append(ScheduleStep(refresh=refresh, grad=chunks[j]))
    return steps
