"""Loop implementations of the set-up path, kept as oracles.

`sbm_generate_reference` and `partition_graph_reference` are the per-draw,
per-hit and per-node implementations that `sbm_generate` and
`partition_graph` replaced, kept verbatim apart from their names and, in the
SBM, the feature draw going through `normals_reference`. The vectorized code
must reproduce them bit for bit.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from staleburner.graph import CsrGraph, Dataset, csr_from_edges
from staleburner.partition import Partition, _edge_cut
from staleburner.rng import Rng, _INV_2_53, derive_seed


def u64s_reference(rng: Rng, count: int) -> np.ndarray:
    return np.array([rng.next_u64() for _ in range(count)], dtype=np.uint64)


def uniforms_reference(rng: Rng, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    out = np.empty(count, dtype=np.float64)
    for i in range(count):
        out[i] = rng.random()
    return lo + (hi - lo) * out


def normals_reference(rng: Rng, count: int) -> np.ndarray:
    pairs = (count + 1) // 2
    u = np.empty(2 * pairs, dtype=np.float64)
    for i in range(2 * pairs):
        u[i] = rng.random()
    u1 = np.maximum(u[0::2], _INV_2_53)
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


def sbm_generate_reference(blocks: int, nodes_per_block: int, p_in: float, p_out: float,
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

    src: list[int] = []
    dst: list[int] = []

    def sample_ranges(range_start: np.ndarray, range_len: np.ndarray, p: float) -> None:
        # Bernoulli(p) over the concatenation of per-node candidate ranges:
        # node u pairs with v = range_start[u] + offset for offset < range_len[u].
        # Geometric skipping visits only the sampled pairs.
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(range_len, out=offsets[1:])
        total = int(offsets[-1])
        if p <= 0.0 or total == 0:
            return
        if p >= 1.0:
            hits = range(total)
        else:
            hits = []
            t = rng.geometric_skip(p)
            while t < total:
                hits.append(t)
                t += 1 + rng.geometric_skip(p)
        for t in hits:
            u = int(np.searchsorted(offsets, t, side="right")) - 1
            src.append(u)
            dst.append(int(range_start[u]) + (t - int(offsets[u])))

    block_end = (np.arange(n, dtype=np.int64) // npb + 1) * npb
    ids = np.arange(n, dtype=np.int64)
    # intra-block: v in (u, block_end)
    sample_ranges(ids + 1, block_end - (ids + 1), p_in)
    # cross-block: v in [block_end, n)
    sample_ranges(block_end, n - block_end, p_out)

    graph = csr_from_edges(n, np.array(src, dtype=np.int64),
                           np.array(dst, dtype=np.int64))

    labels = np.repeat(np.arange(blocks, dtype=np.int64), npb)
    feat_rng = Rng(derive_seed(seed, "sbm-features"))
    features = (0.5 * normals_reference(feat_rng, n * d_in)).reshape(n, d_in)
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


def partition_graph_reference(g: CsrGraph, num_parts: int, seed: int) -> Partition:
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
