"""Island partitioning (groups of interconnected objects).

"Rigid body simulation involves the solving of forces within each group of
interconnected objects (island). ... Each island is independent" — the LCP
phase's parallelism granularity.  A union-find over the contact/joint
graph labels each dynamic body with its island; static geometry does not
merge islands (everything resting on the ground would otherwise be one
island).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["UnionFind", "partition_islands", "island_members",
           "islands_of"]


class UnionFind:
    """Classic disjoint-set with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def partition_islands(
    n_bodies: int,
    dynamic: np.ndarray,
    edges_a,
    edges_b,
) -> np.ndarray:
    """Label each body with an island id; static bodies get -1.

    Edge ``k`` of the contacts and joints joins bodies ``edges_a[k]``
    and ``edges_b[k]`` (flat index arrays, as the contact set holds
    them).  Indices outside ``[0, n_bodies)`` (the virtual world body)
    are ignored, as are edges touching non-dynamic bodies — a shared
    static support does not couple two piles.

    The prefilter and duplicate elimination are vectorized; island
    labels depend only on the connectivity partition, so deduplicating
    and reordering edges cannot change the result.
    """
    edges_a = np.asarray(edges_a, dtype=np.int64)
    edges_b = np.asarray(edges_b, dtype=np.int64)
    dmask = np.asarray(dynamic, dtype=bool)
    in_range = ((edges_a >= 0) & (edges_a < n_bodies)
                & (edges_b >= 0) & (edges_b < n_bodies))
    edges_a, edges_b = edges_a[in_range], edges_b[in_range]
    live = dmask[edges_a] & dmask[edges_b]
    edges_a, edges_b = edges_a[live], edges_b[live]
    if len(edges_a):
        pairs = np.unique(np.stack([edges_a, edges_b], axis=1), axis=0)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)

    uf = UnionFind(n_bodies)
    for a, b in pairs:
        uf.union(int(a), int(b))
    labels = np.full(n_bodies, -1, dtype=np.int32)
    remap: Dict[int, int] = {}
    for body in range(n_bodies):
        if not dmask[body]:
            continue
        root = uf.find(body)
        labels[body] = remap.setdefault(root, len(remap))
    return labels


def island_members(labels: np.ndarray, island: int) -> np.ndarray:
    """Body indices belonging to one island label."""
    return np.nonzero(labels == island)[0]


def islands_of(labels: np.ndarray,
               bodies: Iterable[int]) -> Sequence[int]:
    """Sorted distinct island labels of ``bodies`` (static ones skipped).

    The recovery engine uses this to attribute a set of offending bodies
    (from guard violations) to the simulation islands it should
    quarantine.
    """
    found = set()
    for body in bodies:
        body = int(body)
        if 0 <= body < len(labels) and labels[body] >= 0:
            found.add(int(labels[body]))
    return sorted(found)
