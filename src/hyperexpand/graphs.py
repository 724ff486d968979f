"""Core graph structures: simple graphs and bipartite matching unions.

All types are immutable after construction and safe to share between
threads.  Adjacency lists are kept sorted ascending so that every
downstream computation is deterministic given a seed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Invalid graph input (bad ids, self-loops, duplicate edges, ...)."""


# Largest vertex count any graph may declare. build_graph allocates one
# adjacency list per vertex, so a larger count (a "# n=" header, a JSON
# "n", a generator side size) is refused before anything is allocated.
MAX_VERTICES = 1 << 22


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with sorted adjacency lists.

    Invariants: adjacency is symmetric, has no self-loops or duplicates,
    and edge_count equals half the sum of the degrees.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        for u in range(self.n):
            for v in self.adjacency[u]:
                a[u, v] = 1.0
        return a


def build_graph(n: int, edges) -> Graph:
    """Build a validated Graph from an edge list.

    Rejects vertex counts above MAX_VERTICES, out-of-range ids,
    self-loops, and duplicate edges (in either orientation), naming the
    offending pair.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count n={n} exceeds MAX_VERTICES={MAX_VERTICES}")
    seen: set[tuple[int, int]] = set()
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    adj = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
    return Graph(n=n, adjacency=adj, edge_count=len(seen))


def is_k_regular(g: Graph) -> int | None:
    """Return k if every vertex has degree k, else None (None for n=0)."""
    if g.n == 0:
        return None
    k = len(g.adjacency[0])
    for nbrs in g.adjacency:
        if len(nbrs) != k:
            return None
    return k


def bipartition(g: Graph) -> list[int] | None:
    """Two-colour g by BFS; None iff some component has an odd cycle.

    Deterministic: the lowest-id vertex of each component gets side 0.
    """
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if side[v] == -1:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return None
    return side


def _bfs_eccentricity(g: Graph, source: int) -> tuple[int, int]:
    """(eccentricity, number of reached vertices) from source."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    ecc = 0
    reached = 1
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                ecc = max(ecc, dist[v])
                reached += 1
                queue.append(v)
    return ecc, reached


def bfs_diameter(g: Graph) -> int | float:
    """Exact diameter via all-pairs BFS; math.inf if disconnected, O(n(n+m))."""
    if g.n == 0:
        return 0
    diameter = 0
    for source in range(g.n):
        ecc, reached = _bfs_eccentricity(g, source)
        if reached < g.n:
            return math.inf
        diameter = max(diameter, ecc)
    return diameter


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    _, reached = _bfs_eccentricity(g, 0)
    return reached == g.n


@dataclass(frozen=True)
class BipartiteExpander:
    """k-regular bipartite graph stored as k edge-disjoint perfect matchings.

    Left vertices are 0..n_left-1, right vertices n_left..n_left+n_right-1
    in the derived graph.  Matching i joins left l to right matchings[i][l].
    """

    n_left: int
    n_right: int
    k: int
    matchings: tuple[tuple[int, ...], ...]

    def to_graph(self) -> Graph:
        edges = [
            (l, self.n_left + m[l])
            for m in self.matchings
            for l in range(self.n_left)
        ]
        return build_graph(self.n_left + self.n_right, edges)

    def biadjacency(self) -> np.ndarray:
        """0/1 incidence matrix, shape (n_right, n_left)."""
        b = np.zeros((self.n_right, self.n_left), dtype=np.float64)
        for m in self.matchings:
            for l, r in enumerate(m):
                b[r, l] = 1.0
        return b


def make_bipartite_expander(
    n_left: int, n_right: int, k: int, matchings
) -> BipartiteExpander:
    """Validate and freeze a matching-union bipartite graph."""
    if n_left != n_right:
        raise GraphError(
            f"perfect matchings need equal sides, got {n_left} vs {n_right}"
        )
    if n_left + n_right > MAX_VERTICES:
        raise GraphError(
            f"sides n_left={n_left}, n_right={n_right} exceed MAX_VERTICES={MAX_VERTICES}"
        )
    if not (1 <= k <= n_left):
        raise GraphError(f"regularity k={k} must satisfy 1 <= k <= n={n_left}")
    ms = tuple(tuple(m) for m in matchings)
    if len(ms) != k:
        raise GraphError(f"expected {k} matchings, got {len(ms)}")
    for i, m in enumerate(ms):
        if sorted(m) != list(range(n_left)):
            raise GraphError(f"matching {i} is not a permutation of 0..{n_left - 1}")
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(n_left):
                if ms[i][l] == ms[j][l]:
                    raise GraphError(
                        f"matchings {i} and {j} share edge ({l}, {ms[i][l]})"
                    )
    return BipartiteExpander(n_left=n_left, n_right=n_right, k=k, matchings=ms)


# Named small families used throughout tests, demos, and bound verification.


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(m: int) -> Graph:
    """K_{m,m}: left vertices 0..m-1, right m..2m-1."""
    return build_graph(2 * m, [(i, m + j) for i in range(m) for j in range(m)])


def circular_ladder_graph(m: int) -> Graph:
    """CL_m, the prism over C_m: 3-regular on 2m vertices."""
    if m < 3:
        raise GraphError(f"circular ladder needs m >= 3, got {m}")
    edges = []
    for i in range(m):
        edges.append((i, (i + 1) % m))
        edges.append((m + i, m + (i + 1) % m))
        edges.append((i, m + i))
    return build_graph(2 * m, edges)


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))        # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))              # spokes
    return build_graph(10, edges)
