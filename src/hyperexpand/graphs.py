"""Core graph structures: simple graphs and bipartite matching unions.

All types are immutable after construction and safe to share between
threads.  Adjacency lists are kept sorted ascending so that every
downstream computation is deterministic given a seed.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

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
        return list(map(tuple, self.edge_array().tolist()))

    def edge_array(self) -> np.ndarray:
        """edges() as an (edge_count, 2) int64 array, read off the
        flattened adjacency: arc (u, v) is kept when u < v."""
        degrees = np.fromiter(map(len, self.adjacency), np.int64, self.n)
        nbrs = np.fromiter(itertools.chain.from_iterable(self.adjacency), np.int64, int(degrees.sum()))
        src = np.repeat(np.arange(self.n, dtype=np.int64), degrees)
        keep = src < nbrs
        return np.stack((src[keep], nbrs[keep]), axis=1)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        for u in range(self.n):
            for v in self.adjacency[u]:
                a[u, v] = 1.0
        return a


def check_vertex_count(n: int) -> int:
    """n, if build_graph accepts it as a vertex count; else a GraphError."""
    if n < 0:
        raise GraphError(f"vertex count n must be non-negative, got {n}")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count n={n} exceeds MAX_VERTICES={MAX_VERTICES}")
    return n


def build_graph(n: int, edges) -> Graph:
    """Build a validated Graph from an edge list.

    edges is an (m, 2) integer array or any iterable of (u, v) pairs.
    Rejects negative vertex counts and counts above MAX_VERTICES, naming
    n, and ids that are not integers, out-of-range ids, self-loops, and
    duplicate edges (in either orientation), naming edges and the first
    offending pair in input order. The checks are whole-array, and the
    sorted adjacency comes from one sort of the arcs keyed by
    (source, target).
    """
    check_vertex_count(n)
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    a = _id_pairs(pairs)
    m = len(a)
    outside = ((a < 0) | (a >= n)).any(axis=1)
    bad = np.flatnonzero(outside | (a[:, 0] == a[:, 1]))
    first = int(bad[0]) if bad.size else m
    # Before the first range or loop defect every id is in range, so
    # lo * n + hi names an undirected edge; a stable sort puts each
    # repeat after its first occurrence.
    lo, hi = np.sort(a[:first], axis=1).T
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeats = order[1:][np.diff(key[order]) == 0]
    if repeats.size:
        u, v = pairs[int(repeats.min())]
        raise GraphError(f"edges: duplicate edge ({u}, {v})")
    if first < m:
        u, v = pairs[first]
        if outside[first]:
            raise GraphError(f"edges: ({u}, {v}) out of range for n={n}")
        raise GraphError(f"edges: self-loop ({u}, {v}) not allowed")
    if m < len(pairs):
        _reject_pair(pairs[m], n)
    src = np.concatenate((a[:, 0], a[:, 1]))
    arcs = np.sort(src * n + np.concatenate((a[:, 1], a[:, 0])))
    nbrs = (arcs % n).tolist()
    ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
    adj = tuple(tuple(nbrs[s:e]) for s, e in zip([0, *ends], ends))
    return Graph(n=n, adjacency=adj, edge_count=m)


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _is_id(x) -> bool:
    return isinstance(x, (int, np.integer)) and _INT64_MIN <= x <= _INT64_MAX


def _id_pairs(pairs) -> np.ndarray:
    """The longest prefix of pairs whose entries are (u, v) pairs of
    integers within int64, as a (c, 2) int64 array. An integer array of
    shape (m, 2) converts in one call; anything else is read pair by pair
    up to the first entry that does not convert exactly."""
    try:
        a = np.asarray(pairs)
    except ValueError:  # ragged entries
        a = None
    if a is not None and a.dtype.kind in "iub" and a.ndim == 2 and a.shape[1] == 2:
        return a.astype(np.int64, copy=False)  # uint64 ids past int64 wrap negative: out of range
    rows = []
    for e in pairs:
        try:
            u, v = e
        except (TypeError, ValueError):
            break
        if not (_is_id(u) and _is_id(v)):
            break
        rows.append((u, v))
    return np.array(rows, dtype=np.int64).reshape(len(rows), 2)


def _reject_pair(e, n: int):
    """Raise the GraphError for an entry _id_pairs stopped at."""
    try:
        u, v = e
    except (TypeError, ValueError):
        raise GraphError(f"edges: entry {e!r} is not a (u, v) pair") from None
    if isinstance(u, (int, np.integer)) and isinstance(v, (int, np.integer)):
        raise GraphError(f"edges: ({u}, {v}) out of range for n={n}")
    raise GraphError(f"edges: ({u!r}, {v!r}) ids must be integers")


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

    @cached_property
    def _perms(self) -> tuple[np.ndarray, np.ndarray]:
        """The matchings and their inverses as (k, n) index arrays."""
        flat = itertools.chain.from_iterable(self.matchings)
        m = np.fromiter(flat, np.intp, self.k * self.n_left).reshape(self.k, self.n_left)
        inv = np.empty_like(m)
        inv[np.arange(self.k)[:, None], m] = np.arange(self.n_left)
        m.flags.writeable = inv.flags.writeable = False  # shared by every later call
        return m, inv

    def to_graph(self) -> Graph:
        """The derived 2n-vertex graph, built straight from the matchings.

        make_bipartite_expander has checked what build_graph would, so
        nothing is re-validated. Column l of a column-wise sort of the
        matchings (inverses) holds left (right) l's sorted neighbours.
        """
        m, inv = self._perms
        left = np.sort(m, axis=0) + self.n_left
        right = np.sort(inv, axis=0)
        adjacency = tuple(zip(*left.tolist())) + tuple(zip(*right.tolist()))
        return Graph(n=self.n_left + self.n_right, adjacency=adjacency, edge_count=self.k * self.n_left)

    def edge_array(self) -> np.ndarray:
        """to_graph().edge_array() without building the graph: row l of
        the transposed column-wise sort of the matchings holds left l's
        sorted right neighbours."""
        m, _ = self._perms
        right = np.sort(m, axis=0).T + self.n_left
        left = np.repeat(np.arange(self.n_left, dtype=np.int64), self.k)
        return np.stack((left, right.ravel()), axis=1)

    def is_connected(self) -> bool:
        """Whether to_graph() is connected, without building it.

        Breadth-first from left 0: each round marks the rights next to a
        reached left (through the inverses), then the lefts next to those,
        until no left is added. Every right has a left neighbour, so all
        lefts reached means all vertices reached.
        """
        m, inv = self._perms
        left = np.zeros(self.n_left, dtype=bool)
        left[0] = True
        reached = 0
        while (now := int(np.count_nonzero(left))) > reached:
            reached = now
            left = left[inv].any(axis=0)[m].any(axis=0)
        return reached == self.n_left

    def biadjacency(self) -> np.ndarray:
        """0/1 incidence matrix, shape (n_right, n_left)."""
        b = np.zeros((self.n_right, self.n_left), dtype=np.float64)
        for m in self.matchings:
            for l, r in enumerate(m):
                b[r, l] = 1.0
        return b


def _permutation_rows(rows: list[np.ndarray], n: int) -> np.ndarray:
    """The rows as a (k, n) int64 array, each checked to be a permutation
    of 0..n-1; the first that is not (wrong length, not integers, out of
    range or repeated ids) is named in a GraphError."""
    fit = next(
        (i for i, r in enumerate(rows) if r.shape != (n,) or r.dtype.kind not in "iu"),
        len(rows),
    )
    a = np.array(rows[:fit], dtype=np.int64).reshape(fit, n)  # ids past int64 wrap out of range
    bad = np.flatnonzero((np.sort(a, axis=1) != np.arange(n)).any(axis=1))
    first = int(bad[0]) if bad.size else fit
    if first < len(rows):
        raise GraphError(f"matching {first} is not a permutation of 0..{n - 1}")
    return a


def make_bipartite_expander(
    n_left: int, n_right: int, k: int, matchings
) -> BipartiteExpander:
    """Validate and freeze a matching-union bipartite graph.

    matchings is k rows (sequences or a (k, n) integer array); each must
    be a permutation of 0..n-1, and no two may join the same left to the
    same right. The checks are whole-array: a row-wise sort against
    arange, then a column-wise sort whose equal neighbours are shared
    edges. Errors name the first offending matching, or the first
    (i, j, l) in index order.
    """
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
    rows = [np.asarray(m) for m in matchings]
    if len(rows) != k:
        raise GraphError(f"expected {k} matchings, got {len(rows)}")
    a = _permutation_rows(rows, n_left)
    shared = np.flatnonzero((np.diff(np.sort(a, axis=0), axis=0) == 0).any(axis=0))
    if shared.size:
        for i, j in itertools.combinations(range(k), 2):
            hit = np.flatnonzero(a[i, shared] == a[j, shared])
            if hit.size:
                l = int(shared[hit[0]])
                raise GraphError(f"matchings {i} and {j} share edge ({l}, {a[i, l]})")
    ms = tuple(map(tuple, a.tolist()))
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
