"""Core graph structures: simple graphs and bipartite matching unions.

A Graph is stored in compressed sparse row (CSR) form (Saad 2003, ch. 3):
int64 offsets (n + 1) and neighbors (2m), vertex u's neighbours sorted
ascending in neighbors[offsets[u]:offsets[u + 1]]. A BipartiteExpander
holds its k perfect matchings as one (k, n) int64 array. The arrays are
read-only, so every type is immutable and safe to share between threads.
Readers work on whole arrays, or on one .tolist() where a Python loop
beats numpy calls (the breadth-first searches on small graphs).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Invalid graph input (bad ids, self-loops, duplicate edges, ...)."""


# Largest vertex count any graph may declare. build_graph allocates one
# offset per vertex, so a larger count (a "# n=" header, a JSON "n", a
# generator side size) is refused before anything is allocated.
MAX_VERTICES = 1 << 22


class ArrayRecord:
    """Base of the frozen dataclasses that hold numpy arrays: the arrays
    are made read-only, and records compare field by field, arrays by
    value."""

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(vars(self).values(), vars(other).values())
        )


@dataclass(frozen=True, eq=False)
class Graph(ArrayRecord):
    """Undirected simple graph in CSR form.

    Invariants: offsets rise from 0 to 2 * edge_count; each vertex's
    neighbours are sorted ascending; the arcs are symmetric, with no
    self-loops or duplicates.
    """

    n: int
    offsets: np.ndarray
    neighbors: np.ndarray

    @property
    def edge_count(self) -> int:
        return len(self.neighbors) // 2

    def degrees(self) -> list[int]:
        return np.diff(self.offsets).tolist()

    def arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(sources, targets): both directions of every edge, sorted by
        source, then target."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.offsets)), self.neighbors

    def adjacency_lists(self) -> list[list[int]]:
        """Each vertex's sorted neighbours as a list of Python ints."""
        nbrs, ends = self.neighbors.tolist(), self.offsets.tolist()
        return [nbrs[s:e] for s, e in zip(ends, ends[1:])]

    def edge_array(self) -> np.ndarray:
        """All edges as an (edge_count, 2) int64 array: the arcs (u, v)
        with u < v, lexicographically sorted."""
        src, dst = self.arcs()
        keep = src < dst
        return np.stack((src[keep], dst[keep]), axis=1)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        a[self.arcs()] = 1.0
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
    offending pair in input order. An integer array is checked whole
    (one range and self-loop mask, then one sort of the arcs keyed by
    (source, target), which also gives the CSR arrays); any other input,
    and an array that fails, is read pair by pair by _checked_pairs.
    """
    check_vertex_count(n)
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        a = np.asarray(pairs)
    except ValueError:  # ragged entries
        a = None
    if a is None or a.dtype.kind not in "iub" or a.ndim != 2 or a.shape[1] != 2:
        a = _checked_pairs(pairs, n)
    a = a.astype(np.int64, copy=False)  # uint64 ids past int64 wrap negative: out of range
    if ((a >= 0) & (a < n)).all() and (a[:, 0] != a[:, 1]).all():
        # Every id is in range, so source * n + target orders the arcs,
        # and a repeated arc is a duplicate edge.
        src = np.concatenate((a[:, 0], a[:, 1]))
        arcs = np.sort(src * n + np.concatenate((a[:, 1], a[:, 0])))
        if not (arcs[1:] == arcs[:-1]).any():
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
            return Graph(n=n, offsets=offsets, neighbors=arcs % n)
    _checked_pairs(pairs, n)  # names the first defect
    raise AssertionError("the whole-array check refused edges that _checked_pairs accepts")


def _checked_pairs(pairs, n: int) -> np.ndarray:
    """pairs as an (m, 2) int64 array, each edge lower id first, read once
    in input order. The first entry that is not a (u, v) pair of integer
    ids in 0..n-1, is a self-loop, or repeats an earlier edge is named in
    a GraphError as given (a numpy scalar by its repr, a uint64 past int64
    by its digits)."""
    seen: set[tuple[int, int]] = set()
    rows = []
    for e in pairs:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise GraphError(f"edges: entry {e!r} is not a (u, v) pair") from None
        if not all(isinstance(x, (int, np.integer, np.bool_)) for x in (u, v)):
            raise GraphError(f"edges: ({u!r}, {v!r}) ids must be integers")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edges: ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"edges: self-loop ({u}, {v}) not allowed")
        key = (int(min(u, v)), int(max(u, v)))
        if key in seen:
            raise GraphError(f"edges: duplicate edge ({u}, {v})")
        seen.add(key)
        rows.append(key)
    return np.array(rows, dtype=np.int64).reshape(len(rows), 2)


def is_k_regular(g: Graph) -> int | None:
    """Return k if every vertex has degree k, else None (None for n=0)."""
    degrees = np.diff(g.offsets)
    if g.n == 0 or (degrees != degrees[0]).any():
        return None
    return int(degrees[0])


def _bfs(adjacency: list[list[int]], source: int, dist: list[int]) -> list[int]:
    """Breadth-first search from source through the vertices whose dist is
    -1, writing each one's distance from source into dist. Returns the
    reached vertices in visiting order, so the last is a farthest one."""
    dist[source] = 0
    queue = [source]
    for u in queue:  # the loop reaches the vertices appended as it goes
        d = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] == -1:
                dist[v] = d
                queue.append(v)
    return queue


def components(g: Graph) -> tuple[int, int, list[int] | None]:
    """(components, bipartite components, two-colouring) of g, by BFS.

    The lowest-id vertex of each component gets side 0, and every vertex
    the parity of its distance from it. A component is bipartite iff none
    of its arcs joins equal parities; the two-colouring is None if one does.
    """
    adjacency = g.adjacency_lists()
    dist = [-1] * g.n
    label = [0] * g.n
    count = 0
    for start in range(g.n):
        if dist[start] == -1:
            for v in _bfs(adjacency, start, dist):
                label[v] = count
            count += 1
    side = np.array(dist, dtype=np.int64) & 1
    src, dst = g.arcs()
    odd = np.unique(np.array(label, dtype=np.int64)[src[side[src] == side[dst]]]).size
    return count, count - odd, None if odd else side.tolist()


def bipartition(g: Graph) -> list[int] | None:
    """The two-colouring of components(g): None iff g has an odd cycle."""
    return components(g)[2]


def bfs_diameter(g: Graph) -> int | float:
    """Exact diameter via all-pairs BFS; math.inf if disconnected, O(n(n+m))."""
    adjacency = g.adjacency_lists()
    diameter = 0
    for source in range(g.n):
        dist = [-1] * g.n
        order = _bfs(adjacency, source, dist)
        if len(order) < g.n:
            return math.inf
        diameter = max(diameter, dist[order[-1]])
    return diameter


def is_connected(g: Graph) -> bool:
    return g.n == 0 or len(_bfs(g.adjacency_lists(), 0, [-1] * g.n)) == g.n


@dataclass(frozen=True, eq=False)
class BipartiteExpander(ArrayRecord):
    """k-regular bipartite graph stored as k edge-disjoint perfect matchings.

    Left vertices are 0..n_left-1, right vertices n_left..n_left+n_right-1
    in the derived graph. matchings is a read-only (k, n_left) int64
    array; matching i joins left l to right matchings[i, l].
    """

    n_left: int
    n_right: int
    k: int
    matchings: np.ndarray

    @property
    def n(self) -> int:
        """Vertex count of the derived graph."""
        return self.n_left + self.n_right

    def to_graph(self) -> Graph:
        """The derived 2n-vertex graph, built straight from the matchings.

        make_bipartite_expander has checked what build_graph would, so
        nothing is re-validated. Every vertex has degree k, and column l
        of a column-wise sort of the matchings (inverses) holds left
        (right) l's sorted neighbours.
        """
        left = np.sort(self.matchings, axis=0).T + self.n_left
        right = np.sort(inverse_rows(self.matchings), axis=0).T
        offsets = np.arange(0, self.k * self.n + 1, self.k, dtype=np.int64)
        return Graph(n=self.n, offsets=offsets, neighbors=np.concatenate((left.ravel(), right.ravel())))

    def edge_array(self) -> np.ndarray:
        """to_graph().edge_array() without building the graph: row l of
        the transposed column-wise sort of the matchings holds left l's
        sorted right neighbours."""
        right = np.sort(self.matchings, axis=0).T + self.n_left
        left = np.repeat(np.arange(self.n_left, dtype=np.int64), self.k)
        return np.stack((left, right.ravel()), axis=1)

    def biadjacency(self) -> np.ndarray:
        """0/1 incidence matrix, shape (n_right, n_left)."""
        return matching_biadjacency(self.matchings)


def inverse_rows(m: np.ndarray) -> np.ndarray:
    """The inverses of (..., n) permutation rows, by one scatter: entry
    [..., r] of a row's inverse is where that row holds r."""
    n = m.shape[-1]
    rows = m.reshape(-1, n)
    inv = np.empty_like(rows)
    inv[np.arange(len(rows))[:, None], rows] = np.arange(n)
    return inv.reshape(m.shape)


def connected_rows(m: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """For (R, k, n) matchings m and their inverses inv, whether each
    row's derived 2n-vertex graph is connected, as an (R,) bool array.

    Breadth-first from left 0 in every row at once: each round marks the
    rights next to a reached left (through the inverses), then the lefts
    next to those, until no row adds a left. Every right has a left
    neighbour, so all lefts reached means all vertices reached.
    """
    rows, _, n = m.shape
    if rows > 1:  # one row's indices are already flat; at large n a copy costs megabytes
        row_start = (np.arange(rows) * n)[:, None, None]
        m, inv = m + row_start, inv + row_start  # flat indices into (R, n)
    left = np.zeros((rows, n), dtype=bool)
    left[:, 0] = True
    reached = np.zeros(rows, dtype=np.int64)
    while ((now := np.count_nonzero(left, axis=1)) > reached).any():
        reached = now
        right = left.ravel()[inv].any(axis=1)
        left = right.ravel()[m].any(axis=1)
    return reached == n


def matching_biadjacency(m: np.ndarray) -> np.ndarray:
    """The 0/1 incidence matrices of (..., k, n) matchings, as (..., n, n)
    float64: entry [..., r, l] is 1 where a matching joins left l to
    right r. One scatter into the flattened matrices."""
    *lead, k, n = m.shape
    flat = m.reshape(-1, k * n)
    b = np.zeros((flat.shape[0], n * n))
    np.put_along_axis(b, flat * n + np.tile(np.arange(n), k), 1.0, axis=1)
    return b.reshape(*lead, n, n)


def _permutation_rows(rows: list[np.ndarray], n: int) -> np.ndarray:
    """The rows as a (k, n) int64 array, each checked in turn to be a
    permutation of 0..n-1; the first that is not (wrong length, not
    integers, out of range or repeated ids) is named in a GraphError."""
    for i, r in enumerate(rows):
        if r.shape != (n,) or r.dtype.kind not in "iu" or _non_permutations(r):
            raise GraphError(f"matching {i} is not a permutation of 0..{n - 1}")
    return np.array(rows, dtype=np.int64)


def make_bipartite_expander(
    n_left: int, n_right: int, k: int, matchings
) -> BipartiteExpander:
    """Validate and freeze a matching-union bipartite graph.

    matchings is k rows (sequences or a (k, n) integer array); each must
    be a permutation of 0..n-1, and no two may join the same left to the
    same right. Each row in turn is sorted against arange, then one
    column-wise sort finds the shared edges as equal neighbours. Errors
    name the first offending matching, or the first (i, j, l) in index
    order.
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
    shared = np.flatnonzero(_shared_columns(a))
    if shared.size:
        for i, j in itertools.combinations(range(k), 2):
            hit = np.flatnonzero(a[i, shared] == a[j, shared])
            if hit.size:
                l = int(shared[hit[0]])
                raise GraphError(f"matchings {i} and {j} share edge ({l}, {a[i, l]})")
    return BipartiteExpander(n_left=n_left, n_right=n_right, k=k, matchings=a)


def _non_permutations(a: np.ndarray) -> np.ndarray:
    """Over (..., k, n) rows: which are not permutations of 0..n-1."""
    return (np.sort(a, axis=-1) != np.arange(a.shape[-1])).any(axis=-1)


def _shared_columns(a: np.ndarray) -> np.ndarray:
    """Over (..., k, n) matchings: which left vertices two rows send to
    the same right (equal neighbours in a column-wise sort)."""
    return (np.diff(np.sort(a, axis=-2), axis=-2) == 0).any(axis=-2)


def check_matching_array(a: np.ndarray) -> None:
    """Validate (B, k, n) int64 matchings with make_bipartite_expander's
    whole-array checks, all instances at once. A GraphError names the
    first bad instance and then, as make_bipartite_expander does, its
    first offending matching or shared edge."""
    _, k, n = a.shape
    bad = np.flatnonzero(_non_permutations(a).any(axis=1) | _shared_columns(a).any(axis=1))
    if bad.size:
        try:
            make_bipartite_expander(n, n, k, a[bad[0]])
        except GraphError as e:
            raise GraphError(f"instance {bad[0]}: {e}") from None


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
