"""Helpers shared by the tests."""

from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import hyperexpand
from hyperexpand.construct import GeneratorConfig, RetryBudgetExhausted
from hyperexpand.gnn.training import DATA_STREAM, EXPANDER_STREAM, TrainConfig
from hyperexpand.gnn.treematch import leaf_ids, tree_graph
from hyperexpand.graphs import (
    MAX_VERTICES,
    BipartiteExpander,
    Graph,
    GraphError,
    build_graph,
    is_connected,
    make_bipartite_expander,
)
from hyperexpand.rng import _GAMMA, _MASK, SplitMix64, _mix, derive_seed
from hyperexpand.serialize import format_float
from hyperexpand.spectral import EigensolverError, _offdiag_norm


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each relabelled after the ones before it."""
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edge_array().tolist())
        offset += g.n
    return build_graph(offset, edges)


def generalized_petersen(m: int, s: int) -> Graph:
    """GP(m, s): outer m-cycle, spokes, inner star polygon {m/s}."""
    edges = []
    for i in range(m):
        edges += [(i, (i + 1) % m), (i, m + i), (m + i, m + (i + s) % m)]
    return build_graph(2 * m, edges)


@st.composite
def disjoint_matchings(draw, max_n=12):
    """(n, k edge-disjoint permutations of 0..n-1 as lists): row s is
    l -> sigma[(tau[l] + shift_s) % n] for k distinct shifts."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, n))
    sigma = draw(st.permutations(range(n)))
    tau = draw(st.permutations(range(n)))
    shifts = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    return n, [[sigma[(tau[l] + s) % n] for l in range(n)] for s in shifts]


def to_graph_by_edges(b: BipartiteExpander) -> Graph:
    """The derived graph built edge by edge through build_graph's checks:
    the reference for the matching-native BipartiteExpander.to_graph."""
    edges = [(l, b.n_left + m[l]) for m in b.matchings for l in range(b.n_left)]
    return build_graph(b.n_left + b.n_right, edges)


def matching_error_by_loops(n: int, matchings) -> str | None:
    """The message make_bipartite_expander gives for these k rows, found
    by plain loops (per-row sort, then every pair and left vertex), or
    None if they are k edge-disjoint permutations of 0..n-1."""
    ms = [list(m) for m in matchings]
    for i, m in enumerate(ms):
        if sorted(m) != list(range(n)):
            return f"matching {i} is not a permutation of 0..{n - 1}"
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            for l in range(n):
                if ms[i][l] == ms[j][l]:
                    return f"matchings {i} and {j} share edge ({l}, {ms[i][l]})"
    return None


def child_env() -> dict[str, str]:
    """Environment for a child Python that imports this source tree, with
    one BLAS thread (pytest's pythonpath setting does not reach it)."""
    src = str(Path(hyperexpand.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@dataclass(frozen=True)
class TupleGraph:
    """A graph as a tuple of sorted per-vertex neighbour tuples, with the
    readers the CSR Graph replaced: the reference for Graph's."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def edge_array(self) -> np.ndarray:
        return np.array(self.edges(), dtype=np.int64).reshape(-1, 2)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        for u in range(self.n):
            for v in self.adjacency[u]:
                a[u, v] = 1.0
        return a


def tuple_graph_by_loop(n: int, edges) -> TupleGraph:
    """build_graph as one loop over the pairs, with a set of the edges
    seen and per-vertex lists sorted at the end, into a TupleGraph."""
    if n < 0:
        raise GraphError(f"vertex count n must be non-negative, got {n}")
    if n > MAX_VERTICES:
        raise GraphError(f"vertex count n={n} exceeds MAX_VERTICES={MAX_VERTICES}")
    seen: set[tuple[int, int]] = set()
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edges: ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"edges: self-loop ({u}, {v}) not allowed")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"edges: duplicate edge ({u}, {v})")
        seen.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    adj = tuple(tuple(sorted(map(int, nbrs))) for nbrs in adjacency)
    return TupleGraph(n=n, adjacency=adj, edge_count=len(seen))


def build_graph_by_loop(n: int, edges) -> Graph:
    """tuple_graph_by_loop with its tuples laid end to end as CSR arrays:
    the reference for the whole-array build_graph (on integer ids)."""
    t = tuple_graph_by_loop(n, edges)
    offsets = np.cumsum([0, *t.degrees()], dtype=np.int64)
    neighbors = np.array([v for nbrs in t.adjacency for v in nbrs], dtype=np.int64)
    return Graph(n=n, offsets=offsets, neighbors=neighbors)


def is_k_regular_by_tuples(g: TupleGraph) -> int | None:
    if g.n == 0:
        return None
    k = len(g.adjacency[0])
    return k if all(len(nbrs) == k for nbrs in g.adjacency) else None


def bipartition_by_tuples(g: TupleGraph) -> list[int] | None:
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


def _eccentricity_by_tuples(g: TupleGraph, source: int) -> tuple[int, int]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
    return max(dist), sum(d >= 0 for d in dist)


def bfs_diameter_by_tuples(g: TupleGraph) -> int | float:
    diameter = 0
    for source in range(g.n):
        ecc, reached = _eccentricity_by_tuples(g, source)
        if reached < g.n:
            return math.inf
        diameter = max(diameter, ecc)
    return diameter


def is_connected_by_tuples(g: TupleGraph) -> bool:
    return g.n == 0 or _eccentricity_by_tuples(g, 0)[1] == g.n


def neighbor_masks_by_tuples(g: TupleGraph) -> list[int]:
    return [sum(1 << v for v in nbrs) for nbrs in g.adjacency]


def edgelist_loads_by_lines(text: str) -> Graph:
    """edgelist_loads as one pass over the lines with int() on each token,
    ending in build_graph_by_loop: the reference for the array parser."""
    n = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key = "".join(line.split())
            if key.startswith("#n=") and edges:
                raise ValueError(f"malformed field 'n': edge-list header {line!r} follows an edge line")
            if key.startswith("#n=") and n is None:
                try:
                    n = int(key[3:])
                except ValueError:
                    raise ValueError(f"malformed field 'n' in edge-list header {line!r}") from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"invalid edge line: {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if n is None:
        n = max_id + 1
    return build_graph_by_loop(n, edges)


def dumps_by_recursion(obj) -> str:
    """dumps_canonical with one recursive step per value, every list
    written element by element: the reference for the IntList path."""
    out: list[str] = []

    def write(obj) -> None:
        if obj is None:
            out.append("null")
        elif obj is True:
            out.append("true")
        elif obj is False:
            out.append("false")
        elif isinstance(obj, int):
            out.append(str(obj))
        elif isinstance(obj, float):
            out.append(format_float(obj))
        elif isinstance(obj, str):
            out.append(json.dumps(obj))
        elif isinstance(obj, dict):
            out.append("{")
            for i, (key, value) in enumerate(obj.items()):
                if i:
                    out.append(",")
                out.append(json.dumps(str(key)))
                out.append(":")
                write(value)
            out.append("}")
        elif isinstance(obj, (list, tuple)):
            out.append("[")
            for i, value in enumerate(obj):
                if i:
                    out.append(",")
                write(value)
            out.append("]")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")

    write(obj)
    return "".join(out)


def outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return type(e), str(e)


def biadjacency_by_loop(b: BipartiteExpander) -> np.ndarray:
    """The (n_right, n_left) incidence matrix set entry by entry: the
    reference for the one-scatter biadjacency."""
    out = np.zeros((b.n_right, b.n_left), dtype=np.float64)
    for m in b.matchings:
        for l, r in enumerate(m):
            out[r, l] = 1.0
    return out


def scalar_permutation(r: SplitMix64, n: int) -> list[int]:
    """Fisher-Yates fed one next_below draw at a time: the reference for
    SplitMix64.permutation and permutation_rows."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = r.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def matchings_by_instance(cfg: GeneratorConfig) -> np.ndarray:
    """The (k, n) matchings of k_regular_bipartite(cfg), drawn one
    scalar permutation at a time: a permutation sharing an edge with an
    accepted one is resampled alone, and a graph that must be connected
    and is not (a breadth-first search of its build_graph form) is
    redrawn from derive_seed(seed, redraws). Raises the
    RetryBudgetExhausted of the budget it runs out of. The reference for
    k_regular_bipartite_batch."""
    budget = cfg.max_matching_retries
    redraws = 0
    while True:
        rng = SplitMix64(derive_seed(cfg.seed, redraws))
        matchings = np.empty((cfg.k, cfg.n), dtype=np.int64)
        accepted = retries = 0
        while accepted < cfg.k:
            p = scalar_permutation(rng, cfg.n)
            if (matchings[:accepted] == p).any():
                retries += 1
                if retries > budget:
                    raise RetryBudgetExhausted(
                        "matching",
                        retries,
                        f"no {cfg.k} disjoint matchings after {retries} resamples "
                        f"(budget {budget}); had {accepted} so far",
                        matching_retries=retries,
                    )
                continue
            matchings[accepted] = p
            accepted += 1
        expander = make_bipartite_expander(cfg.n, cfg.n, cfg.k, matchings)
        if not cfg.connectivity_required or is_connected(to_graph_by_edges(expander)):
            return matchings
        redraws += 1
        if redraws > budget:
            raise RetryBudgetExhausted(
                "connectivity",
                redraws,
                f"no connected graph after {redraws} whole-graph redraws (budget {budget})",
                graph_redraws=redraws,
            )


@dataclass(frozen=True)
class TreeMatchInstance:
    """One Tree-NeighborsMatch instance node by node: each node's count
    (0 on inner nodes, the chosen leaf's on the root) and label (None off
    the leaves), the chosen leaf's index among the leaves, and its label."""

    depth: int
    counts: tuple[int, ...]
    labels: tuple[int | None, ...]
    chosen: int
    target_label: int


def tree_match_by_loop(depth: int, rng: SplitMix64) -> TreeMatchInstance:
    """One Tree-NeighborsMatch instance from two scalar permutations and
    a next_below, filled in node by node: the reference for the block
    draws of make_dataset."""
    n = tree_graph(depth).n
    leaves = list(leaf_ids(depth))
    num_leaves = len(leaves)
    leaf_counts = [p + 1 for p in scalar_permutation(rng, num_leaves)]
    leaf_labels = scalar_permutation(rng, num_leaves)
    chosen = rng.next_below(num_leaves)
    counts = [0] * n
    labels: list[int | None] = [None] * n
    for leaf, c, lab in zip(leaves, leaf_counts, leaf_labels):
        counts[leaf] = c
        labels[leaf] = lab
    counts[0] = leaf_counts[chosen]
    return TreeMatchInstance(depth, tuple(counts), tuple(labels), chosen, leaf_labels[chosen])


def dataset_instances(data) -> list[TreeMatchInstance]:
    """A TreeMatchDataset's rows as TreeMatchInstance records."""
    out = []
    first_leaf = leaf_ids(data.depth).start
    for counts, labels, chosen in zip(data.leaf_counts.tolist(), data.leaf_labels.tolist(), data.chosen.tolist()):
        out.append(TreeMatchInstance(
            depth=data.depth,
            counts=(counts[chosen],) + (0,) * (first_leaf - 1) + tuple(counts),
            labels=(None,) * first_leaf + tuple(labels),
            chosen=chosen,
            target_label=labels[chosen],
        ))
    return out


def features_by_loop(inst: TreeMatchInstance) -> np.ndarray:
    """One instance's (n, feature_dim) features set node by node: the
    reference for TreeMatchDataset.features' scatter."""
    width_counts = 2**inst.depth + 1
    n = len(inst.counts)
    feats = np.zeros((n, width_counts + 2**inst.depth))
    for v in range(n):
        feats[v, inst.counts[v]] = 1.0
        if inst.labels[v] is not None:
            feats[v, width_counts + inst.labels[v]] = 1.0
    return feats


def prepare_data_by_instance(cfg: TrainConfig):
    """(feats, targets, adj, biadj) of training._prepare_data, built one
    instance at a time: tree_match_by_loop and features_by_loop per
    sample, and one matchings_by_instance draw per overlay."""
    rng = SplitMix64(derive_seed(cfg.seed, DATA_STREAM))
    instances = [tree_match_by_loop(cfg.depth, rng) for _ in range(cfg.dataset_size)]
    tree = tree_graph(cfg.depth)
    raw = np.stack([features_by_loop(inst) for inst in instances])
    targets = np.array([inst.target_label for inst in instances], dtype=np.int64)
    if not cfg.rewire:
        return raw, targets, tree.adjacency_matrix(), None
    root = derive_seed(cfg.seed, EXPANDER_STREAM)
    k = min(cfg.expander_k, tree.n)
    biadj = np.stack([
        biadjacency_by_loop(make_bipartite_expander(tree.n, tree.n, k, matchings_by_instance(
            GeneratorConfig(n=tree.n, k=k, seed=derive_seed(root, i)))))
        for i in range(cfg.dataset_size)
    ])
    feats = np.zeros((cfg.dataset_size, 2 * tree.n, raw.shape[2]))
    feats[:, : tree.n] = raw
    return feats, targets, tree.adjacency_matrix(), biadj


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def unmix(z: int) -> int:
    """The inverse of the SplitMix64 scrambler: _mix(unmix(z)) == z."""
    z = _unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK
    return _unxorshift(z, 30)


def state_drawing_max_at(step: int) -> int:
    """A generator state whose draw number `step` (1-based) is 2^64 - 1,
    which next_below rejects for every bound that is not a power of 2."""
    return (unmix(_MASK) - step * _GAMMA) & _MASK


def seed_rejecting_draw(step: int) -> int:
    """A seed s whose stream derive_seed(s, 0) has 2^64 - 1 as draw number
    `step` (1-based), which next_below rejects for any bound that is not
    a power of 2."""
    return unmix(state_drawing_max_at(step)) ^ _mix(_GAMMA)


def seed_rejecting_first_draw() -> int:
    """A seed s whose stream derive_seed(s, 0) starts with the draw
    2^64 - 1, so a first permutation below n (not a power of 2) rejects."""
    return seed_rejecting_draw(1)


def augmented_adjacency(inst) -> np.ndarray:
    """The original edges of a rewired instance on its 2n nodes, as a
    dense matrix: hyperedge nodes n..2n-1 have none."""
    n = inst.original.n
    adj = np.zeros((inst.total_nodes, inst.total_nodes))
    adj[:n, :n] = inst.original.adjacency_matrix()
    return adj


def side_block_by_loop(g: TupleGraph, side: list[int]) -> np.ndarray:
    """The |L| x |R| block of a two-coloured graph set entry by entry
    (rows side-0 vertices, columns side-1, both in id order): the
    reference for the spectral route's one-scatter block."""
    counts = [0, 0]
    pos = []
    for s in side:
        pos.append(counts[s])
        counts[s] += 1
    b = np.zeros((counts[0], counts[1]), dtype=np.float64)
    for u, s in enumerate(side):
        if s == 0:
            for v in g.adjacency[u]:
                b[pos[u], pos[v]] = 1.0
    return b


def jacobi_by_slices(matrix, tolerance: float, max_sweeps: int = 60) -> np.ndarray:
    """Cyclic Jacobi with each rotation as whole-row and whole-column
    expressions and slice assignments, and the residual checked once more
    after the last sweep: the reference for the in-place ufunc rotation.
    Like the solver, it stops no lower than n * eps * (largest absolute
    row sum), where rounding keeps the off-diagonal norm."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    tolerance = max(tolerance, n * np.finfo(np.float64).eps * float(np.abs(a).sum(axis=1).max()))
    residual = _offdiag_norm(a)
    for _ in range(max_sweeps):
        if residual < tolerance:
            break
        skip = tolerance / (2.0 * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
        residual = _offdiag_norm(a)
    if not residual < tolerance:
        raise EigensolverError(
            f"Jacobi sweeps exhausted ({max_sweeps}), "
            f"off-diagonal norm {residual:.3e} >= tolerance {tolerance:.3e}",
            residual=residual,
        )
    return np.sort(np.diag(a))[::-1].copy()
