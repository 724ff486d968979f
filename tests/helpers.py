"""Helpers shared by the tests."""

from __future__ import annotations

import os
from pathlib import Path

from hypothesis import strategies as st

import hyperexpand
from hyperexpand.graphs import BipartiteExpander, Graph, build_graph


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each relabelled after the ones before it."""
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return build_graph(offset, edges)


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
