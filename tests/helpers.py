"""Helpers shared by the tests."""

from __future__ import annotations

import os
from pathlib import Path

import hyperexpand
from hyperexpand.graphs import Graph, build_graph


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, each relabelled after the ones before it."""
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return build_graph(offset, edges)


def child_env() -> dict[str, str]:
    """Environment for a child Python that imports this source tree, with
    one BLAS thread (pytest's pythonpath setting does not reach it)."""
    src = str(Path(hyperexpand.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
