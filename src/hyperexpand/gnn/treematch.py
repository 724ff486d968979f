"""Tree-NeighborsMatch: a synthetic long-range task on binary trees.

Each instance is a complete binary tree. Leaves carry distinct
neighbor counts (a permutation of 1..2^depth) and distinct class labels;
the root carries the neighbor count of one uniformly chosen leaf, and the
model must output that leaf's label from the root's final representation.
Solving the task requires moving information across the full tree depth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..graphs import Graph, build_graph
from ..rng import SplitMix64

MAX_DEPTH = 8


@functools.lru_cache(maxsize=MAX_DEPTH)
def tree_graph(depth: int) -> Graph:
    """Complete binary tree: root 0, children of i at 2i+1 and 2i+2.

    Cached: the instances of one depth share one immutable Graph, so a
    dataset builds and validates it once, not once per sample.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    n = 2 ** (depth + 1) - 1
    edges = []
    for i in range(n):
        for child in (2 * i + 1, 2 * i + 2):
            if child < n:
                edges.append((i, child))
    return build_graph(n, edges)


def leaf_ids(depth: int) -> range:
    n = 2 ** (depth + 1) - 1
    return range(2**depth - 1, n)


@dataclass(frozen=True)
class TreeMatchInstance:
    depth: int
    tree: Graph
    counts: tuple[int, ...]  # neighbor count per node, 0 for inner non-root
    labels: tuple[int | None, ...]  # class label per node, None off the leaves
    root_id: int
    target_label: int

    @property
    def num_classes(self) -> int:
        return 2**self.depth

    @property
    def feature_dim(self) -> int:
        # count one-hot over 0..2^depth, then label one-hot over the classes
        return (2**self.depth + 1) + 2**self.depth

    def encode_features(self) -> np.ndarray:
        width_counts = 2**self.depth + 1
        feats = np.zeros((self.tree.n, self.feature_dim))
        for v in range(self.tree.n):
            feats[v, self.counts[v]] = 1.0
            if self.labels[v] is not None:
                feats[v, width_counts + self.labels[v]] = 1.0
        return feats


def generate_tree_match(depth: int, rng: SplitMix64) -> TreeMatchInstance:
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
    tree = tree_graph(depth)
    leaves = list(leaf_ids(depth))
    num_leaves = len(leaves)
    leaf_counts = [p + 1 for p in rng.permutation(num_leaves)]
    leaf_labels = rng.permutation(num_leaves)
    chosen = rng.next_below(num_leaves)

    counts = [0] * tree.n
    labels: list[int | None] = [None] * tree.n
    for leaf, c, lab in zip(leaves, leaf_counts, leaf_labels):
        counts[leaf] = c
        labels[leaf] = lab
    counts[0] = leaf_counts[chosen]
    return TreeMatchInstance(
        depth=depth,
        tree=tree,
        counts=tuple(counts),
        labels=tuple(labels),
        root_id=0,
        target_label=leaf_labels[chosen],
    )


def make_dataset(depth: int, size: int, rng: SplitMix64) -> list[TreeMatchInstance]:
    if size < 1:
        raise ValueError(f"dataset size must be >= 1, got {size}")
    return [generate_tree_match(depth, rng) for _ in range(size)]
