"""Tree-NeighborsMatch: a synthetic long-range task on binary trees.

Each instance is a complete binary tree. Leaves carry distinct
neighbor counts (a permutation of 1..2^depth) and distinct class labels;
the root carries the neighbor count of one uniformly chosen leaf, and the
model must output that leaf's label from the root's final representation.
Solving the task requires moving information across the full tree depth.

A dataset is drawn as whole arrays. Instance after instance, the
generator draws the leaf counts' Fisher-Yates indices (below L, ..., 2
for L = 2^depth leaves), the labels' indices, then the chosen leaf (below
L); `make_dataset` takes all of them in one exact block of draws and runs
the swaps of all 2B permutations at once, so instance b and the
generator's end state equal B successive per-instance draws bit for bit.
Features are one scatter over the batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..graphs import Graph, build_graph
from ..rng import SplitMix64, fisher_yates_rows

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


@dataclass(frozen=True, eq=False)
class TreeMatchDataset:
    """B instances of one depth as arrays.

    Row b of leaf_counts (a permutation of 1..L) and leaf_labels (of
    0..L-1) lists instance b's leaves in id order; chosen[b] is the leaf
    whose count the root carries.
    """

    depth: int
    leaf_counts: np.ndarray  # (B, L) int64
    leaf_labels: np.ndarray  # (B, L) int64
    chosen: np.ndarray  # (B,) int64

    def __len__(self) -> int:
        return len(self.chosen)

    def targets(self) -> np.ndarray:
        """(B,) class labels: each chosen leaf's label."""
        return self.leaf_labels[np.arange(len(self)), self.chosen]

    def features(self, rows: int) -> np.ndarray:
        """(B, rows, feature_dim) float64 features: node v's count one-hot
        (the root carries its chosen leaf's count, inner nodes 0), then a
        leaf's label one-hot after the 2^depth + 1 count slots. Rows past
        the tree's n stay zero."""
        leaves, batch = np.asarray(leaf_ids(self.depth)), np.arange(len(self))[:, None]
        width_counts = 2**self.depth + 1
        feats = np.zeros((len(self), rows, width_counts + 2**self.depth))
        feats[:, 1:leaves[0], 0] = 1.0
        feats[batch, 0, self.leaf_counts[batch, self.chosen[:, None]]] = 1.0
        feats[batch, leaves, self.leaf_counts] = 1.0
        feats[batch, leaves, width_counts + self.leaf_labels] = 1.0
        return feats


def make_dataset(depth: int, size: int, rng: SplitMix64) -> TreeMatchDataset:
    """size instances from one block of rng draws (see the module doc)."""
    if size < 1:
        raise ValueError(f"dataset size must be >= 1, got {size}")
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_DEPTH}, got {depth}")
    num_leaves = 2**depth
    swaps = np.arange(num_leaves, 1, -1, dtype=np.uint64)
    bounds = np.concatenate((swaps, swaps, swaps[:1]))  # swaps[0] is num_leaves
    draws = rng._below_block(np.tile(bounds, size)).reshape(size, -1).astype(np.int64)
    steps = num_leaves - 1
    perms = fisher_yates_rows(np.concatenate((draws[:, :steps], draws[:, steps:-1])))
    return TreeMatchDataset(
        depth=depth,
        leaf_counts=perms[:size] + 1,
        leaf_labels=perms[size:],
        chosen=draws[:, -1],
    )
