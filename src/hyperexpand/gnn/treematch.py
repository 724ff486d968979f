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
from collections.abc import Sequence
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
        leaf_labels = [self.labels[v] for v in leaf_ids(self.depth)]
        return _encode(self.depth, np.array([self.counts]), np.array([leaf_labels]), self.tree.n)[0]


def _encode(depth: int, counts: np.ndarray, leaf_labels: np.ndarray, rows: int) -> np.ndarray:
    """(B, rows, feature_dim) features of B instances, from their (B, n)
    node counts and (B, L) leaf labels: node v's count one-hot, then a
    leaf's label one-hot after the 2^depth + 1 count slots. Rows past n
    stay zero. One scatter for each one-hot."""
    size, n = counts.shape
    width_counts = 2**depth + 1
    feats = np.zeros((size, rows, width_counts + 2**depth))
    batch = np.arange(size)[:, None]
    feats[batch, np.arange(n), counts] = 1.0
    feats[batch, np.asarray(leaf_ids(depth)), width_counts + leaf_labels] = 1.0
    return feats


@dataclass(frozen=True, eq=False)
class TreeMatchDataset(Sequence):
    """B instances of one depth as arrays; item b is a TreeMatchInstance.

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

    def __getitem__(self, b: int) -> TreeMatchInstance:
        first_leaf = leaf_ids(self.depth).start
        leaf_counts, leaf_labels = self.leaf_counts[b].tolist(), self.leaf_labels[b].tolist()
        chosen = int(self.chosen[b])
        return TreeMatchInstance(
            depth=self.depth,
            tree=tree_graph(self.depth),
            counts=(leaf_counts[chosen],) + (0,) * (first_leaf - 1) + tuple(leaf_counts),
            labels=(None,) * first_leaf + tuple(leaf_labels),
            root_id=0,
            target_label=leaf_labels[chosen],
        )

    def targets(self) -> np.ndarray:
        """(B,) class labels: each chosen leaf's label."""
        return self.leaf_labels[np.arange(len(self)), self.chosen]

    def features(self, rows: int) -> np.ndarray:
        """(B, rows, feature_dim) float64 features, as each instance's
        encode_features() stacked, with zero rows past the tree's n."""
        leaves = leaf_ids(self.depth)
        counts = np.zeros((len(self), leaves.stop), dtype=np.int64)  # 0 on inner nodes
        counts[:, leaves.start:] = self.leaf_counts
        counts[:, 0] = self.leaf_counts[np.arange(len(self)), self.chosen]
        return _encode(self.depth, counts, self.leaf_labels, rows)


def generate_tree_match(depth: int, rng: SplitMix64) -> TreeMatchInstance:
    return make_dataset(depth, 1, rng)[0]


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
