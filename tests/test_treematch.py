from __future__ import annotations

import numpy as np
import pytest

from hyperexpand.gnn.treematch import (
    MAX_DEPTH,
    generate_tree_match,
    leaf_ids,
    make_dataset,
    tree_graph,
)
from hyperexpand.graphs import bfs_diameter, is_connected
from hyperexpand.rng import _GAMMA, _MASK, SplitMix64

from helpers import features_by_loop, state_drawing_max_at, tree_match_by_loop


class TestTreeGraph:
    @pytest.mark.parametrize("depth,n", [(1, 3), (2, 7), (3, 15), (5, 63)])
    def test_node_count(self, depth, n):
        g = tree_graph(depth)
        assert g.n == n
        assert g.edge_count == n - 1
        assert is_connected(g)

    def test_depth1_edges(self):
        assert sorted(tree_graph(1).edges()) == [(0, 1), (0, 2)]

    def test_children_rule(self):
        g = tree_graph(3)
        for i in range(7):  # inner nodes
            assert 2 * i + 1 in g.adjacency_lists()[i]
            assert 2 * i + 2 in g.adjacency_lists()[i]

    def test_diameter_is_twice_depth(self):
        for depth in (1, 2, 3, 4):
            assert bfs_diameter(tree_graph(depth)) == 2 * depth

    def test_leaf_ids(self):
        assert list(leaf_ids(1)) == [1, 2]
        assert list(leaf_ids(2)) == [3, 4, 5, 6]
        g = tree_graph(2)
        for leaf in leaf_ids(2):
            assert len(g.adjacency_lists()[leaf]) == 1

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            tree_graph(0)


class TestGenerate:
    def test_depth1_structure(self):
        inst = generate_tree_match(1, SplitMix64(0))
        assert inst.tree.n == 3
        assert inst.num_classes == 2
        assert inst.root_id == 0
        leaf_labels = [inst.labels[v] for v in leaf_ids(1)]
        assert sorted(leaf_labels) == [0, 1]

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_counts_and_labels_are_permutations(self, depth):
        for seed in range(5):
            inst = generate_tree_match(depth, SplitMix64(seed))
            leaves = list(leaf_ids(depth))
            counts = [inst.counts[v] for v in leaves]
            labels = [inst.labels[v] for v in leaves]
            assert sorted(counts) == list(range(1, 2**depth + 1))
            assert sorted(labels) == list(range(2**depth))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_exactly_one_leaf_matches_root(self, depth):
        for seed in range(10):
            inst = generate_tree_match(depth, SplitMix64(seed))
            matching = [v for v in leaf_ids(depth) if inst.counts[v] == inst.counts[0]]
            assert len(matching) == 1
            assert inst.target_label == inst.labels[matching[0]]

    def test_inner_nodes_carry_nothing(self):
        inst = generate_tree_match(3, SplitMix64(4))
        inner = set(range(inst.tree.n)) - set(leaf_ids(3)) - {0}
        for v in inner:
            assert inst.counts[v] == 0
            assert inst.labels[v] is None
        assert inst.labels[0] is None

    def test_deterministic(self):
        a = generate_tree_match(2, SplitMix64(123))
        b = generate_tree_match(2, SplitMix64(123))
        assert a == b

    def test_depth_bounds(self):
        with pytest.raises(ValueError, match="depth"):
            generate_tree_match(0, SplitMix64(0))
        with pytest.raises(ValueError, match="depth"):
            generate_tree_match(MAX_DEPTH + 1, SplitMix64(0))
        generate_tree_match(MAX_DEPTH, SplitMix64(0))


class TestEncoding:
    def test_feature_dim(self):
        inst = generate_tree_match(2, SplitMix64(1))
        assert inst.feature_dim == 5 + 4
        feats = inst.encode_features()
        assert feats.shape == (7, 9)

    def test_rows_are_one_or_two_hot(self):
        inst = generate_tree_match(2, SplitMix64(2))
        feats = inst.encode_features()
        for v in range(inst.tree.n):
            expected = 1.0 if inst.labels[v] is None else 2.0
            assert feats[v].sum() == expected
            assert set(np.unique(feats[v])) <= {0.0, 1.0}

    def test_count_slot_positions(self):
        inst = generate_tree_match(2, SplitMix64(3))
        feats = inst.encode_features()
        width = 2**inst.depth + 1
        for v in range(inst.tree.n):
            assert feats[v, inst.counts[v]] == 1.0
            if inst.labels[v] is not None:
                assert feats[v, width + inst.labels[v]] == 1.0

    def test_root_and_matching_leaf_share_count_slot(self):
        inst = generate_tree_match(3, SplitMix64(9))
        feats = inst.encode_features()
        leaf = next(v for v in leaf_ids(3) if inst.counts[v] == inst.counts[0])
        assert np.array_equal(
            feats[0, : 2**3 + 1], feats[leaf, : 2**3 + 1]
        )


class TestDistribution:
    def test_targets_uniform_chi_squared(self):
        # depth 2 has 4 classes; 1000 draws, chi^2 critical value for
        # df=3 at p=0.01 is 11.345
        rng = SplitMix64(2718)
        counts = [0, 0, 0, 0]
        for _ in range(1000):
            counts[generate_tree_match(2, rng).target_label] += 1
        expected = 250.0
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 11.345, f"chi2={chi2}, counts={counts}"


class TestDataset:
    def test_size_and_variety(self):
        data = make_dataset(2, 50, SplitMix64(7))
        assert len(data) == 50
        assert len({inst.target_label for inst in data}) == 4

    def test_size_validated(self):
        with pytest.raises(ValueError, match="size"):
            make_dataset(2, 0, SplitMix64(7))


class TestDatasetBlock:
    """make_dataset's one block of draws against instance-by-instance
    draws (tree_match_by_loop in helpers.py)."""

    @pytest.mark.parametrize("depth", range(1, MAX_DEPTH + 1))
    def test_matches_per_instance_draws(self, depth):
        size = 12 if depth <= 6 else 3
        for state in (0, 7, 2**64 - 1, state_drawing_max_at(2)):
            block, loop = SplitMix64(state), SplitMix64(state)
            data = make_dataset(depth, size, block)
            want = [tree_match_by_loop(depth, loop) for _ in range(size)]
            assert list(data) == want
            assert block._state == loop._state
            n = tree_graph(depth).n
            assert np.array_equal(data.features(n), np.stack([features_by_loop(i) for i in want]))
            assert np.array_equal(data.features(2 * n)[:, n:], np.zeros((size, n, 2 ** (depth + 1) + 1)))
            assert data.targets().tolist() == [i.target_label for i in want]
            assert all(np.array_equal(i.encode_features(), features_by_loop(i)) for i in want)

    @pytest.mark.parametrize("depth", range(2, MAX_DEPTH + 1))
    def test_rejected_draw_is_redrawn(self, depth):
        # the second draw, below 2^depth - 1 (not a power of 2), is 2^64 - 1
        start = state_drawing_max_at(2)
        block, loop = SplitMix64(start), SplitMix64(start)
        data = make_dataset(depth, 2, block)
        assert list(data) == [tree_match_by_loop(depth, loop) for _ in range(2)]
        assert block._state == loop._state
        draws = 2 * (2 ** (depth + 1) - 1)  # two instances, none rejected
        assert block._state == (start + (draws + 1) * _GAMMA) & _MASK

    def test_single_instance_is_the_size_one_dataset(self):
        a, b = SplitMix64(11), SplitMix64(11)
        assert generate_tree_match(4, a) == make_dataset(4, 1, b)[0]
        assert a._state == b._state
