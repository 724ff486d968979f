from __future__ import annotations

import numpy as np
import pytest

from hyperexpand.gnn.treematch import MAX_DEPTH, leaf_ids, make_dataset, tree_graph
from hyperexpand.graphs import bfs_diameter, is_connected
from hyperexpand.rng import _GAMMA, _MASK, SplitMix64

from helpers import dataset_instances, features_by_loop, state_drawing_max_at, tree_match_by_loop


def one_instance(depth: int, rng: SplitMix64):
    """The size-one dataset and its instance record (helpers.py)."""
    data = make_dataset(depth, 1, rng)
    return data, dataset_instances(data)[0]


class TestTreeGraph:
    @pytest.mark.parametrize("depth,n", [(1, 3), (2, 7), (3, 15), (5, 63)])
    def test_node_count(self, depth, n):
        g = tree_graph(depth)
        assert g.n == n
        assert g.edge_count == n - 1
        assert is_connected(g)

    def test_depth1_edges(self):
        assert tree_graph(1).edge_array().tolist() == [[0, 1], [0, 2]]

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
        data, inst = one_instance(1, SplitMix64(0))
        assert len(inst.counts) == 3
        assert data.features(3).shape[2] == (2 + 1) + 2  # 2 classes
        assert sorted(data.leaf_labels[0].tolist()) == [0, 1]
        assert inst.labels[0] is None and inst.counts[0] > 0  # the root

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_counts_and_labels_are_permutations(self, depth):
        for seed in range(5):
            data = make_dataset(depth, 1, SplitMix64(seed))
            assert sorted(data.leaf_counts[0].tolist()) == list(range(1, 2**depth + 1))
            assert sorted(data.leaf_labels[0].tolist()) == list(range(2**depth))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_exactly_one_leaf_matches_root(self, depth):
        for seed in range(10):
            data, inst = one_instance(depth, SplitMix64(seed))
            matching = [v for v in leaf_ids(depth) if inst.counts[v] == inst.counts[0]]
            assert len(matching) == 1
            assert data.targets()[0] == inst.target_label == inst.labels[matching[0]]

    def test_inner_nodes_carry_nothing(self):
        data, inst = one_instance(3, SplitMix64(4))
        feats = data.features(15)[0]
        inner = set(range(15)) - set(leaf_ids(3)) - {0}
        for v in inner:
            assert inst.counts[v] == 0 and inst.labels[v] is None
            assert feats[v].tolist() == [1.0] + [0.0] * (feats.shape[1] - 1)  # count 0, no label
        assert inst.labels[0] is None

    def test_deterministic(self):
        a = make_dataset(2, 1, SplitMix64(123))
        b = make_dataset(2, 1, SplitMix64(123))
        assert dataset_instances(a) == dataset_instances(b)

    def test_depth_bounds(self):
        with pytest.raises(ValueError, match="depth"):
            make_dataset(0, 1, SplitMix64(0))
        with pytest.raises(ValueError, match="depth"):
            make_dataset(MAX_DEPTH + 1, 1, SplitMix64(0))
        make_dataset(MAX_DEPTH, 1, SplitMix64(0))


class TestEncoding:
    def test_feature_dim(self):
        feats = make_dataset(2, 1, SplitMix64(1)).features(7)
        assert feats.shape == (1, 7, 5 + 4)

    def test_rows_are_one_or_two_hot(self):
        data, inst = one_instance(2, SplitMix64(2))
        feats = data.features(7)[0]
        for v in range(7):
            expected = 1.0 if inst.labels[v] is None else 2.0
            assert feats[v].sum() == expected
            assert set(np.unique(feats[v])) <= {0.0, 1.0}

    def test_count_slot_positions(self):
        data, inst = one_instance(2, SplitMix64(3))
        feats = data.features(7)[0]
        width = 2**inst.depth + 1
        for v in range(7):
            assert feats[v, inst.counts[v]] == 1.0
            if inst.labels[v] is not None:
                assert feats[v, width + inst.labels[v]] == 1.0

    def test_root_and_matching_leaf_share_count_slot(self):
        data, inst = one_instance(3, SplitMix64(9))
        feats = data.features(15)[0]
        leaf = next(v for v in leaf_ids(3) if inst.counts[v] == inst.counts[0])
        assert np.array_equal(
            feats[0, : 2**3 + 1], feats[leaf, : 2**3 + 1]
        )


class TestDistribution:
    def test_targets_uniform_chi_squared(self):
        # depth 2 has 4 classes; 1000 draws, chi^2 critical value for
        # df=3 at p=0.01 is 11.345
        counts = np.bincount(make_dataset(2, 1000, SplitMix64(2718)).targets(), minlength=4).tolist()
        expected = 250.0
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 11.345, f"chi2={chi2}, counts={counts}"


class TestDataset:
    def test_size_and_variety(self):
        data = make_dataset(2, 50, SplitMix64(7))
        assert len(data) == 50
        assert len(set(data.targets().tolist())) == 4

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
            assert dataset_instances(data) == want
            assert block._state == loop._state
            n = tree_graph(depth).n
            assert np.array_equal(data.features(n), np.stack([features_by_loop(i) for i in want]))
            assert np.array_equal(data.features(2 * n)[:, n:], np.zeros((size, n, 2 ** (depth + 1) + 1)))
            assert data.targets().tolist() == [i.target_label for i in want]

    @pytest.mark.parametrize("depth", range(2, MAX_DEPTH + 1))
    def test_rejected_draw_is_redrawn(self, depth):
        # the second draw, below 2^depth - 1 (not a power of 2), is 2^64 - 1
        start = state_drawing_max_at(2)
        block, loop = SplitMix64(start), SplitMix64(start)
        data = make_dataset(depth, 2, block)
        assert dataset_instances(data) == [tree_match_by_loop(depth, loop) for _ in range(2)]
        assert block._state == loop._state
        draws = 2 * (2 ** (depth + 1) - 1)  # two instances, none rejected
        assert block._state == (start + (draws + 1) * _GAMMA) & _MASK

    def test_single_instance_is_the_size_one_dataset(self):
        a, b = SplitMix64(11), SplitMix64(11)
        assert tree_match_by_loop(4, a) == one_instance(4, b)[1]
        assert a._state == b._state
