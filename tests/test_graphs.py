from __future__ import annotations

import math

import numpy as np
import pytest

from hyperexpand.graphs import (
    MAX_VERTICES,
    BipartiteExpander,
    GraphError,
    bfs_diameter,
    bipartition,
    build_graph,
    circular_ladder_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    is_k_regular,
    make_bipartite_expander,
    path_graph,
    petersen_graph,
)

from helpers import disjoint_union


def floyd_warshall_diameter(g):
    """Independent distance oracle for bfs_diameter."""
    n = g.n
    dist = [[math.inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for m in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][m] + dist[m][j] < dist[i][j]:
                    dist[i][j] = dist[i][m] + dist[m][j]
    return max(d for row in dist for d in row)


class TestBuildGraph:
    def test_basic(self):
        g = build_graph(3, [(0, 1), (2, 1)])
        assert g.n == 3
        assert g.edge_count == 2
        assert g.adjacency == ((1,), (0, 2), (1,))
        assert g.edges() == [(0, 1), (1, 2)]

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_graph(2, [(1, 1)])

    def test_rejects_duplicate_either_orientation(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            build_graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph(2, [(0, 2)])

    def test_rejects_negative_n(self):
        with pytest.raises(GraphError):
            build_graph(-1, [])

    def test_rejects_vertex_count_above_limit(self):
        with pytest.raises(GraphError, match=f"n={MAX_VERTICES + 1}.*MAX_VERTICES={MAX_VERTICES}"):
            build_graph(MAX_VERTICES + 1, [])

    def test_expander_sides_above_limit(self):
        with pytest.raises(GraphError, match="MAX_VERTICES"):
            make_bipartite_expander(MAX_VERTICES, MAX_VERTICES, 1, [[0]])

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert g.n == 0 and g.edge_count == 0

    def test_adjacency_matrix_symmetric(self):
        g = cycle_graph(5)
        a = g.adjacency_matrix()
        assert a.shape == (5, 5)
        assert np.array_equal(a, a.T)
        assert a.sum() == 2 * g.edge_count


class TestPredicates:
    def test_regularity(self):
        assert is_k_regular(cycle_graph(6)) == 2
        assert is_k_regular(petersen_graph()) == 3
        assert is_k_regular(path_graph(3)) is None
        assert is_k_regular(build_graph(2, [])) == 0

    def test_bipartition_even_cycle(self):
        sides = bipartition(cycle_graph(6))
        assert sides is not None
        assert sides[0] == 0
        for u, v in cycle_graph(6).edges():
            assert sides[u] != sides[v]

    def test_bipartition_odd_cycle_is_none(self):
        assert bipartition(cycle_graph(5)) is None
        assert bipartition(petersen_graph()) is None

    def test_bipartition_k33(self):
        sides = bipartition(complete_bipartite_graph(3))
        assert sides == [0, 0, 0, 1, 1, 1]

    def test_diameter_matches_floyd_warshall(self):
        for g in (
            cycle_graph(7),
            path_graph(6),
            petersen_graph(),
            complete_bipartite_graph(4),
            circular_ladder_graph(5),
        ):
            assert bfs_diameter(g) == floyd_warshall_diameter(g)

    def test_diameter_disconnected_is_inf(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(3))
        assert bfs_diameter(g) == math.inf
        assert not is_connected(g)

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert is_connected(g)
        assert bfs_diameter(g) == 0


class TestFamilies:
    def test_cycle(self):
        g = cycle_graph(4)
        assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_cycle_rejects_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(5)
        assert g.edge_count == 10
        assert is_k_regular(g) == 4

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(3)
        assert g.n == 6 and g.edge_count == 9
        assert is_k_regular(g) == 3

    def test_circular_ladder(self):
        g = circular_ladder_graph(8)
        assert g.n == 16
        assert is_k_regular(g) == 3
        assert is_connected(g)

    def test_petersen(self):
        g = petersen_graph()
        assert g.n == 10 and g.edge_count == 15
        assert is_k_regular(g) == 3
        assert bfs_diameter(g) == 2


class TestBipartiteExpander:
    def test_to_graph_offsets_right_side(self):
        b = make_bipartite_expander(2, 2, 1, ((1, 0),))
        g = b.to_graph()
        assert g.n == 4
        assert g.edges() == [(0, 3), (1, 2)]

    def test_is_k_regular_and_bipartite(self):
        b = make_bipartite_expander(3, 3, 3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        g = b.to_graph()
        assert is_k_regular(g) == 3
        assert bipartition(g) is not None

    def test_biadjacency(self):
        b = make_bipartite_expander(2, 2, 1, ((1, 0),))
        m = b.biadjacency()
        assert m.tolist() == [[0, 1], [1, 0]]

    def test_rejects_unequal_sides(self):
        with pytest.raises(GraphError):
            make_bipartite_expander(2, 3, 1, ((0, 1),))

    def test_rejects_non_permutation(self):
        with pytest.raises(GraphError, match="permutation"):
            make_bipartite_expander(2, 2, 1, ((0, 0),))

    def test_rejects_shared_edge(self):
        with pytest.raises(GraphError, match="share edge"):
            make_bipartite_expander(2, 2, 2, ((0, 1), (0, 1)))

    def test_rejects_k_out_of_range(self):
        with pytest.raises(GraphError):
            make_bipartite_expander(2, 2, 3, ((0, 1), (1, 0), (0, 1)))


def test_disjoint_union_relabels():
    g = disjoint_union(path_graph(2), path_graph(2))
    assert g.n == 4
    assert g.edges() == [(0, 1), (2, 3)]
