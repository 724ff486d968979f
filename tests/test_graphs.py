from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    connected_rows,
    cycle_graph,
    inverse_rows,
    is_connected,
    is_k_regular,
    make_bipartite_expander,
    matching_biadjacency,
    path_graph,
    petersen_graph,
)

from hyperexpand.oracle import _neighbor_masks

from helpers import (
    bfs_diameter_by_tuples,
    biadjacency_by_loop,
    bipartition_by_tuples,
    build_graph_by_loop,
    is_connected_by_tuples,
    is_k_regular_by_tuples,
    neighbor_masks_by_tuples,
    tuple_graph_by_loop,
    disjoint_matchings,
    disjoint_union,
    matching_error_by_loops,
    outcome,
    to_graph_by_edges,
)


def floyd_warshall_diameter(g):
    """Independent distance oracle for bfs_diameter."""
    n = g.n
    dist = [[math.inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in g.edge_array().tolist():
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
        assert g.adjacency_lists() == [[1], [0, 2], [1]]
        assert g.offsets.tolist() == [0, 1, 3, 4] and g.neighbors.tolist() == [1, 0, 2, 1]
        assert g.edge_array().tolist() == [[0, 1], [1, 2]]

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
        for u, v in cycle_graph(6).edge_array().tolist():
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
        assert g.edge_array().tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]

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
        assert g.edge_array().tolist() == [[0, 3], [1, 2]]

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



@st.composite
def bad_graph_inputs(draw, max_n=10):
    """(n, edges, field, pair): a simple graph with one defect inserted,
    the field it breaks and the pair a message must name (None for n)."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    kind = draw(st.sampled_from(["negative n", "range", "self-loop", "duplicate"] if edges
                                else ["negative n", "range", "self-loop"]))
    if kind == "negative n":
        return draw(st.integers(-(2**70), -1)), edges, "n", None
    if kind == "range":
        bad = draw(st.one_of(st.integers(n, n + 5), st.integers(-5, -1), st.just(2**70)))
        pair = (bad, draw(st.integers(0, n - 1)))
        pair = pair[::-1] if draw(st.booleans()) else pair
        at = draw(st.integers(0, len(edges)))
    elif kind == "self-loop":
        v = draw(st.integers(0, n - 1))
        pair = (v, v)
        at = draw(st.integers(0, len(edges)))
    else:
        i = draw(st.integers(0, len(edges) - 1))
        u, v = edges[i]
        pair = (v, u) if draw(st.booleans()) else (u, v)
        at = draw(st.integers(i + 1, len(edges)))
    return n, edges[:at] + [pair] + edges[at:], "edges", pair


class TestBuildGraphRejections:
    """Each bad input is a GraphError naming its field and, for edges, the
    offending pair as given."""

    @settings(max_examples=300, deadline=None)
    @given(bad_graph_inputs())
    def test_defect_is_named(self, case):
        n, edges, field, pair = case
        with pytest.raises(GraphError) as err:
            build_graph(n, edges)
        msg = str(err.value)
        if field == "n":
            assert f"n must be non-negative, got {n}" in msg
        else:
            assert msg.startswith("edges: ") and f"({pair[0]}, {pair[1]})" in msg

    @settings(max_examples=100, deadline=None)
    @given(st.integers(MAX_VERTICES + 1, 2**80))
    def test_vertex_count_above_limit_is_named(self, n):
        with pytest.raises(GraphError, match=f"^vertex count n={n} exceeds MAX_VERTICES={MAX_VERTICES}$"):
            build_graph(n, [(0, 1)])


@st.composite
def damaged_matchings(draw):
    """Disjoint matchings with up to three edits: an id set to a value in
    or out of range, an id dropped or appended (ragged rows), or a swap
    inside one row that copies another row's right at some left (a shared
    edge between two permutations)."""
    n, ms = draw(disjoint_matchings())
    for _ in range(draw(st.integers(0, 3))):
        row = ms[draw(st.integers(0, len(ms) - 1))]
        kind = draw(st.sampled_from(["set", "drop", "append", "share"]))
        if kind == "append":
            row.append(draw(st.integers(-1, n)))
        elif not row:
            continue
        elif kind == "set":
            big = st.sampled_from([2**63, 2**70, -(2**70)])
            row[draw(st.integers(0, len(row) - 1))] = draw(st.one_of(st.integers(-2, n + 1), big))
        elif kind == "drop":
            row.pop(draw(st.integers(0, len(row) - 1)))
        else:
            other = ms[draw(st.integers(0, len(ms) - 1))]
            l = draw(st.integers(0, min(len(row), len(other)) - 1)) if other else 0
            if other and other[l] in row:
                p = row.index(other[l])
                row[l], row[p] = row[p], row[l]
    return n, ms


class TestMatchingNative:
    """The whole-array checks and the matching-native graph against the
    loop references in helpers.py."""

    @settings(max_examples=200, deadline=None)
    @given(disjoint_matchings())
    def test_to_graph_equals_build_graph(self, case):
        n, ms = case
        b = make_bipartite_expander(n, n, len(ms), ms)
        assert b.matchings.tolist() == ms
        g = b.to_graph()
        assert g == to_graph_by_edges(b)
        assert g.offsets.dtype == g.neighbors.dtype == np.int64
        assert connected_rows(b.matchings[None], inverse_rows(b.matchings)[None])[0] == is_connected(g)

    @settings(max_examples=400, deadline=None)
    @given(damaged_matchings())
    def test_validation_messages_match_loops(self, case):
        n, ms = case
        want = matching_error_by_loops(n, ms)
        try:
            make_bipartite_expander(n, n, len(ms), ms)
            got = None
        except GraphError as e:
            got = str(e)
        assert got == want

    def test_array_input_gives_int_tuples(self):
        b = make_bipartite_expander(3, 3, 2, np.array([[0, 1, 2], [1, 2, 0]], dtype=np.uint32))
        assert b.matchings.tolist() == [[0, 1, 2], [1, 2, 0]]
        assert b.matchings.dtype == np.int64

    def test_first_shared_edge_in_index_order(self):
        ms = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 1, 0, 3), (0, 3, 1, 2))
        with pytest.raises(GraphError, match=r"^matchings 0 and 2 share edge \(1, 1\)$"):
            make_bipartite_expander(4, 4, 4, ms)

    def test_ragged_row_named(self):
        with pytest.raises(GraphError, match="^matching 1 is not a permutation of 0..2$"):
            make_bipartite_expander(3, 3, 2, ((0, 1, 2), (1, 2)))

    @settings(max_examples=200, deadline=None)
    @given(disjoint_matchings())
    def test_biadjacency_is_one_scatter(self, case):
        n, ms = case
        b = make_bipartite_expander(n, n, len(ms), ms)
        want = biadjacency_by_loop(b)
        assert np.array_equal(b.biadjacency(), want) and b.biadjacency().dtype == want.dtype
        batch = matching_biadjacency(np.array([ms, ms[::-1]]))
        assert np.array_equal(batch, np.stack([want, want]))

    def test_connected_rows_per_row(self):
        rows = [((0, 1, 2, 3), (1, 0, 3, 2)), ((0, 1, 2, 3), (1, 2, 3, 0)), ((0, 1, 2, 3), (3, 2, 1, 0))]
        m = np.array(rows)
        inv = np.argsort(m, axis=2)
        want = [is_connected(make_bipartite_expander(4, 4, 2, r).to_graph()) for r in rows]
        assert connected_rows(m, inv).tolist() == want == [False, True, False]
        assert np.array_equal(inverse_rows(m), inv)

    def test_disconnected_union(self):
        # two 2-cycles: lefts {0, 1} and {2, 3} never meet
        b = make_bipartite_expander(4, 4, 2, ((0, 1, 2, 3), (1, 0, 3, 2)))
        assert connected_rows(b.matchings[None], inverse_rows(b.matchings)[None]).tolist() == [False]
        assert is_connected(b.to_graph()) is False
        one = make_bipartite_expander(1, 1, 1, ((0,),)).matchings[None]
        assert connected_rows(one, inverse_rows(one)).tolist() == [True]


# Integer ids as build_graph may meet them: in and out of range, bools,
# and ints past int64 (which only the loop path of the conversion reads).
ids = st.one_of(
    st.integers(-2, 9),
    st.booleans(),
    st.sampled_from([2**63 - 1, 2**63, 2**70, -(2**63), -(2**63) - 1]),
)


@st.composite
def integer_edge_lists(draw):
    """(n, pairs): a simple graph in random orientation and order, with
    up to three pairs of arbitrary integer ids inserted or appended."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(edges)))
        edges.insert(at, draw(st.tuples(ids, ids)))
    return n, edges


class TestWholeArrayBuildGraph:
    """The whole-array build_graph against the loop reference in
    helpers.py: the same Graph, or the same exception and message."""

    @settings(max_examples=500, deadline=None)
    @given(integer_edge_lists())
    def test_matches_loop(self, case):
        n, edges = case
        assert outcome(build_graph, n, edges) == outcome(build_graph_by_loop, n, edges)

    @settings(max_examples=200, deadline=None)
    @given(integer_edge_lists())
    def test_array_input_matches_loop(self, case):
        n, edges = case
        fits = [(int(u), int(v)) for u, v in edges if max(abs(u), abs(v)) < 2**62]
        a = np.array(fits, dtype=np.int64).reshape(len(fits), 2)
        assert outcome(build_graph, n, a) == outcome(build_graph_by_loop, n, a)

    def test_adjacency_holds_python_ints(self):
        g = build_graph(4, np.array([[3, 0], [True, 2]], dtype=np.int64))
        assert g.adjacency_lists() == [[3], [2], [1], [0]]
        assert all(type(v) is int for nbrs in g.adjacency_lists() for v in nbrs)

    @pytest.mark.parametrize(
        "edges",
        [
            [(np.uint64(1), np.int64(0)), (1, 2)],  # numpy promotes the pair to float64
            np.array([(1, 0), (1, 2)], dtype=object),
            [(np.True_, np.uint64(2)), (0, np.int64(1))],
        ],
    )
    def test_integer_ids_of_a_non_integer_array_are_accepted(self, edges):
        assert build_graph(3, edges) == path_graph(3)

    @pytest.mark.parametrize(
        "edges,shown",
        [
            ([(0, 1.5)], "(0, 1.5)"),
            ([(0, 1), ("2", 1)], "('2', 1)"),
            ([(1.0, 2)], "(1.0, 2)"),
            ([(0, None)], "(0, None)"),
            (np.array([[0.0, 1.0]]), "(np.float64(0.0), np.float64(1.0))"),
        ],
    )
    def test_non_integer_ids_are_named(self, edges, shown):
        with pytest.raises(GraphError) as err:
            build_graph(3, edges)
        assert str(err.value) == f"edges: {shown} ids must be integers"

    @pytest.mark.parametrize("entry", [(0, 1, 2), (0,), 7, None])
    def test_non_pairs_are_named(self, entry):
        with pytest.raises(GraphError, match=r"^edges: entry .* is not a \(u, v\) pair$"):
            build_graph(3, [(0, 1), entry])

    def test_earlier_defect_wins_over_a_non_integer(self):
        with pytest.raises(GraphError, match=r"^edges: self-loop \(2, 2\) not allowed$"):
            build_graph(3, [(2, 2), (0, 1.5)])
        with pytest.raises(GraphError, match=r"^edges: duplicate edge \(1, 0\)$"):
            build_graph(3, [(0, 1), (1, 0), ("a", 1)])


def test_disjoint_union_relabels():
    g = disjoint_union(path_graph(2), path_graph(2))
    assert g.n == 4
    assert g.edge_array().tolist() == [[0, 1], [2, 3]]


@st.composite
def simple_graphs(draw, max_n=12):
    """(n, edges): any n-vertex simple graph, or half the time one whose
    edges all cross a random two-colouring. Isolated vertices, several
    components and odd cycles come up often."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if draw(st.booleans()):
        side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        pairs = [(u, v) for u, v in pairs if side[u] != side[v]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, draw(st.permutations([e for e, kept in zip(pairs, keep) if kept]))


SMALL_CASES = [
    (0, []),
    (1, []),
    (4, [(0, 1)]),  # isolated vertices 2 and 3
    (5, [(i, (i + 1) % 5) for i in range(5)]),  # odd cycle
    (7, [(3, 4), (4, 5), (1, 2)]),  # components whose lowest ids are 1 and 3
]


def with_small_cases(test):
    for case in SMALL_CASES:
        test = example(case)(test)
    return test


class TestCsrMatchesTupleReferences:
    """Every CSR reader against the tuple-of-tuples reader it replaced
    (helpers.py), on the same random graphs."""

    @settings(max_examples=300, deadline=None)
    @given(simple_graphs())
    @with_small_cases
    def test_degrees_and_edges(self, case):
        g, t = build_graph(*case), tuple_graph_by_loop(*case)
        assert g.adjacency_lists() == [list(nbrs) for nbrs in t.adjacency]
        assert g.degrees() == t.degrees() and g.edge_count == t.edge_count
        assert np.array_equal(g.edge_array(), t.edge_array()) and g.edge_array().dtype == np.int64

    @settings(max_examples=300, deadline=None)
    @given(simple_graphs())
    @with_small_cases
    def test_adjacency_matrix_and_regularity(self, case):
        g, t = build_graph(*case), tuple_graph_by_loop(*case)
        assert np.array_equal(g.adjacency_matrix(), t.adjacency_matrix())
        assert is_k_regular(g) == is_k_regular_by_tuples(t)

    @settings(max_examples=300, deadline=None)
    @given(simple_graphs())
    @with_small_cases
    def test_bipartition(self, case):
        g, t = build_graph(*case), tuple_graph_by_loop(*case)
        side = bipartition(g)
        assert side == bipartition_by_tuples(t)
        if side is not None:  # the lowest id of each component gets side 0
            lowest = [min(c) for c in components(t)]
            assert all(side[u] == 0 for u in lowest)

    @settings(max_examples=300, deadline=None)
    @given(simple_graphs())
    @with_small_cases
    def test_connectivity_and_diameter(self, case):
        g, t = build_graph(*case), tuple_graph_by_loop(*case)
        assert is_connected(g) == is_connected_by_tuples(t)
        assert bfs_diameter(g) == bfs_diameter_by_tuples(t)

    @settings(max_examples=300, deadline=None)
    @given(simple_graphs())
    @with_small_cases
    def test_oracle_masks(self, case):
        g, t = build_graph(*case), tuple_graph_by_loop(*case)
        assert _neighbor_masks(g) == neighbor_masks_by_tuples(t)

    def test_bipartition_none_on_odd_cycle(self):
        assert bipartition(build_graph(*SMALL_CASES[3])) is None
        assert bipartition(build_graph(*SMALL_CASES[4])) == [0, 0, 1, 0, 1, 0, 0]

    def test_arrays_are_read_only(self):
        g = cycle_graph(5)
        b = make_bipartite_expander(2, 2, 1, [[1, 0]])
        for a in (g.offsets, g.neighbors, b.matchings, b.to_graph().neighbors):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1


def components(t) -> list[set[int]]:
    """The vertex sets of t's connected components, by depth-first search."""
    seen: set[int] = set()
    out = []
    for start in range(t.n):
        if start not in seen:
            stack, comp = [start], {start}
            while stack:
                for v in t.adjacency[stack.pop()]:
                    if v not in comp:
                        comp.add(v)
                        stack.append(v)
            seen |= comp
            out.append(comp)
    return out
