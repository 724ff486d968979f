from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperexpand.graphs import build_graph, cycle_graph, make_bipartite_expander, petersen_graph
from hyperexpand.rewire import RewiredInstance, layer_schedule, rewired_from_dict
from hyperexpand.serialize import (
    bipartite_from_dict,
    bipartite_to_dict,
    dumps_canonical,
    edgelist_dumps,
    edgelist_loads,
    format_float,
    graph_from_dict,
    graph_to_dict,
    load_graph_file,
)

from helpers import disjoint_matchings


class TestFormatFloat:
    def test_integral_values_keep_a_decimal_point(self):
        assert format_float(2.0) == "2.0"
        assert format_float(-3.0) == "-3.0"

    def test_round_trip_exact(self):
        for x in (0.1, 1 / 3, 2**0.5, 1e-8, 6.02e23, -0.0):
            assert float(format_float(x)) == x

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                format_float(bad)


class TestCanonicalJson:
    def test_key_order_is_insertion_order(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_nested_values(self):
        s = dumps_canonical({"x": [1, 2.5, None, True, "s"], "y": {"z": False}})
        assert s == '{"x":[1,2.5,null,true,"s"],"y":{"z":false}}'
        assert json.loads(s) == {"x": [1, 2.5, None, True, "s"], "y": {"z": False}}

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_canonical({"x": object()})

    def test_bool_is_not_int(self):
        assert dumps_canonical(True) == "true"


class TestGraphRoundTrip:
    def test_graph_dict(self):
        g = petersen_graph()
        d = graph_to_dict(g)
        assert d["format"] == "hyperexpand-graph-v1"
        assert list(d) == ["format", "n", "edges"]
        g2 = graph_from_dict(json.loads(dumps_canonical(d)))
        assert g2.n == g.n and g2.edges() == g.edges()

    def test_graph_dict_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="format"):
            graph_from_dict({"format": "something-else", "n": 1, "edges": []})

    def test_bipartite_dict(self):
        b = make_bipartite_expander(4, 4, 2, ((0, 1, 2, 3), (1, 2, 3, 0)))
        d = bipartite_to_dict(b)
        assert d["format"] == "hyperexpand-bipartite-v1"
        b2 = bipartite_from_dict(json.loads(dumps_canonical(d)))
        assert b2 == b

    def test_edges_sorted(self):
        d = graph_to_dict(cycle_graph(4))
        assert d["edges"] == [[0, 1], [0, 3], [1, 2], [2, 3]]


@st.composite
def simple_graphs(draw, min_n=0, max_n=12):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, edges)


@st.composite
def rewired_instances(draw):
    """A graph on n vertices with a k-regular overlay from disjoint_matchings."""
    n, ms = draw(disjoint_matchings(max_n=10))
    g = draw(simple_graphs(min_n=n, max_n=n))
    return RewiredInstance(
        original=g,
        expander=make_bipartite_expander(n, n, len(ms), ms),
        total_nodes=2 * n,
        hyperedge_mask=tuple(i >= n for i in range(2 * n)),
        schedule=layer_schedule(draw(st.integers(1, 8))),
    )


class TestJsonRoundTripProperties:
    """dumps_canonical -> json.loads -> from_dict gives back an equal
    object, whose payload dumps to the same bytes."""

    @settings(max_examples=200, deadline=None)
    @given(simple_graphs())
    def test_graph_payload(self, g):
        text = dumps_canonical(graph_to_dict(g))
        back = graph_from_dict(json.loads(text))
        assert back == g
        assert dumps_canonical(graph_to_dict(back)) == text

    @settings(max_examples=200, deadline=None)
    @given(disjoint_matchings())
    def test_bipartite_payload(self, case):
        n, ms = case
        b = make_bipartite_expander(n, n, len(ms), ms)
        text = dumps_canonical(bipartite_to_dict(b))
        back = bipartite_from_dict(json.loads(text))
        assert back == b
        assert dumps_canonical(bipartite_to_dict(back)) == text

    @settings(max_examples=200, deadline=None)
    @given(rewired_instances())
    def test_rewired_payload(self, inst):
        text = dumps_canonical(inst.to_dict())
        back = rewired_from_dict(json.loads(text))
        assert back == inst
        assert dumps_canonical(back.to_dict()) == text


class TestMalformedFields:
    """Missing or mistyped fields are ValueErrors that name the field."""

    @pytest.mark.parametrize(
        "change,field",
        [
            ({"n": None}, "'n'"),
            ({"n": [3]}, "'n'"),
            ({"n": float("inf")}, "'n'"),
            ({"edges": 7}, "'edges'"),
            ({"edges": [[0, 1, 2]]}, "'edges'"),
            ({"edges": [None]}, "'edges'"),
        ],
    )
    def test_graph_fields(self, change, field):
        d = {**graph_to_dict(cycle_graph(4)), **change}
        with pytest.raises(ValueError, match=field):
            graph_from_dict(d)

    @pytest.mark.parametrize("field", ["n", "edges"])
    def test_graph_missing_field(self, field):
        d = graph_to_dict(cycle_graph(4))
        del d[field]
        with pytest.raises(ValueError, match=f"'{field}'"):
            graph_from_dict(d)

    @pytest.mark.parametrize("field", ["n_left", "n_right", "k", "matchings"])
    def test_bipartite_fields(self, field):
        d = bipartite_to_dict(make_bipartite_expander(2, 2, 1, [[1, 0]]))
        del d[field]
        with pytest.raises(ValueError, match=f"'{field}'"):
            bipartite_from_dict(d)
        d[field] = None
        with pytest.raises(ValueError, match=f"'{field}'"):
            bipartite_from_dict(d)

    def test_non_dict_payload(self):
        with pytest.raises(ValueError, match="format"):
            graph_from_dict([1, 2])


class TestEdgeList:
    def test_round_trip_with_header(self):
        g = cycle_graph(5)
        text = edgelist_dumps(g)
        assert text.startswith("# n=5\n")
        g2 = edgelist_loads(text)
        assert g2.n == 5 and g2.edges() == g.edges()

    def test_without_header_infers_n(self):
        g = edgelist_loads("0 1\n1 2\n")
        assert g.n == 3

    def test_isolated_vertices_need_header(self):
        g = edgelist_loads("# n=4\n0 1\n")
        assert g.n == 4

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            edgelist_loads("0 1 2\n")

    def test_rejects_non_integer_header(self):
        with pytest.raises(ValueError, match="'n'"):
            edgelist_loads("# n=abc\n0 1\n")

    def test_other_comments_are_not_headers(self):
        g = edgelist_loads("# generation=7\n0 1\n1 2\n2 0\n")
        assert g.n == 3 and g.edges() == [(0, 1), (0, 2), (1, 2)]
        assert edgelist_loads("# generation=7\n#  n = 5\n0 1\n").n == 5

    @pytest.mark.parametrize("text", ["0 1\n# n=5\n", "0 1\n# n=abc\n", "# n=3\n0 1\n#n=3\n"])
    def test_rejects_header_after_an_edge(self, text):
        with pytest.raises(ValueError, match="'n'"):
            edgelist_loads(text)

    @settings(max_examples=200, deadline=None)
    @given(simple_graphs())
    def test_round_trip_property(self, g):
        # the header keeps isolated trailing vertices; edges come back sorted
        assert edgelist_loads(edgelist_dumps(g)) == g


class TestLoadGraphFile:
    def test_loads_graph_json(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(dumps_canonical(graph_to_dict(cycle_graph(6))) + "\n")
        assert load_graph_file(path).edges() == cycle_graph(6).edges()

    def test_loads_bipartite_json_as_derived_graph(self, tmp_path):
        b = make_bipartite_expander(2, 2, 1, ((1, 0),))
        path = tmp_path / "b.json"
        path.write_text(dumps_canonical(bipartite_to_dict(b)) + "\n")
        g = load_graph_file(path)
        assert g.edges() == b.to_graph().edges()

    def test_loads_edge_list(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# n=3\n0 1\n1 2\n")
        assert load_graph_file(path).n == 3

    def test_rejects_unknown_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format":"mystery"}')
        with pytest.raises(ValueError):
            load_graph_file(path)

    def test_unwraps_envelope_with_expander_result(self, tmp_path):
        b = make_bipartite_expander(2, 2, 1, ((1, 0),))
        envelope = {
            "config": {"subcommand": "generate"},
            "tool_version": "0.0.0",
            "result": {"expander": bipartite_to_dict(b)},
        }
        path = tmp_path / "env.json"
        path.write_text(dumps_canonical(envelope) + "\n")
        assert load_graph_file(path).edges() == b.to_graph().edges()

    def test_unwraps_envelope_with_graph_result(self, tmp_path):
        envelope = {"config": {}, "result": graph_to_dict(cycle_graph(5))}
        path = tmp_path / "env.json"
        path.write_text(dumps_canonical(envelope) + "\n")
        assert load_graph_file(path).edges() == cycle_graph(5).edges()

    def test_envelope_without_graph_rejected(self, tmp_path):
        path = tmp_path / "env.json"
        path.write_text('{"config":{},"result":{"ramanujan":true}}')
        with pytest.raises(ValueError, match="no graph payload"):
            load_graph_file(path)
