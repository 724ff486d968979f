from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

from helpers import disjoint_matchings, dumps_by_recursion, edgelist_loads_by_lines, outcome


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
        assert d["edges"].tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]


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


# Separators str.split() accepts, some of which are not ASCII.
gaps = st.text(alphabet=" \t\x1f\xa0\u3000", min_size=1, max_size=3)
pads = st.text(alphabet=" \t\xa0", max_size=2)


@st.composite
def id_tokens(draw, v: int):
    """v as int() reads it: plain, signed, zero-padded, underscored, or in
    non-ASCII digits (the last two only on the line-by-line path)."""
    form = draw(st.sampled_from(["plain", "plus", "zeros", "underscore", "arabic"]))
    if form == "plus":
        return f"+{v}"
    if form == "zeros" and v >= 0:
        return f"00{v}"
    if form == "underscore" and v >= 10:
        return f"{str(v)[0]}_{str(v)[1:]}"
    if form == "arabic" and v >= 0:
        return str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))
    return str(v)


# Lines that break an edge list, one per defect kind the parsers name.
defect_lines = st.sampled_from([
    "9 0",  # out of range under a header
    "-1 0",  # negative
    "0 -5",
    "99999999999999999999 1",  # beyond int64
    "1 -99999999999999999999",
    "2 2",  # self-loop
    "1 0",  # duplicate in either orientation of an edge drawn below
    "0 1",
    "3",  # one token
    "0 1 2",  # three tokens
    "0 x",  # non-integer tokens
    "1.0 2",
    "0x1 2",
    "1e3 0",
    "0 1 # trailing comment",
    "# n=5",  # a header, misplaced after an edge line
    "# n=abc",  # malformed headers
    "#n=",
    "# n = 1.5",
])


@st.composite
def edge_list_texts(draw, defects=0):
    """Edge-list text of a simple graph: edges in random order and
    orientation, tokens in every form int() takes, ragged whitespace,
    blank and comment lines, maybe a header; then `defects` lines from
    defect_lines inserted anywhere."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = []
    for u, v in edges:
        u, v = (v, u) if draw(st.booleans()) else (u, v)
        lines.append(draw(pads) + draw(id_tokens(u)) + draw(gaps) + draw(id_tokens(v)) + draw(pads))
    extras = st.sampled_from(["", "   ", "# generation=7", "  # 0 1", "#"])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(extras))
    if draw(st.booleans()):
        header = draw(st.sampled_from(["# n={}", "#n={}", "  # n = {}"])).format(n + draw(st.integers(0, 2)))
        lines.insert(0, header)
    for _ in range(defects):
        lines.insert(draw(st.integers(0, len(lines))), draw(defect_lines))
    end = draw(st.sampled_from(["\n", "", "\r\n"]))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + end


class TestArrayParserMatchesLines:
    """edgelist_loads against the line-by-line reference in helpers.py:
    the same Graph, or the same exception type and message."""

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    def test_valid_text(self, text):
        want = edgelist_loads_by_lines(text)
        assert edgelist_loads(text) == want

    @settings(max_examples=800, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: edge_list_texts(defects=k)))
    def test_defects(self, text):
        assert outcome(edgelist_loads, text) == outcome(edgelist_loads_by_lines, text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789 -+#n=x\t\n\xa0٣_", max_size=40))
    def test_arbitrary_text(self, text):
        assert outcome(edgelist_loads, text) == outcome(edgelist_loads_by_lines, text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("# n=3\n0 3\n", "edges: (0, 3) out of range for n=3"),
            ("0 1\n1 1\n", "edges: self-loop (1, 1) not allowed"),
            ("0 1\n1 0\n", "edges: duplicate edge (1, 0)"),
            ("0 1\n2\n", "invalid edge line: '2'"),
            ("0 1\n# n=5\n", "malformed field 'n': edge-list header '# n=5' follows an edge line"),
            ("# n=x\n", "malformed field 'n' in edge-list header '# n=x'"),
        ],
    )
    def test_messages(self, text, message):
        with pytest.raises(ValueError) as err:
            edgelist_loads(text)
        assert str(err.value) == message

    def test_ids_past_int64(self):
        with pytest.raises(ValueError, match=r"^edges: \(0, 9223372036854775808\) out of range for n=4$"):
            edgelist_loads("# n=4\n0 9223372036854775808\n")
        with pytest.raises(ValueError, match="^vertex count n=9223372036854775809 exceeds"):
            edgelist_loads("0 9223372036854775808\n")


# JSON values of every kind dumps_canonical writes.
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.1, 1e16, -0.0, 2.0, 1 / 3]),
        st.text(max_size=5),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=20,
)
int_arrays = st.one_of(
    hnp.arrays(st.sampled_from([np.int64, np.uint64, np.int32]), hnp.array_shapes(max_dims=3, min_side=0)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=1, min_side=0)),
)


class TestCanonicalJsonMatchesRecursion:
    """dumps_canonical against the recursive reference in helpers.py."""

    @settings(max_examples=400, deadline=None)
    @given(json_values)
    def test_mixed_payloads(self, obj):
        assert dumps_canonical(obj) == dumps_by_recursion(obj)

    @settings(max_examples=300, deadline=None)
    @given(int_arrays, json_values, int_arrays)
    def test_int_list_fields(self, ints, other, mask):
        payload = {"edges": ints, "other": other, "mask": mask}
        plain = {"edges": ints.tolist(), "other": other, "mask": mask.tolist()}
        assert dumps_canonical(payload) == dumps_by_recursion(plain)

    def test_float_arrays_are_refused(self):
        with pytest.raises(TypeError, match="float64"):
            dumps_canonical({"x": np.zeros(2)})

    def test_payload_builders_mark_int_fields(self):
        b = make_bipartite_expander(2, 2, 1, [[1, 0]])
        edges = graph_to_dict(cycle_graph(4))["edges"]
        assert edges.dtype == np.int64 and edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]
        assert bipartite_to_dict(b)["matchings"] is b.matchings
        assert bipartite_to_dict(b)["matchings"].tolist() == [[1, 0]]
