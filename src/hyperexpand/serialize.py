"""Canonical file formats: byte-stable JSON and plain edge lists.

JSON payloads use fixed key order (insertion order of the dicts built
here) and 17-significant-digit float formatting, so re-running a command
with the same configuration reproduces byte-identical files.

The payload functions put the integer-only fields in as the containers'
own arrays: a graph's "edges" (its (m, 2) edge array), an expander's
"matchings" ((k, n)) and a rewired instance's "hyperedge_mask" (1-d
bool). dumps_canonical writes an integer array with one %-format call
and a boolean array as one string repeat per run of equal values; both
give the bytes json.dumps(a.tolist(), separators=(",", ":")) would.
Floats never take that path: json.dumps writes repr(x), the shortest
round-trip digits, where the canonical form is format_float's 17
significant digits.

Edge lists are read and written as whole (m, 2) integer arrays: the body
is parsed by one np.loadtxt call and formatted by one %-format, and the
comment and header lines are found by regular expressions.
"""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

import numpy as np

from .graphs import BipartiteExpander, Graph, build_graph, check_vertex_count, make_bipartite_expander

GRAPH_FORMAT = "hyperexpand-graph-v1"
BIPARTITE_FORMAT = "hyperexpand-bipartite-v1"
REWIRED_FORMAT = "hyperexpand-rewired-v1"


def format_float(x: float) -> str:
    """17-significant-digit decimal, always a valid JSON float literal."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {x!r} not representable in JSON")
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def dumps_canonical(obj) -> str:
    """Serialize with fixed key order and canonical float formatting."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, np.ndarray):
        out.append(_array_json(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _write(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _array_json(a: np.ndarray) -> str:
    """An integer array, or a 1-d boolean one, as JSON nested lists."""
    if a.dtype == bool and a.ndim == 1:
        cuts = (np.flatnonzero(a[1:] != a[:-1]) + 1).tolist()
        runs = (("true," if a[s] else "false,") * (e - s) for s, e in zip([0, *cuts], [*cuts, len(a)]) if e > s)
        return "[" + "".join(runs)[:-1] + "]"
    if a.dtype.kind not in "iu":
        raise TypeError(f"cannot serialize a {a.dtype} array of shape {a.shape}")
    fmt = "%d"
    for size in reversed(a.shape):
        fmt = "[" + ",".join([fmt] * size) + "]"
    return fmt % tuple(a.ravel().tolist())


def _check_format(d, expected: str) -> None:
    fmt = d.get("format") if isinstance(d, dict) else type(d).__name__
    if fmt != expected:
        raise ValueError(f"expected format {expected!r}, got {fmt!r}")


def payload_field(d: dict, name: str, parse=lambda value: value):
    """parse(d[name]); a missing or malformed field is a ValueError naming it."""
    if name not in d:
        raise ValueError(f"payload has no field {name!r}")
    try:
        return parse(d[name])
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"malformed field {name!r}: {e}") from None


def graph_to_dict(g: Graph) -> dict:
    return {"format": GRAPH_FORMAT, "n": g.n, "edges": g.edge_array()}


def _integer(value) -> int:
    """A count as JSON parsed it: an int, not a float, string or bool."""
    if type(value) is not int:
        raise TypeError(f"must be an integer, got {value!r}")
    return value


def _without_bools(rows):
    """rows (a list of id lists) as JSON parsed it, refusing true and
    false: bool is an int subclass, so the id checks would read 1 and 0.
    Other non-integer ids are named by the validation the rows go to."""
    if any(type(x) is bool for row in rows if isinstance(row, list) for x in row):
        raise TypeError("ids must be integers, got a boolean")
    return rows


def graph_from_dict(d: dict) -> Graph:
    _check_format(d, GRAPH_FORMAT)
    n = payload_field(d, "n", lambda value: check_vertex_count(_integer(value)))
    return payload_field(d, "edges", lambda edges: build_graph(n, _without_bools(edges)))


def bipartite_to_dict(b: BipartiteExpander) -> dict:
    return {
        "format": BIPARTITE_FORMAT,
        "n_left": b.n_left,
        "n_right": b.n_right,
        "k": b.k,
        "matchings": b.matchings,
    }


def bipartite_from_dict(d: dict) -> BipartiteExpander:
    _check_format(d, BIPARTITE_FORMAT)
    return make_bipartite_expander(
        payload_field(d, "n_left", _integer),
        payload_field(d, "n_right", _integer),
        payload_field(d, "k", _integer),
        payload_field(d, "matchings", _without_bools),
    )


def edgelist_dumps(g: Graph | BipartiteExpander) -> str:
    """A "# n=" header, then one "u v" line per edge, u < v, sorted.

    An expander is written as its derived graph, straight from the
    column-sorted matchings, without building that graph.
    """
    edges = g.edge_array()
    return f"# n={g.n}\n" + ("%d %d\n" * len(edges)) % tuple(edges.ravel().tolist())


# In text with a "\n" before every line and no other line break: a line
# whose first non-space character is "#", and one where it is another.
_COMMENT = re.compile(r"\n[^\S\n]*#.*")
_EDGE_LINE = re.compile(r"\n[^\S\n]*[^\s#]")


def edgelist_loads(text: str) -> Graph:
    """Parse `u v` lines; other '#' comments ignored.

    Vertex count comes from a "# n=" header, else the largest endpoint
    seen. A header is a comment line that, with whitespace removed, starts
    with "#n="; the first one counts, and one after an edge line is a
    ValueError naming n rather than a count silently dropped. Errors are
    those of the first offending line.
    """
    text = "\n" + "\n".join(text.splitlines())
    edge = _EDGE_LINE.search(text)
    first_edge = edge.start() if edge else len(text)
    headers = [c for c in _COMMENT.finditer(text) if "".join(c[0].split()).startswith("#n=")]
    n = None
    if headers and headers[0].start() < first_edge:
        line = headers[0][0].strip()
        try:
            n = int("".join(line.split())[3:])
        except ValueError:
            raise ValueError(f"malformed field 'n' in edge-list header {line!r}") from None
    late = next((h for h in headers if h.start() > first_edge), None)
    # The lines before a misplaced header, less the comments.
    rows = _edge_rows(_COMMENT.sub("", text[: late.start() if late else len(text)]).split("\n"))
    if late:
        raise ValueError(f"malformed field 'n': edge-list header {late[0].strip()!r} follows an edge line")
    if n is None:
        n = int(rows.max(initial=-1)) + 1
    return build_graph(n, rows)


def _edge_rows(lines: list[str]) -> np.ndarray:
    """Edge lines as an (m, 2) array, blank lines skipped.

    One np.loadtxt call reads lines of two ASCII integers within int64.
    Otherwise the lines are read one by one with int(), which also takes
    what loadtxt refuses ("1_0", non-ASCII digits, ids past int64; the
    result is then an object array), and the first invalid line is named.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an all-blank body warns that it holds no data
            a = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
        if a.shape[1] == 2:
            return a
    except ValueError:
        pass
    rows = []
    for raw in lines:
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"invalid edge line: {raw!r}")
        rows.append((int(parts[0]), int(parts[1])))
    return np.array(rows, dtype=object).reshape(len(rows), 2)


def _graph_from_payload(d: dict) -> Graph | None:
    fmt = d.get("format")
    if fmt == GRAPH_FORMAT:
        return graph_from_dict(d)
    if fmt == BIPARTITE_FORMAT:
        return bipartite_from_dict(d).to_graph()
    if fmt == REWIRED_FORMAT:
        from .rewire import rewired_from_dict  # rewire imports this module

        return rewired_from_dict(d).expander.to_graph()
    return None


def load_graph_file(path: str | Path) -> Graph:
    """Read a graph from JSON (graph or bipartite payload) or edge-list text.

    Bipartite payloads are returned as their derived 2n-vertex graph, and
    a rewire payload, checked whole, as its expander overlay's.
    Command-line output envelopes ({"config": ..., "result": ...}) are
    unwrapped to the graph or expander they carry, so a generate output
    feeds straight back into analyze, verify, and rewire.
    """
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        d = json.loads(text)
        g = _graph_from_payload(d)
        if g is not None:
            return g
        result = d.get("result")
        if isinstance(result, dict):
            for candidate in (result, result.get("expander")):
                g = _graph_from_payload(candidate) if isinstance(candidate, dict) else None
                if g is not None:
                    return g
            raise ValueError("envelope contains no graph payload")
        raise ValueError(f"unrecognized payload format {d.get('format')!r}")
    return edgelist_loads(text)
