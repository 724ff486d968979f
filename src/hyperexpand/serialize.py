"""Canonical file formats: byte-stable JSON and plain edge lists.

JSON payloads use fixed key order (insertion order of the dicts built
here) and 17-significant-digit float formatting, so re-running a command
with the same configuration reproduces byte-identical files.

The payload builders wrap the integer-only fields, a graph's "edges",
an expander's "matchings" and a rewired instance's "hyperedge_mask", in
IntList. dumps_canonical writes an IntList with one C-level json.dumps
call instead of one recursive step per integer; for ints, bools and
lists of them the two give the same bytes. Floats never take that path:
json.dumps writes repr(x), the shortest round-trip digits, where the
canonical form is format_float's 17 significant digits.

Edge lists are read and written as whole (m, 2) integer arrays: the body
is parsed by one np.loadtxt call and formatted by one %-format.
"""

from __future__ import annotations

import itertools
import json
import warnings
from pathlib import Path

import numpy as np

from .graphs import BipartiteExpander, Graph, build_graph, make_bipartite_expander

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


class IntList(list):
    """A payload list holding only ints, bools and lists of them, which
    dumps_canonical writes with one json.dumps call."""


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
    elif type(obj) is IntList:
        out.append(json.dumps(obj, separators=(",", ":"), check_circular=False))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            _write(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


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
    return {"format": GRAPH_FORMAT, "n": g.n, "edges": IntList(g.edge_array().tolist())}


def graph_from_dict(d: dict) -> Graph:
    _check_format(d, GRAPH_FORMAT)
    n = payload_field(d, "n", int)
    return build_graph(n, payload_field(d, "edges", lambda es: [(int(u), int(v)) for u, v in es]))


def bipartite_to_dict(b: BipartiteExpander) -> dict:
    return {
        "format": BIPARTITE_FORMAT,
        "n_left": b.n_left,
        "n_right": b.n_right,
        "k": b.k,
        "matchings": IntList(map(list, b.matchings)),
    }


def bipartite_from_dict(d: dict) -> BipartiteExpander:
    _check_format(d, BIPARTITE_FORMAT)
    return make_bipartite_expander(
        payload_field(d, "n_left", int),
        payload_field(d, "n_right", int),
        payload_field(d, "k", int),
        payload_field(d, "matchings", lambda ms: [[int(x) for x in m] for m in ms]),
    )


def edgelist_dumps(g: Graph | BipartiteExpander) -> str:
    """A "# n=" header, then one "u v" line per edge, u < v, sorted.

    An expander is written as its derived graph, straight from the
    column-sorted matchings, without building that graph.
    """
    n = g.n if isinstance(g, Graph) else g.n_left + g.n_right
    edges = g.edge_array()
    return f"# n={n}\n" + ("%d %d\n" * len(edges)) % tuple(edges.ravel().tolist())


def edgelist_loads(text: str) -> Graph:
    """Parse `u v` lines; other '#' comments ignored.

    Vertex count comes from a "# n=" header, else the largest endpoint
    seen. A header is a comment line that, with whitespace removed, starts
    with "#n="; the first one counts, and one after an edge line is a
    ValueError naming n rather than a count silently dropped. Errors are
    those of the first offending line.
    """
    lines = text.splitlines()
    comments = [i for i, line in enumerate(lines) if "#" in line and line.lstrip().startswith("#")]
    first_edge = next(
        (i for i, line in enumerate(lines) if line.strip() and not line.lstrip().startswith("#")),
        len(lines),
    )
    headers = [i for i in comments if "".join(lines[i].split()).startswith("#n=")]
    n = None
    if headers and headers[0] < first_edge:
        line = lines[headers[0]].strip()
        try:
            n = int("".join(line.split())[3:])
        except ValueError:
            raise ValueError(f"malformed field 'n' in edge-list header {line!r}") from None
    late = next((i for i in headers if i > first_edge), len(lines))
    # The lines before a misplaced header, less the comments: slices
    # between consecutive comment lines.
    kept = [c for c in comments if c < late]
    body = itertools.chain.from_iterable(lines[a + 1 : b] for a, b in zip([-1, *kept], [*kept, late]))
    rows = _edge_rows(list(body))
    if late < len(lines):
        line = lines[late].strip()
        raise ValueError(f"malformed field 'n': edge-list header {line!r} follows an edge line")
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
    return None


def load_graph_file(path: str | Path) -> Graph:
    """Read a graph from JSON (graph or bipartite payload) or edge-list text.

    Bipartite payloads are returned as their derived 2n-vertex graph.
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
            candidates = [result] + [
                v for k, v in result.items() if isinstance(v, dict) and k in ("expander", "graph")
            ]
            for candidate in candidates:
                g = _graph_from_payload(candidate)
                if g is not None:
                    return g
            raise ValueError("envelope contains no graph payload")
        raise ValueError(f"unrecognized payload format {d.get('format')!r}")
    return edgelist_loads(text)
