"""Canonical file formats: byte-stable JSON and plain edge lists.

JSON payloads use fixed key order (insertion order of the dicts built
here) and 17-significant-digit float formatting, so re-running a command
with the same configuration reproduces byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

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
    return {"format": GRAPH_FORMAT, "n": g.n, "edges": [list(e) for e in g.edges()]}


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
        "matchings": [list(m) for m in b.matchings],
    }


def bipartite_from_dict(d: dict) -> BipartiteExpander:
    _check_format(d, BIPARTITE_FORMAT)
    return make_bipartite_expander(
        payload_field(d, "n_left", int),
        payload_field(d, "n_right", int),
        payload_field(d, "k", int),
        payload_field(d, "matchings", lambda ms: [[int(x) for x in m] for m in ms]),
    )


def edgelist_dumps(g: Graph) -> str:
    lines = [f"# n={g.n}"] + [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def edgelist_loads(text: str) -> Graph:
    """Parse `u v` lines; other '#' comments ignored.

    Vertex count comes from a "# n=" header, else the largest endpoint
    seen. A header is a comment line that, with whitespace removed, starts
    with "#n="; the first one counts, and one after an edge line is a
    ValueError naming n rather than a count silently dropped.
    """
    n = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key = "".join(line.split())
            if key.startswith("#n=") and edges:
                raise ValueError(f"malformed field 'n': edge-list header {line!r} follows an edge line")
            if key.startswith("#n=") and n is None:
                try:
                    n = int(key[3:])
                except ValueError:
                    raise ValueError(f"malformed field 'n' in edge-list header {line!r}") from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"invalid edge line: {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        max_id = max(max_id, u, v)
    if n is None:
        n = max_id + 1
    return build_graph(n, edges)


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
