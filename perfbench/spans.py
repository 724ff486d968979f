"""Span recorder for the traced benchmark run.

`install` wraps the public hyperexpand functions listed in TARGETS. A
module-level function is replaced under every name that holds it in a
loaded hyperexpand module (the defining module and each module that
imported it), a method on its class. `restore` puts every original back.
Each call records one span: name, parent span, start, end, the benchmark
item it belongs to, and counts computed from its arguments or result.
Spans stay in memory until `write_jsonl`.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# Span fields, by index.
ID, PARENT, NAME, START, END, CHILD, ITEM, ATTRS = range(8)


class Recorder:
    """Keeps closed spans in a list; open spans on a stack (one thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: int | None = None
        self._stack: list[list] = []
        self._next_id = 0

    def open(self, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [self._next_id, parent, name, time.perf_counter(), None, 0.0, self.item, None]
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: list, end: float, attrs: dict | None) -> None:
        span[END] = end
        span[ATTRS] = attrs
        self._stack.pop()
        if self._stack:
            self._stack[-1][CHILD] += span[END] - span[START]
        self.spans.append(span)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                row = {
                    "id": s[ID],
                    "parent": s[PARENT],
                    "name": s[NAME],
                    "start": s[START],
                    "end": s[END],
                    "self": self_time(s),
                    "item": s[ITEM],
                }
                row.update(s[ATTRS] or {})
                f.write(json.dumps(row) + "\n")


def self_time(span: list) -> float:
    """Span duration minus the time its (sequential, nested) children cover."""
    return (span[END] - span[START]) - span[CHILD]


# ---------------------------------------------------------------------------
# counts computed at the span boundary, from (args, kwargs, result)


def _eigensolve(args, kwargs, out):
    n = args[0].n
    return {"n": n, "dense_bytes": n * n * 8}


def _ramanujan(args, kwargs, out):
    return {"attempts": out[1]}


def _size(args, kwargs, out):
    return {"n": args[0].n}


def _validate(args, kwargs, out):
    return {"k": args[2]}


def _text_bytes(args, kwargs, out):
    return {"bytes": len(out)}


def _train(args, kwargs, out):
    cfg = args[0]
    variant = cfg.hyperedge_mode.value if cfg.rewire else "plain"
    return {"depth": cfg.depth, "variant": variant, "epochs": cfg.epochs}


def _gin_fwd(args, kwargs, out):
    h, adj = args[0], args[1]
    batch, rows, dim = h.shape
    useful = int(adj.any(axis=-1).sum()) if adj.ndim == 2 else rows
    return {"flops": 2 * batch * rows * rows * dim, "rows": batch * rows, "useful_rows": batch * useful}


def _gin_bwd(args, kwargs, out):
    h = args[1][0]
    batch, rows, dim = h.shape
    return {"flops": 2 * batch * rows * rows * dim}


def _exp_fwd(args, kwargs, out):
    h, biadj = args[0], args[1]
    n = biadj.shape[-1]
    # Two aggregations per layer: left -> hyperedge, then hyperedge -> left.
    return {"flops": 4 * h.shape[0] * n * n * h.shape[-1], "biadj_bytes": biadj.nbytes}


def _exp_bwd(args, kwargs, out):
    dout = args[0]
    n = args[1][1].shape[-1]
    return {"flops": 4 * dout.shape[0] * n * n * dout.shape[-1]}


# (module, attribute or Class.method, counts); the span is named after
# the module without its "hyperexpand." prefix plus the attribute.
TARGETS = [
    ("hyperexpand.cli", "entry", None),
    ("hyperexpand.spectral", "analyze", None),
    ("hyperexpand.spectral", "adjacency_eigenvalues", _eigensolve),
    ("hyperexpand.spectral", "jacobi_eigenvalues", None),
    ("hyperexpand.construct", "ramanujan_bipartite", _ramanujan),
    ("hyperexpand.construct", "k_regular_bipartite", _size),
    ("hyperexpand.construct", "random_perfect_matching", None),
    ("hyperexpand.rng", "SplitMix64.permutation", None),
    ("hyperexpand.graphs", "make_bipartite_expander", _validate),
    ("hyperexpand.graphs", "BipartiteExpander.to_graph", None),
    ("hyperexpand.graphs", "BipartiteExpander.biadjacency", None),
    ("hyperexpand.graphs", "Graph.adjacency_matrix", None),
    ("hyperexpand.graphs", "build_graph", None),
    ("hyperexpand.graphs", "is_connected", None),
    ("hyperexpand.graphs", "bfs_diameter", None),
    ("hyperexpand.graphs", "bipartition", None),
    ("hyperexpand.serialize", "dumps_canonical", _text_bytes),
    ("hyperexpand.serialize", "edgelist_dumps", _text_bytes),
    ("hyperexpand.serialize", "load_graph_file", None),
    ("hyperexpand.rewire", "augment", None),
    ("hyperexpand.oracle", "verify_bounds", _size),
    ("hyperexpand.oracle", "vertex_expansion", None),
    ("hyperexpand.oracle", "edge_expansion", None),
    ("hyperexpand.gnn.treematch", "make_dataset", None),
    ("hyperexpand.gnn.training", "train", _train),
    ("hyperexpand.gnn.model", "loss_and_gradients", None),
    ("hyperexpand.gnn.model", "forward_batch", None),
    ("hyperexpand.gnn.model", "backward_batch", None),
    ("hyperexpand.gnn.model", "softmax_cross_entropy", None),
    ("hyperexpand.gnn.layers", "gin_forward", _gin_fwd),
    ("hyperexpand.gnn.layers", "gin_backward", _gin_bwd),
    ("hyperexpand.gnn.layers", "expander_forward", _exp_fwd),
    ("hyperexpand.gnn.layers", "expander_backward", _exp_bwd),
]


def _wrap(recorder: Recorder, name: str, fn, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            end = time.perf_counter()  # before the counts, which are not the call's work
            recorder.close(span, end, counts(args, kwargs, out) if counts and out is not None else None)

    return wrapper


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the (holder, name, original) patch list."""
    patches: list[tuple[object, str, object]] = []
    for module_name, attr, counts in TARGETS:
        module = importlib.import_module(module_name)
        span_name = module_name.removeprefix("hyperexpand.") + "." + attr.split(".")[-1]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            patches.append((cls, meth, original))
            setattr(cls, meth, _wrap(recorder, span_name, original, counts))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(recorder, span_name, original, counts)
        for holder_name, holder in list(sys.modules.items()):
            if holder_name != "hyperexpand" and not holder_name.startswith("hyperexpand."):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    patches.append((holder, key, original))
                    setattr(holder, key, wrapper)
    return patches


def restore(patches) -> None:
    for holder, key, original in reversed(patches):
        setattr(holder, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], items: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of `items` benchmark items.

    Times are self seconds per item and counts are per item; ratios and
    byte peaks are taken over the whole traced phase.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[tuple[str, str], float] = defaultdict(float)
    by_id = {s[ID]: s for s in spans}
    biadj_peak = 0
    validations_in_draws = accepted_matchings = certified = 0
    first_step: dict[int, float] = {}
    step_time: dict[int, float] = defaultdict(float)
    for s in spans:
        name = s[NAME]
        self_s[name] += self_time(s)
        calls[name] += 1
        for key, value in (s[ATTRS] or {}).items():
            if isinstance(value, (int, float)):
                sums[name, key] += value
        parent = by_id.get(s[PARENT])
        if name == "graphs.make_bipartite_expander" and parent and parent[NAME] == "construct.k_regular_bipartite":
            validations_in_draws += 1
            accepted_matchings += s[ATTRS]["k"] if s[ATTRS] else 0
        elif name == "construct.ramanujan_bipartite" and s[ATTRS]:
            certified += 1
        elif name == "gnn.layers.expander_forward" and s[ATTRS]:
            biadj_peak = max(biadj_peak, s[ATTRS]["biadj_bytes"])
        elif name == "gnn.model.loss_and_gradients" and parent and parent[NAME] == "gnn.training.train":
            first_step.setdefault(parent[ID], s[START])
            step_time[parent[ID]] += s[END] - s[START]
    # train() runs set-up until its first step, then steps and optimizer updates.
    prepare = sum(start - by_id[tid][START] for tid, start in first_step.items())
    updates = sum(by_id[tid][END] - start - step_time[tid] for tid, start in first_step.items())

    per = max(items, 1)

    def t(*names):
        return sum(self_s[n] for n in names) / per, "s/item"

    def c(name):
        return calls[name] / per, "count/item"

    draws = calls["construct.random_perfect_matching"]
    flops = sum(sums[n, "flops"] for n in (
        "gnn.layers.gin_forward", "gnn.layers.gin_backward",
        "gnn.layers.expander_forward", "gnn.layers.expander_backward"))
    return {
        "cli.entry_s": t("cli.entry"),
        "spectral.eigensolve_s": t("spectral.adjacency_eigenvalues"),
        "spectral.eigensolve_calls": c("spectral.adjacency_eigenvalues"),
        "spectral.dense_bytes": (sums["spectral.adjacency_eigenvalues", "dense_bytes"] / per, "B/item"),
        "spectral.analyze_s": t("spectral.analyze"),
        "spectral.jacobi_s": t("spectral.jacobi_eigenvalues"),
        "construct.ramanujan_attempts": (sums["construct.ramanujan_bipartite", "attempts"] / per, "count/item"),
        "construct.ramanujan_accept_ratio": (
            _ratio(certified, sums["construct.ramanujan_bipartite", "attempts"]), "ratio"),
        "construct.draw_s": t("construct.k_regular_bipartite"),
        "construct.matching_draws": (draws / per, "count/item"),
        "construct.matching_accept_ratio": (_ratio(accepted_matchings, draws), "ratio"),
        "construct.graph_redraws": (
            (validations_in_draws - calls["construct.k_regular_bipartite"]) / per, "count/item"),
        "rng.permutation_s": t("rng.permutation"),
        "rng.permutation_calls": c("rng.permutation"),
        "graphs.validate_s": t("graphs.make_bipartite_expander"),
        "graphs.to_graph_s": t("graphs.to_graph"),
        "graphs.build_graph_s": t("graphs.build_graph"),
        "graphs.bfs_s": t("graphs.is_connected", "graphs.bfs_diameter"),
        "graphs.bipartition_s": t("graphs.bipartition"),
        "graphs.adjacency_matrix_s": t("graphs.adjacency_matrix"),
        "graphs.biadjacency_s": t("graphs.biadjacency"),
        "serialize.dumps_s": t("serialize.dumps_canonical", "serialize.edgelist_dumps"),
        "serialize.load_s": t("serialize.load_graph_file"),
        "serialize.bytes_written": (
            (sums["serialize.dumps_canonical", "bytes"] + sums["serialize.edgelist_dumps", "bytes"]) / per,
            "B/item"),
        "rewire.augment_s": t("rewire.augment"),
        "rewire.augment_calls": c("rewire.augment"),
        "oracle.vertex_expansion_s": t("oracle.vertex_expansion"),
        "oracle.edge_expansion_s": t("oracle.edge_expansion"),
        "oracle.verify_self_s": t("oracle.verify_bounds"),
        "gnn.treematch.make_dataset_s": t("gnn.treematch.make_dataset"),
        "gnn.training.prepare_s": (prepare / per, "s/item"),
        "gnn.training.step_s": (updates / per, "s/item"),
        "gnn.model.forward_s": t("gnn.model.forward_batch"),
        "gnn.model.backward_s": t("gnn.model.backward_batch"),
        "gnn.model.loss_s": t("gnn.model.softmax_cross_entropy"),
        "gnn.layers.original_fwd_s": t("gnn.layers.gin_forward"),
        "gnn.layers.original_bwd_s": t("gnn.layers.gin_backward"),
        "gnn.layers.expander_fwd_s": t("gnn.layers.expander_forward"),
        "gnn.layers.expander_bwd_s": t("gnn.layers.expander_backward"),
        "gnn.layers.original_fwd_calls": c("gnn.layers.gin_forward"),
        "gnn.layers.original_bwd_calls": c("gnn.layers.gin_backward"),
        "gnn.layers.expander_fwd_calls": c("gnn.layers.expander_forward"),
        "gnn.layers.expander_bwd_calls": c("gnn.layers.expander_backward"),
        "gnn.layers.agg_flops": (flops / per, "flop/item"),
        "gnn.layers.biadj_bytes": (float(biadj_peak), "B"),
        "gnn.layers.original_useful_row_ratio": (
            _ratio(sums["gnn.layers.gin_forward", "useful_rows"], sums["gnn.layers.gin_forward", "rows"]),
            "ratio"),
    }


def baseline(spans: list[list]) -> dict[str, float]:
    """The ROADMAP baseline figures that this trace can reproduce."""
    eig: dict[int, list[float]] = defaultdict(list)
    verify: dict[int, list[float]] = defaultdict(list)
    draw: dict[int, list[float]] = defaultdict(list)
    steps: dict[int, list[float]] = defaultdict(list)
    for s in spans:
        attrs = s[ATTRS] or {}
        if s[NAME] == "spectral.adjacency_eigenvalues" and attrs:
            eig[attrs["n"]].append(self_time(s))
        elif s[NAME] == "oracle.verify_bounds" and attrs:
            verify[attrs["n"]].append(s[END] - s[START])
        elif s[NAME] == "construct.k_regular_bipartite" and attrs:
            draw[attrs["n"]].append(s[END] - s[START])
        elif s[NAME] == "gnn.model.loss_and_gradients" and s[PARENT] is not None:
            steps[s[PARENT]].append(s[START])
    epochs: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        if s[NAME] == "gnn.training.train" and s[ATTRS] and len(steps[s[ID]]) > 1:
            starts = steps[s[ID]]
            # One full-batch step per epoch, then one final evaluation.
            key = f"epoch_s.depth{s[ATTRS]['depth']}.{s[ATTRS]['variant']}"
            epochs[key].append((starts[-1] - starts[0]) / s[ATTRS]["epochs"])
    out: dict[str, float] = {}
    for label, table in (("eigensolve_s.2n", eig), ("verify_bounds_s.n", verify), ("k_regular_bipartite_s.n", draw)):
        for n, values in sorted(table.items()):
            out[f"{label}{n}"] = statistics.median(values)
    for key, values in sorted(epochs.items()):
        out[key] = statistics.median(values)
    return out
