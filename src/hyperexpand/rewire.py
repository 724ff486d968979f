"""Graph rewiring: hyperedge-node augmentation plus an expander overlay.

Each input graph on n vertices is augmented with n hyperedge nodes
(ids n..2n-1) that are isolated in the original edge set. A random
k-regular bipartite expander is attached between the two node sets, and
message passing alternates between the original edges (odd layers,
1-indexed) and the expander edges (even layers).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .construct import GeneratorConfig, k_regular_bipartite, ramanujan_bipartite
from .graphs import BipartiteExpander, Graph, build_graph
from .serialize import (
    REWIRED_FORMAT,
    bipartite_from_dict,
    bipartite_to_dict,
    graph_from_dict,
    graph_to_dict,
    payload_field,
)


class LayerKind(enum.Enum):
    ORIGINAL = "original"
    EXPANDER = "expander"


def layer_schedule(num_layers: int) -> tuple[LayerKind, ...]:
    """Alternating schedule starting from ORIGINAL (layer 1 is odd)."""
    if num_layers < 1:
        raise ValueError(f"need num_layers >= 1, got {num_layers}")
    return tuple(
        LayerKind.ORIGINAL if i % 2 == 0 else LayerKind.EXPANDER for i in range(num_layers)
    )


@dataclass(frozen=True)
class RewiredInstance:
    original: Graph
    expander: BipartiteExpander
    total_nodes: int
    hyperedge_mask: tuple[bool, ...]
    schedule: tuple[LayerKind, ...]

    def __post_init__(self):
        n = self.original.n
        if self.expander.n_left != n:
            raise ValueError("expander left side must match original vertex count")
        if self.total_nodes != 2 * n:
            raise ValueError("augmented node count must be 2n")
        if len(self.hyperedge_mask) != 2 * n or any(
            self.hyperedge_mask[i] != (i >= n) for i in range(2 * n)
        ):
            raise ValueError("hyperedge mask must select exactly ids n..2n-1")

    def original_view(self) -> Graph:
        """Original edges on the augmented node set; hyperedge nodes isolated."""
        return build_graph(self.total_nodes, self.original.edges())

    def expander_view(self) -> Graph:
        """Expander edges on the augmented node set (left v -- n + right)."""
        return self.expander.to_graph()

    def to_dict(self) -> dict:
        return {
            "format": REWIRED_FORMAT,
            "original": graph_to_dict(self.original),
            "expander": bipartite_to_dict(self.expander),
            "total_nodes": self.total_nodes,
            "hyperedge_mask": list(self.hyperedge_mask),
            "schedule": [kind.value for kind in self.schedule],
        }


def rewired_from_dict(data: dict) -> RewiredInstance:
    if data.get("format") != REWIRED_FORMAT:
        raise ValueError(f"expected format {REWIRED_FORMAT!r}, got {data.get('format')!r}")
    return RewiredInstance(
        original=graph_from_dict(payload_field(data, "original")),
        expander=bipartite_from_dict(payload_field(data, "expander")),
        total_nodes=payload_field(data, "total_nodes", int),
        hyperedge_mask=payload_field(data, "hyperedge_mask", lambda m: tuple(bool(b) for b in m)),
        schedule=payload_field(data, "schedule", lambda s: tuple(LayerKind(x) for x in s)),
    )


def augment(
    g: Graph,
    cfg: GeneratorConfig,
    num_layers: int = 6,
    ramanujan: bool = False,
) -> RewiredInstance:
    """Attach a fresh expander to g; cfg.n is overridden to g.n.

    cfg.k is clamped to g.n so tiny graphs (n < k) still get the densest
    admissible overlay. The expander is sampled once here, not per epoch.
    """
    if g.n < 1:
        raise ValueError("cannot augment the empty graph")
    eff = replace(cfg, n=g.n, k=min(cfg.k, g.n))
    if ramanujan and eff.k >= 2:
        expander, _, _ = ramanujan_bipartite(eff)
    else:
        # k=1 overlays (n=1 inputs) have no nontrivial spectrum to test.
        expander = k_regular_bipartite(eff)
    return RewiredInstance(
        original=g,
        expander=expander,
        total_nodes=2 * g.n,
        hyperedge_mask=tuple(i >= g.n for i in range(2 * g.n)),
        schedule=layer_schedule(num_layers),
    )
