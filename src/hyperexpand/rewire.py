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

import numpy as np

from .construct import GeneratorConfig, k_regular_bipartite, ramanujan_bipartite
from .graphs import ArrayRecord, BipartiteExpander, Graph
from .serialize import (
    REWIRED_FORMAT,
    _check_format,
    _integer,
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


def _mask(n: int) -> np.ndarray:
    """The hyperedge mask of an n-vertex graph: ids n..2n-1 of 2n."""
    return np.repeat([False, True], n)


@dataclass(frozen=True, eq=False)
class RewiredInstance(ArrayRecord):
    """A graph, its expander overlay and the layer schedule. The mask may
    be given as any sequence equal to the mask of ids n..2n-1; it is kept
    as that mask's read-only bool array."""

    original: Graph
    expander: BipartiteExpander
    total_nodes: int
    hyperedge_mask: np.ndarray
    schedule: tuple[LayerKind, ...]

    def __post_init__(self):
        n = self.original.n
        if self.expander.n_left != n:
            raise ValueError("expander left side must match original vertex count")
        if self.total_nodes != 2 * n:
            raise ValueError("augmented node count must be 2n")
        if not np.array_equal(self.hyperedge_mask, _mask(n)):
            raise ValueError("hyperedge mask must select exactly ids n..2n-1")
        object.__setattr__(self, "hyperedge_mask", _mask(n))
        super().__post_init__()

    def to_dict(self) -> dict:
        return {
            "format": REWIRED_FORMAT,
            "original": graph_to_dict(self.original),
            "expander": bipartite_to_dict(self.expander),
            "total_nodes": self.total_nodes,
            "hyperedge_mask": self.hyperedge_mask,
            "schedule": [kind.value for kind in self.schedule],
        }


def _bools(mask):
    """A mask as JSON parsed it (a list of true and false only) or as
    to_dict gives it (a bool array)."""
    if isinstance(mask, np.ndarray) and mask.dtype == bool:
        return mask
    if not isinstance(mask, (list, tuple)) or any(type(b) is not bool for b in mask):
        raise TypeError(f"must be a list of booleans, got {mask!r}")
    return mask


def rewired_from_dict(data: dict) -> RewiredInstance:
    """Load a rewire payload; the counts must be true integers and the
    mask true booleans, and a bad field is a ValueError naming it."""
    _check_format(data, REWIRED_FORMAT)
    return RewiredInstance(
        original=graph_from_dict(payload_field(data, "original")),
        expander=bipartite_from_dict(payload_field(data, "expander")),
        total_nodes=payload_field(data, "total_nodes", _integer),
        hyperedge_mask=payload_field(data, "hyperedge_mask", _bools),
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
        hyperedge_mask=_mask(g.n),
        schedule=layer_schedule(num_layers),
    )
