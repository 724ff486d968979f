"""hyperexpand: expander-graph construction, certification, and rewiring.

Builds random k-regular bipartite expanders from disjoint perfect
matchings, certifies expansion spectrally and by brute force, rewires
graphs with hyperedge-node expander overlays, and trains a small GIN on
Tree-NeighborsMatch to exercise the mechanism end to end.
"""

from .construct import GeneratorConfig, RetryBudgetExhausted, k_regular_bipartite, ramanujan_bipartite
from .graphs import (
    BipartiteExpander,
    Graph,
    GraphError,
    bfs_diameter,
    bipartition,
    build_graph,
    is_connected,
    is_k_regular,
    make_bipartite_expander,
)
from .oracle import (
    MAX_ORACLE_N,
    BoundReport,
    ExpansionWitness,
    OracleDomainError,
    edge_expansion,
    verify_bounds,
    vertex_expansion,
)
from .rewire import LayerKind, RewiredInstance, augment, layer_schedule
from .rng import SplitMix64, derive_seed
from .spectral import (
    EigensolverError,
    NotRegularError,
    SpectralReport,
    adjacency_eigenvalues,
    alon_boppana_reference,
    analyze,
    chung_diameter_bound,
    dodziuk_bounds,
    expander_constant_lower_bound,
    jacobi_eigenvalues,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteExpander",
    "BoundReport",
    "EigensolverError",
    "ExpansionWitness",
    "GeneratorConfig",
    "Graph",
    "GraphError",
    "LayerKind",
    "MAX_ORACLE_N",
    "NotRegularError",
    "OracleDomainError",
    "RetryBudgetExhausted",
    "RewiredInstance",
    "SpectralReport",
    "SplitMix64",
    "adjacency_eigenvalues",
    "alon_boppana_reference",
    "analyze",
    "augment",
    "bfs_diameter",
    "bipartition",
    "build_graph",
    "chung_diameter_bound",
    "derive_seed",
    "dodziuk_bounds",
    "edge_expansion",
    "expander_constant_lower_bound",
    "is_connected",
    "is_k_regular",
    "jacobi_eigenvalues",
    "k_regular_bipartite",
    "layer_schedule",
    "make_bipartite_expander",
    "ramanujan_bipartite",
    "verify_bounds",
    "vertex_expansion",
    "__version__",
]
