"""
Rewiring a graph with hyperedge nodes and an interleaved schedule
=================================================================

Rewiring keeps the input graph intact and adds n hyperedge nodes wired to
the original vertices through a random k-regular bipartite expander.
Message passing then alternates between the original topology and the
expander overlay. Two hops through the overlay connect any pair of
original vertices whose hyperedge neighborhoods intersect, so a handful
of overlay layers spans graphs whose own diameter is long.
"""

import numpy as np

from hyperexpand.construct import GeneratorConfig
from hyperexpand.graphs import bfs_diameter, is_connected, path_graph
from hyperexpand.rewire import LayerKind, augment, layer_schedule

# ---------------------------------------------------------------------------
# Augment a 7-vertex path. Vertices 0..6 keep their edges; hyperedge nodes
# 7..13 have no original edges and carry the expander edges.

g = path_graph(7)
inst = augment(g, GeneratorConfig(n=7, k=3, seed=11), num_layers=4)
print(f"path on {g.n} vertices, diameter {bfs_diameter(g)}")
print(f"rewired instance has {inst.total_nodes} nodes")
print(f"hyperedge mask: {inst.hyperedge_mask.tolist()}")
print(f"expander overlay connected: {is_connected(inst.expander.to_graph())}")

print()
print("original edges (u, v):")
print(inst.original.edge_array())
print("overlay edges touch only (vertex, hyperedge) pairs:")
print(" ", inst.expander.to_graph().edges())

# ---------------------------------------------------------------------------
# The layer schedule simply alternates, starting from the original graph.

print()
for layers in (1, 2, 6):
    kinds = [k.value for k in layer_schedule(layers)]
    print(f"schedule({layers}): {kinds}")
print(f"this instance uses: {[k.value for k in inst.schedule]}")

# ---------------------------------------------------------------------------
# Reachability. One expander layer is two bipartite hops (vertices to
# hyperedges, hyperedges back to vertices). Simulating boolean receptive
# fields shows ceil(diameter/2) layers already make every vertex reachable
# from every other through the overlay alone.

biadj = inst.expander.biadjacency().astype(bool)
overlay_diam = bfs_diameter(inst.expander.to_graph())
left = np.eye(7, dtype=bool)
rounds = 0
while not left.all():
    right = left @ biadj.T
    left = left | (right @ biadj)
    rounds += 1
print()
print(f"overlay diameter {overlay_diam}, full coverage after {rounds} expander layer(s)")
print(f"ceil(diameter/2) = {(overlay_diam + 1) // 2}")
