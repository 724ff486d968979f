"""
Training a GIN on Tree-NeighborsMatch, plain and rewired
========================================================

Tree-NeighborsMatch asks the root of a complete binary tree to name the
leaf whose blue-neighbor count matches its own. Information has to travel
from the leaves to the root, so deeper trees squeeze more and more of the
input through the same few root channels. A small numpy GIN trains on the
task here, first on the bare tree, then with the expander overlay.
"""

import time

from hyperexpand.gnn.training import TrainConfig, train
from hyperexpand.gnn.treematch import leaf_ids, make_dataset, tree_graph
from hyperexpand.rng import SplitMix64

# ---------------------------------------------------------------------------
# The task at depth 2: seven nodes, four leaves, four classes. A dataset
# holds its instances as arrays; here is the first of one.

g = tree_graph(2)
data = make_dataset(2, 1, SplitMix64(0))
counts, labels, chosen = data.leaf_counts[0], data.leaf_labels[0], int(data.chosen[0])
print(f"depth-2 tree: {g.n} nodes, edges {g.edge_array().tolist()}")
print(f"leaves {list(leaf_ids(2))}")
print(f"leaf neighbor counts {counts.tolist()}")
print(f"leaf labels         {labels.tolist()}")
print(f"root count {counts[chosen]} -> answer is class {data.targets()[0]}")
print(f"features {data.features(g.n).shape[1:]}: count one-hot, then label one-hot")

# ---------------------------------------------------------------------------
# Depth 1 is easy: a plain GIN gets to 100% train accuracy quickly.

cfg = TrainConfig(depth=1, epochs=150, dataset_size=500, seed=0)
start = time.perf_counter()
res = train(cfg)
first = next((e for e, a in enumerate(res.accuracies, start=1) if a == 1.0), None)
print()
print(
    f"depth 1 plain: hits 100% train accuracy at epoch {first} "
    f"({time.perf_counter() - start:.1f}s)"
)

# ---------------------------------------------------------------------------
# Depth 2, plain versus rewired, same seed and budget. The rewired model
# interleaves expander layers (summation hyperedge mode) with the tree
# layers. At full budget (epochs=1500, dataset_size=500, seeds 1..3) the
# rewired run reaches 100% on every seed while plain GIN stalls short of
# it; the reduced budget below keeps this demo quick.

print()
for rewire in (False, True):
    cfg = TrainConfig(
        depth=2,
        num_layers=3,
        hidden_dim=32,
        learning_rate=0.01,
        epochs=600,
        dataset_size=200,
        seed=1,
        rewire=rewire,
        expander_k=3,
    )
    start = time.perf_counter()
    res = train(cfg)
    label = "rewired" if rewire else "plain  "
    print(
        f"depth 2 {label}: loss {res.final_loss:.4f}, "
        f"accuracy {res.final_accuracy:.3f} ({time.perf_counter() - start:.1f}s)"
    )
