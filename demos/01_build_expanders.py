"""
Building random k-regular bipartite expanders
=============================================

A k-regular bipartite graph on sides {0..n-1} and {n..2n-1} is assembled
as a union of k perfect matchings, each one a uniformly random permutation,
redrawn whenever it would reuse an edge. Run this file directly; it prints
everything it does.
"""

from hyperexpand.construct import (
    GeneratorConfig,
    RetryBudgetExhausted,
    k_regular_bipartite,
    ramanujan_bipartite,
)
from hyperexpand.graphs import is_connected, is_k_regular
from hyperexpand.spectral import alon_boppana_reference, analyze

# ---------------------------------------------------------------------------
# A first graph: 8+8 vertices, degree 3.

cfg = GeneratorConfig(n=8, k=3, seed=7)
expander = k_regular_bipartite(cfg)
print(f"n={cfg.n} k={cfg.k} seed={cfg.seed}")
for i, matching in enumerate(expander.matchings):
    print(f"  matching {i}: {matching.tolist()}")

g = expander.to_graph()
print(f"as a plain graph: {g.n} vertices, {g.edge_count} edges")
print(f"regular with degree {is_k_regular(g)}, connected: {is_connected(g)}")

# The same seed always rebuilds the same matchings.
again = k_regular_bipartite(cfg)
print(f"deterministic rebuild matches: {again == expander}")

# ---------------------------------------------------------------------------
# Spectral quality of a random draw vs the Ramanujan threshold 2*sqrt(k-1).

report = analyze(g)
threshold = alon_boppana_reference(cfg.k)
print()
print(f"largest nontrivial eigenvalue: {report.lambda_nontrivial:.6f}")
print(f"Ramanujan threshold 2*sqrt(k-1): {threshold:.6f}")
print(f"this draw is Ramanujan: {report.ramanujan}")

# ---------------------------------------------------------------------------
# Rejection sampling until a draw certifies as Ramanujan. Most draws at this
# size pass immediately; seed 99 is one of the rare retries.

print()
for seed in (0, 1, 99):
    expander, attempts, report = ramanujan_bipartite(GeneratorConfig(n=16, k=3, seed=seed))
    print(
        f"seed {seed}: accepted after {attempts} attempt(s), "
        f"lambda = {report.lambda_nontrivial:.6f}"
    )

# ---------------------------------------------------------------------------
# Budgets are explicit. n=2, k=2 has a single valid graph (the 4-cycle), so
# the second matching must be the complement of the first; with a retry
# budget of zero some seeds cannot finish.

try:
    k_regular_bipartite(
        GeneratorConfig(n=2, k=2, seed=3, max_matching_retries=0, require_connected=False)
    )
except RetryBudgetExhausted as exc:
    print()
    print(f"budget exhaustion is reported, not hidden: {exc}")
