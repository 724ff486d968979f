"""Random k-regular bipartite expanders from unions of disjoint matchings.

A uniformly random permutation is a perfect matching between two sides of
size n; overlaying k pairwise edge-disjoint matchings gives a k-regular
bipartite graph. Disjointness is enforced by resampling only the matching
that collides. Optional rejection sampling keeps drawing whole graphs
until the spectral Ramanujan test accepts one.

Construction stays in the matchings' own form: the accepted permutations
fill a (k, n) array, a collision is one array compare against its rows,
and validation and the connectivity check run on that array; no derived
2n-vertex Graph is built until a caller asks for one.

There is one draw path. `k_regular_bipartite_batch` draws instances
together as a (B, k, n) array: every round gives each unfinished instance
its next few permutations (rng.permutation_rows, which runs few long rows
through their own swap chains and many short ones in column steps),
collisions and connectivity are masked per instance, and row i depends
only on seed i. `k_regular_bipartite` is the batch of its one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graphs import (
    MAX_VERTICES,
    BipartiteExpander,
    check_matching_array,
    connected_rows,
    inverse_rows,
)
from .rng import _GAMMA, _MASK, SplitMix64, derive_seed, derive_seeds, permutation_rows
from .spectral import (
    DEFAULT_TOLERANCE,
    SpectralReport,
    alon_boppana_reference,
    analyze,
    check_tolerance,
)


# A round draws about this many elements: each unfinished instance draws
# max(1, _ROUND_ELEMENTS // (instances * n)) permutations ahead, so a lone
# small instance pays one round of numpy calls per many resamples.
_ROUND_ELEMENTS = 4096


class RetryBudgetExhausted(RuntimeError):
    """A resampling loop ran out of attempts.

    stage is one of "matching" (disjointness), "connectivity", or
    "ramanujan"; counts and the best spectral value seen are attached so
    callers can report how close the run came.
    """

    def __init__(
        self,
        stage: str,
        attempts: int,
        message: str,
        *,
        matching_retries: int | None = None,
        graph_redraws: int | None = None,
        best_lambda: float | None = None,
        bound: float | None = None,
    ):
        super().__init__(message)
        self.stage = stage
        self.attempts = attempts
        self.matching_retries = matching_retries
        self.graph_redraws = graph_redraws
        self.best_lambda = best_lambda
        self.bound = bound


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    k: int
    seed: int = 0
    max_matching_retries: int = 1000
    max_ramanujan_attempts: int = 200
    require_connected: bool | None = None  # None resolves to (k >= 2)
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"side size must be >= 1, got n={self.n}")
        if 2 * self.n > MAX_VERTICES:
            raise ValueError(
                f"side size n={self.n} gives 2n={2 * self.n} vertices, above MAX_VERTICES={MAX_VERTICES}"
            )
        if not 1 <= self.k <= self.n:
            raise ValueError(
                f"need 1 <= k <= n for k disjoint perfect matchings, got k={self.k}, n={self.n}"
            )
        if self.max_matching_retries < 0 or self.max_ramanujan_attempts < 1:
            raise ValueError("retry budgets must be nonnegative (attempts >= 1)")
        check_tolerance(self.tolerance)

    @property
    def connectivity_required(self) -> bool:
        if self.require_connected is None:
            return self.k >= 2
        return self.require_connected


def random_perfect_matching(n: int, rng: SplitMix64) -> np.ndarray:
    """Uniform perfect matching of side size n: left l matched to perm[l],
    as an int64 array."""
    if n < 1:
        raise ValueError(f"matching needs n >= 1, got {n}")
    return rng.permutation(n)


def _budget_exhausted(cfg: GeneratorConfig, stage: str, count: int, accepted: int = 0) -> RetryBudgetExhausted:
    """The error of a k_regular_bipartite draw that ran out of its budget:
    count matching resamples (with accepted matchings kept so far) or
    count whole-graph redraws."""
    if stage == "matching":
        return RetryBudgetExhausted(
            "matching",
            count,
            f"no {cfg.k} disjoint matchings after {count} resamples "
            f"(budget {cfg.max_matching_retries}); had {accepted} so far",
            matching_retries=count,
        )
    return RetryBudgetExhausted(
        "connectivity",
        count,
        f"no connected graph after {count} whole-graph redraws "
        f"(budget {cfg.max_matching_retries})",
        graph_redraws=count,
    )


def k_regular_bipartite(cfg: GeneratorConfig) -> BipartiteExpander:
    """Union of k disjoint random matchings; deterministic in cfg.seed.

    The batch of the one seed (read modulo 2^64, as derive_seed reads
    it); see k_regular_bipartite_batch for the resampling and redraws.
    """
    return BipartiteExpander(cfg.n, cfg.n, cfg.k, k_regular_bipartite_batch(cfg, [cfg.seed % (1 << 64)])[0])


def k_regular_bipartite_batch(cfg: GeneratorConfig, seeds) -> np.ndarray:
    """The k disjoint matchings of every seed, as a (B, k, n) int64 array.

    seeds is a sequence of seeds in 0..2^64-1 (a uint64 array or ints);
    cfg.seed itself is not read. Instance i draws its permutations from
    SplitMix64(derive_seed(seeds[i], 0)). A permutation that shares an
    edge with one already accepted is resampled alone, and an instance
    whose derived 2n-vertex graph must be connected and is not restarts
    from derive_seed(seeds[i], redraws) with its counts reset. Resamples
    and redraws each get max_matching_retries; redraws are vanishingly
    rare for k >= 2.

    The generator states are one uint64 vector. A round draws the next
    few permutations of every unfinished instance in one
    rng.permutation_rows call, as if no draw were rejected, and takes
    them candidate by candidate: one masked compare against the accepted
    matchings, one breadth-first search over the instances completed.
    If instances run out of a budget, the error is that of the
    lowest-index failing seed, raised once every instance before it has
    finished. The result gets make_bipartite_expander's checks.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    n, k, budget = cfg.n, cfg.k, cfg.max_matching_retries
    out = np.full((len(seeds), k, n), -1, dtype=np.int64)
    state = derive_seeds(seeds, np.zeros_like(seeds))
    accepted = np.zeros(len(seeds), dtype=np.int64)
    retries = np.zeros_like(accepted)
    redraws = np.zeros_like(accepted)
    active = np.ones(len(seeds), dtype=bool)
    failure: tuple[int, RetryBudgetExhausted] | None = None

    def fail(i: int, err: RetryBudgetExhausted) -> None:
        nonlocal failure
        if failure is None or i < failure[0]:
            failure = (i, err)
            active[i:] = False  # instances after it can no longer be the error

    while (rows := np.flatnonzero(active)).size:
        ahead = max(1, _ROUND_ELEMENTS // (len(rows) * n))
        starts = state[rows, None] + np.arange(ahead, dtype=np.uint64) * np.uint64((n - 1) * _GAMMA & _MASK)
        perms, ends = permutation_rows(starts.ravel(), n)
        perms, ends = perms.reshape(len(rows), ahead, n), ends.reshape(len(rows), ahead)
        for j in range(ahead):
            # a candidate is the next draw only while its instance is in the state it came from
            at = np.flatnonzero(active[rows] & (state[rows] == starts[:, j]))
            if not at.size:
                break
            cand, perm = rows[at], perms[at, j]
            state[cand] = ends[at, j]
            hit = (out[cand] == perm[:, None, :]).any(axis=(1, 2))
            retries[cand[hit]] += 1
            for i in cand[hit][retries[cand[hit]] > budget]:
                fail(i, _budget_exhausted(cfg, "matching", int(retries[i]), int(accepted[i])))
            keep = cand[~hit]
            out[keep, accepted[keep]] = perm[~hit]
            accepted[keep] += 1
            done = keep[accepted[keep] == k]
            if not cfg.connectivity_required or not done.size:
                active[done] = False
                continue
            m = out[done]
            connected = connected_rows(m, inverse_rows(m))
            active[done[connected]] = False
            redo = done[~connected]
            redraws[redo] += 1
            for i in redo:
                if redraws[i] > budget:
                    fail(i, _budget_exhausted(cfg, "connectivity", int(redraws[i])))
                else:
                    state[i] = derive_seed(int(seeds[i]), int(redraws[i]))
            out[redo] = -1
            accepted[redo] = retries[redo] = 0
    if failure is not None:
        raise failure[1]
    check_matching_array(out)
    return out


def ramanujan_bipartite(
    cfg: GeneratorConfig,
) -> tuple[BipartiteExpander, int, SpectralReport]:
    """Rejection-sample k_regular_bipartite until lambda(G) <= 2 sqrt(k-1).

    Returns the accepted expander, the 1-based attempt count, and the
    spectral report that certified it. Each attempt costs one dense
    singular-value decomposition of the n x n biadjacency block, which
    gives the whole 2n-vertex adjacency spectrum.
    """
    if cfg.k < 2:
        raise ValueError("Ramanujan sampling needs k >= 2 (k=1 has no nontrivial spectrum)")
    bound = alon_boppana_reference(cfg.k)
    best: float | None = None
    for attempt in range(1, cfg.max_ramanujan_attempts + 1):
        sub = replace(cfg, seed=derive_seed(cfg.seed, attempt - 1), require_connected=True)
        expander = k_regular_bipartite(sub)
        report = analyze(expander, tolerance=cfg.tolerance)
        lam = report.lambda_nontrivial
        if lam is not None and (best is None or lam < best):
            best = lam
        if report.ramanujan:
            return expander, attempt, report
    raise RetryBudgetExhausted(
        "ramanujan",
        cfg.max_ramanujan_attempts,
        f"no Ramanujan graph in {cfg.max_ramanujan_attempts} attempts; "
        f"best lambda {best} vs bound {bound:.6f}",
        best_lambda=best,
        bound=bound,
    )
