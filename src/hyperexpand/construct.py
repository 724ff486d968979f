"""Random k-regular bipartite expanders from unions of disjoint matchings.

A uniformly random permutation is a perfect matching between two sides of
size n; overlaying k pairwise edge-disjoint matchings gives a k-regular
bipartite graph. Disjointness is enforced by resampling only the matching
that collides. Optional rejection sampling keeps drawing whole graphs
until the spectral Ramanujan test accepts one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .graphs import MAX_VERTICES, BipartiteExpander, is_connected, make_bipartite_expander
from .rng import SplitMix64, derive_seed
from .spectral import (
    DEFAULT_TOLERANCE,
    SpectralReport,
    alon_boppana_reference,
    analyze,
    check_tolerance,
)


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


def random_perfect_matching(n: int, rng: SplitMix64) -> tuple[int, ...]:
    """Uniform perfect matching of side size n: left l matched to perm[l]."""
    if n < 1:
        raise ValueError(f"matching needs n >= 1, got {n}")
    return tuple(rng.permutation(n))


def _collides(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    return any(a == b for a, b in zip(p, q))


def _draw_disjoint_matchings(cfg: GeneratorConfig, rng: SplitMix64) -> tuple[tuple[int, ...], ...]:
    matchings: list[tuple[int, ...]] = []
    retries = 0
    while len(matchings) < cfg.k:
        p = random_perfect_matching(cfg.n, rng)
        if any(_collides(p, q) for q in matchings):
            retries += 1
            if retries > cfg.max_matching_retries:
                raise RetryBudgetExhausted(
                    "matching",
                    retries,
                    f"no {cfg.k} disjoint matchings after {retries} resamples "
                    f"(budget {cfg.max_matching_retries}); had {len(matchings)} so far",
                    matching_retries=retries,
                )
            continue
        matchings.append(p)
    return tuple(matchings)


def k_regular_bipartite(cfg: GeneratorConfig) -> BipartiteExpander:
    """Union of k disjoint random matchings; deterministic in cfg.seed.

    A matching colliding with an already-accepted one is resampled alone.
    If the derived 2n-vertex graph must be connected and is not, the whole
    graph is redrawn from a fresh sub-seed. Connectivity redraws share the
    max_matching_retries knob; they are vanishingly rare for k >= 2.
    """
    redraws = 0
    while True:
        rng = SplitMix64(derive_seed(cfg.seed, redraws))
        matchings = _draw_disjoint_matchings(cfg, rng)
        expander = make_bipartite_expander(cfg.n, cfg.n, cfg.k, matchings)
        if not cfg.connectivity_required:
            return expander
        if is_connected(expander.to_graph()):
            return expander
        redraws += 1
        if redraws > cfg.max_matching_retries:
            raise RetryBudgetExhausted(
                "connectivity",
                redraws,
                f"no connected graph after {redraws} whole-graph redraws "
                f"(budget {cfg.max_matching_retries})",
                graph_redraws=redraws,
            )


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
        report = analyze(expander.to_graph(), tolerance=cfg.tolerance)
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
