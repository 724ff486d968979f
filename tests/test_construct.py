from __future__ import annotations

import pytest

from hyperexpand.construct import (
    GeneratorConfig,
    RetryBudgetExhausted,
    k_regular_bipartite,
    ramanujan_bipartite,
    random_perfect_matching,
)
from hyperexpand.graphs import MAX_VERTICES, bipartition, is_connected, is_k_regular
from hyperexpand.rng import SplitMix64
from hyperexpand.spectral import alon_boppana_reference, analyze


def assert_valid(expander, n, k):
    assert expander.n_left == n and expander.n_right == n and expander.k == k
    for m in expander.matchings:
        assert sorted(m) == list(range(n))
    seen = set()
    for m in expander.matchings:
        for l, r in enumerate(m):
            assert (l, r) not in seen
            seen.add((l, r))
    g = expander.to_graph()
    assert is_k_regular(g) == k
    assert bipartition(g) is not None


class TestConfig:
    def test_defaults(self):
        cfg = GeneratorConfig(n=8, k=3)
        assert cfg.seed == 0
        assert cfg.connectivity_required is True

    def test_k1_skips_connectivity(self):
        assert GeneratorConfig(n=4, k=1).connectivity_required is False
        assert GeneratorConfig(n=4, k=1, require_connected=True).connectivity_required

    def test_validation(self):
        with pytest.raises(ValueError, match="1 <= k <= n"):
            GeneratorConfig(n=3, k=4)
        with pytest.raises(ValueError, match="1 <= k <= n"):
            GeneratorConfig(n=3, k=0)
        with pytest.raises(ValueError, match="n="):
            GeneratorConfig(n=0, k=0)
        with pytest.raises(ValueError, match="budget"):
            GeneratorConfig(n=3, k=2, max_matching_retries=-1)
        with pytest.raises(ValueError, match="budget"):
            GeneratorConfig(n=3, k=2, max_ramanujan_attempts=0)

    def test_side_size_limit(self):
        GeneratorConfig(n=MAX_VERTICES // 2, k=3)
        with pytest.raises(ValueError, match="MAX_VERTICES"):
            GeneratorConfig(n=MAX_VERTICES // 2 + 1, k=3)


class TestMatchings:
    def test_is_permutation(self):
        for n in (1, 2, 5, 9):
            m = random_perfect_matching(n, SplitMix64(1))
            assert sorted(m) == list(range(n))

    def test_known_draw(self):
        assert random_perfect_matching(5, SplitMix64(7)) == (4, 1, 3, 0, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_perfect_matching(0, SplitMix64(1))

    def test_n2_matchings_are_unbiased(self):
        # only two matchings exist on two vertices; both should appear
        # about half the time
        hits = sum(
            random_perfect_matching(2, SplitMix64(seed)) == (0, 1)
            for seed in range(10000)
        )
        assert abs(hits / 10000 - 0.5) < 0.02


class TestKRegularBipartite:
    def test_golden_n8_k3_seed7(self):
        b = k_regular_bipartite(GeneratorConfig(n=8, k=3, seed=7))
        assert b.matchings == (
            (6, 5, 1, 4, 0, 7, 3, 2),
            (5, 4, 0, 6, 1, 2, 7, 3),
            (0, 1, 6, 3, 2, 5, 4, 7),
        )

    def test_golden_n4_k3_seed5(self):
        b = k_regular_bipartite(GeneratorConfig(n=4, k=3, seed=5))
        assert b.matchings == ((2, 1, 3, 0), (0, 2, 1, 3), (1, 3, 0, 2))

    def test_deterministic(self):
        cfg = GeneratorConfig(n=12, k=4, seed=2024)
        assert k_regular_bipartite(cfg).matchings == k_regular_bipartite(cfg).matchings

    def test_seed_changes_output(self):
        a = k_regular_bipartite(GeneratorConfig(n=12, k=3, seed=0))
        b = k_regular_bipartite(GeneratorConfig(n=12, k=3, seed=1))
        assert a.matchings != b.matchings

    @pytest.mark.parametrize("n,k", [(2, 2), (5, 2), (8, 3), (10, 4), (4, 4)])
    def test_valid_over_seeds(self, n, k):
        for seed in range(10):
            b = k_regular_bipartite(GeneratorConfig(n=n, k=k, seed=seed))
            assert_valid(b, n, k)
            if k >= 2:
                assert is_connected(b.to_graph())

    def test_n1_k1(self):
        b = k_regular_bipartite(GeneratorConfig(n=1, k=1))
        assert b.matchings == ((0,),)
        assert b.to_graph().edges() == [(0, 1)]

    def test_n3_k3_forces_complete_bipartite(self):
        b = k_regular_bipartite(GeneratorConfig(n=3, k=3, seed=11))
        g = b.to_graph()
        assert is_k_regular(g) == 3
        assert g.edge_count == 9
        assert analyze(g).lambda_nontrivial == pytest.approx(0.0, abs=1e-8)

    def test_k1_may_be_disconnected(self):
        b = k_regular_bipartite(GeneratorConfig(n=6, k=1, seed=0))
        assert is_connected(b.to_graph()) is False

    def test_matching_budget_exhaustion(self):
        cfg = GeneratorConfig(
            n=2, k=2, seed=3, max_matching_retries=0, require_connected=False
        )
        with pytest.raises(RetryBudgetExhausted) as err:
            k_regular_bipartite(cfg)
        assert err.value.stage == "matching"
        assert err.value.attempts == 1
        assert err.value.matching_retries == 1

    def test_budget_zero_can_still_succeed(self):
        # seed whose second matching is already disjoint from the first
        b = k_regular_bipartite(
            GeneratorConfig(n=2, k=2, seed=0, max_matching_retries=0, require_connected=False)
        )
        assert_valid(b, 2, 2)


class TestRamanujanBipartite:
    def test_small_accepts_and_reports(self):
        expander, attempts, report = ramanujan_bipartite(GeneratorConfig(n=8, k=3, seed=1))
        assert_valid(expander, 8, 3)
        assert attempts >= 1
        assert report.ramanujan is True
        assert report.lambda_nontrivial <= alon_boppana_reference(3) + 1e-8

    def test_deterministic(self):
        cfg = GeneratorConfig(n=16, k=3, seed=42)
        a = ramanujan_bipartite(cfg)
        b = ramanujan_bipartite(cfg)
        assert a[0].matchings == b[0].matchings
        assert a[1] == b[1]

    def test_attempt_count_reflects_rejections(self):
        # master seed 99 draws a non-Ramanujan graph on its first attempt
        cfg = GeneratorConfig(n=16, k=3, seed=99)
        _, attempts, _ = ramanujan_bipartite(cfg)
        assert attempts > 1

    def test_budget_error_carries_best_lambda(self):
        cfg = GeneratorConfig(n=16, k=3, seed=99, max_ramanujan_attempts=1)
        with pytest.raises(RetryBudgetExhausted) as err:
            ramanujan_bipartite(cfg)
        e = err.value
        assert e.stage == "ramanujan"
        assert e.attempts == 1
        assert e.bound == pytest.approx(alon_boppana_reference(3))
        assert e.best_lambda == pytest.approx(2.900525638345578)
        assert e.best_lambda > e.bound

    def test_k1_rejected(self):
        with pytest.raises(ValueError, match="k >= 2"):
            ramanujan_bipartite(GeneratorConfig(n=4, k=1))

    def test_accepted_graphs_are_connected(self):
        for seed in range(5):
            expander, _, _ = ramanujan_bipartite(GeneratorConfig(n=6, k=2, seed=seed))
            assert is_connected(expander.to_graph())
