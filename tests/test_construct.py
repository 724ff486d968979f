from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from hyperexpand.construct import (
    GeneratorConfig,
    RetryBudgetExhausted,
    k_regular_bipartite,
    k_regular_bipartite_batch,
    ramanujan_bipartite,
    random_perfect_matching,
)
from hyperexpand.graphs import MAX_VERTICES, GraphError, bipartition, check_matching_array, is_connected, is_k_regular
from hyperexpand.rng import SplitMix64, derive_seed
from hyperexpand.spectral import alon_boppana_reference, analyze

from helpers import matchings_by_instance, seed_rejecting_draw, seed_rejecting_first_draw


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
            assert sorted(m.tolist()) == list(range(n))

    def test_known_draw(self):
        assert tuple(random_perfect_matching(5, SplitMix64(7)).tolist()) == (4, 1, 3, 0, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_perfect_matching(0, SplitMix64(1))

    def test_n2_matchings_are_unbiased(self):
        # only two matchings exist on two vertices; both should appear
        # about half the time
        hits = sum(
            tuple(random_perfect_matching(2, SplitMix64(seed)).tolist()) == (0, 1)
            for seed in range(10000)
        )
        assert abs(hits / 10000 - 0.5) < 0.02


class TestKRegularBipartite:
    def test_golden_n8_k3_seed7(self):
        b = k_regular_bipartite(GeneratorConfig(n=8, k=3, seed=7))
        assert b.matchings.tolist() == [
            [6, 5, 1, 4, 0, 7, 3, 2],
            [5, 4, 0, 6, 1, 2, 7, 3],
            [0, 1, 6, 3, 2, 5, 4, 7],
        ]

    def test_golden_n4_k3_seed5(self):
        b = k_regular_bipartite(GeneratorConfig(n=4, k=3, seed=5))
        assert b.matchings.tolist() == [[2, 1, 3, 0], [0, 2, 1, 3], [1, 3, 0, 2]]

    def test_deterministic(self):
        cfg = GeneratorConfig(n=12, k=4, seed=2024)
        assert k_regular_bipartite(cfg) == k_regular_bipartite(cfg)

    def test_seed_changes_output(self):
        a = k_regular_bipartite(GeneratorConfig(n=12, k=3, seed=0))
        b = k_regular_bipartite(GeneratorConfig(n=12, k=3, seed=1))
        assert a != b

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
        assert b.to_graph().edge_array().tolist() == [[0, 1]]

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
        assert a[0] == b[0]
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


def per_instance(cfg: GeneratorConfig, seeds) -> list:
    """The reference draw (matchings_by_instance) for each seed: a (k, n)
    array, or the RetryBudgetExhausted it raised."""
    outs = []
    for s in seeds:
        try:
            outs.append(matchings_by_instance(replace(cfg, seed=int(s))))
        except RetryBudgetExhausted as e:
            outs.append(e)
    return outs


def error_fields(e: RetryBudgetExhausted) -> tuple:
    return (type(e), str(e), e.stage, e.attempts, e.matching_retries, e.graph_redraws, e.best_lambda, e.bound)


def assert_batch_matches(cfg: GeneratorConfig, seeds) -> None:
    """The batch equals the per-instance loop: every row if all seeds
    succeed, else the error of the lowest-index failing seed; and the
    seeds that succeed, drawn as a batch on their own, give their rows."""
    outs = per_instance(cfg, seeds)
    failed = [i for i, o in enumerate(outs) if isinstance(o, RetryBudgetExhausted)]
    if failed:
        with pytest.raises(RetryBudgetExhausted) as err:
            k_regular_bipartite_batch(cfg, seeds)
        assert error_fields(err.value) == error_fields(outs[failed[0]])
    ok = [i for i, o in enumerate(outs) if not isinstance(o, RetryBudgetExhausted)]
    if ok:
        got = k_regular_bipartite_batch(cfg, [seeds[i] for i in ok])
        assert got.dtype == np.int64
        assert np.array_equal(got, np.stack([outs[i] for i in ok]))


BATCH_SIDES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 31, 63]


def batch_seeds(n: int, k: int) -> list[int]:
    """Seeds for one (n, k): a first seed whose first draw is rejected,
    then derived ones (fewer at the larger sides)."""
    count = 8 if n <= 9 else 3
    return [seed_rejecting_first_draw()] + [derive_seed(1000 * n + k, i) for i in range(count - 1)]


class TestBatch:
    """k_regular_bipartite_batch against the per-instance reference draw
    (matchings_by_instance in helpers.py): 2061 seeds over every k in
    1..n in the first test alone."""

    @pytest.mark.parametrize("require_connected", [True, False, None])
    @pytest.mark.parametrize("n", BATCH_SIDES)
    def test_rows_equal_per_instance(self, n, require_connected):
        for k in range(1, n + 1):
            # Past k=4 most draws at the larger sides run out of any budget,
            # and k <= 2 redraws disconnected graphs often; a small budget
            # keeps those runs short and exercises both errors.
            budget = 1000 if 3 <= k <= 4 else 40
            cfg = GeneratorConfig(n=n, k=k, max_matching_retries=budget, require_connected=require_connected)
            assert_batch_matches(cfg, batch_seeds(n, k))

    @pytest.mark.parametrize("n", [7, 63])
    def test_row_with_rejected_draw(self, n):
        seed = seed_rejecting_first_draw()
        assert SplitMix64(derive_seed(seed, 0)).next_u64() == 2**64 - 1  # next_below(n) rejects it
        seeds = [3, seed, 4]
        got = k_regular_bipartite_batch(GeneratorConfig(n=n, k=3), seeds)
        for row, s in zip(got, seeds):
            assert row.tolist() == matchings_by_instance(GeneratorConfig(n=n, k=3, seed=s)).tolist()

    @pytest.mark.parametrize("n", [7, 63])
    def test_rejected_draw_in_a_later_candidate(self, n):
        # draw n opens the second permutation, so the candidates drawn ahead
        # of it in the same round start from states the instance never reaches
        seed = seed_rejecting_draw(n)
        r = SplitMix64(derive_seed(seed, 0))
        assert [r.next_u64() for _ in range(n)][-1] == 2**64 - 1
        for k, require_connected in ((3, True), (2, None), (n, False)):
            cfg = GeneratorConfig(n=n, k=k, require_connected=require_connected, max_matching_retries=40)
            assert_batch_matches(cfg, [seed, 3])
            assert_batch_matches(cfg, [seed])

    @pytest.mark.parametrize("rows,n", [(1, 63), (1, 64), (1, 65), (1, 1000), (2, 127), (2, 128), (2, 129)])
    def test_long_rows(self, rows, n):
        # both sides of the cut where permutation_rows gives each row its
        # own swap chains (rows * 64 <= n) instead of column steps
        seeds = [seed_rejecting_first_draw(), 5][:rows]
        for k, require_connected in ((1, None), (2, False), (3, True)):
            assert_batch_matches(GeneratorConfig(n=n, k=k, require_connected=require_connected), seeds)

    def test_single_instance_is_the_batch_of_its_seed(self):
        cfg = GeneratorConfig(n=65, k=3, seed=-1)  # seeds are read modulo 2^64
        b = k_regular_bipartite(cfg)
        assert (b.n_left, b.n_right, b.k) == (65, 65, 3)
        assert np.array_equal(b.matchings, matchings_by_instance(cfg))
        assert np.array_equal(b.matchings, k_regular_bipartite_batch(cfg, [2**64 - 1])[0])

    @pytest.mark.parametrize("budget", [0, 1])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_budget_exhaustion_is_the_lowest_failing_index(self, n, budget):
        # at k = n most draws exhaust a budget of 0 or 1; every rotation
        # of the seeds puts a different instance first
        cfg = GeneratorConfig(n=n, k=n, max_matching_retries=budget)
        seeds = [derive_seed(n, i) for i in range(12)]
        for shift in range(len(seeds)):
            assert_batch_matches(cfg, seeds[shift:] + seeds[:shift])

    def test_lower_index_failing_late_wins(self):
        # instance 0 runs out of its budget after five draws, instance 1
        # after three; the batch raises instance 0's error all the same
        cfg = GeneratorConfig(n=5, k=5, max_matching_retries=1)
        outs = dict(enumerate(per_instance(cfg, range(300))))

        def failing_with(accepted):
            return next(s for s, o in outs.items()
                        if isinstance(o, RetryBudgetExhausted) and str(o).endswith(f"had {accepted} so far"))

        late, early = failing_with(3), failing_with(1)
        with pytest.raises(RetryBudgetExhausted, match="had 3 so far$") as err:
            k_regular_bipartite_batch(cfg, [late, early])
        assert error_fields(err.value) == error_fields(outs[late])

    @pytest.mark.parametrize("n", [31, 63])
    def test_counts_reset_on_redraw(self, n):
        # k=2 is connected about once in n draws; carried-over resample
        # counts would exhaust a budget of 40 that a fresh count does not
        cfg = GeneratorConfig(n=n, k=2, max_matching_retries=40)
        seeds = list(range(12))
        for shift in range(0, 12, 3):
            assert_batch_matches(cfg, seeds[shift:] + seeds[:shift])

    def test_connectivity_exhaustion(self):
        # k=1 on n >= 2 is never connected
        cfg = GeneratorConfig(n=3, k=1, require_connected=True, max_matching_retries=2)
        with pytest.raises(RetryBudgetExhausted) as err:
            k_regular_bipartite_batch(cfg, [5, 6])
        assert error_fields(err.value) == error_fields(per_instance(cfg, [5])[0])
        assert err.value.stage == "connectivity" and err.value.graph_redraws == 3

    def test_validated_by_make_bipartite_expander_checks(self):
        a = np.array([[[0, 1, 2], [1, 2, 0]], [[0, 1, 2], [0, 2, 1]]])
        with pytest.raises(GraphError, match=r"^instance 1: matchings 0 and 1 share edge \(0, 0\)$"):
            check_matching_array(a)
        a[1, 1] = [1, 1, 0]
        with pytest.raises(GraphError, match=r"^instance 1: matching 1 is not a permutation of 0..2$"):
            check_matching_array(a)
