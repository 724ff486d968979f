from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperexpand.rng import (
    _GAMMA,
    _MASK,
    SplitMix64,
    _swap_chains,
    derive_seed,
    derive_seeds,
    permutation_rows,
)

from helpers import scalar_permutation, state_drawing_max_at


def test_known_stream_is_stable():
    # frozen on first run; guards cross-platform bit-exactness
    r = SplitMix64(42)
    assert [r.next_u64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_derive_seed_streams_are_stable():
    assert [derive_seed(42, s) for s in range(3)] == [
        5006236285904387910,
        15809470632947611645,
        7025253467864011909,
    ]


def test_same_seed_same_stream():
    a, b = SplitMix64(7), SplitMix64(7)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_seed_masked_to_64_bits():
    assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()


def test_next_below_range_and_rejection():
    r = SplitMix64(1)
    draws = [r.next_below(7) for _ in range(2000)]
    assert set(draws) <= set(range(7))
    # every residue appears; crude uniformity guard
    assert len(set(draws)) == 7


def test_next_below_validates():
    with pytest.raises(ValueError):
        SplitMix64(0).next_below(0)


def test_next_unit_in_half_open_interval():
    r = SplitMix64(123)
    vals = [r.next_unit() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert abs(sum(vals) / len(vals) - 0.5) < 0.05


def test_unit_stream_frozen():
    r = SplitMix64(123)
    assert r.next_unit() == pytest.approx(0.7064912217637067, abs=0)
    assert r.next_unit() == pytest.approx(0.976596648325027, abs=0)


def test_uniform_bounds():
    r = SplitMix64(9)
    vals = [r.uniform(-2.0, 3.0) for _ in range(500)]
    assert all(-2.0 <= v < 3.0 for v in vals)


def test_permutation_is_permutation():
    r = SplitMix64(5)
    for n in (1, 2, 5, 33):
        assert sorted(r.permutation(n).tolist()) == list(range(n))


def test_permutation_uniform_over_small_n():
    # all 6 permutations of 3 elements should appear near 1/6 each
    from collections import Counter

    counts = Counter()
    for seed in range(6000):
        counts[tuple(SplitMix64(seed).permutation(3).tolist())] += 1
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c - 1000) < 120


SIZES = [1, 2, 23, 24, 63, 64, 1000, 4097, 50000, 10**5]
SEEDS = [0, 7, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_permutation_matches_scalar_path(n, seed):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    assert block.permutation(n).tolist() == scalar_permutation(scalar, n)
    assert block._state == scalar._state


@pytest.mark.parametrize("n", [7, 23, 65, 1000, 4097, 50000, 10**5])
@pytest.mark.parametrize("step", [1, 3, "middle", "last"])
def test_permutation_through_rejected_draws(n, step):
    # a state whose draw number `step` is 2^64 - 1, which next_below
    # rejects for every bound that is not a power of 2
    step = {"middle": n // 2, "last": n - 2}.get(step, step)
    assert (n - step + 1) & (n - step) != 0  # draw `step` is below n - step + 1
    state = state_drawing_max_at(step)
    block, scalar = SplitMix64(state), SplitMix64(state)
    assert block.permutation(n).tolist() == scalar_permutation(scalar, n)
    assert block._state == scalar._state != (state + (n - 1) * _GAMMA) & _MASK


def test_permutation_n2_has_nothing_to_reject():
    # the one draw of n=2 is below 2, a power of 2, so even 2^64 - 1 is taken
    state = state_drawing_max_at(1)
    block, scalar = SplitMix64(state), SplitMix64(state)
    assert block.permutation(2).tolist() == scalar_permutation(scalar, 2) == [0, 1]
    assert block._state == scalar._state == (state + _GAMMA) & _MASK


def swap_loop(js: list[int]) -> list[int]:
    """The Fisher-Yates swaps of the indices js, one at a time: the
    reference for _swap_chains."""
    n = len(js) + 1
    perm = list(range(n))
    for t, j in enumerate(js):
        i = n - 1 - t
        perm[i], perm[j] = perm[j], perm[i]
    return perm


@st.composite
def swap_indices(draw, max_n=400):
    """A valid Fisher-Yates index vector: js[t] in 0..n-1-t."""
    n = draw(st.integers(2, max_n))
    return [draw(st.integers(0, n - 1 - t)) for t in range(n - 1)]


def assert_swap_chains_match(js: list[int]) -> int:
    n = len(js) + 1
    perm, rounds = _swap_chains(np.array(js, dtype=np.int64))
    assert perm.dtype == np.int64
    assert perm.tolist() == swap_loop(js)
    assert rounds <= math.ceil(math.log2(n)) + 1
    return rounds


@settings(max_examples=200, deadline=None)
@given(swap_indices())
def test_swap_chains_match_swap_loop(js):
    assert_swap_chains_match(js)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 100, 1000, 1025, 4097, 65536, 10**5])
def test_swap_chains_on_extreme_patterns(n):
    # all-zero and j_t = i_t leave every chain one link long; j_t = i_t - 1
    # links each step to the one before it, the longest chain there is,
    # which takes ceil(log2(n - 2)) + 1 rounds, at most the bound
    steps = range(n - 1)
    assert assert_swap_chains_match([0] * (n - 1)) == 1
    assert assert_swap_chains_match([n - 1 - t for t in steps]) == 1
    rounds = assert_swap_chains_match([n - 2 - t for t in steps])
    assert rounds == (1 if n <= 3 else math.ceil(math.log2(n - 2)) + 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", SIZES)
def test_block_draws_match_next_below(n, seed):
    # the block route itself, at every size permutation_rows and make_dataset use
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    assert block._below_block(bounds).tolist() == [scalar.next_below(int(b)) for b in bounds]
    assert block._state == scalar._state


@pytest.mark.parametrize("seed", SEEDS)
def test_block_draws_through_rejections(seed):
    # Bounds just above 2^63 reject about half of all draws (x >= b), so
    # the block stops, redraws through next_below, and resumes many times;
    # bound 1 never rejects and 2^64 - 1 rejects only x = 2^64 - 1.
    bounds = [2**63 + 7919 * i for i in range(300)] + [1, 2**64 - 1, 2**63 + 1, 3]
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    got = block._below_block(np.array(bounds, dtype=np.uint64)).tolist()
    assert got == [scalar.next_below(b) for b in bounds]
    assert block._state == scalar._state
    # rejected draws advanced the counter past one step per bound
    assert block._state != (seed + len(bounds) * _GAMMA) & _MASK


def assert_rows_match_scalar(states: list[int], n: int) -> None:
    perms, after = permutation_rows(np.array(states, dtype=np.uint64), n)
    assert perms.shape == (len(states), n) and perms.dtype == np.int64
    for row, end, s in zip(perms.tolist(), after.tolist(), states):
        r = SplitMix64(s)
        assert row == scalar_permutation(r, n)
        assert end == r._state


@pytest.mark.parametrize("n", [1, 2, 3, 7, 23, 24, 63, 64, 100])
def test_permutation_rows_match_permutation(n):
    # the last state's first draw is 2^64 - 1, which next_below(n) rejects
    # unless n is a power of 2
    states = [0, 7, 2**64 - 1, *(derive_seed(n, i) for i in range(20)), state_drawing_max_at(1)]
    assert_rows_match_scalar(states, n)


@pytest.mark.parametrize("rows,n", [(1, 2), (1, 64), (1, 1000), (2, 127), (2, 128), (3, 191), (3, 192)])
def test_long_permutation_rows_match_permutation(rows, n):
    # either side of the cut at rows * 64 <= n, where each row runs its
    # own swap chains instead of the column steps
    assert_rows_match_scalar([state_drawing_max_at(1), 7, 2**64 - 1][:rows], n)


def test_derive_seeds_match_derive_seed():
    seeds = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    streams = np.arange(5, dtype=np.uint64)[:, None]
    got = derive_seeds(seeds, streams)
    assert got.tolist() == [[derive_seed(int(s), int(t)) for s in seeds] for t in streams[:, 0]]
