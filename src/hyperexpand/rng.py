"""Deterministic pseudo-randomness for reproducible graph generation.

The generator is SplitMix64 (Steele, Lea & Flood 2014): a 64-bit counter
advanced by the golden-ratio increment, scrambled through two
multiply-xorshift rounds.  It is chosen over platform RNGs because its
output is bit-identical across Python versions and operating systems,
which the golden-file tests rely on.  Sub-streams are derived with
`derive_seed`, the same scrambler applied to seed XOR stream-id.

The generator is counter-based: draw i after state s is mix(s + i*gamma),
so a block of draws is computed at once in numpy uint64 arithmetic, which
wraps modulo 2^64 exactly as the scalar path masks (Salmon et al. 2011).
`permutation` takes its Fisher-Yates indices from such a block. A draw
that `next_below` would reject is rare (probability below bound / 2^64);
the block stops there, the scalar `next_below` redraws, and the block
resumes after it, so the permutation and the generator's end state equal
the scalar path's bit for bit. Below _BLOCK_MIN_N elements numpy's
per-call cost outweighs the saving and the scalar loop runs instead.

The swaps of one long permutation then run as whole-array ops, after
the chain argument of Shun, Gu, Blelloch, Fineman & Gibbons (2015),
"Sequential random permutation, list contraction and tree contraction
are highly parallel". Step t swaps position i_t = n-1-t with j_t <= i_t,
and no later step touches i_t, so the final entry at i_t is what
position j_t held just before step t: the value that the latest earlier
step with the same j wrote there, or j_t itself. That step s wrote the
value position i_s held just before step s, which in turn is the value
written by the latest earlier step whose j equals i_s, or i_s itself.
These "latest earlier step" links point strictly backwards, so pointer
doubling resolves every chain in at most ceil(log2 n) + 1 rounds; the
links come from one sort of the unique keys (j, t). See _swap_chains.

Many small permutations are drawn together as rows: `permutation_rows`
takes one block per state, and `fisher_yates_rows` runs the swaps of all
rows at once, one column step per Fisher-Yates step. Each row equals
what `permutation` returns for its state.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Smallest permutation drawn from a numpy block and _swap_chains; measured
# break-even with the scalar loop is near n=64 (47.7-49.7 us scalar against
# 49.0-51.8 us block at n=63-65; the block wins from n=68 on).
_BLOCK_MIN_N = 64


def _mix_block(z: np.ndarray) -> np.ndarray:
    """_mix over a uint64 array, in place; numpy wraps modulo 2^64."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _mix(z: int) -> int:
    """SplitMix64 output scrambler (finalizer of the counter state)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Derive an independent sub-seed for attempt/instance `stream`.

    Fixed mixing function: scramble(seed XOR scramble((stream+1)*gamma)).
    Used for rejection-sampling attempt chains and per-graph expander
    seeds, so every retry is reproducible from the top-level seed.
    """
    return _mix((seed & _MASK) ^ _mix(((stream + 1) * _GAMMA) & _MASK))


def derive_seeds(seeds: np.ndarray, streams: np.ndarray) -> np.ndarray:
    """derive_seed over uint64 arrays (broadcast together), bit for bit."""
    return _mix_block(seeds ^ _mix_block((streams + np.uint64(1)) * np.uint64(_GAMMA)))


class SplitMix64:
    """Seeded 64-bit generator with exact integer and float helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def next_unit(self) -> float:
        """Uniform float in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_unit()

    def _below_block(self, bounds: np.ndarray) -> np.ndarray:
        """[next_below(b) for b in bounds] from numpy blocks, bit-identical.

        bounds is a uint64 array of positive bounds. A draw x is rejected
        iff x >= 2^64 - (2^64 mod b), i.e. iff x + rem wraps, with
        rem = (0 - b) mod b = 2^64 mod b.
        """
        rem = (np.uint64(0) - bounds) % bounds
        out = np.empty(len(bounds), dtype=np.uint64)
        start = 0
        while start < len(bounds):
            b = bounds[start:]
            steps = np.arange(1, len(b) + 1, dtype=np.uint64)
            x = _mix_block(np.uint64(self._state) + steps * np.uint64(_GAMMA))
            rejected = np.flatnonzero(x + rem[start:] < x)
            stop = int(rejected[0]) if len(rejected) else len(b)
            out[start:start + stop] = x[:stop] % b[:stop]
            self._state = (self._state + stop * _GAMMA) & _MASK
            start += stop
            if start < len(bounds):
                out[start] = self.next_below(int(bounds[start]))
                start += 1
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Uniformly random permutation of range(n) (Fisher-Yates), as an
        int64 array."""
        if n < _BLOCK_MIN_N:
            perm = list(range(n))
            for i in range(n - 1, 0, -1):
                j = self.next_below(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            return np.array(perm, dtype=np.int64)
        js = self._below_block(np.arange(n, 1, -1, dtype=np.uint64))
        return _swap_chains(js.view(np.int64))[0]  # every draw is below n


def _swap_chains(js: np.ndarray) -> tuple[np.ndarray, int]:
    """The permutation that Fisher-Yates builds from the int64 indices js,
    with no loop over its steps, and the number of doubling rounds taken.

    js[t] <= i_t = n-1-t is the index step t swaps with i_t (n >= 2). The
    steps sorted by (j, t) give, per step, q(t): the latest earlier step
    with the same j, and per position x, the last step with j = x. The
    latest earlier step whose j equals i_s is p(s): that last step of
    group i_s, or q(s) when it is s itself (j_s = i_s). With f(s) the
    value at i_s just before step s, f(s) = f(p(s)), or i_s when p(s)
    does not exist, and pointer doubling over p finds every chain's root.
    Then out[i_t] = f(q(t)) or j_t, and out[0] = f(the last step with
    j = 0) or 0. Equals the swap loop bit for bit.
    """
    m = len(js)
    n = m + 1
    steps = np.arange(m, dtype=np.int64)
    shift = m.bit_length()
    keys = np.sort((js << shift) | steps)  # (j, t) pairs ordered by j, then t
    sj = keys >> shift
    st = keys & ((1 << shift) - 1)
    same = sj[1:] == sj[:-1]
    q = np.empty(m, dtype=np.int64)
    q[st[0]] = -1
    q[st[1:]] = np.where(same, st[:-1], -1)
    ends = np.append(np.flatnonzero(~same), m - 1)
    last = np.full(n, -1, dtype=np.int64)
    last[sj[ends]] = st[ends]
    p = last[:0:-1]  # last step with j = i_t, for t = 0..m-1
    p = np.where(p == steps, q, p)
    ptr = np.where(p >= 0, p, steps)
    rounds = 1
    while not np.array_equal(nxt := ptr[ptr], ptr):
        ptr = nxt
        rounds += 1
    f = n - 1 - ptr  # a chain's root s holds its original value i_s
    out = np.empty(n, dtype=np.int64)
    out[:0:-1] = np.where(q >= 0, f[q], js)
    out[0] = f[last[0]] if last[0] >= 0 else 0
    return out, rounds


def fisher_yates_rows(js: np.ndarray) -> np.ndarray:
    """Rows of permutations from their Fisher-Yates indices.

    js is (R, n-1): row r holds the draws below n, n-1, ..., 2 that
    SplitMix64.permutation(n) would take. Step t swaps position n-1-t
    with js[:, t] in every row at once, so row r of the (R, n) result
    equals that permutation. The swaps run on the transposed (n, R)
    array, where position i of every row is one contiguous line.
    """
    rows, n = js.shape[0], js.shape[1] + 1
    perm = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, rows))
    flat = perm.reshape(-1)
    at = js.T.astype(np.intp) * rows + np.arange(rows)  # flat index of (js[r, t], r)
    for t, j in enumerate(at):
        i = n - 1 - t
        held = flat[j]
        flat[j] = perm[i]
        perm[i] = held
    return perm.T


def permutation_rows(states: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """[SplitMix64(s).permutation(n) for s in states] as an (R, n) array,
    with the states those generators end in.

    Every row's n-1 draws are one block, mix(s + step * gamma). A row
    whose block holds a draw that next_below would reject is redrawn by
    its scalar generator, so every row and end state is exact.
    """
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    rem = (np.uint64(0) - bounds) % bounds
    steps = np.arange(1, n, dtype=np.uint64) * np.uint64(_GAMMA)
    x = _mix_block(states[:, None] + steps)
    perms = fisher_yates_rows(x % bounds)
    after = states + np.uint64(((n - 1) * _GAMMA) & _MASK)
    for r in np.flatnonzero((x + rem < x).any(axis=1)):
        rng = SplitMix64(int(states[r]))
        perms[r] = rng.permutation(n)
        after[r] = rng._state
    return perms, after
