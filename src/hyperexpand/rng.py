"""Deterministic pseudo-randomness for reproducible graph generation.

The generator is SplitMix64 (Steele, Lea & Flood 2014): a 64-bit counter
advanced by the golden-ratio increment, scrambled through two
multiply-xorshift rounds.  It is chosen over platform RNGs because its
output is bit-identical across Python versions and operating systems,
which the golden-file tests rely on.  Sub-streams are derived with
`derive_seed`, the same scrambler applied to seed XOR stream-id.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


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

    def permutation(self, n: int) -> list[int]:
        """Uniformly random permutation of range(n) (Fisher-Yates)."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.next_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
