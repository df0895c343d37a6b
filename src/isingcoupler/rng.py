"""Deterministic pseudo-random numbers for reproducible experiments.

All randomized routines in this package take explicit 64-bit seeds and draw
from SplitMix64 (Steele, Lea & Flood's published constants), so results are
identical across platforms and Python versions.  A seed outside [0, 2^64)
is refused rather than wrapped.  The stream is not cryptographic and the
modulo draw below has negligible bias for the small ranges used here.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 generator over a 64-bit state."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed {seed} outside [0, 2^64)")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_index(self, k: int) -> int:
        """Uniform index in [0, k)."""
        if k <= 0:
            raise ValueError("k must be positive")
        return self.next_u64() % k
