"""Hardware wall-time estimates for compiled pulse sequences.

A sequence of L0 global Ising operations needs L0+1 rounds of (parallel)
single-qubit flips around them, and each unit of Ising strength on an n-ion
chain costs n times the per-ion rate, so the estimate is

    (L0 + 1) * t_pi + L1 * n * t_ising_per_ion.

The L0+1 flip rounds are charged even when a round needs no flips, which
keeps the estimate conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .pulses import PulseSequence

DEFAULT_T_PI_US = Fraction(5)
DEFAULT_T_ISING_PER_ION_US = Fraction(50)


@dataclass(frozen=True)
class TimingParams:
    """Durations in microseconds; all must be positive."""

    t_pi_us: Fraction = DEFAULT_T_PI_US
    t_ising_per_ion_us: Fraction = DEFAULT_T_ISING_PER_ION_US

    def __post_init__(self):
        for name in ("t_pi_us", "t_ising_per_ion_us"):
            value = Fraction(getattr(self, name))
            if value <= 0:
                raise ValueError(f"{name} must be positive")
            object.__setattr__(self, name, value)


def estimate_time_us(seq: PulseSequence, params: TimingParams = TimingParams()) -> Fraction:
    """Estimated execution time of the sequence, in microseconds."""
    t_ising = seq.n * params.t_ising_per_ion_us
    return (seq.l0 + 1) * params.t_pi_us + seq.l1 * t_ising
