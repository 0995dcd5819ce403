"""Deterministic seed derivation for parallel replicate streams.

Every randomized routine owns a generator built from an explicit 64-bit
seed.  Replicate r of an outer seed s uses ``substream_seed(s, r)``, a
SplitMix64 mix of the two values, so replicates are independent and the
result of a run does not depend on scheduling order.
"""

from __future__ import annotations

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One SplitMix64 output step for a 64-bit state."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_seed(seed: int, index: int) -> int:
    """64-bit mix of an outer seed and a replicate index."""
    return splitmix64((splitmix64(seed & _MASK64) ^ (index & _MASK64)))

