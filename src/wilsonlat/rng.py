"""Portable deterministic random numbers for test corpora.

The generator is splitmix64: a 64-bit state advanced by the golden-gamma
increment, with the usual xor-shift/multiply finalizer.  It is tiny, has
no platform-dependent behaviour, and the same seed produces the same
corpus everywhere, which the CLI relies on for reproducible reports.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer."""

    def __init__(self, seed: int = 0):
        self._state = seed & _MASK

    def u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53 high bits -> double in [0, 1)
        return lo + (hi - lo) * ((self.u64() >> 11) / float(1 << 53))

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive)."""
        span = hi - lo + 1
        return lo + self.u64() % span

    def reals(self, n: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)])

    def complex_vector(self, n: int) -> np.ndarray:
        return self.reals(n) + 1j * self.reals(n)

    def real_dft_window(self, L: int) -> np.ndarray:
        """Random window of length L whose DFT is real-valued.

        Drawn by sampling a real spectrum uniformly in [-1, 1) and
        transforming back; the inverse transform of a real spectrum is
        exactly the class of windows the tightness criteria apply to.
        """
        return np.fft.ifft(self.reals(L)) * L
