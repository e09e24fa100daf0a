"""Gabor systems on C^L over canonical volume-L/2 lattices.

A canonical lattice (L, p, b) has time step a = L/(2p) and frequency step
p; the associated Gabor family is the 2L time-frequency shifts

    g[m, n](l) = g(l - (m a + n b)) e^{2 pi i l n p / L},
    m = 0..2p-1,  n = 0..L/p-1,

twice as many vectors as the dimension (redundancy 2).  The frame
operator, tightness test and canonical tight window all use the
normalized inner product from :mod:`wilsonlat.signal`.

Verdicts never build the family.  The frame bounds (A, B) are the extreme
eigenvalues of S, read from the frame symbol d of :mod:`wilsonlat.zak` in
O(L log L), and the tightness deviation is max|d - 2| = ||S - 2I||_2,
never below the entrywise max|S - 2I| of the dense oracle
``tightness_deviation``.  Inner products of atoms come from the lattice
ambiguity table of :mod:`wilsonlat.zak`.  ``gabor_system``,
``frame_operator`` and ``tightness_deviation`` are the dense oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ring import CanonicalFinite
from .signal import (COND_FLOOR, DEFAULT_TOL, FrameError, as_window, tf_shift,
                     unitary_dft)
from .zak import frame_symbol


@dataclass(frozen=True)
class GaborSystem:
    window: np.ndarray = field(repr=False)
    lattice: CanonicalFinite
    elements: np.ndarray = field(repr=False)  # shape (2L, L), row order (m, n)

    @property
    def L(self) -> int:
        return self.lattice.L

    def element(self, m: int, n: int) -> np.ndarray:
        N = self.L // self.lattice.p
        return self.elements[(m % (2 * self.lattice.p)) * N + (n % N)]


def gabor_system(g, lat: CanonicalFinite) -> GaborSystem:
    g = as_window(g, lat.L)
    L, p, b = lat.L, lat.p, lat.b
    # rows indexed by (m, n) lexicographically
    ms, ns = np.divmod(np.arange(2 * L), L // p)
    return GaborSystem(g, lat, tf_shift(g, ms * lat.time_step + ns * b, ns * p))


def frame_operator(sys: GaborSystem) -> np.ndarray:
    """S = sum over elements of |e><e| as an L x L matrix."""
    E = sys.elements
    return E.T @ E.conj() / sys.L


def tightness_deviation(sys: GaborSystem, bound: float = 2.0) -> float:
    """Entrywise max|S - bound I| of the dense frame operator (oracle)."""
    S = frame_operator(sys)
    return float(np.max(np.abs(S - bound * np.eye(sys.L))))


def is_tight(sys: GaborSystem, bound: float = 2.0, tol: float = DEFAULT_TOL) -> bool:
    if bound <= 0:
        raise ValueError("bound must be positive")
    return tightness_deviation(sys, bound) <= tol


def frame_bounds(g, lat: CanonicalFinite) -> tuple[float, float]:
    """Optimal frame bounds (A, B) = (min d, max d) over the frame symbol."""
    d = frame_symbol(g, lat).values
    return float(d.min()), float(d.max())


def spectral_deviation(g, lat: CanonicalFinite) -> float:
    """||S - 2I||_2 = max|d - 2| from the frame bounds (redundancy-2 bound)."""
    A, B = frame_bounds(g, lat)
    return max(B - 2.0, 2.0 - A)


def tighten(g, lat: CanonicalFinite, fourier_twist: bool = False) -> np.ndarray:
    """Canonical tight window sqrt(2) S^{-1/2} g for the lattice.

    The output generates a tight frame with bound exactly 2 over the same
    lattice.  One path serves every (L, p, b): the frame symbol d and the
    chirped table W_0 of g give the spectrum of S^{-1/2} g blockwise as
    c ifft_j(W_0 / sqrt(d)) (see :mod:`wilsonlat.zak`).  With
    ``fourier_twist`` the unitary DFT is applied afterwards (makes the
    spectrum of a real even window real; note the twist moves tightness
    to the transposed lattice unless p = L/(2p)).
    """
    sym = frame_symbol(g, lat)
    d = sym.values
    if not d.min() > COND_FLOOR * d.max():  # also rejects NaN
        raise FrameError("window does not generate a frame")
    blocks = np.fft.ifft(sym.window_zak / np.sqrt(d), axis=0) * sym.chirp
    gt = np.sqrt(2.0) * np.fft.ifft(blocks.ravel())
    return unitary_dft(gt) if fourier_twist else gt


def symmetrize(g) -> np.ndarray:
    """Project onto windows with real-valued DFT: average g(l) with conj(g(-l))."""
    g = as_window(g)
    L = len(g)
    return 0.5 * (g + np.conj(g[(-np.arange(L)) % L]))
