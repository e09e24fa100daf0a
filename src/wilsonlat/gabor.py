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
O(L log L), and the tightness deviation ``frame_symbol(g, lat).deviation``
is max|d - 2| = ||S - 2I||_2, never below the entrywise max|S - 2I| of the
dense oracle ``tightness_deviation``.  ``gabor_system`` (the family as a
2L x L array) and ``frame_operator`` are the other dense oracles.
"""

from __future__ import annotations

from ._numpy import np
from .ring import CanonicalFinite
from .signal import COND_FLOOR, FrameError, as_window, tf_shift
from .zak import frame_symbol


def gabor_system(g, lat: CanonicalFinite) -> np.ndarray:
    """The 2L x L array of the Gabor family, rows (m, n) in lex order (oracle)."""
    g = as_window(g, lat.L)
    L, p, b = lat.L, lat.p, lat.b
    # 64 rows per tf_shift call bound its 40 B/entry of temporaries
    ms, ns = np.divmod(np.arange(2 * L), L // p)
    x, y = ms * lat.time_step + ns * b, ns * p
    E = np.empty((2 * L, L), dtype=complex)
    for i in range(0, 2 * L, 64):
        E[i:i + 64] = tf_shift(g, x[i:i + 64], y[i:i + 64])
    return E


def frame_operator(E: np.ndarray) -> np.ndarray:
    """S = sum over the rows e of E of |e><e| as an L x L matrix.

    Row block j0:j1 of S^T = conj(E[:, j0:j1])^T E is written in place, so
    beside S only a 2L x 64 conjugate block is held, never conj(E).
    """
    L = E.shape[1]
    St = np.empty((L, L), dtype=complex)
    for j0 in range(0, L, 64):
        np.matmul(E[:, j0:j0 + 64].conj().T, E, out=St[j0:j0 + 64])
    St /= L
    return St.T


def tightness_deviation(E: np.ndarray, bound: float = 2.0) -> float:
    """Entrywise max|S - bound I| of the dense frame operator of E (oracle)."""
    S = frame_operator(E)
    S[np.diag_indices(E.shape[1])] -= bound
    return float(np.max(np.abs(S)))


def frame_bounds(g, lat: CanonicalFinite) -> tuple[float, float]:
    """Optimal frame bounds (A, B) = (min d, max d) over the frame symbol."""
    d = frame_symbol(g, lat).values
    return float(d.min()), float(d.max())


def tighten(g, lat: CanonicalFinite) -> np.ndarray:
    """Canonical tight window sqrt(2) S^{-1/2} g for the lattice.

    The output generates a tight frame with bound exactly 2 over the same
    lattice.  One path serves every (L, p, b): the frame symbol d and the
    chirped table W_0 of g give the spectrum of S^{-1/2} g blockwise as
    c ifft_j(W_0 / sqrt(d)) (see :mod:`wilsonlat.zak`).
    """
    sym = frame_symbol(g, lat)
    d = sym.values
    if not d.min() > COND_FLOOR * d.max():  # also rejects NaN
        raise FrameError("window does not generate a frame")
    blocks = np.fft.ifft(sym.window_zak / np.sqrt(d), axis=0) * sym.chirp
    return np.sqrt(2.0) * np.fft.ifft(blocks.ravel())

