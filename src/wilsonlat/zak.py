"""Zak transforms, the frame symbol and pointwise tightness criteria.

For a canonical lattice (L, p, b) the frame operator S of the Gabor family
is block-diagonal over frequency residues r mod 2p, and a chirp turns each
block into a circulant (Zibulski-Zeevi for b = 0, the sheared case as in
Wiesmeyr-Holighaus-Sondergaard).  With q = L/(2p), G = fft(g),
V_e[j, r] = G(r - e p + 2pj) for e = 0, 1, c(j) = e^{-2 pi i b j^2/q} and
W_e = fft_j(V_e conj(c)), the L eigenvalues of S are the (q, 2p) table

    d = (2p / L^2) (|W_0|^2 + |roll_j(W_1, -b)|^2),

and S^{-1/2} g has spectrum c ifft_j(W_0 / sqrt(d)) on block r.  For b = 0,
W_0 is the Zak transform of G along the coarse time lattice {2pk} (y
reflected), and tightness with bound 2 (d = 2) is equivalent to either of
two pointwise conditions on the window spectrum ghat = dft(g) (both
require ghat real-valued):

* quadrature:   |Z ghat(x, y)|^2 + |Z ghat(x+p, y)|^2 = 1/p everywhere
                (the table d / (2p));
* correlation:  sum_l ghat(y + l p) ghat(y + l p + 2 j p) = (1/p) delta_{j,0}
                for j = 0..L/(2p)-1 and all y (the inverse DFT of d / (2p)
                along j).

The sequence-domain analogue checks the correlation condition for the
Fourier series of a finitely supported sequence on a sample grid; both
sides are trigonometric polynomials, so enough samples make it exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ring import CanonicalFinite
from .signal import DEFAULT_TOL, DiscreteWindow, FrameError, as_window, real_spectrum


@dataclass(frozen=True)
class ZakTable:
    """Zak values on the fundamental grid x = 0..2p-1, y = 0..L/(2p)-1."""

    values: np.ndarray = field(repr=False)
    p: int
    L: int


def zak_finite(f, p: int) -> ZakTable:
    """Zf(x, y) = sum_k f(x + 2pk) e^{2 pi i (2pk/L) y} on the fundamental grid."""
    f = as_window(f)
    L = len(f)
    if 2 * p <= 0 or L % (2 * p):
        raise ValueError("2p must divide L")
    q = L // (2 * p)
    # rows k of the fold are the blocks f(2pk .. 2pk + 2p - 1)
    return ZakTable(q * np.fft.ifft(f.reshape(q, 2 * p), axis=0).T, p, L)


@dataclass(frozen=True)
class FrameSymbol:
    """Eigenvalues d of S on the (q, 2p) grid (j, r), with W_0 and the chirp c."""

    values: np.ndarray = field(repr=False)
    window_zak: np.ndarray = field(repr=False)
    chirp: np.ndarray = field(repr=False)


def frame_symbol(g, lat: CanonicalFinite) -> FrameSymbol:
    """The L eigenvalues of the frame operator of g over lat (module docstring)."""
    G = np.fft.fft(as_window(g))
    L, p, b = lat.L, lat.p, lat.b
    if len(G) != L:
        raise FrameError(f"window length {len(G)} != lattice L {L}")
    q = L // (2 * p)
    j = np.arange(q)[:, None]
    chirp = np.exp(-2j * np.pi * (b * j * j % q) / q)
    W0 = np.fft.fft(G.reshape(q, 2 * p) * chirp.conj(), axis=0)
    W1 = np.fft.fft(np.roll(G, p).reshape(q, 2 * p) * chirp.conj(), axis=0)
    d = (2 * p / L**2) * (np.abs(W0) ** 2 + np.abs(np.roll(W1, -b, axis=0)) ** 2)
    return FrameSymbol(d, W0, chirp)


def _quadrature_table(g, p: int) -> np.ndarray:
    g = as_window(g)
    real_spectrum(g)
    return frame_symbol(g, CanonicalFinite(len(g), p, 0)).values / (2 * p)


def cond_quadrature(g, p: int, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Check |Z ghat(x,y)|^2 + |Z ghat(x+p,y)|^2 = 1/p over the full grid."""
    dev = float(np.max(np.abs(_quadrature_table(g, p) - 1.0 / p)))
    return dev <= tol, dev


def cond_correlation(g, p: int, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Check sum_l ghat(y+lp) ghat(y+lp+2jp) = (1/p) delta_{j,0} for all j, y.

    The sums are p-periodic in y, and row j of the inverse DFT of the
    quadrature table holds them for lag -j.
    """
    sums = np.fft.ifft(_quadrature_table(g, p), axis=0)
    sums[0] -= 1.0 / p
    dev = float(np.max(np.abs(sums)))
    return dev <= tol, dev


def correlation_sums_discrete(g: DiscreteWindow, N: int, t_samples: int | None = None):
    """Sequence-domain correlation sums at sampled t.

    Returns (ts, sums) where sums[j, i] = sum_{l=0}^{N-1}
    ghat(t_i + l/N) ghat(t_i + (l + 2j)/N) for j = 0..N/2-1, with
    ghat(t) = sum_l g(l) e^{-2 pi i l t}.  The sums are (1/N)-periodic in
    t and trigonometric polynomials of degree at most twice the support
    width, so the default sample count is exact.
    """
    if N <= 0 or N % 2:
        raise ValueError("N must be even and positive")
    if len(g.values) == 0:
        raise ValueError("empty support")
    width = len(g.values) - 1
    if t_samples is None:
        # degree of the sums in e^{2 pi i N t} is at most ceil(2*width/N)
        t_samples = max(64, 2 * (2 * width // N + 1) + 1)
    ts = np.arange(t_samples) / (N * t_samples)
    sums = np.zeros((N // 2, t_samples), dtype=complex)
    for j in range(N // 2):
        for l in range(N):
            sums[j] += g.ft_at(ts + l / N) * g.ft_at(ts + (l + 2 * j) / N)
    return ts, sums


def cond_correlation_discrete(g: DiscreteWindow, N: int,
                              t_samples: int | None = None,
                              tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Sequence-domain correlation criterion against N delta_{j,0}.

    The shift 2j/N repeats with period N/2 in j, so j runs over
    0..N/2-1 (j and j + N/2 index the same left-hand side).
    """
    _, sums = correlation_sums_discrete(g, N, t_samples)
    sums[0] -= N
    dev = float(np.max(np.abs(sums)))
    return dev <= tol, dev
