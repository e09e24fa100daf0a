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

The same two tables give the lattice ambiguity function.  With
pi(x, y) g = tf_shift(g, x, y),

    <pi(x1, y1) g, pi(x2, y2) g> = e^{2 pi i x2 (y1 - y2) / L} V(x1 - x2, y1 - y2),
    V(x, y) = <pi(x, y) g, g> = L^-2 sum_w G(w) conj G(w + y) e^{-2 pi i x w / L},

and Lambda - Lambda = Lambda, so the 2L values of V on the lattice hold
the whole 2L x 2L Gabor Gram.  On row l (x = k q + l b, y = l p) the
factor e^{-2 pi i k q w / L} depends only on r = w mod 2p, and with
w = 2pj + r the sum over j is a chirp-modulated correlation of the blocks
V_e, which the chirp turns into a plain correlation of the W_e:

    C_{2s}     = e^{2 pi i b s^2/q} fft_j(|W_0|^2)[s] / q,
    C_{2s'-1}  = e^{2 pi i b s'^2/q} fft_j(roll_j(W_0, b) conj W_1)[s' mod q] / q,
    V(k q + l b, l p) = L^-2 fft_r(e^{-2 pi i l b r / L} C_l)[k],

one length-q FFT along j and one length-2p FFT along r.

The sequence-domain analogue checks the correlation condition for the
Fourier series of a finitely supported sequence on a sample grid; both
sides are trigonometric polynomials, so enough samples make it exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ring import CanonicalFinite
from .signal import DEFAULT_TOL, DiscreteWindow, as_window, real_spectrum


@dataclass(frozen=True)
class FrameSymbol:
    """Eigenvalues d of S on the (q, 2p) grid (j, r), with W_0, W_1 and the chirp c."""

    values: np.ndarray = field(repr=False)
    window_zak: np.ndarray = field(repr=False)
    shifted_zak: np.ndarray = field(repr=False)
    chirp: np.ndarray = field(repr=False)


def frame_symbol(g, lat: CanonicalFinite) -> FrameSymbol:
    """The L eigenvalues of the frame operator of g over lat (module docstring)."""
    L, p, b = lat.L, lat.p, lat.b
    G = np.fft.fft(as_window(g, L))
    q = L // (2 * p)
    j = np.arange(q)[:, None]
    chirp = np.exp(-2j * np.pi * (b * j * j % q) / q)
    V = G[np.arange(L) - np.array([[0], [p]])]  # G and roll(G, p)
    W0, W1 = np.fft.fft(V.reshape(2, q, 2 * p) * chirp.conj(), axis=1)
    d = (2 * p / L**2) * (np.abs(W0) ** 2 + np.abs(W1[(j[:, 0] + b) % q]) ** 2)
    return FrameSymbol(d, W0, W1, chirp)


def ambiguity_table(g, lat: CanonicalFinite) -> np.ndarray:
    """V[k, l] = <pi(k a + l b, l p) g, g> on the 2L lattice points, shape
    (2p, L/p); (k, l + L/p) is the lattice point (k + 2b, l).  Read from
    W_0 and W_1 of the frame symbol (module docstring) in O(L log L)."""
    sym = frame_symbol(g, lat)
    L, p, b = lat.L, lat.p, lat.b
    W0, W1 = sym.window_zak, sym.shifted_zak
    q = len(W0)
    s = np.arange(q)
    pairs = np.stack([np.abs(W0) ** 2, W0[s - b] * W1.conj()], axis=1)  # W0[s - b] = roll_j(W0, b)
    C = np.fft.fft(pairs, axis=0) * sym.chirp.conj()[:, :, None]
    C[:, 1] = C[(s + 1) % q, 1]  # row 2s + 1 = 2s' - 1 reads s' = s + 1
    C = C.reshape(2 * q, 2 * p)
    l, r = np.arange(2 * q)[:, None], np.arange(2 * p)
    C *= np.exp(-2j * np.pi * (l * b * r % L) / L)
    return np.fft.fft(C, axis=1).T / (q * L**2)


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
    width = len(g.values) - 1
    if t_samples is None:
        # degree of the sums in e^{2 pi i N t} is at most ceil(2*width/N)
        t_samples = max(64, 2 * (2 * width // N + 1) + 1)
    ts = np.arange(t_samples) / (N * t_samples)
    # X[l, i] = ghat(t_i + l/N) is the DFT of the N T-periodization; with
    # F = fft_l(X), sum_l X[l] X[l + m] is row m of ifft(F F[-nu])
    F = np.fft.fft(np.fft.fft(g.periodize(N * t_samples)).reshape(N, t_samples), axis=0)
    sums = np.fft.ifft(F * F[-np.arange(N)], axis=0)[::2]
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
