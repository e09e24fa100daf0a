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

The sequence-domain analogue checks the correlation condition, with
conj ghat, for the Fourier series ghat(t) = sum_l g(l) e^{-2 pi i l t} of
a finitely supported sequence, on the grid t = i/(N T).  The sums are
trigonometric polynomials, and sampling ghat at t + k/N is the DFT of the
N T-periodization, so they are exactly L^2 ifft_j(d / (2T))[j, i], i < T,
for the symbol d of that periodization over (N T, T, 0) (Sondergaard,
"Gabor frames by sampling and periodization").

Per-lattice tables.  The chirp c, its conjugate and the row map
(j + b) mod q depend only on the lattice: ``symbol_layout`` builds them
once per lattice in an lru_cache of LAYOUT_CACHE = 8 entries, read-only,
40 q bytes each (20 MiB at L = MAX_L = 2^20 and p = 1, so at most 160 MiB
in all).  V_0 and V_1 are slice copies of G, reshaped, and b = 0 skips
the multiplications by c = 1.  Each Zak criterion takes one FFT of g, which
serves both its real-spectrum check and the symbol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from ._numpy import np
from .ring import CanonicalFinite
from .signal import DEFAULT_TOL, DiscreteWindow, as_window, require_real

LAYOUT_CACHE = 8  # lattices whose symbol layout is kept (module docstring)


@dataclass(frozen=True)
class FrameSymbol:
    """Eigenvalues d of S on the (q, 2p) grid (j, r), with W_0, W_1 and the chirp c."""

    values: np.ndarray = field(repr=False)
    window_zak: np.ndarray = field(repr=False)
    shifted_zak: np.ndarray = field(repr=False)
    chirp: np.ndarray = field(repr=False)  # symbol_layout(lattice).chirp, read-only

    @property
    def deviation(self) -> float:
        """||S - 2I||_2 = max|d - 2|: how far the frame bounds are from 2."""
        return float(np.max(np.abs(self.values - 2.0)))


class SymbolLayout(NamedTuple):
    """The window-independent tables of the frame symbol over one lattice."""

    chirp: np.ndarray       # c(j), shape (q, 1)
    chirp_conj: np.ndarray  # conj c(j)
    rows: np.ndarray        # (j + b) mod q: row j of roll_j(W_1, -b)


@lru_cache(maxsize=LAYOUT_CACHE)
def symbol_layout(lat: CanonicalFinite) -> SymbolLayout:
    """The chirp and row map of lat, built once per lattice (read-only)."""
    q, b = lat.time_step, lat.b
    j = np.arange(q)[:, None]
    chirp = np.exp(-2j * np.pi * (b * j * j % q) / q)
    layout = SymbolLayout(chirp, chirp.conj(), (j[:, 0] + b) % q)
    for table in layout:
        table.setflags(write=False)
    return layout


def _spectrum_symbol(G: np.ndarray, lat: CanonicalFinite) -> FrameSymbol:
    """The frame symbol from G = fft(g), a complex vector of length L."""
    L, p, b = lat.L, lat.p, lat.b
    lay = symbol_layout(lat)
    V = np.empty((2, L), dtype=complex)  # G and roll(G, p)
    V[0], V[1, :p], V[1, p:] = G, G[L - p:], G[:L - p]
    V = V.reshape(2, L // (2 * p), 2 * p)
    if b:
        V *= lay.chirp_conj
    W0, W1 = np.fft.fft(V, axis=1)
    d = (2 * p / L**2) * (np.abs(W0) ** 2 + np.abs(W1[lay.rows] if b else W1) ** 2)
    return FrameSymbol(d, W0, W1, lay.chirp)


def frame_symbol(g, lat: CanonicalFinite) -> FrameSymbol:
    """The L eigenvalues of the frame operator of g over lat (module docstring)."""
    return _spectrum_symbol(np.fft.fft(as_window(g, lat.L)), lat)


def _quadrature_table(g, p: int) -> np.ndarray:
    """d / (2p) over (L, p, 0), from one FFT that also serves the
    real-spectrum check."""
    G = np.fft.fft(as_window(g))
    require_real(G / len(G))
    return _spectrum_symbol(G, CanonicalFinite(len(G), p, 0)).values / (2 * p)


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


def cond_correlation_discrete(g: DiscreteWindow, N: int,
                              tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Sequence-domain correlation criterion against N delta_{j,0}.

    The sums sum_{l=0}^{N-1} ghat(t + l/N) conj ghat(t + (l + 2j)/N),
    j = 0..N/2-1, are read at t = i/(N T), i < T, from the frame symbol of
    the N T-periodization over (N T, T, 0) (module docstring).
    """
    if N <= 0 or N % 2:
        raise ValueError("N must be even and positive")
    # degree of the sums in e^{2 pi i N t} is at most ceil(2*width/N)
    T = max(64, 2 * (2 * (len(g.values) - 1) // N + 1) + 1)
    L = N * T
    d = frame_symbol(g.periodize(L), CanonicalFinite(L, T, 0)).values
    sums = L**2 * np.fft.ifft(d[:, :T] / (2 * T), axis=0)
    sums[0] -= N
    dev = float(np.max(np.abs(sums)))
    return dev <= tol, dev
