"""Wilson systems: +/- recombinations of Gabor atoms that turn a tight
redundancy-2 frame into an orthonormal basis.

Finite setting.  One construction serves every canonical lattice (L, p, b).
The symplectic sigma of :mod:`wilsonlat.metaplectic` maps it onto the
rectangle (L, q, 0) with time step c = L/(2q) (q = p on aligned lattices,
sigma = id when b = 0), whose index set

    I = {0..q-1} x {0, c}  union  {0..2q-1} x {1..c-1}

has exactly L indices.  Element (m, n) is c1 pi(sigma^{-1}(m1 c, n q)) g +
c2 pi(sigma^{-1}(m c, -n q)) g, with ``wilson_pair`` the one rule for
(m1, c1, c2): middle rows take m1 = m with 1/sqrt2, 1/sqrt2 (m+n even) or
i/sqrt2, -i/sqrt2 (m+n odd); the boundary rows n = 0 and n = c keep the
single atom m1 = 2m + (n mod 2) with c1 = 1, c2 = 0 (there the +/- pair is
self-paired and only the even-parity atoms survive).  Both atoms carry the
same intertwining phase, so the system is U of the rectangular system of
U^{-1} g up to a unimodular factor per element, and it is an orthonormal
basis exactly when that one is.  The basis is one gather of time-frequency
shifts, made only when ``WilsonSystem.basis`` is read.

Gram deviation without the basis.  Element i is c_0^i pi(lambda_0^i) g +
c_1^i pi(lambda_1^i) g, so by the ambiguity identity of
:mod:`wilsonlat.zak` every Gram entry is at most four lattice values of V:

    G_ij = sum_{s,t} c_s^i conj(c_t^j) e^{2 pi i x_t^j (y_s^i - y_t^j) / L}
           V(lambda_s^i - lambda_t^j),   lambda = (x, y).

``gram_deviation`` reduces every atom to table coordinates (k mod 2p,
l mod L/p), reads V(lambda_s - lambda_t) from a (4p, 2L/p) table of
differences through one index subtraction, and scans max|G - I| over
row blocks on and right of the diagonal (G is Hermitian) whose four terms
hold about ``SCAN_BLOCK`` entries, and at most max(SCAN_BLOCK, 4L) when one
row is wider: O(L^2) time and O(L) memory, no L x L array.  ``gram`` is the dense oracle.

Sequence setting.  With c = gcd(N/2, b) and (N/2) m0 + b n0 = c
(``ext_gcd``), a lattice (N/2, b, 1/N) in Z x T is
{(m c, m n0/N + n/(2c))}, and the chirp chi(l) = e^{pi i n0 l^2/(c N)}
(``chirp_discrete``) maps the rectangle (c, 0, 1/(2c)) onto it, each atom
up to a unimodular phase.  ``WilsonSequenceFamily`` element (m, n), m in Z
and 0 <= n <= c, is chi times the rectangular element (m, n) of
h = conj(chi) g by ``wilson_pair`` with top row c, so the family is an
orthonormal basis of l^2(Z) exactly when the rectangular one of h is; the
spectrum hypothesis applies to h.  For b = 0, c = N/2 and chi = 1.

The Gram matrix of a Wilson system equals the identity exactly when the
underlying window generates a tight frame with bound 2 and the spectrum
hypothesis holds; ``equivalence_report`` evaluates the four equivalent
formulations side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gabor import FrameError, spectral_deviation, tighten
from .metaplectic import SigmaParams, apply_continuous_U, meta_finite, sigma_params
from .ring import CanonicalFinite, LatticeError, ext_gcd
from .signal import (DEFAULT_TOL, DiscreteWindow, as_window, centered_dft,
                     real_spectrum, tf_shift)
from .zak import ambiguity_table

# complex entries per temporary of the Gram scan (module docstring)
SCAN_BLOCK = 1 << 14


def _index_arrays(L: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """m and n of the L Wilson indices in (n, m)-lex order: rows n = 0 and
    n = L/(2p) hold p indices, the others 2p, so index i has n = (i + p) // 2p."""
    i = np.arange(L)
    n = (i + p) // (2 * p)
    return i - np.maximum(2 * n - 1, 0) * p, n


def wilson_index_set(L: int, p: int) -> list[tuple[int, int]]:
    """Index pairs (m, n) in lexicographic (n, m) order; always L of them."""
    m, n = _index_arrays(L, p)
    return list(zip(m.tolist(), n.tolist()))


def wilson_pair(m, n, top: int | None) -> tuple:
    """The Wilson rule at index (m, n) with boundary rows n = 0 and n = top.

    Returns (m1, c1, c2): the element is c1 a(m1, n) + c2 a(m, -n) for the
    setting's atoms a.  Works on ints and elementwise on integer arrays;
    ``top=None`` means no upper boundary row (the continuous setting).
    """
    edge = (n == 0) | (n == top)
    odd = (m + n) % 2
    mid = (1 - edge) / np.sqrt(2.0)  # 0 on the boundary rows
    sign = 1 - odd + 1j * odd        # 1 for m+n even, i for m+n odd
    return m + edge * (m + n % 2), edge + mid * sign, mid * np.conj(sign)


@dataclass(frozen=True)
class WilsonSystem:
    """Wilson system of ``window`` over ``lattice``, transported through ``params``.

    ``basis`` (rows = elements, (n, m)-lex order over the index set of the
    image rectangle (L, q)) is gathered on first read; :func:`gram_deviation`
    works from :meth:`atoms` and never reads it.
    """

    window: np.ndarray = field(repr=False)
    lattice: CanonicalFinite
    params: SigmaParams

    def __post_init__(self):
        sp, lat = self.params, self.lattice
        if (sp.L, sp.p, sp.b) != (lat.L, lat.p, lat.b):
            raise LatticeError(f"symplectic parameters of ({sp.L}, {sp.p}, {sp.b}) "
                               f"given for {lat}")

    @cached_property
    def index_set(self) -> tuple:
        return tuple(wilson_index_set(self.lattice.L, self.params.q))

    def atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lattice coordinates k, l and coefficients c, each of shape (2, L):
        element i is sum_s c[s, i] tf_shift(g, k[s, i] a + l[s, i] b, l[s, i] p)."""
        L, p, b, a = self.lattice.L, self.lattice.p, self.lattice.b, self.lattice.time_step
        sp, q, top = self.params, self.params.q, self.params.gcd_c
        m, n = _index_arrays(L, q)
        m1, c1, c2 = wilson_pair(m, n, top)
        X, Y = np.array([m1 * top, m * top]), np.array([n * q, -n * q])
        # sigma^{-1} = [[delta, -beta], [-gamma, alpha]], reduced mod L so the
        # products stay below L^2 at every admissible L
        x = (sp.delta % L * X + -sp.beta % L * Y) % L
        y = (-sp.gamma % L * X + sp.alpha % L * Y) % L
        l = y // p
        return (x - l * b) // a, l, np.array([c1, c2])

    @cached_property
    def basis(self) -> np.ndarray:
        a, b, p = self.lattice.time_step, self.lattice.b, self.lattice.p
        k, l, c = self.atoms()
        basis = tf_shift(self.window, k[0] * a + l[0] * b, l[0] * p)
        basis *= c[0][:, None]
        basis += c[1][:, None] * tf_shift(self.window, k[1] * a + l[1] * b, l[1] * p)
        return basis

    def element(self, m: int, n: int) -> np.ndarray:
        q, top = self.params.q, self.params.gcd_c
        if not (0 <= n <= top and 0 <= m < (q if n in (0, top) else 2 * q)):
            raise ValueError(f"({m}, {n}) is not a Wilson index of {self.lattice}")
        return self.basis[m + max(2 * n - 1, 0) * q]


def wilson_finite(g, lat: CanonicalFinite, sp: SigmaParams | None = None) -> WilsonSystem:
    """Wilson system of a window over a canonical finite lattice.

    ``sp`` overrides the symplectic parameters that transport the index
    set and must belong to ``lat``; by default they are searched once per
    lattice (the identity bundle for b = 0).
    """
    return WilsonSystem(as_window(g, lat.L), lat, sp or sigma_params(lat))


def gram(sys_or_basis) -> np.ndarray:
    """Gram matrix under the normalized C^L inner product (dense oracle)."""
    B = sys_or_basis.basis if isinstance(sys_or_basis, WilsonSystem) else np.asarray(sys_or_basis)
    return B @ B.conj().T / B.shape[1]


def gram_deviation(sys: WilsonSystem) -> float:
    """max|G - I| of the Wilson Gram, scanned from the lattice ambiguity table.

    G_ij = sum_{s,t} c_s^i conj(c_t^j) e^{2 pi i x_t^j (y_s^i - y_t^j) / L}
    V(lambda_s^i - lambda_t^j) (module docstring); G is Hermitian, so only
    the blocks on and right of the diagonal are formed.
    """
    lat = sys.lattice
    L, p, b, a = lat.L, lat.p, lat.b, lat.time_step
    rows = L // p
    # V on differences (dk, dl) in (-2p, 2p) x (-L/p, L/p), flat index
    # (dk + 2p) 2L/p + dl + L/p = row - col; a negative dl wraps as (dk - 2b, dl + L/p)
    dk = np.arange(-2 * p, 2 * p)[:, None]
    dl = np.arange(-rows, rows)
    V = ambiguity_table(sys.window, lat)[(dk - 2 * b * (dl < 0)) % (2 * p), dl % rows].ravel()
    # atoms reduced to the table's lattice coordinates K < 2p, l < L/p
    k, l, c = sys.atoms()
    K = (k + 2 * b * (l // rows)) % (2 * p)
    l = l % rows
    col = K * 2 * rows + l
    row = col + 4 * p * rows + rows
    x = (K * a + l * b) % L
    y = l * p
    unit = np.exp(2j * np.pi * np.arange(L) / L)
    cc = c.conj() * unit[-x * y % L]
    # the four terms (s, t) of a block at once: s on axis 0, t on axis 1
    row, y, c = row[:, None, :, None], y[:, None, :, None], c[:, :, None]
    col, x, cc = col[:, None, :], x[:, None, :], cc[:, None, :]
    worst = 0.0
    i0 = 0
    while i0 < L:
        i1 = min(L, i0 + max(1, SCAN_BLOCK // (4 * (L - i0))))
        terms = V[row[:, :, i0:i1] - col[:, :, i0:]]
        terms *= unit[x[:, :, i0:] * y[:, :, i0:i1] % L]
        terms *= cc[:, :, i0:]
        G = (c[:, i0:i1] * terms.sum(axis=1)).sum(axis=0)
        G[np.arange(i1 - i0), np.arange(i1 - i0)] -= 1.0
        worst = np.maximum(worst, np.max(np.abs(G)))
        i0 = i1
    return float(worst)


# -- sequence setting ---------------------------------------------------------

def chirp_discrete(f: DiscreteWindow, n0: int, c: int, N: int) -> DiscreteWindow:
    """Pointwise chirp f(k) e^{pi i (n0/(c N)) k^2} on a sequence, with the
    exponent reduced mod 2 c N in integers."""
    if c == 0 or N == 0:
        raise ValueError("c and N must be nonzero")
    k = np.arange(f.start, f.stop)
    phase = np.pi * (n0 * k * k % (2 * c * N)) / (c * N)
    return DiscreteWindow(f.start, f.values * np.exp(1j * phase))


class WilsonSequenceFamily:
    """Lazy Wilson system over a lattice (N/2, b, 1/N) in Z x T.

    ``element(m, n)`` is defined for any integer m and 0 <= n <= c =
    gcd(N/2, b): the chirp chi times the element (m, n) of the rectangle
    (c, 0, 1/(2c)) for h = conj(chi) g (module docstring), a finitely
    supported sequence.
    """

    def __init__(self, g: DiscreteWindow, N: int, b: int):
        if N <= 0 or N % 2:
            raise LatticeError("N must be even and positive")
        if not 0 <= b < N // 2:
            raise LatticeError("b out of range [0, N/2)")
        self.c, _, self.n0 = ext_gcd(N // 2, b)
        self.g, self.N, self.b = g, N, b
        self.h = chirp_discrete(g, -self.n0, self.c, N)

    def _atom(self, mm: int, nn: int) -> DiscreteWindow:
        """h shifted by mm c and modulated by e^{2 pi i l nn / (2c)}."""
        shift = mm * self.c
        l = np.arange(self.h.start + shift, self.h.stop + shift)
        vals = self.h.values * np.exp(2j * np.pi * l * nn / (2 * self.c))
        return DiscreteWindow(self.h.start + shift, vals)

    def element(self, m: int, n: int) -> DiscreteWindow:
        if not 0 <= n <= self.c:
            raise ValueError("n out of range [0, gcd(N/2, b)]")
        m1, c1, c2 = wilson_pair(m, n, self.c)
        atoms = [(c, self._atom(mm, nn)) for c, mm, nn in ((c1, m1, n), (c2, m, -n)) if c != 0]
        lo = min(e.start for _, e in atoms)
        hi = max(e.stop for _, e in atoms)
        rect = DiscreteWindow(lo, sum(c * e.sample(lo, hi) for c, e in atoms))
        return chirp_discrete(rect, self.n0, self.c, self.N)

    def elements(self, m_range) -> list[tuple[tuple[int, int], DiscreteWindow]]:
        """All elements with m in m_range, (n, m)-lex order."""
        return [((m, n), self.element(m, n)) for n in range(self.c + 1) for m in m_range]


def wilson_discrete(g: DiscreteWindow, N: int, b: int) -> WilsonSequenceFamily:
    return WilsonSequenceFamily(g, N, b)


# -- four-way equivalence -----------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    """Verdicts and deviations for the four equivalent formulations.

    sheared_tight    : the Gabor system over (L, p, b) is tight with bound 2
    rectangular_tight: the transported window is tight over (L, q, 0)
    rectangular_onb  : the rectangular Wilson system is an orthonormal basis
    sheared_onb      : the Wilson system over (L, p, b) is an orthonormal basis

    Each verdict is its deviation <= tol.  The two tightness deviations are
    ||S - 2I||_2 = max|d - 2| over the frame symbol d, i.e. the distance of
    the frame bounds (A, B) from 2; this is never below the entrywise
    max|S - 2I|.  The two basis deviations are the entrywise max|G - I| of
    the Wilson Gram (:func:`gram_deviation`).
    """

    sheared_tight: bool
    rectangular_tight: bool
    rectangular_onb: bool
    sheared_onb: bool
    deviations: dict
    params: SigmaParams
    tol: float

    def verdicts(self) -> tuple[bool, bool, bool, bool]:
        return (self.sheared_tight, self.rectangular_tight,
                self.rectangular_onb, self.sheared_onb)

    def to_json(self) -> dict:
        return {"verdicts": {"sheared_tight": self.sheared_tight,
                             "rectangular_tight": self.rectangular_tight,
                             "rectangular_onb": self.rectangular_onb,
                             "sheared_onb": self.sheared_onb},
                "deviations": {k: float(v) for k, v in self.deviations.items()},
                "q": self.params.q, "tol": self.tol}


def equivalence_report(g, lat: CanonicalFinite, tol: float = DEFAULT_TOL,
                       sp: SigmaParams | None = None) -> EquivalenceReport:
    """Evaluate all four equivalent basis/frame conditions for a window.

    Requires the transported window U^{-1} g to have a real-valued
    spectrum (the hypothesis under which the four conditions are
    equivalent); raises otherwise.
    """
    sheared = wilson_finite(g, lat, sp)
    g, sp = sheared.window, sheared.params
    h = meta_finite(g, sp, inverse=True)
    try:
        real_spectrum(h)
    except ValueError as exc:
        raise FrameError(f"transported {exc}") from exc
    rect = CanonicalFinite(lat.L, sp.q, 0)
    dev_i = spectral_deviation(g, lat)
    dev_ii = spectral_deviation(h, rect)
    dev_iii = gram_deviation(wilson_finite(h, rect))
    dev_iv = gram_deviation(sheared)
    devs = {"sheared_tight": dev_i, "rectangular_tight": dev_ii,
            "rectangular_onb": dev_iii, "sheared_onb": dev_iv}
    return EquivalenceReport(dev_i <= tol, dev_ii <= tol, dev_iii <= tol,
                             dev_iv <= tol, devs, sp, tol)


# -- continuous demonstration -------------------------------------------------

HEX_A = 3.0 ** (-0.25)          # canonical hexagonal lattice scaled to volume 1/2
HEX_B = HEX_A / 2.0
HEX_D = 3.0 ** 0.25 / 2.0
M_MAX = N_MAX = 2               # Gram index window |m| <= M_MAX, 0 <= n <= N_MAX
# the demo's L x L interpolation kernel peaks near 32 L^2 bytes (543 MB RSS at L = 4096)
DEMO_MAX_L = 4096


@dataclass(frozen=True)
class ContinuousDemoReport:
    L: int
    nu: float
    window: np.ndarray = field(repr=False)
    hex_gram_deviation: float = 0.0
    rect_gram_deviation: float = 0.0
    time_spread: float = 0.0
    freq_spread: float = 0.0

    def to_json(self) -> dict:
        return {"L": self.L, "nu": self.nu,
                "hex_gram_deviation": self.hex_gram_deviation,
                "rect_gram_deviation": self.rect_gram_deviation,
                "time_spread": self.time_spread,
                "freq_spread": self.freq_spread}


def _grid(L: int) -> tuple[int, np.ndarray]:
    root = int(round(np.sqrt(L)))
    if root * root != L or root % 2:
        raise ValueError("demo requires L to be the square of an even integer")
    return root, (np.arange(L) - L / 2) / root


def _frac_shift(f: np.ndarray, x_grid: float) -> np.ndarray:
    L = len(f)
    F = centered_dft(f)
    j = np.arange(L) - L / 2
    return centered_dft(F * np.exp(-2j * np.pi * j * x_grid / L), inverse=True)


def continuous_wilson_gram(g: np.ndarray, a: float, b: float, d: float) -> float:
    """Max deviation from identity of the sampled continuous Wilson Gram.

    Assembles the volume-1/2 continuous-setting Wilson elements for the
    lattice [[a, b], [0, d]] on the sqrt(L) grid over a fixed index window
    and measures ||Gram - I||_max under the normalized inner product.
    """
    L = len(g)
    root, t = _grid(L)

    def atom(m: int, n: int) -> np.ndarray:
        return _frac_shift(g, (m * a + n * b) * root) * np.exp(2j * np.pi * n * d * t)

    rows = []
    for n in range(N_MAX + 1):
        phase = np.exp(-1j * np.pi * b * d * n * n)
        for m in range(-M_MAX, M_MAX + 1):
            m1, c1, c2 = wilson_pair(m, n, None)
            rows.append(phase * (c1 * atom(m1, n) + c2 * atom(m, -n)))
    B = np.array(rows)
    G = B @ B.conj().T / L
    return float(np.max(np.abs(G - np.eye(len(rows)))))


def wilson_continuous_demo(nu: float, L: int) -> ContinuousDemoReport:
    """Hexagonal-lattice demonstration of the continuous construction.

    Samples the Gaussian (2 nu)^{1/4} e^{-nu pi t^2} on the sqrt(L) grid,
    tightens it for the rectangular lattice {(m/2, n)} (finite analogue:
    (L, sqrt(L), 0)), transports with the inverse continuous metaplectic
    operator of the volume-1/2 hexagonal lattice, and reports the sampled
    Wilson Gram deviations for both lattices plus the time-frequency
    spreads of the hexagonal window.
    """
    if nu <= 0:
        raise ValueError("nu must be positive")
    if not 64 <= L <= DEMO_MAX_L:
        raise ValueError(f"demo requires 64 <= L <= {DEMO_MAX_L}")
    root, t = _grid(L)
    h = (2 * nu) ** 0.25 * np.exp(-nu * np.pi * t * t) + 0j
    rect = CanonicalFinite(L, root, 0)
    w = tighten(h, rect)
    g = apply_continuous_U(w, (HEX_A, HEX_B, HEX_D), inverse=True)

    hex_dev = continuous_wilson_gram(g, HEX_A, HEX_B, HEX_D)
    rect_dev = continuous_wilson_gram(w, 0.5, 0.0, 1.0)

    mass = np.sum(np.abs(g) ** 2)
    mean_t = np.sum(t * np.abs(g) ** 2) / mass
    time_spread = float(np.sqrt(np.sum((t - mean_t) ** 2 * np.abs(g) ** 2) / mass))
    G = centered_dft(g)
    f = (np.arange(L) - L / 2) / root
    massf = np.sum(np.abs(G) ** 2)
    mean_f = np.sum(f * np.abs(G) ** 2) / massf
    freq_spread = float(np.sqrt(np.sum((f - mean_f) ** 2 * np.abs(G) ** 2) / massf))
    return ContinuousDemoReport(L, nu, g, hex_dev, rect_dev, time_spread, freq_spread)
