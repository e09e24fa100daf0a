"""Wilson systems: +/- recombinations of Gabor atoms that turn a tight
redundancy-2 frame into an orthonormal basis.

Finite setting.  One construction serves every canonical lattice (L, p, b).
The symplectic sigma of :mod:`wilsonlat.metaplectic` maps it onto the
rectangle (L, q, 0) with time step c = L/(2q) (q = p on aligned lattices,
sigma = id when b = 0), whose index set

    I = {0..q-1} x {0, c}  union  {0..2q-1} x {1..c-1}

has exactly L indices (``wilson_index_set``: its m and n as integer arrays
in (n, m)-lex order).  Element (m, n) is c1 pi(sigma^{-1}(m1 c, n q)) g +
c2 pi(sigma^{-1}(m c, -n q)) g, with ``wilson_pair`` the one rule for
(m1, c1, c2): middle rows take m1 = m with 1/sqrt2, 1/sqrt2 (m+n even) or
i/sqrt2, -i/sqrt2 (m+n odd); the boundary rows n = 0 and n = c keep the
single atom m1 = 2m + (n mod 2) with c1 = 1, c2 = 0 (there the +/- pair is
self-paired and only the even-parity atoms survive).  Both atoms carry the
same intertwining phase, so the system is U of the rectangular system of
U^{-1} g up to a unimodular factor per element, and it is an orthonormal
basis exactly when that one is.  The basis is one gather of time-frequency
shifts, made only when ``WilsonSystem.basis`` is read.

Riesz bounds without the basis.  G = W W^H / L has the spectrum of the
Wilson frame operator W^H W / L (W is square), which is (S + T)/2 with
T = (1/L) sum_lambda eps(lambda) pi(lambda) g (pi(A lambda) g)^H over
Lambda, A = sigma^{-1} diag(1, -1) sigma mod L (the rule's n -> -n) and
eps = (-1)^{m+n} at sigma lambda = (m c, n q) (``wilson_pair``'s parity).
Let e_kappa, kappa = (k, r) in Z_a x Z_2p, a = L/(2p), have spectrum
c(j) e^{2 pi i j k/a} at 2pj + r (the chirp c of :mod:`wilsonlat.zak`).
There S = diag(d), and <pi(x, l p) g, e_kappa> is proportional to
Z_{l mod 2}(kappa) Phi(kappa, (x, l p)), Z_0 = W_0, Z_1 = W_1[k + b],

    Phi = e^{2 pi i (-x (r - (l mod 2) p) / L + (b s^2 - s k) / a)},  s = floor(l/2).

So t = T[kappa, P kappa] = (2p/L^2)(Z_0 conj Z_0(P.) + phi Z_1 conj Z_1(P.))
is the one entry of row kappa, where the involution P solves Phi(P kappa,
A lambda) = eps Phi(kappa, lambda) at (a, 0) and (2b, 2p), and phi =
eps Phi(kappa, .) conj Phi(P kappa, A .) at (b, p).  The spectrum of G is
that of the blocks [[d(kappa), t], [conj t, d(P kappa)]] / 2, or (d + t)/2
where P kappa = kappa: ``riesz_bounds`` in O(L log L) time and O(L) memory.
P, phi and the masks kappa < P kappa, kappa > P kappa depend only on the
lattice and sigma: ``_pairing`` builds them once per pair in an lru_cache
of PAIRING_CACHE = 8 entries, read-only, 26 L bytes each (26 MiB at
L = MAX_L = 2^20, so at most 208 MiB in all), and only the combine with the
window's symbol runs per call.
``gram_deviation`` = max(B_W - 1, 1 - A_W) = ||G - I||_2 is never below the
entrywise max|G - I| of the dense Gram (``tests/oracles.py::gram``).  For a
transported real-spectrum window (A_W, B_W) is half the frame bounds.

Sequence setting.  With c = gcd(N/2, b) and (N/2) m0 + b n0 = c
(``ext_gcd``), a lattice (N/2, b, 1/N) in Z x T is
{(m c, m n0/N + n/(2c))}, and the chirp chi(l) = e^{pi i n0 l^2/(c N)}
(``chirp_discrete``) maps the rectangle (c, 0, 1/(2c)) onto it, each atom
up to a unimodular phase.  ``WilsonSequenceFamily`` element (m, n), m in Z
and 0 <= n <= c, is chi times the rectangular element (m, n) of
h = conj(chi) g by ``wilson_pair`` with top row c, so the family is an
orthonormal basis of l^2(Z) exactly when the rectangular one of h is; the
spectrum hypothesis applies to h.  For b = 0, c = N/2 and chi = 1.
The bridge to C^L: for c | K the beta = 0 bundle SigmaParams(1, 0, -K n0/c,
1, N K, K, b) of (N K, K, b) chirps with the same n0, so each element of
the family, periodized to L = N K, is a row of the ``wilson_finite`` basis
of g.periodize(L) with that bundle up to a unimodular phase.  The searched
sigma may chirp with another n0 mod N, as at (N, b) = (8, 1) and (12, 3).

The Gram matrix of a Wilson system equals the identity exactly when the
underlying window generates a tight frame with bound 2 and the spectrum
hypothesis holds; ``equivalence_report`` evaluates the four equivalent
formulations side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import inf, isqrt

from ._numpy import np
from .gabor import FrameError, tighten
from .metaplectic import SigmaParams, apply_continuous_U, meta_finite, sigma_params
from .ring import MAX_L, CanonicalFinite, LatticeError, ext_gcd
from .signal import (DEFAULT_TOL, DiscreteWindow, as_window, centered_dft, dft,
                     require_real, tf_shift)
from .zak import FrameSymbol, frame_symbol, symbol_layout

PAIRING_CACHE = 8  # (lattice, sigma) pairs whose Riesz pairing is kept (module docstring)


def wilson_index_set(L: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """m and n of the L Wilson indices in (n, m)-lex order: rows n = 0 and
    n = L/(2p) hold p indices, the others 2p, so index i has n = (i + p) // 2p."""
    i = np.arange(L)
    n = (i + p) // (2 * p)
    return i - np.maximum(2 * n - 1, 0) * p, n


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

    ``basis`` (rows = elements, in ``wilson_index_set`` order over the image
    rectangle (L, q)) is gathered on first read; :func:`gram_deviation`
    works from ``symbol``, the frame symbol of the window over the lattice,
    built once per system, and never reads the basis.
    """

    window: np.ndarray = field(repr=False)
    lattice: CanonicalFinite
    params: SigmaParams

    def __post_init__(self):
        sp, lat = self.params, self.lattice
        if (sp.L, sp.p, sp.b) != (lat.L, lat.p, lat.b):
            raise LatticeError(f"symplectic parameters of ({sp.L}, {sp.p}, {sp.b}) "
                               f"given for {lat}")

    def atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Lattice coordinates k, l and coefficients c, each of shape (2, L):
        element i is sum_s c[s, i] tf_shift(g, k[s, i] a + l[s, i] b, l[s, i] p)."""
        L, p, b, a = self.lattice.L, self.lattice.p, self.lattice.b, self.lattice.time_step
        sp, q, top = self.params, self.params.q, self.params.gcd_c
        m, n = wilson_index_set(L, q)
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

    @cached_property
    def symbol(self) -> FrameSymbol:
        return frame_symbol(self.window, self.lattice)


def wilson_finite(g, lat: CanonicalFinite, sp: SigmaParams | None = None) -> WilsonSystem:
    """Wilson system of a window over a canonical finite lattice.

    ``sp`` overrides the symplectic parameters that transport the index
    set and must belong to ``lat``; by default they are searched once per
    lattice (the identity bundle for b = 0).
    """
    return WilsonSystem(as_window(g, lat.L), lat, sp or sigma_params(lat))


@lru_cache(maxsize=PAIRING_CACHE)
def _pairing(lat: CanonicalFinite, sp: SigmaParams) -> tuple:
    """P, phi and the masks i < P, i > P of the Riesz blocks (module
    docstring), kappa = (k, r) at flat index 2p k + r; built once per lattice
    and bundle, read-only."""
    L, p, b, a = lat.L, lat.p, lat.b, lat.time_step
    k, r = np.arange(a)[:, None], np.arange(2 * p)

    def phase(x, y, k, r):  # L arg Phi mod L; b s^2, s k reduced mod a keep int64 exact
        s, e = divmod(y // p, 2)
        return (2 * p * ((b * (s * s % a) - s * k) % a) - x * (r - e * p)) % L

    def flipped(x, y, k, r):  # L arg of eps(lambda) conj Phi(kappa, A lambda) mod L
        u, v = (sp.alpha * x + sp.beta * y) % L, (sp.gamma * x + sp.delta * y) % L
        Ax, Ay = (sp.delta * u + sp.beta * v) % L, (-sp.gamma * u - sp.alpha * v) % L
        return (u // sp.gcd_c + v // sp.q) % 2 * (L // 2) - phase(Ax, Ay, k, r)

    # P is an involution, so L arg Phi(P kappa, lambda) = -flipped(lambda, kappa):
    # -a Pr at (a, 0) and 2p (b - Pk) - 2b Pr at (2b, 2p)
    Pr = flipped(a, 0, k, r) % L // a
    Pk = (2 * p * b - 2 * b * Pr + flipped(2 * b, 2 * p, k, r)) % L // (2 * p)
    phi = np.exp(2j * np.pi * ((phase(b, p, k, r) + flipped(b, p, Pk, Pr)) % L) / L).ravel()
    P = (2 * p * Pk + Pr).ravel()
    i = np.arange(L)
    tables = (P, phi, i < P, i > P)
    for table in tables:
        table.setflags(write=False)
    return tables


def riesz_spectrum(sys: WilsonSystem) -> np.ndarray:
    """The L eigenvalues of the Wilson Gram from the 2x2 blocks (module
    docstring), kappa = (k, r) at flat index 2p k + r."""
    lat = sys.lattice
    L, p = lat.L, lat.p
    P, phi, below, above = _pairing(lat, sys.params)
    sym = sys.symbol
    d, W1 = sym.values.ravel(), sym.shifted_zak
    Z0, Z1 = sym.window_zak.ravel(), (W1[symbol_layout(lat).rows] if lat.b else W1).ravel()
    t = (2 * p / L**2) * (Z0 * Z0[P].conj() + phi * Z1 * Z1[P].conj())
    dP = d[P]
    root = np.sqrt(((d - dP) / 2) ** 2 + np.abs(t) ** 2)
    return ((d + dP) / 2 + np.where(below, root, np.where(above, -root, t.real))) / 2


def riesz_bounds(sys: WilsonSystem) -> tuple[float, float]:
    """Optimal Riesz bounds (A_W, B_W): the extreme eigenvalues of the Gram."""
    spectrum = riesz_spectrum(sys)
    return float(spectrum.min()), float(spectrum.max())


def gram_deviation(sys: WilsonSystem) -> float:
    """||G - I||_2 = max(B_W - 1, 1 - A_W) from the Riesz bounds."""
    A, B = riesz_bounds(sys)
    return max(B - 1.0, 1.0 - A)


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


# -- four-way equivalence -----------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    """Verdicts and deviations for the four equivalent formulations.

    sheared_tight    : the Gabor system over (L, p, b) is tight with bound 2
    rectangular_tight: the transported window is tight over (L, q, 0)
    rectangular_onb  : the rectangular Wilson system is an orthonormal basis
    sheared_onb      : the Wilson system over (L, p, b) is an orthonormal basis

    Each verdict is its deviation <= tol, in the order of ``deviations``.
    The two tightness deviations are ||S - 2I||_2 = max|d - 2| over the
    frame symbol d, i.e. the distance of the frame bounds (A, B) from 2; this
    is never below the entrywise max|S - 2I|.  The two basis deviations are
    ||G - I||_2 of the Wilson Gram, read from the Riesz bounds
    (:func:`gram_deviation`); this is never below the entrywise max|G - I|.
    """

    deviations: dict
    params: SigmaParams
    tol: float

    def verdicts(self) -> tuple[bool, bool, bool, bool]:
        return tuple(dev <= self.tol for dev in self.deviations.values())

    def to_json(self) -> dict:
        return {"verdicts": dict(zip(self.deviations, self.verdicts())),
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
        require_real(dft(h))
    except ValueError as exc:
        raise FrameError(f"transported {exc}") from exc
    rect = wilson_finite(h, CanonicalFinite(lat.L, sp.q, 0))
    # one frame symbol per window: each system's tightness and Riesz bounds read it
    devs = {"sheared_tight": sheared.symbol.deviation,
            "rectangular_tight": rect.symbol.deviation,
            "rectangular_onb": gram_deviation(rect),
            "sheared_onb": gram_deviation(sheared)}
    return EquivalenceReport(devs, sp, tol)


# -- continuous demonstration -------------------------------------------------

HEX_A = 3.0 ** (-0.25)          # canonical hexagonal lattice scaled to volume 1/2
HEX_B = HEX_A / 2.0
HEX_D = 3.0 ** 0.25 / 2.0
M_MAX = N_MAX = 2               # Gram index window |m| <= M_MAX, 0 <= n <= N_MAX
# largest L of the L x L basis that ``wilson build`` gathers (933 MB RSS at
# (4096, 4, 1))
DENSE_MAX_L = 4096


@dataclass(frozen=True)
class ContinuousDemoReport:
    L: int
    nu: float
    window: np.ndarray = field(repr=False)
    hex_gram_deviation: float
    rect_gram_deviation: float
    time_spread: float
    freq_spread: float

    def to_json(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "window"}


def _grid(L: int) -> tuple[int, np.ndarray]:
    """sqrt(L) and the demo grid t_k = (k - L/2)/sqrt(L); ValueError unless L
    is the square of an even integer in [64, MAX_L]."""
    root = isqrt(max(L, 0))
    if not 64 <= L <= MAX_L or root * root != L or root % 2:
        raise ValueError("demo requires L to be the square of an even integer "
                         f"in [64, {MAX_L}], got {L}")
    return root, (np.arange(L) - L / 2) / root


def _wilson_elements(G: np.ndarray, t: np.ndarray, a: float, b: float, d: float) -> np.ndarray:
    """The sampled Wilson elements (n, m), |m| <= M_MAX, 0 <= n <= N_MAX, as
    rows, from the centered spectrum G of the window on the grid t.

    Atom (m, n) is G times the shift ramp A^m B^n, where A and B are the
    ramps e^{-2 pi i j s sqrt(L)/L} of s = a and s = b, their powers are
    products and A^-k = conj A^k, then modulated by e^{2 pi i n d t}.  The
    ramp tables die with this call, before the Gram product.
    """
    L = len(G)
    j = np.arange(L) - L / 2

    def powers(s: float, top: int) -> list:  # [1, r, r^2, ..., r^top], r^0 never read
        r = np.exp(-2j * np.pi * j * (s * np.sqrt(L)) / L)
        out = [None, r]
        while len(out) <= top:
            out.append(out[-1] * r)
        return out

    ramp_a, ramp_b = powers(a, 2 * M_MAX), powers(b, N_MAX) if b else None

    def atom(m: int, n: int, modulation: np.ndarray) -> np.ndarray:
        spec = G
        for table, k in ((ramp_a, m), (ramp_b, n)):
            if k and table is not None:
                spec = spec * (table[k] if k > 0 else table[-k].conj())
        return centered_dft(spec, inverse=True) * modulation

    width = 2 * M_MAX + 1
    B = np.empty(((N_MAX + 1) * width, L), dtype=complex)
    for n in range(N_MAX + 1):  # each modulation e^{2 pi i n d t} once, at most two held
        modulation = {s: np.exp(2j * np.pi * s * d * t) for s in {n, -n}}
        for m in range(-M_MAX, M_MAX + 1):
            m1, c1, c2 = wilson_pair(m, n, None)
            row = c1 * atom(m1, n, modulation[n])
            if c2:  # 0 on the boundary row n = 0
                row += c2 * atom(m, -n, modulation[-n])
            B[n * width + m + M_MAX] = np.exp(-1j * np.pi * b * d * n * n) * row
    return B


def continuous_wilson_gram(g: np.ndarray, a: float, b: float, d: float) -> float:
    """Max deviation from identity of the sampled continuous Wilson Gram.

    Assembles the volume-1/2 continuous-setting Wilson elements for the
    lattice [[a, b], [0, d]] on the sqrt(L) grid over a fixed index window
    and measures ||Gram - I||_max under the normalized inner product, each
    atom a phase ramp on one spectrum: O(L log L) time, O(L) memory.
    """
    L = len(g)
    _, t = _grid(L)
    B = _wilson_elements(centered_dft(g), t, a, b, d)
    gram = B @ B.conj().T / L
    return float(np.max(np.abs(gram - np.eye(len(B)))))


def wilson_continuous_demo(nu: float, L: int) -> ContinuousDemoReport:
    """Hexagonal-lattice demonstration of the continuous construction.

    Samples the Gaussian (2 nu)^{1/4} e^{-nu pi t^2} on the sqrt(L) grid,
    tightens it for the rectangular lattice {(m/2, n)} (finite analogue:
    (L, sqrt(L), 0)), transports with the inverse continuous metaplectic
    operator of the volume-1/2 hexagonal lattice, and reports the sampled
    Wilson Gram deviations for both lattices plus the time-frequency
    spreads of the hexagonal window.
    """
    if not 0 < nu < inf:  # also rejects NaN
        raise ValueError(f"nu must be a finite positive number, got {nu}")
    root, t = _grid(L)
    h = (2 * nu) ** 0.25 * np.exp(-nu * np.pi * t * t) + 0j
    rect = CanonicalFinite(L, root, 0)
    w = tighten(h, rect)
    g = apply_continuous_U(w, (HEX_A, HEX_B, HEX_D), inverse=True)

    hex_dev = continuous_wilson_gram(g, HEX_A, HEX_B, HEX_D)
    rect_dev = continuous_wilson_gram(w, 0.5, 0.0, 1.0)

    def spread(v: np.ndarray) -> float:  # t also grids the centered frequencies
        density = np.abs(v) ** 2 / np.sum(np.abs(v) ** 2)
        return float(np.sqrt(np.sum((t - np.sum(t * density)) ** 2 * density)))

    return ContinuousDemoReport(L, nu, g, hex_dev, rect_dev, spread(g), spread(centered_dft(g)))
