"""Dense and literal oracles for the metaplectic layer, the sequence
setting and the continuous factorization data that only the tests use.

``dense_metaplectic`` is the kernel sum U f(k) = sum_l f(alpha k + beta l)
psi(k, l) normalized to a unitary, the definition that the factored
``wilsonlat.metaplectic`` operator is checked against; ``candidates`` is
the preference-ordered box search that ``sigma_params`` reproduces;
``phi_params_finite`` and ``phi_params_discrete`` are the unimodular index
maps phi of the finite Wilson gather and of the sequence lattice;
``correlation_sums_discrete`` is the sequence correlation fold without
the conjugate, and ``gram_discrete`` / ``periodized_gram`` are the
counting-measure Grams of sequence families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from wilsonlat.metaplectic import UNITARY_TOL, ParameterSearchError, SigmaParams
from wilsonlat.ring import CanonicalFinite, CanonicalReal, LatticeError, ext_gcd
from wilsonlat.signal import DiscreteWindow


def dense_metaplectic(sp: SigmaParams) -> np.ndarray:
    """The raw kernel sum scaled to a unitary; raises if it is not
    proportional to one (for beta = 0 the l-sum contributes a factor L)."""
    L = sp.L
    raw = _raw_metaplectic(sp)
    G = raw @ raw.conj().T
    scale2 = float(np.mean(np.real(np.diag(G))))
    if scale2 <= 1e-12 or np.max(np.abs(G - scale2 * np.eye(L))) > UNITARY_TOL * scale2:
        raise ParameterSearchError("metaplectic kernel is not proportional to a unitary")
    return raw / np.sqrt(scale2)


def _raw_metaplectic(sp: SigmaParams) -> np.ndarray:
    """The kernel sum itself: U[k, alpha k + beta l] += psi(k, l) over l."""
    L = sp.L
    al, be, ga, de = sp.alpha, sp.beta, sp.gamma, sp.delta
    U = np.zeros((L, L), dtype=complex)
    ks = np.arange(L)[:, None]
    l = np.arange(L)[None, :]
    cols = (al * ks + be * l) % L
    exps = ((al * ga * ks * ks + be * de * l * l) * (L + 1) + 2 * be * ga * ks * l) % (2 * L)
    np.add.at(U, (np.broadcast_to(ks, cols.shape), cols), np.exp(-1j * np.pi * exps / L))
    return U


def candidates(lat: CanonicalFinite, box: int):
    """Every candidate tuple in the box, sorted by preference and yielded
    lazily; admissibility is left to the caller.

    Preference order: image lattice aligned with (L, p, 0) first, then
    larger gcd_c, satisfied sign conditions, small |beta|, |m0|, |n0|,
    alpha = +1, and finally plain lexicographic order for determinism.
    """
    L, p, b = lat.L, lat.p, lat.b
    u = lat.time_step
    # every (alpha, beta, n0) of the box, filtered literally (no Bezout
    # progression): rows are (alpha, beta), columns n0
    box_range = np.arange(-box, box + 1)
    alpha, beta, n0 = np.broadcast_arrays(np.repeat([1, -1], len(box_range))[:, None],
                                          np.tile(box_range, 2)[:, None], box_range)
    v = alpha * b + beta * p
    c = np.gcd(u, v)
    num = c - v * n0
    ok = (v != 0) & (n0 != 0) & (num % (alpha * u) == 0)
    m0 = num // (alpha * u)
    x0 = u * m0 + b * n0
    y0 = p * n0
    ok &= (np.abs(m0) <= box) & (x0 != 0)
    ok[ok] = np.gcd(x0[ok], y0[ok]) == c[ok]
    alpha, beta, v, c, m0, n0, x0, y0 = (w[ok] for w in (alpha, beta, v, c, m0, n0, x0, y0))
    sign_ok = (x0 * y0 < 0) & (alpha * u * v > 0)
    order = np.lexsort((n0, m0, beta, alpha != 1, np.abs(n0), np.abs(m0), np.abs(beta),
                        ~sign_ok, -c, c != u))
    cols = (w[order].tolist() for w in (alpha, beta, v, c, m0, n0, x0, y0, sign_ok))
    return (SigmaParams(alpha=alpha, beta=beta, gamma=-y0 // c, delta=x0 // c,
                        m0=m0, n0=n0, gcd_c=c, lcm_d=alpha * u * v // c,
                        s=c, t=-(x0 * y0) // c, L=L, p=p, b=b,
                        aligned=(c == u), sign_adjusted=not sign_ok)
            for alpha, beta, v, c, m0, n0, x0, y0, sign_ok in zip(*cols))


@dataclass(frozen=True)
class ContinuousFactorization:
    """U = D_{1/d} o F o N_{-b/d} o F^{-1} together with its point map A."""

    a: float
    b: float
    d: float
    factors: tuple = field(default=())
    matrix: tuple = field(default=())  # ((d, -b), (0, 2a))

    def apply_matrix(self, x, y):
        (m00, m01), (m10, m11) = self.matrix
        return (m00 * x + m01 * y, m10 * x + m11 * y)


def _vol_is_half(a, b, d) -> bool:
    if all(isinstance(v, (int, Fraction)) for v in (a, b, d)):
        return Fraction(a) * Fraction(d) == Fraction(1, 2)
    return abs(float(a) * float(d) - 0.5) <= 1e-12


def continuous_factor(lat: CanonicalReal | tuple) -> ContinuousFactorization:
    """Factorization data for a canonical volume-1/2 lattice [[a, b], [0, d]].

    Validates A (ma + nb, nd) = (m/2, n) on (m, n) in [-3, 3]^2: exactly
    for rational entries, to 1e-12 in floating point otherwise.
    """
    if isinstance(lat, CanonicalReal):
        a, b, d = lat.a, lat.b, lat.d
    else:
        a, b, d = lat
    if not _vol_is_half(a, b, d):
        raise LatticeError("volume must be 1/2")
    exact = all(isinstance(v, (int, Fraction)) for v in (a, b, d))
    matrix = ((d, -b), (0 if exact else 0.0, 2 * a))
    fact = ContinuousFactorization(
        a=a, b=b, d=d,
        factors=(("dilate", 1 / Fraction(d) if exact else 1.0 / float(d)),
                 ("fourier", 1), ("chirp", -(Fraction(b) / Fraction(d)) if exact
                                  else -float(b) / float(d)), ("fourier", -1)),
        matrix=matrix)
    for m in range(-3, 4):
        for n in range(-3, 4):
            got = fact.apply_matrix(m * a + n * b, n * d)
            want = (Fraction(m, 2) if exact else m / 2.0, n)
            if exact:
                if (got[0], got[1]) != want:
                    raise LatticeError("factorization point map failed exactly")
            else:
                if abs(float(got[0]) - float(want[0])) > 1e-12 or \
                   abs(float(got[1]) - float(want[1])) > 1e-12:
                    raise LatticeError("factorization point map failed numerically")
    return fact


def phi_params_finite(sp: SigmaParams) -> PhiParams:
    """The finite index map phi from the Bezout data of ``sp``: phi(m, n)
    are the lattice coordinates of sigma^{-1}(m c, n L/(2c)), the atom
    that ``WilsonSystem.atoms`` reads through sigma^{-1} mod L."""
    if sp.b == 0:
        return PhiParams(0)
    u_signed = sp.alpha * (sp.L // (2 * sp.p))
    v = sp.alpha * sp.b + sp.beta * sp.p
    if v % sp.gcd_c or u_signed % sp.gcd_c:
        raise LatticeError("inconsistent PhiParams")
    return PhiParams(sp.b, sp.m0, sp.n0, v // sp.gcd_c, u_signed // sp.gcd_c)


@dataclass(frozen=True)
class PhiParams:
    """Unimodular index map (m, n) -> (m m0 - k1 n, m n0 + k2 n).

    For b = 0 the map is the identity.  The determinant m0 k2 + n0 k1
    always equals 1, so the map is a bijection of Z^2.
    """

    b: int
    m0: int = 0
    n0: int = 0
    k1: int = 0  # b / c
    k2: int = 0  # (N/2) / c

    def __post_init__(self):
        if self.b != 0 and self.m0 * self.k2 + self.n0 * self.k1 != 1:
            raise LatticeError("inconsistent PhiParams")


def phi_params_discrete(N: int, b: int) -> PhiParams:
    if N <= 0 or N % 2:
        raise LatticeError("N must be even and positive")
    if not 0 <= b < N // 2:
        raise LatticeError("b out of range [0, N/2)")
    if b == 0:
        return PhiParams(0)
    half = N // 2
    # Bezout pair with (N/2) m0 + b n0 = c = gcd(N/2, b)
    c, m0, n0 = ext_gcd(half, b)
    return PhiParams(b, m0, n0, b // c, half // c)


def phi_map(m, n, pp: PhiParams) -> tuple:
    """phi(m, n) for ints or elementwise for integer arrays."""
    if pp.b == 0:
        return (m, n)
    return (m * pp.m0 - pp.k1 * n, m * pp.n0 + pp.k2 * n)


def phi_inverse(k: int, l: int, pp: PhiParams) -> tuple[int, int]:
    if pp.b == 0:
        return (k, l)
    # inverse of the determinant-1 matrix [[m0, -k1], [n0, k2]]
    return (pp.k2 * k + pp.k1 * l, -pp.n0 * k + pp.m0 * l)


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


def gram_discrete(elements) -> np.ndarray:
    """Gram under the counting inner product sum_l f(l) conj(g(l))."""
    wins = [w for _, w in elements] if elements and isinstance(elements[0], tuple) else list(elements)
    lo = min(w.start for w in wins)
    hi = max(w.stop for w in wins)
    M = np.array([w.sample(lo, hi) for w in wins])
    return M @ M.conj().T


def periodized_gram(family, m_range, L: int) -> np.ndarray:
    """Counting-measure Gram of the L-periodized sequence elements.

    Oracle for sequence/finite consistency: when every element is
    supported well inside one period, this equals the sequence Gram
    entrywise.
    """
    elems = family.elements(m_range)
    M = np.array([w.periodize(L) for _, w in elems])
    return M @ M.conj().T
