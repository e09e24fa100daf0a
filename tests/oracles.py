"""Dense and literal oracles for the metaplectic layer, and the sequence
chirp and continuous factorization data that only the tests use.

``dense_metaplectic`` is the kernel sum U f(k) = sum_l f(alpha k + beta l)
psi(k, l) normalized to a unitary, the definition that the factored
``wilsonlat.metaplectic`` operator is checked against; ``candidates`` is
the preference-ordered box search that ``sigma_params`` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from wilsonlat.metaplectic import UNITARY_TOL, ParameterSearchError, SigmaParams
from wilsonlat.ring import CanonicalFinite, CanonicalReal, LatticeError
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


def chirp_discrete(f: DiscreteWindow, n0: int, c: int, N: int) -> DiscreteWindow:
    """Pointwise chirp U f(k) = f(k) e^{pi i (n0/(c N)) k^2} on a sequence."""
    if c == 0 or N == 0:
        raise ValueError("c and N must be nonzero")
    k = np.arange(f.start, f.stop)
    return DiscreteWindow(f.start, f.values * np.exp(1j * np.pi * n0 * k * k / (c * N)))



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
