"""Symplectic reindexing of lattices and the unitaries that implement it.

For a canonical finite lattice (L, p, b) there is an integer matrix
sigma = [[alpha, beta], [gamma, delta]] with alpha delta - beta gamma = 1
mapping the lattice points onto a rectangular lattice, and a unitary U
on C^L intertwining the corresponding time-frequency shifts up to an
explicit quadratic phase:

    g[x, y] = C(x, y) * U (U^{-1} g)[sigma(x, y)],
    C(x, y) = e^{-pi i (alpha gamma x^2 + beta delta y^2)(L+1)/L}
              e^{-2 pi i beta gamma x y / L}.

The parameters derive from a Bezout-type search; the search prefers
choices under which sigma maps the lattice onto the rectangle with the
*same* frequency step p (possible iff gcd(p, L/(2p)) divides b), because
only then do the Wilson index sets of the two lattices line up.

The continuous-domain analogue U = D_{1/d} o F o N_{-b/d} o F^{-1} (for a
canonical real lattice [[a, b], [0, d]] of volume 1/2) is discretized on
the sqrt(L)-spaced grid for the demonstration pipeline; it sends the
lattice {(ma+nb, nd)} onto {(m/2, n)} through A = [[d, -b], [0, 2a]].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .ring import CanonicalFinite, CanonicalReal, LatticeError
from .signal import DiscreteWindow, as_window, centered_dft

UNITARY_TOL = 1e-9


class ParameterSearchError(ValueError):
    """No admissible symplectic parameters in the search box."""


@dataclass(frozen=True)
class SigmaParams:
    """Symplectic reindexing bundle for a finite lattice (L, p, b).

    alpha..delta are the exact integers of the symplectic matrix (alpha
    delta - beta gamma = 1 over Z, not just mod L); m0, n0 the Bezout pair
    with alpha*(L/2p)*m0 + (alpha b + beta p)*n0 = gcd_c; s = gcd_c and
    t = -(L/(2p) m0 + b n0)(p n0)/s; lcm_d is the signed product
    alpha*(L/2p)*(alpha b + beta p)/gcd_c.  ``aligned`` records whether
    sigma maps the lattice onto the rectangle with the same p;
    ``sign_adjusted`` whether the preferred sign conditions had to be
    dropped (gamma, delta absorb the change of signs).
    """

    alpha: int
    beta: int
    gamma: int
    delta: int
    m0: int
    n0: int
    gcd_c: int
    lcm_d: int
    s: int
    t: int
    L: int
    p: int
    b: int
    aligned: bool = True
    sign_adjusted: bool = False

    def __post_init__(self):
        if abs(self.alpha) != 1:
            raise LatticeError("|alpha| must be 1")
        if self.alpha * self.delta - self.beta * self.gamma != 1:
            raise LatticeError("sigma is not symplectic")

    @property
    def q(self) -> int:
        """Frequency step of the rectangular image lattice (L, q, 0)."""
        return self.L // (2 * self.gcd_c)

    def map_point(self, x: int, y: int) -> tuple[int, int]:
        """sigma applied to a point of Z_L x Z_L."""
        return ((self.alpha * x + self.beta * y) % self.L,
                (self.gamma * x + self.delta * y) % self.L)

    def to_json(self) -> dict:
        return {"L": self.L, "p": self.p, "b": self.b,
                "alpha": self.alpha, "beta": self.beta,
                "gamma": self.gamma, "delta": self.delta,
                "m0": self.m0, "n0": self.n0,
                "c": self.gcd_c, "d": self.lcm_d, "s": self.s, "t": self.t,
                "q": self.q, "aligned": self.aligned,
                "sign_adjusted": self.sign_adjusted}


def _phase(numer: int, L: int) -> complex:
    """e^{-pi i numer / L} with the integer exponent reduced mod 2L.

    Keeping the exponent small before the float multiply keeps the phases
    at machine precision even when the raw integers are huge.
    """
    return np.exp(-1j * np.pi * (numer % (2 * L)) / L)


def intertwining_phase(sp: SigmaParams, x: int, y: int) -> complex:
    """C(x, y) for the lattice point (x, y) = (m L/(2p) + n b, n p)."""
    L = sp.L
    e = (sp.alpha * sp.gamma * x * x + sp.beta * sp.delta * y * y) * (L + 1) \
        + 2 * sp.beta * sp.gamma * x * y
    return _phase(e, L)


@lru_cache(maxsize=4)
def metaplectic_matrix(sp: SigmaParams) -> np.ndarray:
    """The unitary U with U f(k) = sum_l f(alpha k + beta l) psi(k, l) / scale.

    The raw kernel sum is proportional to a unitary matrix; the scale is
    fixed by normalizing (for beta = 0 the l-sum is degenerate and
    contributes a factor L).  Raises if the raw sum degenerates, which
    happens for parameter choices whose quadratic phase collapses to a
    pure character.  The returned array is cached and read-only.
    """
    L = sp.L
    raw = _raw_metaplectic(sp)
    G = raw @ raw.conj().T
    scale2 = float(np.mean(np.real(np.diag(G))))
    if scale2 <= 1e-12 or np.max(np.abs(G - scale2 * np.eye(L))) > UNITARY_TOL * scale2:
        raise ParameterSearchError("metaplectic kernel is not proportional to a unitary")
    U = raw / np.sqrt(scale2)
    U.setflags(write=False)
    return U


def _raw_metaplectic(sp: SigmaParams) -> np.ndarray:
    L = sp.L
    al, be, ga, de = sp.alpha, sp.beta, sp.gamma, sp.delta
    U = np.zeros((L, L), dtype=complex)
    ks = np.arange(L)
    for l in range(L):
        cols = (al * ks + be * l) % L
        exps = ((al * ga * ks * ks + be * de * l * l) * (L + 1) + 2 * be * ga * ks * l) % (2 * L)
        U[ks, cols] += np.exp(-1j * np.pi * exps / L)
    return U


def meta_finite(f, sp: SigmaParams) -> np.ndarray:
    """Apply the normalized metaplectic unitary to a window."""
    f = as_window(f)
    if len(f) != sp.L:
        raise ValueError("window length does not match the lattice")
    return metaplectic_matrix(sp) @ f


def _identity_params(lat: CanonicalFinite) -> SigmaParams:
    # b = 0: the lattice is already rectangular; sigma = id, U = id, and the
    # Bezout data degenerates (n0 = 0 makes the generic formulas undefined).
    c = lat.time_step
    return SigmaParams(alpha=1, beta=0, gamma=0, delta=1, m0=1, n0=0,
                       gcd_c=c, lcm_d=c, s=c, t=0,
                       L=lat.L, p=lat.p, b=0, aligned=True, sign_adjusted=False)


def _candidates(lat: CanonicalFinite, box: int):
    """Admissible parameter tuples sorted by preference.

    Preference order: image lattice aligned with (L, p, 0) first, then
    larger gcd_c, satisfied sign conditions, small |beta|, |m0|, |n0|,
    alpha = +1, and finally plain lexicographic order for determinism.
    """
    L, p, b = lat.L, lat.p, lat.b
    u = lat.time_step
    out = []
    for alpha in (1, -1):
        for beta in range(-box, box + 1):
            v = alpha * b + beta * p
            if v == 0:
                continue
            c = gcd(u, abs(v))
            for n0 in range(-box, box + 1):
                if n0 == 0:
                    continue
                num = c - v * n0
                if num % (alpha * u):
                    continue
                m0 = num // (alpha * u)
                if abs(m0) > box:
                    continue
                x0 = u * m0 + b * n0
                if x0 == 0:
                    continue
                y0 = p * n0
                s = gcd(abs(x0), abs(y0))
                if s != c:
                    continue
                sign_ok = (x0 * y0 < 0) and ((alpha * u) * v > 0)
                key = (0 if c == u else 1, -c, not sign_ok,
                       abs(beta), abs(m0), abs(n0), alpha != 1, beta, m0, n0)
                t = -(x0 * y0) // s
                params = SigmaParams(alpha=alpha, beta=beta,
                                     gamma=-y0 // s, delta=x0 // s,
                                     m0=m0, n0=n0, gcd_c=c,
                                     lcm_d=(alpha * u) * v // c, s=s, t=t,
                                     L=L, p=p, b=b,
                                     aligned=(c == u), sign_adjusted=not sign_ok)
                out.append((key, params))
    out.sort(key=lambda kp: kp[0])
    return [params for _, params in out]


@lru_cache(maxsize=512)
def sigma_params(lat: CanonicalFinite, box: int | None = None) -> SigmaParams:
    """Search the symplectic parameter bundle for a canonical lattice.

    For b = 0 returns the documented identity bundle.  Otherwise walks the
    preference-ordered candidates in a box (default [-2L, 2L] for beta,
    m0, n0, |alpha| = 1) and returns the first whose metaplectic kernel is
    proportional to a unitary.
    """
    if lat.b == 0:
        return _identity_params(lat)
    box = 2 * lat.L if box is None else box
    for params in _candidates(lat, box):
        try:
            metaplectic_matrix(params)
        except ParameterSearchError:
            continue
        return params
    raise ParameterSearchError(
        f"no admissible symplectic parameters for (L, p, b) = "
        f"({lat.L}, {lat.p}, {lat.b}) in box [-{box}, {box}]")


def chirp_discrete(f: DiscreteWindow, n0: int, c: int, N: int) -> DiscreteWindow:
    """Pointwise chirp U f(k) = f(k) e^{pi i (n0/(c N)) k^2} on a sequence."""
    if c == 0 or N == 0:
        raise ValueError("c and N must be nonzero")
    k = np.arange(f.start, f.stop)
    return DiscreteWindow(f.start, f.values * np.exp(1j * np.pi * n0 * k * k / (c * N)))


# -- continuous factorization ------------------------------------------------

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


def _trig_resample(f: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Evaluate the centered trigonometric interpolant at real grid positions."""
    L = len(f)
    F = centered_dft(f)
    j = np.arange(L) - L / 2
    ker = np.exp(2j * np.pi * np.outer(positions - L / 2, j) / L)
    return ker @ F / np.sqrt(L)


def _dilate(f: np.ndarray, scale: float) -> np.ndarray:
    """D_{1/scale} f on the grid: new(t) = |1/scale|^{1/2} f(t / scale)."""
    L = len(f)
    u = (np.arange(L) - L / 2) / scale + L / 2
    return _trig_resample(f, u) / np.sqrt(abs(scale))


def apply_continuous_U(f, lat, inverse: bool = False) -> np.ndarray:
    """Discretized U = D_{1/d} o F o N_{-b/d} o F^{-1} on the sqrt(L) grid.

    ``lat`` is a CanonicalReal or an (a, b, d) triple with a d = 1/2.  The
    grid samples f at t_k = (k - L/2)/sqrt(L); the chirp is the sample
    multiplication e^{+pi i (b/d) t^2} and the dilation is DFT-domain
    resampling with periodic sinc interpolation.  ``inverse`` applies
    U^{-1} = F o N_{b/d} o F^{-1} o D_d.
    """
    f = as_window(f)
    L = len(f)
    root = np.sqrt(L)
    if isinstance(lat, CanonicalReal):
        a, b, d = float(lat.a), float(lat.b), float(lat.d)
    else:
        a, b, d = (float(v) for v in lat)
    if d == 0:
        raise LatticeError("d must be nonzero")
    t = (np.arange(L) - L / 2) / root
    chirp = np.exp(1j * np.pi * (b / d) * t * t)
    if not inverse:
        out = centered_dft(f, inverse=True)
        out = out * chirp
        out = centered_dft(out)
        return _dilate(out, d)
    out = _dilate(f, 1.0 / d)
    out = centered_dft(out, inverse=True)
    out = out * np.conj(chirp)
    return centered_dft(out)
