"""Symplectic reindexing of lattices and the unitaries that implement it.

For a canonical finite lattice (L, p, b) there is an integer matrix
sigma = [[alpha, beta], [gamma, delta]] with alpha delta - beta gamma = 1
mapping the lattice points onto a rectangular lattice, and a unitary U
on C^L intertwining the corresponding time-frequency shifts up to an
explicit quadratic phase:

    g[x, y] = C(x, y) * U (U^{-1} g)[sigma(x, y)],
    C(x, y) = e^{-pi i (alpha gamma x^2 + beta delta y^2)(L+1)/L}
              e^{-2 pi i beta gamma x y / L}.

U is the normalized kernel sum U f(k) = sum_l f(alpha k + beta l) psi(k, l),
psi the phase of C at (k, l).

Search.  A candidate is a row (alpha, beta), |alpha| = 1, v = alpha b +
beta p != 0, c = gcd(L/(2p), |v|), with a Bezout pair (m0, n0) solving
alpha (L/2p) m0 + v n0 = c.  Preference: larger c (c = L/(2p) maps onto
the rectangle with the *same* p, possible iff gcd(p, L/(2p)) | b, and only
then do the Wilson index sets line up), the sign conditions, small |beta|,
|m0|, |n0|, alpha = +1, then (beta, m0, n0).  The kernel of a candidate is
proportional to a unitary unless beta != 0 and v2(beta) = v2(L), v2 the
exponent of 2 (its Gauss sums vanish; checked against the dense test, not
proven here).  The search ranks every beta of the box by c at once, visits
the rows of largest c in order of |beta|, solves each row for all n0 at
once and stops at the first row that meets the sign conditions.

Transport.  Through the shears sigma = [[alpha, 0], [gamma, alpha]]
[[1, alpha beta], [0, 1]] (Feichtinger, Hazewinkel, Kaiblinger, Matusiak,
Neuhauser, "Metaplectic operators on C^n", QJM 2008)

    U = c F^H diag(chi_{-alpha beta}) F P_alpha diag(chi_{alpha gamma}),
    chi_t(k) = e^{-pi i t (L+1) k^2 / L},   P_alpha f(k) = f(alpha k),

F the unitary DFT and |c| = 1 read from the first kernel row: O(L log L),
no L x L array.

The continuous-domain analogue U = D_{1/d} o F o N_{-b/d} o F^{-1} (for a
canonical real lattice [[a, b], [0, d]] of volume 1/2) is discretized on
the sqrt(L)-spaced grid for the demonstration pipeline; it sends the
lattice {(ma+nb, nd)} onto {(m/2, n)} through A = [[d, -b], [0, 2a]].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from math import gcd

import numpy as np

from .ring import CanonicalFinite, CanonicalReal, LatticeError
from .signal import as_window, centered_dft

UNITARY_TOL = 1e-9


class ParameterSearchError(ValueError):
    """No admissible symplectic parameters in the search box, or a bundle
    whose kernel sum is not proportional to a unitary."""


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


def _phase(numer, L: int):
    """e^{-pi i numer / L} with the integer exponent reduced mod 2L (ints
    or integer arrays).

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


def _admissible(beta, L: int):
    """False exactly when beta != 0 and v2(beta) = v2(L); ints or arrays."""
    two = L & -L  # 2^{v2(L)}
    return beta % (2 * two) != two


def _chirp(t: int, L: int) -> np.ndarray:
    """chi_t(k) = e^{-pi i t (L+1) k^2 / L} for k = 0..L-1."""
    k = np.arange(L)
    return _phase(t * (L + 1) % (2 * L) * (k * k % (2 * L)), L)


def _shears(f: np.ndarray, sp: SigmaParams, inverse: bool) -> np.ndarray:
    """W = F^H diag(chi_{-alpha beta}) F P_alpha diag(chi_{alpha gamma}) (or W^H)
    along the last axis: U = c W."""
    L = sp.L
    outer = _chirp(sp.alpha * sp.gamma, L)
    inner = _chirp(-sp.alpha * sp.beta, L) if sp.beta else None
    flip = -np.arange(L) % L if sp.alpha == -1 else slice(None)
    if inverse:
        if inner is not None:
            f = np.fft.ifft(np.fft.fft(f) * inner.conj())
        return f[..., flip] * outer.conj()
    f = (f * outer)[..., flip]
    return f if inner is None else np.fft.ifft(np.fft.fft(f) * inner)


@lru_cache(maxsize=512)
def _unit_constant(sp: SigmaParams) -> complex:
    """c with U = c W from the first kernel row r(beta l) += chi_{beta delta}(l),
    which must be parallel to the first row of W (else: not unitary).
    Cached per bundle, as :func:`sigma_params` is per lattice."""
    L = sp.L
    w = _chirp(sp.beta * sp.delta, L)
    cols = sp.beta * np.arange(L) % L
    row = np.bincount(cols, w.real, L) + 1j * np.bincount(cols, w.imag, L)
    z = complex(row @ _shears(np.eye(1, L, dtype=complex)[0], sp, inverse=True))
    if not abs(z) > (1 - UNITARY_TOL) * np.linalg.norm(row):
        raise ParameterSearchError("metaplectic kernel is not proportional to a unitary")
    return z / abs(z)


def meta_finite(f, sp: SigmaParams, inverse: bool = False) -> np.ndarray:
    """U f (or U^H f) through two chirps and one FFT pair, O(L log L)."""
    f = as_window(f, sp.L)
    c = _unit_constant(sp)
    return (c.conjugate() if inverse else c) * _shears(f, sp, inverse)


def metaplectic_matrix(sp: SigmaParams) -> np.ndarray:
    """Dense U (column k = U e_k) from the factored operator: a small-L
    oracle; production code applies U through :func:`meta_finite`."""
    return (_unit_constant(sp) * _shears(np.eye(sp.L, dtype=complex), sp, False)).T


def _identity_params(lat: CanonicalFinite) -> SigmaParams:
    # b = 0: the lattice is already rectangular; sigma = id, U = id, and the
    # Bezout data degenerates (n0 = 0 makes the generic formulas undefined).
    c = lat.time_step
    return SigmaParams(alpha=1, beta=0, gamma=0, delta=1, m0=1, n0=0,
                       gcd_c=c, lcm_d=c, s=c, t=0,
                       L=lat.L, p=lat.p, b=0, aligned=True, sign_adjusted=False)


def _row_candidates(lat: CanonicalFinite, box: int, alpha: int, beta: int) -> np.ndarray:
    """Columns (alpha, beta, m0, n0, x0, y0, sign_ok) of the row's valid
    candidates in the box: n0 = (v/c)^{-1} mod u/c, m0 moving by -alpha v/c."""
    u, p, b = lat.time_step, lat.p, lat.b
    v = alpha * b + beta * p
    c = gcd(u, abs(v))
    step = u // c
    first = pow(v // c, -1, step) if step > 1 else 0
    j = np.arange(-((box + first) // step), (box - first) // step + 1)
    n0 = first + step * j
    m0 = (c - v * first) // (alpha * u) - alpha * (v // c) * j
    x0 = u * m0 + b * n0
    y0 = p * n0
    keep = (n0 != 0) & (np.abs(m0) <= box) & (x0 != 0)
    keep[keep] = np.gcd(x0[keep], y0[keep]) == c
    sign_ok = ((x0 < 0) != (y0 < 0)) & (alpha * v > 0)
    cols = np.broadcast_arrays(alpha, beta, m0, n0, x0, y0, sign_ok)
    return np.array(cols, dtype=np.int64)[:, keep]


def _pick(lat: CanonicalFinite, c: int, cands: np.ndarray) -> SigmaParams:
    """The preferred column: small |m0|, |n0|, alpha = +1, then (beta, m0, n0)."""
    i = np.lexsort((cands[3], cands[2], cands[1], cands[0] != 1,
                    np.abs(cands[3]), np.abs(cands[2])))[0]
    alpha, beta, m0, n0, x0, y0, sign_ok = (int(x) for x in cands[:, i])
    return SigmaParams(alpha=alpha, beta=beta, gamma=-y0 // c, delta=x0 // c,
                       m0=m0, n0=n0, gcd_c=c,
                       lcm_d=alpha * lat.time_step * (alpha * lat.b + beta * lat.p) // c,
                       s=c, t=-(x0 * y0) // c, L=lat.L, p=lat.p, b=lat.b,
                       aligned=(c == lat.time_step), sign_adjusted=not sign_ok)


def _search(lat: CanonicalFinite, box: int) -> SigmaParams:
    """The first admissible candidate in the preference order: rows by -c,
    then |beta|; the first sign-ok candidate wins, and if the largest c with
    candidates has none, its first candidate does (sign_adjusted)."""
    L, p, b, u = lat.L, lat.p, lat.b, lat.time_step
    beta = np.arange(-box, box + 1)
    alpha = np.repeat([1, -1], len(beta))
    beta = np.tile(beta, 2)
    v = alpha * b + beta * p
    keep = (v != 0) & _admissible(beta, L)
    alpha, beta, c = alpha[keep], beta[keep], np.gcd(u, v[keep])
    order = np.lexsort((np.abs(beta), -c))
    fallback = None
    for (cr, _), rows in groupby(order, key=lambda r: (int(c[r]), abs(beta[r]))):
        if fallback is not None and cr != fallback.gcd_c:
            return fallback
        cands = np.concatenate([_row_candidates(lat, box, int(alpha[r]), int(beta[r]))
                                for r in rows], axis=1)
        ok = cands[6] == 1
        if ok.any():
            return _pick(lat, cr, cands[:, ok])
        if cands.shape[1] and fallback is None:
            fallback = _pick(lat, cr, cands)
    if fallback is not None:
        return fallback
    raise ParameterSearchError(
        f"no admissible symplectic parameters for (L, p, b) = "
        f"({L}, {p}, {b}) in box [-{box}, {box}]")


@lru_cache(maxsize=512)
def sigma_params(lat: CanonicalFinite, box: int | None = None) -> SigmaParams:
    """Search the symplectic parameter bundle for a canonical lattice.

    For b = 0 returns the documented identity bundle.  Otherwise returns
    the preferred admissible candidate with beta, m0, n0 in the box
    (default [-2L, 2L]) and |alpha| = 1.
    """
    if lat.b == 0:
        return _identity_params(lat)
    return _search(lat, 2 * lat.L if box is None else box)


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
