"""Dense and literal oracles for the metaplectic layer, the sequence
setting and the continuous factorization data that only the tests use.

``dense_metaplectic`` is the kernel sum U f(k) = sum_l f(alpha k + beta l)
psi(k, l) normalized to a unitary, the definition that the factored
``wilsonlat.metaplectic`` operator is checked against; ``candidates`` lists
every candidate of the box in preference order, one level c at a time, and
``box_search`` walks the whole (4L+1)-wide beta box by level c and |beta|,
the search that ``sigma_params`` must reproduce from residue classes;
``phi_params_finite`` and ``phi_params_discrete`` are the unimodular index
maps phi of the finite Wilson gather and of the sequence lattice;
``correlation_sums_discrete`` is the sequence correlation fold without
the conjugate, and ``gram_discrete`` / ``periodized_gram`` are the
counting-measure Grams of sequence families.  ``canonical_lattices``
enumerates the canonical (or only the sheared) lattices of given lengths
in one fixed order, and ``numeric_unit_constant`` is the kernel-row probe of
the transport constant that the Gauss-sum phase replaced.
``trig_resample`` evaluates the centered trigonometric interpolant
through the L x L kernel that the chirp-z ``metaplectic._dilate``
replaces.

``metaplectic_matrix`` materializes the factored ``meta_finite`` operator
column by column, ``gram`` is the dense Wilson Gram, ``symmetrize`` the
projection onto windows with a real spectrum and ``norm2`` the counting
norm of a finitely supported sequence.

``herm_inv_sqrt`` is the dense eigensolver that the frame-symbol
``tighten`` is checked against, and ``is_tight`` the entrywise tightness
verdict of the dense frame operator.  ``idft``, ``inner`` and ``norm`` are
the inverse DFT and the normalized inner product and norm of the C^L
conventions in ``wilsonlat.signal``; ``wilson_element`` reads one Wilson
element from the gathered basis.

Lattice ambiguity function.  With pi(x, y) g = tf_shift(g, x, y),

    <pi(x1, y1) g, pi(x2, y2) g> = e^{2 pi i x2 (y1 - y2) / L} V(x1 - x2, y1 - y2),
    V(x, y) = <pi(x, y) g, g> = L^-2 sum_w G(w) conj G(w + y) e^{-2 pi i x w / L},

and Lambda - Lambda = Lambda, so the 2L values of V on the lattice hold
the whole 2L x 2L Gabor Gram.  On row l (x = k q + l b, y = l p) the
factor e^{-2 pi i k q w / L} depends only on r = w mod 2p, and with
w = 2pj + r the sum over j is a chirp-modulated correlation of the blocks
V_e of ``wilsonlat.zak``, which the chirp turns into a plain correlation
of the W_e:

    C_{2s}     = e^{2 pi i b s^2/q} fft_j(|W_0|^2)[s] / q,
    C_{2s'-1}  = e^{2 pi i b s'^2/q} fft_j(roll_j(W_0, b) conj W_1)[s' mod q] / q,
    V(k q + l b, l p) = L^-2 fft_r(e^{-2 pi i l b r / L} C_l)[k],

one length-q FFT along j and one length-2p FFT along r (``ambiguity_table``).

Entrywise Gram scan.  Wilson element i is c_0^i pi(lambda_0^i) g +
c_1^i pi(lambda_1^i) g, so every Gram entry is at most four lattice values
of V:

    G_ij = sum_{s,t} c_s^i conj(c_t^j) e^{2 pi i x_t^j (y_s^i - y_t^j) / L}
           V(lambda_s^i - lambda_t^j),   lambda = (x, y).

``scan_gram_deviation`` reduces every atom to table coordinates (k mod 2p,
l mod L/p), reads V(lambda_s - lambda_t) from a (4p, 2L/p) table of
differences through one index subtraction, and scans max|G - I| over
row blocks on and right of the diagonal (G is Hermitian) whose four terms
hold about ``SCAN_BLOCK`` entries, and at most max(SCAN_BLOCK, 4L) when one
row is wider: O(L^2) time and O(L) memory, no L x L array.  It is the
entrywise oracle beside the dense ``gram``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from math import gcd

import numpy as np

from wilsonlat.gabor import tightness_deviation
from wilsonlat.metaplectic import (ParameterSearchError, SigmaParams, _admissible, _chirp,
                                   _shears, _unit_constant)
from wilsonlat.ring import CanonicalFinite, CanonicalReal, LatticeError, ext_gcd
from wilsonlat.signal import COND_FLOOR, DEFAULT_TOL, DiscreteWindow, as_window, centered_dft
from wilsonlat.wilson import WilsonSystem
from wilsonlat.zak import frame_symbol

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-9
# complex entries per temporary of the Gram scan (module docstring)
SCAN_BLOCK = 1 << 14


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


def numeric_unit_constant(sp: SigmaParams) -> complex:
    """c with U = c W from the first kernel row r(beta l) += chi_{beta delta}(l),
    which must be parallel to the first row of W (else: not unitary); the
    numeric probe that the Gauss-sum phase ``_unit_constant`` replaces."""
    L = sp.L
    w = _chirp(sp.beta * sp.delta, L)
    cols = sp.beta * np.arange(L) % L
    row = np.bincount(cols, w.real, L) + 1j * np.bincount(cols, w.imag, L)
    z = complex(row @ _shears(np.eye(1, L, dtype=complex)[0], sp, inverse=True))
    if not abs(z) > (1 - UNITARY_TOL) * np.linalg.norm(row):
        raise ParameterSearchError("metaplectic kernel is not proportional to a unitary")
    return z / abs(z)


def metaplectic_matrix(sp: SigmaParams) -> np.ndarray:
    """Dense U (column k = U e_k) from the factored operator."""
    return (_unit_constant(sp) * _shears(np.eye(sp.L, dtype=complex), sp, False)).T


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


def canonical_lattices(Ls, sheared: bool = False) -> list[CanonicalFinite]:
    """Every canonical lattice (L, p, b) with L in Ls, in (L, p, b) order;
    with ``sheared`` only b >= 1."""
    return [CanonicalFinite(L, p, b) for L in Ls
            for p in range(1, L // 2 + 1) if (L // 2) % p == 0
            for b in range(int(sheared), L // (2 * p))]


def candidates(lat: CanonicalFinite, box: int):
    """Every candidate in the box, sorted by preference and yielded lazily;
    admissibility is left to the caller.

    Preference order: larger gcd_c first (the image lattice aligned with
    (L, p, 0) has the largest), then satisfied sign conditions, small
    |beta|, |m0|, |n0|, alpha = +1, and finally plain lexicographic order
    for determinism.  One level c is built and sorted at a time: the rows
    (alpha, beta) of the box with gcd(u, |v|) = c against every n0 of the
    box, filtered literally (no Bezout progression).
    """
    L, p, b = lat.L, lat.p, lat.b
    u = lat.time_step
    box_range = np.arange(-box, box + 1)
    row_alpha, row_beta = np.repeat([1, -1], len(box_range)), np.tile(box_range, 2)
    row_v = row_alpha * b + row_beta * p
    row_c = np.gcd(u, row_v) * (row_v != 0)  # 0: v = 0, a row without candidates
    for c in sorted(set(row_c.tolist()) - {0}, reverse=True):
        alpha, beta, n0 = np.broadcast_arrays(row_alpha[row_c == c, None],
                                              row_beta[row_c == c, None], box_range)
        v = alpha * b + beta * p
        num = c - v * n0
        ok = (n0 != 0) & (num % (alpha * u) == 0)
        m0 = num // (alpha * u)
        x0 = u * m0 + b * n0
        y0 = p * n0
        ok &= (np.abs(m0) <= box) & (x0 != 0)
        ok[ok] = np.gcd(x0[ok], y0[ok]) == c
        alpha, beta, v, m0, n0, x0, y0 = (w[ok] for w in (alpha, beta, v, m0, n0, x0, y0))
        sign_ok = (x0 * y0 < 0) & (alpha * u * v > 0)
        order = np.lexsort((n0, m0, beta, alpha != 1, np.abs(n0), np.abs(m0), np.abs(beta),
                            ~sign_ok))
        for alpha_, beta_, x0_, y0_ in zip(*(w[order].tolist() for w in (alpha, beta, x0, y0))):
            yield SigmaParams(alpha_, beta_, -y0_ // c, x0_ // c, L, p, b)


def _box_row_candidates(lat: CanonicalFinite, box: int, alpha: int, beta: int) -> np.ndarray:
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


def _box_pick(lat: CanonicalFinite, c: int, cands: np.ndarray) -> SigmaParams:
    """The preferred column: small |m0|, |n0|, alpha = +1, then (beta, m0, n0)."""
    i = np.lexsort((cands[3], cands[2], cands[1], cands[0] != 1,
                    np.abs(cands[3]), np.abs(cands[2])))[0]
    alpha, beta, _, _, x0, y0, _ = (int(x) for x in cands[:, i])
    return SigmaParams(alpha, beta, -y0 // c, x0 // c, lat.L, lat.p, lat.b)


def box_search(lat: CanonicalFinite, box: int) -> SigmaParams:
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
        cands = np.concatenate([_box_row_candidates(lat, box, int(alpha[r]), int(beta[r]))
                                for r in rows], axis=1)
        ok = cands[6] == 1
        if ok.any():
            return _box_pick(lat, cr, cands[:, ok])
        if cands.shape[1] and fallback is None:
            fallback = _box_pick(lat, cr, cands)
    if fallback is not None:
        return fallback
    raise ParameterSearchError(
        f"no admissible symplectic parameters for (L, p, b) = "
        f"({L}, {p}, {b}) in box [-{box}, {box}]")


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


def trig_resample(f: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Evaluate the centered trigonometric interpolant at real grid positions."""
    L = len(f)
    F = centered_dft(f)
    j = np.arange(L) - L / 2
    ker = np.exp(2j * np.pi * np.outer(positions - L / 2, j) / L)
    return ker @ F / np.sqrt(L)


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


# -- dense eigensolver, vectors, windows, single elements and points -------

class OperatorError(ValueError):
    """Operator input violates a precondition (not Hermitian, singular...)."""


def is_hermitian(M: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    return bool(np.max(np.abs(M - M.conj().T)) <= tol * max(1.0, np.max(np.abs(M))))


def herm_inv_sqrt(S: np.ndarray) -> np.ndarray:
    """Inverse square root of a Hermitian positive definite matrix.

    The result R is Hermitian and satisfies R S R = I.  Dense oracle for
    the frame-symbol path of :func:`wilsonlat.gabor.tighten`.
    """
    S = np.asarray(S, dtype=complex)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise OperatorError("matrix must be square")
    if not is_hermitian(S):
        raise OperatorError("matrix is not Hermitian")
    w, V = np.linalg.eigh(S)
    if w[0] <= COND_FLOOR * w[-1] or w[-1] <= 0:
        raise OperatorError("frame lower bound ≈ 0")
    R = (V * (1.0 / np.sqrt(w))) @ V.conj().T
    return 0.5 * (R + R.conj().T)


def value_at(w: DiscreteWindow, l: int) -> complex:
    """w(l), zero off the support."""
    if w.start <= l < w.stop:
        return complex(w.values[l - w.start])
    return 0j


def ft_at(w: DiscreteWindow, t) -> np.ndarray:
    """Fourier series sum_l w(l) e^{-2 pi i l t} at real arguments t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    l = np.arange(w.start, w.stop)
    return (w.values[None, :] * np.exp(-2j * np.pi * np.outer(t, l))).sum(axis=1)


def gabor_element(E: np.ndarray, lat: CanonicalFinite, m: int, n: int) -> np.ndarray:
    """Element (m, n) of the Gabor family E = ``gabor_system(g, lat)``."""
    N = lat.L // lat.p
    return E[(m % (2 * lat.p)) * N + (n % N)]


def wilson_element(sys: WilsonSystem, m: int, n: int) -> np.ndarray:
    q, top = sys.params.q, sys.params.gcd_c
    if not (0 <= n <= top and 0 <= m < (q if n in (0, top) else 2 * q)):
        raise ValueError(f"({m}, {n}) is not a Wilson index of {sys.lattice}")
    return sys.basis[m + max(2 * n - 1, 0) * q]


def scaled(w: DiscreteWindow, c: complex) -> DiscreteWindow:
    return DiscreteWindow(w.start, c * w.values)


def norm2(w: DiscreteWindow) -> float:
    """sum |w(l)|^2 over the support (counting measure)."""
    return float(np.sum(np.abs(w.values) ** 2))


def symmetrize(g) -> np.ndarray:
    """Project onto windows with real-valued DFT: average g(l) with conj(g(-l))."""
    g = as_window(g)
    L = len(g)
    return 0.5 * (g + np.conj(g[(-np.arange(L)) % L]))


def gram(sys_or_basis) -> np.ndarray:
    """Gram matrix under the normalized C^L inner product."""
    B = sys_or_basis.basis if isinstance(sys_or_basis, WilsonSystem) else np.asarray(sys_or_basis)
    return B @ B.conj().T / B.shape[1]


def idft(F) -> np.ndarray:
    F = as_window(F)
    return np.fft.ifft(F) * len(F)


def inner(f, g) -> complex:
    f, g = as_window(f), as_window(g)
    if len(f) != len(g):
        raise ValueError("length mismatch")
    return complex(np.vdot(g, f) / len(f))


def norm(f) -> float:
    return float(np.sqrt(abs(inner(f, f))))


def is_tight(E: np.ndarray, bound: float = 2.0, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise tightness verdict for the Gabor family E = ``gabor_system(g, lat)``."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return tightness_deviation(E, bound) <= tol


def map_point(sp: SigmaParams, x: int, y: int) -> tuple[int, int]:
    """sigma applied to a point of Z_L x Z_L."""
    return ((sp.alpha * x + sp.beta * y) % sp.L, (sp.gamma * x + sp.delta * y) % sp.L)


def intertwining_phase(sp: SigmaParams, x: int, y: int) -> complex:
    """C(x, y) for the lattice point (x, y) = (m L/(2p) + n b, n p), with
    the exponent reduced mod 2L before the float multiply."""
    L = sp.L
    e = (sp.alpha * sp.gamma * x * x + sp.beta * sp.delta * y * y) * (L + 1) \
        + 2 * sp.beta * sp.gamma * x * y
    return np.exp(-1j * np.pi * (e % (2 * L)) / L)


# -- lattice ambiguity table and the entrywise Gram scan ---------------------

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


def scan_gram_deviation(sys: WilsonSystem) -> float:
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
