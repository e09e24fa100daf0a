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
beta p != 0, c = gcd(u, |v|), u = L/(2p), with a Bezout pair (m0, n0)
solving alpha u m0 + v n0 = c and gcd(x0, y0) = c, x0 = u m0 + b n0,
y0 = p n0, beta, m0 and n0 in the box [-2L, 2L].  Preference: larger c
(c = u maps onto the rectangle with the *same* p, possible iff
gcd(p, u) | b: the aligned case), the sign conditions, small |beta|,
|m0|, |n0|, alpha = +1, then (beta, m0, n0).
The kernel of a candidate is proportional to a unitary unless beta != 0
and v2(beta) = v2(L), v2 the exponent of 2.  Proof: with g = gcd(beta, L),
the l of one column (alpha k + beta l = j) form a coset l0 + m L/g, m < g,
on which psi(k, l) = psi(k, l0) (-1)^{m^2 (beta/g)(L/g) delta (L+1)} (the
cross terms are whole turns).  If v2(beta) = v2(L), then beta/g, L/g and
delta (alpha delta = 1 + beta gamma, beta even) are odd and g is even, so
every entry is a sum of g alternating signs: the kernel is 0.  Otherwise
(beta/g)(L/g) is even, every term is 1, and the kernel's corner is g > 0.
Its Gauss sum G (Transport) vanishes on the same set: with t = alpha
beta, gcd(t (L+1), L) = g, and G = 0 exactly when a' = t (L+1)/g and
n' = L/g are both odd, that is when v2(t) = v2(L), L being even.
The search visits residue classes, never the whole box: the levels c
are the divisors of u, largest first; c | b + beta p puts the rows of a
level in one class of beta mod m = c/gcd(c, p), taken by |beta| up to
the last |beta| whose |m0| >= (|v| m - c)/u can be in the box;
gcd(x0, y0) = gcd(c, p n0) = c puts n0 in the class m (m v/c)^{-1} mod
m u/c (none unless gcd(m, u/c) = 1).  |m0| = |c - v n0|/u is V-shaped in
n0, and the sign conditions are constant between the zeros of n0 and
x0, so only columns within one step of c/v, of those zeros or of the box
edges can win: O(1) per row.
The row (-1, -beta) holds the columns of (1, beta) with (m0, n0)
negated, the same key but for alpha, so only alpha = +1 rows are visited.

Transport.  Through the shears sigma = [[alpha, 0], [gamma, alpha]]
[[1, alpha beta], [0, 1]] (Feichtinger, Hazewinkel, Kaiblinger, Matusiak,
Neuhauser, "Metaplectic operators on C^n", QJM 2008)

    U = c F^H diag(chi_{-alpha beta}) F P_alpha diag(chi_{alpha gamma}),
    chi_t(k) = e^{-pi i t (L+1) k^2 / L},   P_alpha f(k) = f(alpha k),

F the unitary DFT: O(L log L), no L x L array.  W e_0 = F^H chi_{-alpha beta}
/ sqrt(L), so W's corner is conj(G)/L with G = sum_{k<L} chi_{alpha beta}(k),
and the kernel's corner is g > 0 (above): c = G/|G|, an eighth root of
unity, and c = 1 at beta = 0.  G is the quadratic Gauss sum
S(a, n) = sum_{k<n} e^{pi i a k^2/n} at a = -t (L+1), n = L: S(a, n) =
g S(a/g, n/g) when (a/g)(n/g) is even, and 0 when it is odd (blocks of
n/g terms alternate in sign).  For coprime a, n with a n even, S(a, n)
depends on a mod 2n, S(-a, n) = conj S(a, n), and Landsberg-Schaar
reciprocity reads S(a, n)/sqrt(n) = e^{pi i/4} S(-n, a)/sqrt(a) for a > 0
(Berndt, Evans, Williams, "Gauss and Jacobi Sums", Wiley 1998, ch. 1).
So reducing a into (-n, n) and swapping (a, n) -> (-n, a) (one eighth
turn) or (n, -a) (minus one, a < 0) keeps gcd 1 and a n even, and ends
at n = 1, S = 1, in O(log L) integer steps: the count of eighth turns
is the phase of G.

The continuous-domain analogue U = D_{1/d} o F o N_{-b/d} o F^{-1} (for a
canonical real lattice [[a, b], [0, d]] of volume 1/2) is discretized on
the sqrt(L)-spaced grid for the demonstration pipeline; it sends the
lattice {(ma+nb, nd)} onto {(m/2, n)} through A = [[d, -b], [0, 2a]].
Its dilation is a chirp-z transform: O(L log L) time, O(L) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from ._numpy import np
from .ring import CanonicalFinite, CanonicalReal, LatticeError
from .signal import as_window, centered_dft

_EIGHTH = complex(0.5 ** 0.5, 0.5 ** 0.5)
_EIGHTH_ROOTS = (1 + 0j, _EIGHTH, 1j, 1j * _EIGHTH, -1 + 0j, -_EIGHTH, -1j, -1j * _EIGHTH)


class ParameterSearchError(ValueError):
    """No admissible symplectic parameters in the search box, or a bundle
    whose kernel sum vanishes (beta != 0 and v2(beta) = v2(L), module
    docstring), so is proportional to no unitary."""


@dataclass(frozen=True)
class SigmaParams:
    """Symplectic reindexing sigma = [[alpha, beta], [gamma, delta]] of a finite
    lattice (L, p, b): integers with |alpha| = 1 and alpha delta - beta gamma = 1
    over Z, not just mod L.  The rest follows from sigma and the lattice: with
    u = L/(2p) and v = alpha b + beta p, sigma maps the lattice onto (L, q, 0)
    with top row c = ``gcd_c`` = gcd(u, |v|) exactly when sigma^{-1}(c, 0) =
    (delta c, -gamma c) = (x0, y0) is a lattice point (u m0 + b n0, p n0), m0
    and n0 integers (else LatticeError), and then alpha u m0 + v n0 = c.
    ``lcm_d`` = alpha u v/c, and ``sign_adjusted`` tells whether the preferred
    signs (x0 y0 < 0, alpha v > 0) fail; at b = 0 the identity conventions
    lcm_d = c and sign_adjusted = False hold instead.
    """

    alpha: int
    beta: int
    gamma: int
    delta: int
    L: int
    p: int
    b: int

    def __post_init__(self):
        if abs(self.alpha) != 1 or self.alpha * self.delta - self.beta * self.gamma != 1:
            raise LatticeError("sigma is not symplectic with |alpha| = 1")
        if self.gamma * self.gcd_c % self.p or \
                (self.delta * self.gcd_c - self.b * self.n0) % (self.L // (2 * self.p)):
            raise LatticeError(f"sigma maps ({self.L}, {self.p}, {self.b}) onto no rectangle")

    @property
    def _v(self) -> int:
        return self.alpha * self.b + self.beta * self.p

    @property
    def gcd_c(self) -> int:
        return gcd(self.L // (2 * self.p), self._v)

    @property
    def n0(self) -> int:
        return -self.gamma * self.gcd_c // self.p

    @property
    def m0(self) -> int:
        return (self.delta * self.gcd_c - self.b * self.n0) // (self.L // (2 * self.p))

    @property
    def lcm_d(self) -> int:
        u = self.L // (2 * self.p)
        return self.alpha * u * self._v // self.gcd_c if self.b else self.gcd_c

    @property
    def sign_adjusted(self) -> bool:
        opposite = (self.delta < 0) != (self.gamma > 0)  # the signs of x0 and y0 differ
        return self.b != 0 and not (opposite and self.alpha * self._v > 0)

    @property
    def q(self) -> int:
        """Frequency step of the rectangular image lattice (L, q, 0)."""
        return self.L // (2 * self.gcd_c)

    @property
    def t(self) -> int:
        """-(L/(2p) m0 + b n0)(p n0)/gcd_c = gamma delta gcd_c."""
        return self.gamma * self.delta * self.gcd_c

    @property
    def aligned(self) -> bool:
        """Whether sigma maps the lattice onto the rectangle with the same p."""
        return self.gcd_c == self.L // (2 * self.p)

    def to_json(self) -> dict:
        return {"L": self.L, "p": self.p, "b": self.b,
                "alpha": self.alpha, "beta": self.beta,
                "gamma": self.gamma, "delta": self.delta,
                "m0": self.m0, "n0": self.n0,
                "c": self.gcd_c, "d": self.lcm_d, "s": self.gcd_c, "t": self.t,
                "q": self.q, "aligned": self.aligned,
                "sign_adjusted": self.sign_adjusted}


def _phase(numer, L: int):
    """e^{-pi i numer / L} with the integer exponent reduced mod 2L (ints
    or integer arrays).

    Keeping the exponent small before the float multiply keeps the phases
    at machine precision even when the raw integers are huge.
    """
    return np.exp(-1j * np.pi * (numer % (2 * L)) / L)


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


def _unit_constant(sp: SigmaParams) -> complex:
    """c with U = c W: the phase of the Gauss sum G = sum_k chi_{alpha beta}(k),
    by Landsberg-Schaar reciprocity in integers (module docstring), read as
    e^{pi i k/4} from a table in which 1, i, -1 and -i are exact."""
    g = gcd(sp.beta * (sp.L + 1), sp.L)
    a, n, eighths = -sp.alpha * sp.beta * (sp.L + 1) // g, sp.L // g, 0
    if a * n % 2:
        raise ParameterSearchError("metaplectic kernel is not proportional to a unitary")
    while a % (2 * n):
        a = (a + n) % (2 * n) - n  # into (-n, n): S(a, n) has period 2n in a
        eighths, a, n = (eighths + 1, -n, a) if a > 0 else (eighths - 1, n, -a)
    return _EIGHTH_ROOTS[eighths % 8]


def meta_finite(f, sp: SigmaParams, inverse: bool = False) -> np.ndarray:
    """U f (or U^H f) through two chirps and one FFT pair, O(L log L)."""
    f = as_window(f, sp.L)
    c = _unit_constant(sp)
    return (c.conjugate() if inverse else c) * _shears(f, sp, inverse)


def _beta_groups(r: int, m: int, top: int):
    """The betas = r (mod m) with |beta| <= top, grouped by increasing |beta|."""
    bases = sorted({r, -r % m})
    for k0 in range(0, top + 1, m):
        for k in (k0 + base for base in bases):
            if k > top:
                return
            yield [beta for beta in {k, -k} if beta % m == r]


def _row(lat: CanonicalFinite, box: int, c: int, m: int, beta: int) -> list[tuple]:
    """Keys (|m0|, |n0|, beta, m0, n0, x0, y0, sign_ok) of the columns of row
    (1, beta) at level c that can be the smallest of their sign class
    (module docstring): O(1) columns however long the row."""
    u, p, b = lat.time_step, lat.p, lat.b
    v = b + beta * p
    if v == 0 or not _admissible(beta, lat.L) or gcd(u, v) != c:
        return []
    K = m * u // c
    nr = m * pow(v // c * m, -1, u // c)
    marks = {-box, box, (c - u * box) // v, (c + u * box) // v, 0, c // v}
    marks |= {c // (beta * p)} if beta else set()
    cols = []
    for n0 in {nr + K * ((t - nr) // K + d) for t in marks for d in (-1, 0, 1)}:
        m0 = (c - v * n0) // u
        x0, y0 = u * m0 + b * n0, p * n0
        if 0 < abs(n0) <= box and abs(m0) <= box and x0 != 0:
            cols.append((abs(m0), abs(n0), beta, m0, n0, x0, y0, (x0 < 0) != (y0 < 0) and v > 0))
    return cols


def _pick(lat: CanonicalFinite, c: int, cols: list[tuple]) -> SigmaParams:
    """The preferred column: small |m0|, |n0|, then (beta, m0, n0)."""
    _, _, beta, _, _, x0, y0, _ = min(cols)
    return SigmaParams(1, beta, -y0 // c, x0 // c, lat.L, lat.p, lat.b)


def _search(lat: CanonicalFinite, box: int) -> SigmaParams:
    """The first admissible candidate in the preference order: levels c | u
    largest first, then rows by |beta|; the first sign-ok candidate wins,
    and if the largest c with candidates has none, its first candidate
    does (sign_adjusted)."""
    u, p, b = lat.time_step, lat.p, lat.b
    small = [d for d in range(1, isqrt(u) + 1) if u % d == 0]
    for c in sorted({*small, *(u // d for d in small)}, reverse=True):
        g, m = gcd(c, p), c // gcd(c, p)
        if b % g or gcd(m, u // c) > 1:
            continue  # no row, or no n0 in any row
        r = -(b // g) * pow(p // g, -1, m) % m
        top = min(box, ((u * box + c) // m + b) // p)  # |v| m - c <= u box
        fallback = None
        for betas in _beta_groups(r, m, top):
            cols = [col for beta in betas for col in _row(lat, box, c, m, beta)]
            ok = [col for col in cols if col[-1]]
            if ok:
                return _pick(lat, c, ok)
            if cols and fallback is None:
                fallback = _pick(lat, c, cols)
        if fallback is not None:
            return fallback
    raise ParameterSearchError(
        f"no admissible symplectic parameters for (L, p, b) = "
        f"({lat.L}, {p}, {b}) in box [-{box}, {box}]")


@lru_cache(maxsize=512)
def sigma_params(lat: CanonicalFinite) -> SigmaParams:
    """Search the symplectic parameter bundle for a canonical lattice.

    For b = 0 the lattice is rectangular and sigma = id; otherwise the preferred
    admissible candidate with beta, m0, n0 in the box [-2L, 2L].
    """
    if lat.b == 0:
        return SigmaParams(1, 0, 0, 1, lat.L, lat.p, 0)
    return _search(lat, 2 * lat.L)


def _dilate(f: np.ndarray, scale: float) -> np.ndarray:
    """D_{1/scale} f on the grid: new(t) = |1/scale|^{1/2} f(t / scale).

    The centered interpolant sum_J F_J e^{2 pi i K J/(scale L)} / sqrt(L), F =
    centered_dft(f), at u_k = K/scale + L/2, K = k - L/2: with 2KJ = K^2 + J^2
    - (K - J)^2 one chirp-z convolution (Bluestein, 1970), a length-2L FFT
    pair.  u_k outside the period [0, L) reads 0, not the periodic
    continuation, which would fold the far side of f onto the grid edges.
    """
    L = len(f)

    def chirp(x):  # e^{i pi x^2/(scale L)}, the exponent reduced mod 2 pi
        return np.exp(1j * np.pi * ((x * x / (scale * L)) % 2.0))

    K = np.arange(L) - L / 2
    edge = chirp(K)
    kernel = np.fft.fft(chirp(np.fft.ifftshift(np.arange(-L, L))).conj())
    out = np.fft.ifft(np.fft.fft(centered_dft(f) * edge, 2 * L) * kernel)[:L] * edge
    u = K / scale + L / 2
    out[(u < 0) | (u >= L)] = 0
    return out / np.sqrt(L * abs(scale))


def apply_continuous_U(f, lat, inverse: bool = False) -> np.ndarray:
    """Discretized U = D_{1/d} o F o N_{-b/d} o F^{-1} on the sqrt(L) grid.

    ``lat`` is a CanonicalReal or an (a, b, d) triple with a d = 1/2.  The
    grid samples f at t_k = (k - L/2)/sqrt(L); the chirp is the sample
    multiplication e^{+pi i (b/d) t^2} and the dilation reads the periodic
    sinc interpolant through a chirp-z transform (:func:`_dilate`).
    ``inverse`` applies U^{-1} = F o N_{b/d} o F^{-1} o D_d.
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
        return _dilate(centered_dft(centered_dft(f, inverse=True) * chirp), d)
    return centered_dft(centered_dft(_dilate(f, 1.0 / d), inverse=True) * chirp.conj())
