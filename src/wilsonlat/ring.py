"""Exact canonicalization of 2x2 time-frequency lattice generator matrices.

A lattice is given by an integer or rational 2x2 generator matrix A, and
the same lattice has many generators: A and AU generate identical point
sets for any unimodular integer U.  Everything downstream (Gabor systems,
Wilson bases, symplectic reindexing) consumes one distinguished generator
per lattice.  In every setting it is the one Hermite normal form of A over
Q (``_hermite``): [[a', b'], [0, d']] with d' > 0 the least positive second
coordinate of a lattice point, a' = |det A| / d' and 0 <= b' < a'.  The
three ambient settings differ only in the generators they accept and in how
they pack (a', b', d'):

* ``real``      -- lattices in R^2 with rational entries; packed as is,
                   [[a, b], [0, d]].
* ``discrete``  -- lattices in Z x T with integer top row, rational bottom
                   row and determinant 1/2; d' = 1/N, a' = N/2, packed as
                   [[N/2, b], [0, 1/N]] with 0 <= b < N/2.
* ``finite``    -- lattices in Z_L x Z_L with integer entries and
                   determinant L/2 (so A Z^2 contains L Z^2); d' = p with
                   p | L/2, a' = L/(2p), packed as [[L/(2p), b], [0, p]].

All arithmetic in this module is exact (integers and ``Fraction``);
canonical forms are discontinuous in the entries, so floating point is
deliberately never used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

# Canonicalization is exact but inputs are bounded so results stay desk
# sized; out-of-range inputs fail loudly instead of silently churning.
MAX_ENTRY = 10**6
MAX_L = 2**20


class LatticeError(ValueError):
    """Invalid lattice data (bad determinant, domain mismatch, ...)."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise LatticeError(f"entry {x!r} is not an exact rational")


def _enc(x: Fraction) -> int | str:
    """JSON form of an exact rational: an int, or the string "n/d"."""
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _check_entry_bound(x: Fraction) -> None:
    if abs(x.numerator) > MAX_ENTRY or x.denominator > MAX_ENTRY:
        raise LatticeError(f"entry {x} exceeds the supported bound {MAX_ENTRY}")


@dataclass(frozen=True)
class GeneratorMatrix:
    """2x2 generator [[a, b], [c, d]] with a domain tag.

    ``domain`` is one of ``"real"``, ``"discrete"``, ``"finite"``; the
    finite domain carries the ambient size ``L`` (even).  Entries are
    Fractions (integers are accepted and coerced).
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    domain: str = "real"
    L: int | None = None

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))
            _check_entry_bound(getattr(self, name))
        if self.domain not in ("real", "discrete", "finite"):
            raise LatticeError(f"unknown domain {self.domain!r}")
        det = self.det()
        if det == 0:
            raise LatticeError("zero determinant")
        if self.domain == "discrete":
            if self.a.denominator != 1 or self.b.denominator != 1:
                raise LatticeError("discrete domain requires integer a, b")
            if det != Fraction(1, 2):
                raise LatticeError("volume must be 1/2")
        if self.domain == "finite":
            if self.L is None or self.L <= 0 or self.L % 2:
                raise LatticeError("finite domain requires an even positive L")
            if self.L > MAX_L:
                raise LatticeError(f"L exceeds the supported bound {MAX_L}")
            if any(getattr(self, n).denominator != 1 for n in "abcd"):
                raise LatticeError("finite domain requires integer entries")
            if det != Fraction(self.L, 2):
                raise LatticeError("determinant must equal L/2")

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def int_entries(self) -> tuple[int, int, int, int]:
        return (int(self.a), int(self.b), int(self.c), int(self.d))

    def to_json(self) -> dict:
        out = {"domain": self.domain,
               "matrix": [[_enc(self.a), _enc(self.b)], [_enc(self.c), _enc(self.d)]]}
        if self.domain == "finite":
            out["L"] = self.L
        return out

    @classmethod
    def from_json(cls, data: dict) -> "GeneratorMatrix":
        (a, b), (c, d) = data["matrix"]
        return cls(_as_fraction(a), _as_fraction(b), _as_fraction(c), _as_fraction(d),
                   domain=data["domain"], L=data.get("L"))


@dataclass(frozen=True)
class CanonicalReal:
    """Upper-triangular canonical generator [[a, b], [0, d]] over R^2."""

    a: Fraction
    b: Fraction
    d: Fraction

    def __post_init__(self):
        if not (self.a > 0 and self.d > 0 and 0 <= self.b < self.a):
            raise LatticeError("not a canonical real form")

    def volume(self) -> Fraction:
        return self.a * self.d

    def to_json(self) -> dict:
        return {"a": _enc(self.a), "b": _enc(self.b), "d": _enc(self.d)}


@dataclass(frozen=True)
class CanonicalDiscrete:
    """Canonical generator [[N/2, b], [0, 1/N]] for a volume-1/2 lattice in Z x T."""

    N: int
    b: int

    def __post_init__(self):
        if self.N <= 0 or self.N % 2:
            raise LatticeError("N must be even and positive")
        if not 0 <= self.b < self.N // 2:
            raise LatticeError("b out of range [0, N/2)")

    def to_json(self) -> dict:
        return {"N": self.N, "b": self.b}


@dataclass(frozen=True)
class CanonicalFinite:
    """Canonical generator [[L/(2p), b], [0, p]] of a subgroup of Z_L x Z_L."""

    L: int
    p: int
    b: int

    def __post_init__(self):
        if self.L <= 0 or self.L % 2:
            raise LatticeError("L must be even and positive")
        if self.L > MAX_L:
            raise LatticeError(f"L exceeds the supported bound {MAX_L}")
        if self.p <= 0 or (self.L // 2) % self.p:
            raise LatticeError("p must divide L/2")
        if not 0 <= self.b < self.L // (2 * self.p):
            raise LatticeError("b out of range [0, L/(2p))")

    @property
    def time_step(self) -> int:
        return self.L // (2 * self.p)

    def to_json(self) -> dict:
        return {"L": self.L, "p": self.p, "b": self.b}

    def to_generator(self) -> GeneratorMatrix:
        return GeneratorMatrix(self.time_step, self.b, 0, self.p,
                               domain="finite", L=self.L)


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, m, n) with g = gcd(|a|, |b|) = a*m + b*n.

    Raises on (0, 0), where the gcd is undefined.
    """
    if a == 0 and b == 0:
        raise LatticeError("gcd undefined")
    old_r, r = a, b
    old_m, m = 1, 0
    old_n, n = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_m, m = m, old_m - q * m
        old_n, n = n, old_n - q * n
    if old_r < 0:
        old_r, old_m, old_n = -old_r, -old_m, -old_n
    return old_r, old_m, old_n


def _hermite(A: GeneratorMatrix) -> tuple[Fraction, Fraction, Fraction]:
    """Hermite normal form (a', b', d') of any generator, exactly over Q.

    The second coordinates of the lattice are cZ + dZ = (g/Q)Z, where Q
    clears the bottom row's denominators and g = gcd(cQ, dQ) = cQm + dQn;
    so d' = g/Q and the Bezout column A (m, n) = (x, d') lies in the
    lattice.  The x-axis generator has length |det|/d', and b' is x
    reduced modulo it.
    """
    Q = lcm(A.c.denominator, A.d.denominator)
    g, m, n = ext_gcd(int(A.c * Q), int(A.d * Q))
    d = Fraction(g, Q)
    a = abs(A.det()) / d
    return a, (A.a * m + A.b * n) % a, d


def hnf_real(A: GeneratorMatrix) -> CanonicalReal:
    """Canonical form [[a, b], [0, d]] of a rational lattice in R^2."""
    if A.domain != "real":
        raise LatticeError("hnf_real expects a real-domain matrix")
    return CanonicalReal(*_hermite(A))


def canonical_discrete(A: GeneratorMatrix) -> CanonicalDiscrete:
    """Canonical form [[N/2, b], [0, 1/N]] of a volume-1/2 lattice in Z x T."""
    if A.domain != "discrete":
        raise LatticeError("canonical_discrete expects a discrete-domain matrix")
    _, b, d = _hermite(A)
    return CanonicalDiscrete(int(1 / d), int(b))


def canonical_finite(A: GeneratorMatrix) -> CanonicalFinite:
    """Canonical form (L, p, b) of an integer lattice in Z_L x Z_L."""
    if A.domain != "finite":
        raise LatticeError("canonical_finite expects a finite-domain matrix")
    _, b, d = _hermite(A)
    return CanonicalFinite(A.L, int(d), int(b))


def lattice_points_finite(A: GeneratorMatrix | CanonicalFinite) -> frozenset[tuple[int, int]]:
    """All points {A (m, n) mod L : m, n in Z_L} as a set of pairs.

    Brute-force oracle used by every canonicalization test; a volume-L/2
    lattice always has exactly 2L points.
    """
    if isinstance(A, CanonicalFinite):
        A = A.to_generator()
    if A.domain != "finite":
        raise LatticeError("lattice_points_finite expects a finite-domain matrix")
    L = A.L
    a, b, c, d = A.int_entries()
    pts = set()
    for m in range(L):
        am, cm = a * m, c * m
        for n in range(L):
            pts.add(((am + b * n) % L, (cm + d * n) % L))
    return frozenset(pts)
