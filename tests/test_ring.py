from fractions import Fraction

import pytest

from wilsonlat.ring import (CanonicalDiscrete, CanonicalFinite, CanonicalReal,
                            GeneratorMatrix, LatticeError, canonical_discrete,
                            canonical_finite, ext_gcd, hnf_real,
                            lattice_points_finite)
from wilsonlat.rng import SplitMix64

F = Fraction


def real_lattice_contains(A: GeneratorMatrix, point) -> bool:
    """Exact membership test: solve A x = point and check integrality."""
    det = A.det()
    x = (A.d * point[0] - A.b * point[1]) / det
    y = (-A.c * point[0] + A.a * point[1]) / det
    return x.denominator == 1 and y.denominator == 1


def same_real_lattice(A: GeneratorMatrix, can: CanonicalReal) -> bool:
    H = GeneratorMatrix(can.a, can.b, 0, can.d, domain="real")
    cols_A = [(A.a, A.c), (A.b, A.d)]
    cols_H = [(H.a, H.c), (H.b, H.d)]
    return all(real_lattice_contains(H, c) for c in cols_A) and \
        all(real_lattice_contains(A, c) for c in cols_H)


class TestExtGcd:
    def test_examples(self):
        assert ext_gcd(6, 4) == (2, 1, -1)
        assert ext_gcd(4, 3) == (1, 1, -1)
        assert ext_gcd(0, 5) == (5, 0, 1)

    def test_bezout_identity_random(self):
        rng = SplitMix64(1)
        for _ in range(300):
            a = rng.integer(-50, 50)
            b = rng.integer(-50, 50)
            if a == 0 and b == 0:
                continue
            g, m, n = ext_gcd(a, b)
            assert g > 0
            assert a % g == 0 and b % g == 0
            assert a * m + b * n == g

    def test_both_zero_rejected(self):
        with pytest.raises(LatticeError, match="gcd undefined"):
            ext_gcd(0, 0)


class TestHnfReal:
    def test_rectangular_half_volume(self):
        A = GeneratorMatrix(F(1, 2), 0, 0, 1, domain="real")
        assert hnf_real(A) == CanonicalReal(F(1, 2), 0, F(1))

    def test_sheared_integer_top(self):
        # det 1/2; the x-coordinates of the lattice are integers, so a = 1
        A = GeneratorMatrix(1, 1, 1, F(3, 2), domain="real")
        can = hnf_real(A)
        assert can == CanonicalReal(F(1), 0, F(1, 2))
        assert same_real_lattice(A, can)

    def test_already_canonical(self):
        A = GeneratorMatrix(1, 0, 0, F(1, 2), domain="real")
        assert hnf_real(A) == CanonicalReal(F(1), 0, F(1, 2))

    def test_oracle_on_random_rational_matrices(self):
        rng = SplitMix64(2)
        for _ in range(100):
            entries = [F(rng.integer(-6, 6), rng.integer(1, 4)) for _ in range(4)]
            a, b, c, d = entries
            if a * d - b * c == 0:
                continue
            A = GeneratorMatrix(a, b, c, d, domain="real")
            can = hnf_real(A)
            assert can.a > 0 and can.d > 0 and 0 <= can.b < can.a
            assert can.volume() == abs(A.det())
            assert same_real_lattice(A, can)

    def test_idempotent(self):
        rng = SplitMix64(3)
        for _ in range(50):
            entries = [F(rng.integer(-6, 6), rng.integer(1, 4)) for _ in range(4)]
            a, b, c, d = entries
            if a * d - b * c == 0:
                continue
            can = hnf_real(GeneratorMatrix(a, b, c, d, domain="real"))
            again = hnf_real(GeneratorMatrix(can.a, can.b, 0, can.d, domain="real"))
            assert can == again


def discrete_lattice_contains(A: GeneratorMatrix, point) -> bool:
    det = A.det()
    x = (A.d * point[0] - A.b * point[1]) / det
    y = (-A.c * point[0] + A.a * point[1]) / det
    return x.denominator == 1 and y.denominator == 1


def same_discrete_lattice(A: GeneratorMatrix, can: CanonicalDiscrete) -> bool:
    H = GeneratorMatrix(F(can.N, 2), can.b, 0, F(1, can.N), domain="discrete")
    cols_A = [(A.a, A.c), (A.b, A.d)]
    cols_H = [(H.a, H.c), (H.b, H.d)]
    return all(discrete_lattice_contains(H, c) for c in cols_A) and \
        all(discrete_lattice_contains(A, c) for c in cols_H)


class TestCanonicalDiscrete:
    def test_diagonal(self):
        A = GeneratorMatrix(1, 0, 0, F(1, 2), domain="discrete")
        assert canonical_discrete(A) == CanonicalDiscrete(2, 0)

    def test_sheared(self):
        A = GeneratorMatrix(1, 1, F(1, 4), F(3, 4), domain="discrete")
        can = canonical_discrete(A)
        assert can == CanonicalDiscrete(4, 1)
        assert same_discrete_lattice(A, can)

    def test_half_integer_bottom(self):
        A = GeneratorMatrix(2, 1, F(1, 2), F(1, 2), domain="discrete")
        can = canonical_discrete(A)
        assert can == CanonicalDiscrete(2, 0)
        assert same_discrete_lattice(A, can)

    def test_wrong_volume_rejected(self):
        with pytest.raises(LatticeError, match="volume must be 1/2"):
            GeneratorMatrix(1, 0, 0, 1, domain="discrete")

    def test_oracle_random(self):
        rng = SplitMix64(4)
        count = 0
        while count < 60:
            a = rng.integer(-5, 5)
            b = rng.integer(-5, 5)
            c = F(rng.integer(-5, 5), rng.integer(1, 6))
            if a == 0 and b == 0:
                continue
            # choose d to force det = 1/2
            if a == 0:
                continue
            d = (F(1, 2) + b * c) / a
            A = GeneratorMatrix(a, b, c, d, domain="discrete")
            can = canonical_discrete(A)
            assert 0 <= can.b < can.N // 2
            assert same_discrete_lattice(A, can)
            # idempotence
            H = GeneratorMatrix(F(can.N, 2), can.b, 0, F(1, can.N), domain="discrete")
            assert canonical_discrete(H) == can
            # the same entries read in R^2 have the same normal form
            real = hnf_real(GeneratorMatrix(a, b, c, d, domain="real"))
            assert real == CanonicalReal(F(can.N, 2), F(can.b), F(1, can.N))
            count += 1


def random_finite_matrix(rng: SplitMix64, L: int) -> GeneratorMatrix:
    """Random integer matrix with det = L/2: canonical form times unimodular."""
    divisors = [d for d in range(1, L // 2 + 1) if (L // 2) % d == 0]
    p = divisors[rng.integer(0, len(divisors) - 1)]
    bb = rng.integer(0, L // (2 * p) - 1)
    a, b, c, d = L // (2 * p), bb, 0, p
    for _ in range(8):
        k = rng.integer(-3, 3)
        if rng.integer(0, 1):
            b, d = b + k * a, d + k * c
        else:
            a, c = a + k * b, c + k * d
    return GeneratorMatrix(a, b, c, d, domain="finite", L=L)


class TestCanonicalFinite:
    def test_sheared_example(self):
        A = GeneratorMatrix(2, 1, 2, 3, domain="finite", L=8)
        assert canonical_finite(A) == CanonicalFinite(8, 1, 3)
        assert lattice_points_finite(A) == \
            lattice_points_finite(GeneratorMatrix(4, 3, 0, 1, domain="finite", L=8))

    def test_diagonal(self):
        A = GeneratorMatrix(1, 0, 0, 4, domain="finite", L=8)
        assert canonical_finite(A) == CanonicalFinite(8, 4, 0)

    def test_idempotent_on_canonical(self):
        A = GeneratorMatrix(4, 3, 0, 1, domain="finite", L=8)
        assert canonical_finite(A) == CanonicalFinite(8, 1, 3)

    def test_wrong_determinant_rejected(self):
        with pytest.raises(LatticeError, match="determinant"):
            GeneratorMatrix(1, 0, 0, 3, domain="finite", L=8)

    def test_odd_L_rejected(self):
        with pytest.raises(LatticeError):
            GeneratorMatrix(1, 0, 0, 3, domain="finite", L=7)

    def test_point_sets(self):
        A = GeneratorMatrix(2, 0, 0, 1, domain="finite", L=4)
        pts = lattice_points_finite(A)
        assert pts == frozenset((x, y) for x in (0, 2) for y in range(4))
        A = GeneratorMatrix(4, 0, 0, 1, domain="finite", L=8)
        assert len(lattice_points_finite(A)) == 16

    def test_oracle_and_uniqueness_random(self):
        rng = SplitMix64(5)
        for L in (4, 8, 12, 16, 24, 40):
            seen = {}
            for _ in range(30):
                A = random_finite_matrix(rng, L)
                can = canonical_finite(A)
                assert (L // 2) % can.p == 0
                assert 0 <= can.b < L // (2 * can.p)
                pts = lattice_points_finite(A)
                assert len(pts) == 2 * L
                assert pts == lattice_points_finite(can)
                # equal point sets canonicalize identically
                if pts in seen:
                    assert seen[pts] == can
                seen[pts] = can
                # idempotence and exact volume
                assert canonical_finite(can.to_generator()) == can
                assert can.to_generator().det() == F(L, 2)
                # the same entries read in R^2 have the same normal form
                real = hnf_real(GeneratorMatrix(A.a, A.b, A.c, A.d, domain="real"))
                assert real == CanonicalReal(F(can.time_step), F(can.b), F(can.p))


class TestJson:
    def test_generator_roundtrip(self):
        A = GeneratorMatrix(2, 1, 2, 3, domain="finite", L=8)
        assert A.to_json() == {"domain": "finite", "L": 8, "matrix": [[2, 1], [2, 3]]}
        assert GeneratorMatrix.from_json(A.to_json()) == A

    def test_canonical_json(self):
        assert CanonicalFinite(8, 1, 3).to_json() == {"L": 8, "p": 1, "b": 3}
        assert CanonicalReal(F(1), 0, F(1, 2)).to_json() == {"a": 1, "b": 0, "d": "1/2"}

    def test_rational_entries(self):
        A = GeneratorMatrix(1, 1, "1/4", "3/4", domain="discrete")
        data = A.to_json()
        assert data["matrix"][1] == ["1/4", "3/4"]
        assert GeneratorMatrix.from_json(data) == A


def test_entry_bound_checked():
    with pytest.raises(LatticeError, match="bound"):
        GeneratorMatrix(10**7, 0, 0, 1, domain="real")
    with pytest.raises(LatticeError, match="bound"):
        CanonicalFinite(2**21, 1, 1)


def test_hnf_real_zero_d_column():
    # bottom row (c, 0): the x-axis generator comes from the other column
    A = GeneratorMatrix(0, 1, F(-1, 2), 0, domain="real")
    can = hnf_real(A)
    assert can.volume() == abs(A.det())
    assert same_real_lattice(A, can)
    # bottom row (0, d) with d < 0
    A = GeneratorMatrix(F(-3, 2), F(5, 4), 0, F(-2, 3), domain="real")
    assert hnf_real(A) == CanonicalReal(F(3, 2), F(1, 4), F(2, 3))
    assert same_real_lattice(A, hnf_real(A))


def test_canonical_discrete_negative_entries():
    A = GeneratorMatrix(-1, 0, 0, F(-1, 2), domain="discrete")
    assert canonical_discrete(A) == CanonicalDiscrete(2, 0)
    A = GeneratorMatrix(2, -3, F(1, 2), F(-1, 2), domain="discrete")
    can = canonical_discrete(A)
    assert same_discrete_lattice(A, can)
    A = GeneratorMatrix(-3, 2, 0, F(-1, 6), domain="discrete")
    assert canonical_discrete(A) == CanonicalDiscrete(6, 1)
    assert same_discrete_lattice(A, CanonicalDiscrete(6, 1))


def test_canonical_finite_negative_entries():
    for entries in ((-4, 3, 0, -1), (1, 1, -2, 2), (1, -1, 2, 2)):
        A = GeneratorMatrix(*entries, domain="finite", L=8)
        can = canonical_finite(A)
        assert lattice_points_finite(A) == lattice_points_finite(can)
    # bottom row (0, d) with d < 0
    assert canonical_finite(GeneratorMatrix(-4, 3, 0, -1, domain="finite", L=8)) == \
        CanonicalFinite(8, 1, 1)
