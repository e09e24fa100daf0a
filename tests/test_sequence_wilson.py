"""The Wilson family of l^2(Z) on every lattice (N/2, b, 1/N).

Element (m, n) is the chirp chi(l) = e^{pi i n0 l^2/(c N)} times the
rectangular Wilson element of h = conj(chi) g over (c, 0, 1/(2c)), with
c = gcd(N/2, b) and (c, m0, n0) = ext_gcd(N/2, b).  A window h that is
even, supported on |l| < c and has h(l)^2 + h(l - c)^2 = 1/c on
0 <= l <= c (a painless window) is tight with bound 2 over that rectangle,
so chi h must give an orthonormal basis on every lattice.
"""

from math import gcd

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gram_discrete, norm2
from wilsonlat.metaplectic import SigmaParams
from wilsonlat.ring import CanonicalFinite, ext_gcd
from wilsonlat.rng import SplitMix64
from wilsonlat.signal import DiscreteWindow
from wilsonlat.wilson import (WilsonSequenceFamily, chirp_discrete, wilson_finite,
                              wilson_pair)


def sheared_lattices(max_N):
    return [(N, b) for N in range(4, max_N + 1, 2) for b in range(1, N // 2)]


def chirped_painless(N, b, theta=None):
    """chi h for the even painless window h(l) = cos(theta(|l|)) / sqrt(c),
    theta(c - l) = pi/2 - theta(l); theta(l) = pi l / (2c) by default."""
    c, _, n0 = ext_gcd(N // 2, b)
    if theta is None:
        theta = np.pi * np.arange(c + 1) / (2 * c)
    l = np.arange(1 - c, c)
    return chirp_discrete(DiscreteWindow(1 - c, np.cos(theta[np.abs(l)]) / np.sqrt(c)), n0, c, N)


def random_theta(c, rng):
    theta = np.zeros(c + 1)
    low = np.arange(1, (c + 1) // 2)  # 1 <= l < c/2
    theta[low] = rng.reals(len(low), 0.0, np.pi / 2)
    theta[c - low] = np.pi / 2 - theta[low]
    theta[c] = np.pi / 2
    if c % 2 == 0:
        theta[c // 2] = np.pi / 4
    return theta


def gram_deviation_discrete(fam, m_range):
    G = gram_discrete(fam.elements(m_range))
    return float(np.max(np.abs(G - np.eye(len(G)))))


def rectangular_element_literal(g, N, m, n):
    """The b = 0 element as it was built through the identity index map:
    atoms shifted by m N/2 and modulated by e^{2 pi i l n / N}, the
    exponent reduced mod N in integers."""
    def atom(mm, nn):
        shift = mm * (N // 2)
        l = np.arange(g.start + shift, g.stop + shift)
        return DiscreteWindow(g.start + shift,
                              g.values * np.exp(1j * np.pi * (l * nn % N) / (N // 2)))

    m1, c1, c2 = wilson_pair(m, n, N // 2)
    atoms = [(c, atom(mm, nn)) for c, mm, nn in ((c1, m1, n), (c2, m, -n)) if c != 0]
    lo = min(e.start for _, e in atoms)
    hi = max(e.stop for _, e in atoms)
    return DiscreteWindow(lo, sum(c * e.sample(lo, hi) for c, e in atoms))


def test_no_zero_or_self_paired_element():
    # a middle-row element that pairs an atom a with itself is (c1 + c2) a,
    # whose norm^2 is 0 or 2 |g|^2; for a generic complex window two
    # distinct atoms give neither
    rng = SplitMix64(71)
    lattices = sheared_lattices(24)
    assert len(lattices) == 66
    for N, b in lattices:
        g = DiscreteWindow(-2, rng.complex_vector(7))
        fam = WilsonSequenceFamily(g, N, b)
        assert fam.c == gcd(N // 2, b)
        for (m, n), e in fam.elements(range(-3, 4)):
            ratio = norm2(e) / norm2(g)
            assert ratio > 1e-6, (N, b, m, n)
            if 0 < n < fam.c:
                assert abs(ratio - 2) > 1e-6, (N, b, m, n)


def test_chirped_painless_window_gives_orthonormal_basis():
    for N, b in sheared_lattices(24):
        fam = WilsonSequenceFamily(chirped_painless(N, b), N, b)
        assert gram_deviation_discrete(fam, range(-6, 7)) <= 1e-12, (N, b)


def test_rectangular_family_unchanged():
    rng = SplitMix64(72)
    for N in range(2, 25, 2):
        g = DiscreteWindow(-3, rng.complex_vector(6))
        fam = WilsonSequenceFamily(g, N, 0)
        assert fam.c == N // 2
        for (m, n), e in fam.elements(range(-3, 4)):
            want = rectangular_element_literal(g, N, m, n)
            assert e.start == want.start
            assert np.array_equal(e.values, want.values), (N, m, n)


def test_periodized_elements_are_finite_basis_rows():
    # The searched sigma transports through its own Bezout pair.  On these
    # lattices its n0 agrees with ext_gcd's mod N, so both constructions use
    # the same chirp and every periodized element is a row of the default
    # finite basis up to a unimodular phase.  Lattices such as (8, 1) and
    # (12, 3), where the two n0 differ mod N, need the beta = 0 bundle of
    # the next test.  One product of all elements against all rows per case.
    rng = SplitMix64(73)
    cases = 0
    for N, b in ((8, 3), (12, 4), (16, 6), (24, 9)):
        g = DiscreteWindow(-3, rng.complex_vector(6))
        fam = WilsonSequenceFamily(g, N, b)
        for K in (N // 2, N, 3 * N // 2):
            L = N * K
            basis = wilson_finite(g.periodize(L), CanonicalFinite(L, K, b)).basis
            V = np.array([e.periodize(L) for _, e in fam.elements(range(L // fam.c))])
            ip = (basis / np.linalg.norm(basis, axis=1, keepdims=True)).conj() @ V.T
            rows = np.argmax(np.abs(ip), axis=0)
            phase = ip[rows, np.arange(len(V))]
            phase /= np.abs(phase)
            assert np.max(np.abs(V - phase[:, None] * basis[rows])) <= 1e-12, (N, b, K)
            cases += 1
    assert cases == 12


def test_periodized_family_is_the_beta_zero_finite_basis():
    # The beta = 0 bundle chirps with ext_gcd's n0 on every lattice, so each
    # periodized element is a row of its finite basis up to a unimodular
    # phase: one product of all elements against all rows per case.
    rng = SplitMix64(74)
    cases = 0
    for N, b in sheared_lattices(24):
        g = DiscreteWindow(-3, rng.complex_vector(7))
        fam = WilsonSequenceFamily(g, N, b)
        c, _, n0 = ext_gcd(N // 2, b)
        for K in (N // 2, N):
            L = N * K
            sp = SigmaParams(1, 0, -K * n0 // c, 1, L, K, b)
            assert (sp.gcd_c, sp.n0) == (c, n0)
            basis = wilson_finite(g.periodize(L), CanonicalFinite(L, K, b), sp).basis
            V = np.array([e.periodize(L) for _, e in fam.elements(range(L // c))])
            ip = (basis / np.linalg.norm(basis, axis=1, keepdims=True)).conj() @ V.T
            rows = np.argmax(np.abs(ip), axis=0)
            phase = ip[rows, np.arange(len(V))]
            phase /= np.abs(phase)
            assert np.max(np.abs(V - phase[:, None] * basis[rows])) <= 1e-12, (N, b, K)
            cases += 1
    assert cases == 132


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_random_painless_window_generated(data):
    half = data.draw(st.integers(1, 32), label="N/2")
    b = data.draw(st.integers(0, half - 1), label="b")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    N = 2 * half
    c = gcd(half, b)
    g = chirped_painless(N, b, random_theta(c, SplitMix64(seed)))
    fam = WilsonSequenceFamily(g, N, b)
    assert gram_deviation_discrete(fam, range(-3, 4)) <= 1e-12, (N, b)


def test_far_elements_are_exact_translates():
    # element(m + 2 N K, n) is element(m, n) moved by 2 N K c (twice that on
    # the boundary rows, whose atom sits at 2m + n mod 2), to the bit: both
    # phases are reduced in integers, so far indices lose no digits
    rng = SplitMix64(74)
    K = 10 ** 9
    for N, b in ((8, 0), (8, 1), (12, 4)):
        fam = WilsonSequenceFamily(DiscreteWindow(-3, rng.complex_vector(7)), N, b)
        for n in range(fam.c + 1):
            shift = 2 * N * K * fam.c * (2 if n in (0, fam.c) else 1)
            for m in range(-3, 4):
                near, far = fam.element(m, n), fam.element(m + 2 * N * K, n)
                assert far.start == near.start + shift
                assert np.array_equal(far.values, near.values), (N, b, m, n)
