"""The transported Wilson system on every finite lattice.

``WilsonSystem.atoms`` reads each element's two atoms through sigma^{-1}
from the rectangle (L, q, 0), so the sheared system is U applied to the
rectangular one up to a phase per row.  These tests check that on every
canonical lattice with L <= 48, non-aligned ones (gcd(p, L/2p) does not
divide b) included, and that on aligned lattices the gather is the one of
the finite index map phi, bit for bit.
"""

from math import gcd

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gram, metaplectic_matrix, phi_map, phi_params_finite, scan_gram_deviation
from wilsonlat.gabor import tighten
from wilsonlat.metaplectic import meta_finite, sigma_params
from wilsonlat.ring import CanonicalFinite
from wilsonlat.rng import SplitMix64
from wilsonlat.signal import tf_shift
from wilsonlat.wilson import (equivalence_report, gram_deviation,
                              wilson_finite, wilson_index_set, wilson_pair)


def divisors_of_half(L):
    return [d for d in range(1, L // 2 + 1) if (L // 2) % d == 0]


def canonical_lattices(max_L):
    for L in range(2, max_L + 1, 2):
        for p in divisors_of_half(L):
            for b in range(L // (2 * p)):
                yield CanonicalFinite(L, p, b)


def aligned(lat):
    return lat.b % gcd(lat.p, lat.time_step) == 0


def phi_gather(g, lat):
    """The gather through the finite index map phi over Lambda's own index
    set, with the same floating-point operations as ``WilsonSystem.basis``."""
    L, p, b, a = lat.L, lat.p, lat.b, lat.time_step
    pp = phi_params_finite(sigma_params(lat))
    m, n = wilson_index_set(L, p)
    m1, c1, c2 = wilson_pair(m, n, a)
    (k1, l1), (k2, l2) = phi_map(m1, n, pp), phi_map(m, -n, pp)
    basis = tf_shift(g, k1 * a + l1 * b, l1 * p)
    basis *= c1[:, None]
    basis += c2[:, None] * tf_shift(g, k2 * a + l2 * b, l2 * p)
    return basis


def transported_window(rng, lat):
    """A tightened window whose transport U^{-1} g has a real spectrum."""
    return tighten(meta_finite(rng.real_dft_window(lat.L), sigma_params(lat)), lat)


def check_transport(g, lat):
    """Every sheared element is U of the rectangular element of U^H g times
    a unimodular scalar."""
    sp = sigma_params(lat)
    U = metaplectic_matrix(sp)
    rect = wilson_finite(U.conj().T @ g, CanonicalFinite(lat.L, sp.q, 0)).basis
    want = rect @ U.T
    got = wilson_finite(g, lat).basis
    z = np.sum(got * want.conj(), axis=1) / np.sum(np.abs(want) ** 2, axis=1)
    assert np.max(np.abs(np.abs(z) - 1)) <= 1e-12, lat
    assert np.max(np.abs(got - z[:, None] * want)) <= 1e-12, lat


def check_deviations(sys):
    """The entrywise scan equals the dense max|G - I|, the spectral deviation
    is never below it, and both give the same verdict."""
    lat = sys.lattice
    dense = float(np.max(np.abs(gram(sys) - np.eye(lat.L))))
    assert abs(scan_gram_deviation(sys) - dense) <= 1e-13 * max(1.0, dense), lat
    fast = gram_deviation(sys)
    assert fast >= dense - 1e-13, (lat, fast, dense)
    assert (fast <= 1e-9) == (dense <= 1e-9), (lat, fast, dense)


def test_every_small_lattice_gives_an_orthonormal_basis():
    rng = SplitMix64(90)
    lattices = list(canonical_lattices(48))
    assert len(lattices) == 491
    non_aligned = 0
    for lat in lattices:
        g = transported_window(rng, lat)
        rep = equivalence_report(g, lat)
        assert rep.verdicts() == (True, True, True, True), (lat, rep.deviations)
        check_transport(g, lat)
        sys = wilson_finite(g, lat)
        if aligned(lat):
            assert np.array_equal(sys.basis, phi_gather(g, lat)), lat
        else:
            check_deviations(sys)
            non_aligned += 1
    assert non_aligned == 42


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_transported_basis_generated(data):
    half = data.draw(st.integers(1, 32), label="L/2")
    p = data.draw(st.sampled_from(divisors_of_half(2 * half)), label="p")
    b = data.draw(st.integers(0, half // p - 1), label="b")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    lat = CanonicalFinite(2 * half, p, b)
    g = transported_window(SplitMix64(seed), lat)
    assert all(equivalence_report(g, lat).verdicts()), lat
    check_transport(g, lat)
    check_deviations(wilson_finite(g, lat))
