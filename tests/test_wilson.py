import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (PhiParams, canonical_lattices, gram, gram_discrete, metaplectic_matrix,
                     periodized_gram, phi_inverse, phi_map, phi_params_discrete,
                     phi_params_finite, wilson_element)
from wilsonlat.gabor import FrameError, tighten
from wilsonlat.metaplectic import apply_continuous_U, sigma_params
from wilsonlat.ring import CanonicalFinite, LatticeError
from wilsonlat.rng import SplitMix64
from wilsonlat.signal import DiscreteWindow, tf_shift
from wilsonlat.wilson import (HEX_A, HEX_B, HEX_D, WilsonSequenceFamily,
                              continuous_wilson_gram, equivalence_report,
                              gram_deviation, wilson_continuous_demo, wilson_finite,
                              wilson_index_set, wilson_pair)


def divisors_of_half(L):
    return [d for d in range(1, L // 2 + 1) if (L // 2) % d == 0]


def aligned_lattices(Ls=(8, 12, 16, 24)):
    """Lattices whose symplectic image is the rectangle with the same p."""
    from math import gcd
    out = []
    for L in Ls:
        for p in divisors_of_half(L):
            for b in range(L // (2 * p)):
                if b % gcd(p, L // (2 * p)) == 0:
                    out.append(CanonicalFinite(L, p, b))
    return out


class TestPhiMap:
    def test_identity_for_rectangular(self):
        pp = phi_params_finite(sigma_params(CanonicalFinite(8, 2, 0)))
        assert phi_map(5, -3, pp) == (5, -3)

    def test_discrete_example(self):
        pp = phi_params_discrete(4, 1)
        assert (pp.m0, pp.n0) == (0, 1)
        for m in range(-5, 6):
            for n in range(-5, 6):
                assert phi_map(m, n, pp) == (-n, m + 2 * n)

    def test_bijective_on_box(self):
        for lat in (CanonicalFinite(8, 1, 3), CanonicalFinite(12, 2, 1),
                    CanonicalFinite(16, 2, 2)):
            pp = phi_params_finite(sigma_params(lat))
            L = lat.L
            seen = set()
            for m in range(-4 * L, 4 * L + 1):
                for n in range(-4 * L, 4 * L + 1):
                    img = phi_map(m, n, pp)
                    assert img not in seen
                    seen.add(img)
                    assert phi_inverse(*img, pp) == (m, n)

    def test_window_counting_property(self):
        # residues of the preimage of the fundamental index window cover
        # {0..L/c-1} x {0..2c-1} exactly once
        for lat in (CanonicalFinite(8, 1, 3), CanonicalFinite(8, 1, 1),
                    CanonicalFinite(12, 2, 1), CanonicalFinite(16, 2, 3),
                    CanonicalFinite(24, 3, 2)):
            sp = sigma_params(lat)
            pp = phi_params_finite(sp)
            L, p, c = lat.L, lat.p, sp.gcd_c
            residues = []
            for k in range(2 * p):
                for l in range(L // p):
                    m, n = phi_inverse(k, l, pp)
                    residues.append((m % (L // c), n % (2 * c)))
            assert len(residues) == 2 * L
            assert sorted(set(residues)) == sorted(
                (mm, nn) for mm in range(L // c) for nn in range(2 * c))

    def test_discrete_window_counting(self):
        # per fixed m the preimage hits every residue class mod 2c once
        for N, b in ((4, 1), (8, 2), (12, 3), (6, 1)):
            pp = phi_params_discrete(N, b)
            from math import gcd
            c = gcd(N // 2, b)
            for m in range(-4, 5):
                ns = [n for n in range(-6 * N, 6 * N + 1)
                      if 0 <= phi_map(m, n, pp)[1] <= N - 1]
                assert len(ns) == 2 * c
                assert sorted(n % (2 * c) for n in ns) == list(range(2 * c))

    def test_inconsistent_params_rejected(self):
        with pytest.raises(LatticeError, match="inconsistent"):
            PhiParams(3, m0=1, n0=1, k1=1, k2=2)


class TestWilsonIndexSet:
    def test_cardinality_is_L(self):
        for L in range(4, 44, 4):
            for p in divisors_of_half(L):
                m, n = wilson_index_set(L, p)
                assert m.shape == n.shape == (L,)

    def test_shape(self):
        m, n = wilson_index_set(8, 1)
        assert list(zip(m.tolist(), n.tolist())) == [
            (0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4)]


def literal_wilson_basis(g, lat):
    """Per-element oracle: a loop over I with one tf_shift per atom."""
    L, p, b, a = lat.L, lat.p, lat.b, lat.time_step
    sp = sigma_params(lat)
    pp = phi_params_finite(sp)

    def atom(m, n):
        k, l = phi_map(m, n, pp)
        return tf_shift(g, k * a + l * b, l * p)

    rows = []
    ms, ns = wilson_index_set(L, sp.q)
    for m, n in zip(ms.tolist(), ns.tolist()):
        if n == 0 or n == sp.gcd_c:
            rows.append(atom(2 * m + n % 2, n))
        elif (m + n) % 2 == 0:
            rows.append((atom(m, n) + atom(m, -n)) / np.sqrt(2))
        else:
            rows.append(1j * (atom(m, n) - atom(m, -n)) / np.sqrt(2))
    return np.array(rows)


class TestWilsonGather:
    def test_matches_literal_builder_on_all_small_lattices(self):
        rng = SplitMix64(58)
        lattices = canonical_lattices(range(2, 49, 2))
        assert len(lattices) == 491
        for lat in lattices:
            g = rng.complex_vector(lat.L)
            err = np.max(np.abs(wilson_finite(g, lat).basis - literal_wilson_basis(g, lat)))
            assert err <= 1e-12 * np.max(np.abs(g)), (lat, err)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_literal_builder_generated(self, data):
        half = data.draw(st.integers(1, 32), label="L/2")
        p = data.draw(st.sampled_from(divisors_of_half(2 * half)), label="p")
        b = data.draw(st.integers(0, half // p - 1), label="b")
        lat = CanonicalFinite(2 * half, p, b)
        parts = st.floats(-1.0, 1.0, allow_subnormal=False)
        re = np.array(data.draw(st.lists(parts, min_size=lat.L, max_size=lat.L), label="re"))
        im = np.array(data.draw(st.lists(parts, min_size=lat.L, max_size=lat.L), label="im"))
        g = re + 1j * im
        err = np.max(np.abs(wilson_finite(g, lat).basis - literal_wilson_basis(g, lat)))
        assert err <= 1e-12 * max(1.0, np.max(np.abs(g)))

    def test_rule_on_ints_matches_rule_on_arrays(self):
        L, p = 24, 2
        m, n = wilson_index_set(L, p)
        m1, c1, c2 = wilson_pair(m, n, L // (2 * p))
        for i in range(L):
            assert wilson_pair(int(m[i]), int(n[i]), L // (2 * p)) == (m1[i], c1[i], c2[i])
        edge = (n == 0) | (n == L // (2 * p))
        assert np.all(c1[edge] == 1) and np.all(c2[edge] == 0)
        assert np.allclose(np.abs(c1[~edge]), 2 ** -0.5)
        assert np.array_equal(c2[~edge], np.conj(c1[~edge]))

    def test_element_reads_the_indexed_row(self):
        rng = SplitMix64(59)
        for lat in (CanonicalFinite(24, 2, 0), CanonicalFinite(12, 2, 1),
                    CanonicalFinite(12, 6, 0), CanonicalFinite(8, 1, 3)):
            sys = wilson_finite(rng.complex_vector(lat.L), lat)
            ms, ns = wilson_index_set(lat.L, sys.params.q)
            for row, (m, n) in enumerate(zip(ms.tolist(), ns.tolist())):
                assert np.array_equal(wilson_element(sys, m, n), sys.basis[row])

    def test_element_rejects_indices_outside_I(self):
        L, p = 24, 2
        sys = wilson_finite(np.ones(L), CanonicalFinite(L, p, 0))
        for m, n in ((p, 0), (0, L // (2 * p) + 1), (-1, 1), (p, L // (2 * p)),
                     (2 * p, 1), (0, -1)):
            with pytest.raises(ValueError, match="not a Wilson index"):
                wilson_element(sys, m, n)


class TestWilsonFiniteRectangular:
    def test_worked_closed_form(self):
        # constant window on (8, 1, 0): exactly the real Fourier basis
        sys = wilson_finite(np.ones(8), CanonicalFinite(8, 1, 0))
        l = np.arange(8)
        expected = {(0, 0): np.ones(8), (0, 4): (-1.0) ** l}
        for n in (1, 2, 3):
            for m in (0, 1):
                if (m + n) % 2 == 0:
                    expected[(m, n)] = np.sqrt(2) * np.cos(2 * np.pi * l * n / 8)
                else:
                    expected[(m, n)] = -np.sqrt(2) * np.sin(2 * np.pi * l * n / 8)
        for (m, n), want in expected.items():
            assert np.max(np.abs(wilson_element(sys, m, n) - want)) < 1e-12
        assert gram_deviation(sys) < 1e-12

    def test_tightened_windows_give_onb_all_parities(self):
        rng = SplitMix64(50)
        for L in (8, 12, 16):
            for p in divisors_of_half(L):
                lat = CanonicalFinite(L, p, 0)
                gt = tighten(rng.real_dft_window(L), lat)
                assert gram_deviation(wilson_finite(gt, lat)) < 1e-9

    def test_delta_is_rank_deficient(self):
        d = np.zeros(8, dtype=complex)
        d[0] = 1
        G = gram(wilson_finite(d, CanonicalFinite(8, 1, 0)))
        assert np.linalg.matrix_rank(G, tol=1e-10) < 8
        assert np.max(np.abs(G - G.conj().T)) < 1e-14
        assert np.min(np.linalg.eigvalsh(G)) > -1e-12

    def test_boundary_rows_match_literal_definition_when_even(self):
        # for L/(2p) even the two boundary rows take the atoms at even
        # multiples of the time step (phi(2m, n) indexing)
        rng = SplitMix64(51)
        L, p = 16, 2   # L/(2p) = 4
        lat = CanonicalFinite(L, p, 0)
        g = rng.complex_vector(L)
        sys = wilson_finite(g, lat)
        from wilsonlat.signal import tf_shift
        for m in range(p):
            assert np.allclose(wilson_element(sys, m, 0), tf_shift(g, m * (L // p), 0))
            top = L // (2 * p)
            assert np.allclose(wilson_element(sys, m, top),
                               tf_shift(g, m * (L // p), top * p))


class TestWilsonFiniteSheared:
    def test_gram_identity_after_tighten(self):
        rng = SplitMix64(52)
        for lat in (CanonicalFinite(8, 1, 3), CanonicalFinite(12, 2, 1),
                    CanonicalFinite(16, 1, 6), CanonicalFinite(24, 4, 2)):
            sp = sigma_params(lat)
            U = metaplectic_matrix(sp)
            h = rng.real_dft_window(lat.L)
            gt = tighten(U @ h, lat)
            assert gram_deviation(wilson_finite(gt, lat, sp)) < 1e-9

    def test_gram_spectra_match_under_transport(self):
        # the unitary maps the rectangular Wilson system onto the sheared
        # one up to unimodular scalars, so the Gram spectra coincide
        rng = SplitMix64(53)
        for lat in (CanonicalFinite(8, 1, 3), CanonicalFinite(12, 2, 1)):
            sp = sigma_params(lat)
            U = metaplectic_matrix(sp)
            g = U @ rng.real_dft_window(lat.L)
            rect = CanonicalFinite(lat.L, sp.q, 0)
            G1 = gram(wilson_finite(U.conj().T @ g, rect))
            G2 = gram(wilson_finite(g, lat, sp))
            s1 = np.sort(np.linalg.eigvalsh(G1))
            s2 = np.sort(np.linalg.eigvalsh(G2))
            assert np.max(np.abs(s1 - s2)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(FrameError):
            wilson_finite(np.ones(6), CanonicalFinite(8, 1, 0))

    def test_params_of_another_lattice_rejected(self):
        sp = sigma_params(CanonicalFinite(8, 1, 3))
        for lat in (CanonicalFinite(8, 1, 1), CanonicalFinite(8, 2, 1)):
            with pytest.raises(LatticeError, match="symplectic parameters"):
                wilson_finite(np.ones(8), lat, sp)
            with pytest.raises(LatticeError, match="symplectic parameters"):
                equivalence_report(np.ones(8), lat, sp=sp)


class TestEquivalenceReport:
    def test_rectangular_all_true(self):
        rep = equivalence_report(np.ones(8), CanonicalFinite(8, 1, 0))
        assert rep.verdicts() == (True, True, True, True)

    def test_sheared_all_equal_after_tighten(self):
        rng = SplitMix64(54)
        for lat in aligned_lattices((8, 12)):
            sp = sigma_params(lat)
            U = metaplectic_matrix(sp)
            gt = tighten(U @ rng.real_dft_window(lat.L), lat)
            rep = equivalence_report(gt, lat)
            assert rep.verdicts() == (True, True, True, True), (lat, rep.deviations)

    def test_raw_windows_all_false(self):
        rng = SplitMix64(55)
        lat = CanonicalFinite(8, 1, 3)
        sp = sigma_params(lat)
        U = metaplectic_matrix(sp)
        rep = equivalence_report(U @ rng.real_dft_window(8), lat)
        assert rep.verdicts() == (False, False, False, False)

    def test_non_frame_all_false(self):
        d = np.zeros(8, dtype=complex)
        d[0] = 1
        rep = equivalence_report(d, CanonicalFinite(8, 1, 0))
        assert rep.verdicts() == (False, False, False, False)

    def test_hypothesis_violation_raises(self):
        rng = SplitMix64(56)
        lat = CanonicalFinite(8, 1, 3)
        with pytest.raises(FrameError, match="real"):
            equivalence_report(rng.complex_vector(8), lat)


class TestWilsonDiscrete:
    def test_delta_rectangular_elements(self):
        fam = WilsonSequenceFamily(DiscreteWindow(0, [1.0]), 2, 0)
        for m in (-2, 0, 3):
            e = fam.element(m, 0)
            assert e.start == 2 * m and np.allclose(e.values, [1.0])

    def test_boundary_elements_keep_single_atom_support(self):
        g = DiscreteWindow(-2, [1.0, 0.5, 0.25])
        for N, b in ((8, 0), (8, 1), (12, 2)):
            fam = WilsonSequenceFamily(g, N, b)
            for m in (-2, 0, 3):
                for n in (0, fam.c):
                    e = fam.element(m, n)
                    assert len(e.values) == 3 and np.allclose(np.abs(e.values), np.abs(g.values))

    def test_coefficient_rules(self):
        g = DiscreteWindow(0, [1.0, 0.5])
        fam = WilsonSequenceFamily(g, 8, 0)
        m, n = 1, 2   # m+n odd -> i/sqrt2 difference
        e = fam.element(m, n)
        a1 = fam._atom(m, n)
        a2 = fam._atom(m, -n)
        lo, hi = e.start, e.stop
        want = 1j * (a1.sample(lo, hi) - a2.sample(lo, hi)) / np.sqrt(2)
        assert np.allclose(e.sample(lo, hi), want)
        m, n = 1, 1   # m+n even -> 1/sqrt2 sum
        e = fam.element(m, n)
        a1 = fam._atom(m, n)
        a2 = fam._atom(m, -n)
        lo, hi = e.start, e.stop
        want = (a1.sample(lo, hi) + a2.sample(lo, hi)) / np.sqrt(2)
        assert np.allclose(e.sample(lo, hi), want)

    def test_gram_matches_periodization(self):
        rng = SplitMix64(57)
        vals = rng.reals(9)
        g = DiscreteWindow(-4, 0.5 * (vals + vals[::-1]))
        N, b = 4, 1
        fam = WilsonSequenceFamily(g, N, b)
        m_range = range(-8, 9)
        G_seq = gram_discrete(fam.elements(m_range))
        for L in (256, 512):
            G_per = periodized_gram(fam, m_range, L)
            assert np.max(np.abs(G_seq - G_per)) < 1e-8

    def test_invalid_b_rejected(self):
        with pytest.raises(LatticeError):
            WilsonSequenceFamily(DiscreteWindow(0, [1.0]), 4, 2)


class TestContinuousDemo:
    def test_deviation_decreases_and_control_small(self):
        rep64 = wilson_continuous_demo(1.0, 64)
        rep256 = wilson_continuous_demo(1.0, 256)
        assert rep256.hex_gram_deviation < rep64.hex_gram_deviation
        assert rep256.rect_gram_deviation < 1e-6
        assert np.isfinite(rep256.time_spread) and rep256.time_spread > 0
        assert np.isfinite(rep256.freq_spread) and rep256.freq_spread > 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wilson_continuous_demo(0.0, 64)
        with pytest.raises(ValueError):
            wilson_continuous_demo(1.0, 32)
        with pytest.raises(ValueError):
            wilson_continuous_demo(1.0, 1026 ** 2)  # above MAX_L = 1024^2

    @pytest.mark.parametrize("nu", [float("nan"), float("inf"), 0.0, -1.0])
    def test_nu_must_be_finite_positive(self, nu):
        with pytest.raises(ValueError, match="nu must be a finite positive number"):
            wilson_continuous_demo(nu, 64)

    @pytest.mark.parametrize("lat", [(1 / 2, 1 / 4, 1), (1, 1 / 3, 1 / 2), (3 / 4, 1 / 2, 2 / 3),
                                     (1 / 4, 0, 2), (1 / 4, 1 / 10, 2), (HEX_A, HEX_B, HEX_D)])
    def test_transported_gram_on_volume_half_lattices(self, lat):
        L = 4096
        t = (np.arange(L) - L / 2) / 64
        w = tighten(2 ** 0.25 * np.exp(-np.pi * t * t) + 0j, CanonicalFinite(L, 64, 0))
        assert continuous_wilson_gram(apply_continuous_U(w, lat, inverse=True), *lat) <= 1e-12

    def test_demo_memory_is_linear(self):
        L = 2 ** 16
        tracemalloc.start()
        try:
            wilson_continuous_demo(1.0, L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 16 * L  # forty complex L-vectors
