import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (canonical_lattices, gabor_element, herm_inv_sqrt, inner, is_tight,
                     metaplectic_matrix, symmetrize)
from wilsonlat.gabor import FrameError, frame_operator, gabor_system, tighten, tightness_deviation
from wilsonlat.metaplectic import sigma_params
from wilsonlat.ring import CanonicalFinite
from wilsonlat.rng import SplitMix64
from wilsonlat.signal import dft, tf_shift
from wilsonlat.zak import frame_symbol


def delta(L):
    d = np.zeros(L, dtype=complex)
    d[0] = 1
    return d


LAT810 = CanonicalFinite(8, 1, 0)


def dense_tighten(g, lat):
    """Oracle: sqrt(2) S^{-1/2} g with S assembled from all 2L atoms."""
    return np.sqrt(2.0) * herm_inv_sqrt(frame_operator(gabor_system(g, lat))) @ g


class TestGaborSystem:
    def test_element_count_and_formula(self):
        E = gabor_system(np.ones(8), LAT810)
        assert E.shape == (16, 8)
        l = np.arange(8)
        for m in range(2):
            for n in range(8):
                assert np.allclose(gabor_element(E, LAT810, m, n), np.exp(2j * np.pi * l * n / 8))

    def test_delta_translate(self):
        E = gabor_system(delta(8), LAT810)
        assert np.allclose(gabor_element(E, LAT810, 1, 0), np.roll(delta(8), 4))

    def test_sheared_element(self):
        lat = CanonicalFinite(8, 1, 3)
        g = SplitMix64(20).complex_vector(8)
        E = gabor_system(g, lat)
        l = np.arange(8)
        expect = np.roll(g, 3) * np.exp(2j * np.pi * l / 8)
        assert np.allclose(gabor_element(E, lat, 0, 1), expect)

    def test_dimension_mismatch(self):
        with pytest.raises(FrameError, match="length"):
            gabor_system(np.ones(6), LAT810)

    def test_redundancy_two(self):
        for L, p, b in ((8, 2, 1), (12, 3, 0), (16, 4, 1)):
            E = gabor_system(np.ones(L), CanonicalFinite(L, p, b))
            assert E.shape == (2 * L, L)


class TestFrameOperator:
    def test_constant_window_gives_twice_identity(self):
        S = frame_operator(gabor_system(np.ones(8), LAT810))
        assert np.max(np.abs(S - 2 * np.eye(8))) < 1e-13

    def test_delta_window(self):
        S = frame_operator(gabor_system(delta(8), LAT810))
        assert np.allclose(S, np.diag([1, 0, 0, 0, 1, 0, 0, 0]))

    def test_trace_identity(self):
        rng = SplitMix64(21)
        for L, p, b in ((8, 1, 0), (12, 2, 1), (16, 2, 3)):
            g = rng.complex_vector(L)
            S = frame_operator(gabor_system(g, CanonicalFinite(L, p, b)))
            assert np.trace(S).real == pytest.approx(2 * L * inner(g, g).real, rel=1e-12)

    def test_blocked_product_matches_one_matmul_on_all_small_lattices(self):
        rng = SplitMix64(23)
        for lat in canonical_lattices(range(2, 49, 2)):
            E = gabor_system(rng.complex_vector(lat.L), lat)
            assert np.max(np.abs(frame_operator(E) - E.T @ E.conj() / lat.L)) <= 1e-13, lat

    def test_memory_beyond_the_family_is_one_matrix(self):
        lat = CanonicalFinite(512, 4, 1)
        E = gabor_system(SplitMix64(24).complex_vector(lat.L), lat)
        tracemalloc.start()
        try:
            tightness_deviation(E, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # S (4 MiB) and |S - 2I| (2 MiB); a copy of conj(E) alone is 8 MiB
        assert peak < 7 * 2 ** 20

    def test_commutes_with_lattice_shifts(self):
        rng = SplitMix64(22)
        for L, p, b in ((8, 1, 3), (12, 2, 1)):
            lat = CanonicalFinite(L, p, b)
            g = rng.complex_vector(L)
            S = frame_operator(gabor_system(g, lat))
            f = rng.complex_vector(L)
            for (x, y) in ((lat.time_step, 0), (b, p)):
                lhs = S @ tf_shift(f, x, y)
                rhs = tf_shift(S @ f, x, y)
                assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestIsTight:
    def test_constant_window_tight(self):
        assert is_tight(gabor_system(np.ones(8), LAT810), 2.0)

    def test_delta_not_tight(self):
        assert not is_tight(gabor_system(delta(8), LAT810), 2.0)

    def test_bound_validation(self):
        with pytest.raises(ValueError, match="bound"):
            is_tight(gabor_system(np.ones(8), LAT810), 0.0)


class TestTighten:
    def test_already_tight_fixed_point(self):
        gt = tighten(np.ones(8), LAT810)
        assert np.max(np.abs(gt - np.ones(8))) < 1e-12

    def test_gaussian_becomes_tight(self):
        l = np.arange(8) - 4
        g = np.exp(-np.pi * (l / 2.0) ** 2).astype(complex)
        gt = tighten(g, LAT810)
        assert is_tight(gabor_system(gt, LAT810), 2.0, 1e-9)

    def test_singular_rejected(self):
        for g in (delta(8), np.full(8, np.nan)):
            with pytest.raises(FrameError, match="does not generate a frame"):
                tighten(g, LAT810)

    def test_singular_rejected_sheared(self):
        # a single odd frequency: every atom over (16, 2, 1) has an odd
        # frequency, so the even frequencies are never reached
        lat = CanonicalFinite(16, 2, 1)
        g = np.exp(2j * np.pi * np.arange(16) / 16)
        assert np.linalg.eigvalsh(frame_operator(gabor_system(g, lat)))[0] < 1e-12
        with pytest.raises(FrameError, match="does not generate a frame"):
            tighten(g, lat)

    def test_idempotent(self):
        rng = SplitMix64(23)
        for L, p, b in ((8, 1, 0), (12, 2, 1), (16, 2, 3)):
            lat = CanonicalFinite(L, p, b)
            gt = tighten(rng.complex_vector(L), lat)
            again = tighten(gt, lat)
            assert np.max(np.abs(again - gt)) < 1e-9

    def test_real_spectrum_preserved_rectangular(self):
        rng = SplitMix64(24)
        for L, p in ((8, 1), (12, 2), (16, 4)):
            lat = CanonicalFinite(L, p, 0)
            g = rng.real_dft_window(L)
            # even-symmetrize on top of the real spectrum
            g = 0.5 * (g + g[(-np.arange(L)) % L])
            gt = tighten(g, lat)
            assert np.max(np.abs(dft(gt).imag)) < 1e-9

    def test_tightness_moves_with_unitary(self):
        # the metaplectic unitary sends the sheared tight system to the
        # rectangular one with the same bound
        lat = CanonicalFinite(8, 1, 3)
        sp = sigma_params(lat)
        U = metaplectic_matrix(sp)
        rng = SplitMix64(25)
        gt = tighten(U @ rng.real_dft_window(8), lat)
        rect = CanonicalFinite(8, sp.q, 0)
        assert is_tight(gabor_system(U.conj().T @ gt, rect), 2.0, 1e-9)


class TestFrameSymbolOracle:
    def test_tighten_matches_dense_on_all_small_lattices(self):
        rng = SplitMix64(28)
        lattices = canonical_lattices(range(2, 49, 2))
        assert len(lattices) == 491
        for lat in lattices:
            g = rng.complex_vector(lat.L)
            want = dense_tighten(g, lat)
            err = np.linalg.norm(tighten(g, lat) - want) / np.linalg.norm(want)
            assert err <= 1e-12, (lat, err)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_tighten_matches_dense_generated(self, data):
        half = data.draw(st.integers(1, 32), label="L/2")
        p = data.draw(st.sampled_from([d for d in range(1, half + 1) if half % d == 0]), label="p")
        b = data.draw(st.integers(0, half // p - 1), label="b")
        lat = CanonicalFinite(2 * half, p, b)
        parts = st.floats(-1.0, 1.0, allow_subnormal=False)
        re = np.array(data.draw(st.lists(parts, min_size=lat.L, max_size=lat.L), label="re"))
        im = np.array(data.draw(st.lists(parts, min_size=lat.L, max_size=lat.L), label="im"))
        g = re + 1j * im
        # tighten(c g) = (c/|c|) tighten(g): rescale so that S cannot underflow
        assume(np.max(np.abs(g)) > 0)
        g = g / np.max(np.abs(g))
        w = np.linalg.eigvalsh(frame_operator(gabor_system(g, lat)))
        assume(w[0] > 1e-3 * w[-1])  # a frame, conditioned for a 1e-12 comparison
        want = dense_tighten(g, lat)
        assert np.linalg.norm(tighten(g, lat) - want) <= 1e-12 * np.linalg.norm(want)

    def test_symbol_is_the_spectrum(self):
        rng = SplitMix64(29)
        for lat in canonical_lattices(range(2, 25, 2)):
            g = rng.complex_vector(lat.L)
            d = frame_symbol(g, lat).values
            assert d.shape == (lat.L // (2 * lat.p), 2 * lat.p)
            w = np.linalg.eigvalsh(frame_operator(gabor_system(g, lat)))
            # the whole spectrum, so in particular the frame bounds min d, max d
            assert np.max(np.abs(np.sort(d.ravel()) - w)) <= 1e-12 * w[-1], lat


def test_symmetrize_makes_spectrum_real():
    rng = SplitMix64(26)
    g = rng.complex_vector(12)
    assert np.max(np.abs(dft(symmetrize(g)).imag)) < 1e-14


def test_fourier_twist_flag():
    # twist applies the unitary DFT sqrt(L) dft after tightening
    rng = SplitMix64(27)
    lat = CanonicalFinite(16, 4, 0)
    g = rng.real_dft_window(16)
    twisted = np.sqrt(16) * dft(tighten(g, lat))
    # tightness moves to the transposed rectangular lattice (p' = L/(2p))
    assert is_tight(gabor_system(twisted, CanonicalFinite(16, 2, 0)), 2.0, 1e-9)
