import csv
import time
import tracemalloc
from fractions import Fraction
from itertools import islice
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wilsonlat
from oracles import (box_search, candidates, continuous_factor, dense_metaplectic,
                     intertwining_phase, map_point, metaplectic_matrix, norm2,
                     phi_params_finite, trig_resample)
from wilsonlat import cli, metaplectic, wilson
from wilsonlat.gabor import tighten
from wilsonlat.metaplectic import (ParameterSearchError, SigmaParams, apply_continuous_U,
                                   meta_finite, sigma_params)
from wilsonlat.ring import CanonicalFinite, CanonicalReal, LatticeError
from wilsonlat.rng import SplitMix64
from wilsonlat.signal import DiscreteWindow, centered_dft, tf_shift
from wilsonlat.wilson import HEX_D, chirp_discrete

F = Fraction

ALL_LATTICES = [(L, p, b)
                for L in (8, 12, 16, 24)
                for p in range(1, L // 2 + 1) if (L // 2) % p == 0
                for b in range(L // (2 * p))]


def all_lattices():
    for L in (8, 12, 16, 24):
        for p in [d for d in range(1, L // 2 + 1) if (L // 2) % d == 0]:
            for b in range(L // (2 * p)):
                yield CanonicalFinite(L, p, b)


class TestSigmaParams:
    def test_rectangular_is_identity_bundle(self):
        sp = sigma_params(CanonicalFinite(8, 1, 0))
        assert (sp.alpha, sp.beta, sp.gamma, sp.delta) == (1, 0, 0, 1)
        U = metaplectic_matrix(sp)
        assert np.max(np.abs(U - np.eye(8))) < 1e-12

    def test_sheared_8_1_3(self):
        sp = sigma_params(CanonicalFinite(8, 1, 3))
        # deterministic output of the preference-ordered search
        assert (sp.alpha, sp.beta, sp.m0, sp.n0) == (1, 1, 5, -4)
        assert sp.gcd_c == sp.to_json()["s"] == 4
        assert sp.t == 8 and (sp.gamma, sp.delta) == (1, 2)
        assert sp.aligned and not sp.sign_adjusted

    def test_symplectic_everywhere(self):
        for lat in all_lattices():
            sp = sigma_params(lat)
            assert sp.alpha * sp.delta - sp.beta * sp.gamma == 1
            assert abs(sp.alpha) == 1

    def test_bezout_and_lcm_relations(self):
        for lat in all_lattices():
            if lat.b == 0:
                continue
            sp = sigma_params(lat)
            u = lat.time_step
            v = sp.alpha * lat.b + sp.beta * lat.p
            assert sp.alpha * u * sp.m0 + v * sp.n0 == sp.gcd_c
            assert sp.gcd_c == sp.to_json()["s"]
            x0 = u * sp.m0 + lat.b * sp.n0
            y0 = lat.p * sp.n0
            assert sp.gcd_c * sp.t == -x0 * y0
            assert sp.gcd_c * sp.lcm_d == sp.alpha * u * v

    def test_unitary_everywhere(self):
        for lat in all_lattices():
            U = metaplectic_matrix(sigma_params(lat))
            assert np.max(np.abs(U @ U.conj().T - np.eye(lat.L))) < 1e-9

    def test_no_candidate_raises(self):
        with pytest.raises(ParameterSearchError, match="box"):
            metaplectic._search(CanonicalFinite(8, 1, 3), 0)

    def test_invalid_bundle_rejected(self):
        with pytest.raises(LatticeError):
            SigmaParams(alpha=2, beta=0, gamma=0, delta=1, L=8, p=1, b=0)

    def test_sigma_onto_no_rectangle_rejected(self):
        # sigma = id keeps (8, 1, 3) sheared: n0 = 0 and m0 = 1/4
        with pytest.raises(LatticeError, match="no rectangle"):
            SigmaParams(1, 0, 0, 1, 8, 1, 3)

    def test_derived_bezout_relations_on_candidates(self):
        # the first 40 candidates of every sheared L <= 48, alpha = -1 included
        signs = set()
        for lat in sheared_lattices(48):
            for sp in islice(candidates(lat, 2 * lat.L), 40):
                assert_bezout(sp)
                signs.add(sp.alpha)
        assert signs == {1, -1}

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_derived_bezout_relations_generated(self, data):
        half = data.draw(st.integers(1, 2048), label="L/2")
        p = data.draw(st.sampled_from([d for d in range(1, half + 1) if half % d == 0]), label="p")
        lat = CanonicalFinite(2 * half, p, data.draw(st.integers(0, half // p - 1), label="b"))
        sp = searched(boxed, lat, data.draw(st.integers(-1, 2 * lat.L), label="box"))
        if sp is not None:
            assert_bezout(sp)
            assert SigmaParams(sp.alpha, sp.beta, sp.gamma, sp.delta, sp.L, sp.p, sp.b) == sp

    @pytest.mark.parametrize("L, p", [(8, 1), (16, 2), (1024, 4)])
    def test_identity_conventions_at_b_zero(self, L, p):
        js = sigma_params(CanonicalFinite(L, p, 0)).to_json()
        assert js["d"] == js["c"] == L // (2 * p) and js["sign_adjusted"] is False
        assert (js["m0"], js["n0"]) == (1, 0)


def assert_bezout(sp):
    """alpha u m0 + v n0 = c and gcd(x0, y0) = c for the derived values."""
    u = sp.L // (2 * sp.p)
    v = sp.alpha * sp.b + sp.beta * sp.p
    x0, y0 = u * sp.m0 + sp.b * sp.n0, sp.p * sp.n0
    assert sp.alpha * u * sp.m0 + v * sp.n0 == sp.gcd_c == gcd(x0, y0), sp


class TestMetaFinite:
    def test_identity_params(self):
        sp = sigma_params(CanonicalFinite(8, 2, 0))
        f = SplitMix64(40).complex_vector(8)
        assert np.max(np.abs(meta_finite(f, sp) - f)) < 1e-12

    def test_pure_chirp(self):
        sp = SigmaParams(alpha=1, beta=0, gamma=3, delta=1, L=8, p=1, b=1)
        assert (sp.m0, sp.n0, sp.gcd_c) == (1, -3, 1)
        U = metaplectic_matrix(sp)
        k = np.arange(8)
        chirp = np.exp(-1j * np.pi * (3 * k * k * 9 % 16) / 8)
        assert np.max(np.abs(U - np.diag(chirp))) < 1e-12

    def test_unitary_norm_preservation(self):
        rng = SplitMix64(41)
        sp = sigma_params(CanonicalFinite(12, 2, 2))
        U = metaplectic_matrix(sp)
        for _ in range(5):
            f = rng.complex_vector(12)
            assert np.linalg.norm(U @ f) == pytest.approx(np.linalg.norm(f))


class TestIntertwining:
    @pytest.mark.parametrize("L,p,b", [(8, 1, 3), (8, 2, 1), (12, 2, 1),
                                       (16, 2, 3), (24, 3, 2), (8, 1, 0)])
    def test_relation_pointwise(self, L, p, b):
        lat = CanonicalFinite(L, p, b)
        sp = sigma_params(lat)
        U = metaplectic_matrix(sp)
        rng = SplitMix64(100 * L + 10 * p + b)
        g = rng.complex_vector(L)
        h = U.conj().T @ g
        a = lat.time_step
        worst = 0.0
        for m in range(2 * p):
            for n in range(L // p):
                x, y = m * a + n * b, n * p
                lhs = tf_shift(g, x, y)
                rhs = intertwining_phase(sp, x, y) * (U @ tf_shift(h, *map_point(sp, x, y)))
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst < 1e-10

    def test_sigma_maps_lattice_to_rectangle(self):
        # sigma(point of phi(m, n)) = (m c, n L/(2c)) mod L, exact integers
        from oracles import phi_map
        for lat in all_lattices():
            if lat.b == 0:
                continue
            sp = sigma_params(lat)
            pp = phi_params_finite(sp)
            a = lat.time_step
            for m in range(-3, 4):
                for n in range(-3, 4):
                    f1, f2 = phi_map(m, n, pp)
                    x, y = f1 * a + f2 * lat.b, f2 * lat.p
                    got = map_point(sp, x, y)
                    want = ((m * sp.gcd_c) % lat.L, (n * lat.L // (2 * sp.gcd_c)) % lat.L)
                    assert got == want

    def test_phase_independent_of_sign(self):
        # C at the points of phi(m, n) and phi(m, -n) agree exactly
        from oracles import phi_map
        for lat in all_lattices():
            if lat.b == 0:
                continue
            sp = sigma_params(lat)
            pp = phi_params_finite(sp)
            L, a = lat.L, lat.time_step
            for m in range(-4, 5):
                for n in range(1, a):
                    e = []
                    for nn in (n, -n):
                        f1, f2 = phi_map(m, nn, pp)
                        x, y = f1 * a + f2 * lat.b, f2 * lat.p
                        e.append(((sp.alpha * sp.gamma * x * x +
                                   sp.beta * sp.delta * y * y) * (L + 1)
                                  + 2 * sp.beta * sp.gamma * x * y) % (2 * L))
                    assert e[0] == e[1]


class TestChirpDiscrete:
    def test_zero_exponent_is_identity(self):
        w = DiscreteWindow(-2, [1.0, 2.0, 3.0])
        out = chirp_discrete(w, 0, 1, 4)
        assert np.allclose(out.values, w.values)

    def test_delta_fixed(self):
        w = DiscreteWindow(0, [1.0])
        out = chirp_discrete(w, 5, 2, 4)
        assert np.allclose(out.values, [1.0])

    def test_unitary(self):
        rng = SplitMix64(42)
        w = DiscreteWindow(-3, rng.complex_vector(7))
        out = chirp_discrete(w, 3, 2, 6)
        assert norm2(out) == pytest.approx(norm2(w))
        assert out.start == w.start

    def test_invalid_params(self):
        w = DiscreteWindow(0, [1.0])
        with pytest.raises(ValueError):
            chirp_discrete(w, 1, 0, 4)
        with pytest.raises(ValueError):
            chirp_discrete(w, 1, 1, 0)


class TestContinuousFactor:
    def test_rectangular_identity_matrix(self):
        fact = continuous_factor(CanonicalReal(F(1, 2), 0, F(1)))
        assert fact.matrix == ((F(1), F(0)), (0, F(1)))

    def test_hexagonal_volume_half(self):
        a = 3.0 ** (-0.25)
        fact = continuous_factor((a, a / 2, 3.0 ** 0.25 / 2))
        (m00, m01), (m10, m11) = fact.matrix
        assert m01 == pytest.approx(-a / 2)
        assert m11 == pytest.approx(2 * a)
        for m in range(-3, 4):
            for n in range(-3, 4):
                x, y = fact.apply_matrix(m * a + n * a / 2, n * 3.0 ** 0.25 / 2)
                assert x == pytest.approx(m / 2, abs=1e-12)
                assert y == pytest.approx(n, abs=1e-12)

    def test_determinant_one(self):
        for a, d in ((F(1, 2), F(1)), (F(1, 4), F(2)), (F(2), F(1, 4))):
            fact = continuous_factor((a, F(0), d))
            (m00, m01), (m10, m11) = fact.matrix
            assert m00 * m11 - m01 * m10 == 1

    def test_wrong_volume_rejected(self):
        with pytest.raises(LatticeError, match="volume"):
            continuous_factor((1.0, 0.5, 1.0)) # the unit-volume hexagonal scaling


class TestApplyContinuousU:
    def test_identity_for_rectangular(self):
        rng = SplitMix64(43)
        f = rng.complex_vector(64)
        out = apply_continuous_U(f, (0.5, 0.0, 1.0))
        assert np.max(np.abs(out - f)) < 1e-12

    def test_gaussian_rectangular_unchanged(self):
        L = 64
        t = (np.arange(L) - L / 2) / np.sqrt(L)
        g = np.exp(-np.pi * t * t).astype(complex)
        out = apply_continuous_U(g, (0.5, 0.0, 1.0))
        assert np.max(np.abs(out - g)) < 1e-12

    def test_hexagonal_near_unitary(self):
        L = 256
        t = (np.arange(L) - L / 2) / np.sqrt(L)
        g = 2.0 ** 0.25 * np.exp(-np.pi * t * t).astype(complex)
        a = 3.0 ** (-0.25)
        out = apply_continuous_U(g, (a, a / 2, 3.0 ** 0.25 / 2))
        ratio = np.linalg.norm(out) / np.linalg.norm(g)
        assert abs(ratio - 1) < 1e-4

    def test_roundtrip(self):
        L = 256
        t = (np.arange(L) - L / 2) / np.sqrt(L)
        g = np.exp(-np.pi * t * t).astype(complex)
        lat = (3.0 ** (-0.25), 3.0 ** (-0.25) / 2, 3.0 ** 0.25 / 2)
        back = apply_continuous_U(apply_continuous_U(g, lat), lat, inverse=True)
        assert np.max(np.abs(back - g)) < 1e-12

    def test_zero_d_rejected(self):
        with pytest.raises(LatticeError):
            apply_continuous_U(np.ones(64), (0.5, 0.0, 0.0))


def kernel_dilation(f: np.ndarray, scale: float, count: int = 256):
    """At most ``count`` evenly spread positions k whose u_k lies inside the
    period [0, L), and the L x L kernel's dilation of f there."""
    L = len(f)
    u = (np.arange(L) - L / 2) / scale + L / 2
    inside = np.flatnonzero((u >= 0) & (u < L))
    ks = inside[::-(-len(inside) // count)]
    return ks, trig_resample(f, u[ks]) / np.sqrt(abs(scale))


class TestChirpZDilation:
    @pytest.mark.parametrize("L", [64, 256, 1024, 4096])
    @pytest.mark.parametrize("scale", [HEX_D, 1 / HEX_D, 2 / 3, 3 / 2])
    def test_matches_kernel(self, L, scale):
        f = SplitMix64(L).complex_vector(L)
        ks, want = kernel_dilation(f, scale)
        got = metaplectic._dilate(f, scale)[ks]
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_kernel_generated(self, data):
        L = 2 * data.draw(st.integers(1, 32), label="L/2")
        scale = data.draw(st.floats(0.25, 4.0), label="scale")
        f = SplitMix64(L + 1).complex_vector(L)
        ks, want = kernel_dilation(f, scale)
        got = metaplectic._dilate(f, scale)[ks]
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_outside_the_period_reads_zero(self):
        f = SplitMix64(50).complex_vector(64)
        u = (np.arange(64) - 32) * 2.0 + 32  # scale 1/2
        outside = (u < 0) | (u >= 64)
        out = metaplectic._dilate(f, 0.5)
        assert outside.any() and not out[outside].any() and out[~outside].all()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    def test_error_pinned_at_large_L(self):
        """L = 2^16 at the hexagonal scale, against a long double direct sum
        at 64 seeded positions: the float64 chirp phases reach about 1e5 rad."""
        L, scale = 2 ** 16, HEX_D
        f = SplitMix64(51).complex_vector(L)
        u = (np.arange(L) - L / 2) / scale + L / 2
        ks = np.random.default_rng(52).choice(np.flatnonzero((u >= 0) & (u < L)), 64)
        F = centered_dft(f).astype(np.clongdouble)
        J = np.arange(L, dtype=np.longdouble) - L // 2
        want = []
        for K in ks - L // 2:
            turns = K * J / (np.longdouble(scale) * L) % 1  # exact K J, reduced in long double
            phase = 2 * np.pi * turns.astype(float)
            want.append(np.sum(F * (np.cos(phase) + 1j * np.sin(phase))))
        want = np.array(want, dtype=complex) / np.sqrt(L * scale)
        got = metaplectic._dilate(f, scale)[ks]
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    def test_transport_matches_a_wider_grid(self):
        """At d = 2 and 4 the transported window is the one of the grid with
        twice the root (half the step, twice the span) at the shared points."""
        def transported(L, lat):
            root = np.sqrt(L)
            t = (np.arange(L) - L / 2) / root
            w = tighten(2 ** 0.25 * np.exp(-np.pi * t * t) + 0j, CanonicalFinite(L, int(root), 0))
            return apply_continuous_U(w, lat, inverse=True) / L ** 0.25

        for lat in [(1 / 4, 0, 2), (1 / 4, 1 / 10, 2), (1 / 8, 0, 4)]:
            small, wide = transported(1024, lat), transported(4096, lat)
            assert np.max(np.abs(small - wide[2 * np.arange(1024) + 1024])) < 1e-10


def test_centered_dft_signs_are_exact():
    """The centered delta's spectrum is flat to the last bit at L = 2^20."""
    L = 2 ** 20
    f = np.zeros(L, dtype=complex)
    f[L // 2] = 1.0
    for inverse in (False, True):
        assert np.max(np.abs(centered_dft(f, inverse) * np.sqrt(L) - 1)) < 1e-15


def test_centered_dft_matches_direct():
    rng = SplitMix64(44)
    L = 16
    f = rng.complex_vector(L)
    j = np.arange(L)
    W = np.exp(-2j * np.pi * np.outer(j - L / 2, j - L / 2) / L) / np.sqrt(L)
    assert np.max(np.abs(centered_dft(f) - W @ f)) < 1e-12
    assert np.max(np.abs(centered_dft(centered_dft(f), inverse=True) - f)) < 1e-12


PINNED = Path(__file__).with_name("sigma_pinned.csv")


def pinned_rows():
    with open(PINNED) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def sheared_lattices(max_L):
    return [CanonicalFinite(L, p, b) for L in range(2, max_L + 1, 2)
            for p in range(1, L // 2 + 1) if (L // 2) % p == 0
            for b in range(1, L // (2 * p))]


def boxed(lat, box):
    """The search in the box [-box, box]; the identity bundle at b = 0, as
    ``sigma_params``."""
    return sigma_params(lat) if lat.b == 0 else metaplectic._search(lat, box)


def searched(search, lat, box):
    """The bundle a search returns, or None where it raises."""
    try:
        return search(lat, box)
    except ParameterSearchError:
        return None


def dense_admissible(sp):
    try:
        dense_metaplectic(sp)
    except ParameterSearchError:
        return False
    return True


def assert_matches_dense(sp, seed):
    """Factored U, U^H and the materialized matrix against the kernel sum."""
    want = dense_metaplectic(sp)
    assert np.max(np.abs(metaplectic_matrix(sp) - want)) < 1e-12
    f = SplitMix64(seed).complex_vector(sp.L)
    assert np.max(np.abs(meta_finite(f, sp) - want @ f)) < 1e-12
    assert np.max(np.abs(meta_finite(f, sp, inverse=True) - want.conj().T @ f)) < 1e-12


class TestClosedFormSearch:
    def test_reproduces_pinned_choices(self):
        rows = pinned_rows()
        assert len(rows) == 407 + 33
        assert len(sheared_lattices(48)) == 407
        for row in rows:
            lat = CanonicalFinite(int(row["L"]), int(row["p"]), int(row["b"]))
            got = sigma_params(lat).to_json()
            assert {k: str(int(got[k])) for k in row} == row

    def test_rule_matches_dense_test(self):
        # the first 40 candidates of the literal box search, every sheared L <= 48
        checked = rejected = 0
        for lat in sheared_lattices(48):
            for sp in islice(candidates(lat, 2 * lat.L), 40):
                ok = dense_admissible(sp)
                assert bool(metaplectic._admissible(sp.beta, sp.L)) == ok, sp
                if not ok:
                    rejected += 1
                    with pytest.raises(ParameterSearchError):
                        meta_finite(np.ones(sp.L), sp)
                checked += 1
        assert checked == 407 * 40 and rejected > 0

    def test_factored_matches_dense_kernel(self):
        for i, row in enumerate(pinned_rows()):
            if int(row["L"]) <= 48:
                lat = CanonicalFinite(int(row["L"]), int(row["p"]), int(row["b"]))
                assert_matches_dense(sigma_params(lat), i)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def test_rule_and_factored_generated(self, data):
        half = data.draw(st.integers(2, 32), label="L/2")
        p = data.draw(st.sampled_from([d for d in range(1, half) if half % d == 0]), label="p")
        b = data.draw(st.integers(1, half // p - 1), label="b")
        lat = CanonicalFinite(2 * half, p, b)
        cands = list(islice(candidates(lat, 2 * lat.L), 40))
        sp = cands[data.draw(st.integers(0, len(cands) - 1), label="candidate")]
        ok = dense_admissible(sp)
        assert bool(metaplectic._admissible(sp.beta, sp.L)) == ok
        if ok:
            assert_matches_dense(sp, data.draw(st.integers(0, 2**32), label="seed"))

    def test_box_zero_and_small_boxes(self):
        # the box bounds beta, m0 and n0 exactly as in the literal search
        outcomes = set()
        for lat in sheared_lattices(16) + [CanonicalFinite(24, 2, 5), CanonicalFinite(30, 1, 4)]:
            for box in range(-1, 6):
                want = next((sp for sp in candidates(lat, box) if dense_admissible(sp)), None)
                if want is None:
                    with pytest.raises(ParameterSearchError, match="box"):
                        metaplectic._search(lat, box)
                else:
                    assert metaplectic._search(lat, box) == want
                outcomes.add(None if want is None else (want.aligned, want.sign_adjusted))
        # every branch is reached: no candidate, aligned or not, sign-adjusted or not
        assert outcomes >= {None, (True, False), (False, False), (False, True)}


class TestResidueClassSearch:
    """sigma_params visits residue classes of beta and n0 only, and picks
    what the walk over the whole (4L+1)-wide beta box picks."""

    def test_matches_box_search_on_small_lattices(self):
        for lat in sheared_lattices(48):
            for box in range(-1, 8):
                want = searched(box_search, lat, box)
                assert searched(metaplectic._search, lat, box) == want, (lat, box)
            assert sigma_params(lat) == box_search(lat, 2 * lat.L), lat

    def test_matches_box_search_on_the_benchmark_families(self):
        lattices = [CanonicalFinite(L, p, b) for L, p in ((512, 1), (384, 3), (512, 2))
                    for b in range(1, L // (2 * p))]
        assert len(lattices) == 255 + 63 + 127
        for lat in lattices:
            assert sigma_params(lat) == box_search(lat, 2 * lat.L), lat

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_box_search_generated(self, data):
        half = data.draw(st.integers(2, 2048), label="L/2")
        p = data.draw(st.sampled_from([d for d in range(1, half) if half % d == 0]), label="p")
        b = data.draw(st.integers(1, half // p - 1), label="b")
        lat = CanonicalFinite(2 * half, p, b)
        box = data.draw(st.integers(-1, 2 * lat.L), label="box")
        assert searched(metaplectic._search, lat, box) == searched(box_search, lat, box)

    @pytest.mark.parametrize("lat, sigma", [
        (CanonicalFinite(2 ** 20, 1, 1), (1, 524287, -1, -524286)),
        (CanonicalFinite(2 ** 20, 2, 6), (1, 131069, -1, -131068))])
    def test_cold_search_at_the_largest_lattices(self, lat, sigma):
        tracemalloc.start()
        try:
            sp = sigma_params.__wrapped__(lat)  # bypass the cache: a cold search
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (sp.alpha, sp.beta, sp.gamma, sp.delta) == sigma
        assert peak < 2 ** 20  # the box walk peaked at 720 MB


def test_transport_never_calls_dense_oracle(monkeypatch):
    """Production transport applies U through chirps and FFTs only."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense metaplectic oracle called")

    for module in (wilsonlat, metaplectic, wilson, cli):
        if hasattr(module, "metaplectic_matrix"):
            monkeypatch.setattr(module, "metaplectic_matrix", refuse)
    f = SplitMix64(45).complex_vector(4096)
    for lat in (CanonicalFinite(4096, 1, 37), CanonicalFinite(4096, 2, 6)):
        sp = sigma_params(lat)
        back = meta_finite(meta_finite(f, sp), sp, inverse=True)
        assert np.max(np.abs(back - f)) < 1e-12
    lat = CanonicalFinite(512, 1, 37)
    g = tighten(meta_finite(SplitMix64(46).real_dft_window(512), sigma_params(lat)), lat)
    assert all(wilson.equivalence_report(g, lat).verdicts())


def test_transport_is_small_and_fast():
    """Cold search plus U and U^H at L = 4096: no L x L array, well under 1 s."""
    lat = CanonicalFinite(4096, 1, 37)
    f = SplitMix64(47).complex_vector(lat.L)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        sp = sigma_params.__wrapped__(lat)  # bypass the cache: a cold search
        meta_finite(meta_finite(f, sp), sp, inverse=True)
        wall = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * lat.L ** 2 / 32  # a thirty-second of one L x L complex array
    assert wall < 1.0


def test_unit_constant_cache_is_bounded():
    """meta_finite reads c from a per-bundle cache that never outgrows its size."""
    cache = metaplectic._unit_constant
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None
    lat = CanonicalFinite(4096, 1, 37)
    f = SplitMix64(48).complex_vector(lat.L)
    meta_finite(f, sigma_params(lat))
    hits = cache.cache_info().hits
    meta_finite(f, sigma_params(lat), inverse=True)
    assert cache.cache_info().hits == hits + 1
    bundles = 0
    for small in sheared_lattices(24):
        for sp in candidates(small, 2 * small.L):
            if metaplectic._admissible(sp.beta, sp.L):
                meta_finite(np.ones(sp.L), sp)
                bundles += 1
        if bundles > maxsize:
            break
    assert bundles > maxsize
    assert cache.cache_info().currsize <= maxsize
