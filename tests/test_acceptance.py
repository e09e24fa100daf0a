"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import time
from math import gcd

import numpy as np
import pytest

from oracles import (gram, gram_discrete, intertwining_phase, is_tight, map_point,
                     metaplectic_matrix, periodized_gram, phi_inverse, phi_map,
                     phi_params_discrete, phi_params_finite, wilson_element)
from wilsonlat.gabor import gabor_system, tighten, tightness_deviation
from wilsonlat.metaplectic import sigma_params
from wilsonlat.ring import (CanonicalFinite, GeneratorMatrix, canonical_finite,
                            lattice_points_finite)
from wilsonlat.rng import SplitMix64
from wilsonlat.signal import DiscreteWindow, tf_shift
from wilsonlat.wilson import (WilsonSequenceFamily, equivalence_report,
                              gram_deviation, wilson_continuous_demo, wilson_finite)
from wilsonlat.zak import cond_correlation, cond_quadrature


def divisors_of_half(L):
    return [d for d in range(1, L // 2 + 1) if (L // 2) % d == 0]


def all_lattices(Ls):
    return [CanonicalFinite(L, p, b)
            for L in Ls for p in divisors_of_half(L)
            for b in range(L // (2 * p))]


def aligned_lattices(Ls):
    """Lattices whose symplectic image is the rectangle with the same p
    (gcd(p, L/2p) | b); on these the four-way equivalence is sharp."""
    return [lat for lat in all_lattices(Ls)
            if lat.b % gcd(lat.p, lat.time_step) == 0]


def random_det_half_matrix(rng: SplitMix64, L: int) -> GeneratorMatrix:
    divisors = divisors_of_half(L)
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


def test_criterion_1_canonicalization_oracle():
    """500 random det-L/2 matrices per L: canonical form generates the same
    point set, satisfies the range constraints, and is idempotent."""
    rng = SplitMix64(1001)
    t0 = time.perf_counter()
    for L in (4, 8, 12, 16, 24, 40):
        for _ in range(500):
            A = random_det_half_matrix(rng, L)
            can = canonical_finite(A)
            assert (L // 2) % can.p == 0
            assert 0 <= can.b < L // (2 * can.p)
            assert lattice_points_finite(A) == lattice_points_finite(can)
            assert canonical_finite(can.to_generator()) == can
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"canonicalization oracle too slow: {elapsed:.1f} s"
    print(f"\nACCEPTANCE 1 PASS: canonicalization oracle, 3000 matrices, "
          f"{elapsed:.1f} s")


def test_criterion_2_rectangular_wilson_onb():
    """100 random real-spectrum windows per (L, p): tightened windows give
    Wilson Grams within 1e-9 of the identity; raw windows have agreeing
    verdicts across the four rectangular formulations."""
    rng = SplitMix64(1002)
    t0 = time.perf_counter()
    worst = 0.0
    pairs = 0
    for L in (8, 12, 16, 24):
        for p in divisors_of_half(L):
            lat = CanonicalFinite(L, p, 0)
            pairs += 1
            for _ in range(100):
                g = rng.real_dft_window(L)
                gt = tighten(g, lat)
                dev = gram_deviation(wilson_finite(gt, lat))
                worst = max(worst, dev)
                assert dev < 1e-9, (L, p, dev)
                # un-tightened: the four verdicts agree pairwise
                vt = is_tight(gabor_system(g, lat), 2.0, 1e-9)
                vq, _ = cond_quadrature(g, p)
                vc, _ = cond_correlation(g, p)
                vw = gram_deviation(wilson_finite(g, lat)) <= 1e-9
                assert vt == vq == vc == vw, (L, p, vt, vq, vc, vw)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"rectangular Wilson sweep too slow: {elapsed:.1f} s"
    print(f"\nACCEPTANCE 2 PASS: rectangular Wilson ONB, {pairs} (L, p) pairs x 100 "
          f"windows, worst tightened Gram deviation {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_zak_criteria_equivalence():
    """Quadrature and correlation verdicts match tightness on the same
    corpus; on tightened windows every deviation is below 1e-8."""
    rng = SplitMix64(1003)
    worst_tight = 0.0
    for L in (8, 12, 16, 24):
        for p in divisors_of_half(L):
            lat = CanonicalFinite(L, p, 0)
            for k in range(20):
                raw = rng.real_dft_window(L)
                tightened = tighten(raw, lat)
                for g, expect_tight in ((raw, None), (tightened, True)):
                    vt = is_tight(gabor_system(g, lat), 2.0, 1e-9)
                    vq, dq = cond_quadrature(g, p)
                    vc, dc = cond_correlation(g, p)
                    assert vt == vq == vc
                    if expect_tight:
                        assert vt
                        dt = tightness_deviation(gabor_system(g, lat), 2.0)
                        worst_tight = max(worst_tight, dq, dc, dt)
    assert worst_tight < 1e-8
    print(f"\nACCEPTANCE 3 PASS: Zak criteria match tightness; worst tightened "
          f"deviation {worst_tight:.2e}")


def test_criterion_4_metaplectic_intertwining():
    """g[x, y] = C(x, y) U (U^{-1} g)[sigma(x, y)] pointwise below 1e-10 over
    all lattice points, every valid (p, b), 20 random windows each."""
    rng = SplitMix64(1004)
    worst = 0.0
    lattices = all_lattices((8, 12, 16, 24))
    for lat in lattices:
        L, p, b = lat.L, lat.p, lat.b
        sp = sigma_params(lat)
        U = metaplectic_matrix(sp)
        a = lat.time_step
        points = [(m * a + n * b, n * p) for m in range(2 * p) for n in range(L // p)]
        for _ in range(20):
            g = rng.complex_vector(L)
            h = U.conj().T @ g
            shifted = np.array([tf_shift(h, *map_point(sp, x, y)) for x, y in points])
            rhs = (U @ shifted.T).T
            for i, (x, y) in enumerate(points):
                lhs = tf_shift(g, x, y)
                err = float(np.max(np.abs(lhs - intertwining_phase(sp, x, y) * rhs[i])))
                worst = max(worst, err)
    assert worst < 1e-10, worst
    print(f"\nACCEPTANCE 4 PASS: intertwining relation on {len(lattices)} lattices, "
          f"max pointwise error {worst:.2e}")


def test_criterion_5_four_way_equivalence():
    """All four conditions return identical verdicts per window: raw windows
    and non-frames all-false, tightened windows all-true.  Lattice corpus:
    the aligned lattices, where the basis clauses are non-vacuous."""
    rng = SplitMix64(1005)
    lattices = aligned_lattices((8, 12, 16, 24))
    checked = 0
    for lat in lattices:
        sp = sigma_params(lat)
        U = metaplectic_matrix(sp)
        L = lat.L
        delta = np.zeros(L, dtype=complex)
        delta[0] = 1.0
        windows = []
        for k in range(100):
            h = rng.real_dft_window(L)
            if k % 2 == 0:
                windows.append((np.asarray(U @ h), False))
            else:
                windows.append((tighten(U @ h, lat), True))
        # degenerate / non-frame shaped windows: all-false
        windows.append((np.asarray(U @ delta), False))
        for g, expect in windows:
            rep = equivalence_report(g, lat, tol=1e-9, sp=sp)
            v = rep.verdicts()
            assert v == (v[0],) * 4, (lat, rep.deviations)
            assert v[0] == expect, (lat, expect, rep.deviations)
            checked += 1
    print(f"\nACCEPTANCE 5 PASS: four-way equivalence on {len(lattices)} lattices, "
          f"{checked} windows, verdicts identical in every case")


def test_criterion_6_phi_map_combinatorics():
    """Bijectivity of the index map on [-4L, 4L]^2 by brute force and the
    exact window-image counting property, finite and sequence variants."""
    # finite variant
    finite_tested = 0
    for lat in all_lattices((8, 12, 16, 24)):
        if lat.b == 0:
            continue
        sp = sigma_params(lat)
        pp = phi_params_finite(sp)
        L, p, c = lat.L, lat.p, sp.gcd_c
        box = 4 * L
        seen = set()
        for m in range(-box, box + 1):
            for n in range(-box, box + 1):
                img = phi_map(m, n, pp)
                assert img not in seen
                seen.add(img)
                assert phi_inverse(*img, pp) == (m, n)
        residues = sorted((m % (L // c), n % (2 * c))
                          for k in range(2 * p) for l in range(L // p)
                          for (m, n) in (phi_inverse(k, l, pp),))
        assert residues == sorted((mm, nn) for mm in range(L // c)
                                  for nn in range(2 * c))
        finite_tested += 1
    # sequence variant: per fixed m the preimage hits each residue mod 2c once
    seq_tested = 0
    for N in (4, 6, 8, 12):
        for b in range(1, N // 2):
            pp = phi_params_discrete(N, b)
            c = gcd(N // 2, b)
            box = 4 * N
            seen = set()
            for m in range(-box, box + 1):
                for n in range(-box, box + 1):
                    img = phi_map(m, n, pp)
                    assert img not in seen
                    seen.add(img)
            for m in range(-4, 5):
                ns = [n for n in range(-8 * N, 8 * N + 1)
                      if 0 <= phi_map(m, n, pp)[1] <= N - 1]
                assert len(ns) == 2 * c
                assert sorted(n % (2 * c) for n in ns) == list(range(2 * c))
            seq_tested += 1
    print(f"\nACCEPTANCE 6 PASS: index-map bijectivity and counting on "
          f"{finite_tested} finite and {seq_tested} sequence lattices")


def test_criterion_7_worked_closed_form():
    """Constant window on (8, 1, 0) yields exactly the real Fourier basis."""
    sys = wilson_finite(np.ones(8), CanonicalFinite(8, 1, 0))
    l = np.arange(8)
    expected = {(0, 0): np.ones(8), (0, 4): (-1.0) ** l}
    for n in (1, 2, 3):
        for m in (0, 1):
            if (m + n) % 2 == 0:
                expected[(m, n)] = np.sqrt(2) * np.cos(2 * np.pi * l * n / 8)
            else:
                expected[(m, n)] = -np.sqrt(2) * np.sin(2 * np.pi * l * n / 8)
    worst = 0.0
    for (m, n), want in expected.items():
        worst = max(worst, float(np.max(np.abs(wilson_element(sys, m, n) - want))))
    dev = gram_deviation(sys)
    assert worst < 1e-12 and dev < 1e-12
    print(f"\nACCEPTANCE 7 PASS: closed-form real Fourier basis, element error "
          f"{worst:.2e}, Gram deviation {dev:.2e}")


def test_criterion_8_continuous_hexagonal_demo():
    """Sampled hexagonal construction: Gram deviation shrinks from L = 64 to
    L = 256; the rectangular control stays below 1e-6; spreads are finite."""
    t0 = time.perf_counter()
    rep64 = wilson_continuous_demo(1.0, 64)
    rep256 = wilson_continuous_demo(1.0, 256)
    elapsed = time.perf_counter() - t0
    assert rep256.hex_gram_deviation < rep64.hex_gram_deviation
    assert rep256.rect_gram_deviation < 1e-6
    assert np.isfinite(rep256.time_spread) and rep256.time_spread > 0
    assert np.isfinite(rep256.freq_spread) and rep256.freq_spread > 0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 8 PASS: hexagonal demo deviation {rep64.hex_gram_deviation:.2e}"
          f" -> {rep256.hex_gram_deviation:.2e}, control {rep256.rect_gram_deviation:.2e},"
          f" spreads ({rep256.time_spread:.3f}, {rep256.freq_spread:.3f}), {elapsed:.1f} s")


def test_criterion_9_sequence_finite_consistency():
    """A 9-point window's truncated sequence Wilson Gram matches the L = 512
    periodized Gram entrywise to 1e-8."""
    rng = SplitMix64(1009)
    vals = rng.reals(9)
    g = DiscreteWindow(-4, 0.5 * (vals + vals[::-1]))
    fam = WilsonSequenceFamily(g, 4, 1)
    m_range = range(-8, 9)
    G_seq = gram_discrete(fam.elements(m_range))
    G_per = periodized_gram(fam, m_range, 512)
    diff = float(np.max(np.abs(G_seq - G_per)))
    assert diff < 1e-8
    print(f"\nACCEPTANCE 9 PASS: sequence vs periodized finite Gram, "
          f"max entry difference {diff:.2e}")
