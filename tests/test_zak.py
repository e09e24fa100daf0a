import numpy as np
import pytest

from wilsonlat.gabor import gabor_system, is_tight, tighten
from wilsonlat.ring import CanonicalFinite
from wilsonlat.rng import SplitMix64
from wilsonlat.signal import DiscreteWindow, dft
from wilsonlat.zak import (cond_correlation, cond_correlation_discrete,
                           cond_quadrature, correlation_sums_discrete, frame_symbol)


def delta(L):
    d = np.zeros(L, dtype=complex)
    d[0] = 1
    return d


def correlation_deviation_literal(g, p):
    """Oracle: max over j, y of |sum_l ghat(y+lp) ghat(y+lp+2jp) - delta_j0 / p|."""
    ghat = dft(g)
    L = len(ghat)
    ys = np.arange(L)
    dev = 0.0
    for j in range(L // (2 * p)):
        total = np.zeros(L, dtype=complex)
        for l in range(L // p):
            total += ghat[(ys + l * p) % L] * ghat[(ys + l * p + 2 * j * p) % L]
        target = 1.0 / p if j == 0 else 0.0
        dev = max(dev, float(np.max(np.abs(total - target))))
    return dev


def zak(f, p):
    """Zak transform of f on the (y, x) grid with y reflected: W_0 of the
    frame symbol of the window whose fft is f."""
    return frame_symbol(np.fft.ifft(f), CanonicalFinite(len(f), p, 0)).window_zak


def correlation_sums_literal(g, N, t_samples=None):
    """Oracle: the sums of correlation_sums_discrete, term by term."""
    width = len(g.values) - 1
    if t_samples is None:
        t_samples = max(64, 2 * (2 * width // N + 1) + 1)
    ts = np.arange(t_samples) / (N * t_samples)
    sums = np.zeros((N // 2, t_samples), dtype=complex)
    for j in range(N // 2):
        for l in range(N):
            sums[j] += g.ft_at(ts + l / N) * g.ft_at(ts + (l + 2 * j) / N)
    return ts, sums


class TestZakFinite:
    def test_delta(self):
        Z = zak(delta(8), 1)
        assert np.allclose(Z[:, 0], 1)
        assert np.allclose(Z[:, 1], 0)

    def test_constant(self):
        Z = zak(np.ones(8), 1)
        expect = np.zeros((4, 2))
        expect[0] = 4
        assert np.allclose(Z, expect)

    def test_reconstruction(self):
        rng = SplitMix64(30)
        for L, p in ((8, 1), (12, 3), (16, 2)):
            f = rng.complex_vector(L)
            rec = (2 * p / L) * zak(f, p).sum(axis=0)
            assert np.max(np.abs(rec - f[:2 * p])) < 1e-12

    def test_unitarity(self):
        rng = SplitMix64(31)
        for L, p in ((8, 1), (12, 2), (24, 3)):
            f = rng.complex_vector(L)
            lhs = (2 * p / L) * np.sum(np.abs(zak(f, p)) ** 2)
            assert lhs == pytest.approx(np.sum(np.abs(f) ** 2), rel=1e-12)

    def test_linear(self):
        rng = SplitMix64(33)
        f, g = rng.complex_vector(8), rng.complex_vector(8)
        Zsum = zak(2 * f + 3j * g, 2)
        assert np.max(np.abs(Zsum - 2 * zak(f, 2) - 3j * zak(g, 2))) < 1e-12

    def test_divisibility_required(self):
        with pytest.raises(ValueError, match="divide"):
            zak(np.ones(8), 3)


class TestQuadratureCondition:
    def test_constant_window(self):
        holds, dev = cond_quadrature(np.ones(8), 1)
        assert holds and dev < 1e-14

    def test_tightened_gaussian(self):
        l = np.arange(16) - 8
        g = np.exp(-np.pi * (l / 3.0) ** 2).astype(complex)
        gt = tighten(g, CanonicalFinite(16, 1, 0))
        holds, dev = cond_quadrature(gt, 1)
        assert holds and dev < 1e-10

    def test_delta_fails(self):
        holds, dev = cond_quadrature(delta(8), 1)
        assert not holds and dev > 0.1

    def test_complex_spectrum_rejected(self):
        rng = SplitMix64(34)
        g = rng.complex_vector(8)
        with pytest.raises(ValueError, match="real-valued"):
            cond_quadrature(g, 1)


class TestCorrelationCondition:
    def test_constant_window(self):
        holds, dev = cond_correlation(np.ones(8), 1)
        assert holds and dev < 1e-14

    def test_agrees_with_quadrature(self):
        rng = SplitMix64(35)
        for _ in range(20):
            g = rng.real_dft_window(8)
            hq, _ = cond_quadrature(g, 1)
            hc, _ = cond_correlation(g, 1)
            assert hq == hc

    def test_delta_fails(self):
        holds, _ = cond_correlation(delta(8), 1)
        assert not holds

    def test_matches_literal_double_sum(self):
        rng = SplitMix64(38)
        for L in (8, 12, 16, 24, 36, 48):
            for p in [d for d in range(1, L // 2 + 1) if (L // 2) % d == 0]:
                lat = CanonicalFinite(L, p, 0)
                raw = rng.real_dft_window(L)
                for g in (raw, tighten(raw, lat)):
                    want = correlation_deviation_literal(g, p)
                    holds, dev = cond_correlation(g, p)
                    assert abs(dev - want) <= 1e-12 * max(1.0, want), (L, p)
                    assert holds == (want <= 1e-9)


class TestEquivalenceWithTightness:
    def test_verdicts_match_is_tight(self):
        rng = SplitMix64(36)
        for L in (8, 12, 16):
            for p in [d for d in range(1, L // 2 + 1) if (L // 2) % d == 0]:
                lat = CanonicalFinite(L, p, 0)
                raw = rng.real_dft_window(L)
                tightened = tighten(raw, lat)
                for g in (raw, tightened):
                    t = is_tight(gabor_system(g, lat), 2.0, 1e-9)
                    hq, _ = cond_quadrature(g, p)
                    hc, _ = cond_correlation(g, p)
                    assert t == hq == hc


class TestCorrelationDiscrete:
    def test_delta_sequence(self):
        g = DiscreteWindow(0, [1.0])
        holds, dev = cond_correlation_discrete(g, 2)
        assert holds and dev < 1e-12

    def test_pair_window_matches_frame_oracle(self):
        # g = (1, 1): the truncated frame operator of the (1, n/2) system is
        # 4 I, not 2 I, so the criterion must fail
        g = DiscreteWindow(0, [1.0, 1.0])
        holds, dev = cond_correlation_discrete(g, 2)
        assert not holds
        assert dev == pytest.approx(2.0, abs=1e-9)
        # oracle: assemble S on a truncation and watch the middle rows
        span = np.arange(-8, 9)
        S = np.zeros((len(span), len(span)), dtype=complex)
        for m in range(-10, 11):
            for n in range(2):
                atom = np.array([(1.0 if l - m in (0, 1) else 0.0) *
                                 np.exp(1j * np.pi * l * n) for l in span])
                S += np.outer(atom, atom.conj())
        mid = slice(4, 13)
        assert np.max(np.abs((S - 4 * np.eye(len(span)))[mid, mid])) < 1e-12

    def test_homogeneity_degree_two(self):
        g = DiscreteWindow(-1, [0.5, 1.0, 0.25])
        _, s1 = correlation_sums_discrete(g, 4, 33)
        _, s2 = correlation_sums_discrete(g.scaled(2.0), 4, 33)
        assert np.max(np.abs(s2 - 4 * s1)) < 1e-12

    def test_sampling_consistent_on_nested_grids(self):
        g = DiscreteWindow(0, [1.0, -0.5, 0.25, 0.125])
        _, coarse = correlation_sums_discrete(g, 2, 64)
        _, fine = correlation_sums_discrete(g, 2, 256)
        # the 64-point grid is a subgrid of the 256-point grid; the sums are
        # trigonometric polynomials so the shared samples agree exactly
        assert np.max(np.abs(coarse - fine[:, ::4])) < 1e-12

    def test_matches_literal_sums(self):
        rng = SplitMix64(39)
        for N in range(2, 13, 2):
            for width in (1, 2, 3, 5, 8, 13, 21, 40):
                for start in (-7, -3, 0, 2, 5):
                    g = DiscreteWindow(start, rng.complex_vector(width))
                    scale = N * np.sum(np.abs(g.values)) ** 2  # bounds every sum
                    for t_samples in (None, 33):
                        ts, want = correlation_sums_literal(g, N, t_samples)
                        got_ts, got = correlation_sums_discrete(g, N, t_samples)
                        assert np.array_equal(got_ts, ts)
                        assert np.max(np.abs(got - want)) <= 1e-13 * scale, (N, width, start)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            cond_correlation_discrete(DiscreteWindow(0, [1.0]), 3)


def test_discrete_matches_periodized_finite_criterion():
    # a sequence criterion evaluated on the circle agrees with the finite
    # correlation criterion of the periodization at large L
    rng = SplitMix64(37)
    vals = rng.reals(5)
    g = DiscreteWindow(-2, vals)
    # symmetric real window -> real spectrum in both settings
    sym = DiscreteWindow(-2, 0.5 * (vals + vals[::-1]))
    N = 4
    holds_seq, dev_seq = cond_correlation_discrete(sym, N)
    L = 64 * N
    per = sym.periodize(L)
    holds_fin, dev_fin = cond_correlation(per, L // N)
    assert holds_seq == holds_fin
