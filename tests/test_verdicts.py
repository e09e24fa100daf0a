"""Verdicts off the dense systems: the tightness deviation from the frame
symbol, the Wilson Gram deviation from the Riesz blocks of the same symbol,
and a basis gathered only when it is read, each against its dense oracle."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wilsonlat
from oracles import ambiguity_table, gram, scan_gram_deviation
from wilsonlat import cli, gabor, metaplectic, wilson, zak
from wilsonlat.gabor import (frame_bounds, frame_operator, gabor_system, tighten,
                             tightness_deviation)
from wilsonlat.metaplectic import meta_finite, sigma_params
from wilsonlat.ring import CanonicalFinite, LatticeError
from wilsonlat.rng import SplitMix64
from wilsonlat.signal import write_window_csv
from wilsonlat.wilson import (equivalence_report, gram_deviation, riesz_bounds,
                              riesz_spectrum, wilson_finite)

TOL = 1e-9


def canonical_lattices(max_L):
    for L in range(2, max_L + 1, 2):
        for p in [d for d in range(1, L // 2 + 1) if (L // 2) % d == 0]:
            for b in range(L // (2 * p)):
                yield CanonicalFinite(L, p, b)


def dense_gram_deviation(g, lat):
    return float(np.max(np.abs(gram(wilson_finite(g, lat)) - np.eye(lat.L))))


def check_against_dense(g, lat):
    """Both fast deviations against their oracles; returns the four verdicts."""
    dense = dense_gram_deviation(g, lat)
    scan = scan_gram_deviation(wilson_finite(g, lat))
    assert abs(scan - dense) <= 1e-13 * max(1.0, dense), (lat, scan, dense)
    fast = gram_deviation(wilson_finite(g, lat))
    assert fast >= dense - 1e-13, (lat, fast, dense)
    entrywise = tightness_deviation(gabor_system(g, lat), 2.0)
    spectral = zak.frame_symbol(g, lat).deviation
    assert spectral >= entrywise - 1e-13, (lat, spectral, entrywise)
    verdicts = (fast <= TOL, dense <= TOL, spectral <= TOL, entrywise <= TOL)
    assert verdicts[0] == verdicts[1] and verdicts[2] == verdicts[3], (lat, verdicts)
    return verdicts


def test_fast_verdicts_match_dense_on_all_small_lattices():
    rng = SplitMix64(80)
    lattices = list(canonical_lattices(48))
    assert len(lattices) == 491
    seen = set()
    for lat in lattices:
        g = rng.complex_vector(lat.L)
        h = meta_finite(rng.real_dft_window(lat.L), sigma_params(lat))
        for w in (g, tighten(g, lat), tighten(h, lat)):
            seen.add(check_against_dense(w, lat))
    # raw windows are not tight and tightened ones are; a tightened complex
    # window gives no orthonormal Wilson system, a tightened U h does
    assert {v[2] for v in seen} == {v[0] for v in seen} == {False, True}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_fast_verdicts_match_dense_generated(data):
    half = data.draw(st.integers(1, 32), label="L/2")
    p = data.draw(st.sampled_from([d for d in range(1, half + 1) if half % d == 0]), label="p")
    b = data.draw(st.integers(0, half // p - 1), label="b")
    lat = CanonicalFinite(2 * half, p, b)
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    re = np.array(data.draw(st.lists(parts, min_size=lat.L, max_size=lat.L), label="re"))
    im = np.array(data.draw(st.lists(parts, min_size=lat.L, max_size=lat.L), label="im"))
    g = re + 1j * im
    check_against_dense(g, lat)
    w = np.linalg.eigvalsh(frame_operator(gabor_system(g, lat)))
    assume(w[0] > 1e-3 * w[-1])  # a frame, conditioned well enough to tighten
    assert check_against_dense(tighten(g, lat), lat)[2:] == (True, True)


def check_riesz_blocks(g, lat):
    sys = wilson_finite(g, lat)
    want = np.linalg.eigvalsh(gram(sys))
    got = np.sort(riesz_spectrum(sys))
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, want[-1]), lat


def test_riesz_blocks_are_the_gram_spectrum():
    rng = SplitMix64(87)
    lattices = list(canonical_lattices(48))
    assert len(lattices) == 491
    for lat in lattices:
        g = rng.complex_vector(lat.L)
        h = meta_finite(rng.real_dft_window(lat.L), sigma_params(lat))
        for w in (g, tighten(g, lat), tighten(h, lat), h):
            check_riesz_blocks(w, lat)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_riesz_blocks_generated(data):
    half = data.draw(st.integers(1, 32), label="L/2")
    p = data.draw(st.sampled_from([d for d in range(1, half + 1) if half % d == 0]), label="p")
    b = data.draw(st.integers(0, half // p - 1), label="b")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    lat = CanonicalFinite(2 * half, p, b)
    rng = SplitMix64(seed)
    check_riesz_blocks(rng.complex_vector(lat.L), lat)
    check_riesz_blocks(meta_finite(rng.real_dft_window(lat.L), sigma_params(lat)), lat)


def check_half_frame_bounds(g, lat, sp=None):
    A, B = frame_bounds(g, lat)
    AW, BW = riesz_bounds(wilson_finite(g, lat, sp))
    assert abs(AW - A / 2) <= 1e-12 * B and abs(BW - B / 2) <= 1e-12 * B, (lat, AW, BW, A, B)


def test_riesz_bounds_are_half_the_frame_bounds():
    rng = SplitMix64(88)
    for lat in canonical_lattices(48):
        h = meta_finite(rng.real_dft_window(lat.L), sigma_params(lat))
        check_half_frame_bounds(h, lat)
        check_half_frame_bounds(tighten(h, lat), lat)


def test_riesz_bounds_at_the_largest_lattice():
    # sigma's entries lie near L/2, so unreduced phase products would overflow int64
    lat = CanonicalFinite(2 ** 20, 1, 1)
    sp = sigma_params(lat)
    assert (sp.alpha, sp.beta, sp.gamma, sp.delta) == (1, 524287, -1, -524286)
    h = np.fft.ifft(np.random.default_rng(89).uniform(-1.0, 1.0, lat.L)) * lat.L
    check_half_frame_bounds(meta_finite(h, sp), lat, sp)


def test_riesz_bounds_never_transport(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("metaplectic transport in a Riesz verdict")

    lat = CanonicalFinite(48, 2, 3)
    g = tighten(meta_finite(SplitMix64(90).real_dft_window(lat.L), sigma_params(lat)), lat)
    monkeypatch.setattr(wilson, "meta_finite", refuse)
    monkeypatch.setattr(metaplectic, "meta_finite", refuse)
    sys = wilson_finite(g, lat)
    AW, BW = riesz_bounds(sys)
    assert abs(AW - 1) <= TOL and abs(BW - 1) <= TOL
    assert gram_deviation(sys) <= TOL


def test_one_frame_symbol_per_window(monkeypatch):
    """A report builds the symbol of g over the lattice and of U^{-1} g over
    the rectangle once each; tightness and Riesz bounds share them."""
    built, real = [], zak.frame_symbol

    def counting(g, lat):
        built.append(lat)
        return real(g, lat)

    for module in (wilsonlat, zak, gabor, wilson):
        monkeypatch.setattr(module, "frame_symbol", counting)
    lat = CanonicalFinite(512, 1, 37)
    g = tighten(meta_finite(SplitMix64(91).real_dft_window(lat.L), sigma_params(lat)), lat)
    built.clear()
    report = equivalence_report(g, lat)
    assert all(report.verdicts())
    assert built == [lat, CanonicalFinite(lat.L, report.params.q, 0)]


def test_ambiguity_table_is_the_lattice_of_inner_products():
    rng = SplitMix64(81)
    lattices = list(canonical_lattices(48))
    assert len(lattices) == 491
    for lat in lattices:
        g = rng.complex_vector(lat.L)
        V = ambiguity_table(g, lat)
        # row (k, l) of the system is pi(k a + l b, l p) g; <e, g> = e . conj(g) / L
        want = (gabor_system(g, lat) @ g.conj() / lat.L).reshape(V.shape)
        assert np.max(np.abs(V - want)) <= 1e-13 * np.max(np.abs(g)) ** 2, lat


def test_frame_bounds_are_the_extreme_eigenvalues():
    rng = SplitMix64(82)
    for lat in (CanonicalFinite(24, 2, 1), CanonicalFinite(16, 4, 0), CanonicalFinite(12, 1, 5)):
        g = rng.complex_vector(lat.L)
        w = np.linalg.eigvalsh(frame_operator(gabor_system(g, lat)))
        A, B = frame_bounds(g, lat)
        assert abs(A - w[0]) <= 1e-12 * w[-1] and abs(B - w[-1]) <= 1e-12 * w[-1]
        assert zak.frame_symbol(g, lat).deviation == max(B - 2.0, 2.0 - A)


def test_foreign_symplectic_parameters_rejected():
    lat = CanonicalFinite(16, 1, 3)
    foreign = sigma_params(CanonicalFinite(32, 2, 3))
    with pytest.raises(LatticeError):
        wilson_finite(np.ones(16), lat, foreign)
    with pytest.raises(LatticeError):
        wilson_finite(np.ones(16), CanonicalFinite(16, 1, 0), sigma_params(lat))
    with pytest.raises(LatticeError):
        equivalence_report(np.ones(16), lat, sp=sigma_params(CanonicalFinite(16, 1, 5)))
    # the lattice's own bundle is accepted
    g = tighten(meta_finite(SplitMix64(83).real_dft_window(16), sigma_params(lat)), lat)
    assert gram_deviation(wilson_finite(g, lat, sigma_params(lat))) <= TOL
    assert all(equivalence_report(g, lat, sp=sigma_params(lat)).verdicts())


def test_basis_is_gathered_on_first_read():
    sys = wilson_finite(SplitMix64(84).complex_vector(24), CanonicalFinite(24, 2, 1))
    gram_deviation(sys)
    assert "basis" not in vars(sys)
    B = sys.basis
    assert sys.basis is B and B.shape == (24, 24)


def test_verdicts_never_build_dense_systems(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dense verdict system built")

    for module in (wilsonlat, gabor, wilson, cli):
        for name in ("gabor_system", "frame_operator", "tightness_deviation", "gram"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(wilson.WilsonSystem, "basis", property(refuse))

    lat = CanonicalFinite(512, 1, 37)
    h = np.fft.ifft(SplitMix64(85).reals(lat.L)) * lat.L  # a real spectrum
    g = tighten(meta_finite(h, sigma_params(lat)), lat)
    rep = equivalence_report(g, lat)
    assert all(rep.verdicts()), rep.deviations

    win, out = tmp_path / "g.csv", tmp_path / "gt.csv"
    write_window_csv(win, g)
    assert cli.main(["gabor", "tighten", "--lattice", "512,1,37",
                     "--window", str(win), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["tight_deviation"] <= TOL
    assert cli.main(["wilson", "verify", "--lattice", "512,1,37", "--window", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["orthonormal"]
    assert cli.main(["selftest"]) == 0


def test_wilson_verify_runs_in_small_memory(tmp_path, capsys):
    lat = CanonicalFinite(4096, 4, 0)
    g = tighten(np.fft.ifft(SplitMix64(86).reals(lat.L)) * lat.L, lat)
    win = tmp_path / "gt.csv"
    write_window_csv(win, g)
    tracemalloc.start()
    try:
        code = cli.main(["wilson", "verify", "--lattice", "4096,4,0", "--window", str(win)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["orthonormal"]
    assert peak < 16 * lat.L ** 2 / 8  # an eighth of one L x L complex array


# -- the per-lattice tables: zak.symbol_layout and wilson._pairing -------------

def clear_lattice_caches():
    zak.symbol_layout.cache_clear()
    wilson._pairing.cache_clear()


def symbol_and_riesz(g, lat):
    sys = wilson_finite(g, lat)
    return zak.frame_symbol(g, lat), riesz_spectrum(sys)


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_cached_tables_give_the_cold_bits(data):
    """Lattices sharing (L, p) with different b, and the rectangle (L, q, 0)
    of the first one's report, interleaved: warm calls equal cold ones bit
    for bit and the dense spectra to 1e-12."""
    half = data.draw(st.integers(2, 32), label="L/2")
    p = data.draw(st.sampled_from([d for d in range(1, half) if half % d == 0]), label="p")
    b0 = data.draw(st.integers(0, half // p - 1), label="b0")
    b1 = data.draw(st.integers(0, half // p - 1).filter(lambda b: b != b0), label="b1")
    seed = data.draw(st.integers(0, 2 ** 32), label="seed")
    L = 2 * half
    sheared, other = CanonicalFinite(L, p, b0), CanonicalFinite(L, p, b1)
    g = tighten(meta_finite(SplitMix64(seed).real_dft_window(L), sigma_params(sheared)), sheared)
    rect = CanonicalFinite(L, equivalence_report(g, sheared).params.q, 0)
    h = meta_finite(g, sigma_params(sheared), inverse=True)
    cases = [(g, sheared), (g, other), (h, rect), (g, sheared), (h, rect), (g, other)]
    clear_lattice_caches()
    for w, lat in cases:
        symbol_and_riesz(w, lat)
    hits = wilson._pairing.cache_info().hits, zak.symbol_layout.cache_info().hits
    warm = [symbol_and_riesz(w, lat) for w, lat in cases]
    assert wilson._pairing.cache_info().hits == hits[0] + len(cases)
    assert zak.symbol_layout.cache_info().hits >= hits[1] + len(cases)
    for (w, lat), (sym, spectrum) in zip(cases, warm):
        clear_lattice_caches()
        cold_sym, cold_spectrum = symbol_and_riesz(w, lat)
        for name in ("values", "window_zak", "shifted_zak", "chirp"):
            assert same_bits(getattr(sym, name), getattr(cold_sym, name)), (lat, name)
        assert same_bits(spectrum, cold_spectrum), lat
        frame = np.linalg.eigvalsh(frame_operator(gabor_system(w, lat)))
        assert np.max(np.abs(np.sort(sym.values.ravel()) - frame)) <= 1e-12 * max(1.0, frame[-1])
        dense = np.linalg.eigvalsh(gram(wilson_finite(w, lat)))
        assert np.max(np.abs(np.sort(spectrum) - dense)) <= 1e-12 * max(1.0, dense[-1]), lat


def test_cached_tables_are_read_only():
    lat = CanonicalFinite(48, 2, 3)
    g = SplitMix64(92).complex_vector(lat.L)
    sym, _ = symbol_and_riesz(g, lat)
    tables = [*zak.symbol_layout(lat), *wilson._pairing(lat, sigma_params(lat)), sym.chirp]
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = table[0]


def test_lattice_caches_are_bounded():
    clear_lattice_caches()
    g = SplitMix64(93).complex_vector(96)
    lattices = [CanonicalFinite(96, 1, b) for b in range(40)]
    for lat in lattices:
        symbol_and_riesz(g, lat)
    for cache in (zak.symbol_layout, wilson._pairing):
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and len(lattices) > maxsize
        assert cache.cache_info().currsize == maxsize


def test_lattice_caches_retain_bounded_memory():
    """After 40 lattices at L = 4096 the caches hold at most their maxsize
    entries: 26 L bytes per pairing and 40 L/(2p) per layout."""
    L, p = 4096, 4
    first = CanonicalFinite(L, p, 1)
    g = tighten(meta_finite(SplitMix64(94).real_dft_window(L), sigma_params(first)), first)
    lattices = [CanonicalFinite(L, p, 1 + 3 * k) for k in range(40)]
    for lat in lattices:
        sigma_params(lat)  # the bundles are cached on their own, outside this bound
    clear_lattice_caches()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for lat in lattices:
            gram_deviation(wilson_finite(g, lat))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    bound = wilson.PAIRING_CACHE * 26 * L + zak.LAYOUT_CACHE * 40 * L // (2 * p)
    assert retained <= bound + 64 * 1024, (retained, bound)
