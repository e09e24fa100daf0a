"""Verdicts off the dense systems: the tightness deviation from the frame
symbol, the Wilson Gram deviation from the lattice ambiguity table, and a
basis gathered only when it is read, each against its dense oracle."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wilsonlat
from wilsonlat import cli, gabor, wilson
from wilsonlat.gabor import (frame_bounds, frame_operator, gabor_system,
                             spectral_deviation, tighten, tightness_deviation)
from wilsonlat.metaplectic import meta_finite, sigma_params
from wilsonlat.ring import CanonicalFinite, LatticeError
from wilsonlat.rng import SplitMix64
from wilsonlat.signal import write_window_csv
from wilsonlat.wilson import equivalence_report, gram, gram_deviation, wilson_finite
from wilsonlat.zak import ambiguity_table

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
    fast = gram_deviation(wilson_finite(g, lat))
    assert abs(fast - dense) <= 1e-13 * max(1.0, dense), (lat, fast, dense)
    entrywise = tightness_deviation(gabor_system(g, lat), 2.0)
    spectral = spectral_deviation(g, lat)
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


def test_ambiguity_table_is_the_lattice_of_inner_products():
    rng = SplitMix64(81)
    lattices = list(canonical_lattices(48))
    assert len(lattices) == 491
    for lat in lattices:
        g = rng.complex_vector(lat.L)
        V = ambiguity_table(g, lat)
        # row (k, l) of the system is pi(k a + l b, l p) g; <e, g> = e . conj(g) / L
        want = (gabor_system(g, lat).elements @ g.conj() / lat.L).reshape(V.shape)
        assert np.max(np.abs(V - want)) <= 1e-13 * np.max(np.abs(g)) ** 2, lat


def test_frame_bounds_are_the_extreme_eigenvalues():
    rng = SplitMix64(82)
    for lat in (CanonicalFinite(24, 2, 1), CanonicalFinite(16, 4, 0), CanonicalFinite(12, 1, 5)):
        g = rng.complex_vector(lat.L)
        w = np.linalg.eigvalsh(frame_operator(gabor_system(g, lat)))
        A, B = frame_bounds(g, lat)
        assert abs(A - w[0]) <= 1e-12 * w[-1] and abs(B - w[-1]) <= 1e-12 * w[-1]
        assert spectral_deviation(g, lat) == max(B - 2.0, 2.0 - A)


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
