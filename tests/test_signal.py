import numpy as np
import pytest

from oracles import OperatorError, ft_at, herm_inv_sqrt, idft, inner, norm, value_at
from wilsonlat.gabor import gabor_system
from wilsonlat.metaplectic import meta_finite, sigma_params
from wilsonlat.ring import CanonicalFinite
from wilsonlat.rng import SplitMix64
from wilsonlat.signal import (DiscreteWindow, FrameError, dft, read_window_csv, tf_shift,
                              write_window_csv)
from wilsonlat.wilson import wilson_finite
from wilsonlat.zak import frame_symbol


def test_dft_constant_and_delta():
    L = 8
    assert np.allclose(dft(np.ones(L)), np.eye(L)[0])
    delta = np.zeros(L)
    delta[0] = 1
    assert np.allclose(dft(delta), np.full(L, 1 / L))


def test_dft_roundtrip():
    rng = SplitMix64(10)
    f = rng.complex_vector(16)
    assert np.max(np.abs(idft(dft(f)) - f)) < 1e-12


def test_dft_plancherel():
    rng = SplitMix64(11)
    for L in (5, 8, 12):
        g = rng.complex_vector(L)
        lhs = np.sum(np.abs(dft(g)) ** 2)
        rhs = np.sum(np.abs(g) ** 2) / L
        assert abs(lhs - rhs) < 1e-12


def test_tf_shift_examples():
    L = 8
    delta = np.zeros(L, dtype=complex)
    delta[0] = 1
    assert np.allclose(tf_shift(delta, 4, 0), np.roll(delta, 4))
    l = np.arange(L)
    assert np.allclose(tf_shift(np.ones(L), 4, 1), np.exp(2j * np.pi * l / 8))
    assert np.allclose(tf_shift(delta, 0, 3), delta)


def test_tf_shift_arrays_stack_scalar_calls():
    rng = SplitMix64(16)
    L = 12
    g = rng.complex_vector(L)
    x = np.array([[0, 5, -7], [13, 2 * L + 1, -1]])
    y = np.array([3, -4, 10 * L + 5])
    got = tf_shift(g, x, y)
    assert got.shape == (2, 3, L)
    want = np.array([[tf_shift(g, int(x[i, j]), int(y[j])) for j in range(3)] for i in range(2)])
    assert np.max(np.abs(got - want)) < 1e-14
    assert tf_shift(g, 3, 5).shape == (L,)
    assert np.array_equal(tf_shift(g, np.array([3]), 5)[0], tf_shift(g, 3, 5))


def test_tf_shift_composition_phase():
    rng = SplitMix64(12)
    L = 12
    g = rng.complex_vector(L)
    for (x, y, x2, y2) in [(3, 5, 2, 1), (7, 11, 4, 9), (1, 0, 0, 1)]:
        lhs = tf_shift(tf_shift(g, x, y), x2, y2)
        rhs = np.exp(-2j * np.pi * x2 * y / L) * tf_shift(g, x + x2, y + y2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_inner_examples():
    L = 8
    ones = np.ones(L)
    delta = np.zeros(L)
    delta[0] = 1
    assert inner(ones, ones) == pytest.approx(1)
    assert inner(delta, ones) == pytest.approx(1 / 8)
    l = np.arange(L)
    e1 = np.exp(2j * np.pi * l / 8)
    e2 = np.exp(2j * np.pi * 2 * l / 8)
    assert abs(inner(e1, e2)) < 1e-15
    with pytest.raises(ValueError, match="length"):
        inner(np.ones(4), np.ones(5))


@pytest.mark.parametrize("entry", [frame_symbol, gabor_system, wilson_finite,
                                   lambda g, lat: meta_finite(g, sigma_params(lat))])
def test_wrong_length_window_rejected(entry):
    lat = CanonicalFinite(16, 1, 3)
    with pytest.raises(FrameError, match="window length 12 != lattice L 16"):
        entry(np.ones(12), lat)


def test_inner_conjugate_symmetry():
    rng = SplitMix64(13)
    f, g = rng.complex_vector(9), rng.complex_vector(9)
    assert inner(f, g) == pytest.approx(np.conj(inner(g, f)))
    assert inner(f, f).imag == pytest.approx(0)
    assert inner(f, f).real >= 0


def test_unitary_dft_preserves_norm():
    rng = SplitMix64(14)
    f = rng.complex_vector(16)
    assert norm(np.sqrt(len(f)) * dft(f)) == pytest.approx(norm(f))


class TestHermInvSqrt:
    def test_scaled_identity(self):
        R = herm_inv_sqrt(2 * np.eye(4))
        assert np.allclose(R, np.eye(4) / np.sqrt(2))

    def test_diagonal(self):
        R = herm_inv_sqrt(np.diag([1.0, 4.0]))
        assert np.allclose(R, np.diag([1.0, 0.5]))

    def test_residual_random(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        S = X @ X.conj().T + 0.5 * np.eye(8)
        R = herm_inv_sqrt(S)
        assert np.max(np.abs(R - R.conj().T)) < 1e-12
        assert np.max(np.abs(R @ S @ R - np.eye(8))) < 1e-9

    def test_unitary_conjugation(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        S = X @ X.conj().T + 0.5 * np.eye(6)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        lhs = herm_inv_sqrt(Q @ S @ Q.conj().T)
        rhs = Q @ herm_inv_sqrt(S) @ Q.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(OperatorError, match="Hermitian"):
            herm_inv_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_singular_rejected(self):
        with pytest.raises(OperatorError, match="frame lower bound"):
            herm_inv_sqrt(np.diag([1.0, 0.0]))


class TestDiscreteWindow:
    def test_evaluation_and_sampling(self):
        w = DiscreteWindow(-1, [1.0, 2.0, 3.0])
        assert value_at(w, -1) == 1 and value_at(w, 0) == 2 and value_at(w, 1) == 3 \
            and value_at(w, 5) == 0
        assert np.allclose(w.sample(-3, 3), [0, 0, 1, 2, 3, 0])

    def test_ft_is_fourier_series(self):
        w = DiscreteWindow(0, [1.0, 1.0])
        ts = np.array([0.0, 0.25, 0.5])
        expect = 1 + np.exp(-2j * np.pi * ts)
        assert np.allclose(ft_at(w, ts), expect)

    def test_periodize_wraps(self):
        w = DiscreteWindow(-1, [1.0, 2.0, 3.0])
        out = w.periodize(4)
        assert np.allclose(out, [2, 3, 0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            DiscreteWindow(0, [])


def test_window_csv_roundtrip(tmp_path):
    rng = SplitMix64(15)
    w = rng.complex_vector(6)
    path = tmp_path / "w.csv"
    write_window_csv(path, w)
    back = read_window_csv(path)
    assert np.max(np.abs(back - w)) < 1e-15
    assert (path.read_text().splitlines()[0]) == "index,re,im"


@pytest.mark.parametrize("rows, line, what", [
    (["0,1,0", "1,0.5,0", "1,9,0"], 4, "repeated index 1"),
    (["0,1,0", "1,0.5"], 3, "bad window CSV row"),
    (["0,1,0", "1,half,0"], 3, "bad window CSV row"),
])
def test_window_csv_malformed_rows_name_the_line(tmp_path, rows, line, what):
    path = tmp_path / "w.csv"
    path.write_text("\n".join(["index,re,im", *rows]) + "\n")
    with pytest.raises(ValueError, match=what) as info:
        read_window_csv(path)
    assert f"w.csv:{line}:" in str(info.value)


@pytest.mark.parametrize("sample", ["nan,0", "0,nan", "inf,0", "-inf,0", "1,-infinity"])
def test_window_csv_non_finite_sample_names_the_line(tmp_path, sample):
    path = tmp_path / "w.csv"
    path.write_text(f"index,re,im\n0,1,0\n1,{sample}\n2,0,0\n")
    with pytest.raises(ValueError, match="bad window CSV row") as info:
        read_window_csv(path)
    assert "w.csv:3:" in str(info.value)


def test_window_csv_permuted_rows_and_blank_lines_read_back_exactly(tmp_path):
    w = SplitMix64(17).complex_vector(7) * 10.0 ** np.arange(-3, 4)
    order = [4, 0, 6, 2, 5, 1, 3]
    re, im = w.real.tolist(), w.imag.tolist()
    lines = [f"{i},{re[i]!r},{im[i]!r}" for i in order]
    path = tmp_path / "w.csv"
    text = "\n\n".join(lines[:3]) + "\n \n" + "\n".join(lines[3:])
    path.write_text("index,re,im\n\n" + text + "\n\n")
    back = read_window_csv(path)
    assert back.dtype == complex and np.array_equal(back, w)


@pytest.mark.parametrize("indices", [[0, 1, 3], [1, 2, 3], [0, 2]])
def test_window_csv_index_gap_rejected(tmp_path, indices):
    path = tmp_path / "w.csv"
    path.write_text("index,re,im\n" + "".join(f"{i},1,0\n" for i in indices))
    with pytest.raises(ValueError, match=r"must cover indices 0\.\.L-1"):
        read_window_csv(path)


def test_window_csv_bytes_match_per_sample_writer(tmp_path):
    w = SplitMix64(16).complex_vector(40) * 10.0 ** np.arange(-20, 20)
    w[:6] = [-0.0, complex(0.0, -0.0), complex(-0.0, -0.0), np.inf, complex(np.nan, 1.0), 5e-324]
    path = tmp_path / "w.csv"
    write_window_csv(path, w)
    want = "index,re,im\n" + "".join(f"{i},{v.real:.17g},{v.imag:.17g}\n"
                                     for i, v in enumerate(w))
    assert path.read_bytes() == want.encode()
    assert path.read_text().splitlines()[1] == "0,-0,0"

