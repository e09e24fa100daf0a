"""The CSV sample writer gives the bytes of the per-sample f"{v:.17g}" writer."""

import io
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wilsonlat import signal
from wilsonlat.ring import CanonicalFinite
from wilsonlat.rng import SplitMix64
from wilsonlat.signal import _decimal, write_samples
from wilsonlat.wilson import wilson_finite


def reference(rows, leads):
    """One f-string per value: the definition the writer reproduces."""
    return "".join(f"{lead}{l},{v.real:.17g},{v.imag:.17g}\n"
                   for lead, row in zip(leads, rows) for l, v in enumerate(row.tolist()))


def written(rows, leads):
    fh = io.StringIO()
    write_samples(fh, rows, leads)
    return fh.getvalue()


def assert_formats(x):
    """The values of x, in order, as the real and imaginary parts of one row."""
    x = np.asarray(x, dtype=float).ravel()
    rows = np.append(x, [0.0] * (len(x) % 2)).view(complex)[None]
    got, want = written(rows, [""]), reference(rows, [""])
    if got != want:
        bad = [(a, b) for a, b in zip(got.splitlines(), want.splitlines()) if a != b]
        raise AssertionError(f"{len(bad)} lines differ, first {bad[:3]}")


def ulp_neighbours(x):
    """x and its three neighbours on either side."""
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(3):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


def decimal_ties():
    """Doubles exactly halfway between two 17-digit decimals: M / 2^j with
    M odd and M 5^j of 18 digits, so the exact decimal ends in one 5."""
    ties = []
    for j in range(2, 25):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        for M in [*range(lo | 1, lo + 60, 2), *range(hi - 1 | 1, hi - 60, -2)]:
            if lo <= M < hi:
                assert len(str(M * 5 ** j)) == 18 and Fraction(M, 2 ** j) == M / 2 ** j
                ties.append(M / 2 ** j)
    return ties


class TestEdgeCorpus:
    def test_special_values(self):
        assert_formats([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                        2.2250738585072014e-308, np.finfo(float).max, -np.finfo(float).max,
                        1e-280, 1e280, np.nextafter(1e-280, 0), np.nextafter(1e280, np.inf)])

    def test_powers_of_ten_and_neighbours(self):
        x = []
        for k in range(-323, 309):
            x += ulp_neighbours(float(f"1e{k}"))
        assert_formats([v for v in x if np.isfinite(v)])

    def test_every_count_of_integer_digits(self):
        rng = np.random.default_rng(1)
        x = [float(rng.integers(10 ** (k - 1), 10 ** k) if k < 19 else 10.0 ** (k - 1))
             * float(1 + rng.random()) for k in range(1, 25) for _ in range(200)]
        x += [float(10 ** k - 1) for k in range(1, 25)] + [float(10 ** k + 1) for k in range(1, 25)]
        assert_formats(x + [-v for v in x])

    def test_integers_to_2_60(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2 ** 60, 100_000).astype(float)
        assert_formats(np.concatenate([x, np.arange(-1000, 1000.0), 2.0 ** np.arange(61)]))

    def test_dyadic_and_decimal_grids(self):
        dyadic = np.arange(-4096, 4096) / 1024.0
        decimal = np.arange(-5000, 5000) / 1000.0
        small = np.arange(1, 5000) * 1e-7
        assert_formats(np.concatenate([dyadic, decimal, small, decimal * 1e17]))

    def test_subnormals(self):
        rng = np.random.default_rng(3)
        x = rng.integers(1, 2 ** 52, 10_000, dtype=np.uint64).view(float)
        assert_formats(np.concatenate([x, -x]))

    def test_decimal_ties_take_the_fallback(self):
        ties = decimal_ties()
        assert len(ties) >= 100
        assert np.all(_decimal(np.array(ties))[2])
        assert_formats(ties + [-t for t in ties])


def test_a_million_random_bit_patterns():
    bits = np.random.default_rng(4).integers(0, 2 ** 64, 1_000_000, dtype=np.uint64)
    assert_formats(bits.view(float))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(width=64), min_size=1, max_size=60),
       width=st.integers(1, 9), chunk=st.integers(1, 13))
def test_hypothesis_arrays_across_chunk_edges(values, width, chunk):
    """Chunks of `chunk` samples rarely divide the rows of `width` samples."""
    x = np.array(values + [0.0] * (-len(values) % (2 * width)))
    rows = x.view(complex).reshape(-1, width)
    leads = [f"{i}," * (i % 3) for i in range(len(rows))]
    old = signal.WRITE_CHUNK
    signal.WRITE_CHUNK = chunk
    try:
        assert written(rows, leads) == reference(rows, leads)
    finally:
        signal.WRITE_CHUNK = old


@pytest.mark.parametrize("L", [1, 9, 10, 11, 1000, 3 * signal.WRITE_CHUNK + 5])
def test_leads_of_different_widths(L):
    rng = np.random.default_rng(L)
    scale = 10.0 ** rng.integers(-30, 30, (3, L))
    rows = rng.standard_normal((3, L)) + 1j * rng.standard_normal((3, L)) * scale
    leads = ["", "7,", "123,45678,"]
    assert written(rows, leads) == reference(rows, leads)


def test_basis_write_memory_is_one_chunk():
    lat = CanonicalFinite(512, 1, 37)
    basis = wilson_finite(SplitMix64(5).real_dft_window(lat.L), lat).basis
    leads = [f"{i}," for i in range(lat.L)]
    with open(os.devnull, "w") as fh:
        write_samples(fh, basis[:1], leads)  # digit tables built outside the trace
        tracemalloc.start()
        try:
            write_samples(fh, basis, leads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # about 350 bytes per sample of one chunk; the file is 27 MB
    assert peak < 4 * 2 ** 20
