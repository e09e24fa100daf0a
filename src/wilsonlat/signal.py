"""Vectors in C^L and finitely supported sequences on Z.

Conventions used throughout the package:

* inner product on C^L is normalized, <f, g> = (1/L) sum_l f(l) conj(g(l));
* the DFT is ghat(y) = (1/L) sum_x g(x) e^{-2 pi i x y / L}, so Plancherel
  reads sum_y |ghat(y)|^2 = (1/L) sum_x |g(x)|^2 and the inversion formula
  carries no prefactor.

Every frame bound and Zak constant downstream depends on this pairing of
measures (averaging in time, counting in frequency).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9
COND_FLOOR = 1e-10
REAL_SPECTRUM_TOL = 1e-10


class FrameError(ValueError):
    """The window does not generate a usable frame."""


def as_window(values, L: int | None = None) -> np.ndarray:
    """values as a complex vector; FrameError unless it has length L (if given)."""
    w = np.asarray(values, dtype=complex)
    if w.ndim != 1 or len(w) < 1:
        raise ValueError("window must be a nonempty 1-d vector")
    if L is not None and len(w) != L:
        raise FrameError(f"window length {len(w)} != lattice L {L}")
    return w


def dft(f) -> np.ndarray:
    f = as_window(f)
    return np.fft.fft(f) / len(f)


def unitary_dft(f) -> np.ndarray:
    """DFT rescaled to be unitary for the normalized inner product."""
    f = as_window(f)
    return np.sqrt(len(f)) * dft(f)


def centered_dft(f: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Unitary DFT on the symmetric grid: indices j, k measured from L/2."""
    L = len(f)
    # (j - L/2)(k - L/2) = jk - (L/2)(j + k) + L^2/4; the phases e^{i pi k} =
    # (-1)^k and e^{i pi L/2} = i^L are exact (np.exp would lose about k eps)
    alt = 1 - 2 * (np.arange(L) % 2)
    quarter = (1, 1j, -1, -1j)[L % 4]
    if inverse:
        return np.fft.ifft(alt * f) * (alt * (quarter * np.sqrt(L)))
    return np.fft.fft(alt * f) * (alt * (quarter.conjugate() / np.sqrt(L)))


def real_spectrum(g, tol: float = REAL_SPECTRUM_TOL) -> np.ndarray:
    """dft(g), rejected unless its imaginary part is below tol of its peak."""
    ghat = dft(g)
    if np.max(np.abs(ghat.imag)) > tol * max(1.0, float(np.max(np.abs(ghat)))):
        raise ValueError("window spectrum must be real-valued")
    return ghat


def tf_shift(g, x, y) -> np.ndarray:
    """Time-frequency shifts: result[..., l] = g(l - x) e^{2 pi i l y / L}.

    Integer arrays x and y broadcast to one row per shift (scalars give a
    1-d vector); the phase exponent is reduced exactly, (l y mod L) / L.
    """
    g = as_window(g)
    L = len(g)
    l = np.arange(L)
    x = np.asarray(x)[..., None] % L
    y = np.asarray(y)[..., None] % L
    out = g[l - x]  # l - x lies in (-L, L): negative indices wrap
    out *= np.exp(2j * np.pi * l / L)[l * y % L]  # e^{2 pi i k / L} at k = l y mod L
    return out


@dataclass(frozen=True)
class DiscreteWindow:
    """Finitely supported sequence on Z: values[i] sits at start + i."""

    start: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError("empty support")
        object.__setattr__(self, "values", v)

    @property
    def stop(self) -> int:
        """One past the last support index."""
        return self.start + len(self.values)

    def sample(self, lo: int, hi: int) -> np.ndarray:
        """Values on the integer range [lo, hi)."""
        out = np.zeros(hi - lo, dtype=complex)
        a = max(lo, self.start)
        b = min(hi, self.stop)
        if a < b:
            out[a - lo:b - lo] = self.values[a - self.start:b - self.start]
        return out

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))

    def periodize(self, L: int) -> np.ndarray:
        """Wrap onto Z_L: out[l] = sum_k g(l + k L)."""
        out = np.zeros(L, dtype=complex)
        np.add.at(out, np.arange(self.start, self.stop) % L, self.values)
        return out


def write_samples(fh, rows, leads) -> None:
    """``lead + "l,re,im"`` CSV lines for every sample of every row, one
    %-format per row: the bytes of f"{v:.17g}", -0 included."""
    rows = np.ascontiguousarray(rows, dtype=complex)
    template = "".join(f"{{0}}{l},%.17g,%.17g\n" for l in range(rows.shape[1]))
    for lead, row in zip(leads, rows.view(float)):
        fh.write((template % tuple(row.tolist())).format(lead))


def write_window_csv(path, w) -> None:
    w = as_window(w)
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        write_samples(fh, w[None], [""])


def read_window_csv(path) -> np.ndarray:
    """Window from an ``index,re,im`` CSV; ValueError names a bad line."""
    rows = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "index,re,im":
            raise ValueError(f"bad window CSV header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                i, re, im = line.split(",")
                i, v = int(i), complex(float(re), float(im))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad window CSV row {line!r}") from exc
            if i in rows:
                raise ValueError(f"{path}:{lineno}: repeated index {i}")
            rows[i] = v
    if not rows or set(rows) != set(range(len(rows))):
        raise ValueError("window CSV must cover indices 0..L-1")
    return np.array([rows[i] for i in range(len(rows))])
