"""Vectors in C^L and finitely supported sequences on Z.

Conventions used throughout the package:

* inner product on C^L is normalized, <f, g> = (1/L) sum_l f(l) conj(g(l));
* the DFT is ghat(y) = (1/L) sum_x g(x) e^{-2 pi i x y / L}, so Plancherel
  reads sum_y |ghat(y)|^2 = (1/L) sum_x |g(x)|^2 and the inversion formula
  carries no prefactor.

Every frame bound and Zak constant downstream depends on this pairing of
measures (averaging in time, counting in frequency).

CSV samples.  ``write_samples`` writes the bytes of f"{v:.17g}" for every
double, formatted in numpy one block of at most WRITE_CHUNK samples at a
time.  For 1e-280 <= |v| <= 1e280, with k = floor(log10 |v|), the 17
digits are D = round-half-even(|v| 10^(16-k)): 10^(16-k) is a double-double
hi + lo (relative error below 2^-105), |v| hi = p + err exactly by Dekker's
split product ("A floating-point technique for extending the available
precision", 1971), and r = err + |v| lo is rounded twice, so p + r is
within 1e-14 of |v| 10^(16-k).  k moves by one when floor(p + r) leaves
[10^16, 10^17), and D = 10^17 carries into k + 1.  Values outside that
range, NaN, +-inf, and every value whose fraction r - floor(r) lies within
1e-9 of 1/2 (exact decimal ties among them) go through ``b"%.17g" % v``
one at a time, so the output is exact.  Each double fills a 32-byte field
of NUL-padded columns: sign, a "0.000" prefix for -4 <= k < 0, the first
digit, a dot slot, 16 digits from 4-digit ASCII tables (trailing zeros as
NUL), and "e+XXX" for k < -4 or k >= 17; fixed notation with k >= 1 moves
its integer digits over the dot slot.  A line is lead, index, the two
fields and separators in one uint8 row, and the NULs are dropped per block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from ._numpy import np

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


def require_real(ghat: np.ndarray) -> np.ndarray:
    """ghat, rejected unless its imaginary part is below REAL_SPECTRUM_TOL of its peak."""
    if np.max(np.abs(ghat.imag)) > REAL_SPECTRUM_TOL * max(1.0, float(np.max(np.abs(ghat)))):
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

    def periodize(self, L: int) -> np.ndarray:
        """Wrap onto Z_L: out[l] = sum_k g(l + k L)."""
        out = np.zeros(L, dtype=complex)
        np.add.at(out, np.arange(self.start, self.stop) % L, self.values)
        return out


# samples per formatted block: O(chunk) memory, never the whole file
WRITE_CHUNK = 1 << 13
_FIELD = 32  # NUL-padded bytes per formatted double (module docstring)


@functools.cache
def _pow10(e: int) -> tuple[float, float, float, float]:
    """10^e as a double-double hi + lo, with hi's Dekker halves."""
    x = Fraction(10) ** e
    hi = float(x)
    t = hi * 134217729.0  # 2^27 + 1
    hh = t - (t - hi)
    return hi, hh, hi - hh, float(x - Fraction(hi))


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """uint32 words of the field (module docstring), built on first use.

    groups[g], groups[10000 + g]: the 4 digits of g, the second with
    trailing zeros as NUL; head[5 s + z]: sign s and columns 1-3 of the
    "0.000" prefix of z = -k leading zeros; mid[20 z + 2 d0 + dot]:
    prefix columns 4-5, the first digit d0 and the dot slot.
    """
    i = np.arange(10000, dtype=np.int16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    plain = (i // place % 10 + 48).astype(np.uint8)
    stripped = np.where(i % (10 * place) == 0, 0, plain).astype(np.uint8)
    groups = np.concatenate([plain, stripped]).view(np.uint32).ravel()
    prefix = [b"", b"0.", b"0.0", b"0.00", b"0.000"]
    head = [(sign + z)[:4].ljust(4, b"\0") for sign in (b"\0", b"-") for z in prefix]
    mid = [z[3:].ljust(2, b"\0") + bytes([48 + d]) + dot
           for z in prefix for d in range(10) for dot in (b"\0", b".")]
    return (groups, np.frombuffer(b"".join(head), np.uint32),
            np.frombuffer(b"".join(mid), np.uint32))


def _scaled(a, k, k0, tab):
    """floor(a 10^(16-k)) and the fraction beyond it, to about 1e-14;
    column j of tab is _pow10(16 - k0 - j)."""
    hi, hh, hl, lo = tab[:, k - k0]
    t = a * 134217729.0
    ah = t - (t - a)
    al = a - ah
    p = a * hi  # Dekker: a hi = p + err exactly
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    r = err + a * lo
    fl = np.floor(r)
    return p.astype(np.int64) + fl.astype(np.int64), r - fl


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, k, slow): |v| rounds half-even to D 10^(k - 16), 10^16 <= D < 10^17
    (D = k = 0 at 0); D and k are exact where slow is False."""
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)  # also excludes 0, inf and NaN
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    k0 = int(k.min()) - 1  # k moves by at most one below
    tab = np.array([_pow10(16 - kk) for kk in range(k0, int(k.max()) + 2)]).T
    n, frac = _scaled(a, k, k0, tab)
    redo = (n < 10 ** 16) | (n >= 10 ** 17)
    if redo.any():
        redo = np.nonzero(redo)
        k[redo] += np.where(n[redo] < 10 ** 16, -1, 1)
        n[redo], frac[redo] = _scaled(a[redo], k[redo], k0, tab)
    slow = (~fast & (v != 0)) | (n < 10 ** 16) | (n >= 10 ** 17) | (np.abs(frac - 0.5) < 1e-9)
    D = n + (frac > 0.5)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    k += carry
    zero = v == 0
    D[zero] = 0
    k[zero] = 0
    return D, k, slow


def _format_doubles(v: np.ndarray, out: np.ndarray) -> None:
    """Write f"{x:.17g}" for every x of v into out[..., :29], NUL-padded."""
    D, k, slow = _decimal(v)
    # D = d0 g1 g2 g3 g4: one digit and four 4-digit groups
    q, r = np.divmod(D, 10 ** 8)
    d0, m = np.divmod(q.astype(np.int32), 10 ** 8)
    g1, g2 = np.divmod(m, 10 ** 4)
    g3, g4 = np.divmod(r.astype(np.int32), 10 ** 4)
    # a group's trailing zeros are pads when every later group is 0 too
    z3 = r == 0
    z2 = z3 & (g2 == 0)
    groups, head, mid = _tables()
    words = out.view(np.uint32)
    words[..., 2] = groups[g1 + 10000 * z2]
    words[..., 3] = groups[g2 + 10000 * z3]
    words[..., 4] = groups[g3 + 10000 * (g4 == 0)]
    words[..., 5] = groups[g4 + 10000]
    sci = (k < -4) | (k >= 17)
    z = np.where((k < 0) & ~sci, -k, 0)  # leading zeros after "0."
    words[..., 0] = head[5 * np.signbit(v) + z]
    dot = (z == 0) & ~(z2 & (g1 == 0))  # "." before a nonzero tail
    words[..., 1] = mid[20 * z + 2 * d0 + dot]

    if sci.any():
        i = np.nonzero(sci)
        e = np.abs(k[i])
        out[i + (slice(24, 29),)] = np.stack([
            np.full_like(e, 101), np.where(k[i] < 0, 45, 43),
            np.where(e >= 100, e // 100 + 48, 0), e // 10 % 10 + 48, e % 10 + 48], axis=-1)
    regroup = ~sci & (k >= 1)
    if regroup.any():  # d1..dk move left over the dot slot, zeros kept
        i = np.nonzero(regroup)
        kk = k[i][:, None]
        digits = np.zeros((len(kk), 17), np.uint8)
        digits[:, :16] = groups[np.stack([g1[i], g2[i], g3[i], g4[i]], axis=-1)].view(np.uint8)
        cols = np.arange(17)
        body = out[i + (slice(7, 24),)]
        dot = np.where(np.take_along_axis(out[i + (slice(8, 25),)], kk, 1) != 0, 46, 0)
        out[i + (slice(7, 24),)] = np.where(cols < kk, digits, np.where(cols == kk, dot, body))
    if slow.any():
        i = np.nonzero(slow)
        text = [b"%.17g" % x for x in v[i].tolist()]
        out[i + (slice(0, 29),)] = np.array(text, dtype="S29").view(np.uint8).reshape(-1, 29)


def write_samples(fh, rows, leads) -> None:
    """``lead + "l,re,im"`` CSV lines for every sample of every row, the
    bytes of f"{v:.17g}" (-0 included), formatted WRITE_CHUNK samples at a
    time (module docstring)."""
    rows = np.ascontiguousarray(rows, dtype=complex)
    R, L = rows.shape
    lead = np.array([s.encode() for s in leads], dtype="S")  # NUL-padded
    lead = lead.view(np.uint8).reshape(len(lead), -1)
    wl, wi = lead.shape[1], len(str(L - 1))
    h = -(-(wl + wi + 1) // 4) * 4  # fields start 4-byte aligned
    values = rows.view(float).reshape(R, L, 2)
    step, span = max(1, WRITE_CHUNK // L), min(L, WRITE_CHUNK)  # rows, samples
    for r0 in range(0, R, step):
        for l0 in range(0, L, span):
            v = values[r0:r0 + step, l0:l0 + span]
            block = np.zeros(v.shape[:2] + (h + 2 * _FIELD,), np.uint8)
            block[..., :wl] = lead[r0:r0 + len(v), None]
            l = np.arange(l0, l0 + v.shape[1])
            for j in range(wi):
                place = 10 ** (wi - 1 - j)
                block[..., wl + j] = np.where((l >= place) | (place == 1), l // place % 10 + 48, 0)
            block[..., wl + wi] = 44  # ","
            fields = block[..., h:].reshape(v.shape[:2] + (2, _FIELD))
            _format_doubles(v, fields)
            fields[..., 0, 29] = 44
            fields[..., 1, 29] = 10  # "\n"
            fh.write(block.tobytes().translate(None, b"\0").decode("ascii"))


def write_window_csv(path, w) -> None:
    w = as_window(w)
    with open(path, "w") as fh:
        fh.write("index,re,im\n")
        write_samples(fh, w[None], [""])


def read_window_csv(path) -> np.ndarray:
    """Window from an ``index,re,im`` CSV; ValueError names a bad line (a
    non-finite sample is a bad line)."""
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
                if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                    raise ValueError("non-finite sample")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad window CSV row {line!r}") from exc
            if i in rows:
                raise ValueError(f"{path}:{lineno}: repeated index {i}")
            rows[i] = v
    if not rows or set(rows) != set(range(len(rows))):
        raise ValueError("window CSV must cover indices 0..L-1")
    return np.array([rows[i] for i in range(len(rows))])
