"""Command line front end.

Subcommands: canonicalize, gabor, zak, sigma, wilson, demo-hex, selftest.
Reports are JSON on stdout with sorted keys, so identical inputs (and
--seed) produce byte-identical output; wall time goes to stderr.  Exit
codes: 0 success / verdict true, 1 verdict false, 2 usage error (a bad
flag, WILSON_TOL or file: missing, unreadable, malformed, unwritable; a
window with a non-finite sample or whose length is not the lattice's L; a
--lattice with L > 2**20, or with L > 4096 for wilson build, the one
command that makes an L x L array; a demo-hex --L that is not the square
of an even integer in [64, 2**20] or a --nu that is not finite positive),
3 numerical failure (a non-finite verdict among them: NaN is not JSON;
wilson build checks that its basis is finite before it opens --out).
WILSON_TOL (finite > 0) replaces the 1e-9 default.

--help, canonicalize, sigma and every usage error met before a window is
read never import numpy (see _numpy): they start in about 90 ms, a window
command in about 155 ms (2 vCPU, Python 3.11, numpy 2.4).  A window
command imports numpy at its first array and runs with numpy's
floating-point warnings off, so an overflow reaches stderr as the one line
of its exit-3 message.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from . import gabor, metaplectic, ring, wilson, zak
from ._numpy import np
from .rng import SplitMix64
from .signal import (DEFAULT_TOL, DiscreteWindow, dft, read_window_csv, write_samples,
                     write_window_csv)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def parse_tol(text: str, source: str = "--tol") -> float:
    """A finite positive tolerance; anything else is a usage error (exit 2)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise SystemExit(f"{source} must be a finite positive number, got {text!r}")
    return tol


def default_tol() -> float:
    return parse_tol(os.environ.get("WILSON_TOL", str(DEFAULT_TOL)), "WILSON_TOL")


def parse_lattice(text: str) -> ring.CanonicalFinite:
    try:
        L, p, b = (int(x) for x in text.split(","))
        return ring.CanonicalFinite(L, p, b)
    except (ValueError, ring.LatticeError) as exc:
        raise SystemExit(f"bad --lattice {text!r}: {exc}") from exc


@contextmanager
def read_window(path: str, lat: ring.CanonicalFinite):
    """The window at path, which must have lat.L samples (else exit 2).

    numpy's floating-point warnings are off inside the block: an overflow
    shows as a non-finite number, which a finiteness check or JSON's
    allow_nan=False turns into exit 3 with one line on stderr.
    """
    try:
        g = read_window_csv(path)
    except ValueError as exc:
        raise SystemExit(f"bad --window {path}: {exc}") from exc
    if len(g) != lat.L:
        raise SystemExit(f"bad --window {path}: {len(g)} samples for a lattice with L = {lat.L}")
    with np.errstate(all="ignore"):
        yield g


def emit(report: dict, t0: float) -> None:
    print(json.dumps(report, sort_keys=True, allow_nan=False))  # ValueError: exit 3
    print(f"wall time: {time.perf_counter() - t0:.3f} s", file=sys.stderr)


def cmd_canonicalize(args, t0: float) -> int:
    try:
        a, b, c, d = (Fraction(x) for x in args.matrix.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"bad --matrix {args.matrix!r}, expected a,b,c,d: {exc}") from exc
    if args.domain == "finite":
        if args.L is None:
            raise SystemExit("--L is required for the finite domain")
        A = ring.GeneratorMatrix(a, b, c, d, domain="finite", L=args.L)
        out = ring.canonical_finite(A).to_json()
    elif args.domain == "discrete":
        A = ring.GeneratorMatrix(a, b, c, d, domain="discrete")
        out = ring.canonical_discrete(A).to_json()
    else:
        A = ring.GeneratorMatrix(a, b, c, d, domain="real")
        out = ring.hnf_real(A).to_json()
    emit(out, t0)
    return EXIT_OK


def cmd_gabor(args, t0: float) -> int:
    lat = parse_lattice(args.lattice)
    with read_window(args.window, lat) as g:
        gt = gabor.tighten(g, lat)
        tight_lat = lat
        if args.fourier_twist:
            # the DFT maps (x, y) to (y, -x), so gt is tight over the image lattice
            gt = np.sqrt(lat.L) * dft(gt)  # the DFT made unitary
            tight_lat = ring.canonical_finite(ring.GeneratorMatrix(
                0, lat.p, -lat.time_step, -lat.b, domain="finite", L=lat.L))
        write_window_csv(args.out, gt)
        dev = zak.frame_symbol(gt, tight_lat).deviation
    emit({"command": "gabor tighten", "lattice": lat.to_json(),
          "tight_deviation": dev, "out": args.out}, t0)
    return EXIT_OK


def cmd_zak(args, t0: float) -> int:
    lat = parse_lattice(args.lattice)
    if lat.b != 0:
        raise SystemExit("zak check applies to rectangular lattices (b = 0)")
    tol = args.tol
    with read_window(args.window, lat) as g:
        qh, qd = zak.cond_quadrature(g, lat.p, tol)
        ch, cd = zak.cond_correlation(g, lat.p, tol)
    emit({"command": "zak check", "lattice": lat.to_json(),
          "quadrature": {"holds": qh, "max_deviation": qd},
          "correlation": {"holds": ch, "max_deviation": cd}, "tol": tol}, t0)
    return EXIT_OK if (qh and ch) else EXIT_FALSE


def cmd_sigma(args, t0: float) -> int:
    lat = parse_lattice(args.lattice)
    sp = metaplectic.sigma_params(lat)
    emit(sp.to_json(), t0)
    return EXIT_OK


def cmd_wilson_build(args, t0: float) -> int:
    lat = parse_lattice(args.lattice)
    if lat.L > wilson.DENSE_MAX_L:
        raise SystemExit(f"wilson build gathers an L x L basis; L = {lat.L} "
                         f"exceeds {wilson.DENSE_MAX_L}")
    with read_window(args.window, lat) as g:
        sys_ = wilson.wilson_finite(g, lat)
        if not np.isfinite(sys_.basis).all():  # checked before the file is opened
            raise ValueError("the Wilson basis has a non-finite sample")
    m, n = wilson.wilson_index_set(lat.L, sys_.params.q)
    with open(args.out, "w") as fh:
        fh.write("m,n,index,re,im\n")
        write_samples(fh, sys_.basis, [f"{i},{j}," for i, j in zip(m.tolist(), n.tolist())])
    emit({"command": "wilson build", "lattice": lat.to_json(),
          "elements": lat.L, "out": args.out}, t0)
    return EXIT_OK


def cmd_wilson_verify(args, t0: float) -> int:
    lat = parse_lattice(args.lattice)
    with read_window(args.window, lat) as g:
        dev = wilson.gram_deviation(wilson.wilson_finite(g, lat))
    holds = dev <= args.tol
    emit({"command": "wilson verify", "lattice": lat.to_json(),
          "orthonormal": holds, "gram_deviation": dev, "tol": args.tol}, t0)
    return EXIT_OK if holds else EXIT_FALSE


def cmd_demo_hex(args, t0: float) -> int:
    try:
        wilson._grid(args.L)  # the demo's own check of L
    except ValueError as exc:
        raise SystemExit(f"--L: {exc}") from exc
    if not 0 < args.nu < math.inf:
        raise SystemExit(f"--nu must be a finite positive number, got {args.nu}")
    rep = wilson.wilson_continuous_demo(args.nu, args.L)
    out = {**rep.to_json(), "command": "demo-hex"}
    if args.out:
        write_window_csv(args.out, rep.window)
        out["out"] = args.out
    emit(out, t0)
    return EXIT_OK


def cmd_selftest(args, t0: float) -> int:
    """Small deterministic sweep of the library invariants."""
    rng = SplitMix64(args.seed)
    checks = {}

    # canonicalization round trips on random unimodular scrambles
    ok = True
    for L in (4, 8, 12):
        for _ in range(10):
            lat = _random_lattice(rng, L)
            A = _scramble(rng, lat)
            can = ring.canonical_finite(A)
            ok = ok and can == lat and \
                ring.lattice_points_finite(A) == ring.lattice_points_finite(can)
    checks["canonical_finite_roundtrip"] = ok

    # tighten -> tight, Wilson Gram = identity (rectangular)
    tol = args.tol
    ok = True
    worst = 0.0
    for L, p in ((8, 1), (8, 2), (12, 2), (16, 4)):
        lat = ring.CanonicalFinite(L, p, 0)
        g = rng.real_dft_window(L)
        gt = gabor.tighten(g, lat)
        dev = wilson.gram_deviation(wilson.wilson_finite(gt, lat))
        worst = max(worst, dev)
        ok = ok and dev <= tol
    checks["rectangular_wilson_onb"] = ok
    checks["rectangular_wilson_onb_dev"] = worst

    # four-way equivalence on an aligned and a non-aligned sheared lattice
    ok = True
    for lat in (ring.CanonicalFinite(8, 1, 3), ring.CanonicalFinite(8, 2, 1)):
        h = rng.real_dft_window(8)
        gt = gabor.tighten(metaplectic.meta_finite(h, metaplectic.sigma_params(lat)), lat)
        ok = all(wilson.equivalence_report(gt, lat).verdicts()) and ok
    checks["four_way_equivalence"] = ok

    # Zak criteria agree with tightness
    g = gabor.tighten(rng.real_dft_window(16), ring.CanonicalFinite(16, 2, 0))
    qh, _ = zak.cond_quadrature(g, 2, tol)
    ch, _ = zak.cond_correlation(g, 2, tol)
    checks["zak_criteria"] = qh and ch

    # l^2(Z) Wilson bases on two sheared lattices from a chirped painless window
    ok = True
    for N, b in ((8, 1), (12, 4)):
        c, _, n0 = ring.ext_gcd(N // 2, b)
        l = np.arange(1 - c, c)
        h = DiscreteWindow(1 - c, np.cos(np.pi * l / (2 * c)) / np.sqrt(c))
        elems = [e for _, e in wilson.WilsonSequenceFamily(
            wilson.chirp_discrete(h, n0, c, N), N, b).elements(range(-4, 5))]
        lo, hi = min(e.start for e in elems), max(e.stop for e in elems)
        M = np.array([e.sample(lo, hi) for e in elems])
        ok = ok and np.max(np.abs(M @ M.conj().T - np.eye(len(M)))) <= tol
    checks["sequence_wilson_onb"] = bool(ok)

    passed = all(v for v in checks.values() if isinstance(v, bool))
    emit({"command": "selftest", "seed": args.seed, "checks": checks,
          "passed": passed}, t0)
    return EXIT_OK if passed else EXIT_FALSE


def _random_lattice(rng: SplitMix64, L: int) -> ring.CanonicalFinite:
    divisors = [d for d in range(1, L // 2 + 1) if (L // 2) % d == 0]
    p = divisors[rng.integer(0, len(divisors) - 1)]
    b = rng.integer(0, L // (2 * p) - 1)
    return ring.CanonicalFinite(L, p, b)


def _scramble(rng: SplitMix64, lat: ring.CanonicalFinite, steps: int = 6) -> ring.GeneratorMatrix:
    a, b = lat.time_step, lat.b
    c, d = 0, lat.p
    for _ in range(steps):
        k = rng.integer(-3, 3)
        if rng.integer(0, 1):
            # column op: second += k * first
            b, d = b + k * a, d + k * c
        else:
            a, c = a + k * b, c + k * d
    return ring.GeneratorMatrix(a, b, c, d, domain="finite", L=lat.L)


def build_parser() -> argparse.ArgumentParser:
    tol = default_tol()
    ap = argparse.ArgumentParser(prog="wilsonlat",
                                 description="Wilson bases and tight Gabor frames "
                                             "on general time-frequency lattices")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("canonicalize", help="canonical lattice generator")
    c.add_argument("--domain", choices=("real", "discrete", "finite"), required=True)
    c.add_argument("--L", type=int, default=None)
    c.add_argument("--matrix", required=True,
                   help="a,b,c,d (rationals allowed: 3/2); write a negative first "
                        "entry as --matrix=-3/2,5/4,0,-2/3")
    c.set_defaults(func=cmd_canonicalize)

    g = sub.add_parser("gabor", help="Gabor frame operations")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    gt = gsub.add_parser("tighten", help="canonical tight window")
    gt.add_argument("--lattice", required=True, help="L,p,b")
    gt.add_argument("--window", required=True)
    gt.add_argument("--out", required=True)
    gt.add_argument("--fourier-twist", action="store_true",
                    help="apply the unitary DFT to the tight window; tight_deviation "
                         "is then measured over the DFT image of the lattice")
    gt.set_defaults(func=cmd_gabor)

    z = sub.add_parser("zak", help="Zak-domain tightness criteria")
    zsub = z.add_subparsers(dest="subcommand", required=True)
    zc = zsub.add_parser("check")
    zc.add_argument("--lattice", required=True, help="L,p,0")
    zc.add_argument("--window", required=True)
    zc.add_argument("--tol", type=parse_tol, default=tol)
    zc.set_defaults(func=cmd_zak)

    s = sub.add_parser("sigma", help="symplectic reindexing parameters")
    s.add_argument("--lattice", required=True, help="L,p,b")
    s.set_defaults(func=cmd_sigma)

    w = sub.add_parser("wilson", help="Wilson basis operations")
    wsub = w.add_subparsers(dest="subcommand", required=True)
    wb = wsub.add_parser("build")
    wb.add_argument("--lattice", required=True)
    wb.add_argument("--window", required=True)
    wb.add_argument("--out", required=True)
    wb.set_defaults(func=cmd_wilson_build)
    wv = wsub.add_parser("verify")
    wv.add_argument("--lattice", required=True)
    wv.add_argument("--window", required=True)
    wv.add_argument("--tol", type=parse_tol, default=tol)
    wv.set_defaults(func=cmd_wilson_verify)

    dh = sub.add_parser("demo-hex", help="hexagonal-lattice demonstration")
    dh.add_argument("--nu", type=float, default=1.0)
    dh.add_argument("--L", type=int, default=256)
    dh.add_argument("--out", default=None)
    dh.set_defaults(func=cmd_demo_hex)

    st = sub.add_parser("selftest", help="deterministic invariant sweep")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--tol", type=parse_tol, default=tol)
    st.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None) -> int:
    t0 = time.perf_counter()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, t0)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # LatticeError, FrameError, ParameterSearchError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
