"""Workloads of the wilsonlat benchmark: seeded inputs, timed pipelines, checks.

An instance is one window on one lattice taken through a workload's whole
pipeline.  Which lattice instance ``i`` uses is fixed by the workload and
never depends on the seed; the windows (real spectra drawn uniformly from
[-1, 1)) and the unimodular scrambles come from a numpy Generator seeded by
``(seed, workload, i)``.  Instance ``-1`` is the untimed warm-up.

Workloads (a cycle is the repeating unit of the lattice sequence; a run
takes whole cycles, so every run has the same mix):

rect-large    (1024, p, 0) for p = 32, 16, 4.  tighten, Zak criteria,
              wilson_finite, gram_deviation.  b = 0 takes the identity
              path, so metaplectic and ring do no work: the Zak-domain
              frame algebra alone.
sheared-cold  (512, 1, b), (384, 3, b), (512, 2, even b), aligned, b != 0,
              a lattice the process has never seen on every instance.
              canonical_finite on a scrambled generator, sigma_params,
              meta_finite, tighten, equivalence_report: a cold symplectic
              search and a new metaplectic kernel each time (the second
              sigma_params call, inside equivalence_report, hits the cache).
cli-files     one fresh ``python -m wilsonlat.cli`` per command at L = 512,
              alternating (512, 4, 0) and (512, 1, b) with a new b:
              gabor tighten, zak check or sigma, wilson verify, wilson
              build.  Interpreter start, import and CSV I/O on every call.

Timed code calls only canonical_finite, sigma_params, meta_finite, tighten,
cond_quadrature, cond_correlation, wilson_finite, gram_deviation,
equivalence_report and the CLI.  Checks run outside the timed region
against the dense oracles at the library's pinned tolerance TOL.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import wilsonlat as wl

TOL = 1e-9
NAMES = ("rect-large", "sheared-cold", "cli-files")
CYCLE = {"rect-large": 3, "sheared-cold": 3, "cli-files": 2}
CLI_L = 512
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Instance:
    workload: str
    index: int
    lattice: wl.CanonicalFinite
    window: np.ndarray            # real-spectrum window (before any transport)
    generator: tuple | None = None  # scrambled (a, b, c, d) of the lattice

    def input_bytes(self) -> bytes:
        """Everything the program receives, for reproducibility checks."""
        head = repr((self.workload, self.index, self.lattice, self.generator)).encode()
        return head + self.window.tobytes()


# -- lattice sequences (seed-independent) ------------------------------------

def _sheared(family: int, k: int) -> wl.CanonicalFinite:
    # k = 0 is the warm-up; k = 1..62 give distinct lattices per family
    if not 0 <= k < 63:
        raise ValueError("sheared lattice sequence exhausted")
    if family == 0:
        return wl.CanonicalFinite(512, 1, 1 + (37 * k) % 255)
    if family == 1:
        return wl.CanonicalFinite(384, 3, 1 + (23 * k) % 63)
    return wl.CanonicalFinite(512, 2, 2 + 2 * ((23 * k) % 63))


def lattice_at(workload: str, i: int) -> wl.CanonicalFinite:
    if workload == "rect-large":
        return wl.CanonicalFinite(1024, (32, 16, 4)[max(i, 0) % 3], 0)
    if workload == "sheared-cold":
        return _sheared(0, 0) if i < 0 else _sheared(i % 3, i // 3 + 1)
    if workload == "cli-files":
        if i < 0 or i % 2 == 0:
            return wl.CanonicalFinite(CLI_L, 4, 0)
        return wl.CanonicalFinite(CLI_L, 1, 1 + (37 * (i // 2 + 1)) % 255)
    raise ValueError(f"unknown workload {workload!r}")


# -- seeded inputs ------------------------------------------------------------

def _rng(seed: int, workload: str, i: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, NAMES.index(workload), i + 1])


def real_spectrum_window(rng: np.random.Generator, L: int) -> np.ndarray:
    return np.fft.ifft(rng.uniform(-1.0, 1.0, L)) * L


def scramble(rng: np.random.Generator, lat: wl.CanonicalFinite, steps: int = 4) -> tuple:
    """Generator of the same lattice after random unimodular column operations."""
    a, b, c, d = lat.time_step, lat.b, 0, lat.p
    for k, col in zip(rng.integers(-2, 3, steps), rng.integers(0, 2, steps)):
        if col:
            b, d = b + int(k) * a, d + int(k) * c
        else:
            a, c = a + int(k) * b, c + int(k) * d
    return (a, b, c, d)


def make_instance(workload: str, seed: int, i: int) -> Instance:
    lat = lattice_at(workload, i)
    rng = _rng(seed, workload, i)
    window = real_spectrum_window(rng, lat.L)
    gen = scramble(rng, lat) if workload == "sheared-cold" else None
    return Instance(workload, i, lat, window, gen)


# -- timed pipelines ----------------------------------------------------------

def run_rect(inst: Instance) -> dict:
    lat = inst.lattice
    gt = wl.tighten(inst.window, lat)
    quad = wl.cond_quadrature(gt, lat.p, TOL)
    corr = wl.cond_correlation(gt, lat.p, TOL)
    gram_dev = wl.gram_deviation(wl.wilson_finite(gt, lat))
    return {"gt": gt, "zak": [quad, corr], "gram_dev": gram_dev}


def run_sheared(inst: Instance) -> dict:
    a, b, c, d = inst.generator
    lat = wl.canonical_finite(wl.GeneratorMatrix(a, b, c, d, domain="finite", L=inst.lattice.L))
    sp = wl.sigma_params(lat)
    gt = wl.tighten(wl.meta_finite(inst.window, sp), lat)
    rep = wl.equivalence_report(gt, lat, TOL)
    return {"lattice": lat, "q": sp.q, "gt": gt, "verdicts": rep.verdicts(),
            "deviations": dict(rep.deviations)}


def run_in_process(inst: Instance) -> dict:
    if inst.workload == "rect-large":
        return run_rect(inst)
    return run_sheared(inst)


# -- checks (outside the timed region) ----------------------------------------

def _tight_problem(gt, lat) -> list[str]:
    dev = wl.tightness_deviation(wl.gabor_system(gt, lat), 2.0)
    return [] if dev <= TOL else [f"tightness deviation {dev:.3e} > {TOL}"]


def _zak_problems(zak) -> list[str]:
    out = []
    for name, (holds, dev) in zip(("quadrature", "correlation"), zak):
        if not holds or not dev <= TOL:
            out.append(f"Zak {name} criterion fails ({dev:.3e})")
    return out


def check_in_process(inst: Instance, out: dict) -> list[str]:
    """Problems with one in-process instance's outputs; empty when correct."""
    lat = inst.lattice
    problems = _tight_problem(out["gt"], lat)
    if inst.workload == "rect-large":
        problems += _zak_problems(out["zak"])
        if not out["gram_dev"] <= TOL:
            problems.append(f"Gram deviation {out['gram_dev']:.3e} > {TOL}")
        return problems
    if out["lattice"] != lat:
        problems.append(f"canonical form {out['lattice']} != {lat}")
    if out["q"] != lat.p:
        problems.append(f"aligned lattice mapped to q = {out['q']} != p = {lat.p}")
    if not all(out["verdicts"]):
        problems.append(f"equivalence verdicts {out['verdicts']}")
    bad = {k: v for k, v in out["deviations"].items() if not v <= TOL}
    if bad:
        problems.append(f"equivalence deviations above tolerance: {bad}")
    return problems


# -- the CLI workload -----------------------------------------------------------

@dataclass
class CliRunner:
    """Runs CLI commands in ``workdir``, one fresh process each, one at a time."""

    python: str
    src: Path
    workdir: Path
    launcher: Path | None = None  # set for traced runs

    def env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if k != "WILSON_TOL"}
        env["PYTHONPATH"] = str(self.src)
        return env

    def argv(self, args: list[str]) -> list[str]:
        if self.launcher is None:
            return [self.python, "-m", "wilsonlat.cli", *args]
        return [self.python, str(self.launcher), *args]

    def call(self, name: str, args: list[str]) -> dict:
        spans = self.workdir / f"spans-{name}.json"
        env = self.env()
        if self.launcher is not None:
            env["PERFBENCH_SPANS"] = str(spans)
        spawned = time.time()
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv(args), cwd=self.workdir, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        rec = {"name": name, "code": proc.returncode, "stdout": proc.stdout,
               "stderr": proc.stderr[-2000:], "wall_s": time.perf_counter() - t0}
        if self.launcher is not None and spans.exists():
            dump = json.loads(spans.read_text())
            spans.unlink()
            dump["startup_s"] = dump["boot"] - spawned + dump["import_s"]
            rec["trace"] = dump
        return rec

    def help_seconds(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([self.python, "-m", "wilsonlat.cli", "--help"], cwd=self.workdir,
                              env=self.env(), capture_output=True, timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"wilsonlat --help exited {proc.returncode}")
        return wall


def prepare_cli(inst: Instance, workdir: Path) -> dict:
    """Write the instance's window file (untimed).  Sheared windows are
    transported once through meta_finite, so the CLI sees U h."""
    lat = inst.lattice
    g = inst.window
    if lat.b:
        g = wl.meta_finite(g, wl.sigma_params(lat))
    paths = {k: workdir / f"{k}.csv" for k in ("g", "gt", "basis")}
    for p in paths.values():
        p.unlink(missing_ok=True)
    with open(paths["g"], "w") as fh:
        fh.write("index,re,im\n")
        fh.writelines(f"{i},{v.real:.17g},{v.imag:.17g}\n" for i, v in enumerate(g))
    return paths


def cli_commands(inst: Instance, paths: dict) -> list[tuple[str, list[str]]]:
    lat = inst.lattice
    spec = f"{lat.L},{lat.p},{lat.b}"
    g, gt, basis = (str(paths[k]) for k in ("g", "gt", "basis"))
    second = (("sigma", ["sigma", "--lattice", spec]) if lat.b else
              ("zak_check", ["zak", "check", "--lattice", spec, "--window", gt]))
    return [("gabor_tighten", ["gabor", "tighten", "--lattice", spec, "--window", g, "--out", gt]),
            second,
            ("wilson_verify", ["wilson", "verify", "--lattice", spec, "--window", gt]),
            ("wilson_build", ["wilson", "build", "--lattice", spec, "--window", gt,
                              "--out", basis])]


def run_cli(inst: Instance, runner: CliRunner, paths: dict) -> list[dict]:
    return [runner.call(name, args) for name, args in cli_commands(inst, paths)]


def read_csv_window(path) -> np.ndarray:
    """The benchmark's own reader for ``index,re,im`` files."""
    with open(path) as fh:
        if fh.readline().strip() != "index,re,im":
            raise ValueError("bad header")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if not np.array_equal(rows[:, 0], np.arange(len(rows))):
        raise ValueError("indices are not 0..L-1")
    return rows[:, 1] + 1j * rows[:, 2]


def basis_csv_problems(path, L: int) -> tuple[list[str], int]:
    """Header and row count of a ``wilson build`` CSV; also its size in bytes."""
    try:
        size = os.path.getsize(path)
        with open(path) as fh:
            header = fh.readline().strip()
            rows = 0
            last = ""
            for last in fh:
                rows += 1
    except OSError as exc:
        return [f"basis CSV unreadable: {exc}"], 0
    problems = []
    if header != "m,n,index,re,im":
        problems.append(f"basis CSV header {header!r}")
    if rows != L * L:
        problems.append(f"basis CSV has {rows} rows, expected {L * L}")
    elif len(last.split(",")) != 5 or last.split(",")[2] != str(L - 1):
        problems.append("basis CSV last row is incomplete")
    return problems, size


def _report_ok(name: str, rep: dict, lat) -> bool:
    """Whether a CLI command's JSON report states a correct result."""
    if name == "gabor_tighten":
        return rep["tight_deviation"] <= TOL
    if name == "zak_check":
        return rep["quadrature"]["holds"] and rep["correlation"]["holds"] and rep["tol"] == TOL
    if name == "sigma":
        return (rep["aligned"] and rep["q"] == lat.p
                and (rep["L"], rep["p"], rep["b"]) == (lat.L, lat.p, lat.b))
    if name == "wilson_verify":
        return rep["orthonormal"] and rep["gram_deviation"] <= TOL and rep["tol"] == TOL
    return rep["elements"] == lat.L  # wilson_build


def check_cli(inst: Instance, records: list[dict], paths: dict) -> list[str]:
    """Problems with one CLI instance: exit codes, JSON verdicts, files."""
    lat = inst.lattice
    problems = []
    for rec in records:
        name = rec["name"]
        if rec["code"] != 0:
            problems.append(f"{name} exited {rec['code']}: {rec['stderr'][-200:]}")
            continue
        try:
            rep = json.loads(rec["stdout"])
            if not _report_ok(name, rep, lat):
                problems.append(f"{name} reports {rep}")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{name} printed no usable JSON report ({exc!r})")
        if name == "wilson_build":
            bad, rec["bytes_out"] = basis_csv_problems(paths["basis"], lat.L)
            problems += bad
    try:
        problems += _tight_problem(read_csv_window(paths["gt"]), lat)
    except (OSError, ValueError) as exc:
        problems.append(f"tightened window unreadable: {exc}")
    return problems
