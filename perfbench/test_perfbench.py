"""Tests of the benchmark itself: every output check fails on a corrupted
output, inputs are reproducible from the seed, the timed code stays on the
kept API, and tracing survives a library that lost a function.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads as W  # noqa: E402
import wilsonlat as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

KEPT_API = {"ring.canonical_finite", "metaplectic.sigma_params", "metaplectic.meta_finite",
            "gabor.tighten", "zak.cond_quadrature", "zak.cond_correlation",
            "wilson.wilson_finite", "wilson.gram_deviation", "wilson.equivalence_report"}


def small_instance(workload, lat, seed=3):
    rng = np.random.default_rng(seed)
    gen = W.scramble(rng, lat) if workload == "sheared-cold" else None
    return W.Instance(workload, 0, lat, W.real_spectrum_window(rng, lat.L), gen)


# -- checks fail on corrupted outputs -------------------------------------------

def test_rect_checks_catch_corruption():
    inst = small_instance("rect-large", wl.CanonicalFinite(16, 2, 0))
    out = W.run_rect(inst)
    assert W.check_in_process(inst, out) == []
    corrupted = [
        {**out, "gt": out["gt"] * 1.01},
        {**out, "gram_dev": 1e-6},
        {**out, "zak": [(False, 1e-3), out["zak"][1]]},
        {**out, "zak": [out["zak"][0], (True, 1e-6)]},
    ]
    for bad in corrupted:
        assert W.check_in_process(inst, bad)


def test_sheared_checks_catch_corruption():
    inst = small_instance("sheared-cold", wl.CanonicalFinite(16, 1, 3))
    out = W.run_sheared(inst)
    assert W.check_in_process(inst, out) == []
    corrupted = [
        {**out, "gt": out["gt"] * 1.01},
        {**out, "verdicts": (True, True, False, True)},
        {**out, "deviations": {**out["deviations"], "sheared_onb": 1e-6}},
        {**out, "lattice": wl.CanonicalFinite(16, 1, 5)},
        {**out, "q": 2},
    ]
    for bad in corrupted:
        assert W.check_in_process(inst, bad)


@pytest.mark.parametrize("lat", [wl.CanonicalFinite(16, 2, 0), wl.CanonicalFinite(16, 1, 3)])
def test_cli_checks_catch_corruption(tmp_path, monkeypatch, lat):
    monkeypatch.setenv("WILSON_TOL", "1e9")  # must not loosen any check
    runner = W.CliRunner(sys.executable, ROOT / "src", tmp_path)
    assert "WILSON_TOL" not in runner.env()
    inst = small_instance("cli-files", lat)
    paths = W.prepare_cli(inst, tmp_path)
    records = W.run_cli(inst, runner, paths)
    assert [r["name"] for r in records][1] == ("sigma" if lat.b else "zak_check")
    assert W.check_cli(inst, records, paths) == []
    assert records[-1]["bytes_out"] == paths["basis"].stat().st_size

    def fails(recs):
        return W.check_cli(inst, recs, paths)

    assert fails([{**records[0], "code": 1}] + records[1:])
    rep = json.loads(records[2]["stdout"])
    rep["orthonormal"] = False
    assert fails(records[:2] + [{**records[2], "stdout": json.dumps(rep)}] + records[3:])
    assert fails(records[:3] + [{**records[3], "stdout": "not json"}])
    assert fails([records[0], {**records[1], "stdout": "{}"}] + records[2:])

    good_gt = paths["gt"].read_text()
    gt = W.read_csv_window(paths["gt"]) * 1.01  # a tightened window scaled by 1.01
    paths["gt"].write_text("index,re,im\n" + "".join(
        f"{i},{v.real:.17g},{v.imag:.17g}\n" for i, v in enumerate(gt)))
    assert fails(records)
    paths["gt"].write_text(good_gt)

    lines = paths["basis"].read_text().splitlines(keepends=True)
    paths["basis"].write_text("".join(lines[:-1]))  # truncated basis CSV
    assert fails(records)
    paths["basis"].write_text("m,n,l,re,im\n" + "".join(lines[1:]))  # wrong header
    assert fails(records)
    paths["basis"].write_text("".join(lines[:-1]) + lines[-1][:5])  # cut last row
    assert fails(records)
    paths["basis"].write_text("".join(lines))
    assert W.check_cli(inst, records, paths) == []


# -- seeded inputs ------------------------------------------------------------

@pytest.mark.parametrize("workload", W.NAMES)
def test_inputs_depend_only_on_the_seed(workload):
    idx = range(-1, 2 * W.CYCLE[workload])
    a = [W.make_instance(workload, 11, i) for i in idx]
    b = [W.make_instance(workload, 11, i) for i in idx]
    c = [W.make_instance(workload, 12, i) for i in idx]
    assert [x.input_bytes() for x in a] == [x.input_bytes() for x in b]
    assert [x.lattice for x in a] == [x.lattice for x in c]
    assert all(not np.array_equal(x.window, y.window) for x, y in zip(a, c))
    assert all(np.max(np.abs(np.fft.fft(x.window).imag)) < 1e-9 for x in a)
    for args in (types.SimpleNamespace(workload=workload, seconds=s) for s in (1, 14, 60)):
        assert bench.cycles(args) >= 1  # set by --seconds alone, never by the seed


def test_scrambles_are_unimodular_and_seeded():
    lat = wl.CanonicalFinite(512, 2, 6)
    gens = {W.scramble(np.random.default_rng(s), lat) for s in range(20)}
    assert len(gens) > 10
    for a, b, c, d in gens:
        A = wl.GeneratorMatrix(a, b, c, d, domain="finite", L=512)
        assert wl.canonical_finite(A) == lat


def test_lattice_sequences():
    sheared = [W.lattice_at("sheared-cold", i) for i in range(-1, 62 * 3)]
    assert len(set(sheared)) == len(sheared)  # never a lattice the process has seen
    assert all(lat.b and lat.b % np.gcd(lat.p, lat.time_step) == 0 for lat in sheared)
    cli = [W.lattice_at("cli-files", i) for i in range(8)]
    assert all(lat.b == 0 for lat in cli[::2]) and len({lat.b for lat in cli[1::2]}) == 4


# -- only the kept API is timed ---------------------------------------------------

def test_timed_code_calls_only_the_kept_api():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.instance, tracer.enabled = 0, True
        W.run_rect(small_instance("rect-large", wl.CanonicalFinite(16, 2, 0)))
        W.run_sheared(small_instance("sheared-cold", wl.CanonicalFinite(16, 1, 3)))
    finally:
        tracer.enabled = False
        _restore_wilsonlat()
    top = {tracer.names[tracer.name_id[i]] for i in range(len(tracer.start))
           if tracer.parent[i] < 0}
    assert top <= KEPT_API
    assert "metaplectic.sigma_params" in top and "gabor.tighten" in top


def _restore_wilsonlat():
    for mod in [m for name, m in sys.modules.items() if name.startswith("wilsonlat")]:
        for attr, obj in list(vars(mod).items()):
            if hasattr(obj, "perfbench_span"):
                setattr(mod, attr, obj.__wrapped__)


# -- tracing ------------------------------------------------------------------

def test_tracer_spans_self_time_and_missing_functions(monkeypatch):
    pkg = types.ModuleType("fakelib")
    sub = types.ModuleType("fakelib.sub")

    def inner(x):
        return x + 1

    def outer(x):
        return pkg.inner(x) + sub.inner(x)

    for f in (inner, outer):
        f.__module__ = "fakelib"
    pkg.inner, pkg.outer, sub.inner = inner, outer, inner
    monkeypatch.setitem(sys.modules, "fakelib", pkg)
    monkeypatch.setitem(sys.modules, "fakelib.sub", sub)

    tracer = Tracer()
    assert tracer.install("fakelib") == 3
    assert pkg.inner is sub.inner  # one wrapper per function, in every namespace
    assert tracer.install("fakelib") == 0  # never wraps a wrapper
    tracer.instance, tracer.enabled = 5, True
    assert pkg.outer(1) == 4
    tracer.enabled = False
    pkg.outer(1)  # not recorded
    stats, top = tracer.summary()
    assert stats["fakelib.outer"]["calls"] == 1 and stats["fakelib.inner"]["calls"] == 2
    outer_s = stats["fakelib.outer"]
    assert outer_s["self_s"] == pytest.approx(outer_s["busy_s"] - stats["fakelib.inner"]["busy_s"])
    assert list(top) == [5] and top[5] == pytest.approx(outer_s["busy_s"])

    other = Tracer()
    other.absorb(tracer.export(), 9)
    assert other.summary()[0]["fakelib.inner"]["calls"] == 2

    zeros = bench.span_metrics({})  # a library without any of the traced functions
    assert set(zeros) == set(bench.SPAN_METRICS) and not any(zeros.values())


def test_first_calls_mark_cold_cached_calls():
    tracer = Tracer()
    tracer.install()
    lat = wl.CanonicalFinite(12, 1, 5)
    try:
        tracer.instance, tracer.enabled = 0, True
        wl.sigma_params(lat)
        wl.sigma_params(lat)
    finally:
        tracer.enabled = False
        _restore_wilsonlat()
    s = tracer.summary()[0]["metaplectic.sigma_params"]
    assert (s["calls"], s["first_calls"]) == (2, 1)


# -- the benchmark's own contract -------------------------------------------------

def test_tail_rule():
    assert bench.tail([float(x) for x in range(100)]) == (89.0, 90.0, 10)
    assert bench.tail([3.0, 1.0, 2.0, 6.0, 5.0, 4.0])[0] == 5.0
    assert bench.tail([2.0])[0] == 2.0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.NAMES) == list(bench.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert set(bench.CYCLE_S) == set(W.NAMES)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sheared-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
