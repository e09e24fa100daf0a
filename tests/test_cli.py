import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wilsonlat
from wilsonlat.cli import main
from wilsonlat.gabor import tighten
from wilsonlat.ring import CanonicalFinite
from wilsonlat.rng import SplitMix64
from wilsonlat.signal import dft, read_window_csv, write_window_csv
from wilsonlat.wilson import wilson_finite, wilson_index_set


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_canonicalize_finite(capsys):
    code, out, _ = run(capsys, "canonicalize", "--domain", "finite",
                       "--L", "8", "--matrix", "2,1,2,3")
    assert code == 0
    assert json.loads(out) == {"L": 8, "p": 1, "b": 3}


def test_canonicalize_discrete_rational(capsys):
    code, out, _ = run(capsys, "canonicalize", "--domain", "discrete",
                       "--matrix", "1,1,1/4,3/4")
    assert code == 0
    assert json.loads(out) == {"N": 4, "b": 1}


def test_canonicalize_real(capsys):
    code, out, _ = run(capsys, "canonicalize", "--domain", "real",
                       "--matrix", "1,1,1,3/2")
    assert code == 0
    assert json.loads(out) == {"a": 1, "b": 0, "d": "1/2"}


def test_canonicalize_negative_first_entry(capsys):
    # a leading minus only parses in the --matrix=... form
    code, out, _ = run(capsys, "canonicalize", "--domain", "real",
                       "--matrix=-3/2,5/4,0,-2/3")
    assert code == 0
    assert out == '{"a": "3/2", "b": "1/4", "d": "2/3"}\n'


def test_canonicalize_bad_determinant_exit3(capsys):
    code, _, err = run(capsys, "canonicalize", "--domain", "finite",
                       "--L", "8", "--matrix", "1,0,0,3")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("matrix", ["1/0,0,0,1", "a,b,c,d", "1,0,0"])
def test_canonicalize_bad_matrix_exit2(capsys, matrix):
    code, out, err = run(capsys, "canonicalize", "--domain", "real", "--matrix", matrix)
    assert code == 2
    assert out == ""
    assert "--matrix" in err and len(err.strip().splitlines()) == 1


def test_usage_error_exit2(capsys):
    assert main(["canonicalize", "--domain", "bogus", "--matrix", "1,0,0,1"]) == 2
    assert main(["no-such-command"]) == 2


def test_gabor_tighten_and_wilson_verify(tmp_path, capsys):
    rng = SplitMix64(60)
    g = rng.real_dft_window(8)
    win = tmp_path / "g.csv"
    out = tmp_path / "tight.csv"
    write_window_csv(win, g)
    code, report, _ = run(capsys, "gabor", "tighten", "--lattice", "8,1,0",
                          "--window", str(win), "--out", str(out))
    assert code == 0
    assert json.loads(report)["tight_deviation"] < 1e-9
    code, report, _ = run(capsys, "wilson", "verify", "--lattice", "8,1,0",
                          "--window", str(out))
    assert code == 0
    data = json.loads(report)
    assert data["orthonormal"] and data["gram_deviation"] < 1e-9


def test_wilson_verify_delta_exit1(tmp_path, capsys):
    d = np.zeros(8, dtype=complex)
    d[0] = 1
    win = tmp_path / "d.csv"
    write_window_csv(win, d)
    code, report, _ = run(capsys, "wilson", "verify", "--lattice", "8,1,0",
                          "--window", str(win))
    assert code == 1
    assert not json.loads(report)["orthonormal"]


def test_zak_check_json(tmp_path, capsys):
    win = tmp_path / "ones.csv"
    write_window_csv(win, np.ones(8))
    code, report, _ = run(capsys, "zak", "check", "--lattice", "8,1,0",
                          "--window", str(win))
    assert code == 0
    data = json.loads(report)
    assert data["quadrature"]["holds"] and data["correlation"]["holds"]
    assert data["quadrature"]["max_deviation"] < 1e-12


def test_sigma_json(capsys):
    code, report, _ = run(capsys, "sigma", "--lattice", "8,1,3")
    assert code == 0
    data = json.loads(report)
    assert data["alpha"] * data["delta"] - data["beta"] * data["gamma"] == 1
    assert data["c"] == data["s"] == 4


def test_wilson_build_csv(tmp_path, capsys):
    win = tmp_path / "g.csv"
    out = tmp_path / "basis.csv"
    write_window_csv(win, np.ones(8))
    code, report, _ = run(capsys, "wilson", "build", "--lattice", "8,1,0",
                          "--window", str(win), "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,n,index,re,im"
    assert len(lines) == 1 + 8 * 8


def test_selftest_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--seed", "0")
    code2, out2, _ = run(capsys, "selftest", "--seed", "0")
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run(capsys, "selftest", "--seed", "1")
    assert code3 == 0
    assert out3 != out1


def test_selftest_boundary_is_the_reported_deviation(capsys):
    # rectangular_wilson_onb holds at --tol equal to the deviation it prints
    # and fails one ulp below it and at a tenth of it, with exit code 1; the
    # four-way check reads the same --tol
    code, out, _ = run(capsys, "selftest", "--seed", "0")
    checks = json.loads(out)["checks"]
    dev = checks["rectangular_wilson_onb_dev"]
    assert code == 0 and checks["four_way_equivalence"] is True and dev > 0
    for tol, holds in ((dev, True), (math.nextafter(dev, 0), False), (dev / 10, False)):
        code, out, _ = run(capsys, "selftest", "--seed", "0", "--tol", repr(tol))
        assert json.loads(out)["checks"]["rectangular_wilson_onb"] is holds
        assert holds or code == 1
    code, out, _ = run(capsys, "selftest", "--seed", "0", "--tol", "1e-300")
    assert code == 1 and json.loads(out)["checks"]["four_way_equivalence"] is False


def test_selftest_checks_sequence_wilson_basis(capsys):
    for seed in ("0", "1", "17"):
        code, out, _ = run(capsys, "selftest", "--seed", seed)
        assert code == 0
        assert json.loads(out)["checks"]["sequence_wilson_onb"] is True


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WILSON_TOL", "1e-3")
    from wilsonlat.cli import default_tol
    assert default_tol() == 1e-3


@pytest.mark.parametrize("value", ["nan", "garbage", "inf", "-1e-9", "0"])
def test_bad_tolerance_env_exit2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("WILSON_TOL", value)
    win = tmp_path / "ones.csv"
    write_window_csv(win, np.ones(8))
    code, out, err = run(capsys, "zak", "check", "--lattice", "8,1,0",
                         "--window", str(win))
    assert code == 2
    assert out == ""
    assert "WILSON_TOL" in err and len(err.strip().splitlines()) == 1


def test_missing_window_exit2(tmp_path, capsys):
    code, out, err = run(capsys, "gabor", "tighten", "--lattice", "8,1,0",
                         "--window", str(tmp_path / "absent.csv"),
                         "--out", str(tmp_path / "tight.csv"))
    assert code == 2
    assert out == ""
    assert "absent.csv" in err and len(err.strip().splitlines()) == 1


def test_unreadable_window_exit2(tmp_path, capsys):
    # a directory cannot be read as a window file
    code, out, err = run(capsys, "wilson", "verify", "--lattice", "8,1,0",
                         "--window", str(tmp_path))
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("rows", [["0,1,0", "1,0.5,0", "1,9,0"],   # repeated index
                                  ["0,1,0", "1,0.5"],              # missing field
                                  ["0,1,0", "1,half,0"]])          # non-numeric value
def test_malformed_window_exit2(tmp_path, capsys, rows):
    win = tmp_path / "bad.csv"
    win.write_text("\n".join(["index,re,im", *rows]) + "\n")
    code, out, err = run(capsys, "wilson", "verify", "--lattice", "2,1,0",
                         "--window", str(win))
    assert code == 2
    assert out == ""
    assert "bad.csv:" in err and len(err.strip().splitlines()) == 1


WINDOW_COMMANDS = [["wilson", "verify"], ["wilson", "build"], ["gabor", "tighten"],
                   ["zak", "check"]]


def window_command(tmp_path, command, lattice, win):
    extra = ["--out", str(tmp_path / "out.csv")] if command[-1] in ("build", "tighten") else []
    return [*command, "--lattice", lattice, "--window", str(win), *extra]


@pytest.mark.parametrize("command", WINDOW_COMMANDS)
@pytest.mark.parametrize("sample", ["nan,0", "0,nan", "inf,0", "-inf,0"])
def test_non_finite_window_sample_exit2(tmp_path, capsys, command, sample):
    win = tmp_path / "bad.csv"
    win.write_text("index,re,im\n" + "".join(f"{i},1,0\n" for i in range(8)).replace(
        "3,1,0", f"3,{sample}"))
    code, out, err = run(capsys, *window_command(tmp_path, command, "8,1,0", win))
    assert code == 2
    assert out == ""
    assert "bad.csv:5:" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, lattice", [
    (["wilson", "verify"], "8,1,0"), (["wilson", "verify"], "8,1,3"),
    (["gabor", "tighten"], "8,1,0"), (["zak", "check"], "8,1,0")])
def test_overflowing_window_is_a_numerical_failure_exit3(tmp_path, capsys, command, lattice):
    # finite samples whose FFT overflows: the verdict is NaN, which is not JSON
    win = tmp_path / "huge.csv"
    write_window_csv(win, np.full(8, complex(1e308, 1e308)))
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, *window_command(tmp_path, command, lattice, win))
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


@pytest.mark.parametrize("command, lattice", [
    (["wilson", "verify"], "512,1,37"), (["wilson", "build"], "512,1,37"),
    (["gabor", "tighten"], "512,1,37"), (["zak", "check"], "512,1,0")])
def test_overflowing_window_fails_in_one_line_exit3(tmp_path, capsys, command, lattice):
    # finite samples near the largest double: every command overflows; numpy
    # must warn about none of it, and wilson build must write no basis
    win = tmp_path / "huge.csv"
    write_window_csv(win, np.full(512, 1.7e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *window_command(tmp_path, command, lattice, win))
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure") and len(err.splitlines()) == 1
    if command[-1] == "build":
        assert not (tmp_path / "out.csv").exists()


def test_unwritable_out_exit2(tmp_path, capsys):
    win = tmp_path / "ones.csv"
    write_window_csv(win, np.ones(8))
    code, out, err = run(capsys, "wilson", "build", "--lattice", "8,1,0",
                         "--window", str(win),
                         "--out", str(tmp_path / "no-such-dir" / "basis.csv"))
    assert code == 2
    assert out == ""
    assert "no-such-dir" in err and len(err.strip().splitlines()) == 1


def test_removed_cli_surface_is_a_usage_error(tmp_path, capsys):
    win = tmp_path / "ones.csv"
    write_window_csv(win, np.ones(8))
    assert main(["wilson", "demo-hex", "--L", "64"]) == 2
    assert main(["wilson", "verify", "--lattice", "8,1,0", "--window", str(win),
                 "--gram"]) == 2
    assert main(["wilson", "build", "--setting", "finite", "--lattice", "8,1,0",
                 "--window", str(win), "--out", str(tmp_path / "b.csv")]) == 2


def test_demo_hex_small(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, report, _ = run(capsys, "demo-hex", "--nu", "1", "--L", "64",
                          "--out", str(out))
    assert code == 0
    data = json.loads(report)
    assert data["rect_gram_deviation"] < 1e-6
    assert len(read_window_csv(out)) == 64


def test_zak_check_rejects_sheared_lattice(tmp_path, capsys):
    win = tmp_path / "w.csv"
    write_window_csv(win, np.ones(8))
    code = main(["zak", "check", "--lattice", "8,1,3", "--window", str(win)])
    assert code == 2


def test_bad_lattice_flag_usage_error(capsys):
    code, out, err = run(capsys, "sigma", "--lattice", "2097152,1,1")
    assert code == 2
    assert out == ""
    assert "bound" in err and len(err.strip().splitlines()) == 1
    assert main(["sigma", "--lattice", "8,1"]) == 2
    assert main(["sigma", "--lattice", "7,1,0"]) == 2


def test_gabor_tighten_fourier_twist(tmp_path, capsys):
    rng = SplitMix64(61)
    g = rng.real_dft_window(16)
    win = tmp_path / "g.csv"
    out = tmp_path / "twisted.csv"
    write_window_csv(win, g)
    code = main(["gabor", "tighten", "--lattice", "16,4,0", "--window", str(win),
                 "--out", str(out), "--fourier-twist"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    # tightness moves to the DFT image of the lattice, where it is measured
    assert report["tight_deviation"] <= 1e-12
    assert len(read_window_csv(out)) == 16
    want = np.sqrt(16) * dft(tighten(g, CanonicalFinite(16, 4, 0)))
    assert np.max(np.abs(read_window_csv(out) - want)) <= 1e-12


@pytest.mark.parametrize("command", [
    ["wilson", "verify"], ["wilson", "build"], ["gabor", "tighten"], ["zak", "check"]])
def test_window_length_mismatch_exit2(tmp_path, capsys, command):
    win = tmp_path / "short.csv"
    write_window_csv(win, np.ones(8))
    extra = ["--out", str(tmp_path / "out.csv")] if command[-1] in ("build", "tighten") else []
    code, out, err = run(capsys, *command, "--lattice", "16,2,0", "--window", str(win), *extra)
    assert code == 2
    assert out == ""
    assert "short.csv" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("args", [["--L", "0"], ["--L", "7"], ["--L", "36"], ["--L", "-64"],
                                  ["--nu", "-1"], ["--nu", "0"], ["--nu", "nan"],
                                  ["--L", "1052676"]])
def test_demo_hex_bad_arguments_exit2(capsys, args):
    code, out, err = run(capsys, "demo-hex", *args)
    assert code == 2
    assert out == ""
    assert args[0] in err and len(err.strip().splitlines()) == 1


def old_sample_lines(rows, leads):
    """The per-sample f-string writer the block writer replaced."""
    return "".join(f"{lead}{l},{v.real:.17g},{v.imag:.17g}\n"
                   for lead, row in zip(leads, rows) for l, v in enumerate(row))


def test_wilson_build_bytes_match_per_sample_writer(tmp_path, capsys):
    rng = SplitMix64(62)
    lat = CanonicalFinite(24, 2, 0)
    g = tighten(rng.real_dft_window(lat.L), lat)
    g[3] = complex(-0.0, 0.0)
    g[5] = complex(1e-300, -0.0)
    win = tmp_path / "g.csv"
    out = tmp_path / "basis.csv"
    write_window_csv(win, g)
    code, _, _ = run(capsys, "wilson", "build", "--lattice", "24,2,0",
                     "--window", str(win), "--out", str(out))
    assert code == 0
    sys_ = wilson_finite(read_window_csv(win), lat)
    m, n = wilson_index_set(lat.L, sys_.params.q)
    want = "m,n,index,re,im\n" + old_sample_lines(
        sys_.basis, [f"{i},{j}," for i, j in zip(m.tolist(), n.tolist())])
    assert out.read_bytes() == want.encode()
    assert b"-0," in out.read_bytes()


def test_wilson_build_refuses_large_L_exit2(tmp_path, capsys):
    # the basis is an L x L array; above 4096 it is refused before any I/O
    lat = CanonicalFinite(8192, 4, 1)
    win, out = tmp_path / "g.csv", tmp_path / "basis.csv"
    write_window_csv(win, np.fft.ifft(SplitMix64(30).reals(lat.L)) * lat.L)
    code, stdout, err = run(capsys, "wilson", "build", "--lattice", "8192,4,1",
                            "--window", str(win), "--out", str(out))
    assert code == 2 and stdout == "" and "4096" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["wilson", "verify"], ["zak", "check"]])
def test_verdict_boundary_is_the_reported_deviation(tmp_path, capsys, command):
    # an untightened window: each verdict holds at --tol equal to the
    # deviation it reports, and fails one ulp below it and at a tenth of it
    win = tmp_path / "g.csv"
    write_window_csv(win, SplitMix64(63).real_dft_window(16))
    argv = [*command, "--lattice", "16,2,0", "--window", str(win)]

    def verdicts(tol=None):
        """(exit code, {verdict: (holds, deviation)}) at --tol tol, if given."""
        code, report, _ = run(capsys, *argv, *([] if tol is None else ["--tol", repr(tol)]))
        data = json.loads(report)
        assert tol is None or data["tol"] == tol
        if command[0] == "wilson":
            return code, {"gram": (data["orthonormal"], data["gram_deviation"])}
        return code, {k: (data[k]["holds"], data[k]["max_deviation"])
                      for k in ("quadrature", "correlation")}

    code, base = verdicts()
    assert code == 1
    for key, (_, dev) in base.items():
        for tol, holds in ((dev, True), (math.nextafter(dev, 0), False), (dev / 10, False)):
            assert verdicts(tol)[1][key] == (holds, dev)
    worst = max(dev for _, dev in base.values())
    assert verdicts(worst)[0] == 0
    assert verdicts(worst / 10)[0] == 1


CHILD = """
import sys
from wilsonlat.cli import main
code = main(sys.argv[1:])
sys.stderr.write(f"\\n{code} {sum(m.startswith('numpy.') for m in sys.modules)}\\n")
"""


def run_fresh(tmp_path, *argv, env=()):
    """main(argv) in a new interpreter: (exit code, stdout, numpy.* modules loaded)."""
    path = os.pathsep.join(filter(None, [str(Path(wilsonlat.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path, **dict(env)},
                          capture_output=True, text=True, timeout=60)
    code, loaded = proc.stderr.split()[-2:]
    return int(code), proc.stdout, int(loaded)


SIGMA_2_20 = ('{"L": 1048576, "aligned": true, "alpha": 1, "b": 1, "beta": 524287, '
              '"c": 524288, "d": 524288, "delta": -524286, "gamma": -1, "m0": -524287, '
              '"n0": 524288, "p": 1, "q": 1, "s": 524288, "sign_adjusted": false, '
              '"t": 274876858368}\n')


@pytest.mark.parametrize("argv, env, want_code, want_out", [
    (["sigma", "--lattice", "1048576,1,1"], (), 0, SIGMA_2_20),
    (["canonicalize", "--domain", "finite", "--L", "24", "--matrix", "6,1,0,2"], (), 0,
     '{"L": 24, "b": 1, "p": 2}\n'),
    (["canonicalize", "--domain", "finite", "--L", "8", "--matrix", "1,0,0,3"], (), 3, ""),
    (["sigma", "--lattice", "8,1"], (), 2, ""),
    (["wilson", "verify", "--lattice", "8,1,0", "--window", "absent.csv"], (), 2, ""),
    (["zak", "check", "--lattice", "8,1,0", "--window", "absent.csv"],
     [("WILSON_TOL", "nan")], 2, ""),
], ids=["sigma-2**20", "canonicalize", "canonicalize-det-3", "bad-lattice", "missing-window",
        "bad-WILSON_TOL"])
def test_integer_commands_and_usage_errors_never_import_numpy(tmp_path, argv, env,
                                                               want_code, want_out):
    code, out, loaded = run_fresh(tmp_path, *argv, env=env)
    assert (code, out, loaded) == (want_code, want_out, 0)


def test_help_never_imports_numpy(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the same help layout in both processes
    want = run(capsys, "--help")[:2]
    code, out, loaded = run_fresh(tmp_path, "--help")
    assert (code, out, loaded) == (*want, 0)


def test_window_command_imports_numpy(tmp_path):
    write_window_csv(tmp_path / "ones.csv", np.ones(8))
    code, out, loaded = run_fresh(tmp_path, "zak", "check", "--lattice", "8,1,0",
                                  "--window", "ones.csv")
    assert code == 0 and json.loads(out)["quadrature"]["holds"]
    assert loaded > 0
