"""One benchmark process: set up, warm up, then run instances of one workload.

    python3 perfbench/worker.py ROLE --workload W --seed N \
        --src SRC --workdir DIR [--cycles C] [--spans FILE]

ROLE ``setup`` measures the set-up time only; ROLE ``run`` sets up and then
runs exactly C cycles of instances, traced when ``--spans`` names the file
the spans go to.  Prints one JSON record as the last line of stdout.

Set-up time runs from just before ``import wilsonlat`` to the end of one
untimed warm-up instance (input generation and checks excluded); for
cli-files it is the wall time of a fresh ``python -m wilsonlat.cli --help``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--cycles", type=int, default=1)
    ap.add_argument("--spans", default=None)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy as np
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "blas_threads": None, "blas": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if get is not None and conf is not None:
                        get.restype, conf.restype = ctypes.c_int, ctypes.c_char_p
                        env["blas_threads"], env["blas"] = get(), conf().decode()
                        return env
    except OSError:
        pass
    return env


def main(argv=None) -> int:
    a = _args(argv)
    sys.path.insert(0, a.src)
    workdir = Path(a.workdir)
    cli = a.workload == "cli-files"

    t0 = time.perf_counter()
    import wilsonlat  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0

    import workloads as W
    from tracing import Tracer

    if a.workload not in W.NAMES:
        raise SystemExit(f"unknown workload {a.workload!r}")
    tracer = Tracer() if a.spans else None
    runner = W.CliRunner(sys.executable, Path(a.src), workdir,
                         Path(__file__).with_name("launch.py") if tracer else None)
    if tracer and not cli:
        tracer.install()

    def run_one(inst):
        """Run one instance; returns (seconds, outputs, problems)."""
        paths = W.prepare_cli(inst, workdir) if cli else None
        if tracer and not cli and inst.index >= 0:
            tracer.instance, tracer.enabled = inst.index, True
        start = time.perf_counter()
        try:
            out = W.run_cli(inst, runner, paths) if cli else W.run_in_process(inst)
            err = None
        except Exception as exc:  # a failed instance, reported below
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - start
        if tracer:
            tracer.enabled = False
        if err:
            return dt, out, [err]
        if cli:  # check now: the files are overwritten by the next instance
            return dt, out, W.check_cli(inst, out, paths)
        return dt, out, None

    record = {"role": a.role, "workload": a.workload, "seed": a.seed}
    warm = W.make_instance(a.workload, a.seed, -1)
    if cli:
        record["setup_s"] = runner.help_seconds()
        if a.role != "setup":
            _, _, warm_problems = run_one(warm)
    else:
        warm_s, warm_out, warm_problems = run_one(warm)
        record["setup_s"] = import_s + warm_s
        if warm_problems is None:
            warm_problems = W.check_in_process(warm, warm_out)
    if a.role == "setup":
        print(json.dumps(record))
        return 0
    record["warmup_problems"] = warm_problems

    runs = []  # (instance, seconds, outputs, problems)
    for i in range(a.cycles * W.CYCLE[a.workload]):
        inst = W.make_instance(a.workload, a.seed, i)
        dt, out, problems = run_one(inst)
        if cli and tracer:
            for rec in out or ():
                if "trace" in rec:
                    tracer.absorb(rec["trace"], inst.index)
        runs.append((inst, dt, out, problems))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0

    instances = []
    cli_calls = []
    for inst, dt, out, problems in runs:
        if problems is None:
            problems = W.check_in_process(inst, out)
        instances.append({"i": inst.index, "s": dt, "problems": problems})
        if cli and out:
            for rec in out:
                call = {"name": rec["name"], "code": rec["code"], "wall_s": rec["wall_s"]}
                if "trace" in rec:
                    call["startup_s"] = rec["trace"]["startup_s"]
                if rec["name"] == "wilson_build":
                    call["bytes_out"] = rec.get("bytes_out", 0)
                cli_calls.append(call)
    record["instances"] = instances
    record["cli_calls"] = cli_calls
    if tracer:
        stats, top = tracer.summary()
        record["stats"] = stats
        record["top_s"] = {str(k): v for k, v in top.items()}
        tracer.write(a.spans)
    record["environment"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
