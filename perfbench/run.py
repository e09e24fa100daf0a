"""The wilsonlat benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; builds nothing, imports ``wilsonlat`` from
``src/`` of that checkout and exits with status 2 when it is missing.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record (seed,
machine, library versions, tail percentile, failure ratio).

A run takes round(S / CYCLE_S[W]) whole cycles of instances (see
workloads.py).  The count is fixed by S, not by the clock, so every commit
does the same work, holds the same caches and repeats its counts exactly.
Every process runs with one BLAS thread, so the load is one process on one
core and the numbers do not depend on how many cores the machine has.

--trace 0  End-to-end metrics.  SETUP_REPS fresh processes each time the
           set-up; the last one then runs the instances.  No tracing.
--trace 1  Per-layer metrics.  Half the cycles run untraced in one fresh
           process and traced in another; the traced one wraps every public
           wilsonlat function (see tracing.py), and for cli-files every
           command starts through launch.py.

Workloads and checks are described in workloads.py.  Processes run one at
a time, so the load always comes from a single process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NAMES = ("rect-large", "sheared-cold", "cli-files")
SETUP_REPS = 3
DEADLINE_S = 170  # every run ends within 180 s
# share of --seconds per cycle: at 14 s a run takes 2, 3 and 2 cycles, about
# 19, 17 and 20 s of timed work on a 2-core 2.1 GHz Xeon
CYCLE_S = {"rect-large": 7.0, "sheared-cold": 5.0, "cli-files": 7.0}

END_TO_END = {"instances_per_s": "1/s", "instance_s_p50": "s", "instance_s_tail": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}

# <span name>.<stat>: stat is calls, first_calls (calls with arguments not
# seen before in the process: the cold use of a cached function), busy_s,
# self_s (busy minus child spans), s_per_call or s_per_first_call; all are
# totals over the traced instances.
SPAN_METRICS = (
    "ring.canonical_finite.busy_s",
    "metaplectic.sigma_params.calls", "metaplectic.sigma_params.first_calls",
    "metaplectic.sigma_params.busy_s", "metaplectic.sigma_params.s_per_call",
    "metaplectic.sigma_params.s_per_first_call",
    "metaplectic.metaplectic_matrix.calls", "metaplectic.metaplectic_matrix.first_calls",
    "metaplectic.meta_finite.busy_s",
    "gabor.tighten.calls", "gabor.tighten.busy_s", "gabor.tighten.s_per_call",
    "gabor.tightness_deviation.busy_s",
    "zak.cond_correlation.busy_s", "zak.cond_correlation.s_per_call",
    "zak.cond_quadrature.busy_s", "zak.cond_quadrature.s_per_call",
    "wilson.wilson_finite.calls", "wilson.wilson_finite.busy_s",
    "wilson.wilson_finite.s_per_call",
    "wilson.gram_deviation.busy_s", "wilson.gram_deviation.s_per_call",
    "wilson.equivalence_report.busy_s", "wilson.equivalence_report.self_s",
    "signal.read_window_csv.busy_s", "signal.write_window_csv.busy_s",
)
CLI_COMMANDS = ("gabor_tighten", "zak_check", "sigma", "wilson_verify", "wilson_build")
PER_LAYER = {
    **{m: ("count" if m.endswith("calls") else "s") for m in SPAN_METRICS},
    "cli.startup_s": "s",
    **{f"cli.{c}.s_p50": "s" for c in CLI_COMMANDS},
    "cli.wilson_build.bytes_out": "bytes",
    "cli.exit_mismatch": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_s": "s",
}


class BenchError(RuntimeError):
    pass


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The sample with min(10, max(1, n // 5)) samples above it.

    With at least 50 samples this is the highest percentile that has ten
    samples beyond it; smaller runs keep a fifth of their samples beyond
    it.  Returns (value, percentile, samples beyond).
    """
    s = sorted(samples)
    n = len(s)
    beyond = min(10, max(1, n // 5), n - 1)
    idx = n - 1 - beyond
    return s[idx], 100.0 * (idx + 1) / n, beyond


def cycles(args) -> int:
    return max(1, round(args.seconds / CYCLE_S[args.workload]))


def child_env() -> dict:
    """Environment of every process the benchmark starts: one BLAS thread."""
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def worker(role: str, args, workdir: Path, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), role, "--workload", args.workload,
           "--seed", str(args.seed), "--src", str(SRC), "--workdir", str(workdir), *extra]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before a worker could start")
    # own process group, so a timeout also stops the CLI processes it started
    proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{role} worker did not finish in time") from exc
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{role} worker exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def problems_of(rec: dict) -> list[str]:
    out = [f"warm-up: {p}" for p in rec.get("warmup_problems") or ()]
    for inst in rec["instances"]:
        out += [f"instance {inst['i']}: {p}" for p in inst["problems"]]
    return out


def end_to_end(args, workdir: Path, deadline: float) -> tuple[dict, dict, dict]:
    setups = [worker("setup", args, workdir, deadline)["setup_s"] for _ in range(SETUP_REPS - 1)]
    rec = worker("run", args, workdir, deadline, "--cycles", str(cycles(args)))
    setups.append(rec["setup_s"])
    insts = rec["instances"]
    ok = [x["s"] for x in insts if not x["problems"]]
    timed = sum(x["s"] for x in insts)
    value, pct, beyond = tail(ok) if ok else (0.0, 0.0, 0)
    metrics = {
        "instances_per_s": len(ok) / timed,
        "instance_s_p50": statistics.median(ok) if ok else 0.0,
        "instance_s_tail": value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    info = {"tail_percentile": pct, "tail_samples_beyond": beyond, "samples": len(ok),
            "setup_samples": setups, "timed_s": timed}
    return rec, metrics, info


def span_metrics(stats: dict) -> dict:
    """SPAN_METRICS from Tracer.summary(); a span that never ran gives 0."""
    m = {}
    for name in SPAN_METRICS:
        span, stat = name.rsplit(".", 1)
        s = stats.get(span, {})
        calls, first = s.get("calls", 0), s.get("first_calls", 0)
        if stat == "s_per_call":
            m[name] = s["busy_s"] / calls if calls else 0.0
        elif stat == "s_per_first_call":
            m[name] = s["first_busy_s"] / first if first else 0.0
        else:
            m[name] = s.get(stat, 0)
    return m


def per_layer(args, workdir: Path, deadline: float) -> tuple[dict, dict, dict, dict]:
    n = str(max(1, cycles(args) // 2))
    base = worker("run", args, workdir, deadline, "--cycles", n)
    spans = OUT / f"spans-{args.workload}.tsv.gz"
    rec = worker("run", args, workdir, deadline, "--cycles", n, "--spans", str(spans))
    m = span_metrics(rec["stats"])
    calls = rec["cli_calls"]
    m["cli.startup_s"] = statistics.median([c["startup_s"] for c in calls]) if calls else 0.0
    for c in CLI_COMMANDS:
        walls = [x["wall_s"] for x in calls if x["name"] == c]
        m[f"cli.{c}.s_p50"] = statistics.median(walls) if walls else 0.0
    m["cli.wilson_build.bytes_out"] = sum(x.get("bytes_out", 0) for x in calls)
    m["cli.exit_mismatch"] = sum(1 for x in calls if x["code"] != 0)
    walls = {str(x["i"]): x["s"] for x in rec["instances"]}
    m["trace.overhead_ratio"] = (sum(walls.values()) /
                                 sum(x["s"] for x in base["instances"]))
    m["trace.unaccounted_s"] = statistics.mean(
        w - rec["top_s"].get(i, 0.0) for i, w in walls.items())
    info = {"cycles": int(n), "traced_instances": len(walls),
            "spans_file": str(spans.relative_to(ROOT))}
    return rec, base, m, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "wilsonlat" / "__init__.py").is_file():
        print(f"no wilsonlat sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{time.time_ns()}"
    workdir.mkdir()
    try:
        if args.trace:
            rec, base, metrics, info = per_layer(args, workdir, deadline)
            passes = [base, rec]
            units = PER_LAYER
        else:
            rec, metrics, info = end_to_end(args, workdir, deadline)
            passes = [rec]
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in passes for p in problems_of(r)]
    attempted = sum(len(r["instances"]) for r in passes)
    failed = sum(1 for r in passes for x in r["instances"] if x["problems"])
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fail_ratio": failed / attempted,
              "environment": rec["environment"], **info}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
