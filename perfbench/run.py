#!/usr/bin/env python3
"""Benchmark of specinv: end-to-end timings, or per-layer spans when traced.

    python3 perfbench/run.py --workload separate_4s --seed 1 --seconds 20 --trace 0
    python3 -m pytest perfbench          # the benchmark's own tests

Run from the repository root; the package is imported from ``src/``.  One
process, one client thread, closed loop: each operation starts when the
previous one has finished.  Workloads are defined in ``workloads.py``.

Untraced (``--trace 0``) prints the end-to-end metrics:

- ``setup_s``: import the package in a fresh interpreter, write the seeded
  inputs and make one warm-up call; done five times, median reported.
- ``call_ms_p50``: wall time of one operation (a ``specinv separate`` call,
  or a ``run_benchmark`` call).  Whole passes over the workload's operations
  run until ``--seconds`` have passed; the median of each operation of the
  pass, averaged over the pass.
- ``audio_s_per_s``: seconds of input audio per second of operation time.
- ``sdr_db``: mean speech SDR of the outputs that passed their checks (for
  ``protocol``, of its test rows).
- ``peak_rss_mb``: the process's ``ru_maxrss``.

An operation fails when it raises, exits non-zero or writes outputs that
fail the workload's checks; failures are counted in ``failed`` and listed in
the report.  No end-to-end metric is a failure rate, because metrics must
not be 0; the report carries ``error_rate``.

Traced (``--trace 1``): set up once, run one pass untraced, then the same
pass with every public function of the package wrapped in spans
(``tracer.py``), and print the per-layer metrics and ``trace.overhead_s``,
the traced pass's wall time minus the untraced one's.  Counts depend only on
the seed, so they repeat exactly; ``--seconds`` does not change a traced run.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it holds the run's report (environment, cache
sizes, source-set bytes, every call time, failures), which is also written
under ``.perfbench_out/`` together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_ROUNDS = 5
IMPORT_PROBE = "import specinv.cli"

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_ms_p50": "ms",
    "audio_s_per_s": "s/s",
    "sdr_db": "dB",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_package() -> None:
    """Imports the package's entry point in a new interpreter, as a user's run does."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True)


def set_up(workload, seed: int, work: Path, rounds: int):
    """Returns the last round's inputs and the setup seconds of each round."""
    seconds, state = [], None
    for r in range(rounds):
        if r > 0:
            shutil.rmtree(work / f"setup_{r - 1}")
        root = work / f"setup_{r}"
        start = time.perf_counter()
        import_package()
        state = workload.generate(root / "inputs", seed)
        workload.warm_up(state, root / "warm_up")
        seconds.append(time.perf_counter() - start)
    return state, seconds


def call(workload, state, i: int, out: Path, failures: list):
    """Runs operation ``i``; returns its wall seconds and exit code (None if it raised)."""
    start = time.perf_counter()
    try:
        code = workload.call(state, i, out / f"op_{i:04d}")
    except Exception:  # an operation that raises is a failed operation
        code = None
        failures.append(f"op {i}: " + traceback.format_exc(limit=3))
    return time.perf_counter() - start, code


def check(workload, state, seed: int, codes: dict, out: Path, failures: list) -> list[float]:
    """Checks the outputs of every operation that exited 0; returns their SDRs."""
    sdrs = []
    for i, code in codes.items():
        if code is None:
            continue
        if code != 0:
            failures.append(f"op {i}: exit code {code}")
            continue
        outcome = workload.check(state, i, out / f"op_{i:04d}", seed)
        if outcome.ok:
            sdrs.append(outcome.sdr_db)
        else:
            failures.append(f"op {i}: {outcome.reason}")
    return sdrs


def untraced(workload, state, seed: int, seconds: float, out: Path, failures: list):
    """Whole passes until ``seconds`` have passed; outputs are checked afterwards."""
    walls, codes = [], {}
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        for _ in range(workload.ops_per_pass):
            i = len(walls)
            wall, codes[i] = call(workload, state, i, out, failures)
            walls.append(wall)
    sdrs = check(workload, state, seed, codes, out, failures)
    audio = sum(workload.audio_s(i) for i in codes)
    return walls, sdrs, audio


def call_ms_p50(walls: list[float], ops_per_pass: int) -> float:
    """Median call time of each operation in the pass, averaged over the pass.

    A pass mixes families whose calls differ by up to 2x, so the plain median
    of all calls falls in a gap between two families and jumps with noise.
    """
    per_op = [statistics.median(walls[k::ops_per_pass]) for k in range(ops_per_pass)]
    return statistics.fmean(per_op) * 1e3


def traced(workload, state, seed: int, out: Path, failures: list, spans_path: Path):
    """One pass untraced, then the same pass traced; returns per-layer metrics."""
    ops = range(workload.ops_per_pass)
    plain = {i: call(workload, state, i, out / "untraced", failures) for i in ops}
    tracer = Tracer()
    with tracer:
        spanned = {}
        for i in ops:
            tracer.op = i
            with tracer.span("bench.op"):
                spanned[i] = call(workload, state, i, out / "traced", failures)
    tracer.write_spans(spans_path)
    for name, results in (("untraced", plain), ("traced", spanned)):
        check(workload, state, seed, {i: c for i, (_, c) in results.items()}, out / name, failures)
    plain_s = sum(w for w, _ in plain.values())
    traced_s = sum(w for w, _ in spanned.values())
    metrics = tracer.metrics(traced_s)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return metrics, 2 * len(ops), {"untraced_s": plain_s, "traced_s": traced_s}


def cache_sizes() -> dict[str, int]:
    """Per-level data/unified cache sizes in bytes, read from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
        sizes[f"L{level}"] = int(text.rstrip("KM")) * scale
    return sizes


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def set_bytes(workload) -> int:
    """Bytes of one complex128 J x F x T source set."""
    return 16 * math.prod(workload.source_shape())


def environment(workloads) -> dict:
    import numpy
    import scipy

    caches = cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "cache_bytes": caches,
        "source_set_bytes": {name: set_bytes(w) for name, w in workloads.items()},
        "source_set_per_cache": {
            name: {level: set_bytes(w) / size for level, size in caches.items() if level != "L1"}
            for name, w in workloads.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import specinv from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_DIR / f"{tag}-{os.getpid()}"
    OUT_DIR.mkdir(exist_ok=True)
    failures: list[str] = []
    try:
        state, setup = set_up(workload, args.seed, work, 1 if args.trace else SETUP_ROUNDS)
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "setup_rounds_s": setup}
        if args.trace:
            metrics, attempted, extra = traced(
                workload, state, args.seed, work / "ops", failures,
                OUT_DIR / f"{tag}-spans.csv")
            report.update(extra)
        else:
            walls, sdrs, audio = untraced(
                workload, state, args.seed, args.seconds, work / "ops", failures)
            attempted = len(walls)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                "setup_s": statistics.median(setup),
                "call_ms_p50": call_ms_p50(walls, workload.ops_per_pass),
                "audio_s_per_s": audio / sum(walls),
                "sdr_db": statistics.fmean(sdrs) if sdrs else 0.0,
                "peak_rss_mb": rss_kb / 1024,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
            report.update(calls=attempted, call_s=walls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.update(environment=environment(workloads.WORKLOADS), failures=failures,
                  error_rate=len(failures) / attempted)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
