#!/usr/bin/env python3
"""Time specinv layer by layer: one warm-up, then the median of N calls.

For a 4 s and a 20 s clip (16 kHz, Hann 1024/256, two sources, oracle
magnitudes degraded at level 0.2, as in the benchmark's sweep) it times
``stft``, ``istft``, G on one source (``g_operator``) and on the source set
(``p_cons``), ``unit_phasor``, ``p_mix``, ``p_mag``, one step of each
family (sigma 1 where the family has one; each timed call is G(S) once,
then ``run``'s own pass over the frame blocks without losses: for each block
the step, its finiteness check and its write over that block of G, with the
blocks split over G's threads) and one
20-iteration ``run`` of ``mix_incons_hardmag`` at sigma 1 with its losses
recorded.  On the 4 s clip it also times a ``run`` of every family as
``specinv separate`` runs it (losses recorded, magnitude-ratio weights,
sigma 1 where the family has one, 20 iterations unless the family fixes
the count), the same ``run`` without its losses (``_nolosses``: the
difference is what recording the losses costs) and one sweep task:
``experiment._process_item`` on one item at one degradation level, with the
default sweep's 30 configurations.  The ``cold_import_cli`` row is a
fresh ``python -c "import specinv.cli"`` on the ``src`` that this script
imported specinv from: what every ``specinv`` command pays before it
starts.  Timings are wall-clock milliseconds from ``time.perf_counter``:
the median of 7 calls per layer (7 subprocesses for ``cold_import_cli``),
of 3 for a ``run`` or a sweep task.

The results go under ``--label`` in the JSON file ``--out``; other labels
already in the file are kept, so the same file can hold a before and an
after run.  Time another checkout by putting its ``src`` first on
``PYTHONPATH``.

    PYTHONPATH=src python3 scripts/bench.py --label after --out BENCH.json

With ``--baseline REV`` the script compares the commit REV with the working
tree instead.  It exports REV with ``git archive`` into a temporary
directory and times each row in fresh subprocesses, baseline and
working tree alternately, for ``--pairs`` pairs; which side goes first
alternates from pair to pair and row to row.  Both sides run this file,
each importing its own ``src``.  Each row reports both medians, the
median of the per-pair ratios working tree / baseline, and in how many
pairs the working tree was faster.  Run with REV = HEAD on a clean tree,
it measures the spread between two runs of the same code.  REV must be
c76d615 or later: the step rows call ``algorithms._block_pass``, which that
commit added.

    PYTHONPATH=src python3 scripts/bench.py --label aa --out BENCH.json --baseline HEAD --pairs 5
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import specinv
from specinv import algorithms, experiment, projectors, signal_io, spectral, synth
from specinv.algorithms import AlgorithmSpec, Family

SAMPLE_RATE = 16000
DEGRADATION = 0.2
CLIPS = (4.0, 20.0)  # seconds
REPEATS = 7
RUN_REPEATS = 3  # a 20-iteration run is ~20 steps long; a sweep task ~560
ROOT = Path(__file__).resolve().parent.parent
COLD_IMPORT = "cold_import_cli"


def median_ms(fn, repeats: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e3, 3)


def blocked_step(step, sources, mixture, mags, weights, cfg):
    """One step at sigma 1 as ``run`` applies it: G(S), then ``run``'s block pass, without losses."""
    cons = spectral.g_operator(sources, cfg, check_finite=False)
    return algorithms._block_pass(step, sources, mixture, mags, weights, 1.0, cons, cfg)[0]


def problem(seconds: float, cfg: spectral.StftConfig):
    clean = synth.speech_like(seconds, SAMPLE_RATE, seed=1)
    noise = synth.noise_like(seconds + 1.0, SAMPLE_RATE, seed=2)
    mix = signal_io.make_mixture(clean, noise, 0.0, seed=3)
    mixture = spectral.stft(mix.mixture.samples, cfg)
    mags = signal_io.oracle_magnitudes([clean, mix.scaled_noise], cfg)
    mags = signal_io.degrade_magnitudes(mags, DEGRADATION, seed=4)
    return mix.mixture.samples, mixture, mags


def family_runs(mixture, mags, cfg) -> dict:
    """A ``run`` of each family as ``specinv separate`` runs it, with its losses and without."""
    runs = {}
    for family, rule in algorithms.RULES.items():
        iterations = 20 if rule.fixed_iterations is None else rule.fixed_iterations
        spec = AlgorithmSpec(family, 1.0 if rule.sigma_enters else 0.0, "magratio", iterations)
        name = f"run_{family.value}_{iterations}"
        runs[name] = functools.partial(algorithms.run, spec, mixture, mags, cfg)
        runs[f"{name}_nolosses"] = functools.partial(algorithms.run, spec, mixture, mags, cfg, record_losses=False)
    return runs


def sweep_task(seconds: float, cfg: spectral.StftConfig, root: Path):
    """One sweep task: one item at one degradation level, all 30 configurations."""
    signal_io.write_wav(root / "clean.wav", synth.speech_like(seconds, SAMPLE_RATE, seed=1))
    signal_io.write_wav(root / "noise.wav", synth.noise_like(seconds + 1.0, SAMPLE_RATE, seed=2))
    item = signal_io.ManifestItem("clean.wav", "noise.wav", isnr_db=0.0, seed=3, split="validation")
    signal_io.save_manifest(signal_io.DatasetManifest([item], cfg), root / "manifest.json")
    sweep = experiment.SweepConfig(manifest=str(root / "manifest.json"), output_dir="",
                                   degradation_levels=[DEGRADATION], record_timing=False)
    (task,) = experiment._build_tasks(sweep, "validation", experiment._sweep_jobs(sweep))
    return functools.partial(experiment._process_item, task)


def clip_rows(seconds: float, tmp: Path):
    """The rows of one clip, name -> call, and the shape of its source set."""
    cfg = spectral.StftConfig(sample_rate=SAMPLE_RATE)
    samples, mixture, mags = problem(seconds, cfg)
    sources = algorithms.init_amplitude_mask(mixture, mags)
    weights = projectors.weights_magnitude_ratio(mags)
    n = samples.size
    steps = {  # the weights run would pass: 1/J where the family's row fixes it
        f"step_{family.value}": functools.partial(
            blocked_step, getattr(algorithms, f"step_{family.value}"), sources, mixture, mags,
            1.0 / len(mags) if rule.uniform_weights else weights, cfg,
        )
        for family, rule in algorithms.RULES.items()
        if hasattr(algorithms, f"step_{family.value}")
    }
    spec = AlgorithmSpec(family=Family.MIX_INCONS_HARDMAG, sigma=1.0, iterations=20)
    layers = {
        "stft": lambda: spectral.stft(samples, cfg),
        "istft": lambda: spectral.istft(mixture, cfg, n),
        "g_operator_1src": lambda: spectral.g_operator(sources[0], cfg),
        "p_cons": lambda: projectors.p_cons(sources, cfg),
        "unit_phasor": lambda: projectors.unit_phasor(sources),
        "p_mix": lambda: projectors.p_mix(sources, mixture, weights),
        "p_mag": lambda: projectors.p_mag(sources, mags),
        **steps,
        "run_mix_incons_hardmag_20": lambda: algorithms.run(spec, mixture, mags, cfg),
    }
    if seconds == CLIPS[0]:
        layers.update(family_runs(mixture, mags, cfg))
        layers["sweep_task_30"] = sweep_task(seconds, cfg, tmp)
    return layers, sources.shape


def cold_import_cli() -> None:
    """A fresh interpreter that imports ``specinv.cli`` from the ``src`` this script imported specinv from."""
    src = Path(specinv.__file__).resolve().parent.parent
    subprocess.run([sys.executable, "-c", "import specinv.cli"], env={**os.environ, "PYTHONPATH": str(src)},
                   check=True)


def time_row(name: str, fn) -> float:
    return median_ms(fn, RUN_REPEATS if name.startswith(("run_", "sweep_")) else REPEATS)


def time_clip(seconds: float, tmp: Path) -> dict[str, float]:
    layers, shape = clip_rows(seconds, tmp)
    out = {"source_shape": list(shape)}
    for name, fn in layers.items():
        out[f"{name}_ms"] = time_row(name, fn)
        print(f"{seconds:g}s {name}: {out[f'{name}_ms']} ms", flush=True)
    return out


def row_names(tmp: Path) -> list[str]:
    return [f"{s:g}s/{name}" for s in CLIPS for name in clip_rows(s, tmp)[0]] + [COLD_IMPORT]


def row_call(row: str, tmp: Path):
    """The call that ``row`` times."""
    if row == COLD_IMPORT:
        return cold_import_cli
    clip, name = row.split("/", 1)
    return clip_rows(float(clip[:-1]), tmp)[0][name]


def time_in_subprocess(src: Path, row: str) -> float:
    """Median ms of ``row`` in a fresh interpreter that imports specinv from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, __file__, "--row", row], env=env, capture_output=True, text=True,
                          check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def export(rev: str, dest: Path) -> str:
    """Extract commit ``rev`` of this repository into the new directory ``dest`` with ``git archive``; its sha."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    dest.mkdir()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def compare(rev: str, pairs: int, tmp: Path) -> dict[str, object]:
    """Interleaved baseline/working-tree timings of every row."""
    sha = export(rev, tmp / "baseline")
    sides = {"baseline": tmp / "baseline" / "src", "change": ROOT / "src"}
    times = {r: {side: [] for side in sides} for r in row_names(tmp)}
    for i in range(pairs):
        for j, row in enumerate(times):
            order = list(sides) if (i + j) % 2 == 0 else list(sides)[::-1]
            for side in order:
                times[row][side].append(time_in_subprocess(sides[side], row))
            t = times[row]
            print(f"pair {i + 1}/{pairs} {row}: baseline {t['baseline'][-1]} ms, change {t['change'][-1]} ms",
                  flush=True)
    report = {}
    for row, t in times.items():
        ratios = [c / b for b, c in zip(t["baseline"], t["change"])]
        report[row] = {
            "baseline_median_ms": round(statistics.median(t["baseline"]), 3),
            "change_median_ms": round(statistics.median(t["change"]), 3),
            "median_ratio": round(statistics.median(ratios), 4),
            "change_wins": sum(c < b for b, c in zip(t["baseline"], t["change"])),
            "baseline_ms": t["baseline"],
            "change_ms": t["change"],
        }
    return {"baseline": {"rev": rev, "sha": sha}, "pairs": pairs, "rows": report}


def machine() -> dict[str, object]:
    src = Path(specinv.__file__).resolve().parent
    try:
        sha = subprocess.run(  # "-dirty": uncommitted changes on top of that commit
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=src, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "nproc": spectral.usable_cpus(),
        "g_threads": spectral._threads,  # ranges per G and per run's block pass (one budget)
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, help="JSON file to write or update")
    parser.add_argument("--label", help="key for this run in the JSON file")
    parser.add_argument("--baseline", metavar="REV", help="compare commit REV with the working tree")
    parser.add_argument("--pairs", type=int, default=5, help="baseline/working-tree pairs per row (default 5)")
    parser.add_argument("--row", help=argparse.SUPPRESS)  # internal: time one row, print its ms
    args = parser.parse_args()
    if args.row is not None:
        with tempfile.TemporaryDirectory() as tmp:
            print(time_row(args.row.rsplit("/", 1)[-1], row_call(args.row, Path(tmp))))
        return
    if args.out is None or args.label is None:
        parser.error("--out and --label are required")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        record = {"machine": machine(), "repeats": REPEATS}
        if args.baseline is None:
            record["clips"] = {f"{s:g}s": time_clip(s, Path(tmp)) for s in CLIPS}
            record[f"{COLD_IMPORT}_ms"] = time_row(COLD_IMPORT, cold_import_cli)
        else:
            record.update(compare(args.baseline, args.pairs, Path(tmp)))
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = record
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
