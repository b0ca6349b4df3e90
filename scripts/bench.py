#!/usr/bin/env python3
"""Time specinv layer by layer: one warm-up, then the median of N calls.

For a 4 s and a 20 s clip (16 kHz, Hann 1024/256, two sources, oracle
magnitudes degraded at level 0.2, as in the benchmark's sweep) it times
``stft``, ``istft``, G on one source (``g_operator``) and on the source set
(``p_cons``), ``unit_phasor``, ``p_mix``, ``p_mag``, one step of each
family (sigma 1 where the family has one; each timed call is one pass of
``run``'s block loop without losses: G(S) once, then for each frame block
the step, its finiteness check and its write over that block of G) and one
20-iteration ``run`` of ``mix_incons_hardmag`` at sigma 1 with its losses
recorded.  On the 4 s clip it also times a ``run`` of every family as
``specinv separate`` runs it (losses recorded, magnitude-ratio weights,
sigma 1 where the family has one, 20 iterations unless the family fixes
the count), the same ``run`` without its losses (``_nolosses``: the
difference is what recording the losses costs) and one sweep task:
``experiment._process_item`` on one item at one degradation level, with the
default sweep's 30 configurations.  Timings are wall-clock milliseconds
from ``time.perf_counter``: the median of 7 calls per layer, of 3 for a
``run`` or a sweep task.

The results go under ``--label`` in the JSON file ``--out``; other labels
already in the file are kept, so the same file can hold a before and an
after run.  Time another checkout by putting its ``src`` first on
``PYTHONPATH``.

    PYTHONPATH=src python3 scripts/bench.py --label after --out BENCH.json
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
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


def median_ms(fn, repeats: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e3, 3)


def blocked_step(step, sources, mixture, mags, weights, cfg):
    """One step at sigma 1 as ``run`` applies it: G(S), then the step block by block, written over G."""
    cons = spectral.g_operator(sources, cfg, check_finite=False)
    for b in algorithms.frame_blocks(sources.shape):
        s, x, v, w, z = (a if np.ndim(a) == 0 else a[..., b] for a in (sources, mixture, mags, weights, cons))
        block = step(s, x, v, w, 1.0, z)
        if not np.all(np.isfinite(block)):
            raise FloatingPointError("non-finite estimate produced")
        cons[..., b] = block
    return cons


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
    clean = synth.speech_like(seconds, SAMPLE_RATE, seed=1)
    noise = synth.noise_like(seconds + 1.0, SAMPLE_RATE, seed=2)
    signal_io.write_wav(root / "clean.wav", clean)
    signal_io.write_wav(root / "noise.wav", noise)
    jobs = experiment._sweep_jobs(experiment.SweepConfig(manifest="", output_dir=""))
    task = experiment._ItemTask(
        clean_path=str(root / "clean.wav"), noise_path=str(root / "noise.wav"), isnr_db=0.0,
        seed=3, split="validation", item_id="bench", degradation=DEGRADATION,
        record_timing=False, stft_cfg=cfg, jobs=tuple(jobs),
    )
    return functools.partial(experiment._process_item, task)


def time_clip(seconds: float, tmp: Path) -> dict[str, float]:
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
        if rule.has_step
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
    out = {"source_shape": list(sources.shape)}
    for name, fn in layers.items():
        out[f"{name}_ms"] = median_ms(fn, RUN_REPEATS if name.startswith(("run_", "sweep_")) else REPEATS)
        print(f"{seconds:g}s {name}: {out[f'{name}_ms']} ms", flush=True)
    return out


def machine() -> dict[str, object]:
    src = Path(specinv.__file__).resolve().parent
    try:
        sha = subprocess.run(  # "-dirty": uncommitted changes on top of that commit
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=src, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": cpus,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write or update")
    parser.add_argument("--label", required=True, help="key for this run in the JSON file")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "machine": machine(),
            "repeats": REPEATS,
            "clips": {f"{s:g}s": time_clip(s, Path(tmp)) for s in CLIPS},
        }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = record
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
