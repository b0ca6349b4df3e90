"""Synthetic desk-scale dataset: speech-like harmonic clips and colored noise.

Stands in for a real corpus so the benchmark has no external data
dependency.  The clean signals are harmonic tones with vibrato, a
syllable-rate amplitude envelope and a little breathiness; the noise is
low-passed white noise with a slow level modulation.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .signal_io import DatasetManifest, ManifestItem, StftConfig, TimeSignal, save_manifest, write_wav


def speech_like(duration: float, sample_rate: int, seed: int) -> TimeSignal:
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    f0 = rng.uniform(100.0, 220.0)
    vibrato = 1.0 + 0.03 * np.sin(2 * np.pi * rng.uniform(4.0, 7.0) * t + rng.uniform(0, 2 * np.pi))
    phase = 2 * np.pi * np.cumsum(f0 * vibrato) / sample_rate
    x = np.zeros(n)
    for k in range(1, 11):
        amp = 1.0 / k * rng.uniform(0.5, 1.0)
        x += amp * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    # Syllable-rate gating plus a gentle fade at both ends.
    syllable = 0.5 * (1 + np.sin(2 * np.pi * rng.uniform(2.0, 4.0) * t + rng.uniform(0, 2 * np.pi)))
    envelope = 0.15 + 0.85 * syllable**2
    fade = np.minimum(1.0, np.minimum(t, t[::-1]) / 0.05)
    x *= envelope * fade
    x += 0.01 * rng.standard_normal(n)
    x /= np.max(np.abs(x))
    return TimeSignal(0.5 * x, sample_rate)


def noise_like(duration: float, sample_rate: int, seed: int) -> TimeSignal:
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    white = rng.standard_normal(n)
    # One-pole lowpass for a colored, environment-like spectrum.
    alpha = 0.92
    colored = lfilter([np.sqrt(1 - alpha**2)], [1.0, -alpha], white)
    t = np.arange(n) / sample_rate
    level = 1.0 + 0.3 * np.sin(2 * np.pi * rng.uniform(0.2, 0.6) * t + rng.uniform(0, 2 * np.pi))
    colored *= level
    colored /= np.max(np.abs(colored))
    return TimeSignal(0.5 * colored, sample_rate)


def generate_dataset(
    out_dir,
    n_validation: int = 10,
    n_test: int = 10,
    seed: int = 0,
    duration: float = 4.0,
    noise_duration: float = 5.0,
    sample_rate: int = 16000,
    isnr_db: float = 0.0,
) -> Path:
    """Write clean/noise WAV pairs and a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    items = []
    counts = {"validation": n_validation, "test": n_test}
    idx = 0
    for split, count in counts.items():
        for i in range(count):
            clean = speech_like(duration, sample_rate, seed=seed + 2 * idx)
            noise = noise_like(noise_duration, sample_rate, seed=seed + 2 * idx + 1)
            clean_rel = f"{split}/clean_{i:02d}.wav"
            noise_rel = f"{split}/noise_{i:02d}.wav"
            (out_dir / split).mkdir(exist_ok=True)
            write_wav(out_dir / clean_rel, clean)
            write_wav(out_dir / noise_rel, noise)
            items.append(
                ManifestItem(
                    clean_path=clean_rel,
                    noise_path=noise_rel,
                    isnr_db=isnr_db,
                    seed=seed + 1000 + idx,
                    split=split,
                )
            )
            idx += 1
    manifest = DatasetManifest(items, StftConfig(sample_rate=sample_rate), out_dir)
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest, manifest_path)
    return manifest_path
