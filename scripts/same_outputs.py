#!/usr/bin/env python3
"""Check that the working tree writes the same output files as commit REV, byte for byte.

REV is exported with ``git archive`` (``bench.export``).  Each tree then runs in its own
subprocess, which imports specinv from that tree's ``src`` and uses only the public API and the
CLI, so older trees run too:

1. ``synth.generate_dataset`` writes a 2+2-item dataset (seed 0), and ``specinv benchmark`` runs
   the default grid and degradation levels on it with ``record_timing: false``, then again with
   ``max_iterations: 3`` and ``jobs: 1`` (the serial path) into ``results_3``;
2. ``specinv mix`` mixes the first validation item at 0 dB, and ``specinv separate`` runs each of
   the ten ``--algo`` names at sigma 0 and 1 (20 iterations) from its oracle magnitudes;
3. ``stft``, ``istft`` and ``g_operator`` (of a 3-source set) run on seeded random inputs at
   window/hop 16/4, 25/5, 48/8, 64/16 and 1024/256, each at 1, ``hop`` and 333 samples: the
   fewest frames, where the head and tail padding meet, and short, odd lengths, which steps 1
   and 2 (1024/256, 253 frames or more) never reach.  Each result is one ``.npy`` file.

Every file that the two runs write, 127 in all, is compared by SHA-256: the WAVs,
``manifest.json``, both configs and each benchmark's two CSVs and ``selections.json``; the mix
and the magnitude files; each ``est_*.wav`` and ``trace.csv``; the 45 transform results.  The
script prints one JSON report and exits 1 if any file differs or exists on one side only.  For
each file that differs the report says how far (``how_far``); the exit code does not read it.
It takes about a minute on a 2-vCPU machine.

    PYTHONPATH=src python3 scripts/same_outputs.py --baseline HEAD
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ALGOS = ("am", "misi", "mix_incons", "mix_incons_hardmag", "incons_hardmix", "mag_incons_hardmix",
         "mixture_proj", "stft_proj", "pu_iter", "griffin_lim")
TRANSFORMS = ((16, 4), (25, 5), (48, 8), (64, 16), (1024, 256))  # window, hop


def produce(out: Path) -> None:
    """Write every compared file under ``out``, with the specinv that ``sys.path`` finds."""
    from specinv import StftConfig, g_operator, istft, stft
    from specinv.cli import main
    from specinv.signal_io import oracle_magnitudes, read_wav, write_spectrogram
    from specinv.synth import generate_dataset

    def cli(*argv) -> None:
        if main([str(a) for a in argv]) != 0:
            sys.exit(f"specinv {' '.join(map(str, argv))} failed")

    data = generate_dataset(out / "data", n_validation=2, n_test=2, seed=0).parent
    for suffix, extra in ("", {}), ("_3", {"max_iterations": 3, "jobs": 1}):
        config = data / f"config{suffix}.json"
        config.write_text(json.dumps({"manifest": "manifest.json", "output_dir": f"results{suffix}",
                                      "record_timing": False, **extra}))
        cli("benchmark", "--config", config)
    clean = data / "validation" / "clean_00.wav"
    cli("mix", "--clean", clean, "--noise", data / "validation" / "noise_00.wav", "--isnr", 0, "--out", out / "mix")
    mags = oracle_magnitudes([read_wav(clean), read_wav(out / "mix" / "scaled_noise.wav")], StftConfig())
    for j, mag in enumerate(mags, start=1):
        write_spectrogram(out / "mix" / f"s{j}.spgm", mag)
    for algo in ALGOS:
        for sigma in ("0", "1"):
            cli("separate", "--mixture", out / "mix" / "mixture.wav", "--mags", *sorted((out / "mix").glob("s*.spgm")),
                "--algo", algo, "--sigma", sigma, "--out", out / "separate" / f"{algo}_{sigma}")
    (out / "transforms").mkdir()
    for window, hop in TRANSFORMS:
        cfg = StftConfig(window_length=window, hop=hop, sample_rate=8000)
        for n in (1, hop, 333):
            rng = np.random.default_rng([window, hop, n])
            shape = (3, cfg.n_bins, cfg.num_frames(n))
            spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            results = {"stft": stft(rng.standard_normal(n), cfg), "istft": istft(spec[0], cfg, n),
                       "g_operator": g_operator(spec, cfg)}
            for name, result in results.items():  # C order: a layout change alone changes no file
                np.save(out / "transforms" / f"{window}_{hop}_{n}_{name}.npy", np.ascontiguousarray(result))


def run_produce(src: Path, out: Path) -> None:
    """``produce`` into ``out`` in a subprocess with the specinv in ``src``."""
    proc = subprocess.run([sys.executable, __file__, "--produce", str(out)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"the run with {src} failed:\n{proc.stderr}")


def _numbers(path: Path) -> np.ndarray:
    from specinv.signal_io import read_wav  # the working tree's reader, for both sides

    return np.asarray(read_wav(path).samples if path.suffix == ".wav" else np.load(path)) + 0.0  # ints to float


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _ratio(num, den) -> float:
    return float(num / den) if den else (float("inf") if num else 0.0)


def how_far(base: Path, change: Path) -> dict | None:
    """How far ``change`` is from ``base``: for a ``.npy`` or WAV file the count of differing entries
    and the largest difference over the baseline's largest |entry|; for ``trace.csv``, per loss
    column, the largest difference relative to its entry and to the column's largest |entry|; for
    another CSV the largest |change in ``sdr_db``| over the rows whose other fields, but
    ``wall_ms``, match.  None for any other file."""
    if base.suffix in (".npy", ".wav"):
        a, b = _numbers(base), _numbers(change)
        if a.shape != b.shape:
            return {"shapes": [a.shape, b.shape]}
        return {"entries": int(np.count_nonzero(a != b)),
                "max_rel": _ratio(np.max(np.abs(b - a), initial=0.0), np.max(np.abs(a), initial=0.0))}
    if base.name == "trace.csv":
        a, b = _rows(base), _rows(change)
        if len(a) != len(b):
            return {"rows": [len(a), len(b)]}
        out = {}
        for col in [col for col in (a[0] if a else ()) if col != "iteration"]:
            x, y = (np.array([float(row[col]) for row in rows]) for rows in (a, b))
            diff = np.abs(y - x)
            out[col] = {"max_rel_entry": max(map(_ratio, diff, np.abs(x))),
                        "max_rel_column": _ratio(diff.max(), np.abs(x).max())}
        return out
    if base.suffix == ".csv":
        sdr = [{tuple(v for k, v in row.items() if k not in ("sdr_db", "wall_ms")): float(row["sdr_db"])
                for row in _rows(p)} for p in (base, change)]
        matched = sdr[0].keys() & sdr[1].keys()
        return {"matched_rows": len(matched),
                "max_abs_sdr_db": max((abs(sdr[1][k] - sdr[0][k]) for k in matched), default=0.0)}
    return None


def compare(base: Path, change: Path) -> dict:
    """The report on two trees that ``produce`` wrote: each file by SHA-256, and how far each that differs."""
    b, c = ({str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()} for out in (base, change))
    return {
        "files": len(b.keys() | c.keys()),
        "identical": sum(b[f] == c.get(f) for f in b),
        "differ": {f: how_far(base / f, change / f) for f in sorted(b.keys() & c.keys()) if b[f] != c[f]},
        "baseline_only": sorted(b.keys() - c.keys()),
        "change_only": sorted(c.keys() - b.keys()),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", metavar="REV", help="the commit to compare the working tree with")
    parser.add_argument("--produce", type=Path, help=argparse.SUPPRESS)  # internal: write one tree's files here
    args = parser.parse_args()
    if args.produce is not None:
        produce(args.produce)
        return
    if args.baseline is None:
        parser.error("--baseline is required")
    from bench import export  # imports specinv, as bench.py does

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sha = export(args.baseline, tmp / "baseline")
        run_produce(tmp / "baseline" / "src", tmp / "baseline_out")
        run_produce(ROOT / "src", tmp / "change_out")
        report = {"baseline": {"rev": args.baseline, "sha": sha}, **compare(tmp / "baseline_out", tmp / "change_out")}
    print(json.dumps(report, indent=2))
    sys.exit(1 if report["identical"] != report["files"] else 0)


if __name__ == "__main__":
    main()
