#!/usr/bin/env python3
"""Check that the working tree writes the same output files as commit REV, byte for byte.

REV is exported with ``git archive`` (``bench.export``).  Each tree then runs in its own
subprocess, which imports specinv from that tree's ``src`` and uses only the public API and the
CLI, so older trees run too:

1. ``synth.generate_dataset`` writes a 2+2-item dataset (seed 0), and ``specinv benchmark`` runs
   the default grid and degradation levels on it with ``record_timing: false``;
2. ``specinv mix`` mixes the first validation item at 0 dB, and ``specinv separate`` runs each of
   the ten ``--algo`` names at sigma 0 and 1 (20 iterations) from its oracle magnitudes;
3. ``stft``, ``istft`` and ``g_operator`` (of a 3-source set) run on seeded random inputs at
   window/hop 16/4, 25/5, 48/8, 64/16 and 1024/256, each at 1, ``hop`` and 333 samples: the
   fewest frames, where the head and tail padding meet, and short, odd lengths, which steps 1
   and 2 (1024/256, 253 frames or more) never reach.  Each result is one ``.npy`` file.

Every file that the two runs write, 123 in all, is compared by SHA-256: the WAVs,
``manifest.json``, both CSVs and ``selections.json``; the mix and the magnitude files; each
``est_*.wav`` and ``trace.csv``; the 45 transform results.  The script prints one JSON report
and exits 1 if any file differs or exists on one side only.  It takes about a minute on a
2-vCPU machine.

    PYTHONPATH=src python3 scripts/same_outputs.py --baseline HEAD
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALGOS = ("am", "misi", "mix_incons", "mix_incons_hardmag", "incons_hardmix", "mag_incons_hardmix",
         "mixture_proj", "stft_proj", "pu_iter", "griffin_lim")
TRANSFORMS = ((16, 4), (25, 5), (48, 8), (64, 16), (1024, 256))  # window, hop


def produce(out: Path) -> None:
    """Write every compared file under ``out``, with the specinv that ``sys.path`` finds."""
    import numpy as np

    from specinv import StftConfig, g_operator, istft, stft
    from specinv.cli import main
    from specinv.signal_io import oracle_magnitudes, read_wav, write_spectrogram
    from specinv.synth import generate_dataset

    def cli(*argv) -> None:
        if main([str(a) for a in argv]) != 0:
            sys.exit(f"specinv {' '.join(map(str, argv))} failed")

    data = generate_dataset(out / "data", n_validation=2, n_test=2, seed=0).parent
    (data / "config.json").write_text(json.dumps({"manifest": "manifest.json", "output_dir": "results",
                                                  "record_timing": False}))
    cli("benchmark", "--config", data / "config.json")
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


def digests(src: Path, out: Path) -> dict[str, str]:
    """SHA-256 of each file that ``produce`` writes under ``out`` with the specinv in ``src``."""
    proc = subprocess.run([sys.executable, __file__, "--produce", str(out)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"the run with {src} failed:\n{proc.stderr}")
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


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
        base = digests(tmp / "baseline" / "src", tmp / "baseline_out")
        change = digests(ROOT / "src", tmp / "change_out")
    report = {
        "baseline": {"rev": args.baseline, "sha": sha},
        "files": len(base.keys() | change.keys()),
        "identical": sum(base[f] == change.get(f) for f in base),
        "differ": sorted(f for f in base.keys() & change.keys() if base[f] != change[f]),
        "baseline_only": sorted(base.keys() - change.keys()),
        "change_only": sorted(change.keys() - base.keys()),
    }
    print(json.dumps(report, indent=2))
    sys.exit(1 if report["identical"] != report["files"] else 0)


if __name__ == "__main__":
    main()
