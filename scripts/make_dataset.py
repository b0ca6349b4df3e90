#!/usr/bin/env python3
"""Generate the bundled synthetic two-source dataset (WAVs + manifest) and a
benchmark config next to it, so that

    python3 scripts/make_dataset.py data
    specinv benchmark --config data/config.json --jobs 4

runs the full protocol and writes its results under data/results.
"""

import argparse
import json
from pathlib import Path

from specinv.synth import generate_dataset


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir", type=Path, help="directory for WAVs, manifest.json and config.json")
    parser.add_argument("--validation", type=int, default=10, help="validation items")
    parser.add_argument("--test", type=int, default=10, help="test items")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--duration", type=float, default=4.0, help="clean clip seconds")
    parser.add_argument("--noise-duration", type=float, default=5.0)
    parser.add_argument("--sample-rate", type=int, default=16000)
    parser.add_argument("--isnr", type=float, default=0.0, help="target input SNR in dB")
    args = parser.parse_args()

    manifest = generate_dataset(
        args.out_dir,
        n_validation=args.validation,
        n_test=args.test,
        seed=args.seed,
        duration=args.duration,
        noise_duration=args.noise_duration,
        sample_rate=args.sample_rate,
        isnr_db=args.isnr,
    )
    config = manifest.with_name("config.json")  # paths in it are relative to the file itself
    config.write_text(json.dumps({"manifest": manifest.name, "output_dir": "results"}, indent=2) + "\n")
    print(f"wrote {manifest} and {config}")


if __name__ == "__main__":
    main()
