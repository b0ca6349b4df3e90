"""Command-line front door.

Thin adapters only: every numerical result comes from the library modules.
Exit codes: 0 success, 2 I/O or out-of-memory error or a dead worker
process, 3 usage/validation error (an ``OverflowError`` included), 4
numerical failure (an algorithm produced a non-finite estimate or loss).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import algorithms
from .algorithms import DEFAULT_MAX_ITERATIONS, RULES, SIGMA_INF, WEIGHT_SCHEMES, AlgorithmSpec, Family
from .experiment import load_sweep_config, parse_sigma, run_benchmark
from .metrics import sdr
from .signal_io import make_mixture, read_spectrogram, read_wav, write_wav
from .spectral import StftConfig, TimeSignal, stft

EXIT_OK = 0
EXIT_IO = 2
EXIT_USAGE = 3
EXIT_NUMERIC = 4

# --algo takes a family name, with its row's fixed iteration count, or one of
# these named special cases: (family, fixed sigma, fixed iterations or None).
ALGO_ALIASES = {
    "mixture_proj": (Family.MIX_INCONS, 0.0, 1),
    "stft_proj": (Family.MIX_INCONS, SIGMA_INF, 1),
    "pu_iter": (Family.MIX_INCONS_HARDMAG, 0.0, None),
    "griffin_lim": (Family.MIX_INCONS_HARDMAG, SIGMA_INF, None),
}
_ALGOS = {**{f.value: (f, None, RULES[f].fixed_iterations) for f in Family}, **ALGO_ALIASES}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value such as -1e3 is a number, not an option: argparse before
        # Python 3.13 reads only -N and -N.N as negative numbers.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="specinv", description="Spectrogram inversion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    mix = sub.add_parser("mix", help="mix clean speech with noise at a target iSNR")
    mix.add_argument("--clean", required=True)
    mix.add_argument("--noise", required=True)
    mix.add_argument("--isnr", type=float, required=True)
    mix.add_argument("--seed", type=int, default=0)
    mix.add_argument("--out", required=True)

    sep = sub.add_parser("separate", help="run a spectrogram-inversion algorithm")
    sep.add_argument("--mixture", required=True)
    sep.add_argument("--mags", nargs="+", required=True, help="SPGM magnitude files, one per source")
    sep.add_argument("--algo", required=True)
    sep.add_argument("--sigma", default="0")
    sep.add_argument("--iters", type=int, default=DEFAULT_MAX_ITERATIONS)
    sep.add_argument("--weights", choices=WEIGHT_SCHEMES, default=AlgorithmSpec.weight_scheme)
    sep.add_argument("--window", type=int, default=StftConfig.window_length)
    sep.add_argument("--hop", type=int, default=StftConfig.hop)
    sep.add_argument("--out", required=True)

    ev = sub.add_parser("evaluate", help="print the SDR between two WAV files")
    ev.add_argument("--ref", required=True)
    ev.add_argument("--est", required=True)

    bench = sub.add_parser("benchmark", help="run the sweep + test protocol")
    bench.add_argument("--config", required=True)
    bench.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes, >= 1 (default: the config's value; null there = one per usable CPU)",
    )
    return parser


def cmd_mix(args) -> int:
    clean = read_wav(args.clean)
    noise = read_wav(args.noise)
    result = make_mixture(clean, noise, args.isnr, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_wav(out / "mixture.wav", result.mixture)
    write_wav(out / "scaled_noise.wav", result.scaled_noise)
    sidecar = {
        "gain": result.gain,
        "offset": result.offset,
        "isnr_target_db": args.isnr,
        "isnr_achieved_db": result.achieved_isnr_db,
        "seed": args.seed,
    }
    (out / "mix.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    return EXIT_OK


def _resolve_algo(name: str, sigma_arg: str, iters: int):
    if name not in _ALGOS:
        raise UsageError(f"unknown algorithm {name!r}; valid names: {', '.join(sorted(_ALGOS))}")
    family, sigma, iterations = _ALGOS[name]
    sigma = parse_sigma(sigma_arg) if sigma is None else sigma
    return family, sigma, iters if iterations is None else iterations


def cmd_separate(args) -> int:
    mixture = read_wav(args.mixture)
    cfg = StftConfig(window_length=args.window, hop=args.hop, sample_rate=mixture.sample_rate)
    # Built in (J, T, F) memory, the layout of the mixture's STFT, so run
    # needs no second copy (10 MB less peak memory for two 20 s sources).
    mags = np.array([read_spectrogram(p).T for p in args.mags], dtype=np.float64).transpose(0, 2, 1)
    mixture_spec = stft(mixture.samples, cfg)
    family, sigma, iterations = _resolve_algo(args.algo, args.sigma, args.iters)
    trace = algorithms.run(AlgorithmSpec(family, sigma, args.weights, iterations), mixture_spec, mags, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for j, samples in enumerate(trace.signals, start=1):  # recording the losses, run computed G(S_n)
        write_wav(out / f"est_{j}.wav", TimeSignal(samples[: len(mixture)], mixture.sample_rate))
    losses = zip(trace.mixing, trace.inconsistency, trace.magnitude)
    lines = ["iteration,h,i,m"] + [f"{k},{h:.12e},{i:.12e},{m:.12e}" for k, (h, i, m) in enumerate(losses)]
    (out / "trace.csv").write_text("\n".join(lines) + "\n")
    for note in trace.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    ref = read_wav(args.ref)
    est = read_wav(args.est)
    if ref.sample_rate != est.sample_rate:
        raise ValueError(f"sample rates differ: reference {ref.sample_rate} Hz, estimate {est.sample_rate} Hz")
    print(f"{sdr(ref.samples, est.samples):.4f}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    cfg = load_sweep_config(args.config)
    if args.jobs is not None:
        cfg = dataclasses.replace(cfg, jobs=args.jobs)  # re-validates
    paths = run_benchmark(cfg)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return EXIT_OK


_COMMANDS = {
    "mix": cmd_mix,
    "separate": cmd_separate,
    "evaluate": cmd_evaluate,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, RuntimeError, MemoryError) as exc:  # a dead worker raises BrokenProcessPool, a RuntimeError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
