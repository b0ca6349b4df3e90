"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Every workload writes its inputs (WAV, SPGM and manifest files) from the
seed, then drives ``specinv`` only through ``specinv.cli.main`` or
``specinv.experiment.run_benchmark``.  Checks read the files each operation
wrote; they use numpy and scipy directly so that no checked value comes
from the code under test.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from specinv import cli, experiment, signal_io, synth
from specinv.spectral import StftConfig

SAMPLE_RATE = 16000
N_SOURCES = 2
DEGRADATION = 0.2
# The seed whose protocol outputs are recorded in ``expected/``.
DEFAULT_SEED = 0
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
# Validation SDRs may move this much from the recorded ones: loose enough for
# a reordered or float32 kernel, tight enough to catch a changed algorithm.
SDR_TOL_DB = 1e-3
# A hard constraint holds when its final loss is below this share of the
# target magnitudes' energy; rounding leaves about 1e-30.
HARD_RTOL = 1e-20

# The separate rotation: (--algo, --sigma, --weights, which loss ends at 0).
# The one-step names (am, mixture_proj, stft_proj, incons_hardmix) are left
# out: at 5% of a 20-iteration call they would split the latency
# distribution in two, and the protocol workload runs them.
ROTATION = [
    ("misi", "0", "uniform", "h"),
    ("mix_incons", "1", "magratio", None),
    ("mix_incons_hardmag", "1", "magratio", "m"),
    ("pu_iter", "0", "magratio", "m"),
    ("griffin_lim", "0", "magratio", "m"),
    ("mag_incons_hardmix", "1", "uniform", "h"),
]


def sub_seeds(seed: int, *path: int, n: int = 1) -> list[int]:
    """Independent integer seeds derived from the run seed and a path."""
    return [int(s) for s in np.random.SeedSequence([seed, *path]).generate_state(n)]


def speech_sdr(reference: np.ndarray, estimate: np.ndarray) -> float:
    err = np.linalg.norm(reference - estimate)
    return float(20.0 * np.log10(np.linalg.norm(reference) / err))


@dataclass
class Outcome:
    ok: bool
    sdr_db: float = math.nan
    reason: str = ""


@dataclass
class Clip:
    path: Path
    clean: np.ndarray
    mag_energy: float


@dataclass
class Separate:
    """``specinv separate`` calls rotating over ROTATION, one clip per call."""

    duration: float
    pool: int  # clips written at setup; calls cycle through them
    window: int = 1024
    hop: int = 256
    iterations: int = 20
    ops_per_pass = len(ROTATION)

    def __post_init__(self):
        self.cfg = StftConfig(window_length=self.window, hop=self.hop, sample_rate=SAMPLE_RATE)

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * SAMPLE_RATE))

    def source_shape(self) -> tuple[int, int, int]:
        return N_SOURCES, self.cfg.n_bins, self.cfg.num_frames(self.n_samples)

    def audio_s(self, i: int) -> float:
        return self.duration

    def generate(self, root: Path, seed: int) -> list[Clip]:
        clips = []
        for i in range(self.pool):
            s_clean, s_noise, s_mix, s_degrade = sub_seeds(seed, 1, i, n=4)
            clean = synth.speech_like(self.duration, SAMPLE_RATE, s_clean)
            noise = synth.noise_like(self.duration + 1.0, SAMPLE_RATE, s_noise)
            mix = signal_io.make_mixture(clean, noise, 0.0, s_mix)
            mags = signal_io.oracle_magnitudes([clean, mix.scaled_noise], self.cfg)
            mags = signal_io.degrade_magnitudes(mags, DEGRADATION, s_degrade)
            path = root / f"clip_{i:03d}"
            path.mkdir(parents=True)
            signal_io.write_wav(path / "mixture.wav", mix.mixture)
            for j in range(N_SOURCES):
                signal_io.write_spectrogram(path / f"mag_{j + 1}.spgm", mags[j])
            clips.append(Clip(path, clean.samples, float(np.sum(mags**2))))
        return clips

    def _argv(self, clip: Clip, algo, sigma, weights, iterations, out: Path):
        mags = [str(clip.path / f"mag_{j + 1}.spgm") for j in range(N_SOURCES)]
        return [
            "separate", "--mixture", str(clip.path / "mixture.wav"), "--mags", *mags,
            "--algo", algo, "--sigma", sigma, "--weights", weights,
            "--iters", str(iterations), "--window", str(self.window),
            "--hop", str(self.hop), "--out", str(out),
        ]

    def warm_up(self, clips: list[Clip], out: Path) -> None:
        algo, sigma, weights, _ = ROTATION[0]
        code = cli.main(self._argv(clips[0], algo, sigma, weights, 2, out))
        if code != 0:
            raise RuntimeError(f"warm-up call exited with {code}")

    def call(self, clips: list[Clip], i: int, out: Path) -> int:
        algo, sigma, weights, _ = ROTATION[i % len(ROTATION)]
        argv = self._argv(clips[i % len(clips)], algo, sigma, weights, self.iterations, out)
        return cli.main(argv)

    def check(self, clips: list[Clip], i: int, out: Path, seed: int) -> Outcome:
        clip = clips[i % len(clips)]
        hard = ROTATION[i % len(ROTATION)][3]
        estimates = []
        for j in range(N_SOURCES):
            path = out / f"est_{j + 1}.wav"
            if not path.exists():
                return Outcome(False, reason=f"{path.name} missing")
            _, samples = wavfile.read(path)
            if samples.shape != clip.clean.shape:
                return Outcome(False, reason=f"{path.name} has shape {samples.shape}")
            if not np.all(np.isfinite(samples)):
                return Outcome(False, reason=f"{path.name} is not finite")
            estimates.append(samples.astype(np.float64))
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.iterations + 1:
            return Outcome(False, reason=f"trace.csv has {len(rows)} rows")
        if hard is not None and not float(rows[-1][hard]) <= HARD_RTOL * clip.mag_energy:
            return Outcome(False, reason=f"final {hard} = {rows[-1][hard]} is not 0")
        return Outcome(True, speech_sdr(clip.clean, estimates[0]))


@dataclass
class Protocol:
    """``run_benchmark`` (sweep, select, test) on a 1 + 1 item manifest."""

    duration: float = 4.0
    window: int = 1024
    hop: int = 256
    iterations: int = 20
    ops_per_pass = 1

    @property
    def full_size(self) -> bool:
        return (self.duration, self.window, self.hop, self.iterations) == (4.0, 1024, 256, 20)

    def source_shape(self) -> tuple[int, int, int]:
        cfg = StftConfig(window_length=self.window, hop=self.hop, sample_rate=SAMPLE_RATE)
        return N_SOURCES, cfg.n_bins, cfg.num_frames(int(round(self.duration * SAMPLE_RATE)))

    def audio_s(self, i: int) -> float:
        return 2 * self.duration  # one validation item and one test item

    def generate(self, root: Path, seed: int) -> Path:
        (data_seed,) = sub_seeds(seed, 2)
        manifest = synth.generate_dataset(
            root, n_validation=1, n_test=1, seed=data_seed % 2**31,
            duration=self.duration, noise_duration=self.duration + 1.0,
            sample_rate=SAMPLE_RATE,
        )
        doc = json.loads(manifest.read_text())
        doc.update(window_length=self.window, hop=self.hop)
        manifest.write_text(json.dumps(doc, indent=2) + "\n")
        return manifest

    def _config(self, manifest: Path, out: Path, **overrides):
        fields = dict(
            manifest=str(manifest), output_dir=str(out), max_iterations=self.iterations,
            degradation_levels=[DEGRADATION], record_timing=False,
        )
        fields.update(overrides)
        return experiment.SweepConfig(**fields)

    def warm_up(self, manifest: Path, out: Path) -> None:
        experiment.run_benchmark(self._config(
            manifest, out, families=["am", "incons_hardmix"], sigma_grid=[0.0],
            max_iterations=1,
        ))

    def call(self, manifest: Path, i: int, out: Path) -> int:
        experiment.run_benchmark(self._config(manifest, out))
        return 0

    def check(self, manifest: Path, i: int, out: Path, seed: int) -> Outcome:
        try:
            validation = read_rows(out / "validation.csv")
            test = read_rows(out / "test.csv")
            selections = json.loads((out / "selections.json").read_text())
        except (OSError, ValueError) as exc:
            return Outcome(False, reason=str(exc))
        families = experiment.DEFAULT_FAMILIES
        if sorted(selections) != sorted(families):
            return Outcome(False, reason=f"selections cover {sorted(selections)}")
        if sorted(test) != sorted((f, s["sigma"], str(s["iterations"])) for f, s in selections.items()):
            return Outcome(False, reason="test rows do not match the selections")
        values = list(validation.values()) + list(test.values())
        if not validation or not all(math.isfinite(v) for v in values):
            return Outcome(False, reason="missing or non-finite SDR rows")
        sdr_db = float(np.mean(list(test.values())))
        if seed == DEFAULT_SEED and self.full_size:
            expected = json.loads((EXPECTED_DIR / "protocol_seed0.json").read_text())
            if selections != expected["selections"]:
                return Outcome(False, sdr_db, "selections differ from the recorded ones")
            want = {tuple(k.split(",")): v for k, v in expected["validation_sdr_db"].items()}
            if set(want) != set(validation):
                return Outcome(False, sdr_db, "validation rows differ from the recorded ones")
            worst = max(abs(validation[k] - want[k]) for k in want)
            if worst > SDR_TOL_DB:
                return Outcome(False, sdr_db, f"validation SDR moved by {worst:.3g} dB")
        return Outcome(True, sdr_db)


def read_rows(path: Path) -> dict[tuple[str, str, str], float]:
    """(algorithm, sigma, iterations) -> sdr_db of a one-item results CSV."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    keys = [(r["algorithm"], r["sigma"], r["iterations"]) for r in rows]
    if len(set(keys)) != len(keys):
        raise ValueError(f"{path.name} has repeated configurations")
    return {k: float(r["sdr_db"]) for k, r in zip(keys, rows)}


WORKLOADS = {
    "separate_4s": Separate(duration=4.0, pool=30),
    "separate_20s": Separate(duration=20.0, pool=6),
    "protocol": Protocol(),
}
