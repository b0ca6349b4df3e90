"""End-to-end acceptance suite.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (straight to the
terminal, bypassing capture) and then asserts, so a single run of this file
yields a ten-line scorecard.  Criteria 7, 8 and 10 share one full-scale
benchmark run via a session fixture; the remaining criteria use small STFT
configurations for speed.
"""

import csv
import sys
import time

import numpy as np
import pytest

from specinv.algorithms import (
    SIGMA_INF,
    AlgorithmSpec,
    Family,
    init_amplitude_mask,
    run,
    step_incons_hardmix,
    step_mag_incons_hardmix,
    step_mix_incons,
    step_mix_incons_hardmag,
)
from specinv.experiment import SweepConfig, run_benchmark
from specinv.losses import inconsistency, magnitude_mismatch, mixing_error
from specinv.projectors import (
    p_cons,
    p_mag,
    p_mix,
    unit_phasor,
    weights_magnitude_ratio,
    weights_uniform,
)
from specinv.spectral import StftConfig, g_operator, istft, stft
from specinv.synth import generate_dataset

FULL = StftConfig()  # 1024/256 @ 16 kHz
SMALL = StftConfig(window_length=256, hop=64, sample_rate=8000)


@pytest.fixture
def report(capfd):
    """Print one ACCEPTANCE scorecard line on the real terminal, then assert."""

    def emit(num: int, ok: bool, desc: str, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {num:2d}: {status} - {desc}"
        if detail:
            line += f" ({detail})"
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)
        assert ok, line

    return emit


def _random_sources(rng, cfg, n_sources=2, n_frames=40):
    shape = (n_sources, cfg.n_bins, n_frames)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_mixture(rng, cfg, n_samples):
    """Mixture spectrogram plus oracle magnitudes from two random signals."""
    a = rng.standard_normal(n_samples)
    b = rng.standard_normal(n_samples)
    mixture = stft(a + b, cfg)
    mags = np.stack([np.abs(stft(a, cfg)), np.abs(stft(b, cfg))])
    return mixture, mags


@pytest.fixture(scope="session")
def full_benchmark(tmp_path_factory):
    """Default-scale benchmark: 10+10 items, 4 s clips, full grid.

    Returns (elapsed seconds, validation rows as list of dicts).
    """
    root = tmp_path_factory.mktemp("bench")
    manifest = generate_dataset(root / "data", n_validation=10, n_test=10, seed=0)
    cfg = SweepConfig(manifest=str(manifest), output_dir=str(root / "out"))
    start = time.perf_counter()
    paths = run_benchmark(cfg)
    elapsed = time.perf_counter() - start
    with open(paths["validation"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    return elapsed, rows


def test_acceptance_01_perfect_reconstruction(report):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1000, 64001))
        x = rng.standard_normal(n) * float(rng.uniform(0.1, 10.0))
        err = np.max(np.abs(istft(stft(x, FULL), FULL, n) - x))
        worst = max(worst, err / max(1.0, np.max(np.abs(x))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(1, ok, "perfect reconstruction on 50 random signals",
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_02_projector_exactness(report):
    rng = np.random.default_rng(102)
    worst = {"h": 0.0, "i": 0.0, "m": 0.0}
    for _ in range(20):
        s = _random_sources(rng, SMALL)
        x = rng.standard_normal(s.shape[1:]) + 1j * rng.standard_normal(s.shape[1:])
        v = np.abs(_random_sources(rng, SMALL))
        w = weights_magnitude_ratio(v)
        worst["h"] = max(worst["h"],
                         mixing_error(p_mix(s, x, w), x) / np.sum(np.abs(x) ** 2))
        worst["i"] = max(worst["i"],
                         inconsistency(p_cons(s, SMALL), SMALL) / np.sum(np.abs(s) ** 2))
        worst["m"] = max(worst["m"],
                         magnitude_mismatch(p_mag(s, v), v) / np.sum(v**2))
    ok = worst["h"] < 1e-18 and worst["i"] < 1e-16 and worst["m"] < 1e-20
    report(2, ok, "each projector zeroes its own loss",
            f"h {worst['h']:.1e}, i {worst['i']:.1e}, m {worst['m']:.1e}")


def test_acceptance_03_consistency_projection_properties(report):
    rng = np.random.default_rng(103)
    ok = True
    detail = []
    for _ in range(5):
        s = _random_sources(rng, SMALL, n_sources=1)[0]
        g = g_operator(s, SMALL)
        idem = np.linalg.norm(g_operator(g, SMALL) - g) / np.linalg.norm(g)
        s2 = _random_sources(rng, SMALL, n_sources=1)[0]
        a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        lin = np.linalg.norm(
            g_operator(a * s + b * s2, SMALL) - (a * g + b * g_operator(s2, SMALL))
        ) / max(np.linalg.norm(a * g), 1e-30)
        ok = ok and idem < 1e-10 and lin < 1e-10
        dist = np.linalg.norm(s - g)
        n = SMALL.max_samples(s.shape[1])
        for _ in range(20):
            z = stft(rng.standard_normal(n), SMALL)
            if dist > np.linalg.norm(s - z):
                ok = False
                detail.append("random consistent matrix closer than G(S)")
    report(3, ok, "G is an idempotent linear least-squares projection",
            "; ".join(detail))


def test_acceptance_04_descent_suites(report):
    rng = np.random.default_rng(104)
    ok = True
    detail = []
    for trial in range(10):
        mixture, mags = _random_mixture(rng, SMALL, 4000)
        x_sq = np.sum(np.abs(mixture) ** 2)
        for sigma in (0.1, 1.0, 10.0):
            tr = run(AlgorithmSpec(family=Family.MIX_INCONS, sigma=sigma, iterations=20),
                     mixture, mags, SMALL)
            slack = 1e-9 * np.abs(tr.combined[:-1])
            if np.any(np.diff(tr.combined) > slack):
                ok = False
                detail.append(f"mix_incons sigma={sigma} not monotone")
            tr = run(AlgorithmSpec(family=Family.MAG_INCONS_HARDMIX, sigma=sigma,
                                   iterations=20), mixture, mags, SMALL)
            # The initialization is not mixing-feasible; descent and
            # conservativity hold from the first step onward.
            body = tr.combined[1:]
            if np.any(np.diff(body) > 1e-9 * np.abs(body[:-1])):
                ok = False
                detail.append(f"mag_incons_hardmix sigma={sigma} not monotone")
            if np.any(np.sqrt(tr.mixing[1:]) > 1e-10 * np.sqrt(x_sq)):
                ok = False
                detail.append("mag_incons_hardmix iterate not conservative")
        tr = run(AlgorithmSpec(family=Family.MIX_INCONS_HARDMAG, sigma=SIGMA_INF,
                               iterations=20), mixture, mags, SMALL)
        floor = 1e-15 * np.sum(mags**2)
        slack = 1e-9 * np.maximum(np.abs(tr.magnitude[:-1]), floor)
        if np.any(np.diff(tr.magnitude) > slack):
            ok = False
            detail.append("hard-magnitude sigma=inf magnitude loss not monotone")
    report(4, ok, "objective descent for the three provable families",
            "; ".join(sorted(set(detail))))


def test_acceptance_05_special_case_equivalences(report):
    rng = np.random.default_rng(105)
    ok = True
    detail = []

    def check(name, got, want):
        nonlocal ok
        err = np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30)
        if err > 1e-12:
            ok = False
            detail.append(f"{name}: {err:.1e}")

    for _ in range(5):
        mixture, mags = _random_mixture(rng, SMALL, 3000)
        s = _random_sources(rng, SMALL, n_frames=mixture.shape[1])
        w = weights_magnitude_ratio(mags)
        uni = weights_uniform(2, mixture.shape)
        check("mix_incons(0) = mixture projection",
              step_mix_incons(s, mixture, mags, w, 0.0, SMALL), p_mix(s, mixture, w))
        check("mix_incons(inf) = consistency projection",
              step_mix_incons(s, mixture, mags, w, SIGMA_INF, SMALL), p_cons(s, SMALL))
        check("hardmag(0) = phase update by mixture projection",
              step_mix_incons_hardmag(s, mixture, mags, w, 0.0, SMALL),
              p_mag(p_mix(s, mixture, w), mags))
        check("hardmag(inf) = per-source phase-from-magnitude iteration",
              step_mix_incons_hardmag(s, mixture, mags, w, SIGMA_INF, SMALL),
              p_mag(p_cons(s, SMALL), mags))
        check("incons_hardmix = mix o cons, uniform",
              step_incons_hardmix(s, mixture, mags, 0.5, 0.0, SMALL),
              p_mix(p_cons(s, SMALL), mixture, uni))
        # One hard-mixing magnitude step from the amplitude-mask start has a
        # closed form: adjusted magnitudes carrying the mixture's phase.
        init = init_amplitude_mask(mixture, mags)
        closed = (mags + 0.5 * (np.abs(mixture) - mags.sum(axis=0))[None]) \
            * unit_phasor(mixture)[None]
        check("mag_incons_hardmix(0), 1 step from mask init",
              step_mag_incons_hardmix(init, mixture, mags, 0.5, 0.0, SMALL), closed)
    report(5, ok, "six special-case identities at 1e-12", "; ".join(detail))


def test_acceptance_06_hard_mix_step_is_non_iterative(report):
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(10):
        mixture, mags = _random_mixture(rng, SMALL, 3000)
        s = _random_sources(rng, SMALL, n_frames=mixture.shape[1])
        once = step_incons_hardmix(s, mixture, mags, 0.5, 0.0, SMALL)
        twice = step_incons_hardmix(once, mixture, mags, 0.5, 0.0, SMALL)
        worst = max(worst, np.linalg.norm(twice - once) / np.linalg.norm(once))
    ok = worst < 1e-10
    report(6, ok, "consistency-under-hard-mixing converges in one step",
            f"max rel change {worst:.1e}")


def _mean_sdr(rows, **match):
    values = [float(r["sdr_db"]) for r in rows
              if all(r[k] == v for k, v in match.items())]
    assert values, f"no benchmark rows match {match}"
    return float(np.mean(values))


@pytest.mark.slow
def test_acceptance_07_misi_beats_amplitude_mask(full_benchmark, report):
    _, rows = full_benchmark
    am = _mean_sdr(rows, algorithm="am", degradation="0")
    misi = _mean_sdr(rows, algorithm="misi", degradation="0", iterations="20")
    margin = misi - am
    ok = margin >= 0.5
    report(7, ok, "20 phase-refinement iterations beat the masking baseline",
            f"MISI {misi:.2f} dB vs AM {am:.2f} dB, margin {margin:.2f} dB")


@pytest.mark.slow
def test_acceptance_08_soft_blend_peaks_at_interior_sigma(full_benchmark, report):
    _, rows = full_benchmark
    levels = sorted({r["degradation"] for r in rows})
    sigmas = sorted({r["sigma"] for r in rows if r["algorithm"] == "mix_incons"},
                    key=lambda s: float(s))
    interior_peak = []
    for level in levels:
        best = {}
        for sig in sigmas:
            per_iter = {}
            for r in rows:
                if (r["algorithm"] == "mix_incons" and r["sigma"] == sig
                        and r["degradation"] == level):
                    per_iter.setdefault(r["iterations"], []).append(float(r["sdr_db"]))
            assert per_iter, f"no rows for sigma={sig} level={level}"
            best[sig] = max(float(np.mean(v)) for v in per_iter.values())
        peak = max(best, key=best.get)
        if peak not in ("0", "inf"):
            interior_peak.append(f"level {level}: sigma={peak} ({best[peak]:.2f} dB)")
    ok = bool(interior_peak)
    report(8, ok, "soft mixing/consistency blend peaks at a finite nonzero sigma",
            "; ".join(interior_peak) if interior_peak else "all peaks at endpoints")


def test_acceptance_09_benchmark_determinism_across_workers(tmp_path, report):
    manifest = generate_dataset(tmp_path / "data", n_validation=2, n_test=2,
                                seed=5, duration=0.5, noise_duration=0.8)
    outputs = {}
    for jobs in (1, 2):
        cfg = SweepConfig(
            manifest=str(manifest),
            output_dir=str(tmp_path / f"out{jobs}"),
            sigma_grid=[0.0, 1.0, SIGMA_INF],
            max_iterations=3,
            degradation_levels=[0.0, 0.5],
            jobs=jobs,
            record_timing=False,
        )
        paths = run_benchmark(cfg)
        outputs[jobs] = (paths["validation"].read_bytes(), paths["test"].read_bytes())
    ok = outputs[1] == outputs[2]
    report(9, ok, "identical CSV bytes with 1 and 2 worker processes")


@pytest.mark.slow
def test_acceptance_10_default_benchmark_under_five_minutes(full_benchmark, report):
    elapsed, rows = full_benchmark
    ok = elapsed < 300.0 and len(rows) > 0
    report(10, ok, "full default benchmark wall time",
            f"{elapsed:.0f}s for {len(rows)} validation rows")
