"""What ``run`` hands ``on_iterate``, and how the sweep scores it.

``run`` observes each iterate k once, in order, after computing G(S_k) where
it needs one, and passes the overlap-added time signals of that G.  The
sweep scores an iterate from those signals instead of an ``istft`` probe, so
they must equal the probe bit for bit, and be None exactly where ``run``
computed no G(S_k).  ``RunTrace.signals`` keeps the last iterate's, which
``specinv separate`` writes as its WAVs.
"""

import numpy as np
import pytest

from specinv import algorithms, experiment
from specinv.algorithms import RULES, SIGMA_INF, AlgorithmSpec, Family, run
from specinv.experiment import SweepConfig
from specinv.spectral import StftConfig, istft, stft
from specinv.synth import generate_dataset

CFG = StftConfig(window_length=64, hop=16, sample_rate=8000)
ITERATIONS = 3


def _problem(n_sources):
    rng = np.random.default_rng(20 + n_sources)
    signals = [rng.standard_normal(600) for _ in range(n_sources)]
    mixture = stft(sum(signals), CFG)
    mags = np.stack([np.abs(stft(s, CFG)) for s in signals])
    mags *= np.exp(0.3 * rng.standard_normal(mags.shape))
    return mixture, mags


def _step_applies_g(family, sigma):
    return hasattr(algorithms, f"step_{family.value}") and (sigma != 0.0 or not RULES[family].sigma_enters)


@pytest.mark.parametrize("n_sources", (1, 2, 3))
@pytest.mark.parametrize("record_losses", (True, False), ids=("losses", "nolosses"))
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_signals_are_the_istft_of_each_iterate(family, record_losses, n_sources):
    mixture, mags = _problem(n_sources)
    n_samples = CFG.max_samples(mixture.shape[1])
    for sigma in (0.0, 1.0, SIGMA_INF):
        seen = []

        def observe(k, sources, signals, seconds):
            probes = [istft(s, CFG, n_samples) for s in sources]
            seen.append((k, probes, signals))

        spec = AlgorithmSpec(family, sigma, iterations=ITERATIONS)
        trace = run(spec, mixture, mags, CFG, on_iterate=observe, record_losses=record_losses)
        n = trace.iterations
        assert [k for k, _, _ in seen] == list(range(n + 1))
        # The trace keeps G(S_n)'s signals, which run computes when it records the losses, observed or not.
        unobserved = run(spec, mixture, mags, CFG, record_losses=record_losses)
        for kept in (trace.signals, unobserved.signals):
            if not record_losses:
                assert kept is None, sigma
                continue
            assert len(kept) == n_sources
            for got, want in zip(kept, seen[-1][1]):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), sigma
        for k, probes, signals in seen:
            if not (record_losses or (k < n and _step_applies_g(family, sigma))):
                assert signals is None, (sigma, k)
                continue
            assert len(signals) == n_sources
            for got, want in zip(signals, probes):
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (sigma, k)


@pytest.fixture(scope="module")
def one_item(tmp_path_factory):
    root = tmp_path_factory.mktemp("observer")
    return generate_dataset(root, n_validation=1, n_test=1, seed=3, duration=0.25, noise_duration=0.5)


def test_default_sweep_task_probes_87_iterates(one_item, tmp_path, monkeypatch):
    # The default grid: 30 rows, 562 recorded iterates.  Only those without a
    # G from run are probed: am, the 20 iterates of each of the three sigma=0
    # rows, incons_hardmix's one, and the last iterate of the 25 other rows.
    calls = []
    real = experiment.istft

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "istft", counting)
    cfg = SweepConfig(manifest=str(one_item), output_dir=str(tmp_path), degradation_levels=[0.2],
                      record_timing=False, jobs=1)
    jobs = experiment._sweep_jobs(cfg)
    (task,) = experiment._build_tasks(cfg, "validation", jobs)
    records = experiment._process_item(task)
    assert len(jobs) == 30 and len(records) == 562
    assert len(calls) == 1 + 3 * 20 + 1 + 25

    # Probed at every iterate, the records are the same, SDRs bit for bit.
    real_run = algorithms.run

    def without_signals(spec, mixture, mags, cfg, on_iterate, record_losses):
        return real_run(spec, mixture, mags, cfg, on_iterate=lambda k, s, signals, secs: on_iterate(k, s, None, secs),
                        record_losses=record_losses)

    monkeypatch.setattr(algorithms, "run", without_signals)
    calls.clear()
    assert experiment._process_item(task) == records
    assert len(calls) == 562
