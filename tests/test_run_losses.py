"""``run``'s loss record against a naive reference, and its count of G calls.

``run`` takes iterate k's losses from the consistency projection that step
k+1 computes anyway.  The reference records the three public loss functions
from ``on_iterate`` instead, paying a fresh G at every iterate.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from specinv import algorithms, losses, projectors, spectral
from specinv.algorithms import SIGMA_INF, AlgorithmSpec, Family, run
from specinv.losses import inconsistency, magnitude_mismatch, mixing_error
from specinv.projectors import p_cons
from specinv.spectral import StftConfig, stft

CONFIGS = {
    "64/16": StftConfig(window_length=64, hop=16, sample_rate=8000),
    # Window 48, hop 8: 25 bins.  The id keeps the test names stable.
    "32/8/fft48": StftConfig(window_length=48, hop=8, sample_rate=8000),
}
GRID = list(itertools.product(
    (0.0, 0.1, 1.0, 10.0, SIGMA_INF),  # sigma
    ("uniform", "magratio"),  # weight scheme
    (0, 8),  # iterations
))


def _problem(cfg, n_sources):
    rng = np.random.default_rng(n_sources)
    signals = [rng.standard_normal(600) for _ in range(n_sources)]
    mixture = stft(sum(signals), cfg)
    mags = np.stack([np.abs(stft(s, cfg)) for s in signals])
    mags *= np.exp(0.3 * rng.standard_normal(mags.shape))  # degraded, as in the benchmark
    return mixture, mags


def _step_applies_g(family, sigma):
    if family is Family.AM:
        return False
    if family in (Family.MISI, Family.INCONS_HARDMIX):
        return True
    return sigma != 0.0  # at sigma=0 the soft families never touch P_cons


@pytest.fixture
def g_calls(monkeypatch):
    """Counter of the sources that ``g_operator`` transforms, at every binding.

    One call on a J x F x T source set counts J; one on an F x T
    spectrogram counts 1.  ``g_calls.calls`` counts the calls themselves.
    """
    count = SimpleNamespace(sources=0, calls=0)
    real = spectral.g_operator

    def counting(spec, cfg, **kwargs):
        count.calls += 1
        count.sources += np.shape(spec)[0] if np.ndim(spec) == 3 else 1
        return real(spec, cfg, **kwargs)

    for module in (algorithms, projectors, losses):
        monkeypatch.setattr(module, "g_operator", counting)
    return count


@pytest.mark.parametrize("cfg_name", list(CONFIGS))
@pytest.mark.parametrize("n_sources", [1, 2, 3])
@pytest.mark.parametrize("family", list(Family))
def test_recorded_losses_match_naive_reference(family, n_sources, cfg_name, g_calls):
    cfg = CONFIGS[cfg_name]
    mixture, mags = _problem(cfg, n_sources)
    for sigma, scheme, iterations in GRID:
        spec = AlgorithmSpec(family=family, sigma=sigma, weight_scheme=scheme, iterations=iterations)
        ref = []

        def naive(k, sources, signals, g_seconds):
            ref.append((mixing_error(sources, mixture), inconsistency(sources, cfg),
                        magnitude_mismatch(sources, mags)))

        g_calls.sources = 0
        trace = run(spec, mixture, mags, cfg, on_iterate=naive)
        n_iterates = trace.iterations + 1
        assert len(ref) == n_iterates
        # The reference pays one G (J transforms) per iterate.  So does run: a
        # step that applies G shares it with the loss record, and only the
        # last iterate, or a row whose step never applies G, pays its own.
        assert g_calls.sources - n_sources * n_iterates == n_sources * n_iterates

        h, i, m = (np.array(col) for col in zip(*ref))
        for got, want in ((trace.mixing, h), (trace.inconsistency, i), (trace.magnitude, m)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        if family is Family.MIX_INCONS and sigma != SIGMA_INF:
            np.testing.assert_allclose(trace.combined, h + sigma * i, rtol=1e-12, atol=0)
        elif family is Family.MAG_INCONS_HARDMIX and sigma != SIGMA_INF:
            np.testing.assert_allclose(trace.combined, m + sigma * i, rtol=1e-12, atol=0)
        else:
            assert trace.combined is None

        # Without losses, run does the steps' own work only.
        g_calls.sources = 0
        bare = run(spec, mixture, mags, cfg, record_losses=False)
        assert g_calls.sources == (n_sources * bare.iterations if _step_applies_g(family, sigma) else 0)
        assert bare.iterations == trace.iterations
        assert np.array_equal(bare.estimates, trace.estimates)
        assert bare.mixing.size == bare.inconsistency.size == bare.magnitude.size == 0


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_run_is_the_one_caller_of_g(family, monkeypatch):
    # Only run's own binding of G works; the checked copies in losses and
    # projectors raise, so run must hand every G to the step and the record.
    def refuse(*args, **kwargs):
        raise AssertionError("G computed outside run")

    monkeypatch.setattr(losses, "g_operator", refuse)
    monkeypatch.setattr(projectors, "g_operator", refuse)
    cfg = CONFIGS["64/16"]
    mixture, mags = _problem(cfg, 2)
    for sigma in (0.0, 1.0, SIGMA_INF):
        spec = AlgorithmSpec(family=family, sigma=sigma, iterations=3)
        trace = run(spec, mixture, mags, cfg, record_losses=True)
        assert trace.inconsistency.size == trace.iterations + 1


@pytest.mark.parametrize("n_sources", [1, 2, 3])
def test_p_cons_is_one_g_call_per_source_set(n_sources, g_calls):
    cfg = CONFIGS["32/8/fft48"]
    _, mags = _problem(cfg, n_sources)
    p_cons(mags.astype(complex), cfg)
    assert (g_calls.calls, g_calls.sources) == (1, n_sources)
