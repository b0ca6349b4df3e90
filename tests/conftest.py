import numpy as np
import pytest

from specinv import StftConfig, spectral, stft


@pytest.fixture
def small_cfg():
    """Fast STFT config for algorithm-level tests."""
    return StftConfig(window_length=64, hop=16, sample_rate=8000)


@pytest.fixture
def full_cfg():
    """The protocol config: Hann 1024, 75% overlap, 16 kHz."""
    return StftConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_sources(rng, cfg, n_sources=2, n_samples=800):
    """Random time signals and their (consistent) spectrograms."""
    signals = [rng.standard_normal(n_samples) for _ in range(n_sources)]
    specs = np.stack([stft(s, cfg) for s in signals])
    return signals, specs


def random_phase(rng, spec):
    """Scramble phases, keeping magnitudes; generically inconsistent."""
    return np.abs(spec) * np.exp(1j * rng.uniform(0, 2 * np.pi, spec.shape))


@pytest.fixture
def thread_budget():
    """``spectral._set_threads``, with the budget restored after the test."""
    before = spectral._threads
    yield spectral._set_threads
    spectral._set_threads(before)
