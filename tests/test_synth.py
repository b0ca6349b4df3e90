"""``synth``'s block-parallel one-pole filter against ``scipy.signal.lfilter``, bit for bit."""

import numpy as np
import pytest
from scipy.signal import lfilter

from specinv import synth

GAIN = float(np.sqrt(1 - synth._POLE**2))
LENGTHS = [1, 2, synth._MIN_BLOCK - 1, synth._MIN_BLOCK, synth._MIN_BLOCK + 1, 80_000, 336_000]


def _lfilter(x, gain):
    return lfilter([gain], [1.0, -synth._POLE], x)


def _assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))  # -0.0 == 0.0 as floats


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", LENGTHS)
def test_one_pole_is_lfilter(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    _assert_same_bits(synth._one_pole(x, GAIN), _lfilter(x, GAIN))


def test_one_pole_with_zeros_of_both_signs():
    # Over a run of zeros the exact state sticks at a subnormal (0.92 y rounds back to y there), while a
    # block whose warm-up lies in the run stays at 0: those blocks are rerun.
    x = np.random.default_rng(3).standard_normal(20_000) * 1e-300
    x[2_000:5_000] = 0.0
    x[9_000:12_000] = -0.0
    _assert_same_bits(synth._one_pole(x, GAIN), _lfilter(x, GAIN))


@pytest.mark.parametrize("warmup", [0, 20])
@pytest.mark.parametrize("n", [synth._MIN_BLOCK + 1, 10_000, 80_000])
def test_short_warmup_reruns_blocks_serially(monkeypatch, n, warmup):
    # With no warm-up every block after the first starts from 0 instead of its nonzero exact state,
    # so each is rerun serially; with 20 steps (0.92**20 ~ 0.19) most are.
    monkeypatch.setattr(synth, "_WARMUP", warmup)
    x = np.random.default_rng(n).standard_normal(n)
    _assert_same_bits(synth._one_pole(x, GAIN), _lfilter(x, GAIN))


@pytest.mark.parametrize("seed", [0, 1, 7919])
@pytest.mark.parametrize("duration", [0.3, 5.0, 21.0])
def test_noise_like_is_the_lfilter_noise(monkeypatch, duration, seed):
    ours = synth.noise_like(duration, 16000, seed).samples
    monkeypatch.setattr(synth, "_one_pole", _lfilter)
    _assert_same_bits(ours, synth.noise_like(duration, 16000, seed).samples)


def test_noise_like_of_no_samples_raises():
    with pytest.raises(ValueError, match="zero-size array"):
        synth.noise_like(0.0, 16000, 0)
