"""Memory layout of source sets: logically J x F x T, in memory (J, T, F).

The producers emit that layout, ``run`` converts any other input once at
entry, and every iterate keeps it; the estimates do not depend on the
layout of the inputs.
"""

import numpy as np
import pytest

from specinv import algorithms, cli
from specinv.algorithms import SIGMA_INF, AlgorithmSpec, Family, run
from specinv.projectors import p_cons
from specinv.signal_io import (
    degrade_magnitudes,
    oracle_magnitudes,
    write_spectrogram,
    write_wav,
)
from specinv.spectral import StftConfig, TimeSignal, g_operator, stft, tf_layout

CFG = StftConfig(window_length=64, hop=16, sample_rate=8000)


def tf_ordered(a):
    """Whether the last two axes (F, T) lie in (T, F) memory, contiguously."""
    return a.swapaxes(-1, -2).flags.c_contiguous


def c_ordered(a):
    return np.ascontiguousarray(a)


def _signals(n_sources=2, n_samples=700, seed=0):
    rng = np.random.default_rng(seed)
    return [TimeSignal(rng.standard_normal(n_samples), CFG.sample_rate) for _ in range(n_sources)]


def _problem(n_sources=2):
    signals = _signals(n_sources)
    mixture = stft(sum(s.samples for s in signals), CFG)
    mags = degrade_magnitudes(oracle_magnitudes(signals, CFG), 0.3, seed=1)
    return mixture, mags


def test_producers_emit_tf_layout():
    signals = _signals(3)
    assert tf_ordered(stft(signals[0].samples, CFG))
    mags = oracle_magnitudes(signals, CFG)
    assert tf_ordered(mags)
    for level in (0.0, 0.3):
        assert tf_ordered(degrade_magnitudes(mags, level, seed=1))
        # A C-order input keeps its own layout, and the same random draws.
        c_mags = c_ordered(mags)
        assert degrade_magnitudes(c_mags, level, seed=1).flags.c_contiguous
        assert np.array_equal(degrade_magnitudes(c_mags, level, seed=1), degrade_magnitudes(mags, level, seed=1))


@pytest.mark.parametrize("layout", [c_ordered, tf_layout])
def test_g_and_p_cons_return_tf_layout(layout):
    mixture, mags = _problem(3)
    sources = layout(algorithms.init_amplitude_mask(mixture, mags))
    assert tf_ordered(g_operator(sources, CFG))
    assert tf_ordered(g_operator(sources[1], CFG))
    assert tf_ordered(p_cons(sources, CFG))


def test_tf_layout_copies_only_other_layouts():
    mixture, mags = _problem()
    assert np.shares_memory(tf_layout(mags), mags)
    c_mags = c_ordered(mags)
    converted = tf_layout(c_mags)
    assert tf_ordered(converted) and not np.shares_memory(converted, c_mags)
    assert np.array_equal(converted, mags)


@pytest.mark.parametrize(
    ("family", "sigma", "scheme"),
    [(Family.AM, 0.0, "magratio"), (Family.MISI, 0.0, "uniform"), (Family.MIX_INCONS, 1.0, "magratio"),
     (Family.MIX_INCONS, 0.0, "uniform"), (Family.MIX_INCONS_HARDMAG, 1.0, "uniform"),
     (Family.MIX_INCONS_HARDMAG, SIGMA_INF, "magratio"), (Family.INCONS_HARDMIX, 0.0, "uniform"),
     (Family.MAG_INCONS_HARDMIX, 1.0, "uniform"), (Family.MAG_INCONS_HARDMIX, 0.0, "uniform")],
)
def test_every_iterate_in_tf_layout_whatever_the_input_layout(family, sigma, scheme):
    mixture, mags = _problem()
    spec = AlgorithmSpec(family=family, sigma=sigma, weight_scheme=scheme, iterations=4)
    estimates = []
    for mix_in, mags_in in ((mixture, mags), (c_ordered(mixture), c_ordered(mags))):
        seen = []
        trace = run(spec, mix_in, mags_in, CFG, on_iterate=lambda k, s, signals, g_seconds: seen.append(tf_ordered(s)))
        assert seen and all(seen)
        assert tf_ordered(trace.estimates)
        estimates.append(np.ascontiguousarray(trace.estimates).view(np.uint64))
    assert np.array_equal(*estimates)


def test_cli_hands_run_tf_magnitudes(tmp_path, monkeypatch):
    signals = _signals()
    mix_path = tmp_path / "mixture.wav"
    write_wav(mix_path, TimeSignal(signals[0].samples + signals[1].samples, CFG.sample_rate))
    mags = oracle_magnitudes(signals, CFG)
    paths = []
    for j in range(2):
        paths.append(str(tmp_path / f"v{j}.spgm"))
        write_spectrogram(paths[-1], mags[j])
    seen = {}
    real_run = algorithms.run

    def spy(spec, mixture, mags, cfg, **kwargs):
        seen.update(mixture=tf_ordered(mixture), mags=tf_ordered(mags))
        return real_run(spec, mixture, mags, cfg, **kwargs)

    monkeypatch.setattr(algorithms, "run", spy)
    code = cli.main(["separate", "--mixture", str(mix_path), "--mags", *paths, "--algo", "misi",
                     "--iters", "2", "--window", "64", "--hop", "16", "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert seen == {"mixture": True, "mags": True}
