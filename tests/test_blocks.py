"""Frame blocks: the steps and the losses evaluated one block of frames at a time.

Apart from the consistency projection, every update and every loss acts bin
by bin, so the block width may change the order in which a loss is summed
and nothing else.  Each run is repeated with blocks of 1 frame, 7 frames
and one block spanning every frame: the estimates must agree bit for bit
and the losses to 1e-14 relative.
"""

import itertools

import numpy as np
import pytest

from specinv import algorithms, spectral
from specinv.algorithms import SIGMA_INF, AlgorithmSpec, Family, run
from specinv.projectors import p_cons
from specinv.spectral import StftConfig, frame_blocks, stft, tf_layout

CFG = StftConfig(window_length=64, hop=16, sample_rate=8000)  # 33 bins
N_SAMPLES = 600  # 41 frames: the last block of 7 is ragged
ITERATIONS = 4
WIDTHS = (1, 7)
LAYOUTS = {"c": np.ascontiguousarray, "tf": tf_layout}
LOSSES = ("mixing", "inconsistency", "magnitude")


def _problem(n_sources):
    rng = np.random.default_rng(10 + n_sources)
    signals = [rng.standard_normal(N_SAMPLES) for _ in range(n_sources)]
    mixture = stft(sum(signals), CFG)
    mags = np.stack([np.abs(stft(s, CFG)) for s in signals])
    mags *= np.exp(0.3 * rng.standard_normal(mags.shape))
    return mixture, mags


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _set_width(monkeypatch, shape, width):
    """Patch the block size so that blocks of ``shape`` are ``width`` frames wide."""
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", 16 * int(np.prod(shape[:-1])) * width)


def test_width_of_the_benchmark_source_set():
    # Two sources, 513 bins: floor(2**19 / (16 * 2 * 513)) = 31 frames.
    blocks = list(frame_blocks((2, 513, 100)))
    assert [(b.start, b.stop) for b in blocks] == [(0, 31), (31, 62), (62, 93), (93, 124)]
    assert [b.start for b in frame_blocks((513, 100))] == [0, 63]  # one spectrogram


@pytest.mark.parametrize("shape", [(1, 5, 11), (3, 4, 0), (10**6, 10**3, 3)])
def test_blocks_cover_every_frame_once_in_order(monkeypatch, shape):
    for width in (1, 7, 10**6):
        _set_width(monkeypatch, shape, width)
        frames = [t for b in frame_blocks(shape) for t in range(shape[-1])[b]]
        assert frames == list(range(shape[-1]))
    monkeypatch.setattr(spectral, "_BLOCK_BYTES", 1)  # below one frame: still one frame
    assert len(list(frame_blocks(shape))) == shape[-1]


@pytest.mark.parametrize("n_sources", (1, 2, 3))
@pytest.mark.parametrize("family", list(Family))
def test_blocked_run_matches_one_block(monkeypatch, family, n_sources):
    mixture, mags = _problem(n_sources)
    n_frames = mags.shape[-1]
    for sigma, scheme in itertools.product((0.0, 1.0, SIGMA_INF), ("uniform", "magratio")):
        spec = AlgorithmSpec(family, sigma, scheme, ITERATIONS)
        estimates = []
        for layout in LAYOUTS.values():
            traces = {}
            for width in (*WIDTHS, n_frames):
                _set_width(monkeypatch, mags.shape, width)
                assert len(list(frame_blocks(mags.shape))) == -(-n_frames // width)
                traces[width] = run(spec, layout(mixture), layout(mags), CFG)
            whole = traces.pop(n_frames)
            for width, trace in traces.items():
                assert np.array_equal(_bits(trace.estimates), _bits(whole.estimates)), (sigma, scheme, width)
                for name in LOSSES:
                    np.testing.assert_allclose(getattr(trace, name), getattr(whole, name), rtol=1e-14, atol=0)
            estimates.append(_bits(whole.estimates))
        assert np.array_equal(*estimates)  # C-order and (T, F)-order inputs


def test_step_writes_its_result_over_cons(monkeypatch):
    mixture, mags = _problem(2)
    _set_width(monkeypatch, mags.shape, 7)
    sources = algorithms.init_amplitude_mask(mixture, mags)
    cons = p_cons(sources, CFG)
    want = algorithms.step_misi.__wrapped__(sources, mixture, mags, 0.5, 0.0, cons.copy())
    out = algorithms.step_misi(sources, mixture, mags, 0.5, 0.0, cons)
    assert out is cons and np.array_equal(_bits(out), _bits(want))
    # Without a G the result is a new array in (J, T, F) memory.
    fresh = algorithms.step_mix_incons(sources, mixture, mags, 0.5, 0.0, None)
    assert fresh.transpose(0, 2, 1).flags.c_contiguous and not np.shares_memory(fresh, sources)


def test_step_checks_every_block(monkeypatch):
    mixture, mags = _problem(2)
    _set_width(monkeypatch, mags.shape, 7)
    sources = algorithms.init_amplitude_mask(mixture, mags)
    sources[1, 4, -1] = np.nan  # in the last, ragged block
    with pytest.raises(FloatingPointError, match="non-finite estimate produced"):
        algorithms.step_mix_incons(sources, mixture, mags, 0.5, 0.0, None)
