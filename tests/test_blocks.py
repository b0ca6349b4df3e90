"""Frame blocks: ``run`` evaluates the losses and the step one block of frames at a time.

Apart from the consistency projection, every update and every loss acts bin
by bin, so the block width may change the order in which a loss is summed
and nothing else.  Each run is repeated with blocks of 1 frame, 7 frames
and one block spanning every frame: the estimates must agree bit for bit
and the losses to 1e-14 relative.
"""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from specinv import algorithms, spectral
from specinv.algorithms import SIGMA_INF, AlgorithmSpec, Family, frame_blocks, run
from specinv.projectors import p_cons
from specinv.spectral import StftConfig, stft, tf_layout

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
    monkeypatch.setattr(algorithms, "_BLOCK_BYTES", 16 * int(np.prod(shape[:-1])) * width)


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
    monkeypatch.setattr(algorithms, "_BLOCK_BYTES", 1)  # below one frame: still one frame
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


def _spy_on_g(monkeypatch):
    """The list of every G array that ``run`` computes from now on."""
    made = []

    def g_operator(*args, **kwargs):
        made.append(spectral.g_operator(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(algorithms, "g_operator", g_operator)
    return made


def test_step_writes_its_result_over_cons(monkeypatch):
    mixture, mags = _problem(2)
    _set_width(monkeypatch, mags.shape, 7)
    made = _spy_on_g(monkeypatch)
    iterates = []
    run(AlgorithmSpec(Family.MISI, iterations=3), mixture, mags, CFG,
        on_iterate=lambda k, s, signals, seconds: iterates.append((s, s.copy(order="K"))))
    assert len(made) == 4  # G(S_0), G(S_1), G(S_2), and G(S_3) for the last loss record
    for k in (1, 2, 3):
        current, before = iterates[k][0], iterates[k - 1][1]
        assert current is made[k - 1]
        want = algorithms.step_misi(before, mixture, mags, 0.5, 0.0, p_cons(before, CFG))
        assert np.array_equal(_bits(current), _bits(want))


def test_sigma_0_row_without_losses_gets_fresh_arrays(monkeypatch):
    mixture, mags = _problem(2)
    _set_width(monkeypatch, mags.shape, 7)
    made = _spy_on_g(monkeypatch)
    iterates = []
    run(AlgorithmSpec(Family.MIX_INCONS, 0.0, "uniform", 3), mixture, mags, CFG,
        on_iterate=lambda k, s, signals, seconds: iterates.append(s), record_losses=False)
    assert made == []  # the formula at sigma=0 has no G
    for before, current in zip(iterates, iterates[1:]):
        assert current.transpose(0, 2, 1).flags.c_contiguous  # (J, T, F) memory
        assert not np.shares_memory(current, before)
        want = algorithms.step_mix_incons(before, mixture, mags, 0.5, 0.0, None)
        assert np.array_equal(_bits(current), _bits(want))


def _overflow_in_the_last_frame():
    """In-phase magnitudes of 1e308 at one bin of the last, ragged block of 7:
    the initialization is finite, the source sum there overflows."""
    mixture, mags = _problem(2)
    mags[:, 4, -1] = 1e308
    return mixture, mags


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_checks_every_block(monkeypatch):
    mixture, mags = _overflow_in_the_last_frame()
    _set_width(monkeypatch, mags.shape, 7)
    spec = AlgorithmSpec(Family.MIX_INCONS, 0.0, "uniform", 2)
    with pytest.raises(FloatingPointError, match="non-finite estimate produced"):
        run(spec, mixture, mags, CFG, record_losses=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_loss_record_checks_every_block(monkeypatch):
    mixture, mags = _overflow_in_the_last_frame()
    _set_width(monkeypatch, mags.shape, 7)
    spec = AlgorithmSpec(Family.MIX_INCONS, 0.0, "uniform", 2)
    with pytest.raises(FloatingPointError, match="non-finite loss at iterate 0"):
        run(spec, mixture, mags, CFG)


def _start_in(whole, block):
    """The frame of ``whole`` at which ``block``, a frame block of it, starts."""
    return next(t for t in range(whole.shape[-1]) if np.array_equal(whole[..., t], block[..., 0]))


def _ranges(n_blocks, threads):
    """The block ranges [a, b) of a pass at ``threads`` threads: ``spectral._fan_out``'s split."""
    parts = min(threads, n_blocks)
    return [(n_blocks * i // parts, n_blocks * (i + 1) // parts) for i in range(parts)]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=("nan", "+inf", "-inf"))
@pytest.mark.parametrize("frame", [0, 20, 40], ids=("first", "middle", "last"))
@pytest.mark.parametrize("part", ["real", "imag"])
def test_step_check_finds_each_non_finite_value(monkeypatch, thread_budget, value, frame, part):
    # Blocks of 7 over 41 frames: frame 0 is in the first, 20 in the third and
    # 40 in the ragged sixth.  One poisoned entry anywhere fails the check.
    # The step is handed blocks of S_0 (one iteration), which locate them.
    mixture, mags = _problem(2)
    _set_width(monkeypatch, mags.shape, 7)
    s0 = tf_layout(algorithms.init_amplitude_mask(mixture, mags))
    real_step = algorithms.step_misi
    stepped = []

    def poisoned(sources, *args):
        out = real_step(sources, *args)
        start = _start_in(s0, sources)
        stepped.append(start // 7)
        if start <= frame < start + out.shape[-1]:
            getattr(out[1, 3:4, frame - start], part)[...] = value
        return out

    monkeypatch.setattr(algorithms, "step_misi", poisoned)
    for threads in (1, 2):
        thread_budget(threads)
        stepped.clear()
        with pytest.raises(FloatingPointError, match="non-finite estimate produced"):
            run(AlgorithmSpec(Family.MISI, iterations=1), mixture, mags, CFG, record_losses=False)
        # Each range steps its blocks in frame order, up to and including the
        # poisoned one and none after it; one thread is one range.
        p = frame // 7
        want = [i for a, b in _ranges(6, threads) for i in range(a, p + 1 if a <= p < b else b)]
        assert sorted(stepped) == want, threads
        if threads == 1:
            assert stepped == want


@pytest.mark.parametrize("threads", (1, 2, 3))
@pytest.mark.parametrize("first", ("step", "loss"))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_first_non_finite_in_frame_order_is_raised(monkeypatch, thread_budget, threads, first):
    # One poisoned step result and one infinite loss, in the first block and
    # in the last, ragged one (the last range at any budget): whichever comes
    # first in frame order is raised, as one thread would find it.
    thread_budget(threads)
    mixture, mags = _problem(2)
    _set_width(monkeypatch, mags.shape, 7)
    s0 = tf_layout(algorithms.init_amplitude_mask(mixture, mags))
    step_frame, loss_frame = (0, 35) if first == "step" else (35, 0)
    real_step, real_loss = algorithms.step_misi, algorithms.mixing_error

    def step(sources, *args):
        out = real_step(sources, *args)
        if _start_in(s0, sources) == step_frame:
            out[0, 0, 0] = np.nan
        return out

    def loss(sources, mixture):
        return np.inf if _start_in(s0, sources) == loss_frame else real_loss(sources, mixture)

    monkeypatch.setattr(algorithms, "step_misi", step)
    monkeypatch.setattr(algorithms, "mixing_error", loss)
    message = "non-finite estimate produced" if first == "step" else "non-finite loss at iterate 0"
    with pytest.raises(FloatingPointError, match=message):
        run(AlgorithmSpec(Family.MISI, iterations=1), mixture, mags, CFG)


@pytest.mark.parametrize("threads", (1, 2, 3))
def test_total_that_overflows_while_every_block_is_finite(monkeypatch, thread_budget, threads):
    # Six blocks of 7 frames over 41, each with a mixing loss of 1e308: no
    # block's loss is non-finite, so only the total of the block sums is.
    thread_budget(threads)
    mixture, mags = _problem(2)
    _set_width(monkeypatch, mags.shape, 7)
    monkeypatch.setattr(algorithms, "mixing_error", lambda sources, mixture: 1e308)
    with pytest.raises(FloatingPointError, match="non-finite loss at iterate 0"):
        run(AlgorithmSpec(Family.MISI, iterations=1), mixture, mags, CFG)


@pytest.mark.parametrize("threads", (2, 3))
def test_step_that_calls_g_in_a_pool_thread(threads):
    # A pool thread's G must not queue ranges behind its own: with every pool
    # thread waiting, none would start.  A hang fails at the timeout.
    script = textwrap.dedent(f"""
        import numpy as np
        from specinv import algorithms, spectral
        from specinv.projectors import p_cons
        from tests.test_blocks import CFG, _problem

        spectral._set_threads({threads})
        mixture, mags = _problem(2)
        algorithms._BLOCK_BYTES = 16 * 2 * 33 * 7
        real_step = algorithms.step_misi
        algorithms.step_misi = lambda sources, *args: real_step(p_cons(sources, CFG), *args)
        trace = algorithms.run(algorithms.AlgorithmSpec("misi", iterations=2), mixture, mags, CFG)
        assert np.all(np.isfinite(trace.estimates))
    """)
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), str(root),
                                                                      os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def frequent_switches():
    """Threads switch every 10 us, inside the ranges too, so a lost update between them would show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("record_losses", (True, False))
@pytest.mark.parametrize("family", list(Family))
def test_run_same_at_1_and_2_threads(monkeypatch, thread_budget, frequent_switches, family, record_losses):
    # And at 3, more threads than a 2-CPU machine has: blocks of 7 over 41
    # frames make 6 blocks, the last ragged, in uneven ranges.  The observer's
    # signals must agree too.
    mixture, mags = _problem(2)
    _set_width(monkeypatch, mags.shape, 7)
    for sigma in (0.0, 1.0, SIGMA_INF):
        spec = AlgorithmSpec(family, sigma, "magratio", ITERATIONS)
        traces, observed = [], []
        for threads in (1, 2, 3):
            thread_budget(threads)
            seen = []
            observe = lambda k, s, signals, seconds: seen.append((k, signals and _bits(np.stack(signals)).tobytes()))
            traces.append(run(spec, mixture, mags, CFG, on_iterate=observe, record_losses=record_losses))
            observed.append(seen)
        one = traces[0]
        for other, seen in zip(traces[1:], observed[1:]):
            assert np.array_equal(_bits(one.estimates), _bits(other.estimates)), sigma
            for name in LOSSES:
                assert np.array_equal(_bits(getattr(one, name)), _bits(getattr(other, name))), (sigma, name)
            assert seen == observed[0], sigma
