import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specinv import StftConfig, g_operator, istft, spectral, stft
from specinv.spectral import tf_layout
from specinv.losses import inconsistency

from conftest import random_phase


def naive_stft(x, cfg):
    """Independent oracle: matrix DFT applied to each windowed frame."""
    x = np.asarray(x, float)
    n_frames = cfg.num_frames(x.size)
    total = (n_frames - 1) * cfg.hop + cfg.window_length
    buf = np.zeros(total)
    buf[cfg.pad : cfg.pad + x.size] = x
    n = np.arange(cfg.window_length)
    f = np.arange(cfg.n_bins)
    dft = np.exp(-2j * np.pi * np.outer(f, n) / cfg.window_length)
    out = np.zeros((cfg.n_bins, n_frames), complex)
    for t in range(n_frames):
        frame = buf[t * cfg.hop : t * cfg.hop + cfg.window_length] * cfg.window
        out[:, t] = dft @ frame
    return out


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.window_length == 1024
        assert cfg.hop == 256
        assert cfg.n_bins == 513
        assert cfg.pad == 768

    def test_hop_must_divide_window(self):
        with pytest.raises(ValueError, match="divide"):
            StftConfig(window_length=1024, hop=300)

    def test_cola_holds_for_quarter_window_hops(self):
        for hop in (64, 128, 256):
            StftConfig(window_length=1024, hop=hop)

    def test_window_numpy_builds_empty_rejected(self):
        # np.arange(2**63) is empty: the config must not build with a 0-sample window.
        with pytest.raises(ValueError, match="window_length 9223372036854775808"):
            StftConfig(window_length=2**63, hop=16)

    def test_cola_fails_at_half_overlap(self):
        # Squared Hann does not overlap-add to a constant at 50% overlap.
        with pytest.raises(ValueError, match="COLA"):
            StftConfig(window_length=1024, hop=512)

    @pytest.mark.parametrize("window", [*range(1, 65), 100, 512, 1000, 1024])
    def test_cola_rule_is_the_overlap_add_and_reconstructs(self, window):
        x = np.random.default_rng(window).standard_normal(50)
        for hop in (h for h in range(1, window + 1) if window % h == 0):
            # The squared window's overlap-add over one period, its zeros left as they are.
            ola = (spectral.hann_periodic(window) ** 2).reshape(-1, hop).sum(axis=0)
            constant = ola.min() > 0 and np.ptp(ola) <= 1e-10 * ola.max()
            if window // hop < 3:
                # (2, 1) overlap-adds to a constant, but its window [0, 1] is of no use.
                assert constant == ((window, hop) == (2, 1)), hop
                with pytest.raises(ValueError, match="COLA"):
                    StftConfig(window_length=window, hop=hop)
                continue
            assert constant, hop
            cfg = StftConfig(window_length=window, hop=hop)
            assert np.max(np.abs(istft(stft(x, cfg), cfg, x.size) - x)) < 1e-12, hop


class TestStft:
    def test_zero_signal(self, full_cfg):
        spec = stft(np.zeros(4096), full_cfg)
        assert spec.shape[0] == 513
        assert np.all(spec == 0)

    def test_empty_signal_rejected(self, full_cfg):
        with pytest.raises(ValueError, match="empty input"):
            stft(np.array([]), full_cfg)

    def test_two_dimensional_signal_rejected(self, full_cfg):
        with pytest.raises(ValueError, match="signal must be one-dimensional"):
            stft(np.zeros((2, 4000)), full_cfg)

    def test_frame_count_formula(self, full_cfg):
        n = 16000
        t_expected = int(np.ceil((n + 2 * full_cfg.pad - 1024) / 256)) + 1
        assert stft(np.ones(n), full_cfg).shape[1] == t_expected

    def test_impulse_matches_naive_dft(self, small_cfg, rng):
        x = np.zeros(200)
        x[57] = 1.0
        fast = stft(x, small_cfg)
        slow = naive_stft(x, small_cfg)
        assert np.max(np.abs(fast - slow)) < 1e-10

    def test_random_signal_matches_naive_dft(self, small_cfg, rng):
        x = rng.standard_normal(300)
        assert np.max(np.abs(stft(x, small_cfg) - naive_stft(x, small_cfg))) < 1e-10

    def test_sinusoid_energy_concentrates_at_bin(self, full_cfg):
        k = 40
        n = 4096
        freq = k * full_cfg.sample_rate / full_cfg.window_length
        x = np.sin(2 * np.pi * freq * np.arange(n) / full_cfg.sample_rate)
        spec = naive_stft(x, full_cfg)
        energy = np.abs(spec) ** 2
        interior = range(4, spec.shape[1] - 4)
        for t in interior:
            total = energy[:, t].sum()
            near = energy[k - 1 : k + 2, t].sum()
            assert near >= 0.99 * total


class TestIstft:
    def test_round_trip(self, full_cfg, rng):
        x = rng.standard_normal(16000)
        y = istft(stft(x, full_cfg), full_cfg, 16000)
        assert np.max(np.abs(y - x)) < 1e-10

    def test_zero_spectrogram(self, full_cfg):
        spec = np.zeros((513, 66), complex)
        assert np.all(istft(spec, full_cfg, 16000) == 0)

    @pytest.mark.parametrize(("spec", "match"), [(np.zeros((512, 66), complex), "513 frequency bins"),
                                                  (np.zeros((2, 513, 66), complex), "513 frequency bins"),
                                                  (np.full((513, 66), np.inf, complex), "non-finite")],
                             ids=["bins", "three_dimensional", "inf"])
    def test_bad_spectrogram_rejected(self, full_cfg, spec, match):
        with pytest.raises(ValueError, match=match):
            istft(spec, full_cfg, 16000)

    def test_length_mismatch_rejected(self, full_cfg, rng):
        spec = stft(rng.standard_normal(16000), full_cfg)
        with pytest.raises(ValueError, match="length mismatch"):
            istft(spec, full_cfg, 32000)

    def test_random_phase_breaks_consistency(self, small_cfg, rng):
        for _ in range(10):
            spec = random_phase(rng, stft(rng.standard_normal(500), small_cfg))
            assert inconsistency(spec[None], small_cfg) > 0

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(min_value=1000, max_value=64000), seed=st.integers(0, 2**31))
    def test_round_trip_property(self, n, seed):
        cfg = StftConfig()
        x = np.random.default_rng(seed).standard_normal(n)
        y = istft(stft(x, cfg), cfg, n)
        assert np.max(np.abs(y - x)) < 1e-10 * max(1.0, np.max(np.abs(x)))


class TestGOperator:
    def test_identity_on_consistent(self, small_cfg, rng):
        spec = stft(rng.standard_normal(800), small_cfg)
        out = g_operator(spec, small_cfg)
        assert np.linalg.norm(out - spec) <= 1e-10 * np.linalg.norm(spec)

    def test_idempotent(self, small_cfg, rng):
        spec = random_phase(rng, stft(rng.standard_normal(800), small_cfg))
        once = g_operator(spec, small_cfg)
        twice = g_operator(once, small_cfg)
        assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(once)

    def test_linearity(self, small_cfg, rng):
        s1 = random_phase(rng, stft(rng.standard_normal(800), small_cfg))
        s2 = random_phase(rng, stft(rng.standard_normal(800), small_cfg))
        a, b = 0.7, -1.3
        lhs = g_operator(a * s1 + b * s2, small_cfg)
        rhs = a * g_operator(s1, small_cfg) + b * g_operator(s2, small_cfg)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)

    def test_projection_is_closest_consistent(self, small_cfg, rng):
        spec = random_phase(rng, stft(rng.standard_normal(800), small_cfg))
        dist = np.linalg.norm(spec - g_operator(spec, small_cfg))
        for _ in range(20):
            candidate = stft(rng.standard_normal(800), small_cfg)
            assert dist <= np.linalg.norm(spec - candidate)

    def test_residual_equals_inconsistency_loss(self, small_cfg, rng):
        spec = random_phase(rng, stft(rng.standard_normal(800), small_cfg))
        residual = np.sum(np.abs(spec - g_operator(spec, small_cfg)) ** 2)
        assert inconsistency(spec[None], small_cfg) == pytest.approx(residual, rel=1e-12)


class TestBatchedGOperator:
    @pytest.mark.parametrize("n_sources", [1, 2, 3])
    @pytest.mark.parametrize("cfg", [StftConfig(window_length=64, hop=16, sample_rate=8000),
                                     StftConfig(window_length=48, hop=8, sample_rate=8000)])
    def test_source_set_equals_per_source_bit_for_bit(self, cfg, n_sources, rng):
        specs = np.stack([random_phase(rng, stft(rng.standard_normal(500), cfg)) for _ in range(n_sources)])
        specs[0, 4, :] = 0.0
        joint = g_operator(specs, cfg)
        assert joint.shape == specs.shape
        for j in range(n_sources):
            solo = g_operator(specs[j], cfg)
            assert np.array_equal(np.ascontiguousarray(joint[j]).view(np.uint64),
                                  np.ascontiguousarray(solo).view(np.uint64))
        # The input's memory layout does not change the result.
        c_order = g_operator(np.ascontiguousarray(specs), cfg)
        assert np.array_equal(np.ascontiguousarray(c_order).view(np.uint64),
                              np.ascontiguousarray(joint).view(np.uint64))

    def test_one_finiteness_check_unless_skipped(self, small_cfg, rng):
        specs = np.stack([stft(rng.standard_normal(500), small_cfg) for _ in range(2)])
        specs[1, 3, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            g_operator(specs, small_cfg)
        with np.errstate(invalid="ignore"):
            out = g_operator(specs, small_cfg, check_finite=False)
        assert np.all(np.isfinite(out[0])) and not np.all(np.isfinite(out[1]))

    @pytest.mark.parametrize("shape", [(33,), (2, 2, 33, 8), (32, 8), (2, 33, 3)])
    def test_rejects_bad_shapes(self, small_cfg, shape):
        with pytest.raises(ValueError):
            g_operator(np.zeros(shape, complex), small_cfg)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _ola_loop(cfg, n_frames):
    """The squared window overlap-added frame by frame over ``n_frames`` frames, in rows of ``hop``."""
    acc = np.zeros((n_frames + cfg.pad // cfg.hop, cfg.hop))
    sq = (cfg.window**2).reshape(-1, cfg.hop)
    for t in range(n_frames):
        acc[t : t + len(sq)] += sq
    return acc


class TestOverlapAddRow:
    """Only rows [h, T) of the overlap-add survive the iSTFT's crop, h = window/hop - 1.  Each holds
    every chunk of the squared window, added in the same order, so one row divides them all."""

    # TestThreadCountInvariance's configs, then the protocol's.  Added in ascending order, the chunks
    # give other bits at each of them but 16/4: the test pins the order too.
    @pytest.mark.parametrize("window,hop", [(16, 4), (24, 4), (25, 5), (64, 16), (48, 8), (1024, 256)])
    @pytest.mark.parametrize("extra", [0, 1, 2, 5, 40])
    def test_row_is_each_fully_covered_row_bit_for_bit(self, window, hop, extra):
        cfg = StftConfig(window_length=window, hop=hop, sample_rate=8000)
        n_frames = window // hop + extra
        rows = _ola_loop(cfg, n_frames)[cfg.pad // hop : n_frames]
        assert len(rows) == extra + 1 and cfg.ola.shape == (hop,) and not cfg.ola.flags.writeable
        assert np.array_equal(_bits(rows), np.broadcast_to(_bits(cfg.ola), rows.shape))

    def test_no_memory_kept_per_input_length(self, full_cfg):
        # The longest length goes first, so that each thread's transform scratch has its final size.
        lengths = [16000 + full_cfg.hop * k for k in range(64, -1, -1)]  # 65 frame counts
        x = np.random.default_rng(0).standard_normal(lengths[0])

        def transforms(n):
            spec = stft(x[:n], full_cfg)
            istft(spec, full_cfg, n)
            g_operator(spec, full_cfg)

        transforms(lengths[0])
        tracemalloc.start()
        try:
            for n in lengths[1:]:
                transforms(n)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # A cached overlap-add table per frame count would keep about 12 MiB over these lengths.
        assert kept < 1 << 20


class TestThreadCountInvariance:
    """Each thread's frame range recomputes its halo of overlapping frames,
    so no output may depend on the number of threads."""

    # The dense oracle's configs (window/hop 4, 6 and 5), then two more.
    @pytest.mark.parametrize("window,hop", [(16, 4), (24, 4), (25, 5), (64, 16), (48, 8)])
    # T = window/hop + extra frames: T = window/hop is the fewest that span a
    # sample, and every T up to window/hop + 5 is under 3 threads x halo
    # (halo = window/hop - 1 frames).
    @pytest.mark.parametrize("extra", [0, 1, 2, 5, 40])
    def test_bit_identical_at_1_2_3_threads(self, thread_budget, window, hop, extra):
        cfg = StftConfig(window_length=window, hop=hop, sample_rate=8000)
        n_frames = window // hop + extra
        n = cfg.max_samples(n_frames)
        rng = np.random.default_rng(n_frames)
        x = rng.standard_normal(n)
        specs = tf_layout(random_phase(rng, rng.uniform(0.1, 1.0, (3, cfg.n_bins, n_frames))))
        results = []
        for threads in (1, 2, 3):
            thread_budget(threads)
            bits = [_bits(stft(x, cfg)), _bits(istft(specs[0], cfg, n))]
            for spec in (specs[0], specs[:1], specs[:2], specs):  # J = 1 (one F x T), 1, 2, 3
                signals = []
                bits.append(_bits(g_operator(spec, cfg, _signals=signals)))
                bits.extend(_bits(s) for s in signals)
            results.append(bits)
        assert stft(x, cfg).shape[1] == n_frames and len(results[0]) == 2 + 4 + 1 + 1 + 2 + 3
        for bits in results[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(bits, results[0], strict=True))

    def test_concurrent_callers_keep_their_own_scratch(self, thread_budget, small_cfg, rng):
        # Each calling thread reuses its own scratch; callers that shared one would mix their frames.
        specs = [random_phase(rng, stft(rng.standard_normal(n), small_cfg)) for n in (300, 700, 1100)]
        expected = [_bits(g_operator(s, small_cfg)) for s in specs]
        thread_budget(2)
        results, interval = {}, sys.getswitchinterval()

        def call(i):
            results[i] = [_bits(g_operator(specs[i % 3], small_cfg)) for _ in range(30)]

        callers = [threading.Thread(target=call, args=(i,)) for i in range(6)]
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert all(np.array_equal(r, expected[i % 3]) for i in range(6) for r in results[i])

    def test_error_in_a_worker_range_reaches_the_caller(self, thread_budget, monkeypatch, small_cfg, rng):
        class RangeError(Exception):
            pass

        frame_range = spectral._frame_range
        ran_in = []

        def failing(*args):
            ran_in.append(threading.current_thread())
            if threading.current_thread() is not threading.main_thread():
                raise RangeError("worker range")
            return frame_range(*args)

        monkeypatch.setattr(spectral, "_frame_range", failing)
        thread_budget(2)
        with pytest.raises(RangeError, match="worker range"):
            g_operator(random_phase(rng, stft(rng.standard_normal(500), small_cfg)), small_cfg)
        assert len(ran_in) == 2 and threading.main_thread() in ran_in
