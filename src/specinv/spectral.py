"""STFT analysis/synthesis and the consistency operator.

The forward transform uses a periodic Hann window with centered zero-padding,
and the inverse is the weighted overlap-add least-squares synthesis (dual
window = analysis window divided by the squared-window overlap sum).  With
this pairing, ``g_operator`` (STFT followed by iSTFT) is a projection onto
the set of consistent spectrograms: orthogonal in the bin-weighted norm
(weight 1 at DC and Nyquist, 2 elsewhere: the two-sided spectrum seen from
the one-sided one), oblique in the plain one that ``losses.py`` uses.

Memory layout: a spectrogram is logically F x T, and in memory it is
(T, F), contiguous along the FFT axis.  ``stft`` returns the transposed view
of its frame-by-frame ``rfft``, and ``g_operator`` keeps that layout for an
F x T spectrogram and, per source, for a J x F x T source set (memory
(J, T, F)).  Other layouts are accepted everywhere; they are only slower.

Threads: ``stft``, ``istft``, ``g_operator`` and ``algorithms.run``'s block
pass split the frames, or frame blocks, into one contiguous range per usable
CPU (a sweep worker: its share), run by the calling thread and a pool
(``_fan_out``), as numpy releases the GIL in its FFTs and array loops.
Frame t spans signal rows [t, t + h] of ``hop`` samples, h = window/hop - 1,
so each transform range redoes a halo of h frames per side, and no output
depends, bit for bit, on the thread count.  Each thread, the caller's or the
pool's, keeps the scratch of the ranges it runs between calls, sized for the
largest range so far.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _set_threads(n: int) -> None:
    """Split each transform and block pass into ``n`` ranges: the calling thread's and a new pool's ``n - 1``."""
    global _threads, _pool
    _threads, _pool = n, ThreadPoolExecutor(max(1, n - 1), initializer=setattr, initargs=(_scratch, "in_pool", True))


_scratch = threading.local()
_set_threads(usable_cpus())
# The parent's pool threads are not in a forked child: a task sent to them would never run.
os.register_at_fork(after_in_child=lambda: _set_threads(_threads))


def hann_periodic(n: int) -> np.ndarray:
    """Periodic (DFT-even) Hann window of length ``n``."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass(frozen=True)
class StftConfig:
    """Parameters of the STFT pair.

    The FFT length is ``window_length``.  ``hop`` must divide
    ``window_length`` at least 3 times, which is when the squared-window
    overlap-add sum is constant over interior samples.  Signals are
    zero-padded by ``window_length - hop`` samples on both sides so every
    retained sample gets full window coverage.
    """

    window_length: int = 1024
    hop: int = 256
    sample_rate: int = 16000

    window: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.window_length < 1 or self.hop < 1:
            raise ValueError("window_length and hop must be positive")
        if self.window_length % self.hop != 0:
            raise ValueError("hop must divide window_length")
        # The squared periodic Hann window is 3/8 - cos(2 pi n/N)/2 + cos(4 pi n/N)/8: both cosines
        # cancel in its overlap-add over N/hop >= 3 shifts, the second not over 2 (but at N = 2).
        if self.window_length // self.hop < 3:
            raise ValueError("window does not satisfy the COLA condition (window_length / hop must be >= 3)")
        object.__setattr__(self, "window", hann_periodic(self.window_length))

    @property
    def pad(self) -> int:
        """Zero-padding applied at each end of the signal."""
        return self.window_length - self.hop

    @property
    def n_bins(self) -> int:
        return self.window_length // 2 + 1

    def num_frames(self, n_samples: int) -> int:
        """Frame count produced by ``stft`` for a signal of ``n_samples``."""
        if n_samples < 1:
            raise ValueError("empty input")
        span = n_samples + 2 * self.pad - self.window_length
        return int(np.ceil(span / self.hop)) + 1

    def max_samples(self, n_frames: int) -> int:
        """Largest signal length mapping to ``n_frames`` frames."""
        return (n_frames + 1) * self.hop - self.window_length


@dataclass(frozen=True)
class TimeSignal:
    """A real time-domain signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("signal must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ValueError("signal contains non-finite samples")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.size


def tf_layout(a: np.ndarray) -> np.ndarray:
    """``a`` with its last two axes (F, T) in (T, F) memory; no copy if already so."""
    return np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)


def _frame_range(cfg, ola, spec, buf, out, signals, a, b):
    """Frames [a, b) of every source, from rows [a, b + h) of its padded signal: overlap-added
    from ``spec`` (J, T, F), or read from ``buf`` (J, T + h, hop).  Writes rows [h, T) to
    ``signals`` (J, T - h, hop) and the frames' ``rfft`` to ``out`` (J, T, F), where not None.
    Its scratch is the running thread's, kept between calls: new buffers would cost a page
    fault per page per call."""
    ratio, h, n_frames = cfg.window_length // cfg.hop, cfg.pad // cfg.hop, len(ola) - cfg.pad // cfg.hop
    lo, most = max(0, a - h), b - a + 2 * h  # the most frames, or signal rows, that the range needs
    if getattr(_scratch, "buf", np.empty(0)).size < (size := most * (cfg.window_length + cfg.hop)):
        _scratch.buf = np.empty(size)
    frames, acc = (x.reshape(most, -1) for x in np.split(_scratch.buf[:size], [most * cfg.window_length]))
    frames, acc = frames[: min(n_frames, b + h) - lo], acc[: b - a + h]
    for j in range(len(spec if buf is None else buf)):
        if buf is None:
            chunks = np.fft.irfft(spec[j, lo : b + h], n=cfg.window_length, axis=1, out=frames)
            chunks *= cfg.window
            chunks = chunks.reshape(-1, ratio, cfg.hop)
            acc.fill(0.0)
            for c in range(ratio):  # chunk c of frame t lands on row t + c
                t0, t1 = max(lo, a - c), min(n_frames, b + h - c)
                acc[t0 + c - a : t1 + c - a] += chunks[t0 - lo : t1 - lo, c]
            acc /= ola[a : b + h]
            # Zeroing the padding is the iSTFT's crop and the STFT's re-pad.
            acc[: max(0, h - a)] = 0.0
            acc[n_frames - a :] = 0.0
        rows = acc if buf is None else buf[j, a : b + h]
        if signals is not None and b > h:
            signals[j, max(0, a - h) : b - h] = rows[max(0, h - a) : b - a]
        if out is not None:
            windows = sliding_window_view(rows.reshape(-1), cfg.window_length)[:: cfg.hop]
            np.fft.rfft(np.multiply(windows, cfg.window, out=frames[: b - a]), axis=1, out=out[j, a:b])


def _fan_out(fn, n: int) -> list:
    """``fn(a, b)`` for each of ``min(_threads, n)`` contiguous ranges [a, b) of ``range(n)``, the first
    here and the others in the pool; the results, or the first exception, in range order.  A pool
    thread runs every range itself: a task it queued behind its caller's ranges would never start."""
    parts = max(1, min(_threads, n))
    ranges = [(n * i // parts, n * (i + 1) // parts) for i in range(parts)]
    here = parts if getattr(_scratch, "in_pool", False) else 1
    futures = [_pool.submit(fn, *r) for r in ranges[here:]]
    try:
        results = [fn(*r) for r in ranges[:here]]
    finally:
        wait(futures)
    return results + [future.result() for future in futures]


def stft(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """One-sided STFT, returned as an F x T complex matrix in (T, F) memory."""
    x = TimeSignal(x).samples
    n_frames = cfg.num_frames(x.size)
    buf = np.zeros((1, n_frames + cfg.pad // cfg.hop, cfg.hop))
    buf.reshape(-1)[cfg.pad : cfg.pad + x.size] = x
    out = np.empty((1, n_frames, cfg.n_bins), dtype=np.complex128)
    _fan_out(partial(_frame_range, cfg, _ola_window_sq(cfg, n_frames), None, buf, out, None), n_frames)
    return out[0].T


@lru_cache(maxsize=64)
def _ola_window_sq(cfg: StftConfig, n_frames: int) -> np.ndarray:
    """Overlap-add of the squared window over ``n_frames`` frames, in rows of ``hop``; 1 where it is 0."""
    acc = np.zeros((n_frames + cfg.pad // cfg.hop, cfg.hop))
    sq = (cfg.window**2).reshape(-1, cfg.hop)
    for t in range(n_frames):
        acc[t : t + len(sq)] += sq
    acc[acc <= 1e-300] = 1.0
    acc.setflags(write=False)
    return acc


def istft(spec: np.ndarray, cfg: StftConfig, out_len: int) -> np.ndarray:
    """Least-squares (WOLA) inverse STFT, cropped to ``out_len`` samples."""
    spec = np.asarray(spec, dtype=np.complex128)
    if spec.ndim != 2 or spec.shape[0] != cfg.n_bins:
        raise ValueError(f"expected {cfg.n_bins} frequency bins, got shape {spec.shape}")
    if not np.all(np.isfinite(spec)):
        raise ValueError("spectrogram contains non-finite entries")
    if cfg.num_frames(out_len) != spec.shape[1]:
        raise ValueError("length mismatch")
    signal = np.empty((1, spec.shape[1] - cfg.pad // cfg.hop, cfg.hop))
    _fan_out(partial(_frame_range, cfg, _ola_window_sq(cfg, spec.shape[1]), spec.T[None], None, None, signal),
             spec.shape[1])
    return signal.reshape(-1)[:out_len]


def g_operator(spec: np.ndarray, cfg: StftConfig, *, check_finite: bool = True, _signals=None) -> np.ndarray:
    """Consistency operator: STFT of the iSTFT of each spectrogram.

    ``spec`` is one F x T spectrogram or a J x F x T source set; each source
    is transformed on its own, into one preallocated result of ``spec``'s
    shape in (T, F) (per source) memory.  The result is the STFT of some
    time signal by construction; applying the operator twice gives the same
    result as applying it once.  ``check_finite=False`` skips the one scan
    for non-finite entries, for callers that have checked the input
    already; a non-finite input then gives a non-finite result.

    ``_signals``, for ``algorithms.run``: a list to which each source's
    overlap-added signal is appended, cropped to the ``cfg.max_samples(T)``
    samples the frames span: ``istft(source, cfg, max_samples(T))`` bit for bit.
    """
    spec = np.asarray(spec, dtype=np.complex128)
    if spec.ndim not in (2, 3) or spec.shape[-2] != cfg.n_bins:
        raise ValueError(f"expected {cfg.n_bins} frequency bins, got shape {spec.shape}")
    n_frames = spec.shape[-1]
    if cfg.max_samples(n_frames) < 1:
        raise ValueError(f"{n_frames} frames span no signal sample")
    if check_finite and not np.all(np.isfinite(spec)):
        raise ValueError("spectrogram contains non-finite entries")
    sources = spec.reshape((-1,) + spec.shape[-2:]).swapaxes(1, 2)
    out = np.empty((len(sources), n_frames, cfg.n_bins), dtype=np.complex128)
    signals = None if _signals is None else np.empty((len(sources), n_frames - cfg.pad // cfg.hop, cfg.hop))
    _fan_out(partial(_frame_range, cfg, _ola_window_sq(cfg, n_frames), sources, None, out, signals), n_frames)
    if _signals is not None:
        _signals.extend(signals.reshape(len(sources), -1))
    return out.transpose(0, 2, 1).reshape(spec.shape)
