"""STFT analysis/synthesis and the consistency operator.

The forward transform uses a periodic Hann window with centered zero-padding,
and the inverse is the weighted overlap-add least-squares synthesis (dual
window = analysis window divided by the squared-window overlap sum).  With
this pairing, ``g_operator`` (STFT followed by iSTFT) is a projection onto
the set of consistent spectrograms.

Memory layout: a spectrogram is logically F x T, and in memory it is
(T, F), contiguous along the FFT axis.  ``stft`` returns the transposed view
of its frame-by-frame ``rfft``, and ``g_operator`` keeps that layout for an
F x T spectrogram and, per source, for a J x F x T source set (memory
(J, T, F)).  Other layouts are accepted everywhere; they are only slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def hann_periodic(n: int) -> np.ndarray:
    """Periodic (DFT-even) Hann window of length ``n``."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _window_sq_sum(window: np.ndarray, hop: int, n_frames: int) -> np.ndarray:
    """Overlap-add of the squared window over ``n_frames`` frames ``hop`` apart."""
    acc = np.zeros((n_frames - 1) * hop + window.size)
    sq = window**2
    for t in range(n_frames):
        acc[t * hop : t * hop + window.size] += sq
    return acc


@dataclass(frozen=True)
class StftConfig:
    """Parameters of the STFT pair.

    The FFT length is ``window_length``.  ``hop`` must divide
    ``window_length``; the squared-window overlap-add sum must be constant
    over interior samples (checked at construction).  Signals are
    zero-padded by ``window_length - hop`` samples on both sides so every
    retained sample gets full window coverage.
    """

    window_length: int = 1024
    hop: int = 256
    sample_rate: int = 16000

    _window: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.window_length < 1 or self.hop < 1:
            raise ValueError("window_length and hop must be positive")
        if self.window_length % self.hop != 0:
            raise ValueError("hop must divide window_length")
        win = hann_periodic(self.window_length)
        object.__setattr__(self, "_window", win)
        self._check_cola()

    def _check_cola(self):
        # Overlap-add the squared window over a few periods and require a
        # constant sum on the interior span.
        acc = _window_sq_sum(self._window, self.hop, 4 * (self.window_length // self.hop))
        interior = acc[self.pad : acc.size - self.pad]
        ref = interior[0]
        if ref <= 0 or np.max(np.abs(interior - ref)) > 1e-10 * ref:
            raise ValueError("window does not satisfy the COLA condition")

    @property
    def window(self) -> np.ndarray:
        return self._window

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


# Complex bytes per frame block: the element-wise steps and the losses work
# one block at a time, so their temporaries stay in a 2 MiB L2 cache.
_BLOCK_BYTES = 1 << 19


def frame_blocks(shape: tuple[int, ...]):
    """Slices of the frame (last) axis, in order, of ~``_BLOCK_BYTES`` of complex data each."""
    width = max(1, _BLOCK_BYTES // (16 * max(1, math.prod(shape[:-1]))))
    return (slice(t, t + width) for t in range(0, shape[-1], width))


def _analyze(buf: np.ndarray, cfg: StftConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Window the frames of a padded signal buffer and ``rfft`` them: T x F."""
    frames = sliding_window_view(buf, cfg.window_length)[:: cfg.hop] * cfg.window
    return np.fft.rfft(frames, axis=1, out=out)


def _synthesize(frames_spec: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Least-squares overlap-add of a T x F spectrogram over the whole padded buffer."""
    n_frames = frames_spec.shape[0]
    frames = np.fft.irfft(frames_spec, n=cfg.window_length, axis=1)
    frames *= cfg.window
    # Overlap-add via hop-sized chunks: chunk c of frame t lands at (t+c)*hop.
    ratio = cfg.window_length // cfg.hop
    chunks = frames.reshape(n_frames, ratio, cfg.hop)
    acc = np.zeros((n_frames + ratio - 1, cfg.hop))
    for c in range(ratio):
        acc[c : c + n_frames] += chunks[:, c, :]
    out = acc.ravel()
    out /= _ola_window_sq(cfg, n_frames)
    return out


def stft(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """One-sided STFT, returned as an F x T complex matrix in (T, F) memory."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite samples")
    n_frames = cfg.num_frames(x.size)
    total = (n_frames - 1) * cfg.hop + cfg.window_length
    buf = np.zeros(total)
    buf[cfg.pad : cfg.pad + x.size] = x
    return _analyze(buf, cfg).T


@lru_cache(maxsize=64)
def _ola_window_sq(cfg: StftConfig, n_frames: int) -> np.ndarray:
    acc = _window_sq_sum(cfg.window, cfg.hop, n_frames)
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
    return _synthesize(spec.T, cfg)[cfg.pad : cfg.pad + out_len]


def g_operator(spec: np.ndarray, cfg: StftConfig, *, check_finite: bool = True) -> np.ndarray:
    """Consistency operator: STFT of the iSTFT of each spectrogram.

    ``spec`` is one F x T spectrogram or a J x F x T source set; each source
    is transformed on its own, into one preallocated result of ``spec``'s
    shape in (T, F) (per source) memory.  The result is the STFT of some
    time signal by construction; applying the operator twice gives the same
    result as applying it once.  ``check_finite=False`` skips the one scan
    for non-finite entries, for callers that have checked the input
    already; a non-finite input then gives a non-finite result.
    """
    spec = np.asarray(spec, dtype=np.complex128)
    if spec.ndim not in (2, 3) or spec.shape[-2] != cfg.n_bins:
        raise ValueError(f"expected {cfg.n_bins} frequency bins, got shape {spec.shape}")
    n_frames = spec.shape[-1]
    if cfg.max_samples(n_frames) < 1:
        raise ValueError(f"{n_frames} frames span no signal sample")
    if check_finite and not np.all(np.isfinite(spec)):
        raise ValueError("spectrogram contains non-finite entries")
    sources = spec.reshape((-1,) + spec.shape[-2:])
    out = np.empty((sources.shape[0], n_frames, cfg.n_bins), dtype=np.complex128)
    for s, z in zip(sources, out):
        # The overlap-added signal spans the buffer that stft frames, so
        # zeroing its padding is the iSTFT's crop and the STFT's re-pad.
        signal = _synthesize(s.T, cfg)
        signal[: cfg.pad] = 0.0
        signal[n_frames * cfg.hop :] = 0.0
        _analyze(signal, cfg, out=z)
    return out.transpose(0, 2, 1).reshape(spec.shape)
