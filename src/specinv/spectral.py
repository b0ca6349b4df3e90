"""STFT analysis/synthesis and the consistency operator.

The forward transform uses a periodic Hann window with centered zero-padding,
and the inverse is the weighted overlap-add least-squares synthesis (dual
window = analysis window divided by the squared-window overlap sum).  With
this pairing, ``g_operator`` (STFT followed by iSTFT) is a projection onto
the set of consistent spectrograms.
"""

from __future__ import annotations

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

    ``hop`` must divide ``window_length``; the squared-window overlap-add
    sum must be constant over interior samples (checked at construction).
    Signals are zero-padded by ``window_length - hop`` samples on both
    sides so every retained sample gets full window coverage.
    """

    window_length: int = 1024
    hop: int = 256
    fft_size: int | None = None
    sample_rate: int = 16000

    _window: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.fft_size is None:
            object.__setattr__(self, "fft_size", self.window_length)
        if self.window_length < 1 or self.hop < 1:
            raise ValueError("window_length and hop must be positive")
        if self.window_length % self.hop != 0:
            raise ValueError("hop must divide window_length")
        if self.fft_size < self.window_length:
            raise ValueError("fft_size must be >= window_length")
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
        return self.fft_size // 2 + 1

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


def _frame_indices(cfg: StftConfig, n_frames: int) -> np.ndarray:
    starts = cfg.hop * np.arange(n_frames)[:, None]
    return starts + np.arange(cfg.window_length)[None, :]


def stft(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """One-sided STFT, returned as an F x T complex matrix."""
    x = np.asarray(getattr(x, "samples", x), dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite samples")
    n_frames = cfg.num_frames(x.size)
    total = (n_frames - 1) * cfg.hop + cfg.window_length
    buf = np.zeros(total)
    buf[cfg.pad : cfg.pad + x.size] = x
    frames = sliding_window_view(buf, cfg.window_length)[:: cfg.hop] * cfg.window
    return np.fft.rfft(frames, n=cfg.fft_size, axis=1).T


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
    n_frames = spec.shape[1]
    if cfg.num_frames(out_len) != n_frames:
        raise ValueError("length mismatch")
    frames = np.fft.irfft(spec.T, n=cfg.fft_size, axis=1)[:, : cfg.window_length]
    frames *= cfg.window
    # Overlap-add via hop-sized chunks: chunk c of frame t lands at (t+c)*hop.
    ratio = cfg.window_length // cfg.hop
    chunks = frames.reshape(n_frames, ratio, cfg.hop)
    acc = np.zeros((n_frames + ratio - 1, cfg.hop))
    for c in range(ratio):
        acc[c : c + n_frames] += chunks[:, c, :]
    out = acc.ravel()
    out /= _ola_window_sq(cfg, n_frames)
    return out[cfg.pad : cfg.pad + out_len]


def g_operator(spec: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Consistency operator: STFT of the iSTFT of ``spec``.

    The result is the STFT of some time signal by construction; applying
    the operator twice gives the same result as applying it once.
    """
    spec = np.asarray(spec, dtype=np.complex128)
    out_len = cfg.max_samples(spec.shape[1])
    return stft(istft(spec, cfg, out_len), cfg)
