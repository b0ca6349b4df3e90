"""Spectrogram inversion via alternating projections on consistency,
mixing and magnitude constraints."""

from .algorithms import SIGMA_INF, AlgorithmSpec, Family, RunTrace, init_amplitude_mask, run
from .losses import inconsistency, magnitude_mismatch, mixing_error
from .metrics import sdr
from .projectors import p_cons, p_mag, p_mix, weights_magnitude_ratio
from .spectral import StftConfig, TimeSignal, g_operator, istft, stft

__all__ = [
    "SIGMA_INF",
    "AlgorithmSpec",
    "Family",
    "RunTrace",
    "StftConfig",
    "TimeSignal",
    "g_operator",
    "inconsistency",
    "init_amplitude_mask",
    "istft",
    "magnitude_mismatch",
    "mixing_error",
    "p_cons",
    "p_mag",
    "p_mix",
    "run",
    "sdr",
    "stft",
    "weights_magnitude_ratio",
]
