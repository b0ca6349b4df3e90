"""The three projectors (magnitude, consistency, mixing) and weight schemes.

A source set is represented as a J x F x T complex array; magnitude targets
and mixing weights as J x F x T real arrays.  In memory a source set is
(J, T, F), the layout of ``stft`` and ``g_operator``; the projectors accept
any layout and their results keep their input's.

The public projectors check their inputs (shapes, finite entries, magnitudes
>= 0) and then call the private kernels ``_p_mag`` and ``_p_mix``, which do
the arithmetic only.  ``algorithms.run`` checks its inputs once and steps
through the kernels, so no check scans the source set inside its loop.
``p_cons`` makes one ``g_operator`` call per source set.
"""

from __future__ import annotations

import numpy as np

from .spectral import StftConfig, g_operator


def unit_phasor(s: np.ndarray) -> np.ndarray:
    """s / |s| with the convention that zero entries map to 1.

    One pass over |s|: ``s`` is scaled by 1/|s|, which rounds exactly as
    numpy's complex-by-real division does.  Only the bins where 1/|s|
    overflows (|s| zero or subnormal) or |s| itself does (a finite ``s``
    near the float64 limit) are patched afterwards: they are brought into
    range by an exact power of two, then divided by their modulus.  Whether
    any bin needs it is decided by the min and max of |s| (NaN propagates
    through both, so NaN bins are patched too); only then is the mask built.
    """
    s = np.asarray(s, dtype=np.complex128)
    inv = np.abs(s, out=np.empty_like(s, dtype=np.float64))  # s's layout; an array even at 0-d
    tiny = np.finfo(np.float64).tiny
    patch = None
    if not (inv.min(initial=np.inf) >= tiny and inv.max(initial=0.0) < np.inf):  # rare
        patch = ~((inv >= tiny) & (inv < np.inf))
        scaled = s[patch] * np.where(inv[patch] < 1.0, 2.0**600, 2.0**-600)
        inv[patch] = 1.0
    np.reciprocal(inv, out=inv)
    out = np.multiply(s, inv, out=np.empty_like(s))
    if patch is not None:
        out[patch] = np.divide(scaled, np.abs(scaled), out=np.ones_like(scaled), where=np.abs(scaled) > 0)
    return out


def _as_source_set(s) -> np.ndarray:
    s = np.asarray(s, dtype=np.complex128)
    if s.ndim != 3 or s.shape[0] < 1:
        raise ValueError("source set must be a J x F x T array with J >= 1")
    if not np.all(np.isfinite(s)):
        raise ValueError("source set contains non-finite entries")
    return s


def _as_magnitudes(mags, shape: tuple | None = None) -> np.ndarray:
    """``mags`` as float64, checked (``ValueError``): J x F x T with J >= 1, of ``shape`` where
    given, finite, >= 0."""
    mags = np.asarray(mags, dtype=np.float64)
    if mags.ndim != 3 or mags.shape[0] < 1 or mags.shape != (shape or mags.shape):
        raise ValueError(f"shape mismatch: magnitudes {mags.shape} vs {shape or 'J x F x T'} (J >= 1)")
    if not np.all(np.isfinite(mags)):
        raise ValueError("magnitudes contain non-finite entries")
    if np.any(mags < 0):
        raise ValueError("invalid magnitude")
    return mags


def weights_magnitude_ratio(mags: np.ndarray) -> np.ndarray:
    """Per-bin magnitude-ratio weights V_j / sum_k V_k.

    Bins whose total magnitude is at or below a fixed floor, 1e-12 times the
    largest magnitude entry, fall back to the uniform 1/J split so the
    sum-to-one constraint holds everywhere.
    """
    return _weights_magnitude_ratio(_as_magnitudes(mags))


def _weights_magnitude_ratio(mags: np.ndarray) -> np.ndarray:
    """``mags`` is trusted to be a J x F x T float array >= 0."""
    total = mags.sum(axis=0)
    ok = total > (1e-12 * mags.max() if mags.size else 0.0)
    return np.where(ok[None], mags / np.where(ok, total, 1.0)[None], 1.0 / mags.shape[0])


def _p_mag(sources: np.ndarray, mags) -> np.ndarray:
    out = unit_phasor(sources)
    out *= mags
    return out


def p_mag(sources: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Magnitude projector: keep each bin's phase, impose target magnitude.

    Zero-magnitude input bins get phase factor 1.
    """
    sources = _as_source_set(sources)
    return _p_mag(sources, _as_magnitudes(mags, sources.shape))


def p_cons(sources: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Consistency projector: the G operator on each source, in one call."""
    return g_operator(_as_source_set(sources), cfg, check_finite=False)


def _p_mix(sources: np.ndarray, mixture: np.ndarray, weights) -> np.ndarray:
    """``weights`` is a J x F x T array or the scalar 1/J."""
    residual = mixture - sources.sum(axis=0)
    out = np.multiply(weights, residual, out=np.empty_like(sources))
    out += sources
    return out


def p_mix(sources: np.ndarray, mixture: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Mixing projector: distribute the mixing residual by the weights.

    The outputs sum to the mixture exactly (up to rounding) because the
    weights sum to one at every bin.
    """
    sources = _as_source_set(sources)
    mixture = np.asarray(mixture, dtype=np.complex128)
    weights = np.asarray(weights, dtype=np.float64)
    if mixture.shape != sources.shape[1:]:
        raise ValueError("shape mismatch between sources and mixture")
    if weights.shape != sources.shape:
        raise ValueError("shape mismatch between sources and weights")
    if not (np.all(np.isfinite(mixture)) and np.all(np.isfinite(weights))):
        raise ValueError("mixture or weights contain non-finite entries")
    return _p_mix(sources, mixture, weights)
