"""Objective functions: mixing error, inconsistency, magnitude mismatch.

All three are squared Frobenius norms of whole arrays, summed pairwise in
double precision.  ``algorithms.run`` calls them on one frame block at a
time and adds the block values in frame order.
"""

from __future__ import annotations

import numpy as np

from .spectral import StftConfig, g_operator


def _sq_dist(a: np.ndarray, b) -> float:
    """||a - b||^2, squaring the difference in place (one temporary).

    A complex difference is read as its real and imaginary float parts.
    Plain sums, not BLAS (``np.linalg.norm`` or a dot): a BLAS call leaves
    OpenBLAS worker threads spinning on the other cores after it returns.
    """
    d = np.subtract(a, b).ravel(order="K")
    if np.iscomplexobj(d):
        d = d.view(np.float64)
    np.multiply(d, d, out=d)
    return float(np.sum(d))


def mixing_error(sources: np.ndarray, mixture: np.ndarray) -> float:
    """||X - sum_j S_j||^2."""
    sources = np.asarray(sources, dtype=np.complex128)
    mixture = np.asarray(mixture, dtype=np.complex128)
    if sources.ndim != 3 or mixture.shape != sources.shape[1:]:
        raise ValueError("shape mismatch between sources and mixture")
    return _sq_dist(mixture, sources.sum(axis=0))


def inconsistency(sources: np.ndarray, cfg: StftConfig, cons: np.ndarray | None = None) -> float:
    """sum_j ||S_j - G(S_j)||^2, in the plain one-sided norm.

    G is orthogonal in the bin-weighted norm, oblique in the plain one, so
    G(S_j) is not the nearest consistent spectrogram in this norm.  A caller
    that already holds ``p_cons(sources, cfg)`` passes it as ``cons`` and
    saves the consistency transforms.
    """
    sources = np.asarray(sources, dtype=np.complex128)
    if sources.ndim != 3:
        raise ValueError("source set must be a J x F x T array")
    cons = g_operator(sources, cfg) if cons is None else np.asarray(cons, dtype=np.complex128)
    if cons.shape != sources.shape:
        raise ValueError("shape mismatch between sources and their consistent images")
    return _sq_dist(sources, cons)


def magnitude_mismatch(sources: np.ndarray, mags: np.ndarray) -> float:
    """sum_j || |S_j| - V_j ||^2."""
    sources = np.asarray(sources, dtype=np.complex128)
    mags = np.asarray(mags, dtype=np.float64)
    if sources.shape != mags.shape:
        raise ValueError("shape mismatch between sources and magnitudes")
    return _sq_dist(np.abs(sources), mags)
