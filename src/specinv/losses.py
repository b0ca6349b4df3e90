"""Objective functions: mixing error, inconsistency, magnitude mismatch.

All three are squared Frobenius norms summed in double precision one frame
block at a time (``spectral.frame_blocks``): pairwise within a block, then
block by block in frame order.  Only that order depends on the block width;
on the ``tests/test_blocks.py`` grid the losses agree within 7.5e-16 relative.
"""

from __future__ import annotations

import numpy as np

from .spectral import StftConfig, frame_blocks, g_operator


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


def _blockwise_sum(shape, term) -> float:
    """The sum of ``term(frames)`` over the frame blocks of ``shape``, in frame order."""
    total = 0.0
    for frames in frame_blocks(shape):
        total += term(frames)
    return total


def mixing_error(sources: np.ndarray, mixture: np.ndarray) -> float:
    """||X - sum_j S_j||^2."""
    sources = np.asarray(sources, dtype=np.complex128)
    mixture = np.asarray(mixture, dtype=np.complex128)
    if sources.ndim != 3 or mixture.shape != sources.shape[1:]:
        raise ValueError("shape mismatch between sources and mixture")
    return _blockwise_sum(sources.shape, lambda b: _sq_dist(mixture[:, b], sources[..., b].sum(axis=0)))


def inconsistency(sources: np.ndarray, cfg: StftConfig, cons: np.ndarray | None = None) -> float:
    """sum_j ||S_j - G(S_j)||^2.

    A caller that already holds ``p_cons(sources, cfg)`` passes it as
    ``cons`` and saves the consistency transforms.
    """
    sources = np.asarray(sources, dtype=np.complex128)
    if sources.ndim != 3:
        raise ValueError("source set must be a J x F x T array")
    cons = g_operator(sources, cfg) if cons is None else np.asarray(cons, dtype=np.complex128)
    if cons.shape != sources.shape:
        raise ValueError("shape mismatch between sources and their consistent images")
    return _blockwise_sum(sources.shape, lambda b: _sq_dist(sources[..., b], cons[..., b]))


def magnitude_mismatch(sources: np.ndarray, mags: np.ndarray) -> float:
    """sum_j || |S_j| - V_j ||^2."""
    sources = np.asarray(sources, dtype=np.complex128)
    mags = np.asarray(mags, dtype=np.float64)
    if sources.shape != mags.shape:
        raise ValueError("shape mismatch between sources and magnitudes")
    return _blockwise_sum(sources.shape, lambda b: _sq_dist(np.abs(sources[..., b]), mags[..., b]))
