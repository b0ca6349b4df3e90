"""Separation quality metrics."""

from __future__ import annotations

import numpy as np

SDR_CAP_DB = 300.0


def sdr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Signal-to-distortion ratio, 20*log10(||ref|| / ||ref - est||), in dB.

    A perfect estimate is reported as the cap value (300 dB) instead of
    infinity.  Plain SDR, not scale-invariant: an estimate of 2x the
    reference scores 0 dB.
    """
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape:
        raise ValueError("length mismatch")
    # Plain sums, not np.linalg.norm: its BLAS dot leaves OpenBLAS worker
    # threads spinning on the other cores after every call.
    ref_norm = np.sqrt(np.sum(reference * reference))
    if ref_norm == 0:
        raise ValueError("undefined SDR for an all-zero reference")
    error = reference - estimate
    err_norm = np.sqrt(np.sum(error * error))
    if err_norm == 0:
        return SDR_CAP_DB
    return min(SDR_CAP_DB, 20.0 * np.log10(ref_norm / err_norm))


def sdr_batch(pairs) -> tuple[float, list[float]]:
    """Mean and per-pair SDR over (reference, estimate) pairs."""
    values = [sdr(ref, est) for ref, est in pairs]
    if not values:
        raise ValueError("empty batch")
    return float(np.mean(values)), values
