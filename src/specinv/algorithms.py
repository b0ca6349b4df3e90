"""Unified alternating-projection engine for spectrogram inversion.

Every algorithm family is one row of the update table: a composition of the
magnitude, consistency and mixing projectors, possibly blended by a
consistency weight sigma.  ``sigma = SIGMA_INF`` selects the analytic
consistency-only limit; the formulas branch on it and never perform
floating-point arithmetic with infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .losses import _sq_dist, inconsistency, magnitude_mismatch, mixing_error
from .projectors import (
    p_cons,
    p_mag,
    p_mix,
    unit_phasor,
    weights_magnitude_ratio,
    weights_uniform,
)
from .spectral import StftConfig

SIGMA_INF = float("inf")

DEFAULT_MAX_ITERATIONS = 20


class Family(str, Enum):
    AM = "am"
    MISI = "misi"
    MIX_INCONS = "mix_incons"
    MIX_INCONS_HARDMAG = "mix_incons_hardmag"
    INCONS_HARDMIX = "incons_hardmix"
    MAG_INCONS_HARDMIX = "mag_incons_hardmix"


# Families whose update does not involve sigma.
SIGMA_FREE = frozenset({Family.AM, Family.MISI, Family.INCONS_HARDMIX})

# Families where the mixing weights are fixed at 1/J.
UNIFORM_ONLY = frozenset({Family.MISI, Family.INCONS_HARDMIX, Family.MAG_INCONS_HARDMIX})


@dataclass
class AlgorithmSpec:
    """Which algorithm to run and with what parameters."""

    family: Family
    sigma: float = 0.0
    weight_scheme: str = "magratio"  # "uniform" | "magratio"
    iterations: int = DEFAULT_MAX_ITERATIONS
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    stop_tol: float | None = None  # optional relative-change early stop

    def __post_init__(self):
        self.family = Family(self.family)
        if self.weight_scheme not in ("uniform", "magratio"):
            raise ValueError(f"unknown weight scheme: {self.weight_scheme}")
        if not (self.sigma >= 0):
            raise ValueError("sigma must be nonnegative")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.iterations > self.max_iterations:
            raise ValueError(
                f"iterations {self.iterations} exceeds cap {self.max_iterations}"
            )

    def validation_warnings(self) -> list[str]:
        notes = []
        if self.family in SIGMA_FREE and self.sigma != 0.0:
            notes.append(f"sigma is ignored by {self.family.value}")
        if self.family in UNIFORM_ONLY and self.weight_scheme != "uniform":
            notes.append(f"{self.family.value} always uses uniform 1/J weights")
        return notes


@dataclass
class RunTrace:
    """Per-iteration losses plus the final estimates.

    Index 0 of each loss array is the amplitude-mask initialization, so the
    arrays have ``iterations + 1`` entries.
    """

    mixing: np.ndarray
    inconsistency: np.ndarray
    magnitude: np.ndarray
    combined: np.ndarray | None
    estimates: np.ndarray
    iterations: int
    warnings: list[str] = field(default_factory=list)


def init_amplitude_mask(mixture: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Amplitude-mask estimates: target magnitudes with the mixture's phase."""
    mixture = np.asarray(mixture, dtype=np.complex128)
    mags = np.asarray(mags, dtype=np.float64)
    if mags.ndim != 3 or mags.shape[1:] != mixture.shape:
        raise ValueError("shape mismatch between mixture and magnitudes")
    if np.any(mags < 0):
        raise ValueError("invalid magnitude")
    return unit_phasor(mixture)[None] * mags


def blend_mix_cons(y: np.ndarray, z: np.ndarray, weights: np.ndarray, sigma: float) -> np.ndarray:
    """(Y + sigma*Lambda*Z) / (1 + sigma*Lambda), with exact limits at 0 and inf."""
    if sigma == 0.0:
        return y
    if sigma == SIGMA_INF:
        return z
    return (y + sigma * weights * z) / (1.0 + sigma * weights)


def step_misi(sources, mixture, mags, cfg: StftConfig, *, cons=None) -> np.ndarray:
    """One MISI iteration: P_mix(P_mag(P_cons(S))) with uniform weights.

    In every step, ``cons`` is ``p_cons(sources, cfg)`` when the caller
    already has it; by default the step computes it.
    """
    z = p_cons(sources, cfg) if cons is None else cons
    w = weights_uniform(sources.shape[0], sources.shape[1:])
    return p_mix(p_mag(z, mags), mixture, w)


def step_mix_incons(sources, mixture, weights, sigma: float, cfg: StftConfig, *, cons=None) -> np.ndarray:
    """Soft mixing + soft consistency: element-wise blend of P_mix and P_cons."""
    if sigma == 0.0:
        return p_mix(sources, mixture, weights)
    z = p_cons(sources, cfg) if cons is None else cons
    if sigma == SIGMA_INF:
        return z
    y = p_mix(sources, mixture, weights)
    return blend_mix_cons(y, z, weights, sigma)


def step_mix_incons_hardmag(sources, mixture, mags, weights, sigma: float, cfg: StftConfig, *, cons=None) -> np.ndarray:
    """As step_mix_incons but with the target magnitudes imposed exactly."""
    if sigma == 0.0:
        return p_mag(p_mix(sources, mixture, weights), mags)
    z = p_cons(sources, cfg) if cons is None else cons
    if sigma == SIGMA_INF:
        # Per-source Griffin-Lim update, no mixing constraint.
        return p_mag(z, mags)
    y = p_mix(sources, mixture, weights)
    return p_mag(y + sigma * weights * z, mags)


def step_incons_hardmix(sources, mixture, cfg: StftConfig, *, cons=None) -> np.ndarray:
    """Consistency objective under a hard mixing constraint.

    Non-iterative: the correction term is itself consistent, so a second
    application leaves the estimate unchanged.
    """
    z = p_cons(sources, cfg) if cons is None else cons
    w = weights_uniform(sources.shape[0], sources.shape[1:])
    return p_mix(z, mixture, w)


def step_mag_incons_hardmix(sources, mixture, mags, sigma: float, cfg: StftConfig, *, cons=None) -> np.ndarray:
    """Magnitude objective + soft consistency under a hard mixing constraint."""
    n_sources = sources.shape[0]
    if sigma == 0.0:
        w = p_mag(sources, mags)
    else:
        z = p_cons(sources, cfg) if cons is None else cons
        if sigma == SIGMA_INF:
            w = z
        else:
            w = (p_mag(sources, mags) + sigma * z) / (1.0 + sigma)
    uni = weights_uniform(n_sources, sources.shape[1:])
    return p_mix(w, mixture, uni)


def _step_applies_g(family: Family, sigma: float) -> bool:
    """Whether one step of ``family`` at ``sigma`` computes P_cons(S)."""
    if family in (Family.MISI, Family.INCONS_HARDMIX):
        return True
    return family is not Family.AM and sigma != 0.0


def _make_weights(spec: AlgorithmSpec, mags: np.ndarray) -> np.ndarray:
    if spec.family in UNIFORM_ONLY or spec.weight_scheme == "uniform":
        return weights_uniform(mags.shape[0], mags.shape[1:])
    return weights_magnitude_ratio(mags)


def run(
    spec: AlgorithmSpec,
    mixture: np.ndarray,
    mags: np.ndarray,
    cfg: StftConfig,
    on_iterate=None,
    record_losses: bool = True,
) -> RunTrace:
    """Run an algorithm from the amplitude-mask initialization.

    Records all three losses at every iterate (index 0 = initialization).
    Iterate k's losses are taken at the start of step k+1; when that step
    applies the consistency projection, its G(S_k) also gives
    ``inconsistency(S_k)``, so recording costs one extra G per run (at the
    last iterate) rather than one per iterate.  Batch drivers that only need
    the estimates pass ``record_losses=False``.  ``on_iterate(k, sources)``
    is called at the initialization and after every step; it must not
    mutate its argument.  Deterministic for fixed inputs.
    """
    mixture = np.asarray(mixture, dtype=np.complex128)
    mags = np.asarray(mags, dtype=np.float64)
    warnings = spec.validation_warnings()
    weights = _make_weights(spec, mags)
    sigma = spec.sigma
    step = {
        Family.AM: None,
        Family.MISI: lambda s, cons: step_misi(s, mixture, mags, cfg, cons=cons),
        Family.MIX_INCONS: lambda s, cons: step_mix_incons(s, mixture, weights, sigma, cfg, cons=cons),
        Family.MIX_INCONS_HARDMAG: lambda s, cons: step_mix_incons_hardmag(
            s, mixture, mags, weights, sigma, cfg, cons=cons
        ),
        Family.INCONS_HARDMIX: lambda s, cons: step_incons_hardmix(s, mixture, cfg, cons=cons),
        Family.MAG_INCONS_HARDMIX: lambda s, cons: step_mag_incons_hardmix(s, mixture, mags, sigma, cfg, cons=cons),
    }[spec.family]
    # Only a recorded run computes G(S_k) ahead of the step, to share it.
    share_cons = record_losses and _step_applies_g(spec.family, sigma)

    sources = init_amplitude_mask(mixture, mags)
    n_steps = 0 if spec.family is Family.AM else spec.iterations

    h, i, m = [], [], []

    def record(current, cons=None):
        h.append(mixing_error(current, mixture))
        i.append(inconsistency(current, cfg, cons=cons))
        m.append(magnitude_mismatch(current, mags))

    if on_iterate is not None:
        on_iterate(0, sources)

    executed = 0
    for k in range(1, n_steps + 1):
        prev = sources
        cons = p_cons(prev, cfg) if share_cons else None
        if record_losses:
            record(prev, cons)
        sources = step(prev, cons)
        del cons
        if not np.all(np.isfinite(sources)):
            raise FloatingPointError("non-finite estimate produced")
        executed = k
        if on_iterate is not None:
            on_iterate(k, sources)
        if spec.stop_tol is not None:
            denom = max(np.sqrt(_sq_dist(prev, 0.0)), 1e-300)
            if np.sqrt(_sq_dist(sources, prev)) < spec.stop_tol * denom:
                break
    if record_losses:
        record(sources)

    h = np.asarray(h)
    i = np.asarray(i)
    m = np.asarray(m)
    combined = None
    if record_losses and sigma != SIGMA_INF and spec.family not in SIGMA_FREE:
        if spec.family is Family.MIX_INCONS:
            combined = h + sigma * i
        elif spec.family is Family.MAG_INCONS_HARDMIX:
            combined = m + sigma * i
    return RunTrace(
        mixing=h,
        inconsistency=i,
        magnitude=m,
        combined=combined,
        estimates=sources,
        iterations=executed,
        warnings=warnings,
    )
