"""Unified alternating-projection engine for spectrogram inversion.

Every algorithm family is one row of the update table (``RULES``): a
composition of the magnitude, consistency and mixing projectors, possibly
blended by a consistency weight sigma.  The family's update is the module
function ``step_<family.value>``.  ``sigma = SIGMA_INF`` selects the
analytic consistency-only limit; the formulas branch on it and never perform
floating-point arithmetic with infinity.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .losses import inconsistency, magnitude_mismatch, mixing_error
# p_cons is unused here, but stays bound: perfbench's tracer test reads algorithms.p_cons.
from .projectors import _p_mag, _p_mix, p_cons, unit_phasor, weights_magnitude_ratio
from .spectral import StftConfig, frame_blocks, g_operator, tf_layout

# The step_* functions are internal: they skip the checks that run makes once.
__all__ = [
    "DEFAULT_MAX_ITERATIONS",
    "RULES",
    "SIGMA_INF",
    "AlgorithmSpec",
    "Family",
    "Rule",
    "RunTrace",
    "init_amplitude_mask",
    "run",
]

SIGMA_INF = float("inf")

DEFAULT_MAX_ITERATIONS = 20


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class Family(str, Enum):
    AM = "am"
    MISI = "misi"
    MIX_INCONS = "mix_incons"
    MIX_INCONS_HARDMAG = "mix_incons_hardmag"
    INCONS_HARDMIX = "incons_hardmix"
    MAG_INCONS_HARDMIX = "mag_incons_hardmix"


@dataclass(frozen=True)
class Rule:
    """One row of the paper's update table."""

    has_step: bool  # False: the amplitude-mask initialization is the estimate
    sigma_enters: bool  # sigma blends P_cons into the update
    uniform_weights: bool  # mixing weights fixed at 1/J
    fixed_iterations: int | None  # iterations the sweep and the CLI run; None = any
    combined_with: str | None  # "mixing" | "magnitude": the loss + sigma*inconsistency


RULES = {
    Family.AM: Rule(False, False, False, 0, None),
    Family.MISI: Rule(True, False, True, None, None),
    Family.MIX_INCONS: Rule(True, True, False, None, "mixing"),
    Family.MIX_INCONS_HARDMAG: Rule(True, True, False, None, None),
    Family.INCONS_HARDMIX: Rule(True, False, True, 1, None),
    Family.MAG_INCONS_HARDMIX: Rule(True, True, True, None, "magnitude"),
}


@dataclass
class AlgorithmSpec:
    """Which algorithm to run and with what parameters."""

    family: Family
    sigma: float = 0.0
    weight_scheme: str = "magratio"  # "uniform" | "magratio"
    iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        self.family = Family(self.family)
        if self.weight_scheme not in ("uniform", "magratio"):
            raise ValueError(f"unknown weight scheme: {self.weight_scheme}")
        if not (_is_real(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be a number >= 0, got {self.sigma!r}")
        if not (_is_int(self.iterations) and self.iterations >= 0):
            raise ValueError(f"iterations must be an integer >= 0, got {self.iterations!r}")

    def validation_warnings(self) -> list[str]:
        # The rows with fixed 1/J weights ignore weight_scheme without a note:
        # the default scheme is magratio, so a note would fire on defaults.
        if not RULES[self.family].sigma_enters and self.sigma != 0.0:
            return [f"sigma is ignored by {self.family.value}"]
        return []


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


# The steps share one signature, so ``run`` calls every family alike.  They
# compose the projectors' unchecked kernels: ``run`` validates its inputs
# once, and the only scan inside its loop is each step's check of its result
# for non-finite values.  ``mags`` is trusted to be a J x F x T array >= 0.
# ``weights`` is the family's Lambda, a J x F x T array or the scalar 1/J
# (``run`` passes 1/J to the rows with uniform weights).  ``cons`` is G(S),
# the consistent image ``p_cons(sources, cfg)``, or None where the formula at
# this sigma has no G; only ``run`` computes it.  A step ignores the
# arguments its formula does not use.


def _blockwise(formula):
    """The step that applies the bin-by-bin ``formula`` one frame block at a
    time, bit for bit as on whole arrays.  Each block is checked for
    non-finite values, then written over the block of ``cons`` that the
    formula read (or into a new array of ``sources``' layout)."""

    @functools.wraps(formula)
    def step(sources, mixture, mags, weights, sigma: float, cons) -> np.ndarray:
        out = np.empty_like(sources, dtype=np.complex128) if cons is None else cons
        operands = (sources, mixture, mags, weights, cons)
        for b in frame_blocks(sources.shape):
            s, x, v, w, z = (a if np.ndim(a) == 0 else a[..., b] for a in operands)
            block = formula(s, x, v, w, sigma, z)
            if not np.all(np.isfinite(block)):
                raise FloatingPointError("non-finite estimate produced")
            out[..., b] = block
        return out

    return step


def _blend_in_place(y: np.ndarray, z: np.ndarray, weights, sigma: float) -> np.ndarray:
    """(Y + sigma*Lambda*Z) / (1 + sigma*Lambda) for finite sigma, written into ``y``."""
    scaled = sigma * weights
    y += scaled * z
    y /= 1.0 + scaled
    return y


@_blockwise
def step_misi(sources, mixture, mags, weights, sigma: float, cons) -> np.ndarray:
    """One MISI iteration: P_mix(P_mag(P_cons(S))) with uniform weights."""
    return _p_mix(_p_mag(cons, mags), mixture, weights)


@_blockwise
def step_mix_incons(sources, mixture, mags, weights, sigma: float, cons) -> np.ndarray:
    """Soft mixing + soft consistency: element-wise blend of P_mix and P_cons."""
    if sigma == 0.0:
        return _p_mix(sources, mixture, weights)
    if sigma == SIGMA_INF:
        return cons
    return _blend_in_place(_p_mix(sources, mixture, weights), cons, weights, sigma)


@_blockwise
def step_mix_incons_hardmag(sources, mixture, mags, weights, sigma: float, cons) -> np.ndarray:
    """As step_mix_incons but with the target magnitudes imposed exactly."""
    if sigma == 0.0:
        return _p_mag(_p_mix(sources, mixture, weights), mags)
    if sigma == SIGMA_INF:
        # Per-source Griffin-Lim update, no mixing constraint.
        return _p_mag(cons, mags)
    y = _p_mix(sources, mixture, weights)
    y += sigma * weights * cons
    return _p_mag(y, mags)


@_blockwise
def step_incons_hardmix(sources, mixture, mags, weights, sigma: float, cons) -> np.ndarray:
    """Consistency objective under a hard mixing constraint.

    Non-iterative: the correction term is itself consistent, so a second
    application leaves the estimate unchanged.
    """
    return _p_mix(cons, mixture, weights)


@_blockwise
def step_mag_incons_hardmix(sources, mixture, mags, weights, sigma: float, cons) -> np.ndarray:
    """Magnitude objective + soft consistency under a hard mixing constraint."""
    if sigma == 0.0:
        w = _p_mag(sources, mags)
    elif sigma == SIGMA_INF:
        w = cons
    else:
        w = _blend_in_place(_p_mag(sources, mags), cons, 1.0, sigma)
    return _p_mix(w, mixture, weights)


def _checked_inputs(mixture, mags) -> tuple[np.ndarray, np.ndarray]:
    """``run``'s one input check, and the (J, T, F) memory layout.

    An input already in that layout is not copied.
    """
    mixture = np.asarray(mixture, dtype=np.complex128)
    mags = np.asarray(mags, dtype=np.float64)
    if mixture.ndim != 2 or mags.ndim != 3 or mags.shape[1:] != mixture.shape:
        raise ValueError(f"shape mismatch: magnitudes {mags.shape} vs mixture {mixture.shape}")
    if not np.all(np.isfinite(mixture)):
        raise ValueError("mixture contains non-finite entries")
    if not np.all(np.isfinite(mags)):
        raise ValueError("magnitudes contain non-finite entries")
    if np.any(mags < 0):
        raise ValueError("invalid magnitude")
    return tf_layout(mixture), tf_layout(mags)


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
    ``run`` computes every G itself.  Iterate k's losses are taken at the
    start of step k+1; when that step applies the consistency projection,
    its G(S_k) also gives ``inconsistency(S_k)``, so recording costs one
    extra G per run (at the last iterate) rather than one per iterate.
    Batch drivers that only need the estimates pass ``record_losses=False``.
    ``on_iterate(k, sources)`` is called at the initialization and after
    every step; it must not mutate its argument.  Deterministic for fixed
    inputs.

    The inputs are checked once, here (``ValueError``), and converted to the
    (J, T, F) memory layout.  An iterate or a recorded loss that is not
    finite raises ``FloatingPointError``; the losses are checked first.

    Apart from G, the steps and the losses act bin by bin, so they run one
    frame block at a time (``spectral.frame_blocks``: about 512 KiB of the
    source set, so their temporaries stay in cache).  The estimates are the
    same bit for bit as on whole arrays.  Each loss is summed pairwise within
    a block, then the block sums are added in frame order.
    """
    mixture, mags = _checked_inputs(mixture, mags)
    rule = RULES[spec.family]
    warnings = spec.validation_warnings()
    sigma = spec.sigma
    if not rule.has_step or rule.uniform_weights or spec.weight_scheme == "uniform":
        weights = 1.0 / mags.shape[0]
    else:
        weights = weights_magnitude_ratio(mags)
    # Looked up when run is called, not at import, so a wrapped step is used.
    step = globals()[f"step_{spec.family.value}"] if rule.has_step else None
    n_steps = spec.iterations if rule.has_step else 0
    # run is the one caller of G.  It computes G(S_k) unchecked, since every
    # step checks its result, and the loss record reads it before the step
    # overwrites it with S_{k+1}.
    applies_g = rule.has_step and (sigma != 0.0 or not rule.sigma_enters)

    sources = init_amplitude_mask(mixture, mags)
    h, i, m = [], [], []

    def record(current, cons):
        if cons is None:
            cons = g_operator(current, cfg, check_finite=False)
        losses = (
            mixing_error(current, mixture),
            inconsistency(current, cfg, cons),
            magnitude_mismatch(current, mags),
        )
        if not np.all(np.isfinite(losses)):
            raise FloatingPointError(f"non-finite loss at iterate {len(h)}")
        for column, value in zip((h, i, m), losses):
            column.append(value)

    if on_iterate is not None:
        on_iterate(0, sources)

    for k in range(1, n_steps + 1):
        cons = g_operator(sources, cfg, check_finite=False) if applies_g else None
        if record_losses:
            record(sources, cons)
        sources = step(sources, mixture, mags, weights, sigma, cons)
        if on_iterate is not None:
            on_iterate(k, sources)
    if record_losses:
        record(sources, None)

    h = np.asarray(h)
    i = np.asarray(i)
    m = np.asarray(m)
    combined = None
    if record_losses and rule.combined_with is not None and sigma != SIGMA_INF:
        combined = {"mixing": h, "magnitude": m}[rule.combined_with] + sigma * i
    return RunTrace(
        mixing=h,
        inconsistency=i,
        magnitude=m,
        combined=combined,
        estimates=sources,
        iterations=n_steps,
        warnings=warnings,
    )
