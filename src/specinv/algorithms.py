"""Unified alternating-projection engine for spectrogram inversion.

Every algorithm family is one row of the update table (``RULES``): a
composition of the magnitude, consistency and mixing projectors, possibly
blended by a consistency weight sigma.  The family's update is the module
function ``step_<family.value>``.  ``sigma = SIGMA_INF`` selects the
analytic consistency-only limit; the formulas branch on it and never perform
floating-point arithmetic with infinity.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .losses import inconsistency, magnitude_mismatch, mixing_error
# p_cons is unused here, but stays bound: perfbench's tracer test reads algorithms.p_cons.
from .projectors import _p_mag, _p_mix, p_cons, unit_phasor, weights_magnitude_ratio
from .spectral import StftConfig, g_operator, tf_layout

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
    """Amplitude-mask estimates: target magnitudes with the mixture's phase.

    Checks its inputs (``ValueError``): an F x T mixture, J x F x T
    magnitudes with J >= 1, finite entries, magnitudes >= 0.
    """
    mixture = np.asarray(mixture, dtype=np.complex128)
    mags = np.asarray(mags, dtype=np.float64)
    if mags.ndim != 3 or mags.shape[1:] != mixture.shape or mags.shape[0] < 1:
        raise ValueError(f"shape mismatch: magnitudes {mags.shape} vs mixture {mixture.shape} (J >= 1)")
    if not np.all(np.isfinite(mixture)):
        raise ValueError("mixture contains non-finite entries")
    if not np.all(np.isfinite(mags)):
        raise ValueError("magnitudes contain non-finite entries")
    if np.any(mags < 0):
        raise ValueError("invalid magnitude")
    return unit_phasor(mixture)[None] * mags


# Complex bytes per frame block: the steps and the losses work one block at
# a time, so their temporaries stay in a 2 MiB L2 cache.
_BLOCK_BYTES = 1 << 19


def frame_blocks(shape: tuple[int, ...]):
    """Slices of the frame (last) axis, in order, of ~``_BLOCK_BYTES`` of complex data each."""
    width = max(1, _BLOCK_BYTES // (16 * max(1, math.prod(shape[:-1]))))
    return (slice(t, t + width) for t in range(0, shape[-1], width))


# The steps share one signature, so ``run`` calls every family alike.  They
# are the paper's formulas, bin by bin, on the projectors' unchecked kernels:
# ``run`` validates its inputs once and applies a step one frame block at a
# time (``frame_blocks``), after that block's losses, then checks the
# block's result for non-finite values and writes it over the block of G.
# ``mags`` is trusted to be >= 0 and of the sources' shape.  ``weights`` is
# the family's Lambda, an array of that shape or the scalar 1/J (``run``
# passes 1/J to the rows with uniform weights).  ``cons`` is G(S), the
# consistent image ``p_cons(sources, cfg)``, or None where neither the
# formula at this sigma nor the loss record needs it; only ``run`` computes
# it.  A step ignores the arguments its formula does not use.


def _blend_in_place(y: np.ndarray, z: np.ndarray, weights, sigma: float) -> np.ndarray:
    """(Y + sigma*Lambda*Z) / (1 + sigma*Lambda) for finite sigma, written into ``y``."""
    scaled = sigma * weights
    y += scaled * z
    y /= 1.0 + scaled
    return y


def step_misi(sources, mixture, mags, weights, sigma: float, cons) -> np.ndarray:
    """One MISI iteration: P_mix(P_mag(P_cons(S))) with uniform weights."""
    return _p_mix(_p_mag(cons, mags), mixture, weights)


def step_mix_incons(sources, mixture, mags, weights, sigma: float, cons) -> np.ndarray:
    """Soft mixing + soft consistency: element-wise blend of P_mix and P_cons."""
    if sigma == 0.0:
        return _p_mix(sources, mixture, weights)
    if sigma == SIGMA_INF:
        return cons
    return _blend_in_place(_p_mix(sources, mixture, weights), cons, weights, sigma)


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


def step_incons_hardmix(sources, mixture, mags, weights, sigma: float, cons) -> np.ndarray:
    """Consistency objective under a hard mixing constraint.

    Non-iterative: the correction term is itself consistent, so a second
    application leaves the estimate unchanged.
    """
    return _p_mix(cons, mixture, weights)


def step_mag_incons_hardmix(sources, mixture, mags, weights, sigma: float, cons) -> np.ndarray:
    """Magnitude objective + soft consistency under a hard mixing constraint."""
    if sigma == 0.0:
        w = _p_mag(sources, mags)
    elif sigma == SIGMA_INF:
        w = cons
    else:
        w = _blend_in_place(_p_mag(sources, mags), cons, 1.0, sigma)
    return _p_mix(w, mixture, weights)


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
    Batch drivers that only need the estimates pass ``record_losses=False``.
    ``on_iterate(k, sources)`` is called at the initialization and after
    every step; it must not mutate its argument.  Deterministic for fixed
    inputs.  The inputs are checked once, here (``ValueError``): by
    ``init_amplitude_mask``, then the mixture's bins and frames against
    ``cfg``.  They are then converted to the (J, T, F) memory layout.

    ``run`` computes every G itself: G(S_k) once per iterate k, where the
    step or the loss record needs it.  When the step applies the consistency
    projection, its G(S_k) also gives ``inconsistency(S_k)``, so recording
    costs one extra G per run (at the last iterate) rather than one per
    iterate.

    Apart from G, the steps and the losses act bin by bin, so each iterate is
    one pass over frame blocks (``frame_blocks``: about 512 KiB of the source
    set, so the temporaries stay in cache).  For each block, in frame order,
    ``run`` adds the block's three losses of S_k to running sums and checks
    them, then applies the step to the block, checks the result and writes it
    over that block of G(S_k), which nothing reads again.  A non-finite loss
    or iterate raises ``FloatingPointError``.  The estimates are the same bit
    for bit as on whole arrays; each loss is summed pairwise within a block,
    then the block sums are added in frame order.
    """
    sources = tf_layout(init_amplitude_mask(mixture, mags))  # checks the arrays; their fit to cfg below
    mixture = tf_layout(np.asarray(mixture, dtype=np.complex128))
    mags = tf_layout(np.asarray(mags, dtype=np.float64))
    if mixture.shape[0] != cfg.n_bins or cfg.max_samples(mixture.shape[1]) < 1:
        raise ValueError(f"mixture {mixture.shape} needs {cfg.n_bins} bins and >= {cfg.num_frames(1)} frames")
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
    applies_g = rule.has_step and (sigma != 0.0 or not rule.sigma_enters)

    recorded = []  # (mixing, inconsistency, magnitude) of each iterate
    if on_iterate is not None:
        on_iterate(0, sources)

    # One pass per step, plus one that only records the last iterate's losses.
    for k in range(n_steps + record_losses):
        stepping = k < n_steps
        # Unchecked: the losses and every block of the step's result are checked instead.
        cons = g_operator(sources, cfg, check_finite=False) if record_losses or applies_g else None
        out = np.empty_like(sources) if cons is None else cons
        sums = [0.0, 0.0, 0.0]
        for b in frame_blocks(sources.shape):
            s, x, v, w, z = (a if np.ndim(a) == 0 else a[..., b] for a in (sources, mixture, mags, weights, cons))
            if record_losses:
                sums[0] += mixing_error(s, x)
                sums[1] += inconsistency(s, cfg, z)
                sums[2] += magnitude_mismatch(s, v)
                if not np.all(np.isfinite(sums)):
                    raise FloatingPointError(f"non-finite loss at iterate {k}")
            if stepping:
                block = step(s, x, v, w, sigma, z)
                if not np.all(np.isfinite(block)):
                    raise FloatingPointError("non-finite estimate produced")
                out[..., b] = block
        s = None  # the last block's view of S_k would keep it alive through the next G
        if record_losses:
            recorded.append(sums)
        if stepping:
            sources = out
            if on_iterate is not None:
                on_iterate(k + 1, sources)

    h, i, m = np.reshape(recorded, (-1, 3)).T.copy()
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
