"""Unified alternating-projection engine for spectrogram inversion.

Every algorithm family is one row of the update table (``RULES``): a
composition of the magnitude, consistency and mixing projectors, possibly
blended by a consistency weight sigma.  The family's update is the module
function ``step_<family.value>`` (``am`` has none).  ``sigma = SIGMA_INF``
selects the analytic consistency-only limit; the formulas branch on it and
never perform floating-point arithmetic with infinity.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .losses import inconsistency, magnitude_mismatch, mixing_error
# p_cons is unused here, but stays bound: perfbench's tracer test reads algorithms.p_cons.
from .projectors import _as_magnitudes, _p_mag, _p_mix, _weights_magnitude_ratio, p_cons, unit_phasor
from .spectral import StftConfig, _fan_out, g_operator, tf_layout

# The step_* functions are internal: they skip the checks that run makes once.
__all__ = [
    "DEFAULT_MAX_ITERATIONS",
    "RULES",
    "SIGMA_INF",
    "WEIGHT_SCHEMES",
    "AlgorithmSpec",
    "Family",
    "Rule",
    "RunTrace",
    "init_amplitude_mask",
    "run",
]

SIGMA_INF = float("inf")

DEFAULT_MAX_ITERATIONS = 20
WEIGHT_SCHEMES = ("uniform", "magratio")  # mixing weights 1/J, or V_j / sum_k V_k per bin


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
    """One row of the paper's update table; the family steps iff ``step_<family.value>`` exists."""

    sigma_enters: bool  # sigma blends P_cons into the update
    uniform_weights: bool  # mixing weights fixed at 1/J
    fixed_iterations: int | None  # iterations the sweep and the CLI run; None = any
    combined_with: str | None  # "mixing" | "magnitude": the loss + sigma*inconsistency


RULES = {
    Family.AM: Rule(False, True, 0, None),  # no step_am: the initialization is the estimate, no weights used
    Family.MISI: Rule(False, True, None, None),
    Family.MIX_INCONS: Rule(True, False, None, "mixing"),
    Family.MIX_INCONS_HARDMAG: Rule(True, False, None, None),
    Family.INCONS_HARDMIX: Rule(False, True, 1, None),
    Family.MAG_INCONS_HARDMIX: Rule(True, True, None, "magnitude"),
}


@dataclass
class AlgorithmSpec:
    """Which algorithm to run and with what parameters."""

    family: Family
    sigma: float = 0.0
    weight_scheme: str = "magratio"  # one of WEIGHT_SCHEMES
    iterations: int = DEFAULT_MAX_ITERATIONS

    def __post_init__(self):
        self.family = Family(self.family)
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise ValueError(f"unknown weight scheme: {self.weight_scheme}")
        if not (_is_real(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be a number >= 0, got {self.sigma!r}")
        if not (_is_int(self.iterations) and self.iterations >= 0):
            raise ValueError(f"iterations must be an integer >= 0, got {self.iterations!r}")


@dataclass
class RunTrace:
    """Per-iteration losses plus the final estimates.

    Index 0 of each loss array is the amplitude-mask initialization, so the
    arrays have ``iterations + 1`` entries.  ``signals`` is G's overlap-added
    signal of each source of the estimates, ``istft(estimates[j], cfg,
    cfg.max_samples(T))`` bit for bit, where ``run`` computed G of the
    estimates: when it recorded the losses.  Otherwise it is None.
    """

    mixing: np.ndarray
    inconsistency: np.ndarray
    magnitude: np.ndarray
    combined: np.ndarray | None
    estimates: np.ndarray
    iterations: int
    warnings: list[str] = field(default_factory=list)
    signals: list[np.ndarray] | None = None


def init_amplitude_mask(mixture: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Amplitude-mask estimates: target magnitudes with the mixture's phase.

    Checks its inputs (``ValueError``): an F x T mixture, J x F x T
    magnitudes with J >= 1, finite entries, magnitudes >= 0.
    """
    mixture = np.asarray(mixture, dtype=np.complex128)
    mags = _as_magnitudes(mags, np.shape(mags)[:1] + mixture.shape)
    if not np.all(np.isfinite(mixture)):
        raise ValueError("mixture contains non-finite entries")
    return unit_phasor(mixture)[None] * mags


# Complex bytes per frame block: the steps and the losses work one block at
# a time, so their temporaries stay in a 2 MiB L2 cache.
_BLOCK_BYTES = 1 << 19


def frame_blocks(shape: tuple[int, ...]):
    """Slices of the frame (last) axis, in order, of ~``_BLOCK_BYTES`` of complex data each."""
    width = max(1, _BLOCK_BYTES // (16 * max(1, math.prod(shape[:-1]))))
    return (slice(t, t + width) for t in range(0, shape[-1], width))


# The steps share one signature, so ``run`` calls every family alike.  They are the
# paper's formulas, bin by bin, on the projectors' unchecked kernels: ``run`` validates
# its inputs once and applies a step per frame block, each result checked
# (``_block_pass``).  ``mags`` is trusted to be >= 0 and of the sources' shape.
# ``weights`` is the family's Lambda, an array of that shape or the scalar 1/J (``run``
# passes 1/J to the rows with uniform weights).  ``cons`` is G(S), the consistent image
# ``p_cons(sources, cfg)``, or None where neither the formula at this sigma nor the
# loss record needs it; only ``run`` computes it.  A step ignores the arguments its
# formula does not use.


def _blend_in_place(y: np.ndarray, z: np.ndarray, weights, sigma: float) -> np.ndarray:
    """(Y + sigma*Lambda*Z) / (1 + sigma*Lambda) for finite sigma, written into ``y``
    as Z + a*(Y - Z) with the real a = 1/(1 + sigma*Lambda): no complex division."""
    y -= z
    y *= 1.0 / (1.0 + sigma * weights)
    y += z
    return y


def _all_finite(block: np.ndarray) -> bool:
    """``np.all(np.isfinite(block))`` for a (T, F)-memory block, as two reductions:
    NaN propagates through min and max, and +-inf is their extreme."""
    d = block.swapaxes(-1, -2).view(np.float64)
    return bool(-np.inf < d.min() and d.max() < np.inf)


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


def _block_pass(step, sources, mixture, mags, weights, sigma, cons, cfg, k=0, record_losses=False):
    """Iterate k's pass over the frame blocks (see ``run``): the step's result, written over ``cons``
    (a new array where that is None), and the three loss sums (zeros where not recorded)."""
    blocks = list(frame_blocks(sources.shape))
    out = np.empty_like(sources) if cons is None else cons

    def blocks_of(first, stop):  # in a pool thread, but for the first range
        block_losses = []
        for b in blocks[first:stop]:
            s, x, v, w, z = (a if np.ndim(a) == 0 else a[..., b] for a in (sources, mixture, mags, weights, cons))
            if record_losses:
                block_losses.append((mixing_error(s, x), inconsistency(s, cfg, z), magnitude_mismatch(s, v)))
                if not all(map(math.isfinite, block_losses[-1])):
                    raise FloatingPointError(f"non-finite loss at iterate {k}")
            if step is not None:
                block = step(s, x, v, w, sigma, z)
                if not _all_finite(block):
                    raise FloatingPointError("non-finite estimate produced")
                out[..., b] = block
        return block_losses

    sums = [0.0, 0.0, 0.0]
    for losses in sum(_fan_out(blocks_of, len(blocks)), []):  # in frame order
        sums = [t + loss for t, loss in zip(sums, losses)]
    if not all(map(math.isfinite, sums)):
        raise FloatingPointError(f"non-finite loss at iterate {k}")
    return out, sums


def run(
    spec: AlgorithmSpec,
    mixture: np.ndarray,
    mags: np.ndarray,
    cfg: StftConfig,
    on_iterate=None,
    record_losses: bool = True,
) -> RunTrace:
    """Run an algorithm from the amplitude-mask initialization.

    Records all three losses at every iterate (index 0 = initialization);
    batch drivers that only need the estimates pass ``record_losses=False``.
    Deterministic for fixed inputs.  The inputs are checked once, here
    (``ValueError``): by ``init_amplitude_mask``, then the mixture's bins and
    frames against ``cfg``; then they are put in (J, T, F) memory.

    Iterate k is one pass: G(S_k) where the step or the loss record needs it
    (so recording the losses costs one extra G per run, at the last iterate),
    then ``on_iterate(k, S_k, signals, seconds)``, then one pass over frame
    blocks (``frame_blocks``: about 512 KiB of the source set, so the
    temporaries stay in cache).  ``signals`` holds G's overlap-added signal
    of each source, ``cfg.max_samples(T)`` samples equal bit for bit to
    ``istft(S_k[j], cfg, cfg.max_samples(T))``, or is None where ``run``
    computes no G(S_k): a step without G at this sigma, and the last iterate
    without losses.  ``seconds`` is ``run``'s own ``time.perf_counter`` time
    up to S_k: since entry, less G(S_k) and the earlier observer calls.  So
    iterate k covers the input checks, the initialization, k steps and the k
    Gs that produced S_k.  The observer must not mutate its arguments.  The
    trace keeps the last iterate's signals (``RunTrace.signals``).

    The pass splits the blocks into contiguous ranges, one per thread of G's
    budget (``spectral._fan_out``): the calling thread takes the first, G's
    pool the others.  Each thread takes its blocks in frame order: the
    block's three losses of S_k, then the step, its result written over that
    block of G(S_k), which nothing reads again.  A non-finite loss or result
    raises ``FloatingPointError``; the first range's error, so the first in
    frame order, is raised; blocks of later ranges may be stepped by then.
    The calling thread then adds the block losses in frame order and raises
    at a non-finite total: so where only the total overflows, a non-finite
    step raises first, wherever it is.  The estimates are the same bit for
    bit as on whole arrays at any thread count; each loss is summed pairwise
    within a block, then the block sums in frame order.
    """
    started = time.perf_counter()
    sources = tf_layout(init_amplitude_mask(mixture, mags))  # checks the arrays; their fit to cfg below
    mixture = tf_layout(np.asarray(mixture, dtype=np.complex128))
    mags = tf_layout(np.asarray(mags, dtype=np.float64))
    if mixture.shape[0] != cfg.n_bins or cfg.max_samples(mixture.shape[1]) < 1:
        raise ValueError(f"mixture {mixture.shape} needs {cfg.n_bins} bins and >= {cfg.num_frames(1)} frames")
    rule, sigma = RULES[spec.family], spec.sigma
    # The rows with fixed 1/J weights ignore weight_scheme without a note:
    # the default scheme is magratio, so a note would fire on defaults.
    warnings = [f"sigma is ignored by {spec.family.value}"] if not rule.sigma_enters and sigma != 0.0 else []
    if rule.uniform_weights or spec.weight_scheme == "uniform":
        weights = 1.0 / mags.shape[0]
    else:
        weights = _weights_magnitude_ratio(mags)  # mags checked by init_amplitude_mask
    # Looked up when run is called, not at import, so a wrapped step is used.
    step = globals().get(f"step_{spec.family.value}")
    n_steps = spec.iterations if step is not None else 0
    applies_g = sigma != 0.0 or not rule.sigma_enters  # read only while stepping

    recorded = []  # (mixing, inconsistency, magnitude) of each iterate; the last pass only records and observes
    for k in range(n_steps + 1):
        stepping = k < n_steps
        needs_g = record_losses or (stepping and applies_g)
        signals = [] if needs_g and (on_iterate is not None or not stepping) else None
        before_g = time.perf_counter()
        # Unchecked: the losses and every block of the step's result are checked instead.
        cons = g_operator(sources, cfg, check_finite=False, _signals=signals) if needs_g else None
        if on_iterate is not None:
            entered = time.perf_counter()
            on_iterate(k, sources, signals, before_g - started)
            started += time.perf_counter() - entered  # the observer's time is not run's
        if stepping:
            signals = None  # free the signals before the block pass
        elif not record_losses:
            break
        out, sums = _block_pass(step if stepping else None, sources, mixture, mags, weights, sigma, cons, cfg,
                                k, record_losses)
        if record_losses:
            recorded.append(sums)
        if stepping:
            sources = out

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
        signals=signals,
    )
