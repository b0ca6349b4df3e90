"""Each family's step, and ``run``'s iterates, against the paper's formulas.

The reference is naive code built only from the public, checked projectors
``p_mag``, ``p_mix`` and ``p_cons`` and ``weights_magnitude_ratio``.  It
uses none of the unchecked kernels, the in-place blend or the shared
consistency projection that the steps use, so it is an independent
encoding of the paper's update table.
"""

import itertools

import numpy as np
import pytest

from specinv import algorithms
from specinv.algorithms import SIGMA_INF, AlgorithmSpec, Family, run
from specinv.projectors import p_cons, p_mag, p_mix, weights_magnitude_ratio
from specinv.spectral import StftConfig

CONFIGS = {
    "32/8": StftConfig(window_length=32, hop=8, sample_rate=8000),
    # Window 48, hop 8: 25 bins.  The id keeps the test names stable.
    "32/8/fft48": StftConfig(window_length=48, hop=8, sample_rate=8000),
}
SIGMAS = (0.0, 1e-9, 1.0, 1e9, SIGMA_INF)
SCHEMES = ("uniform", "magratio")
RTOL = 1e-12
N_FRAMES = 9

# The paper's families whose mixing weights are fixed at 1/J.
UNIFORM = {Family.MISI, Family.INCONS_HARDMIX, Family.MAG_INCONS_HARDMIX}
STEPPED = [f for f in Family if f is not Family.AM]


def _blend(y, z, lam, sigma):
    """(Y + sigma*Lambda*Z) / (1 + sigma*Lambda), and its limits at 0 and inf."""
    if sigma == 0.0:
        return y
    if sigma == SIGMA_INF:
        return z
    return (y + sigma * lam * z) / (1.0 + sigma * lam)


def naive_step(family, s, x, mags, lam, sigma, cfg):
    """One update of ``family`` written straight from the paper's table."""
    if family in UNIFORM:
        lam = np.full((s.shape[0],) + x.shape, 1.0 / s.shape[0])
    if family is Family.MISI:
        return p_mix(p_mag(p_cons(s, cfg), mags), x, lam)
    if family is Family.MIX_INCONS:
        return _blend(p_mix(s, x, lam), p_cons(s, cfg), lam, sigma)
    if family is Family.MIX_INCONS_HARDMAG:
        return p_mag(_blend(p_mix(s, x, lam), p_cons(s, cfg), lam, sigma), mags)
    if family is Family.INCONS_HARDMIX:
        return p_mix(p_cons(s, cfg), x, lam)
    if family is Family.MAG_INCONS_HARDMIX:
        return p_mix(_blend(p_mag(s, mags), p_cons(s, cfg), 1.0, sigma), x, lam)
    raise AssertionError(f"no step for {family}")


def naive_weights(family, scheme, mags):
    if family in UNIFORM or scheme == "uniform":
        return np.full(mags.shape, 1.0 / mags.shape[0])
    return weights_magnitude_ratio(mags)


def _problem(cfg, n_sources, seed):
    """Random sources, mixture and magnitudes, each with an all-zero bin.

    Magnitude bin (2, 3) is zero for every source (the magnitude-ratio
    weights fall back to 1/J there) and bin (4, 1) for the first source
    only; source bin (5, 6) and mixture bin (1, 5) are zero, so the phase
    of a zero entry is taken too.
    """
    rng = np.random.default_rng(seed)
    shape = (n_sources, cfg.n_bins, N_FRAMES)
    sources = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mixture = rng.standard_normal(shape[1:]) + 1j * rng.standard_normal(shape[1:])
    mags = rng.uniform(0.1, 2.0, shape)
    mags[:, 2, 3] = 0.0
    mags[0, 4, 1] = 0.0
    sources[:, 5, 6] = 0.0
    mixture[1, 5] = 0.0
    return sources, mixture, mags


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30)


def _step(family, s, x, mags, weights, sigma, cfg):
    # G(S) as run passes it: None where the row's formula at this sigma has no G.
    cons = None if algorithms.RULES[family].sigma_enters and sigma == 0.0 else p_cons(s, cfg)
    return getattr(algorithms, f"step_{family.value}")(s, x, mags, weights, sigma, cons)


@pytest.mark.parametrize("cfg_name", list(CONFIGS))
@pytest.mark.parametrize("n_sources", [1, 2, 3])
@pytest.mark.parametrize("family", STEPPED, ids=lambda f: f.value)
def test_step_matches_paper_formula(family, n_sources, cfg_name):
    cfg = CONFIGS[cfg_name]
    s, x, mags = _problem(cfg, n_sources, seed=n_sources)
    frozen = [a.copy() for a in (s, x, mags)]
    bad = []
    for sigma, scheme in itertools.product(SIGMAS, SCHEMES):
        lam = naive_weights(family, scheme, mags)
        # run hands the steps uniform weights as the scalar 1/J.
        weights = 1.0 / n_sources if family in UNIFORM or scheme == "uniform" else lam
        got = _step(family, s, x, mags, weights, sigma, cfg)
        err = _rel_err(got, naive_step(family, s, x, mags, lam, sigma, cfg))
        if not err <= RTOL:
            bad.append(f"sigma={sigma:g} {scheme}: {err:.1e}")
    assert not bad, "; ".join(bad)
    for before, after in zip(frozen, (s, x, mags)):
        assert np.array_equal(before, after), "a step wrote into its inputs"


@pytest.mark.parametrize("n_sources", [1, 2, 3])
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_run_iterates_match_paper_formula(family, n_sources):
    cfg = CONFIGS["32/8/fft48"]
    _, x, mags = _problem(cfg, n_sources, seed=10 + n_sources)
    # The amplitude mask: the target magnitudes with the mixture's phase.
    init = p_mag(np.broadcast_to(x, mags.shape), mags)
    bad = []
    for sigma, scheme in itertools.product(SIGMAS, SCHEMES):
        iterates = []
        spec = AlgorithmSpec(family=family, sigma=sigma, weight_scheme=scheme, iterations=2)
        trace = run(spec, x, mags, cfg, on_iterate=lambda k, s, signals, g_seconds: iterates.append(s.copy()),
                    record_losses=False)
        want = [init]
        if family is not Family.AM:
            lam = naive_weights(family, scheme, mags)
            for _ in range(2):
                want.append(naive_step(family, want[-1], x, mags, lam, sigma, cfg))
        assert trace.iterations == len(want) - 1
        assert len(iterates) == len(want)
        for k, (got, ref) in enumerate(zip(iterates, want)):
            err = _rel_err(got, ref)
            if not err <= RTOL:
                bad.append(f"sigma={sigma:g} {scheme} iterate {k}: {err:.1e}")
    assert not bad, "; ".join(bad)
