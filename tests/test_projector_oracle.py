"""The projector kernels against naive per-bin Python loops.

``unit_phasor``, ``_p_mag``, ``_p_mix`` and ``weights_magnitude_ratio`` are
vectorised and patch special bins after the fact.  The references below
visit one time-frequency bin at a time with Python scalars and spell out
each rule: a zero bin has phase 1, the mixing residual is split by the
weights, and a bin whose total magnitude is at or below 1e-12 times the
largest magnitude gets the uniform 1/J split.
"""

import cmath

import numpy as np
import pytest

from specinv.projectors import _p_mag, _p_mix, p_mag, unit_phasor, weights_magnitude_ratio

SHAPE = (6, 9)  # F x T
EPS = np.finfo(np.float64).eps


def naive_unit_phasor(s):
    """exp(i arg s) from atan2, which keeps its accuracy where |s| is
    subnormal; s / abs(s) would divide by a |s| rounded to 14 digits there."""
    out = np.empty(s.shape, dtype=np.complex128)
    for idx in np.ndindex(s.shape):
        value = complex(s[idx])
        out[idx] = cmath.rect(1.0, cmath.phase(value)) if value != 0 else 1.0
    return out


def naive_p_mag(s, mags):
    out = np.empty(s.shape, dtype=np.complex128)
    for idx in np.ndindex(s.shape):
        out[idx] = complex(naive_unit_phasor(s[idx])) * float(mags[idx])
    return out


def naive_p_mix(s, mixture, weights):
    out = np.empty(s.shape, dtype=np.complex128)
    n_sources = s.shape[0]
    for f, t in np.ndindex(mixture.shape):
        residual = complex(mixture[f, t]) - sum(complex(s[j, f, t]) for j in range(n_sources))
        for j in range(n_sources):
            w = float(weights if np.ndim(weights) == 0 else weights[j, f, t])
            out[j, f, t] = complex(s[j, f, t]) + w * residual
    return out


def naive_weights(mags):
    n_sources = mags.shape[0]
    floor = 1e-12 * float(mags.max())
    out = np.empty(mags.shape)
    for f, t in np.ndindex(mags.shape[1:]):
        total = sum(float(mags[j, f, t]) for j in range(n_sources))
        for j in range(n_sources):
            out[j, f, t] = float(mags[j, f, t]) / total if total > floor else 1.0 / n_sources
    return out


def _complex(rng, shape):
    """Random bins plus exact zeros (of both signs) and subnormal ones."""
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flat = s.reshape(-1)
    flat[:3] = [0.0, complex(-0.0, -0.0), complex(0.0, -0.0)]
    flat[3:6] = [5e-324, complex(-1e-310, 3e-312), 1j * 2e-308]
    flat[6] = complex(1e300, -1e300)
    return s


def _mags(rng, n_sources):
    """Magnitudes whose largest entry is 1, so the floor is exactly 1e-12."""
    mags = rng.uniform(0.0, 0.9, (n_sources, *SHAPE))
    mags[0, 0, 0] = 1.0
    mags[:, 1, 0] = 0.0  # silent bin
    mags[:, 2, 0] = 1e-12 / n_sources if n_sources != 3 else [1e-12, 0.0, 0.0]  # at the floor
    mags[:, 3, 0] = 0.0
    mags[0, 3, 0] = np.nextafter(1e-12, 1.0)  # just above the floor
    mags[:, 4, 0] = [1e-13 * (j + 1) for j in range(n_sources)]  # below it, not zero
    return mags


def test_unit_phasor_matches_per_bin_loop(rng):
    s = _complex(rng, SHAPE)
    got = unit_phasor(s)
    np.testing.assert_allclose(got, naive_unit_phasor(s), rtol=0, atol=4 * EPS)
    assert np.all(got.reshape(-1)[:3] == 1.0)  # the zero bins, whatever their sign
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(np.abs(got), 1.0, rtol=0, atol=2 * EPS)
    assert unit_phasor(0j) == 1.0 and unit_phasor(np.complex128(5e-324)) == pytest.approx(1.0)


def test_unit_phasor_where_the_modulus_overflows(rng):
    # Finite bins whose |s| rounds to inf: 1/|s| would be 0, and so the phasor.
    huge = np.array([1.5e308 + 1.5e308j, complex(-1.2e308, 1.5e308), complex(0.0, -1.6e308) * (1 + 1j)])
    ordinary = _complex(rng, (12,))
    got = unit_phasor(np.concatenate([huge, ordinary]))
    np.testing.assert_allclose(got[:3], naive_unit_phasor(huge), rtol=0, atol=4 * EPS)
    assert np.array_equal(got[3:], unit_phasor(ordinary))  # every other bin as before
    np.testing.assert_allclose(np.abs(p_mag(huge[None, None], np.full((1, 1, 3), 2.0))), 2.0, rtol=4 * EPS)


def _unit_phasor_masked(s):
    """``unit_phasor`` with its patch mask built on every call, as it was."""
    s = np.asarray(s, dtype=np.complex128)
    inv = np.abs(s, out=np.empty_like(s, dtype=np.float64))
    patch = ~((inv >= np.finfo(np.float64).tiny) & (inv < np.inf))
    scaled = s[patch] * np.where(inv[patch] < 1.0, 2.0**600, 2.0**-600)
    inv[patch] = 1.0
    np.reciprocal(inv, out=inv)
    out = np.multiply(s, inv, out=np.empty_like(s))
    out[patch] = np.divide(scaled, np.abs(scaled), out=np.ones_like(scaled), where=np.abs(scaled) > 0)
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("special", [None, 0.0, 5e-324, 1.5e308 + 1.5e308j, np.nan, complex(1.0, np.nan),
                                     np.inf, complex(1.0, -np.inf), complex(np.inf, np.nan)])
def test_unit_phasor_builds_its_mask_only_when_needed(rng, special):
    # Whether any bin needs the patch is read from |s|'s min and max; the
    # result is the always-masked one bit for bit, non-finite bins included.
    s = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
    if special is not None:
        s[1, 2, 3] = special
    for x in (s, s.transpose(0, 2, 1), s[:, :, :0], s[1, 2, 3]):
        got, want = unit_phasor(x), _unit_phasor_masked(x)
        assert got.shape == want.shape
        bits = [np.ascontiguousarray(a).view(np.uint64) for a in (got, want)]  # ndim >= 1
        assert np.array_equal(*bits), special


@pytest.mark.parametrize("n_sources", (1, 2, 3))
def test_p_mag_matches_per_bin_loop(rng, n_sources):
    s = np.stack([_complex(rng, SHAPE) for _ in range(n_sources)])
    mags = _mags(rng, n_sources)
    np.testing.assert_allclose(_p_mag(s, mags), naive_p_mag(s, mags), rtol=4 * EPS, atol=0)


@pytest.mark.parametrize("n_sources", (1, 2, 3))
def test_weights_match_per_bin_loop(rng, n_sources):
    mags = _mags(rng, n_sources)
    got = weights_magnitude_ratio(mags)
    np.testing.assert_allclose(got, naive_weights(mags), rtol=EPS, atol=0)
    uniform = 1.0 / n_sources
    assert np.all(got[:, 1, 0] == uniform) and np.all(got[:, 2, 0] == uniform)  # zero, at the floor
    assert got[0, 3, 0] == 1.0  # above the floor, all on one source
    assert np.all(got[:, 4, 0] == uniform)  # below the floor, though not zero
    assert np.all(got[1:, 3, 0] == 0.0)
    np.testing.assert_allclose(got.sum(axis=0), 1.0, rtol=0, atol=4 * EPS)


@pytest.mark.parametrize("n_sources", (1, 2, 3))
def test_p_mix_matches_per_bin_loop(rng, n_sources):
    s = rng.standard_normal((n_sources, *SHAPE)) + 1j * rng.standard_normal((n_sources, *SHAPE))
    s[:, 0, 0] = 0.0  # a zero bin in every source
    mixture = rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE)
    mixture[1, 1] = 0.0
    for weights in (1.0 / n_sources, weights_magnitude_ratio(_mags(rng, n_sources))):
        got = _p_mix(s, mixture, weights)
        want = naive_p_mix(s, mixture, weights)
        np.testing.assert_allclose(got, want, rtol=0, atol=8 * EPS * np.abs(want).max())
        np.testing.assert_allclose(got.sum(axis=0), mixture, rtol=0, atol=8 * EPS * np.abs(mixture).max())
