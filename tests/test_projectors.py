import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specinv import (
    p_cons,
    p_mag,
    p_mix,
    weights_magnitude_ratio,
)
from specinv.losses import inconsistency, magnitude_mismatch, mixing_error

from conftest import random_phase, random_sources


class TestWeights:
    def test_magnitude_ratio_direct(self):
        mags = np.array([[[3.0]], [[1.0]]])
        w = weights_magnitude_ratio(mags)
        assert w[0, 0, 0] == pytest.approx(0.75)
        assert w[1, 0, 0] == pytest.approx(0.25)

    def test_magnitude_ratio_zero_bin_falls_back_to_uniform(self):
        mags = np.array([[[0.0, 3.0]], [[0.0, 1.0]]])
        w = weights_magnitude_ratio(mags)
        assert w[0, 0, 0] == 0.5
        assert w[1, 0, 0] == 0.5

    def test_magnitude_ratio_sums_to_one(self, rng):
        mags = rng.uniform(0, 1, (3, 8, 10))
        w = weights_magnitude_ratio(mags)
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) < 1e-12

    def test_magnitude_ratio_rejects_negative(self):
        with pytest.raises(ValueError, match="invalid magnitude"):
            weights_magnitude_ratio(np.array([[[-1.0]]]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), n_sources=st.integers(1, 4))
    def test_magnitude_ratio_sum_to_one_property(self, seed, n_sources):
        mags = np.random.default_rng(seed).uniform(0, 10, (n_sources, 4, 5))
        w = weights_magnitude_ratio(mags)
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) < 1e-12
        assert np.all(w >= 0)


class TestPMag:
    def test_scales_along_phase(self):
        out = p_mag(np.array([[[3.0 + 4.0j]]]), np.array([[[10.0]]]))
        assert out[0, 0, 0] == pytest.approx(6.0 + 8.0j)

    def test_zero_input_gets_unit_phase(self):
        out = p_mag(np.array([[[0.0 + 0.0j]]]), np.array([[[2.0]]]))
        assert out[0, 0, 0] == pytest.approx(2.0 + 0.0j)

    def test_magnitude_exact(self, rng):
        sources = rng.standard_normal((2, 8, 10)) + 1j * rng.standard_normal((2, 8, 10))
        mags = rng.uniform(0, 2, (2, 8, 10))
        out = p_mag(sources, mags)
        assert np.max(np.abs(np.abs(out) - mags)) < 1e-12

    def test_phase_preserved(self, rng):
        sources = rng.standard_normal((2, 8, 10)) + 1j * rng.standard_normal((2, 8, 10))
        mags = rng.uniform(0.1, 2, (2, 8, 10))
        out = p_mag(sources, mags)
        dphi = np.angle(out * np.conj(sources))
        assert np.max(np.abs(dphi)) < 1e-12

    def test_rejects_negative_magnitude(self):
        with pytest.raises(ValueError, match="invalid magnitude"):
            p_mag(np.ones((1, 2, 2), complex), -np.ones((1, 2, 2)))

    def test_zeroes_magnitude_loss(self, rng):
        sources = rng.standard_normal((2, 8, 10)) + 1j * rng.standard_normal((2, 8, 10))
        mags = rng.uniform(0, 2, (2, 8, 10))
        assert magnitude_mismatch(p_mag(sources, mags), mags) < 1e-20 * np.sum(mags**2) + 1e-25


class TestPCons:
    def test_identity_on_consistent(self, small_cfg, rng):
        _, specs = random_sources(rng, small_cfg)
        out = p_cons(specs, small_cfg)
        assert np.linalg.norm(out - specs) <= 1e-10 * np.linalg.norm(specs)

    def test_idempotent(self, small_cfg, rng):
        _, specs = random_sources(rng, small_cfg)
        scrambled = random_phase(rng, specs)
        once = p_cons(scrambled, small_cfg)
        twice = p_cons(once, small_cfg)
        assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(once)

    def test_zeroes_inconsistency(self, small_cfg, rng):
        _, specs = random_sources(rng, small_cfg)
        scrambled = random_phase(rng, specs)
        out = p_cons(scrambled, small_cfg)
        assert inconsistency(out, small_cfg) < 1e-10

    def test_per_source_independence(self, small_cfg, rng):
        _, specs = random_sources(rng, small_cfg, n_sources=3)
        scrambled = random_phase(rng, specs)
        joint = p_cons(scrambled, small_cfg)
        solo = np.stack([p_cons(s[None], small_cfg)[0] for s in scrambled])
        assert np.array_equal(joint, solo)


class TestPMix:
    def test_symmetric_residual_split(self):
        sources = np.array([[[1.0 + 0j]], [[1.0 + 0j]]])
        mixture = np.array([[4.0 + 0j]])
        out = p_mix(sources, mixture, np.full((2, 1, 1), 1.0 / 2))
        assert out[0, 0, 0] == pytest.approx(2.0)
        assert out[1, 0, 0] == pytest.approx(2.0)

    def test_already_conservative_unchanged(self, rng):
        sources = rng.standard_normal((2, 4, 5)) + 1j * rng.standard_normal((2, 4, 5))
        mixture = sources.sum(axis=0)
        out = p_mix(sources, mixture, np.full((2, 4, 5), 1.0 / 2))
        assert np.max(np.abs(out - sources)) < 1e-12 * np.max(np.abs(sources))

    def test_conservative_with_magnitude_ratio_weights(self, rng):
        sources = rng.standard_normal((3, 6, 7)) + 1j * rng.standard_normal((3, 6, 7))
        mixture = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
        weights = weights_magnitude_ratio(rng.uniform(0, 1, (3, 6, 7)))
        out = p_mix(sources, mixture, weights)
        err = np.linalg.norm(out.sum(axis=0) - mixture)
        assert err <= 1e-10 * np.linalg.norm(mixture)

    def test_zeroes_mixing_loss(self, rng):
        sources = rng.standard_normal((2, 4, 5)) + 1j * rng.standard_normal((2, 4, 5))
        mixture = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        out = p_mix(sources, mixture, np.full((2, 4, 5), 1.0 / 2))
        assert mixing_error(out, mixture) < 1e-18 * np.sum(np.abs(mixture) ** 2)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="shape mismatch"):
            p_mix(np.ones((2, 4, 5), complex), np.ones((4, 6), complex), np.full((2, 4, 5), 1.0 / 2))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), uniform=st.booleans())
    def test_conservative_property(self, seed, uniform):
        gen = np.random.default_rng(seed)
        sources = gen.standard_normal((2, 4, 5)) + 1j * gen.standard_normal((2, 4, 5))
        mixture = gen.standard_normal((4, 5)) + 1j * gen.standard_normal((4, 5))
        if uniform:
            weights = np.full((2, 4, 5), 1.0 / 2)
        else:
            weights = weights_magnitude_ratio(gen.uniform(0, 1, (2, 4, 5)))
        out = p_mix(sources, mixture, weights)
        err = np.linalg.norm(out.sum(axis=0) - mixture)
        assert err <= 1e-10 * max(np.linalg.norm(mixture), 1.0)
