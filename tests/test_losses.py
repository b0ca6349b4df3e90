import numpy as np
import pytest

from specinv import (
    inconsistency,
    magnitude_mismatch,
    mixing_error,
    p_cons,
    p_mag,
    p_mix,
    stft,
)

from conftest import random_phase, random_sources


class TestMixingError:
    def test_zero_when_conservative(self, rng):
        sources = rng.standard_normal((2, 4, 5)) + 1j * rng.standard_normal((2, 4, 5))
        assert mixing_error(sources, sources.sum(axis=0)) == 0.0

    def test_scalar_arithmetic(self):
        sources = np.array([[[1.0 + 0j]], [[1.0 + 0j]]])
        mixture = np.array([[4.0 + 0j]])
        assert mixing_error(sources, mixture) == pytest.approx(4.0)

    def test_zeroed_by_p_mix(self, rng):
        sources = rng.standard_normal((2, 4, 5)) + 1j * rng.standard_normal((2, 4, 5))
        mixture = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        out = p_mix(sources, mixture, np.full((2, 4, 5), 1.0 / 2))
        assert mixing_error(out, mixture) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mixing_error(np.ones((2, 4, 5), complex), np.ones((4, 6), complex))


class TestInconsistency:
    @pytest.mark.parametrize(("shape", "cons_shape", "match"), [((33, 5), None, "J x F x T"),
                                                                ((2, 33, 5), (2, 33, 6), "consistent images")])
    def test_shape_checks(self, small_cfg, shape, cons_shape, match):
        cons = None if cons_shape is None else np.zeros(cons_shape, complex)
        with pytest.raises(ValueError, match=match):
            inconsistency(np.zeros(shape, complex), small_cfg, cons)

    def test_zero_for_stft_images(self, small_cfg, rng):
        _, specs = random_sources(rng, small_cfg)
        assert inconsistency(specs, small_cfg) < 1e-18 * np.sum(np.abs(specs) ** 2)

    def test_zeroed_by_p_cons(self, small_cfg, rng):
        _, specs = random_sources(rng, small_cfg)
        scrambled = random_phase(rng, specs)
        assert inconsistency(p_cons(scrambled, small_cfg), small_cfg) < 1e-10

    def test_matches_direct_recomputation(self, small_cfg, rng):
        from specinv import g_operator

        _, specs = random_sources(rng, small_cfg)
        scrambled = random_phase(rng, specs)
        direct = sum(
            np.sum(np.abs(s - g_operator(s, small_cfg)) ** 2) for s in scrambled
        )
        assert inconsistency(scrambled, small_cfg) == pytest.approx(direct, rel=1e-12)


class TestMagnitudeMismatch:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="sources and magnitudes"):
            magnitude_mismatch(np.ones((2, 4, 5), complex), np.ones((2, 4, 6)))

    def test_zero_on_match(self, rng):
        sources = rng.standard_normal((2, 4, 5)) + 1j * rng.standard_normal((2, 4, 5))
        assert magnitude_mismatch(sources, np.abs(sources)) == 0.0

    def test_scalar_arithmetic(self):
        sources = np.array([[[3.0 + 4.0j]]])
        mags = np.array([[[2.0]]])
        assert magnitude_mismatch(sources, mags) == pytest.approx(9.0)

    def test_zeroed_by_p_mag(self, rng):
        sources = rng.standard_normal((2, 4, 5)) + 1j * rng.standard_normal((2, 4, 5))
        mags = rng.uniform(0, 2, (2, 4, 5))
        assert magnitude_mismatch(p_mag(sources, mags), mags) < 1e-20


class TestPhaseInvariance:
    def test_global_rotation_preserves_m_but_not_h(self, small_cfg, rng):
        signals, specs = random_sources(rng, small_cfg)
        mixture = stft(np.sum(signals, axis=0), small_cfg)
        mags = rng.uniform(0.1, 1.0, specs.shape)
        rot = np.exp(1j * rng.uniform(0, 2 * np.pi, specs.shape[1:]))
        rotated = specs * rot[None]
        assert magnitude_mismatch(rotated, mags) == pytest.approx(
            magnitude_mismatch(specs, mags), rel=1e-12
        )
        assert mixing_error(rotated, mixture) != pytest.approx(
            mixing_error(specs, mixture), rel=1e-6
        )
