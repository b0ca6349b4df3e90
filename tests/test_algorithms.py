import re

import numpy as np
import pytest

from specinv import (
    SIGMA_INF,
    AlgorithmSpec,
    Family,
    init_amplitude_mask,
    p_cons,
    p_mag,
    p_mix,
    run,
    stft,
    weights_magnitude_ratio,
)
from specinv import algorithms
from specinv.algorithms import (
    RULES,
    _blend_in_place,
    step_incons_hardmix,
    step_mag_incons_hardmix,
    step_misi,
    step_mix_incons,
    step_mix_incons_hardmag,
)
from specinv.projectors import unit_phasor

from conftest import random_sources


def synthetic_problem(rng, cfg, n_samples=800, n_sources=2):
    """Mixture STFT and oracle magnitudes for a random 2-source mix."""
    signals, specs = random_sources(rng, cfg, n_sources=n_sources, n_samples=n_samples)
    mixture = stft(np.sum(signals, axis=0), cfg)
    mags = np.abs(specs)
    return mixture, mags


class TestInit:
    def test_unit_phasor_example(self):
        out = init_amplitude_mask(np.array([[2.0j]]), np.array([[[3.0]]]))
        assert out[0, 0, 0] == pytest.approx(3.0j)

    def test_zero_mixture_bin(self):
        out = init_amplitude_mask(np.array([[0.0 + 0j]]), np.array([[[1.0]]]))
        assert out[0, 0, 0] == pytest.approx(1.0)

    def test_magnitudes_and_shared_phase(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        init = init_amplitude_mask(mixture, mags)
        assert np.max(np.abs(np.abs(init) - mags)) < 1e-12
        phasor = unit_phasor(mixture)
        for j in range(2):
            mask = mags[j] > 0
            assert np.max(np.abs(unit_phasor(init[j])[mask] - phasor[mask])) < 1e-12

    def test_rejects_shape_mismatch_and_negative_magnitude(self):
        mixture = np.ones((3, 4), complex)
        with pytest.raises(ValueError, match="shape mismatch"):
            init_amplitude_mask(mixture, np.ones((2, 3, 5)))
        with pytest.raises(ValueError, match="invalid magnitude"):
            init_amplitude_mask(mixture, np.full((2, 3, 4), -1.0))


class TestSteps:
    def test_misi_output_conservative(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        out = step_misi(sources, mixture, mags, 1 / len(mags), 0.0, p_cons(sources, small_cfg))
        err = np.linalg.norm(out.sum(axis=0) - mixture)
        assert err <= 1e-10 * np.linalg.norm(mixture)

    def test_misi_moves_from_am_init(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        out = step_misi(sources, mixture, mags, 1 / len(mags), 0.0, p_cons(sources, small_cfg))
        assert np.linalg.norm(out - sources) > 0

    def test_misi_fixed_point(self, small_cfg, rng):
        # A consistent, conservative set matching its own magnitudes.
        signals, specs = random_sources(rng, small_cfg)
        mixture = stft(np.sum(signals, axis=0), small_cfg)
        out = step_misi(specs, mixture, np.abs(specs), 1 / len(specs), 0.0, p_cons(specs, small_cfg))
        assert np.linalg.norm(out - specs) <= 1e-10 * np.linalg.norm(specs)

    def test_blend_toy_example(self):
        y = np.array([[[1.0 + 1.0j]]])
        z = np.array([[[3.0 - 1.0j]]])
        lam = np.array([[[0.5]]])
        out = _blend_in_place(y.copy(), z, lam, sigma=2.0)
        assert out[0, 0, 0] == pytest.approx((y[0, 0, 0] + z[0, 0, 0]) / 2)

    def test_mix_incons_sigma_zero_is_p_mix(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        weights = weights_magnitude_ratio(mags)
        out = step_mix_incons(sources, mixture, mags, weights, 0.0, None)
        ref = p_mix(sources, mixture, weights)
        assert np.max(np.abs(out - ref)) <= 1e-15

    def test_mix_incons_sigma_inf_is_p_cons(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        weights = weights_magnitude_ratio(mags)
        out = step_mix_incons(sources, mixture, mags, weights, SIGMA_INF, p_cons(sources, small_cfg))
        assert np.array_equal(out, p_cons(sources, small_cfg))

    def test_hardmag_sigma_zero_is_pu_iter(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        weights = weights_magnitude_ratio(mags)
        out = step_mix_incons_hardmag(sources, mixture, mags, weights, 0.0, None)
        ref = p_mag(p_mix(sources, mixture, weights), mags)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_hardmag_sigma_inf_is_griffin_lim(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        weights = weights_magnitude_ratio(mags)
        out = step_mix_incons_hardmag(sources, mixture, mags, weights, SIGMA_INF, p_cons(sources, small_cfg))
        ref = p_mag(p_cons(sources, small_cfg), mags)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_hardmag_magnitudes_exact_any_sigma(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        weights = weights_magnitude_ratio(mags)
        for sigma in (0.0, 0.5, 3.0, SIGMA_INF):
            cons = p_cons(sources, small_cfg) if sigma else None
            out = step_mix_incons_hardmag(sources, mixture, mags, weights, sigma, cons)
            assert np.max(np.abs(np.abs(out) - mags)) < 1e-12

    def test_incons_hardmix_conservative(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        out = step_incons_hardmix(sources, mixture, mags, 1 / len(mags), 0.0, p_cons(sources, small_cfg))
        err = np.linalg.norm(out.sum(axis=0) - mixture)
        assert err <= 1e-10 * np.linalg.norm(mixture)

    def test_incons_hardmix_non_iterative(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        once = step_incons_hardmix(sources, mixture, mags, 1 / len(mags), 0.0, p_cons(sources, small_cfg))
        twice = step_incons_hardmix(once, mixture, mags, 1 / len(mags), 0.0, p_cons(once, small_cfg))
        assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(once)

    def test_incons_hardmix_equals_pmix_of_pcons(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        out = step_incons_hardmix(sources, mixture, mags, 1 / len(mags), 0.0, p_cons(sources, small_cfg))
        uni = np.full((2,) + mixture.shape, 1.0 / 2)
        ref = p_mix(p_cons(sources, small_cfg), mixture, uni)
        assert np.array_equal(out, ref)

    def test_mag_incons_hardmix_conservative(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        for sigma in (0.0, 1.0, SIGMA_INF):
            cons = p_cons(sources, small_cfg) if sigma else None
            out = step_mag_incons_hardmix(sources, mixture, mags, 1 / len(mags), sigma, cons)
            err = np.linalg.norm(out.sum(axis=0) - mixture)
            assert err <= 1e-10 * np.linalg.norm(mixture)

    def test_mag_incons_hardmix_sigma_inf_matches_incons_hardmix(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        out = step_mag_incons_hardmix(sources, mixture, mags, 1 / len(mags), SIGMA_INF, p_cons(sources, small_cfg))
        ref = step_incons_hardmix(sources, mixture, mags, 1 / len(mags), 0.0, p_cons(sources, small_cfg))
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_mag_incons_hardmix_sigma_zero_closed_form(self, small_cfg, rng):
        # One step from the AM init equals the mixture-phase closed form.
        mixture, mags = synthetic_problem(rng, small_cfg)
        sources = init_amplitude_mask(mixture, mags)
        out = step_mag_incons_hardmix(sources, mixture, mags, 1 / len(mags), 0.0, None)
        phasor = unit_phasor(mixture)
        closed = (mags + (np.abs(mixture) - mags.sum(axis=0))[None] / 2) * phasor[None]
        assert np.linalg.norm(out - closed) <= 1e-10 * np.linalg.norm(closed)


class TestRules:
    def test_every_family_has_a_row(self):
        assert set(RULES) == set(Family)

    def test_every_row_with_a_step_has_its_function(self):
        for family, rule in RULES.items():
            assert callable(getattr(algorithms, f"step_{family.value}", None)) is rule.has_step

    def test_run_calls_the_module_level_step(self, small_cfg, rng, monkeypatch):
        mixture, mags = synthetic_problem(rng, small_cfg)
        calls = []
        real = algorithms.step_misi

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(algorithms, "step_misi", counting)
        trace = run(AlgorithmSpec(family=Family.MISI, iterations=4), mixture, mags, small_cfg)
        assert len(calls) == trace.iterations == 4


class TestSpec:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            AlgorithmSpec(family=Family.MIX_INCONS, sigma=-1.0)

    def test_sigma_warning_for_sigma_free_family(self):
        spec = AlgorithmSpec(family=Family.MISI, sigma=2.0)
        assert any("ignored" in w for w in spec.validation_warnings())

    def test_accepts_string_family(self):
        assert AlgorithmSpec(family="misi").family is Family.MISI

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_default_spec_has_no_warnings(self, family):
        # The rows with fixed 1/J weights ignore the default magratio scheme silently.
        assert AlgorithmSpec(family=family).validation_warnings() == []

    @pytest.mark.parametrize("kwargs", [{"iterations": 2.5}, {"iterations": True}, {"sigma": "1"}],
                             ids=["float_iterations", "bool_iterations", "str_sigma"])
    def test_rejects_wrong_types(self, kwargs):
        with pytest.raises(ValueError):
            AlgorithmSpec(family=Family.MIX_INCONS, **kwargs)


class TestRun:
    def test_am_trace_length_one(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        trace = run(AlgorithmSpec(family=Family.AM), mixture, mags, small_cfg)
        assert trace.iterations == 0
        assert len(trace.mixing) == 1
        assert np.array_equal(trace.estimates, init_amplitude_mask(mixture, mags))

    def test_am_computes_no_weights(self, small_cfg, rng, monkeypatch):
        mixture, mags = synthetic_problem(rng, small_cfg)

        def fail(*_):
            raise AssertionError("am has no step to use mixing weights")

        monkeypatch.setattr(algorithms, "_weights_magnitude_ratio", fail)
        run(AlgorithmSpec(family=Family.AM, weight_scheme="magratio"), mixture, mags, small_cfg)

    def test_zero_iterations_returns_init(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        trace = run(AlgorithmSpec(family=Family.MISI, iterations=0), mixture, mags, small_cfg)
        assert np.array_equal(trace.estimates, init_amplitude_mask(mixture, mags))

    def test_trace_length(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        trace = run(AlgorithmSpec(family=Family.MISI, iterations=7), mixture, mags, small_cfg)
        assert trace.iterations == 7
        assert len(trace.mixing) == len(trace.inconsistency) == len(trace.magnitude) == 8

    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    def test_mix_incons_descent(self, small_cfg, sigma):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            mixture, mags = synthetic_problem(gen, small_cfg)
            spec = AlgorithmSpec(family=Family.MIX_INCONS, sigma=sigma, iterations=20)
            trace = run(spec, mixture, mags, small_cfg)
            comb = trace.combined
            slack = 1e-9 * np.maximum(np.abs(comb[:-1]), 1e-30)
            assert np.all(np.diff(comb) <= slack)

    def test_mag_incons_hardmix_descent_and_conservativity(self, small_cfg):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            mixture, mags = synthetic_problem(gen, small_cfg)
            spec = AlgorithmSpec(family=Family.MAG_INCONS_HARDMIX, sigma=1.0, iterations=20)
            collected = []
            trace = run(spec, mixture, mags, small_cfg,
                        on_iterate=lambda k, s, signals, g_seconds: collected.append(s.copy()))
            # Descent over the mixing-feasible iterates (the AM init is not).
            comb = trace.combined[1:]
            slack = 1e-9 * np.maximum(np.abs(comb[:-1]), 1e-30)
            assert np.all(np.diff(comb) <= slack)
            for sources in collected[1:]:
                err = np.linalg.norm(sources.sum(axis=0) - mixture)
                assert err <= 1e-10 * np.linalg.norm(mixture)

    def test_griffin_lim_magnitude_descent(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        spec = AlgorithmSpec(family=Family.MIX_INCONS_HARDMAG, sigma=SIGMA_INF, iterations=20)
        trace = run(spec, mixture, mags, small_cfg)
        # Absolute floor: from the AM init, m is rounding-level zero throughout.
        floor = 1e-15 * np.sum(mags**2)
        slack = 1e-9 * np.maximum(np.abs(trace.magnitude[:-1]), floor)
        assert np.all(np.diff(trace.magnitude) <= slack)

    def test_conservativity_classes(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        for family in (Family.MISI, Family.INCONS_HARDMIX, Family.MAG_INCONS_HARDMIX):
            spec = AlgorithmSpec(family=family, sigma=1.0 if family is Family.MAG_INCONS_HARDMIX else 0.0, iterations=3)
            trace = run(spec, mixture, mags, small_cfg)
            assert trace.mixing[-1] <= 1e-18 * np.sum(np.abs(mixture) ** 2)
        spec = AlgorithmSpec(family=Family.MIX_INCONS_HARDMAG, sigma=1.0, iterations=3)
        trace = run(spec, mixture, mags, small_cfg)
        assert trace.mixing[-1] > 0

    def test_magnitude_classes(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        # MixInconsHardMag ends with the magnitude projector: exact magnitudes.
        spec = AlgorithmSpec(family=Family.MIX_INCONS_HARDMAG, sigma=1.0, iterations=3)
        trace = run(spec, mixture, mags, small_cfg)
        assert np.max(np.abs(np.abs(trace.estimates) - mags)) < 1e-12
        # MISI ends with the mixing projector: conservative, magnitudes not exact.
        trace = run(AlgorithmSpec(family=Family.MISI, iterations=3), mixture, mags, small_cfg)
        assert trace.mixing[-1] <= 1e-18 * np.sum(np.abs(mixture) ** 2)
        assert np.max(np.abs(np.abs(trace.estimates) - mags)) > 1e-8
        for family, sigma in ((Family.MIX_INCONS, 1.0), (Family.MAG_INCONS_HARDMIX, 1.0)):
            trace = run(AlgorithmSpec(family=family, sigma=sigma, iterations=3), mixture, mags, small_cfg)
            assert np.max(np.abs(np.abs(trace.estimates) - mags)) > 1e-8

    def test_determinism(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        spec = AlgorithmSpec(family=Family.MIX_INCONS, sigma=0.3, iterations=10)
        t1 = run(spec, mixture, mags, small_cfg)
        t2 = run(spec, mixture, mags, small_cfg)
        assert np.array_equal(t1.estimates, t2.estimates)
        assert np.array_equal(t1.mixing, t2.mixing)
        assert np.array_equal(t1.inconsistency, t2.inconsistency)

    def test_warning_recorded_for_ignored_sigma(self, small_cfg, rng):
        mixture, mags = synthetic_problem(rng, small_cfg)
        trace = run(AlgorithmSpec(family=Family.MISI, sigma=5.0, iterations=1), mixture, mags, small_cfg)
        assert trace.warnings

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("family", [Family.AM, Family.MIX_INCONS])
    def test_overflowing_loss_is_a_floating_point_error(self, small_cfg, rng, family):
        # The initialization is finite, but its losses overflow float64.
        mixture, mags = synthetic_problem(rng, small_cfg)
        huge = np.full(mags.shape, 1e308)
        with pytest.raises(FloatingPointError, match="non-finite loss at iterate 0"):
            run(AlgorithmSpec(family=family, sigma=0.0, iterations=2), mixture, huge, small_cfg)

    @pytest.mark.parametrize(
        ("bad", "message"),
        [("nan_mixture", "mixture contains non-finite"), ("inf_mags", "magnitudes contain non-finite"),
         ("negative_mags", "invalid magnitude"), ("shape", "shape mismatch"),
         ("no_sources", "shape mismatch: magnitudes (0, 33,"),
         ("zero_frames", "mixture (33, 0) needs 33 bins"),
         ("extra_bin", "mixture (34, 53) needs 33 bins")],
    )
    def test_inputs_checked_once_at_entry(self, small_cfg, rng, bad, message):
        mixture, mags = synthetic_problem(rng, small_cfg)
        if bad == "nan_mixture":
            mixture[2, 3] = np.nan
        elif bad == "inf_mags":
            mags[1, 2, 3] = np.inf
        elif bad == "negative_mags":
            mags[0, 2, 3] = -1.0
        elif bad == "shape":
            mags = mags[:, :-1]
        elif bad == "no_sources":
            mags = mags[:0]
        elif bad == "zero_frames":
            mixture, mags = mixture[:, :0], mags[:, :, :0]
        else:  # one bin more than the STFT config has, in both inputs
            mixture, mags = np.vstack([mixture, mixture[-1:]]), np.concatenate([mags, mags[:, -1:]], axis=1)
        for family in Family:
            for sigma in (0.0, 1.0):
                for record in (True, False):
                    with pytest.raises(ValueError, match=re.escape(message)):
                        run(AlgorithmSpec(family, sigma, iterations=2), mixture, mags, small_cfg,
                            record_losses=record)
