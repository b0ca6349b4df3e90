import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specinv import sdr


class TestSdr:
    def test_perfect_estimate_hits_cap(self, rng):
        x = rng.standard_normal(1000)
        assert sdr(x, x) == 300.0

    def test_double_gain_is_zero_db(self, rng):
        x = rng.standard_normal(1000)
        assert sdr(x, 2 * x) == pytest.approx(0.0, abs=1e-12)

    def test_half_gain(self, rng):
        x = rng.standard_normal(1000)
        assert sdr(x, 0.5 * x) == pytest.approx(20 * np.log10(2), abs=1e-9)

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError, match="length mismatch"):
            sdr(rng.standard_normal(10), rng.standard_normal(11))

    def test_zero_reference(self):
        with pytest.raises(ValueError, match="undefined SDR"):
            sdr(np.zeros(10), np.ones(10))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        # Below ~1e-6 the addition's rounding noise dominates the 1e-9 dB bound.
        eps=st.floats(min_value=1e-5, max_value=1e3),
    )
    def test_scale_law(self, seed, eps):
        x = np.random.default_rng(seed).standard_normal(500)
        assert sdr(x, x + eps * x) == pytest.approx(-20 * np.log10(eps), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(1, 5000),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        eps=st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_matches_norm_formula(self, seed, n, scale, eps):
        rng = np.random.default_rng(seed)
        ref = scale * rng.standard_normal(n)
        est = ref + eps * scale * rng.standard_normal(n)
        expected = 20 * np.log10(np.linalg.norm(ref) / np.linalg.norm(ref - est))
        assert sdr(ref, est) == pytest.approx(expected, abs=1e-12)

