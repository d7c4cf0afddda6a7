import numpy as np
import pytest

from tinyfdss.filters import (
    coeff_basis,
    rrc_response,
    rrc_taps,
    tap_positions,
    taps_from_coeffs,
    unit_taps,
)


def naive_poly(coeffs, n_sk):
    """Independent oracle: direct power sum over the normalized grid."""
    t = tap_positions(n_sk)
    return sum(c * t**z for z, c in enumerate(coeffs))


class TestTapsFromCoeffs:
    def test_constant_polynomial_gives_all_ones(self):
        taps = taps_from_coeffs(np.array([1.0, 0, 0, 0, 0]), 240)
        np.testing.assert_array_equal(taps, np.ones(240))

    def test_linear_polynomial_three_bins(self):
        taps = taps_from_coeffs(np.array([0.0, 1.0, 0, 0, 0]), 3)
        np.testing.assert_allclose(taps, [-1.0, 0.0, 1.0], atol=1e-15)

    def test_matches_power_sum_oracle(self):
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(5)
        taps = taps_from_coeffs(coeffs, 240)
        np.testing.assert_allclose(taps, naive_poly(coeffs, 240), atol=1e-12)

    def test_horner_vs_naive_1000_random_sets(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            coeffs = rng.standard_normal(5) * rng.uniform(0.1, 3.0)
            taps = taps_from_coeffs(coeffs, 64)
            np.testing.assert_allclose(taps, naive_poly(coeffs, 64), atol=1e-12)

    def test_rejects_no_coefficient(self):
        with pytest.raises(ValueError, match=r"^empty coefficient vector$"):
            taps_from_coeffs(np.zeros((3, 0)), 240)

    def test_linearity_in_coefficients(self):
        rng = np.random.default_rng(3)
        c1, c2 = rng.standard_normal(5), rng.standard_normal(5)
        a, b = 0.7, -1.3
        combined = taps_from_coeffs(a * c1 + b * c2, 240)
        separate = a * taps_from_coeffs(c1, 240) + b * taps_from_coeffs(c2, 240)
        np.testing.assert_allclose(combined, separate, atol=1e-12)

    def test_bounded_by_coefficient_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            coeffs = rng.standard_normal(5)
            taps = taps_from_coeffs(coeffs, 101)
            assert np.max(np.abs(taps)) <= np.sum(np.abs(coeffs)) + 1e-12

    def test_batched_coefficients(self):
        rng = np.random.default_rng(11)
        coeffs = rng.standard_normal((4, 5))
        batched = taps_from_coeffs(coeffs, 64)
        for i in range(4):
            np.testing.assert_array_equal(batched[i], taps_from_coeffs(coeffs[i], 64))

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            taps_from_coeffs(np.ones(5), 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            taps_from_coeffs(np.array([1.0, np.nan, 0, 0, 0]), 16)


class TestTapPositions:
    def test_endpoints_and_symmetry(self):
        t = tap_positions(240)
        assert t[0] == -1.0 and t[-1] == 1.0
        np.testing.assert_allclose(t, -t[::-1], atol=1e-15)

    def test_basis_matches_positions(self):
        basis = coeff_basis(17, 5)
        t = tap_positions(17)
        for z in range(5):
            np.testing.assert_allclose(basis[:, z], t**z, atol=1e-15)

    def test_basis_is_cached_read_only(self):
        basis = coeff_basis(17, 5)
        assert not basis.flags.writeable
        assert coeff_basis(17, 5) is basis
        fresh = np.power.outer(tap_positions(17), np.arange(5))
        assert basis.dtype == fresh.dtype and basis.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            basis[0, 0] = 2.0


class TestRrcTaps:
    def test_zero_rolloff_is_brick_wall(self):
        np.testing.assert_array_equal(rrc_taps(240, 0.0), np.ones(240))

    def test_symmetry(self):
        taps = rrc_taps(240, 0.25)
        np.testing.assert_allclose(taps, taps[::-1], atol=1e-15)

    def test_transition_midpoint_is_sqrt_half(self):
        # closed form: halfway through the rolloff the RC response is 1/2
        for rolloff in (0.1, 0.25, 0.5):
            mid = 1.0 - rolloff / 2.0
            assert rrc_response(np.array([mid]), rolloff)[0] == pytest.approx(
                np.sqrt(0.5), abs=1e-9
            )

    def test_sampled_taps_match_response(self):
        taps = rrc_taps(240, 0.25)
        np.testing.assert_array_equal(taps, rrc_response(tap_positions(240), 0.25))

    def test_max_tap_is_one_and_flat_region(self):
        taps = rrc_taps(240, 0.25)
        assert taps.max() == 1.0
        t = tap_positions(240)
        assert np.all(taps[np.abs(t) <= 0.75 - 1e-12] == 1.0)

    def test_rejects_bad_rolloff(self):
        with pytest.raises(ValueError):
            rrc_taps(240, 1.5)


class TestUnitTaps:
    @pytest.mark.parametrize("n", [1, 240, 1024])
    def test_all_entries_exactly_one(self, n):
        taps = unit_taps(n)
        assert taps.shape == (n,)
        assert np.all(taps == 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            unit_taps(0)
