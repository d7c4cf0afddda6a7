import math

import numpy as np
import pytest

from tinyfdss.chain import ChainConfig, ModScheme, extend, map_symbols, precode, time_signal
from tinyfdss.filters import rrc_taps, unit_taps
from tinyfdss.metrics import (
    SURROGATE_SHARPNESS,
    TAIL_X0_DB,
    empirical_ccdf,
    measured_ser,
    oobe_db,
    papr_at_ccdf,
    papr_db,
    surrogate_blocks,
    tile_rows,
    waveform_papr_db,
)

# the single-precision PAPR rule's distance from the float64 synthesis
SINGLE_PRECISION_BOUND_DB = 1e-5


class TestPaprDb:
    def test_constant_envelope_tone(self):
        n = 256
        x = np.exp(2j * np.pi * 3 * np.arange(n) / n)
        assert papr_db(x) == pytest.approx(0.0, abs=1e-12)

    def test_hand_arithmetic(self):
        assert papr_db(np.array([2.0, 0, 0, 0], dtype=complex)) == pytest.approx(
            10 * np.log10(4.0), abs=1e-12
        )

    def test_matches_two_pass_oracle(self, cfg, rng):
        bits = rng.integers(0, 2, cfg.n_data * 2)
        x = time_signal(
            extend(precode(map_symbols(bits, ModScheme.QPSK)), cfg.n_se), cfg
        )
        peak = max(abs(v) ** 2 for v in x)
        mean = sum(abs(v) ** 2 for v in x) / len(x)
        assert papr_db(x) == pytest.approx(10 * math.log10(peak / mean), abs=1e-10)

    def test_scale_invariance(self, rng):
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        for c in (2.0, -0.3, 1j, 0.5 - 2j):
            assert papr_db(c * x) == pytest.approx(papr_db(x), abs=1e-10)

    def test_rejects_zero_signal(self):
        with pytest.raises(ValueError):
            papr_db(np.zeros(8, dtype=complex))


class TestWaveformPaprDb:
    """The tiled rule equals ``papr_db(time_signal(...))`` of the whole batch
    cast to complex64."""

    @staticmethod
    def bins(rng, shape, cfg):
        return rng.standard_normal(shape + (cfg.n_sk,)) + 1j * rng.standard_normal(
            shape + (cfg.n_sk,))

    def test_tile_rows_fit_the_budget(self, cfg):
        assert tile_rows(cfg) == 128  # 1024-point grid: 16 KiB per complex128 row
        assert tile_rows(ChainConfig(n_fft=512, oversample=8)) == 32

    @pytest.mark.parametrize("extra", ["1", "T-1", "T", "T+1", "2T+3"])
    def test_matches_untiled_byte_for_byte(self, cfg, rng, extra):
        t = tile_rows(cfg)
        n = {"1": 1, "T-1": t - 1, "T": t, "T+1": t + 1, "2T+3": 2 * t + 3}[extra]
        b = self.bins(rng, (n,), cfg)
        got = waveform_papr_db(b, cfg)
        assert got.shape == (n,)
        np.testing.assert_array_equal(got, papr_db(time_signal(b.astype(np.complex64), cfg)))

    def test_any_leading_shape(self, cfg, rng):
        b = self.bins(rng, (2, 3), cfg)
        got = waveform_papr_db(b, cfg)
        assert got.shape == (2, 3)
        np.testing.assert_array_equal(got, papr_db(time_signal(b.astype(np.complex64), cfg)))

    def test_single_block_is_a_float(self, cfg, rng):
        b = self.bins(rng, (), cfg)
        got = waveform_papr_db(b, cfg)
        assert type(got) is float
        assert got == papr_db(time_signal(b.astype(np.complex64), cfg))

    def test_all_zero_row_rejected(self, cfg, rng):
        b = self.bins(rng, (tile_rows(cfg) + 5,), cfg)
        b[-2] = 0.0
        with pytest.raises(ValueError, match="PAPR undefined for an all-zero signal"):
            waveform_papr_db(b, cfg)

    @pytest.mark.filterwarnings("error")
    def test_each_row_scale_free_within_bound_of_float64(self, cfg, rng):
        # rows from 1e-30 to 1e30 in one tile: unscaled, float32 powers
        # overflow above ~1e19 and underflow below ~1e-19
        b = self.bins(rng, (61,), cfg) * np.logspace(-30, 30, 61)[:, None]
        got = waveform_papr_db(b, cfg)
        assert np.all(np.abs(got - papr_db(time_signal(b, cfg))) <= SINGLE_PRECISION_BOUND_DB)

    @pytest.mark.parametrize("k", [-1000, -100, 100, 1000])
    def test_power_of_two_scales_keep_the_bytes(self, cfg, rng, k):
        b = self.bins(rng, (20,), cfg)
        assert (waveform_papr_db(np.ldexp(1.0, k) * b, cfg).tobytes()
                == waveform_papr_db(b, cfg).tobytes())


class TestEmpiricalCcdf:
    def test_small_example(self):
        samples = np.array([5.0, 7.0, 9.0])
        assert empirical_ccdf(samples, np.array([6.0]))[0] == pytest.approx(2 / 3)

    def test_extremes(self):
        samples = np.array([5.0, 7.0, 9.0])
        out = empirical_ccdf(samples, np.array([4.0, 10.0]))
        assert out[0] == 1.0 and out[1] == 0.0

    def test_strictly_greater_at_sample_value(self):
        samples = np.array([5.0, 7.0, 9.0])
        assert empirical_ccdf(samples, np.array([7.0]))[0] == pytest.approx(1 / 3)

    def test_against_exponential_model(self):
        # PAPR model: linear-power PAPR ~ Exp with known CCDF exp(-x)
        rng = np.random.default_rng(0)
        n = 10_000
        lin = rng.exponential(size=n)
        samples_db = 10 * np.log10(lin + 1e-300)
        grid_db = np.array([0.0, 3.0, 5.0])
        analytic = np.exp(-(10 ** (grid_db / 10)))
        out = empirical_ccdf(samples_db, grid_db)
        np.testing.assert_allclose(out, analytic, atol=3 / np.sqrt(n))

    def test_monotone_and_bounded(self, rng):
        samples = rng.standard_normal(500) * 2 + 6
        grid = np.linspace(0, 12, 121)
        ccdf = empirical_ccdf(samples, grid)
        assert np.all(np.diff(ccdf) <= 0)
        assert ccdf.min() >= 0.0 and ccdf.max() <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_ccdf(np.array([]), np.array([1.0]))


class TestSurrogateP:
    """At the fixed x0 = TAIL_X0_DB and sharpness b = SURROGATE_SHARPNESS."""

    def test_far_below_threshold_vanishes(self):
        value = surrogate_blocks(np.full(16, TAIL_X0_DB - 10.0))
        assert np.all(value < 1e-4)

    def test_at_threshold(self):
        value = surrogate_blocks(np.array([TAIL_X0_DB]))
        assert value[0] == pytest.approx(math.log(2.0) / SURROGATE_SHARPNESS, abs=1e-12)

    def test_within_log2_over_b_above_hinge(self, rng):
        # softplus_b(z) - max(0, z) = log1p(exp(-b|z|))/b lies in (0, log(2)/b]
        papr = rng.uniform(2.0, 15.0, 400)
        gap = surrogate_blocks(papr) - np.maximum(0.0, papr - TAIL_X0_DB)
        assert gap.max() > 0.0 and gap.min() >= 0.0  # far above x0 the gap rounds away
        assert np.all(gap <= math.log(2.0) / SURROGATE_SHARPNESS)


class TestErrorMetrics:
    def test_identical_vectors(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        ser, errors, total = measured_ser(x, x)
        assert ser == 0.0 and errors == 0 and total == 64

    def test_negated_qpsk_all_wrong(self, rng):
        bits = rng.integers(0, 2, 128)
        sym = map_symbols(bits, ModScheme.QPSK)
        ser, errors, total = measured_ser(sym, -sym)
        assert ser == 1.0 and errors == total

    def test_awgn_ser_closed_form(self):
        # raw constellation + AWGN at 10 dB against the Q-function formula
        snr_db = 10.0
        gamma = 10 ** (snr_db / 10)
        p_axis = 0.5 * math.erfc(math.sqrt(gamma / 2))
        theory = 2 * p_axis - p_axis**2
        rng = np.random.default_rng(8)
        n = 100_000
        bits = rng.integers(0, 2, 2 * n)
        tx = map_symbols(bits, ModScheme.QPSK)
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(
            1 / (2 * gamma)
        )
        from tinyfdss.chain import detect_symbols

        detected = detect_symbols(tx + noise, ModScheme.QPSK)
        ser, _, total = measured_ser(tx, detected)
        sem = math.sqrt(theory * (1 - theory) / total)
        assert abs(ser - theory) <= 3 * sem

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            measured_ser(np.ones(3), np.ones(4))


class TestOobe:
    def test_in_band_tone_far_below_floor(self, cfg):
        shaped = np.zeros(cfg.n_sk, dtype=complex)
        shaped[cfg.n_sk // 2] = 1.0
        x = time_signal(shaped, cfg)
        blocks = np.tile(x, (10, 1))
        assert oobe_db(blocks, cfg) < -40.0

    def test_deterministic(self, cfg, rng):
        bits = rng.integers(0, 2, (12, cfg.n_data * 2))
        sym = map_symbols(bits, ModScheme.QPSK)
        x = time_signal(extend(precode(sym), cfg.n_se), cfg)
        assert oobe_db(x, cfg) == oobe_db(x.copy(), cfg)

    def test_rrc_leaks_no_more_than_brick_wall(self, cfg):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, (64, cfg.n_data * 2))
        sym = map_symbols(bits, ModScheme.QPSK)
        s_ext = extend(precode(sym), cfg.n_se)
        brick = oobe_db(time_signal(s_ext * unit_taps(cfg.n_sk), cfg), cfg)
        shaped = oobe_db(time_signal(s_ext * rrc_taps(cfg.n_sk, 0.25), cfg), cfg)
        assert shaped <= brick

    def test_rejects_too_few_blocks(self, cfg):
        x = np.ones((5, cfg.n_fft * cfg.oversample), dtype=complex)
        with pytest.raises(ValueError):
            oobe_db(x, cfg)


class TestPaprAtCcdf:
    def test_quantile_semantics(self):
        samples = np.arange(1000, dtype=float)
        # 1e-3 exceedance of 0..999 sits at the very top of the sample set
        assert papr_at_ccdf(samples, 1e-3) >= 997.0

    def test_rejects_bad_prob(self):
        with pytest.raises(ValueError):
            papr_at_ccdf(np.array([1.0]), 0.0)
