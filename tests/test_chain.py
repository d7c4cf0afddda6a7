import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyfdss.baselines import conventional_config, fir_bin_gains, rrc_fir
from tinyfdss.chain import (
    GAIN_EPS,
    ChainConfig,
    EqualizationError,
    ModScheme,
    Stage,
    SymbolBlock,
    _matched_fold,
    centered_band,
    constellation,
    detect_symbols,
    extend,
    fold_extension,
    map_symbols,
    occupied_bins,
    precode,
    receive,
    receiver_chain,
    shape_and_normalize,
    time_signal,
)
from tinyfdss.channel import ChannelCfg, ChannelModel, add_channel, apply_channel
from tinyfdss.filters import rrc_taps, taps_from_coeffs, unit_taps
from tinyfdss.metrics import measured_ser, papr_db

from reference import (band, detect, dft_matrix, dft_synthesis, draw_block, pam_levels, qpsk_ser,
                       slice_symbols)
from reference import map_symbols as map_reference
from reference import occupied_bins as occupied_bins_reference
from reference import precode as precode_reference
from reference import receive as receive_reference
from reference import time_signal as time_signal_reference

# 3GPP-style Gray 16-QAM table computed by hand from the per-axis rule
# (sign bit, magnitude bit) -> level: 00->1, 01->3, 10->-1, 11->-3, I=(b0,b2), Q=(b1,b3)
GRAY_16QAM = {
    (0, 0, 0, 0): 1 + 1j, (0, 0, 0, 1): 1 + 3j, (0, 0, 1, 0): 3 + 1j,
    (0, 0, 1, 1): 3 + 3j, (0, 1, 0, 0): 1 - 1j, (0, 1, 0, 1): 1 - 3j,
    (0, 1, 1, 0): 3 - 1j, (0, 1, 1, 1): 3 - 3j, (1, 0, 0, 0): -1 + 1j,
    (1, 0, 0, 1): -1 + 3j, (1, 0, 1, 0): -3 + 1j, (1, 0, 1, 1): -3 + 3j,
    (1, 1, 0, 0): -1 - 1j, (1, 1, 0, 1): -1 - 3j, (1, 1, 1, 0): -3 - 1j,
    (1, 1, 1, 1): -3 - 3j,
}


def shaped_block(bits, scheme, taps, cfg, oversample=None):
    """One block shaped at fixed transmit power: (time-domain block, effective taps)."""
    s_ext = extend(precode(map_symbols(bits, scheme)), cfg.n_se)
    bins, eff, _ = shape_and_normalize(s_ext, taps)
    return SymbolBlock(Stage.TIME_DOMAIN, time_signal(bins, cfg, oversample)), eff


def axis_grid(axis):
    """Every (I, Q) pairing of the axis values, without multiplying by 1j."""
    grid = np.empty((len(axis), len(axis)), dtype=np.complex128)
    grid.real, grid.imag = axis[:, None], axis[None, :]
    return grid


def qam16_spectra(rng, n_data, n_se):
    """Six extended 16-QAM spectra."""
    bits = rng.integers(0, 2, (6, n_data * 4))
    return extend(precode(map_symbols(bits, ModScheme.QAM16)), n_se)


class TestMapBits:
    def test_qpsk_corner(self):
        block = map_symbols(np.array([0, 0]), ModScheme.QPSK)
        assert block[0] == pytest.approx((1 + 1j) / np.sqrt(2))

    def test_qpsk_energy_normalization(self, rng):
        bits = rng.integers(0, 2, 420)
        block = map_symbols(bits, ModScheme.QPSK)
        assert len(block) == 210
        assert np.mean(np.abs(block) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_16qam_exhaustive_against_gray_table(self):
        for label, point in GRAY_16QAM.items():
            block = map_symbols(np.array(label), ModScheme.QAM16)
            assert block[0] == pytest.approx(point / np.sqrt(10), abs=1e-12)

    def test_16qam_distinct_points_unit_energy(self):
        points = constellation(ModScheme.QAM16)
        assert len(set(np.round(points, 12))) == 16
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scheme", list(ModScheme))
    def test_constellation_unit_energy_and_gray_neighbours(self, scheme):
        points = constellation(scheme)
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, abs=1e-12)
        # Gray property: every nearest neighbour differs in exactly one bit
        min_d = np.inf
        for i in range(len(points)):
            d = np.abs(points - points[i])
            d[i] = np.inf
            min_d = min(min_d, d.min())
        for i in range(len(points)):
            for j in range(len(points)):
                if i != j and abs(points[i] - points[j]) < min_d * 1.001:
                    assert bin(i ^ j).count("1") == 1  # point i's label is i

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            map_symbols(np.array([0, 1, 0]), ModScheme.QPSK)
        with pytest.raises(ValueError):
            map_symbols(np.zeros((2, 3, 10)), ModScheme.QAM16)

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            map_symbols(np.array(0), ModScheme.QPSK)

    @pytest.mark.parametrize("scheme", list(ModScheme))
    def test_leading_axes_match_per_row_calls(self, scheme, rng):
        bits = rng.integers(0, 2, (2, 3, 5 * scheme.bits_per_symbol))
        batched = map_symbols(bits, scheme)
        assert batched.shape == (2, 3, 5)
        per_row = np.stack([[map_symbols(row, scheme) for row in plane] for plane in bits])
        assert batched.tobytes() == per_row.tobytes()

    @pytest.mark.parametrize("scheme", list(ModScheme))
    @pytest.mark.parametrize("shape", [(240,), (32, 210), (500, 240), (2, 3, 7)])
    def test_table_lookup_matches_arithmetic_mapping(self, scheme, shape, rng):
        bits = rng.integers(0, 2, shape[:-1] + (shape[-1] * scheme.bits_per_symbol,))
        got = map_symbols(bits, scheme)
        assert got.shape == shape
        assert got.tobytes() == map_reference(bits, scheme).tobytes()


class TestDetect:
    @pytest.mark.parametrize("scheme", list(ModScheme))
    def test_argmin_exhaustive_per_point(self, scheme, rng):
        points = constellation(scheme)
        # each point plus a small perturbation detects back to itself
        noise = 0.01 * (rng.standard_normal(len(points)) + 1j * rng.standard_normal(len(points)))
        detected = detect_symbols(points + noise, scheme)
        np.testing.assert_array_equal(detected, points)

    def test_matches_bruteforce_argmin(self, rng):
        received = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        detected = detect_symbols(received, ModScheme.QAM16)
        np.testing.assert_array_equal(detected, detect(received, ModScheme.QAM16))


class TestSlicer:
    """``detect_symbols`` slices I and Q apart by one stated rule per axis.

    Away from a midpoint it decides as the distance loop does; on a midpoint,
    past the outer levels and at non-finite values the rule alone decides.
    """

    @pytest.mark.parametrize("scheme", list(ModScheme))
    def test_noisy_symbols_match_reference(self, scheme, rng):
        points = constellation(scheme)
        shape = (500, 210)
        sent = rng.choice(points, shape)
        received = sent + 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        detected = detect_symbols(received, scheme)
        np.testing.assert_array_equal(detected, [detect(row, scheme) for row in received])
        assert np.any(detected != sent)  # the noise moves some decisions

    @pytest.mark.parametrize("scheme", list(ModScheme))
    def test_midpoints_and_neighbours_match_reference(self, scheme):
        # every pairing of an I and a Q value on a level, on a midpoint or one
        # or two ulp beside it: each axis takes the level above the midpoints
        # strictly below it, so a midpoint takes the lower level
        levels, mids = pam_levels(scheme)
        axis = [levels, mids]
        for steps in (1, 2):
            up, down = mids, mids
            for _ in range(steps):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            axis += [up, down]
        received = axis_grid(np.concatenate(axis))
        assert detect_symbols(received, scheme).tobytes() == \
            slice_symbols(received, scheme).tobytes()
        on_mids = detect_symbols(axis_grid(mids), scheme)
        assert on_mids.tobytes() == axis_grid(levels[:-1]).tobytes()

    @pytest.mark.parametrize("scheme", list(ModScheme))
    def test_out_of_bounds_and_non_finite_match_reference(self, scheme):
        # far out and infinite values take the edge level; NaN compares below
        # every midpoint, so it decides as -inf does: the lowest level
        received = axis_grid(np.array([100.0, 1e300, np.inf, -100.0, -1e300, -np.inf, 0.1, np.nan]))
        assert detect_symbols(received, scheme).tobytes() == \
            slice_symbols(received, scheme).tobytes()

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_leading_shapes(self, shape, rng):
        received = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        detected = detect_symbols(received, ModScheme.QAM64)
        assert isinstance(detected, np.ndarray) and detected.shape == shape
        assert detected.tobytes() == detect(received, ModScheme.QAM64).tobytes()


# np.fft's synthesis against the explicit float64 DFT sum, relative to the
# block's largest sample: measured below 1e-15
DFT_BOUND = 1e-13


class TestBandSlices:
    """``time_signal`` and ``occupied_bins`` equal their fancy-index forms byte for byte."""

    # even and odd n_sk, and a band that fills the critical-rate grid
    CONFIGS = [ChainConfig(), ChainConfig(n_data=25, n_se=3, n_fft=64),
               ChainConfig(n_data=24, n_se=4, n_fft=64), ChainConfig(n_data=56, n_se=4, n_fft=64)]

    @pytest.mark.parametrize("chain", CONFIGS, ids=lambda c: f"n_sk{c.n_sk}")
    @pytest.mark.parametrize("oversample", [1, 4])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    def test_match_fancy_index_reference(self, chain, oversample, lead, rng):
        shape = lead + (chain.n_sk,)
        bins = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = time_signal(bins, chain, oversample)
        want = time_signal_reference(bins, chain, oversample)
        assert x.shape == want.shape == lead + (chain.n_fft * oversample,)
        assert x.tobytes() == want.tobytes()
        back = occupied_bins(x, chain)
        assert back.shape == shape
        assert back.tobytes() == occupied_bins_reference(x, chain).tobytes()

    @pytest.mark.parametrize("chain", CONFIGS, ids=lambda c: f"n_sk{c.n_sk}")
    @pytest.mark.parametrize("oversample", [1, 4])
    def test_reference_synthesis_is_the_dft_sum(self, chain, oversample, rng):
        bins = rng.standard_normal(chain.n_sk) + 1j * rng.standard_normal(chain.n_sk)
        want = dft_synthesis(bins, chain, oversample)
        err = np.max(np.abs(time_signal_reference(bins, chain, oversample) - want))
        assert err <= DFT_BOUND * np.max(np.abs(want))


class TestTimeSignalPrecision:
    """The grid keeps complex64 bins single and everything else double."""

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.float32, np.int64])
    def test_other_inputs_give_the_complex128_reference(self, cfg, rng, dtype):
        # real taps alone are a real input (the OOBE tests send them)
        bins = (rng.standard_normal((3, cfg.n_sk)) * 4).astype(dtype)
        x = time_signal(bins, cfg)
        assert x.dtype == np.complex128
        assert x.tobytes() == time_signal_reference(bins, cfg).tobytes()

    def test_complex64_bins_give_a_complex64_grid(self, cfg, rng):
        bins = rng.standard_normal((3, cfg.n_sk)) + 1j * rng.standard_normal((3, cfg.n_sk))
        x = time_signal(bins.astype(np.complex64), cfg)
        assert x.dtype == np.complex64
        want = time_signal_reference(bins, cfg)
        assert np.max(np.abs(x - want)) <= 1e-6 * np.max(np.abs(want))


class TestChainConfig:
    @pytest.mark.parametrize("n_data", [0, -3])
    def test_rejects_a_nonpositive_n_data(self, n_data):
        with pytest.raises(ValueError, match=rf"^n_data must be positive, got {n_data}$"):
            ChainConfig(n_data=n_data)


class TestOccupiedBinsPrecision:
    """The bins keep a complex64 grid single and everything else double."""

    def test_rejects_a_length_not_a_multiple_of_n_fft(self, cfg):
        with pytest.raises(ValueError, match=r"^signal length 1000 not a multiple of n_fft=256$"):
            occupied_bins(np.zeros((2, 1000), dtype=complex), cfg)

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.float32, np.int64])
    def test_other_inputs_give_the_complex128_reference(self, cfg, rng, dtype):
        x = (rng.standard_normal((3, cfg.n_fft * cfg.oversample)) * 4).astype(dtype)
        bins = occupied_bins(x, cfg)
        assert bins.dtype == np.complex128
        assert bins.tobytes() == occupied_bins_reference(x, cfg).tobytes()

    def test_complex64_grid_gives_complex64_bins(self, cfg, rng):
        shape = (3, cfg.n_fft * cfg.oversample)
        x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
        bins = occupied_bins(x, cfg)
        assert bins.dtype == np.complex64
        assert bins.tobytes() == occupied_bins_reference(x, cfg).tobytes()


class TestDftPrecode:
    def test_all_ones_length_four(self):
        out = precode(np.ones(4, dtype=complex))
        np.testing.assert_allclose(out, [2, 0, 0, 0], atol=1e-14)

    def test_parseval(self, cfg, rng):
        bits = rng.integers(0, 2, cfg.n_data * 2)
        block = map_symbols(bits, ModScheme.QPSK)
        out = precode(block)
        e_in = np.sum(np.abs(block) ** 2)
        e_out = np.sum(np.abs(out) ** 2)
        assert abs(e_out - e_in) / e_in < 1e-10

    def test_matches_naive_dft_oracle(self, cfg, rng):
        bits = rng.integers(0, 2, cfg.n_data * 2)
        x = map_symbols(bits, ModScheme.QPSK)
        oracle = dft_matrix(cfg.n_data) @ x / np.sqrt(cfg.n_data)
        np.testing.assert_allclose(precode(x), oracle, atol=1e-9)

    def test_inverse_round_trip(self, cfg, rng):
        from tinyfdss.chain import deprecode

        x = rng.standard_normal(cfg.n_data) + 1j * rng.standard_normal(cfg.n_data)
        np.testing.assert_allclose(deprecode(precode(x)), x, atol=1e-10)


class TestReciprocalScaling:
    """A complex array times a real reciprocal, where the chain once divided."""

    def test_same_bytes_as_the_division(self, cfg, rng):
        for n in (3, 12, 59, cfg.n_data):  # 1/sqrt(n) != sqrt(1/n) for the first three
            x = rng.standard_normal((8, n)) + 1j * rng.standard_normal((8, n))
            assert precode(x).tobytes() == precode_reference(x).tobytes()
        rx = rng.standard_normal((8, cfg.n_sk)) + 1j * rng.standard_normal((8, cfg.n_sk))
        numer, gain, recovered = _matched_fold(rx, rng.uniform(0.0, 1.5, cfg.n_sk), cfg.n_se)
        assert recovered.tobytes() == (numer / (gain + GAIN_EPS)).tobytes()

    def test_differs_from_the_division_only_at_zero_or_non_finite_parts(self):
        # numpy divides by a real divisor c as (a + b*0) * (1/c): only the sign
        # of an exact zero part, or a part made non-finite, can differ
        parts = np.array([0.0, -0.0, 1.5, -2.25, 5e-324, 1e300, np.inf, -np.inf, np.nan])
        x = np.empty(parts.size**2, dtype=complex)  # every (real, imag) pair
        x.real, x.imag = np.repeat(parts, parts.size), np.tile(parts, parts.size)
        for c in (3.0, np.sqrt(210.0), GAIN_EPS, np.linspace(1e-12, 7.0, x.size)):
            with np.errstate(all="ignore"):
                got, want = x * (1.0 / c), x / c
            for g, w in ((got.real, want.real), (got.imag, want.imag)):
                same = g.view(np.uint64) == w.view(np.uint64)
                zero = (g == 0.0) & (w == 0.0)
                non_finite = ~np.isfinite(g) & ~np.isfinite(w)
                assert np.all(same | zero | non_finite)


class TestSpectrumExtend:
    def test_four_bin_example(self):
        a, b, c, d = 1 + 1j, 2 - 1j, -3 + 0j, 0 + 4j
        out = extend(np.array([a, b, c, d]), 1)
        np.testing.assert_array_equal(out, [d, a, b, c, d, a])

    def test_zero_extension_is_identity(self, rng):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        out = extend(x, 0)
        np.testing.assert_array_equal(out, x)

    def test_energy_accounting(self, cfg, rng):
        x = rng.standard_normal(cfg.n_data) + 1j * rng.standard_normal(cfg.n_data)
        out = extend(x, cfg.n_se)
        copied = np.sum(np.abs(x[-cfg.n_se :]) ** 2) + np.sum(np.abs(x[: cfg.n_se]) ** 2)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(
            np.sum(np.abs(x) ** 2) + copied, rel=1e-12
        )

    def test_cyclic_consistency(self, cfg, rng):
        x = rng.standard_normal(cfg.n_data) + 1j * rng.standard_normal(cfg.n_data)
        out = extend(x, cfg.n_se)
        n_se, n_data = cfg.n_se, cfg.n_data
        np.testing.assert_array_equal(out[:n_se], out[n_data : n_data + n_se])
        np.testing.assert_array_equal(out[-n_se:], out[n_se : 2 * n_se])

    def test_rejects_extension_not_smaller_than_data(self):
        with pytest.raises(ValueError):
            extend(np.ones(4, dtype=complex), 4)

    def test_fold_rejects_an_extension_that_leaves_no_data_bin(self):
        with pytest.raises(ValueError, match=r"^extension larger than block$"):
            fold_extension(np.ones(8, dtype=complex), 4)


class TestApplyFilter:
    """Shaping at fixed transmit power (``shape_and_normalize``)."""

    def test_all_ones_identity(self, cfg, rng):
        x = rng.standard_normal(cfg.n_sk) + 1j * rng.standard_normal(cfg.n_sk)
        bins, eff, g = shape_and_normalize(x, unit_taps(cfg.n_sk))
        np.testing.assert_array_equal(bins, x)
        np.testing.assert_array_equal(eff, unit_taps(cfg.n_sk))
        assert g == 1.0

    def test_all_zeros(self, cfg, rng):
        x = rng.standard_normal(cfg.n_sk) + 1j * rng.standard_normal(cfg.n_sk)
        bins, _, _ = shape_and_normalize(x, np.zeros(cfg.n_sk))
        assert np.all(bins == 0)

    def test_matches_scalar_loop_oracle(self, cfg, rng):
        x = rng.standard_normal(cfg.n_sk) + 1j * rng.standard_normal(cfg.n_sk)
        taps = rng.standard_normal(cfg.n_sk)
        bins, eff, g = shape_and_normalize(x, taps)
        shaped = np.array([x[i] * taps[i] for i in range(cfg.n_sk)])
        p_ref = sum(abs(v) ** 2 for v in x) / cfg.n_sk
        p_shaped = sum(abs(v) ** 2 for v in shaped) / cfg.n_sk
        assert g == pytest.approx(math.sqrt(p_ref / p_shaped), rel=1e-12)
        np.testing.assert_array_equal(bins, g * shaped)
        np.testing.assert_array_equal(eff, g * taps)

    def test_rejects_length_mismatch(self, cfg):
        # the synthesis grid takes exactly the n_sk shaped bins
        with pytest.raises(ValueError, match="shaped bins"):
            time_signal(np.ones(cfg.n_sk - 1, dtype=complex), cfg)

    def test_real_taps_keep_occupied_power(self, cfg, rng):
        s = qam16_spectra(rng, cfg.n_data, cfg.n_se)
        coeffs = np.array([1.0, 0.0, -0.6, 0.0, 0.1]) + 0.2 * rng.standard_normal((6, 5))
        bins, eff, _ = shape_and_normalize(s, taps_from_coeffs(coeffs, cfg.n_sk))
        np.testing.assert_allclose(
            np.mean(np.abs(bins) ** 2, axis=-1), np.mean(np.abs(s) ** 2, axis=-1),
            rtol=1e-12,
        )
        np.testing.assert_allclose(bins, s * eff, rtol=1e-12)

    def test_complex_fir_gains_keep_occupied_power(self, cfg, rng):
        conv = conventional_config(cfg)
        gains = fir_bin_gains(rrc_fir(32, 0.25, sps=conv.oversample), conv)
        s = qam16_spectra(rng, conv.n_data, 0)
        bins, eff, _ = shape_and_normalize(s, gains)
        assert eff.shape == s.shape and np.iscomplexobj(eff)
        np.testing.assert_allclose(
            np.mean(np.abs(bins) ** 2, axis=-1), np.mean(np.abs(s) ** 2, axis=-1),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("scale", [1e-3, 0.5, 7.0])
    def test_invariant_to_tap_scale(self, cfg, rng, scale):
        s = qam16_spectra(rng, cfg.n_data, cfg.n_se)
        taps = rrc_taps(cfg.n_sk, 0.25)
        bins, eff, g = shape_and_normalize(s, taps)
        bins_s, eff_s, g_s = shape_and_normalize(s, scale * taps)
        np.testing.assert_allclose(bins_s, bins, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(eff_s, eff, rtol=1e-12)
        np.testing.assert_allclose(g_s * scale, g, rtol=1e-12)


class TestToTimeDomain:
    def test_single_center_subcarrier_constant_envelope(self, cfg):
        shaped = np.zeros(cfg.n_sk, dtype=complex)
        shaped[cfg.n_sk // 2] = 1.0  # lands on DC of the centered grid
        sig = time_signal(shaped, cfg)
        assert papr_db(sig) == pytest.approx(0.0, abs=1e-12)

    def test_parseval_scaling_convention(self, cfg, rng):
        shaped = rng.standard_normal(cfg.n_sk) + 1j * rng.standard_normal(cfg.n_sk)
        for ovs in (1, 2, 4):
            x = time_signal(shaped, cfg, oversample=ovs)
            # mean time power = freq energy / n_fft for every oversample factor
            assert np.mean(np.abs(x) ** 2) == pytest.approx(
                np.sum(np.abs(shaped) ** 2) / cfg.n_fft, rel=1e-12
            )

    def test_oversampled_contains_critical_samples(self, cfg, rng):
        shaped = rng.standard_normal(cfg.n_sk) + 1j * rng.standard_normal(cfg.n_sk)
        x1 = time_signal(shaped, cfg, oversample=1)
        x4 = time_signal(shaped, cfg, oversample=4)
        np.testing.assert_allclose(x4[::4], x1, atol=1e-12)

    def test_occupied_bins_inverse(self, cfg, rng):
        shaped = rng.standard_normal(cfg.n_sk) + 1j * rng.standard_normal(cfg.n_sk)
        x = time_signal(shaped, cfg)
        np.testing.assert_allclose(occupied_bins(x, cfg), shaped, atol=1e-12)

    def test_rejects_oversized_allocation(self):
        with pytest.raises(ValueError):
            ChainConfig(n_data=300, n_se=0, n_fft=256)

    @pytest.mark.parametrize("width, n", [(240, 1024), (240, 256), (7, 16), (6, 15),
                                          (7, 15), (1, 1), (15, 15), (0, 8)])
    def test_centered_band_matches_fftshifted_slice(self, width, n):
        # the bins at n//2 - width//2 ... of the DC-centered (fftshifted) grid
        np.testing.assert_array_equal(centered_band(width, n), band(width, n))


class TestReceiverChain:
    def test_noiseless_loopback_unit_filter_exact(self, cfg, rng):
        bits = rng.integers(0, 2, cfg.n_data * 2)
        taps = unit_taps(cfg.n_sk)
        tx = map_symbols(bits, ModScheme.QPSK)
        sig, eff = shaped_block(bits, ModScheme.QPSK, taps, cfg)
        rx = SymbolBlock(Stage.RECEIVED, sig.values)
        detected, _ = receiver_chain(rx, eff, cfg, ModScheme.QPSK)
        np.testing.assert_array_equal(detected.values, tx)
        ser, errors, _ = measured_ser(tx, detected.values)
        assert errors == 0

    @pytest.mark.parametrize("taps_name", ["rrc", "random"])
    def test_noiseless_loopback_shaped_taps(self, cfg, rng, taps_name):
        bits = rng.integers(0, 2, cfg.n_data * 2)
        if taps_name == "rrc":
            taps = rrc_taps(cfg.n_sk, 0.25)
        else:
            taps = 0.3 + rng.uniform(0.0, 1.0, cfg.n_sk)
        tx = map_symbols(bits, ModScheme.QPSK)
        sig, eff = shaped_block(bits, ModScheme.QPSK, taps, cfg)
        rx = SymbolBlock(Stage.RECEIVED, sig.values)
        _, equalized = receiver_chain(rx, eff, cfg, ModScheme.QPSK)
        assert np.max(np.abs(equalized - tx)) < 1e-6

    def test_awgn_ser_matches_closed_form(self, cfg):
        # folding the extension copies buys n_data/(n_data - n_se) in SNR
        snr_db = 10.0
        theory = qpsk_ser(snr_db, cfg.n_data, cfg.n_se)
        taps = unit_taps(cfg.n_sk)
        errors = total = 0
        n_blocks = 480  # ~1e5 symbols
        for b in range(n_blocks):
            brng = np.random.default_rng((42, b))
            bits = brng.integers(0, 2, cfg.n_data * 2)
            tx = map_symbols(bits, ModScheme.QPSK)
            sig, eff = shaped_block(bits, ModScheme.QPSK, taps, cfg, oversample=1)
            rx, fade = apply_channel(sig, ChannelCfg(ChannelModel.AWGN), snr_db, cfg, rng=brng)
            detected, _ = receiver_chain(rx, fade * eff, cfg, ModScheme.QPSK)
            _, e, t = measured_ser(tx, detected.values)
            errors += e
            total += t
        ser = errors / total
        sem = math.sqrt(theory * (1 - theory) / total)
        assert abs(ser - theory) <= 3 * sem

    @pytest.mark.parametrize("values, message", [
        (np.ones((2, 3)), r"^block values must be 1-D, got shape \(2, 3\)$"),
        (np.array([1.0, np.nan]), r"^block contains non-finite values$"),
    ], ids=["2-D", "nan"])
    def test_symbol_block_rejects_malformed_values(self, values, message):
        with pytest.raises(ValueError, match=message):
            SymbolBlock(Stage.RECEIVED, values)

    @pytest.mark.parametrize("stage, length, n_taps, message", [
        (Stage.TIME_DOMAIN, 1024, 240, r"^expected RECEIVED block, got TIME_DOMAIN$"),
        (Stage.RECEIVED, 1000, 240, r"^received length 1000 not a multiple of n_fft$"),
        (Stage.RECEIVED, 1024, 239, r"^taps shape \(239,\), expected \(240,\)$"),
    ], ids=["stage", "length", "taps"])
    def test_rejects_malformed_input(self, cfg, stage, length, n_taps, message):
        block = SymbolBlock(stage, np.ones(length))
        with pytest.raises(ValueError, match=message):
            receiver_chain(block, np.ones(n_taps), cfg, ModScheme.QPSK)

    def test_zero_gain_bin_raises(self, cfg, rng):
        bits = rng.integers(0, 2, cfg.n_data * 2)
        taps = unit_taps(cfg.n_sk)
        # a middle data bin has no extension copy, so zeroing its tap kills it
        taps[cfg.n_se + cfg.n_data // 2] = 0.0
        sig, eff = shaped_block(bits, ModScheme.QPSK, taps, cfg)
        rx = SymbolBlock(Stage.RECEIVED, sig.values)
        with pytest.raises(EqualizationError):
            receiver_chain(rx, eff, cfg, ModScheme.QPSK)



# receiver_chain(apply_channel(...)) against the batched link, relative to the
# block's largest equalized symbol: two FFT round trips read at most 1.1e-15
BOUNDARY_RTOL = 1e-13


def shaped_bins(rng, scheme, n_blocks, cfg):
    """Blocks shaped at fixed power with a different tap kind per block.

    Returns (bins, effective taps), one row per block.
    """
    tap_kinds = [
        unit_taps(cfg.n_sk),
        rrc_taps(cfg.n_sk, 0.25),
        0.2 + rng.uniform(0.0, 1.0, cfg.n_sk),
        fir_bin_gains(rrc_fir(32, 0.25, sps=cfg.oversample), cfg),
    ]
    bits = rng.integers(0, 2, (n_blocks, cfg.n_data * scheme.bits_per_symbol))
    taps = np.stack([tap_kinds[b % 4] for b in range(n_blocks)])
    bins, eff, _ = shape_and_normalize(extend(precode(map_symbols(bits, scheme)), cfg.n_se), taps)
    return bins, eff


class TestReceive:
    @pytest.mark.parametrize("scheme", [ModScheme.QPSK, ModScheme.QAM16])
    def test_batch_equals_per_block_receiver_chain_bytewise(self, cfg, scheme):
        # per-block fades from all three models and a different tap kind per block
        n_blocks = 12
        bins, eff_taps = shaped_bins(np.random.default_rng(77), scheme, n_blocks, cfg)
        models = list(ChannelModel)
        blocks, fades = [], []
        for b in range(n_blocks):
            sig = SymbolBlock(Stage.TIME_DOMAIN, time_signal(bins[b], cfg, oversample=1))
            channel = ChannelCfg(models[b % 3], k_factor_db=3.0)
            rx, fade = apply_channel(sig, channel, 4.0 + b, cfg, np.random.default_rng((5, b)))
            blocks.append(rx)
            fades.append(fade)
        assert len(set(fades)) > n_blocks // 2  # the faded blocks differ
        rx = np.stack([block.values for block in blocks]).reshape(3, 4, -1)
        h = np.array(fades).reshape(3, 4, 1)
        detected, equalized = receive(occupied_bins(rx, cfg), h * eff_taps.reshape(3, 4, -1),
                                      cfg.n_se, scheme)
        assert detected.shape == equalized.shape == (3, 4, cfg.n_data)
        for b, block in enumerate(blocks):
            want_det, want_eq = receiver_chain(block, fades[b] * eff_taps[b], cfg, scheme)
            assert detected.reshape(n_blocks, -1)[b].tobytes() == want_det.values.tobytes()
            assert equalized.reshape(n_blocks, -1)[b].tobytes() == want_eq.tobytes()

    @pytest.mark.parametrize("scheme", [ModScheme.QPSK, ModScheme.QAM16])
    def test_batch_link_equals_per_row_link_bytewise(self, cfg, scheme):
        # add_channel then receive on a (3, 4) batch, one fade and SNR per block
        n_blocks = 12
        bins, eff_taps = shaped_bins(np.random.default_rng(78), scheme, n_blocks, cfg)
        models = list(ChannelModel)
        snrs = 4.0 + np.arange(n_blocks)
        fades, noise = zip(*(draw_block(np.random.default_rng((6, b)), None,
                                        ChannelCfg(models[b % 3], k_factor_db=3.0), 0, cfg.n_sk)[1:]
                             for b in range(n_blocks)))
        noise = np.array(noise)
        h = np.array(fades).reshape(3, 4, 1)
        rx = add_channel(bins.reshape(3, 4, -1), h, noise.reshape(3, 4, -1), snrs.reshape(3, 4))
        detected, equalized = receive(rx, h * eff_taps.reshape(3, 4, -1), cfg.n_se, scheme)
        for b, (fade, w) in enumerate(zip(fades, noise)):
            rx_b = add_channel(bins[b], fade, w, float(snrs[b]))
            want_det, want_eq = receive(rx_b, fade * eff_taps[b], cfg.n_se, scheme)
            assert rx.reshape(n_blocks, -1)[b].tobytes() == rx_b.tobytes()
            assert detected.reshape(n_blocks, -1)[b].tobytes() == want_det.tobytes()
            assert equalized.reshape(n_blocks, -1)[b].tobytes() == want_eq.tobytes()

    @pytest.mark.parametrize("model", list(ChannelModel))
    @pytest.mark.parametrize("oversample", [1, 4])
    def test_boundary_agrees_with_batched_link(self, cfg, model, oversample):
        # receiver_chain(apply_channel(...)) is the batched link plus two FFT
        # round trips (bins -> waveform -> bins, at each end of the channel)
        n_blocks, snr_db = 12, 8.0
        bins, eff_taps = shaped_bins(np.random.default_rng(79), ModScheme.QAM16, n_blocks, cfg)
        channel = ChannelCfg(model, k_factor_db=3.0)
        h, noise = zip(*(draw_block(np.random.default_rng((7, b)), None, channel, 0, cfg.n_sk)[1:]
                         for b in range(n_blocks)))
        h = np.array(h)[:, None]
        rx = add_channel(bins, h, np.array(noise), snr_db)
        detected, equalized = receive(rx, h * eff_taps, cfg.n_se, ModScheme.QAM16)
        for b in range(n_blocks):
            sig = SymbolBlock(Stage.TIME_DOMAIN, time_signal(bins[b], cfg, oversample))
            rx_b, fade = apply_channel(sig, channel, snr_db, cfg, np.random.default_rng((7, b)))
            assert len(rx_b) == cfg.n_fft * oversample
            assert fade == h[b, 0]
            det_b, eq_b = receiver_chain(rx_b, fade * eff_taps[b], cfg, ModScheme.QAM16)
            err = np.max(np.abs(eq_b - equalized[b])) / np.max(np.abs(equalized[b]))
            assert err < BOUNDARY_RTOL
            np.testing.assert_array_equal(det_b.values, detected[b])


class TestEffectiveTaps:
    """``receive`` with the taps ``h * taps`` against dividing the fade out first.

    The two forms differ by rounding and by where ``GAIN_EPS`` sits: the
    guard moves each data bin ``r`` of the effective-taps form by
    ``|r| * GAIN_EPS * |1 - |h|^2| / (|h|^2 * gain + GAIN_EPS)``, with ``gain``
    the bin's folded |taps|^2, and the unitary inverse precoding moves no
    equalized symbol by more than the 2-norm of those shifts.
    """

    CFG = ChainConfig()

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(list(ChannelModel)),
        scheme=st.sampled_from(list(ModScheme)),
        depth=st.one_of(st.just(1.0), st.floats(1e-4, 1.0)),
        snr_db=st.floats(-5.0, 40.0),
        batch=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dividing_out_the_fade(self, model, scheme, depth, snr_db, batch, seed):
        cfg = self.CFG
        rng = np.random.default_rng(seed)
        bins, taps = shaped_bins(rng, scheme, 4, cfg)  # one tap kind per block
        channel = ChannelCfg(model, k_factor_db=3.0)
        h, noise = zip(*(draw_block(rng, None, channel, 0, cfg.n_sk)[1:] for _ in range(4)))
        h = np.array(h)[:, None]
        if model is not ChannelModel.AWGN:
            h *= depth  # down to a 1e-4 deep fade
        rx = add_channel(bins, h, np.array(noise), snr_db)
        if not batch:
            rx, h, taps = rx[0], h[0, 0], taps[0]
        detected, equalized = receive(rx, h * taps, cfg.n_se, scheme)
        want_det, want_eq = receive_reference(rx / h, taps, cfg.n_se, scheme)
        assert detected.shape == equalized.shape == want_eq.shape
        _, gain, recovered = _matched_fold(rx / h, taps, cfg.n_se)
        abs2 = np.abs(h) ** 2
        shift = np.abs(recovered) * GAIN_EPS * np.abs(1.0 - abs2) / (abs2 * gain + GAIN_EPS)
        tol = (1e-12 * np.abs(want_eq).max(axis=-1, keepdims=True)
               + np.linalg.norm(shift, axis=-1, keepdims=True))
        assert np.all(np.abs(equalized - want_eq) <= tol)
        # the detections agree wherever the reference is clear of every midpoint:
        # at the drawn fades that is every symbol, while a 1e-4 deep fade's
        # guard shift can move a few
        _, mids = pam_levels(scheme)
        near = np.zeros(want_eq.shape, dtype=bool)
        for axis in (want_eq.real, want_eq.imag):
            near |= np.any(np.abs(axis[..., None] - mids) <= tol[..., None], axis=-1)
        np.testing.assert_array_equal(detected[~near], want_det[~near])
        if depth == 1.0:
            assert not near.any()


class TestRoundTripInvariant:
    @pytest.mark.parametrize("scheme", list(ModScheme))
    def test_exact_recovery_any_positive_taps(self, cfg, rng, scheme):
        bits = rng.integers(0, 2, cfg.n_data * scheme.bits_per_symbol)
        taps = 0.11 + rng.uniform(0.0, 1.5, cfg.n_sk)  # min|F| > 0.1
        tx = map_symbols(bits, scheme)
        sig, eff = shaped_block(bits, scheme, taps, cfg)
        rx = SymbolBlock(Stage.RECEIVED, sig.values)
        detected, _ = receiver_chain(rx, eff, cfg, scheme)
        np.testing.assert_array_equal(detected.values, tx)

    def test_parseval_at_each_linear_stage(self, cfg, rng):
        bits = rng.integers(0, 2, cfg.n_data * 2)
        data = map_symbols(bits, ModScheme.QPSK)
        freq = precode(data)
        assert np.sum(np.abs(freq) ** 2) == pytest.approx(
            np.sum(np.abs(data) ** 2), rel=1e-9
        )
        shaped, _, _ = shape_and_normalize(extend(freq, cfg.n_se), unit_taps(cfg.n_sk))
        sig = time_signal(shaped, cfg, oversample=1)
        assert np.sum(np.abs(sig) ** 2) == pytest.approx(
            np.sum(np.abs(shaped) ** 2), rel=1e-9
        )
