import numpy as np
import pytest

from tinyfdss.baselines import (
    ClfConfig,
    SlmConfig,
    clf_reduce,
    clip_amplitude,
    conventional_config,
    fir_bin_gains,
    rrc_fir,
    slm_phase_vectors,
    slm_select,
)
from tinyfdss.chain import (
    ModScheme,
    extend,
    map_symbols,
    occupied_bins,
    precode,
    time_signal,
)
from tinyfdss.metrics import papr_db


def freq_block(cfg, seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, cfg.n_data * 2)
    return precode(map_symbols(bits, ModScheme.QPSK))


def ext_block(cfg, seed=0):
    return extend(freq_block(cfg, seed), cfg.n_se)


def slm_one(block, slm, cfg):
    """SLM for one frequency-domain block: (time signal, chosen index)."""
    return slm_select(block, slm_phase_vectors(slm, cfg.n_data), cfg)


class TestClf:
    def test_clip_level_above_peak_is_identity(self, cfg):
        block = ext_block(cfg)
        out = clf_reduce(block, ClfConfig(clip_ratio_db=40.0, iterations=1), cfg)
        ref = time_signal(block, cfg)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_clip_stage_bound_is_exact(self, cfg, rng):
        x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        level = 0.8 * np.max(np.abs(x))
        clipped = clip_amplitude(x, level)
        assert np.max(np.abs(clipped)) <= level * (1 + 1e-12)
        kept = np.abs(x) <= level
        np.testing.assert_array_equal(clipped[kept], x[kept])

    def test_clip_stage_never_raises_papr(self, cfg):
        # first iteration's clip itself can only reduce the peak
        rng = np.random.default_rng(3)
        for i in range(100):
            x = time_signal(ext_block(cfg, seed=i), cfg)
            level = np.sqrt(np.mean(np.abs(x) ** 2)) * 10 ** (4.0 / 20.0)
            clipped = clip_amplitude(x, level)
            assert papr_db(clipped) <= papr_db(x) + 1e-9

    def test_filtering_restores_allocation(self, cfg):
        out = clf_reduce(ext_block(cfg), ClfConfig(), cfg)
        grid = np.fft.fftshift(np.fft.fft(out))
        n = len(out)
        start = n // 2 - cfg.n_sk // 2
        out_of_band = np.concatenate([grid[:start], grid[start + cfg.n_sk :]])
        assert np.max(np.abs(out_of_band)) < 1e-9 * np.max(np.abs(grid))

    def test_deterministic(self, cfg):
        block = ext_block(cfg)
        a = clf_reduce(block, ClfConfig(), cfg)
        b = clf_reduce(block, ClfConfig(), cfg)
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            ClfConfig(iterations=0)

    def test_batch_matches_single(self, cfg):
        blocks = np.stack([ext_block(cfg, seed=s) for s in range(3)])
        batch = clf_reduce(blocks, ClfConfig(), cfg)
        for i in range(3):
            single = clf_reduce(blocks[i], ClfConfig(), cfg)
            np.testing.assert_allclose(batch[i], single, atol=1e-12)


class TestSlm:
    def test_never_worse_than_identity(self, cfg):
        for seed in range(20):
            block = freq_block(cfg, seed=seed)
            baseline = papr_db(time_signal(extend(block, cfg.n_se), cfg))
            out, idx = slm_one(block, SlmConfig(num_candidates=8), cfg)
            assert papr_db(out) <= baseline + 1e-12

    def test_single_candidate_is_identity(self, cfg):
        block = freq_block(cfg)
        out, idx = slm_one(block, SlmConfig(num_candidates=1), cfg)
        assert idx == 0
        ref = time_signal(extend(block, cfg.n_se), cfg)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_argmin_matches_per_candidate_oracle(self, cfg):
        slm = SlmConfig(num_candidates=8)
        phases = slm_phase_vectors(slm, cfg.n_data)
        block = freq_block(cfg, seed=7)
        out, idx = slm_one(block, slm, cfg)
        paprs = []
        for u in range(8):
            cand = time_signal(extend(block * phases[u], cfg.n_se), cfg)
            paprs.append(papr_db(cand))
        assert idx == int(np.argmin(paprs))
        assert papr_db(out) == pytest.approx(min(paprs), abs=1e-12)

    def test_running_minimum_matches_all_candidates_oracle(self, cfg):
        # every phase row twice: each block's minimum is tied between u and
        # u + 8, and the first index must win as it does for np.argmin
        phases = np.concatenate([slm_phase_vectors(SlmConfig(num_candidates=8), cfg.n_data)] * 2)
        # plain QPSK bins (no DFT precoding), where the identity rarely wins
        bits = np.random.default_rng(3).integers(0, 2, (12, cfg.n_data * 2))
        blocks = map_symbols(bits, ModScheme.QPSK)
        out, idx = slm_select(blocks, phases, cfg)
        every = time_signal(extend(blocks[:, None, :] * phases[None], cfg.n_se), cfg)
        want = np.argmin(papr_db(every), axis=-1)
        assert np.all(want < 8) and len(set(want)) > 1
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(out, every[np.arange(len(blocks)), want])

    def test_any_leading_shape(self, cfg):
        phases = slm_phase_vectors(SlmConfig(num_candidates=4), cfg.n_data)
        bits = np.random.default_rng(4).integers(0, 2, (2, 3, cfg.n_data * 2))
        blocks = precode(map_symbols(bits, ModScheme.QPSK))
        n = cfg.n_fft * cfg.oversample
        out, idx = slm_select(blocks, phases, cfg)
        assert out.shape == (2, 3, n) and idx.shape == (2, 3)
        flat_out, flat_idx = slm_select(blocks.reshape(6, -1), phases, cfg)
        np.testing.assert_array_equal(out.reshape(6, n), flat_out)
        np.testing.assert_array_equal(idx.reshape(6), flat_idx)
        one_out, one_idx = slm_select(blocks[1, 2], phases, cfg)
        assert one_out.shape == (n,) and np.shape(one_idx) == ()
        np.testing.assert_array_equal(one_out, flat_out[5])
        assert one_idx == flat_idx[5]

    def test_argmin_invariant_under_scaling(self, cfg):
        slm = SlmConfig(num_candidates=8)
        phases = slm_phase_vectors(slm, cfg.n_data)
        block = freq_block(cfg, seed=9)
        _, idx1 = slm_select(block, phases, cfg)
        _, idx2 = slm_select(3.7 * block, phases, cfg)
        assert idx1 == idx2

    def test_identity_candidate_is_row_zero(self, cfg):
        phases = slm_phase_vectors(SlmConfig(num_candidates=4), cfg.n_data)
        np.testing.assert_array_equal(phases[0], np.ones(cfg.n_data))
        assert set(np.unique(phases[1:])) <= {1 + 0j, -1 + 0j, 1j, -1j}

    def test_rejects_zero_candidates(self):
        with pytest.raises(ValueError):
            SlmConfig(num_candidates=0)


class TestConventionalConfig:
    def test_same_band_no_extension(self, cfg):
        conv = conventional_config(cfg)
        assert conv.n_sk == cfg.n_sk
        assert conv.n_se == 0
        assert conv.n_data == cfg.n_sk
        assert conv.n_fft == cfg.n_fft


class TestRrcFir:
    def test_unit_energy(self):
        h = rrc_fir(32, 0.25, sps=4)
        assert np.sum(h**2) == pytest.approx(1.0, rel=1e-12)

    def test_symmetric_for_odd_length(self):
        h = rrc_fir(33, 0.25, sps=4)
        np.testing.assert_allclose(h, h[::-1], atol=1e-12)

    def test_bin_gains_match_circular_convolution(self, cfg, rng):
        conv = conventional_config(cfg)
        h = rrc_fir(32, 0.25, sps=conv.oversample)
        gains = fir_bin_gains(h, conv)
        bits = rng.integers(0, 2, conv.n_data * 2)
        spectrum = precode(map_symbols(bits, ModScheme.QPSK))
        # explicit circular convolution on the oversampled grid
        x = time_signal(spectrum, conv)
        n = len(x)
        y = np.fft.ifft(np.fft.fft(x) * np.fft.fft(h, n))
        np.testing.assert_allclose(
            occupied_bins(y, conv), spectrum * gains, atol=1e-10
        )

    def test_rejects_bad_rolloff(self):
        with pytest.raises(ValueError):
            rrc_fir(32, 0.0)
