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
from tinyfdss import baselines
from tinyfdss.metrics import papr_db, waveform_papr_db


def freq_block(cfg, seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, cfg.n_data * 2)
    return precode(map_symbols(bits, ModScheme.QPSK))


def ext_block(cfg, seed=0):
    return extend(freq_block(cfg, seed), cfg.n_se)


def clip_where_reference(x, level):
    """``clip_amplitude`` before the in-place scale: the ``np.where`` form."""
    mag = np.abs(x)
    scale = np.where(mag > level, np.asarray(level) / np.maximum(mag, 1e-300), 1.0)
    return x * scale


def slm_one(block, slm, cfg):
    """SLM for one frequency-domain block: (chosen candidate's time signal, index)."""
    phases = slm_phase_vectors(slm, cfg.n_data)
    idx, _ = slm_select(block, phases, cfg)
    return time_signal(extend(block * phases[idx], cfg.n_se), cfg), idx


class TestClf:
    def test_clip_level_above_peak_is_identity(self, cfg):
        block = ext_block(cfg)
        out = clf_reduce(block, ClfConfig(clip_ratio_db=40.0, iterations=1), cfg)
        np.testing.assert_allclose(out, block, atol=1e-12)

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
        # the result is the occupied bins of the clipped signal, so nothing
        # outside the allocation is transmitted
        block = ext_block(cfg)
        clf = ClfConfig(iterations=1)
        out = clf_reduce(block, clf, cfg)
        assert out.shape == (cfg.n_sk,)
        x = time_signal(block, cfg)
        level = np.sqrt(np.mean(np.abs(x) ** 2)) * 10 ** (clf.clip_ratio_db / 20.0)
        np.testing.assert_array_equal(out, occupied_bins(clip_amplitude(x, level), cfg))

    def test_clip_matches_where_form_at_the_level(self, rng):
        x = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        x[:, :4] = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]  # x == 0
        mag = np.abs(x)
        at = mag[:, 10:11]  # per-row level equal to that row's |x[10]|
        below = np.nextafter(at, 0.0)  # |x[10]| just above the level
        for level in (at, below, float(mag[0, 10]), float(np.median(mag))):
            with np.errstate(divide="raise", invalid="raise"):  # x == 0 divides by 1e-300
                got = clip_amplitude(x, level)
            assert got.tobytes() == clip_where_reference(x, level).tobytes()
        assert np.array_equal(clip_amplitude(x, at)[:, 10], x[:, 10])
        assert np.all(np.abs(clip_amplitude(x, below)[:, 10]) < mag[:, 10])

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
        _, idx = slm_one(block, SlmConfig(num_candidates=1), cfg)
        assert idx == 0

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
        assert papr_db(out) == min(paprs)

    def test_running_minimum_matches_all_candidates_oracle(self, cfg):
        # every phase row twice: each block's minimum is tied between u and
        # u + 8, and the first index must win as it does for np.argmin
        phases = np.concatenate([slm_phase_vectors(SlmConfig(num_candidates=8), cfg.n_data)] * 2)
        # plain QPSK bins (no DFT precoding), where the identity rarely wins
        bits = np.random.default_rng(3).integers(0, 2, (12, cfg.n_data * 2))
        blocks = map_symbols(bits, ModScheme.QPSK)
        idx, _ = slm_select(blocks, phases, cfg)
        every = time_signal(extend(blocks[:, None, :] * phases[None], cfg.n_se), cfg)
        want = np.argmin(papr_db(every), axis=-1)
        assert np.all(want < 8) and len(set(want)) > 1
        np.testing.assert_array_equal(idx, want)

    def test_any_leading_shape(self, cfg):
        phases = slm_phase_vectors(SlmConfig(num_candidates=4), cfg.n_data)
        bits = np.random.default_rng(4).integers(0, 2, (2, 3, cfg.n_data * 2))
        blocks = precode(map_symbols(bits, ModScheme.QPSK))
        idx, _ = slm_select(blocks, phases, cfg)
        assert idx.shape == (2, 3)
        flat_idx, _ = slm_select(blocks.reshape(6, -1), phases, cfg)
        np.testing.assert_array_equal(idx.reshape(6), flat_idx)
        one_idx, _ = slm_select(blocks[1, 2], phases, cfg)
        assert np.shape(one_idx) == ()
        assert one_idx == flat_idx[5]

    def test_argmin_invariant_under_scaling(self, cfg):
        slm = SlmConfig(num_candidates=8)
        phases = slm_phase_vectors(slm, cfg.n_data)
        block = freq_block(cfg, seed=9)
        idx1, _ = slm_select(block, phases, cfg)
        idx2, _ = slm_select(3.7 * block, phases, cfg)
        assert idx1 == idx2

    @pytest.mark.parametrize("conventional", [False, True])
    def test_reported_papr_is_the_chosen_candidates(self, cfg, conventional):
        chain = conventional_config(cfg) if conventional else cfg
        phases = slm_phase_vectors(SlmConfig(num_candidates=8), chain.n_data)
        bits = np.random.default_rng(6).integers(0, 2, (2, 3, chain.n_data * 2))
        blocks = precode(map_symbols(bits, ModScheme.QPSK))
        idx, papr = slm_select(blocks, phases, chain)
        chosen = extend(blocks * phases[idx], chain.n_se)
        assert papr.shape == (2, 3)
        assert papr.tobytes() == waveform_papr_db(chosen, chain).tobytes()
        one_idx, one_papr = slm_select(blocks[1, 2], phases, chain)
        assert one_idx == idx[1, 2] and one_papr == papr[1, 2]

    def test_identity_papr_replaces_candidate_zero(self, cfg, monkeypatch):
        conv = conventional_config(cfg)
        phases = slm_phase_vectors(SlmConfig(num_candidates=8), conv.n_data)
        # precoded blocks, where the identity mostly wins, and plain QPSK
        # bins, where it rarely does
        symbols = map_symbols(np.random.default_rng(8).integers(0, 2, (40, conv.n_data * 2)),
                              ModScheme.QPSK)
        blocks = np.concatenate([precode(symbols[:20]), symbols[20:]])
        idx, papr = slm_select(blocks, phases, conv)
        assert np.any(idx == 0) and np.any(idx != 0)
        identity = waveform_papr_db(blocks, conv)
        calls = []
        real = baselines.waveform_papr_db

        def counting(bins, chain):
            calls.append(len(bins))
            return real(bins, chain)

        monkeypatch.setattr(baselines, "waveform_papr_db", counting)
        reused_idx, reused = slm_select(blocks, phases, conv, identity)
        assert calls == [len(blocks)] * 7  # candidates 1..7 only
        np.testing.assert_array_equal(reused_idx, idx)
        assert reused.tobytes() == papr.tobytes()

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
