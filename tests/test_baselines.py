from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyfdss.baselines import (
    SLM_ALPHABET,
    SLM_BOUND_SLACK_DB,
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
    SCHEME_NAMES,
    ChainConfig,
    ModScheme,
    extend,
    map_symbols,
    occupied_bins,
    precode,
    time_signal,
)
from tinyfdss import baselines
from tinyfdss.metrics import papr_db, single_precision, waveform_papr_db


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


def precoded_blocks(cfg, scheme, lead, seed):
    n_bits = cfg.n_data * scheme.bits_per_symbol
    bits = np.random.default_rng(seed).integers(0, 2, lead + (n_bits,))
    return precode(map_symbols(bits, scheme))


def slm_reference(spectrum, phases, cfg, identity_papr=None):
    """The exhaustive search ``slm_select`` ran before its critical-rate bound:
    every candidate synthesized on the oversampled grid, in complex64."""
    spectrum = single_precision(spectrum)
    phases = np.asarray(phases, dtype=np.complex64)

    def papr(u):
        return waveform_papr_db(extend(spectrum * phases[u], cfg.n_se), cfg)

    best = papr(0) if identity_papr is None else identity_papr
    idx = np.zeros(np.shape(best), dtype=np.intp)
    for u in range(1, len(phases)):
        candidate = papr(u)
        idx = np.where(candidate < best, u, idx)
        best = np.minimum(candidate, best)
    return idx, best


def assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w) and np.asarray(g).dtype == np.asarray(w).dtype
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


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

    def test_rounds_stay_double(self, cfg):
        # only the PAPR of CLF's result is measured in single precision
        blocks = np.stack([ext_block(cfg, seed=s) for s in range(3)])
        assert clf_reduce(blocks, ClfConfig(), cfg).dtype == np.complex128


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

    def test_identity_papr_replaces_candidate_zero(self, cfg, monkeypatch, slm_survivors):
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
            calls.append((chain.oversample, len(bins)))
            return real(bins, chain)

        monkeypatch.setattr(baselines, "waveform_papr_db", counting)
        reused_idx, reused = slm_select(blocks, phases, conv, identity)
        # candidates 1..7 only: each one's bound on every block, then the
        # oversampled synthesis of the blocks whose bound is near the minimum
        assert [n for k, n in calls if k == 1] == [len(blocks)] * 7
        survivors = slm_survivors(blocks, phases, conv)
        assert 0 < survivors < 7 * len(blocks)
        assert sum(n for k, n in calls if k == conv.oversample) == survivors
        np.testing.assert_array_equal(reused_idx, idx)
        assert reused.tobytes() == papr.tobytes()

    @pytest.mark.parametrize("mod", sorted(SCHEME_NAMES))
    def test_bound_keeps_the_exhaustive_bytes(self, cfg, mod):
        conv = conventional_config(cfg)
        phases = slm_phase_vectors(SlmConfig(num_candidates=8), conv.n_data)
        blocks = precoded_blocks(conv, SCHEME_NAMES[mod], (4096,), seed=11)
        idx, papr = slm_select(blocks, phases, conv)
        assert np.any(idx != 0)
        assert_same_bytes((idx, papr), slm_reference(blocks, phases, conv))
        identity = waveform_papr_db(blocks, conv)
        assert_same_bytes(slm_select(blocks, phases, conv, identity),
                          slm_reference(blocks, phases, conv, identity))

    def test_bound_keeps_the_exhaustive_bytes_extended(self, cfg):
        phases = slm_phase_vectors(SlmConfig(num_candidates=8), cfg.n_data)
        # the identity wins every precoded block here; on plain QPSK bins it
        # rarely does
        blocks = precoded_blocks(cfg, ModScheme.QPSK, (4096,), seed=12)
        blocks[2048:] = map_symbols(
            np.random.default_rng(12).integers(0, 2, (2048, cfg.n_data * 2)), ModScheme.QPSK)
        idx, papr = slm_select(blocks, phases, cfg)
        assert np.any(idx[2048:] != 0)
        assert_same_bytes((idx, papr), slm_reference(blocks, phases, cfg))

    @pytest.mark.parametrize("k", [-100, 0, 100])
    def test_bound_keeps_the_exhaustive_bytes_leading_axes_and_scales(self, cfg, k):
        phases = slm_phase_vectors(SlmConfig(num_candidates=8), cfg.n_data)
        # plain QPSK bins, where the identity rarely wins
        blocks = np.ldexp(1.0, k) * map_symbols(
            np.random.default_rng(13).integers(0, 2, (2, 3, cfg.n_data * 2)), ModScheme.QPSK)
        got = slm_select(blocks, phases, cfg)
        assert got[0].shape == (2, 3) and np.any(got[0] != 0)
        assert_same_bytes(got, slm_reference(blocks, phases, cfg))
        one = slm_select(blocks[1, 2], phases, cfg)
        assert isinstance(one[1], float)
        assert_same_bytes(one, slm_reference(blocks[1, 2], phases, cfg))

    def test_tie_with_the_identity_keeps_the_first_index(self, cfg):
        # a row of -1 (or the negation of a row) rotates every bin by pi: the
        # waveform is negated exactly and its PAPR has the same bytes, so the
        # earlier of the two rows must win
        rows = slm_phase_vectors(SlmConfig(num_candidates=2), cfg.n_data)
        phases = np.stack([rows[0], -rows[0], rows[1], -rows[1]])
        blocks = map_symbols(np.random.default_rng(14).integers(0, 2, (64, cfg.n_data * 2)),
                             ModScheme.QPSK)
        flipped = waveform_papr_db(extend(-blocks, cfg.n_se), cfg)
        assert flipped.tobytes() == waveform_papr_db(extend(blocks, cfg.n_se), cfg).tobytes()
        idx, papr = slm_select(blocks, phases, cfg)
        assert set(np.unique(idx)) == {0, 2}
        assert_same_bytes((idx, papr), slm_reference(blocks, phases, cfg))
        idx, _ = slm_select(blocks, phases[:2], cfg)
        assert np.all(idx == 0)

    @settings(max_examples=60, deadline=None)
    @given(
        mod=st.sampled_from(sorted(SCHEME_NAMES)),
        precoded=st.booleans(),
        conventional=st.booleans(),
        k=st.integers(-100, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_critical_rate_papr_bounds_the_oversampled_one(self, mod, precoded, conventional,
                                                           k, seed):
        chain = conventional_config(ChainConfig()) if conventional else ChainConfig()
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (8, chain.n_data * SCHEME_NAMES[mod].bits_per_symbol))
        symbols = map_symbols(bits, SCHEME_NAMES[mod])
        spectrum = single_precision(np.ldexp(1.0, k) * (precode(symbols) if precoded else symbols))
        phases = SLM_ALPHABET[rng.integers(0, len(SLM_ALPHABET), chain.n_data)]
        cand = extend(spectrum * phases.astype(np.complex64), chain.n_se)
        bound = waveform_papr_db(cand, replace(chain, oversample=1))
        assert np.all(bound <= waveform_papr_db(cand, chain) + SLM_BOUND_SLACK_DB / 100)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-100, 100])
    def test_far_power_of_two_scales_keep_the_bytes(self, cfg, k):
        # the spectrum is scaled into float32's range before its cast: at
        # 2**100 the unscaled cast's powers would overflow
        phases = slm_phase_vectors(SlmConfig(num_candidates=8), cfg.n_data)
        bits = np.random.default_rng(5).integers(0, 2, (6, cfg.n_data * 2))
        blocks = precode(map_symbols(bits, ModScheme.QPSK))
        idx, papr = slm_select(blocks, phases, cfg)
        far_idx, far_papr = slm_select(np.ldexp(1.0, k) * blocks, phases, cfg)
        np.testing.assert_array_equal(far_idx, idx)
        assert far_papr.tobytes() == papr.tobytes()

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
