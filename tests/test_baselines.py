from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from tinyfdss import baselines, metrics
from tinyfdss.metrics import papr_db, single_precision, synthesize, waveform_papr_db

from reference import clf as clf_reference
from reference import clip, fir_gains
from reference import slm as slm_reference


def freq_block(cfg, seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, cfg.n_data * 2)
    return precode(map_symbols(bits, ModScheme.QPSK))


def ext_block(cfg, seed=0):
    return extend(freq_block(cfg, seed), cfg.n_se)


SPECIAL_PARTS = (0.0, -0.0, np.inf, -np.inf, np.nan)


@st.composite
def seeded_samples(draw):
    """Complex normal samples (rows, n) with some real or imaginary parts set
    to +-0, +-inf or NaN."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    parts = x.view(np.float64).reshape(-1)  # real and imaginary parts, interleaved
    for i, value in draw(st.lists(st.tuples(st.integers(0, parts.size - 1),
                                            st.sampled_from(SPECIAL_PARTS)), max_size=16)):
        parts[i] = value
    return x


def precoded_blocks(cfg, scheme, lead, seed):
    n_bits = cfg.n_data * scheme.bits_per_symbol
    bits = np.random.default_rng(seed).integers(0, 2, lead + (n_bits,))
    return precode(map_symbols(bits, scheme))


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
        # the round trip is float32's: exact to ~1e-7 of the block's peak
        assert np.max(np.abs(out - block)) <= 1e-6 * np.max(np.abs(block))

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
        block = single_precision(ext_block(cfg))
        clf = ClfConfig(iterations=1)
        out = clf_reduce(block, clf, cfg)
        assert out.shape == (cfg.n_sk,)
        assert out.tobytes() == clf_reference(block, clf, cfg).astype(np.complex128).tobytes()

    def test_clip_matches_where_form_at_the_level(self, rng):
        x = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        x[:, :4] = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)]  # x == 0
        mag = np.abs(x)
        at = mag[:, 10:11]  # per-row level equal to that row's |x[10]|
        below = np.nextafter(at, 0.0)  # |x[10]| just above the level
        for level in (at, below, float(mag[0, 10]), float(np.median(mag))):
            with np.errstate(divide="raise", invalid="raise"):  # x == 0 divides by 1e-300
                got = clip_amplitude(x, level)
            assert got.tobytes() == clip(x, level).tobytes()
        assert np.array_equal(clip_amplitude(x, at)[:, 10], x[:, 10])
        assert np.all(np.abs(clip_amplitude(x, below)[:, 10]) < mag[:, 10])

    def test_zero_sample_under_a_level_past_the_guard_ratio(self):
        # level / guard overflows where x == 0 (float32: 4 / ~1.2e-38), which
        # the clip maps to a factor of 1 as the where form does
        for dtype, level in ((np.complex64, 4.0), (np.complex128, 1e20)):
            x = np.array([[0.0, complex(-0.0, -0.0), 1.0]], dtype=dtype)
            got = clip_amplitude(x, level)
            assert got.tobytes() == clip(x, level).tobytes()
            assert np.array_equal(got, x)

    @settings(max_examples=200, deadline=None)
    @given(x=seeded_samples(), kind=st.sampled_from(["scalar", "row", "rms"]),
           ratio=st.floats(0.0, 4.0, allow_subnormal=False),
           dtype=st.sampled_from([np.complex128, np.complex64]))
    def test_clip_matches_where_form_on_special_parts(self, x, kind, ratio, dtype):
        # +-0 parts (x * 1.0 can flip a signed zero), +-inf and NaN, against a
        # scalar level, a per-row level and the per-row RMS level CLF uses
        # (inf or NaN on a row that holds inf or NaN); complex64 (CLF's
        # rounds) in float32 throughout
        x = x.astype(dtype)
        with np.errstate(invalid="ignore"):  # inf * 0 and inf / inf, in both forms
            mag = np.abs(x)
            level = {"scalar": ratio, "row": ratio * mag[:, -1:],
                     "rms": ratio * np.sqrt(np.mean(mag**2, axis=-1, keepdims=True))}[kind]
            assert clip_amplitude(x, level).tobytes() == clip(x, level).tobytes()

    def test_subnormal_row_is_clipped(self, cfg):
        # the largest |bin| ~1e-310 is subnormal, and its power-of-two scale
        # is capped at float64's largest; the clip and filter still act
        block = ext_block(cfg)
        tiny = block * (1e-310 / np.max(np.abs(block)))
        out = clf_reduce(tiny, ClfConfig(), cfg)
        assert np.all(np.isfinite(out)) and np.any(out != 0)
        assert waveform_papr_db(out, cfg) < waveform_papr_db(tiny, cfg)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-80, 70])
    def test_complex64_rows_enter_at_their_row_scale(self, cfg, k):
        # as complex128 rows do: unscaled, the float32 powers of a row at
        # 2**70 overflow and those of a row at 2**-80 underflow
        block = single_precision(ext_block(cfg))
        far = (block * np.float32(2.0**k)).astype(np.complex64)
        want = clf_reduce(block, ClfConfig(), cfg) * 2.0**k
        assert clf_reduce(far, ClfConfig(), cfg).tobytes() == want.tobytes()

    def test_clip_ratio_past_float32_clips_nothing(self, cfg):
        # 800 and 6000 dB overflow the float32 level to inf, which clips
        # nothing, as 100 dB (no block comes near 1e5 times its RMS) does;
        # an all-zero row's level is 0 * inf, NaN, which clips nothing too.
        # pytest turns a RuntimeWarning into an error
        blocks = np.stack([ext_block(cfg, seed=s) for s in range(3)] + [np.zeros(cfg.n_sk)])
        want = clf_reduce(blocks, ClfConfig(clip_ratio_db=100.0), cfg)
        for db in (800.0, 6000.0):
            assert clf_reduce(blocks, ClfConfig(clip_ratio_db=db), cfg).tobytes() == want.tobytes()
        assert not np.any(want[-1])

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
        # the rounds run in single precision, and the result is complex128
        # for the float64 link and OOBE periodogram
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
        phases = slm_phase_vectors(SlmConfig(num_candidates=8), cfg.n_data)
        block = freq_block(cfg, seed=7)
        assert_same_bytes(slm_select(block, phases, cfg), slm_reference(block, phases, cfg))

    def test_running_minimum_matches_all_candidates_oracle(self, cfg):
        # every phase row twice: each block's minimum is tied between u and
        # u + 8, and the first index must win as it does for np.argmin
        phases = np.concatenate([slm_phase_vectors(SlmConfig(num_candidates=8), cfg.n_data)] * 2)
        # plain QPSK bins (no DFT precoding), where the identity rarely wins
        bits = np.random.default_rng(3).integers(0, 2, (12, cfg.n_data * 2))
        blocks = map_symbols(bits, ModScheme.QPSK)
        idx, _ = slm_select(blocks, phases, cfg)
        want, _ = slm_reference(blocks, phases, cfg)
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
        plain = synthesize(blocks, conv)  # candidate 0's record, as eval's draw holds it
        calls = []
        real = baselines.waveform_papr_db

        def counting(bins, chain):
            calls.append((chain.oversample, len(bins)))
            return real(bins, chain)

        monkeypatch.setattr(baselines, "waveform_papr_db", counting)
        reused_idx, reused = slm_select(plain, phases, conv)
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
        want = slm_reference(blocks, phases, conv)
        assert_same_bytes((idx, papr), want)
        assert_same_bytes(slm_select(synthesize(blocks, conv), phases, conv), want)

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

    def test_slack_keeps_a_candidate_whose_bound_lies_above_the_minimum(self):
        # candidate 1 is candidate 0 delayed by one critical-rate sample (a
        # linear phase across plain DFT-s-OFDM's band), so the two PAPRs tie
        # but for float32 rounding.  On some blocks candidate 1's PAPR lies
        # below candidate 0's while its critical-rate bound lies above it:
        # there only the slack keeps the exhaustive search's choice
        chain = conventional_config(ChainConfig())
        freq = np.arange(chain.n_data) - chain.n_data // 2
        phases = np.stack([np.ones(chain.n_data), np.exp(-2j * np.pi * freq / chain.n_fft)])
        phases = phases.astype(np.complex64)
        bits = np.random.default_rng(0).integers(0, 2, (128, chain.n_data * 2))
        spectrum = single_precision(precode(map_symbols(bits, ModScheme.QPSK)))
        papr = [waveform_papr_db(spectrum * p, chain) for p in phases]
        bound = waveform_papr_db(spectrum * phases[1], replace(chain, oversample=1))
        decided = (papr[1] < papr[0]) & (bound > papr[0])
        assert np.count_nonzero(decided) == 2  # blocks 39 and 99, by < 1e-6 dB
        idx, best = slm_select(spectrum, phases, chain)
        assert np.all(idx[decided] == 1)
        assert_same_bytes((idx, best), slm_reference(spectrum, phases, chain))

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


# a row's power-of-two exponent range per kind; "zero" rows are all zero
ROW_KINDS = {"unit": (-60, 60), "subnormal": (-1060, -1030), "huge": (1000, 1018), "zero": None}


@st.composite
def scaled_rows(draw):
    """QPSK rows (precoded or not), each times its own power of two, of kinds
    from ``ROW_KINDS``: subnormal rows are where ``row_scale`` caps its scale,
    huge ones sit a few binades under float64's largest value.  At least one
    row is not zero."""
    kinds = draw(st.lists(st.sampled_from(sorted(ROW_KINDS)), min_size=1, max_size=11))
    kinds.insert(draw(st.integers(0, len(kinds))), draw(st.sampled_from(["unit", "huge"])))
    exps = [0 if ROW_KINDS[k] is None else draw(st.integers(*ROW_KINDS[k])) for k in kinds]
    return kinds, exps, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


class TestFromSynthesis:
    """CLF and SLM run from a :func:`metrics.synthesize` record, as eval runs them
    from its plain transmit, give the bytes of their library entries on bins."""

    @settings(max_examples=40, deadline=None)
    @given(rows=scaled_rows(), tile=st.integers(1, 5), conventional=st.booleans())
    @example(rows=(["unit", "zero", "subnormal", "huge", "unit", "zero", "unit"],
                   [3, 0, -1050, 1016, -40, 0, 0], True, 1), tile=3, conventional=True)
    def test_record_gives_the_bytes_of_bins(self, rows, tile, conventional):
        kinds, exps, precoded, seed = rows
        chain = conventional_config(ChainConfig()) if conventional else ChainConfig()
        bits = np.random.default_rng(seed).integers(0, 2, (len(kinds), chain.n_data * 2))
        symbols = map_symbols(bits, ModScheme.QPSK)
        spectrum = (precode(symbols) if precoded else symbols) * np.ldexp(1.0, exps)[:, None]
        zero = np.array(kinds) == "zero"
        spectrum[zero] = 0.0
        bins = extend(spectrum, chain.n_se)
        clf = ClfConfig()
        phases = slm_phase_vectors(SlmConfig(num_candidates=8), chain.n_data)
        with pytest.MonkeyPatch.context() as mp:
            # tiles of ``tile`` rows: a record of more rows is walked tile by tile
            mp.setattr(metrics, "TILE_BYTES", 16 * chain.n_fft * chain.oversample * tile)
            plain = synthesize(bins, chain)
            got = clf_reduce(plain, clf, chain)
            assert got.tobytes() == clf_reduce(bins, clf, chain).tobytes()
            if zero.any():  # no PAPR, so no SLM choice, for an all-zero row
                with pytest.raises(ValueError, match="all-zero"):
                    slm_select(plain, phases, chain)
                plain = synthesize(bins[~zero], chain)
            assert plain.papr.tobytes() == waveform_papr_db(bins[~zero], chain).tobytes()
            spectrum = spectrum[~zero]
            got = slm_select(plain, phases, chain)
            assert_same_bytes(got, slm_select(spectrum, phases, chain))
        assert_same_bytes(got, slm_reference(spectrum, phases, chain))


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

    def test_rejects_no_taps(self):
        with pytest.raises(ValueError, match=r"^n_taps must be positive, got 0$"):
            rrc_fir(0)

    def test_bin_gains_match_circular_convolution(self, cfg, rng):
        self.check_bin_gains(cfg, rng)

    def test_bin_gains_wrap_a_fir_longer_than_the_grid(self, rng):
        # 16 grid samples against 32 taps: taps 16-31 wrap onto 0-15
        self.check_bin_gains(ChainConfig(n_data=8, n_se=2, n_fft=16, oversample=1), rng)

    @staticmethod
    def check_bin_gains(cfg, rng):
        conv = conventional_config(cfg)
        h = rrc_fir(32, 0.25, sps=conv.oversample)
        gains = fir_bin_gains(h, conv)
        np.testing.assert_allclose(gains, fir_gains(h, conv), atol=1e-12)
        bits = rng.integers(0, 2, conv.n_data * 2)
        spectrum = precode(map_symbols(bits, ModScheme.QPSK))
        # explicit circular convolution on the oversampled grid: tap t
        # delays the signal by t samples, modulo the grid
        x = time_signal(spectrum, conv)
        y = sum(tap * np.roll(x, t) for t, tap in enumerate(h))
        np.testing.assert_allclose(
            occupied_bins(y, conv), spectrum * gains, atol=1e-10
        )

    def test_rejects_bad_rolloff(self):
        with pytest.raises(ValueError):
            rrc_fir(32, 0.0)
