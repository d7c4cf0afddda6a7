import json
import tracemalloc
from collections import Counter
from dataclasses import astuple, replace
from importlib.resources import files
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tinyfdss import baselines, channel, evaluation, metrics, network
from tinyfdss.baselines import clf_reduce, conventional_config, slm_phase_vectors, slm_select
from tinyfdss.chain import (SCHEME_NAMES, ChainConfig, ModScheme, detect_symbols, equalize,
                            time_signal)
from tinyfdss.channel import MODEL_NAMES
from tinyfdss.evaluation import SCHEMES, EvalConfig, evaluate
from tinyfdss.filters import unit_taps
from tinyfdss.metrics import (OOBE_MIN_BLOCKS, papr_at_ccdf, papr_db, single_precision,
                             tile_rows, waveform_papr_db)
from tinyfdss.training import TrainConfig, train

from reference import clf as clf_reference
from reference import eval_cells, eval_channel_draw, eval_draw, qpsk_ser
from reference import slm as slm_reference
from reference import waveform_papr_db as papr_reference


@pytest.fixture(scope="module")
def small_ckpt():
    return train(TrainConfig(n_blocks=256, epochs=2, batch_size=32, seed=21))


@pytest.fixture(scope="module")
def small_eval():
    return EvalConfig(
        snr_db=(10.0,),
        channels=("awgn",),
        mods=("qpsk",),
        n_blocks=60,
        ccdf_blocks=400,
        oobe_blocks=16,
        seed=5,
    )


class TestEvaluate:
    def test_all_schemes_produce_cells(self, small_ckpt, small_eval):
        result = evaluate(small_ckpt, small_eval, ChainConfig())
        assert set(result.schemes) == {"tinyml", "rrc", "dftsofdm", "clf", "slm"}
        assert len(result.cells) == len(result.schemes)
        for cell in result.cells:
            assert 0.0 <= cell.ser <= 1.0
            assert np.isfinite(cell.mean_papr_db)

    def test_summary_schema_keys(self, small_ckpt, small_eval):
        result = evaluate(small_ckpt, small_eval, ChainConfig())
        for scheme in ("tinyml", "rrc", "dftsofdm", "clf", "slm"):
            assert "papr_at_ccdf_1e3_db" in result.summary[scheme]
        assert result.summary["tinyml"]["delta_vs_rrc_db"] == pytest.approx(
            result.summary["tinyml"]["papr_at_ccdf_1e3_db"]
            - result.summary["rrc"]["papr_at_ccdf_1e3_db"]
        )

    def test_paired_seeds_same_channel_different_papr(self, small_ckpt, small_eval):
        # trained vs flat: PAPR differs, channel draws identical, so the SER
        # cells stay comparable block by block
        result = evaluate(small_ckpt, small_eval, ChainConfig())
        papr = {c.scheme: c.mean_papr_db for c in result.cells}
        assert papr["tinyml"] != papr["dftsofdm"]

    def test_matched_snr_pairing_across_channels(self, small_ckpt):
        # identical data seeds at matched SNR: transmit PAPR is channel-blind
        eval_cfg = EvalConfig(
            snr_db=(10.0,), channels=("rayleigh", "rician"), mods=("qpsk",),
            n_blocks=40, ccdf_blocks=200, oobe_blocks=16, seed=6,
            schemes=("tinyml", "rrc"),
        )
        result = evaluate(small_ckpt, eval_cfg, ChainConfig())
        by_key = {(c.scheme, c.channel): c.mean_papr_db for c in result.cells}
        assert by_key[("tinyml", "rayleigh")] == by_key[("tinyml", "rician")]
        assert by_key[("rrc", "rayleigh")] == by_key[("rrc", "rician")]

    def test_rician_uses_k_factor(self, small_ckpt):
        eval_cfg = EvalConfig(
            snr_db=(10.0,), channels=("rician",), mods=("qpsk",), n_blocks=40,
            ccdf_blocks=200, oobe_blocks=16, seed=7, schemes=("dftsofdm",),
            rician_k_db=10.0,
        )
        result = evaluate(small_ckpt, eval_cfg, ChainConfig())
        assert result.cells[0].ser_total > 0

    def test_qam64_generalization_runs(self, small_ckpt):
        # checkpoint trained on QPSK/16-QAM evaluates on 64-QAM without error
        eval_cfg = EvalConfig(
            snr_db=(15.0,), channels=("awgn", "rayleigh", "rician"),
            mods=("qam64",), n_blocks=30, ccdf_blocks=100, oobe_blocks=16,
            seed=8, schemes=("tinyml",),
        )
        result = evaluate(small_ckpt, eval_cfg, ChainConfig())
        assert len(result.cells) == 3
        for cell in result.cells:
            assert np.isfinite(cell.ser)

    def test_baselines_only_without_checkpoint(self, small_eval):
        from dataclasses import replace

        cfg = replace(small_eval, schemes=("rrc", "dftsofdm", "clf", "slm"))
        result = evaluate(None, cfg, ChainConfig())
        assert "tinyml" not in result.summary

    def test_rrc_fdss_extra_scheme(self, small_eval):
        # static frequency-domain RRC on the extended chain decodes cleanly
        from dataclasses import replace

        cfg = replace(small_eval, schemes=("rrc_fdss", "dftsofdm"))
        result = evaluate(None, cfg, ChainConfig())
        cell = next(c for c in result.cells if c.scheme == "rrc_fdss")
        assert cell.ser < 0.05  # 10 dB AWGN decodes almost everything
        # shaping with the extension protected: lower PAPR than flat
        assert (
            result.summary["rrc_fdss"]["papr_at_ccdf_1e3_db"]
            < result.summary["dftsofdm"]["papr_at_ccdf_1e3_db"]
        )

    def test_each_block_drawn_once(self, small_ckpt, monkeypatch):
        # the walk draws each modulation's blocks once for the CCDF samples
        # and every scheme, channel and SNR of the grid: the first modulation's
        # first max(n_blocks, ccdf_blocks), each other one's first n_blocks
        eval_cfg = EvalConfig(
            snr_db=(5.0, 10.0), channels=("awgn", "rayleigh"),
            mods=("qpsk", "qam16"), n_blocks=20, ccdf_blocks=50, oobe_blocks=16,
            seed=9, schemes=("tinyml", "rrc", "slm"),
        )
        rows = []
        real = channel.map_symbols

        def counting(bits, scheme):
            rows.append(1 if np.ndim(bits) == 1 else len(bits))
            return real(bits, scheme)

        monkeypatch.setattr(channel, "map_symbols", counting)
        result = evaluate(small_ckpt, eval_cfg, ChainConfig())
        assert len(result.cells) == 3 * 2 * 2 * 2
        assert sum(rows) == max(eval_cfg.n_blocks, eval_cfg.ccdf_blocks) + (
            len(eval_cfg.mods) - 1) * eval_cfg.n_blocks

    def test_channel_drawn_once_and_snr_blind_schemes_sent_once(
        self, small_ckpt, monkeypatch
    ):
        # fades and noise are drawn once per (channel, mod, SNR) for all
        # schemes; only tinyml's transmit depends on the SNR, so the grid
        # keeps every other scheme's CCDF transmit, and each of tinyml's
        # transmits is one batched feedback cycle of the adaptation loop
        eval_cfg = EvalConfig(
            snr_db=(5.0, 10.0), channels=("awgn", "rayleigh"),
            mods=("qpsk", "qam16"), n_blocks=20, ccdf_blocks=50, oobe_blocks=16,
            seed=9, schemes=("tinyml", "rrc", "slm"),
        )
        drawn = Counter()  # blocks drawn per (channel, mod, SNR) cell
        real_draws = evaluation._cell_draws

        def counting_draws(eval_cfg, channel_name, mod, snr_i, n, indices):
            drawn[channel_name, mod, snr_i] += len(indices)
            return real_draws(eval_cfg, channel_name, mod, snr_i, n, indices)

        sent = Counter()  # blocks each scheme transmits

        def counting_scheme(name, scheme):
            def build(*args):
                rule = scheme.build(*args)

                def send(draw, snr_db):
                    sent[name] += len(draw.conv.bins)
                    return rule(draw, snr_db)
                return send
            return replace(scheme, build=build)

        cycles = []
        real_cycle = evaluation.adaptation_cycle

        def counting_cycle(snr_db, net, s_ext):
            cycles.append((len(s_ext), snr_db))
            return real_cycle(snr_db, net, s_ext)

        net_calls = []
        real_predict = network.predict_coeffs

        def counting_predict(*args):
            net_calls.append(1)
            return real_predict(*args)

        monkeypatch.setattr(evaluation, "_cell_draws", counting_draws)
        for name, scheme in SCHEMES.items():
            monkeypatch.setitem(SCHEMES, name, counting_scheme(name, scheme))
        monkeypatch.setattr(evaluation, "adaptation_cycle", counting_cycle)
        monkeypatch.setattr(network, "predict_coeffs", counting_predict)
        result = evaluate(small_ckpt, eval_cfg, ChainConfig())
        n, n_ccdf, ccdf_snr = eval_cfg.n_blocks, eval_cfg.ccdf_blocks, eval_cfg.ccdf_snr_db
        n_mods, n_snrs = len(eval_cfg.mods), len(eval_cfg.snr_db)
        assert len(result.cells) == 3 * 2 * n_mods * n_snrs
        assert drawn == {cell: n for cell in product(
            eval_cfg.channels, eval_cfg.mods, range(n_snrs))}
        blind = n_ccdf + (n_mods - 1) * n  # each block drawn, sent once
        assert sent == {"tinyml": n_ccdf + n_mods * n_snrs * n, "rrc": blind, "slm": blind}
        # the first modulation's grid chunk at the CCDF SNR and each grid SNR,
        # its CCDF chunk past n_blocks, then the second modulation's grid chunk
        grid = [(n, snr_db) for snr_db in eval_cfg.snr_db]
        assert cycles == [(n, ccdf_snr), *grid, (n_ccdf - n, ccdf_snr), *grid]
        assert len(net_calls) == len(cycles)  # the net runs only inside the cycle

    def test_cell_order_is_scheme_channel_mod_snr(self, small_ckpt):
        eval_cfg = EvalConfig(
            snr_db=(5.0, 10.0), channels=("awgn", "rician"),
            mods=("qpsk", "qam16"), n_blocks=10, ccdf_blocks=30, oobe_blocks=16,
            seed=10, schemes=("dftsofdm", "tinyml"),
        )
        result = evaluate(small_ckpt, eval_cfg, ChainConfig())
        got = [(c.scheme, c.channel, c.mod, c.snr_db) for c in result.cells]
        assert got == list(product(eval_cfg.schemes, eval_cfg.channels,
                                   eval_cfg.mods, eval_cfg.snr_db))

    def test_tinyml_without_checkpoint_rejected(self, small_eval):
        with pytest.raises(ValueError):
            evaluate(None, small_eval, ChainConfig())

    def test_missing_checkpoint_fails_before_any_draw(self, small_eval, monkeypatch):
        drawn = []
        monkeypatch.setattr(evaluation, "block_rngs", lambda *a, **k: drawn.append(a))
        with pytest.raises(ValueError, match="requires a checkpoint"):
            evaluate(None, small_eval, ChainConfig())
        assert drawn == []

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(schemes=("warp_drive",))

    def test_summary_schema_lists_every_scheme(self):
        # summary.json's scheme keys are checked against the packaged schema
        schema = json.loads(files("tinyfdss").joinpath("schemas/summary.schema.json").read_text())
        assert set(schema["properties"]) - {"meta"} == set(SCHEMES)

    def test_dftsofdm_ser_matches_closed_form(self):
        # conventional chain has no extension folding, so the per-symbol SNR
        # equals the configured value exactly and the Q-function applies as-is
        snr_db = 10.0
        theory = qpsk_ser(snr_db)
        eval_cfg = EvalConfig(
            snr_db=(snr_db,), channels=("awgn",), mods=("qpsk",),
            n_blocks=500, ccdf_blocks=100, oobe_blocks=16, seed=12,
            schemes=("dftsofdm",),
        )
        cell = evaluate(None, eval_cfg, ChainConfig()).cells[0]
        sem = np.sqrt(theory * (1 - theory) / cell.ser_total)
        assert abs(cell.ser - theory) <= 3 * sem


class TestDrawsMatchPerBlockRng:
    """Eval's two ``draw_blocks`` calls against one ``block_rng`` per block, bytewise."""

    def test_data_symbols_bits(self):
        indices = np.array([0, 1, 5, 2047, 2048, 19_999])
        for mod in SCHEME_NAMES:
            got, want = (draw(ChainConfig(), 14, mod, indices)
                         for draw in (evaluation._draw, eval_draw))
            for a, b in ((got.ext, want.ext), (got.conv, want.conv)):
                assert a.cfg == b.cfg
                for name in ("bins", "taps", "symbols"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_draw_channels_fades_and_noise(self):
        eval_cfg = EvalConfig(snr_db=(0.0, 12.5), channels=("awgn", "rayleigh", "rician"),
                              mods=("qpsk", "qam64"), n_blocks=25, rician_k_db=6.0, seed=15)
        n = ChainConfig().n_sk
        for channel_name, mod, snr_i in product(eval_cfg.channels, eval_cfg.mods,
                                                range(len(eval_cfg.snr_db))):
            h, noise = evaluation._cell_draws(eval_cfg, channel_name, mod, snr_i, n,
                                              np.arange(eval_cfg.n_blocks))
            assert h.shape == (eval_cfg.n_blocks, 1) and noise.shape == (eval_cfg.n_blocks, n)
            for idx in range(eval_cfg.n_blocks):
                fade, want = eval_channel_draw(eval_cfg, channel_name, mod, snr_i, idx, n)
                assert h[idx].tobytes() == fade.tobytes()
                assert noise[idx].tobytes() == want.tobytes()


# chain layouts for the grid property: the default, even and odd n_sk, and no extension
GRID_CHAINS = [ChainConfig(), ChainConfig(n_data=24, n_se=4, n_fft=64),
               ChainConfig(n_data=25, n_se=3, n_fft=64, oversample=2),
               ChainConfig(n_data=30, n_se=0, n_fft=32)]


@st.composite
def small_evals(draw):
    """Eval configs of a few blocks over any schemes, channels, modulations and
    SNRs, with a CCDF pass of its least size or a few blocks more."""
    def some(names):
        return tuple(draw(st.lists(st.sampled_from(list(names)), min_size=1, unique=True)))
    return EvalConfig(
        snr_db=tuple(draw(st.lists(st.floats(-5.0, 25.0), min_size=1, max_size=2, unique=True))),
        channels=some(MODEL_NAMES), mods=some(SCHEME_NAMES), schemes=some(SCHEMES),
        n_blocks=draw(st.integers(1, 6)), ccdf_blocks=draw(st.integers(OOBE_MIN_BLOCKS, 14)),
        oobe_blocks=OOBE_MIN_BLOCKS, rician_k_db=draw(st.sampled_from([-3.0, 3.0, 10.0])),
        use_quantized=draw(st.booleans()), seed=draw(st.integers(0, 2**32 - 1)))


class TestGrid:
    EVAL = EvalConfig(
        snr_db=(4.0, 11.0), channels=("rayleigh", "rician"), mods=("qpsk", "qam16"),
        n_blocks=12, ccdf_blocks=64, oobe_blocks=16, seed=17,
        schemes=tuple(SCHEMES),
    )

    @settings(max_examples=12, deadline=None)
    @given(cfg=st.sampled_from(GRID_CHAINS), eval_cfg=small_evals(),
           net_seed=st.integers(0, 2**32 - 1))
    @example(cfg=ChainConfig(), eval_cfg=EVAL, net_seed=0)
    def test_cells_equal_scheme_outer_reference(self, cfg, eval_cfg, net_seed):
        # every scheme through each cell's one draw gives each cell the bytes
        # of that cell transmitted and drawn on its own
        net = network.init_params(np.random.default_rng(net_seed), hidden_width=8,
                                  input_dim=cfg.n_sk + 1)
        self.check_against_reference(cfg, eval_cfg, network.quantize(net)
                                     if eval_cfg.use_quantized else net)

    def test_chunked_cells_equal_scheme_outer_reference(self, small_ckpt, monkeypatch):
        # each modulation's 12 grid blocks come as two full chunks and a
        # partial one, the first one's CCDF blocks past them in chunks of
        # their own; per-chunk sends, draws and error counts change no bytes
        monkeypatch.setattr(evaluation, "CHUNK_BLOCKS", 5)
        sizes, real = [], evaluation._chunks

        def recording(lo, hi):
            for chunk in real(lo, hi):
                sizes.append(len(chunk))
                yield chunk

        monkeypatch.setattr(evaluation, "_chunks", recording)
        self.check_against_reference(ChainConfig(), self.EVAL,
                                     small_ckpt.deployed_net(self.EVAL.use_quantized))
        assert sizes == [5, 5, 2] + [5] * 10 + [2] + [5, 5, 2]

    def test_grid_past_the_ccdf_blocks_equals_scheme_outer_reference(self, small_ckpt):
        # n_blocks above ccdf_blocks and no multiple of the chunk: the first
        # chunk holds every CCDF block and grid blocks past them, the last
        # grid chunk is partial, and the second modulation has no CCDF block
        n = evaluation.CHUNK_BLOCKS + 5
        eval_cfg = replace(self.EVAL, snr_db=(8.0,), channels=("rician",), n_blocks=n,
                           ccdf_blocks=n - 40)
        self.check_against_reference(ChainConfig(), eval_cfg, small_ckpt.deployed_net(True))

    @staticmethod
    def check_against_reference(cfg, eval_cfg, net):
        # the cells, and each scheme's CCDF samples and OOBE from its transmit
        # of the first modulation's CCDF blocks in one batch (the library's
        # C-ordered draw: a transmit's last bits may follow the bins' layout)
        rules = evaluation._rules(cfg, eval_cfg, net)
        samples, oobe, cells = evaluation._walk(cfg, eval_cfg, rules)
        got = [astuple(c) for c in cells]
        want = [astuple(c) for c in eval_cells(cfg, eval_cfg, rules)]
        assert len(got) == len(eval_cfg.schemes) * len(eval_cfg.channels) * len(
            eval_cfg.mods) * len(eval_cfg.snr_db)
        assert repr(got) == repr(want)
        draw = evaluation._draw(cfg, eval_cfg.seed, eval_cfg.mods[0],
                                np.arange(eval_cfg.ccdf_blocks))
        for scheme, rule in rules.items():
            tx = rule(draw, eval_cfg.ccdf_snr_db)
            assert samples[scheme].tobytes() == tx.waveform_papr.tobytes(), scheme
            signal = time_signal(tx.bins[: eval_cfg.oobe_blocks], tx.cfg)
            assert repr(oobe[scheme]) == repr(float(metrics.oobe_db(signal, tx.cfg))), scheme


class TestBaselineTransmit:
    """``clf`` and ``slm`` hand the link occupied bins and receiver taps."""

    EVAL = EvalConfig(snr_db=(10.0,), n_blocks=20, ccdf_blocks=300, oobe_blocks=16,
                      seed=5, schemes=("clf", "slm"))

    @pytest.fixture(scope="class")
    def run(self):
        draw = evaluation._draw(ChainConfig(), self.EVAL.seed, "qpsk",
                                np.arange(self.EVAL.ccdf_blocks))
        return draw, evaluate(None, self.EVAL, ChainConfig())

    def test_slm_samples_are_minimum_over_candidates(self, run):
        draw, result = run
        conv = conventional_config(ChainConfig())
        phases = slm_phase_vectors(self.EVAL.slm, conv.n_data)
        _, want = slm_reference(draw.conv.bins, phases, conv)
        assert result.papr_samples["slm"].tobytes() == want.tobytes()

    def test_clf_samples_match_reference_loop(self, run):
        draw, result = run
        conv = conventional_config(ChainConfig())
        # the rounds in complex64 on the scaled bins, the result's PAPR by the
        # complex64 rule, which is blind to the power-of-two scale
        want = papr_reference(clf_reference(single_precision(draw.conv.bins), self.EVAL.clf, conv),
                              conv)
        assert result.papr_samples["clf"].tobytes() == want.tobytes()

    def test_noise_free_slm_link_recovers_every_symbol(self, run):
        # the chosen phases are the receiver taps: its matched filter derotates
        draw, _ = run
        slm = SCHEMES["slm"].build(ChainConfig(), self.EVAL, None)
        tx = slm(draw, self.EVAL.ccdf_snr_db)
        assert np.any(tx.taps != 1.0)  # some block chose a rotated candidate
        detected = detect_symbols(equalize(tx.bins, tx.taps, 0), ModScheme.QPSK)
        np.testing.assert_array_equal(detected, tx.symbols)
        unrotated = detect_symbols(equalize(tx.bins, unit_taps(tx.cfg.n_sk), 0), ModScheme.QPSK)
        assert np.any(unrotated != tx.symbols)


class TestCcdfPassReuse:
    """The walk's CCDF pass measures the plain waveform once and keeps SLM's
    running minimum, and its grid reuses the transmits of SNR-blind schemes."""

    EVAL = EvalConfig(snr_db=(10.0,), n_blocks=20, ccdf_blocks=300, oobe_blocks=16,
                      seed=5, schemes=("rrc", "dftsofdm", "clf", "slm"))

    def test_columns_equal_per_scheme_resynthesis(self, monkeypatch):
        # the 20 grid blocks, then two full chunks and a part
        monkeypatch.setattr(evaluation, "CHUNK_BLOCKS", 128)
        cfg = ChainConfig()
        samples, _, _ = evaluation._walk(cfg, self.EVAL, evaluation._rules(cfg, self.EVAL, None))
        s = evaluation._draw(cfg, self.EVAL.seed, "qpsk", np.arange(self.EVAL.ccdf_blocks)).conv.bins
        conv = conventional_config(cfg)
        phases = slm_phase_vectors(self.EVAL.slm, conv.n_data)
        assert samples["dftsofdm"].tobytes() == waveform_papr_db(s, conv).tobytes()
        chosen = s * phases[slm_select(s, phases, conv)[0]]
        assert samples["slm"].tobytes() == waveform_papr_db(chosen, conv).tobytes()

    def test_oversampled_waveforms_per_block(self, monkeypatch, slm_survivors):
        # rrc 1, the plain waveform 1 (dftsofdm, slm's identity candidate and
        # clf's first round), clf 2 (its second round and the result); slm's
        # other 7 candidates each once at the critical rate, then on the
        # oversampled grid only where that bound is near the running minimum;
        # and each scheme's OOBE blocks once more, for the periodogram.  The
        # grid's 20 blocks synthesize nothing more: every scheme here is
        # SNR-blind, so the grid keeps its CCDF transmit and PAPR
        cfg = ChainConfig()
        n = self.EVAL.ccdf_blocks
        s = evaluation._draw(cfg, self.EVAL.seed, "qpsk", np.arange(n)).conv.bins
        conv = conventional_config(cfg)
        survivors = slm_survivors(s, slm_phase_vectors(self.EVAL.slm, conv.n_data), conv)
        assert 0 < survivors < n
        rows = Counter()
        real = metrics.time_signal

        def counting(bins, cfg, oversample=None):
            rows[cfg.oversample if oversample is None else oversample] += len(bins)
            return real(bins, cfg, oversample)

        monkeypatch.setattr(metrics, "time_signal", counting)
        monkeypatch.setattr(baselines, "time_signal", counting)
        evaluation._walk(cfg, self.EVAL, evaluation._rules(cfg, self.EVAL, None))
        oobe = len(self.EVAL.schemes) * self.EVAL.oobe_blocks
        assert rows == {cfg.oversample: 4 * n + survivors + oobe, 1: 7 * n}

    def test_oobe_input_stays_double(self, monkeypatch):
        # only the noise-free PAPR rule synthesizes in single precision
        seen = []
        real = metrics.Periodogram.add

        def recording(self, blocks):
            seen.append(blocks.dtype)
            return real(self, blocks)

        monkeypatch.setattr(metrics.Periodogram, "add", recording)
        cfg = ChainConfig()
        evaluation._walk(cfg, self.EVAL, evaluation._rules(cfg, self.EVAL, None))
        assert seen == [np.complex128] * len(self.EVAL.schemes)

    def test_oobe_blocks_across_chunks_equal_one_pass(self, monkeypatch):
        # the OOBE blocks span the 20-block grid chunk and four CCDF chunks
        # of 64 blocks, and every output equals that of the grid chunk and
        # one CCDF chunk
        cfg, eval_cfg = ChainConfig(), replace(self.EVAL, oobe_blocks=200)
        runs = []
        for chunk in (64, eval_cfg.ccdf_blocks):
            monkeypatch.setattr(evaluation, "CHUNK_BLOCKS", chunk)
            samples, oobe, cells = evaluation._walk(cfg, eval_cfg,
                                                    evaluation._rules(cfg, eval_cfg, None))
            runs.append((repr(oobe), {k: v.tobytes() for k, v in samples.items()}, repr(cells)))
        assert runs[0] == runs[1]

    def test_oobe_across_chunks_is_one_oobe_db_call(self, monkeypatch):
        # the running periodogram adds the blocks of chunks 20, 64, 64 and 52
        # row by row: the bytes of one oobe_db over all 200 blocks' waveforms
        monkeypatch.setattr(evaluation, "CHUNK_BLOCKS", 64)
        cfg, eval_cfg = ChainConfig(), replace(self.EVAL, oobe_blocks=200)
        rules = evaluation._rules(cfg, eval_cfg, None)
        _, oobe, _ = evaluation._walk(cfg, eval_cfg, rules)
        draw = evaluation._draw(cfg, eval_cfg.seed, "qpsk", np.arange(eval_cfg.oobe_blocks))
        for scheme, rule in rules.items():
            tx = rule(draw, eval_cfg.ccdf_snr_db)
            assert repr(oobe[scheme]) == repr(float(metrics.oobe_db(time_signal(tx.bins, tx.cfg),
                                                                    tx.cfg))), scheme


SINGLE_PRECISION_BOUND_DB = 1e-5  # the complex64 PAPR rule's distance from float64


class TestSinglePrecisionPapr:
    """Every scheme's single-precision PAPR against the float64 synthesis
    ``papr_db(time_signal(bins))``, on QPSK, QAM16 and QAM64 blocks."""

    EVAL = EvalConfig(snr_db=(10.0,), n_blocks=20, ccdf_blocks=1000, oobe_blocks=16,
                      seed=7, schemes=tuple(SCHEMES), mods=tuple(SCHEME_NAMES))

    @pytest.fixture(scope="class")
    def sent(self, small_ckpt):
        cfg = ChainConfig()
        rules = evaluation._rules(cfg, self.EVAL, small_ckpt.deployed_net(True))
        out = {}
        for mod in self.EVAL.mods:
            draw = evaluation._draw(cfg, self.EVAL.seed, mod, np.arange(self.EVAL.ccdf_blocks))
            for scheme, rule in rules.items():
                tx = rule(draw, self.EVAL.ccdf_snr_db)
                out[mod, scheme] = draw, tx, papr_db(time_signal(tx.bins, tx.cfg))
        return out

    def test_transmits_stay_double(self, sent):
        assert all(tx.bins.dtype == np.complex128 for _, tx, _ in sent.values())

    def test_each_block_within_bound(self, sent):
        for (mod, scheme), (_, tx, double) in sent.items():
            err = np.max(np.abs(tx.waveform_papr - double))
            assert err <= SINGLE_PRECISION_BOUND_DB, (mod, scheme, err)

    def test_ccdf_quantile_within_bound(self, sent):
        for (mod, scheme), (_, tx, double) in sent.items():
            err = abs(papr_at_ccdf(tx.waveform_papr, 1e-3) - papr_at_ccdf(double, 1e-3))
            assert err <= SINGLE_PRECISION_BOUND_DB, (mod, scheme, err)

    def test_slm_index_is_the_double_argmin_outside_near_ties(self, sent):
        conv = conventional_config(ChainConfig())
        phases = slm_phase_vectors(self.EVAL.slm, conv.n_data)
        for mod in self.EVAL.mods:
            bins = sent[mod, "slm"][0].conv.bins
            idx, _ = slm_select(bins, phases, conv)
            every = papr_db(time_signal(bins[:, None, :] * phases, conv))
            best_two = np.sort(every, axis=-1)[:, :2]
            clear = best_two[:, 1] - best_two[:, 0] > 2 * SINGLE_PRECISION_BOUND_DB
            assert np.count_nonzero(clear) > 0.9 * len(bins)
            np.testing.assert_array_equal(idx[clear], np.argmin(every, axis=-1)[clear])


class TestSinglePrecisionClf:
    """CLF's single-precision rounds against the float64 statement of them,
    on QPSK, QAM16 and QAM64 blocks."""

    @pytest.fixture(scope="class")
    def rounds(self):
        conv, clf = conventional_config(ChainConfig()), baselines.ClfConfig()
        out = {}
        for mod in SCHEME_NAMES:
            bins = evaluation._draw(ChainConfig(), 7, mod, np.arange(1000)).conv.bins
            out[mod] = clf_reduce(bins, clf, conv), clf_reference(bins, clf, conv)
        return conv, out

    def test_each_block_papr_within_bound(self, rounds):
        conv, out = rounds
        for mod, (got, want) in out.items():
            err = np.max(np.abs(papr_db(time_signal(got, conv))
                                - papr_db(time_signal(want, conv))))
            assert err <= SINGLE_PRECISION_BOUND_DB, (mod, err)

    def test_each_block_bins_within_bound(self, rounds):
        _, out = rounds
        for mod, (got, want) in out.items():
            assert got.dtype == want.dtype == np.complex128
            err = np.max(np.abs(got - want), axis=-1) / np.max(np.abs(want), axis=-1)
            assert np.max(err) <= 1e-6, (mod, np.max(err))


def set_tile_rows(monkeypatch, cfg, rows):
    """Shrink the tile budget so that a tile holds ``rows`` blocks of ``cfg``."""
    monkeypatch.setattr(metrics, "TILE_BYTES", 16 * cfg.n_fft * cfg.oversample * rows)
    assert tile_rows(cfg) == rows


class TestTiling:
    """Waveforms are synthesized per tile; the tile size changes no output."""

    EVAL = EvalConfig(snr_db=(10.0,), n_blocks=20, ccdf_blocks=300, oobe_blocks=16,
                      seed=13, schemes=tuple(SCHEMES))

    def test_outputs_do_not_depend_on_tile_rows(self, small_ckpt, monkeypatch):
        cfg = ChainConfig()
        default = tile_rows(cfg)
        assert default < self.EVAL.ccdf_blocks  # the default size tiles too
        results = []
        for rows in (1, 7, default):
            set_tile_rows(monkeypatch, cfg, rows)
            results.append(evaluate(small_ckpt, self.EVAL, cfg))
        first = results[0]
        for other in results[1:]:
            for scheme in self.EVAL.schemes:
                np.testing.assert_array_equal(other.papr_samples[scheme],
                                              first.papr_samples[scheme])
                np.testing.assert_array_equal(other.ccdf[scheme], first.ccdf[scheme])
            assert other.oobe == first.oobe
            assert other.cells == first.cells

    def test_clf_matches_untiled_reference_on_all_zero_rows(self, monkeypatch):
        # an all-zero block clips at level 0 (scale 0) in place as out of
        # place, at a tile's first and last row and inside a tile, from
        # complex128 and complex64 input
        conv = conventional_config(ChainConfig())
        set_tile_rows(monkeypatch, conv, 7)
        s = evaluation._draw(ChainConfig(), self.EVAL.seed, "qpsk", np.arange(17)).conv.bins
        s[[0, 3, 6, 7, 16]] = 0.0
        s = single_precision(s)
        want = clf_reference(s, self.EVAL.clf, conv).astype(np.complex128).tobytes()
        for dtype in (np.complex128, np.complex64):
            got = clf_reduce(s.astype(dtype), self.EVAL.clf, conv)
            assert got.tobytes() == want
            assert not np.any(got[[0, 3, 6, 7, 16]])

    @pytest.mark.parametrize("rows", [7, None])
    def test_clf_matches_untiled_reference(self, monkeypatch, rows):
        conv = conventional_config(ChainConfig())
        if rows is not None:
            set_tile_rows(monkeypatch, conv, rows)
        s = single_precision(evaluation._draw(ChainConfig(), self.EVAL.seed, "qpsk",
                                              np.arange(2 * tile_rows(conv) + 3)).conv.bins)
        np.testing.assert_array_equal(clf_reduce(s, self.EVAL.clf, conv),
                                      clf_reference(s, self.EVAL.clf, conv))


class TestTiledMemory:
    """Peak traced memory on 2048 default-chain QPSK blocks, held as one
    chunk: the walk's CCDF tests set ``evaluation.CHUNK_BLOCKS`` (128 by
    default) to 2048.

    One (2048, 240) complex128 array of bins is 7.5 MiB and one full
    oversampled grid 32 MiB.
    """

    EVAL = EvalConfig(ccdf_blocks=2048, seed=3, schemes=("rrc", "dftsofdm", "clf", "slm"))

    @pytest.fixture(scope="class")
    def rules(self):
        return evaluation._rules(ChainConfig(), self.EVAL, None)

    @pytest.fixture(scope="class")
    def s(self):
        return evaluation._draw(ChainConfig(), self.EVAL.seed, "qpsk",
                                np.arange(self.EVAL.ccdf_blocks)).conv.bins

    @staticmethod
    def peak_mib(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_ccdf_pass(self, rules, monkeypatch):
        # one CCDF chunk of 2048 blocks past the grid's 500
        monkeypatch.setattr(evaluation, "CHUNK_BLOCKS", 2048)
        eval_cfg = replace(self.EVAL, ccdf_blocks=500 + 2048)
        assert eval_cfg.n_blocks == 500
        assert self.peak_mib(evaluation._walk, ChainConfig(), eval_cfg, rules) < 64

    def test_ccdf_pass_holds_one_chunk_at_a_time(self, monkeypatch):
        # a chunk's blocks and transmits are freed before the next chunk is
        # drawn, so two CCDF chunks past the grid's 500 blocks peak where one
        # does.  At 2048-block chunks, held over, the previous chunk's blocks
        # and last transmit would add over 20 MiB; at the default chunk the
        # tiles' peak would hide them
        monkeypatch.setattr(evaluation, "CHUNK_BLOCKS", 2048)
        one, two = (EvalConfig(n_blocks=500, ccdf_blocks=500 + k * 2048, seed=3,
                               schemes=self.EVAL.schemes) for k in (1, 2))
        one_chunk = self.peak_mib(evaluation._walk, ChainConfig(), one,
                                  evaluation._rules(ChainConfig(), one, None))
        assert self.peak_mib(evaluation._walk, ChainConfig(), two,
                             evaluation._rules(ChainConfig(), two, None)) < one_chunk + 4

    def test_grid_holds_one_chunk_at_a_time(self, small_ckpt):
        # the walk streams the grid's blocks in chunks of CHUNK_BLOCKS (the
        # CCDF blocks all in the first): four chunks of blocks peak where one
        # does, where holding every block's transmits would add ~8 MiB per chunk
        cfg, peaks, chunk = ChainConfig(), [], evaluation.CHUNK_BLOCKS
        for k in (1, 4):
            eval_cfg = EvalConfig(snr_db=(10.0,), n_blocks=k * chunk, ccdf_blocks=chunk, seed=3)
            rules = evaluation._rules(cfg, eval_cfg, small_ckpt.deployed_net(True))
            peaks.append(self.peak_mib(evaluation._walk, cfg, eval_cfg, rules))
        assert peaks[1] < peaks[0] + 4

    def test_ccdf_pass_memory_does_not_grow_with_oobe_blocks(self, rules):
        # the periodogram is a running sum over the CCDF chunks: 1024 OOBE
        # blocks (eight chunks) peak within 4 MiB of 64.  Synthesizing them at
        # once in one chunk of 1024 blocks peaked at ~131 MiB against ~12
        cfg, peaks = ChainConfig(), []
        for oobe_blocks in (64, 1024):
            eval_cfg = replace(self.EVAL, ccdf_blocks=1024, oobe_blocks=oobe_blocks)
            peaks.append(self.peak_mib(evaluation._walk, cfg, eval_cfg, rules))
        assert peaks[1] < peaks[0] + 4

    def test_evaluate_at_the_benchmark_eval_shape(self, small_ckpt):
        # perfbench's eval grid (5 schemes, 3 channels, 2 SNRs, 500 blocks)
        # and 600 CCDF blocks, in five chunks: ~12 MiB, where 256-block grid
        # chunks and out-of-place CLF rounds peaked at ~16.7 MiB
        eval_cfg = EvalConfig(snr_db=(5.0, 10.0), channels=("awgn", "rayleigh", "rician"),
                              n_blocks=500, ccdf_blocks=600, oobe_blocks=64, seed=3)
        assert len(eval_cfg.schemes) == 5
        assert self.peak_mib(evaluate, small_ckpt, eval_cfg, ChainConfig()) < 13

    def test_slm_select(self, s):
        conv = conventional_config(ChainConfig())
        phases = slm_phase_vectors(self.EVAL.slm, conv.n_data)
        assert self.peak_mib(slm_select, s, phases, conv) < 24

    def test_clf_reduce(self, s):
        conv = conventional_config(ChainConfig())
        assert self.peak_mib(clf_reduce, s, self.EVAL.clf, conv) < 24
