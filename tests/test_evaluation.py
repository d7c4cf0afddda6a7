from collections import Counter
from itertools import product

import numpy as np
import pytest

from tinyfdss import channel, evaluation
from tinyfdss.chain import ChainConfig
from tinyfdss.evaluation import EvalConfig, evaluate
from tinyfdss.training import TrainConfig, train


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

    def test_thread_count_does_not_change_results(self, small_ckpt, small_eval):
        a = evaluate(small_ckpt, small_eval, ChainConfig(), threads=1)
        b = evaluate(small_ckpt, small_eval, ChainConfig(), threads=4)
        for ca, cb in zip(a.cells, b.cells):
            assert ca.scheme == cb.scheme
            assert ca.ser == cb.ser
            assert ca.mean_papr_db == cb.mean_papr_db
        for scheme in a.schemes:
            np.testing.assert_array_equal(a.ccdf[scheme], b.ccdf[scheme])

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
        # the CCDF pass draws its chunks once for all schemes and the grid
        # draws each modulation's blocks once for all schemes, channels, SNRs
        eval_cfg = EvalConfig(
            snr_db=(5.0, 10.0), channels=("awgn", "rayleigh"),
            mods=("qpsk", "qam16"), n_blocks=20, ccdf_blocks=50, oobe_blocks=16,
            seed=9, schemes=("tinyml", "rrc", "slm"),
        )
        rows = []
        real = evaluation.map_symbols

        def counting(bits, scheme):
            rows.append(1 if np.ndim(bits) == 1 else len(bits))
            return real(bits, scheme)

        monkeypatch.setattr(evaluation, "map_symbols", counting)
        result = evaluate(small_ckpt, eval_cfg, ChainConfig())
        assert len(result.cells) == 3 * 2 * 2 * 2
        assert sum(rows) == eval_cfg.ccdf_blocks + len(eval_cfg.mods) * eval_cfg.n_blocks

    def test_channel_drawn_once_and_snr_blind_schemes_sent_once(
        self, small_ckpt, monkeypatch
    ):
        # fades and noise are drawn once per (channel, mod, SNR) for all
        # schemes; only tinyml's transmit depends on the SNR
        eval_cfg = EvalConfig(
            snr_db=(5.0, 10.0), channels=("awgn", "rayleigh"),
            mods=("qpsk", "qam16"), n_blocks=20, ccdf_blocks=50, oobe_blocks=16,
            seed=9, schemes=("tinyml", "rrc", "slm"),
        )
        fades = []
        real_fade = channel.draw_fade

        def counting_fade(*args, **kwargs):
            fades.append(1)
            return real_fade(*args, **kwargs)

        grid_sends = Counter()
        real_transmit = evaluation._SchemeEngine.transmit

        def counting_transmit(self, scheme, data, snr_db):
            if len(data["s_conv"]) == eval_cfg.n_blocks:  # not a CCDF chunk
                grid_sends[scheme] += 1
            return real_transmit(self, scheme, data, snr_db)

        monkeypatch.setattr(channel, "draw_fade", counting_fade)
        monkeypatch.setattr(evaluation._SchemeEngine, "transmit", counting_transmit)
        result = evaluate(small_ckpt, eval_cfg, ChainConfig())
        n_mods, n_snrs = len(eval_cfg.mods), len(eval_cfg.snr_db)
        assert len(result.cells) == 3 * 2 * n_mods * n_snrs
        assert len(fades) == len(eval_cfg.channels) * n_mods * n_snrs * eval_cfg.n_blocks
        assert grid_sends == {"tinyml": n_mods * n_snrs, "rrc": n_mods, "slm": n_mods}

    def test_cell_order_is_scheme_channel_mod_snr(self, small_ckpt):
        eval_cfg = EvalConfig(
            snr_db=(5.0, 10.0), channels=("awgn", "rician"),
            mods=("qpsk", "qam16"), n_blocks=10, ccdf_blocks=30, oobe_blocks=16,
            seed=10, schemes=("dftsofdm", "tinyml"),
        )
        for threads in (1, 3):
            result = evaluate(small_ckpt, eval_cfg, ChainConfig(), threads=threads)
            got = [(c.scheme, c.channel, c.mod, c.snr_db) for c in result.cells]
            assert got == list(product(eval_cfg.schemes, eval_cfg.channels,
                                       eval_cfg.mods, eval_cfg.snr_db))

    def test_tinyml_without_checkpoint_rejected(self, small_eval):
        with pytest.raises(ValueError):
            evaluate(None, small_eval, ChainConfig())

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            EvalConfig(schemes=("warp_drive",))

    def test_dftsofdm_ser_matches_closed_form(self):
        # conventional chain has no extension folding, so the per-symbol SNR
        # equals the configured value exactly and the Q-function applies as-is
        import math

        snr_db = 10.0
        gamma = 10 ** (snr_db / 10)
        p_axis = 0.5 * math.erfc(math.sqrt(gamma / 2))
        theory = 2 * p_axis - p_axis**2
        eval_cfg = EvalConfig(
            snr_db=(snr_db,), channels=("awgn",), mods=("qpsk",),
            n_blocks=500, ccdf_blocks=100, oobe_blocks=16, seed=12,
            schemes=("dftsofdm",),
        )
        cell = evaluate(None, eval_cfg, ChainConfig()).cells[0]
        sem = math.sqrt(theory * (1 - theory) / cell.ser_total)
        assert abs(cell.ser - theory) <= 3 * sem
