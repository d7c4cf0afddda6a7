import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tinyfdss.chain import ChainConfig, ModScheme, Stage, SymbolBlock, transmit
from tinyfdss.channel import (
    ChannelCfg,
    ChannelModel,
    add_channel,
    apply_channel,
    draw_channel,
    draw_fade,
    estimate_snr,
    noise_power,
    pass_channel,
)
from tinyfdss.filters import unit_taps


def make_signal(cfg, rng, oversample=1):
    bits = rng.integers(0, 2, cfg.n_data * 2)
    return transmit(bits, ModScheme.QPSK, unit_taps(cfg.n_sk), cfg, oversample)


class TestApplyChannel:
    def test_infinite_snr_awgn_is_identity(self, cfg, rng):
        sig = make_signal(cfg, rng)
        ch = ChannelCfg(ChannelModel.AWGN, snr_db=np.inf)
        rx, fade = apply_channel(sig, ch, cfg)
        assert fade == 1.0 + 0.0j
        np.testing.assert_array_equal(rx.values, sig.values)

    def test_rayleigh_unit_power(self):
        rng = np.random.default_rng(0)
        draws = np.array(
            [draw_fade(ChannelModel.RAYLEIGH, rng) for _ in range(100_000)]
        )
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_rician_moments(self):
        # K = 10 dB: E|h|^2 = 1 and |E h|^2 = K/(K+1)
        k_lin = 10.0
        rng = np.random.default_rng(1)
        draws = np.array(
            [draw_fade(ChannelModel.RICIAN, rng, k_lin) for _ in range(100_000)]
        )
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)
        assert np.abs(np.mean(draws)) ** 2 == pytest.approx(k_lin / (k_lin + 1), abs=0.02)

    def test_seeded_determinism(self, cfg, rng):
        sig = make_signal(cfg, rng)
        ch = ChannelCfg(ChannelModel.RAYLEIGH, snr_db=7.0, seed=99)
        rx1, h1 = apply_channel(sig, ch, cfg)
        rx2, h2 = apply_channel(sig, ch, cfg)
        assert h1 == h2
        np.testing.assert_array_equal(rx1.values, rx2.values)

    def test_noise_power_within_one_percent(self, cfg):
        rng = np.random.default_rng(5)
        sig = make_signal(cfg, rng)
        ch = ChannelCfg(ChannelModel.AWGN, snr_db=10.0)
        sigma2 = noise_power(sig.values, 10.0, cfg)
        acc = 0.0
        count = 0
        n_runs = int(np.ceil(1e6 / len(sig)))
        for i in range(n_runs):
            rx, _ = apply_channel(sig, ch, cfg, rng=np.random.default_rng((17, i)))
            w = rx.values - sig.values
            acc += np.sum(np.abs(w) ** 2)
            count += w.size
        assert acc / count == pytest.approx(sigma2, rel=0.01)

    def test_fading_is_flat_per_block(self, cfg, rng):
        sig = make_signal(cfg, rng)
        ch = ChannelCfg(ChannelModel.RAYLEIGH, snr_db=np.inf, seed=3)
        rx, h = apply_channel(sig, ch, cfg)
        np.testing.assert_allclose(rx.values, h * sig.values, atol=1e-15)

    def test_rician_requires_finite_k(self):
        with pytest.raises(ValueError):
            ChannelCfg(ChannelModel.RICIAN, snr_db=10.0, k_factor_db=np.inf)

    def test_wrong_stage_rejected(self, cfg):
        block = SymbolBlock(Stage.DATA_SYMBOLS, np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            apply_channel(block, ChannelCfg(ChannelModel.AWGN), cfg)


class TestDrawThenApply:
    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(list(ChannelModel)),
        snr_db=st.one_of(st.floats(-10.0, 40.0), st.just(np.inf)),
        n_blocks=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_matches_per_block_pass_channel(self, model, snr_db, n_blocks, seed):
        cfg = ChainConfig()
        ch = ChannelCfg(model, snr_db=snr_db, k_factor_db=10.0)
        data = np.random.default_rng(seed)
        # blocks of different powers, so a pooled noise power would show
        scale = data.uniform(0.1, 10.0, (n_blocks, 1))
        x = scale * (data.standard_normal((n_blocks, cfg.n_fft))
                     + 1j * data.standard_normal((n_blocks, cfg.n_fft)))
        draws = [draw_channel(ch, cfg.n_fft, np.random.default_rng((seed, b)))
                 for b in range(n_blocks)]
        h = np.array([[fade] for fade, _ in draws])
        noise = None if np.isposinf(snr_db) else np.stack([w for _, w in draws])
        assert all((w is None) == np.isposinf(snr_db) for _, w in draws)
        batched = add_channel(x, h, noise, snr_db, cfg)
        sigma2 = noise_power(x, snr_db, cfg)
        assert sigma2.shape == (n_blocks,)
        for b in range(n_blocks):
            y, fade = pass_channel(x[b], ch, cfg, np.random.default_rng((seed, b)))
            assert fade == h[b, 0]
            assert batched[b].tobytes() == y.tobytes()
            assert sigma2[b] == noise_power(x[b], snr_db, cfg)

    def test_noise_power_is_per_block(self, cfg):
        # unit-magnitude samples: occupied power n_fft/n_sk, noise at 0 dB equal
        x = np.ones((2, cfg.n_fft), dtype=complex)
        x[1] *= 2.0
        np.testing.assert_allclose(
            noise_power(x, 0.0, cfg), [cfg.n_fft / cfg.n_sk, 4 * cfg.n_fft / cfg.n_sk],
            rtol=1e-12,
        )
        np.testing.assert_array_equal(noise_power(x, np.inf, cfg), [0.0, 0.0])


class TestEstimateSnr:
    def test_noiseless_returns_cap(self, cfg, rng):
        sig = make_signal(cfg, rng)
        assert estimate_snr([sig.values], [sig.values], cfg) == 60.0

    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    def test_concentrates_on_configured_snr(self, cfg, snr_db):
        rng = np.random.default_rng(11)
        rx_blocks, truth = [], []
        for b in range(100):
            sig = make_signal(cfg, rng)
            ch = ChannelCfg(ChannelModel.AWGN, snr_db=snr_db)
            rx, _ = apply_channel(
                sig, ch, cfg, rng=np.random.default_rng((int(snr_db), b))
            )
            rx_blocks.append(rx.values)
            truth.append(sig.values)
        est = estimate_snr(rx_blocks, truth, cfg)
        assert est == pytest.approx(snr_db, abs=0.3)

    def test_rejects_empty(self, cfg):
        with pytest.raises(ValueError):
            estimate_snr([], [], cfg)
