import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tinyfdss import network, training
from tinyfdss.adaptation import LambdaTable
from tinyfdss.chain import (
    SCHEME_NAMES,
    ChainConfig,
    ModScheme,
    Stage,
    SymbolBlock,
    centered_band,
    constellation,
    extend,
    map_symbols,
    precode,
    receiver_chain,
    shape_and_normalize,
    time_signal,
)
from tinyfdss.channel import (MODEL_NAMES, ChannelCfg, Stream, block_rng, draw_channel,
                              noise_term, unit_noise)
from tinyfdss.filters import coeff_basis, taps_from_coeffs
from tinyfdss.metrics import SURROGATE_SHARPNESS, TAIL_X0_DB
from tinyfdss.training import (
    OUT_INIT_SCALE,
    PREP_BATCHES,
    BatchPrep,
    TrainConfig,
    _mix_sampler,
    chain_loss,
    config_hash,
    load_checkpoint,
    prepare_batch,
    save_checkpoint,
    train,
)

SMOKE = dict(n_blocks=500, epochs=2, batch_size=32)


@pytest.fixture(scope="module")
def table():
    return LambdaTable()


def assert_preps_equal(got, want, rows=slice(None)):
    for name in ("symbols", "s_ext", "features", "eta", "lam", "indices"):
        a, b = getattr(got, name), getattr(want, name)[rows]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestGenerateBlock:
    """Per-block draws, seen through ``prepare_batch``."""

    def test_fixed_seed_reproduces_first_block(self, table):
        config = TrainConfig(**SMOKE, seed=5)
        a = prepare_batch(config, np.array([0]), table)
        b = prepare_batch(config, np.array([0]), table)
        assert_preps_equal(a, b)

    def test_snr_mean_over_range(self, table):
        config = TrainConfig(**SMOKE, seed=6)
        snrs = np.concatenate([
            prepare_batch(config, np.arange(lo, lo + 1000), table).features[:, -1] * 20.0
            for lo in range(0, 10_000, 1000)
        ])
        assert np.mean(snrs) == pytest.approx(10.0, abs=0.2)

    def test_pure_qpsk_mix(self, table):
        config = TrainConfig(**SMOKE, seed=7, mod_mix=(("qpsk", 1.0),))
        prep = prepare_batch(config, np.arange(200), table)
        points, _ = constellation(ModScheme.QPSK)
        assert np.isin(prep.symbols, points).all()

    def test_mix_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TrainConfig(mod_mix=(("qpsk", 0.5), ("qam16", 0.2)))

    def test_unknown_mix_entry_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(channel_mix=(("underwater", 1.0),))


def per_row_prepare_batch(config, indices, table):
    """The per-block loop ``prepare_batch`` once ran, as a byte-exact reference.

    Also returns the (modulation, channel model) pairs the batch drew.
    """
    cfg = config.chain
    b = len(indices)
    symbols = np.empty((b, cfg.n_data), dtype=np.complex128)
    s_ext = np.empty((b, cfg.n_sk), dtype=np.complex128)
    eta = np.empty((b, cfg.n_sk), dtype=np.complex128)
    snr = np.empty(b)
    lam = np.empty(b)
    drawn = set()
    mods, w_mod = zip(*config.mod_mix)
    models, w_model = zip(*config.channel_mix)
    w_mod, w_model = np.array(w_mod), np.array(w_model)
    for row, idx in enumerate(indices):
        rng = np.random.default_rng((config.seed, 0, int(idx)))
        scheme = SCHEME_NAMES[mods[rng.choice(len(mods), p=w_mod / w_mod.sum())]]
        snr_db = float(rng.uniform(*config.snr_range_db))
        model = MODEL_NAMES[models[rng.choice(len(models), p=w_model / w_model.sum())]]
        bits = rng.integers(0, 2, cfg.n_data * scheme.bits_per_symbol)
        symbols[row] = map_symbols(bits, scheme)
        s_ext[row] = extend(precode(symbols[row]), cfg.n_se)
        parts = np.empty((2, cfg.n_sk))
        h = draw_channel(ChannelCfg(model), rng, parts)
        noise = unit_noise(parts)
        snr[row] = snr_db
        lam[row] = table.lookup(snr_db)
        # the channel's noise on the block's unshaped bins, fade-compensated
        eta[row] = noise_term(s_ext[row], noise, snr_db) / h
        drawn.add((scheme, model))
    features = network.build_input(s_ext, snr, expected_len=cfg.n_sk)
    prep = BatchPrep(symbols=symbols, s_ext=s_ext, features=features, eta=eta,
                     lam=lam, indices=np.asarray(indices))
    return prep, drawn


class TestPrepareBatch:
    def test_matches_per_row_reference_byte_for_byte(self, table):
        config = TrainConfig(
            **SMOKE, seed=21,
            channel_mix=(("awgn", 0.3), ("rayleigh", 0.3), ("rician", 0.4)),
        )
        indices = np.random.default_rng(0).permutation(config.n_blocks)[:48]
        want, drawn = per_row_prepare_batch(config, indices, table)
        # every modulation meets every channel model in this batch
        assert {(s.name, m.name) for s, m in drawn} == {
            (s, m) for s in ("QPSK", "QAM16") for m in ("AWGN", "RAYLEIGH", "RICIAN")
        }
        assert_preps_equal(prepare_batch(config, indices, table), want)

    @pytest.mark.parametrize("mod_mix, channel_mix", [
        ((("qpsk", 0.0), ("qam16", 1.0)), (("awgn", 0.5), ("rayleigh", 0.0), ("rician", 0.5))),
        ((("qam16", 1.0),), (("rician", 1.0),)),
    ], ids=["zero-weight-entry", "single-scheme"])
    def test_degenerate_mixes_match_per_row_reference(self, table, mod_mix, channel_mix):
        config = TrainConfig(**SMOKE, seed=22, mod_mix=mod_mix, channel_mix=channel_mix)
        indices = np.random.default_rng(1).permutation(config.n_blocks)[:40]
        want, drawn = per_row_prepare_batch(config, indices, table)
        assert drawn <= {(SCHEME_NAMES[s], MODEL_NAMES[m])
                         for s, ws in mod_mix if ws > 0 for m, wm in channel_mix if wm > 0}
        assert_preps_equal(prepare_batch(config, indices, table), want)

    def test_row_is_the_same_alone_or_in_a_shuffled_batch(self, table):
        config = TrainConfig(
            **SMOKE, seed=23,
            channel_mix=(("awgn", 0.3), ("rayleigh", 0.3), ("rician", 0.4)),
        )
        indices = np.random.default_rng(2).permutation(config.n_blocks)[:32]
        batch = prepare_batch(config, indices, table)
        for row, idx in enumerate(indices):
            alone = prepare_batch(config, np.array([idx]), table)
            assert_preps_equal(alone, batch, slice(row, row + 1))


class TestMixSampler:
    @settings(max_examples=200, deadline=None)
    @given(
        raw=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=4)
        .filter(lambda w: sum(w) > 0.0),
        seed=st.integers(0, 2**128),
    )
    def test_matches_generator_choice_and_stream_position(self, raw, seed):
        weights = [w / sum(raw) for w in raw]
        assume(abs(sum(weights) - 1.0) <= 1e-9)  # TrainConfig's sum check
        config = TrainConfig(mod_mix=tuple(("qpsk", w) for w in weights))
        w = np.array([w for _, w in config.mod_mix])
        want, got = np.random.default_rng(seed), np.random.default_rng(seed)
        assert _mix_sampler(config.mod_mix)(got) == want.choice(len(w), p=w / w.sum())
        assert got.random() == want.random()


def fft_tail_gradient(coeffs, prep, cfg):
    """The tail term's coefficient gradient by an FFT of the waveform's
    cotangent ``x_bar`` on the whole oversampled grid: the oracle of
    ``chain_loss``'s closed form."""
    batch = len(coeffs)
    taps = taps_from_coeffs(coeffs, cfg.n_sk)
    x = time_signal(prep.s_ext * taps, cfg)
    n_os = x.shape[-1]
    power = np.abs(x) ** 2
    peak_idx = np.argmax(power, axis=-1)
    rows = np.arange(batch)
    peak = power[rows, peak_idx]
    mean_pow = power.mean(axis=-1)
    papr = 10.0 * np.log10(peak / mean_pow)
    z = SURROGATE_SHARPNESS * (papr - TAIL_X0_DB)
    w_papr = prep.lam / (1.0 + np.exp(-z)) / batch
    c_log = 10.0 / np.log(10.0)
    x_bar = x * (-2.0 * w_papr / (n_os * mean_pow) * c_log)[:, None]
    x_bar[rows, peak_idx] += x[rows, peak_idx] * (2.0 * w_papr * c_log / peak)
    shaped_bar = (np.fft.fft(x_bar, axis=-1)[..., centered_band(cfg.n_sk, n_os)]
                  * (1.0 / np.sqrt(cfg.n_fft)))
    d_taps = np.real(shaped_bar * np.conj(prep.s_ext))
    return d_taps @ coeff_basis(cfg.n_sk, coeffs.shape[-1])


class TestChainLossGradient:
    def test_coefficient_gradient_matches_fd(self, table):
        # through-chain finite differences at 1e-3 relative
        cfg = ChainConfig()
        config = TrainConfig(**SMOKE, seed=3)
        prep = prepare_batch(config, np.arange(3), table)
        rng = np.random.default_rng(0)
        coeffs = np.array([1.0, 0.0, -0.4, 0.0, 0.1]) + 0.05 * rng.standard_normal((3, 5))
        _, grad = chain_loss(coeffs, prep, cfg)
        h = 1e-6
        for b in range(3):
            for z in range(5):
                cp, cm = coeffs.copy(), coeffs.copy()
                cp[b, z] += h
                cm[b, z] -= h
                lp, _ = chain_loss(cp, prep, cfg, want_grad=False)
                lm, _ = chain_loss(cm, prep, cfg, want_grad=False)
                fd = (lp.loss - lm.loss) / (2 * h)
                denom = max(abs(fd), abs(grad[b, z]), 1e-8)
                assert abs(fd - grad[b, z]) / denom < 1e-3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_closed_form_tail_backward_matches_the_fft_backward(self, table, seed, monkeypatch):
        # desk-size batches with every modulation and channel model; row 0's
        # peak falls on sample 0 and row 1's on the last sample
        config = TrainConfig(
            **SMOKE, seed=seed,
            mod_mix=(("qpsk", 0.4), ("qam16", 0.3), ("qam64", 0.3)),
            channel_mix=(("awgn", 0.3), ("rayleigh", 0.3), ("rician", 0.4)),
        )
        cfg = config.chain
        n_os = cfg.n_fft * cfg.oversample
        prep = prepare_batch(config, np.arange(32 * seed, 32 * seed + 32), table)
        band = centered_band(cfg.n_sk, n_os)
        for row, at in ((0, 0), (1, n_os - 1)):
            prep.s_ext[row] = np.exp(-2j * np.pi * band * at / n_os)  # an impulse at `at`
        rng = np.random.default_rng(seed)
        coeffs = np.array([1.0, 0.0, -0.4, 0.0, 0.1]) + 0.05 * rng.standard_normal((32, 5))
        x = time_signal(prep.s_ext * taps_from_coeffs(coeffs, cfg.n_sk), cfg)
        assert np.argmax(np.abs(x[:2]) ** 2, axis=-1).tolist() == [0, n_os - 1]

        ffts = []

        def spy(name):
            def transform(a, *args, _real=getattr(np.fft, name), **kwargs):
                ffts.append((name, np.shape(a)[-1]))
                return _real(a, *args, **kwargs)
            return transform

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, spy(name))
        _, grad = chain_loss(coeffs, prep, cfg)
        # one transform of the oversampled grid: the forward IDFT
        assert [f for f in ffts if f[1] == n_os] == [("ifft", n_os)]
        monkeypatch.undo()

        _, mse_grad = chain_loss(coeffs, dataclasses.replace(prep, lam=np.zeros(32)), cfg)
        want = mse_grad + fft_tail_gradient(coeffs, prep, cfg)
        assert np.max(np.abs(grad - want)) <= 1e-12 * np.max(np.abs(want))
        for row in (0, 1):  # the boundary peaks, each on its own scale
            assert np.max(np.abs(grad[row] - want[row])) <= 1e-12 * np.max(np.abs(want[row]))

    def test_loss_is_scale_invariant_in_taps(self, table):
        # power normalization means doubling the coefficients changes nothing
        cfg = ChainConfig()
        config = TrainConfig(**SMOKE, seed=4)
        prep = prepare_batch(config, np.arange(4), table)
        coeffs = np.tile([0.9, 0.0, -0.3, 0.0, 0.05], (4, 1))
        a, _ = chain_loss(coeffs, prep, cfg, want_grad=False)
        b, _ = chain_loss(2.5 * coeffs, prep, cfg, want_grad=False)
        assert a.loss == pytest.approx(b.loss, rel=1e-9)

    def test_equalized_path_matches_receiver_chain(self, table):
        # the training engine's algebra agrees with the op-level receiver
        cfg = ChainConfig()
        config = TrainConfig(**SMOKE, seed=8, channel_mix=(("awgn", 1.0),))
        prep = prepare_batch(config, np.arange(2), table)
        coeffs = np.tile([1.0, 0.0, -0.5, 0.0, 0.2], (2, 1))
        taps = taps_from_coeffs(coeffs, cfg.n_sk)
        bins, eff, _ = shape_and_normalize(prep.s_ext, taps)
        terms, _ = chain_loss(coeffs, prep, cfg, want_grad=False)
        for b in range(2):
            rx = time_signal(bins[b] + prep.eta[b], cfg, oversample=1)
            _, equalized = receiver_chain(
                SymbolBlock(Stage.RECEIVED, rx), eff[b], cfg, ModScheme.QPSK
            )
            mse = float(np.mean(np.abs(equalized - prep.symbols[b]) ** 2))
            assert mse == pytest.approx(terms.mse[b], rel=1e-9)


class TestTrain:
    def test_chunked_preparation_changes_no_step(self, table, monkeypatch):
        # 100 blocks at batch 32: batches of 32, 32, 32 and 4, from chunks of
        # 64 and 36 at two batches per chunk
        size = PREP_BATCHES * 32
        config = TrainConfig(n_blocks=100, batch_size=32, epochs=2, seed=18,
                             channel_mix=(("awgn", 0.3), ("rayleigh", 0.3), ("rician", 0.4)))
        chunks, steps = [], []

        def prepare(config, indices, table, _real=training.prepare_batch):
            chunks.append(len(indices))
            return _real(config, indices, table)

        def loss(coeffs, prep, cfg, _real=training.chain_loss):
            steps.append(prep)
            return _real(coeffs, prep, cfg)

        monkeypatch.setattr(training, "prepare_batch", prepare)
        monkeypatch.setattr(training, "chain_loss", loss)
        train(config)
        monkeypatch.undo()

        assert chunks == [min(size, 100 - lo) for lo in range(0, 100, size)] * 2
        want = [order[lo : lo + 32]
                for order in (block_rng(18, Stream.EPOCH_ORDER, epoch).permutation(100)
                              for epoch in range(2))
                for lo in range(0, 100, 32)]
        assert [len(p.indices) for p in steps] == [32, 32, 32, 4] * 2
        for got, indices in zip(steps, want, strict=True):
            assert got.indices.tolist() == indices.tolist()
            assert_preps_equal(got, prepare_batch(config, indices, table))

    def test_zero_lr_leaves_parameters_unchanged(self):
        config = TrainConfig(n_blocks=96, epochs=1, batch_size=32, lr=0.0,
                             weight_decay=0.0, prune_mode="none", seed=9)
        ckpt = train(config)
        fresh = network.init_params(
            hidden_width=config.hidden_width,
            rng=block_rng(9, Stream.INIT),
            input_dim=config.chain.n_sk + 1,
            out_scale=OUT_INIT_SCALE,
        )
        np.testing.assert_array_equal(
            ckpt.params.w1, fresh.w1.astype(np.float32).astype(np.float64)
        )
        np.testing.assert_array_equal(
            ckpt.params.b2, fresh.b2.astype(np.float32).astype(np.float64)
        )

    def test_smoke_run_reduces_loss(self):
        # deep-fade blocks make the mean heavy-tailed, so the run-to-run
        # check compares per-epoch medians of the batch losses
        config = TrainConfig(**SMOKE, seed=10)
        ckpt = train(config)
        median_col = 2
        assert ckpt.history[-1, median_col] < ckpt.history[0, median_col]

    def test_target_sparsity_leaves_492_live(self):
        config = TrainConfig(**SMOKE, seed=11, prune_mode="target", target_sparsity=0.8)
        ckpt = train(config)
        assert network.live_weight_count(ckpt.params) == 492

    def test_determinism_bit_identical(self):
        config = TrainConfig(n_blocks=256, epochs=2, batch_size=32, seed=13)
        a = train(config)
        b = train(config)
        np.testing.assert_array_equal(a.params.w1, b.params.w1)
        np.testing.assert_array_equal(a.params.w2, b.params.w2)
        np.testing.assert_array_equal(a.params.mask1, b.params.mask1)
        np.testing.assert_array_equal(a.history, b.history)

    def test_checkpoint_round_trip_forward_bit_exact(self, tmp_path):
        config = TrainConfig(n_blocks=128, epochs=1, batch_size=32, seed=14)
        ckpt = train(config)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(config.chain.n_sk + 1)
        np.testing.assert_array_equal(
            network.forward(loaded.params, x), network.forward(ckpt.params, x)
        )
        np.testing.assert_array_equal(
            network.forward_q(loaded.qnet, x), network.forward_q(ckpt.qnet, x)
        )
        assert loaded.config_hash == config_hash(config)
        # serialized history drops no information
        np.testing.assert_array_equal(loaded.history, ckpt.history)

    def test_perceptron_trains(self):
        config = TrainConfig(n_blocks=96, epochs=1, batch_size=32, seed=15,
                             hidden_width=0, prune_mode="none")
        ckpt = train(config)
        assert ckpt.params.hidden_width == 0
        assert np.all(np.isfinite(ckpt.params.w2))

    def test_divergence_raises_with_diagnostics(self):
        from tinyfdss.training import TrainingDivergedError

        # lr * weight_decay >> 1 makes the decay factor explosive, so the
        # parameters overflow within a few dozen steps
        config = TrainConfig(n_blocks=3200, epochs=1, batch_size=32, seed=17,
                             lr=1e12, weight_decay=1e-4, prune_mode="none")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="parameter norms"):
                train(config)

    def test_qam64_runs_through_trained_checkpoint(self):
        # train on QPSK/16-QAM, then push 64-QAM blocks through the filter
        config = TrainConfig(n_blocks=96, epochs=1, batch_size=32, seed=16)
        ckpt = train(config)
        cfg = config.chain
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, cfg.n_data * 6)
        sym = map_symbols(bits, ModScheme.QAM64)
        s_ext = extend(precode(sym[None, :]), cfg.n_se)
        feats = network.build_input(s_ext, np.array([10.0]), expected_len=cfg.n_sk)
        coeffs = network.forward_q(ckpt.qnet, feats)
        taps = taps_from_coeffs(coeffs, cfg.n_sk)
        assert np.all(np.isfinite(taps))


def test_deployed_net_prefers_int8_twin_when_asked():
    ckpt = train(TrainConfig(n_blocks=64, batch_size=32, epochs=1, seed=4))
    assert ckpt.deployed_net(True) is ckpt.qnet
    assert ckpt.deployed_net(False) is ckpt.params
