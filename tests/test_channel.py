import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tinyfdss.chain import (
    ChainConfig,
    ModScheme,
    Stage,
    SymbolBlock,
    centered_band,
    extend,
    map_symbols,
    occupied_bins,
    precode,
    shape_and_normalize,
    time_signal,
)
from tinyfdss.channel import (
    ChannelCfg,
    ChannelModel,
    Stream,
    add_channel,
    apply_channel,
    bit_words,
    block_rng,
    block_rngs,
    draw_blocks,
    draw_fade,
    noise_power,
    noise_term,
    unit_noise,
    unpack_bits,
)
from tinyfdss.filters import unit_taps

from reference import draw_block


def make_bins(cfg, rng):
    """One unit-tap QPSK block's occupied bins at fixed transmit power."""
    bits = rng.integers(0, 2, cfg.n_data * 2)
    s_ext = extend(precode(map_symbols(bits, ModScheme.QPSK)), cfg.n_se)
    bins, _, _ = shape_and_normalize(s_ext, unit_taps(cfg.n_sk))
    return bins


def make_signal(cfg, rng, oversample=1):
    """The same block in the time domain."""
    return SymbolBlock(Stage.TIME_DOMAIN, time_signal(make_bins(cfg, rng), cfg, oversample))


class TestBlockRng:
    def test_stream_tags(self):
        # the tags seed every output; renumbering one changes its stream
        assert {m.name: m.value for m in Stream} == {
            "TRAIN_BLOCK": 0, "INIT": 1, "EPOCH_ORDER": 2, "ADAPT_TICK": 4,
            "SLM_PHASES": 5, "EVAL_DATA": 30, "EVAL_CHANNEL": 31,
        }

    @pytest.mark.parametrize("seed, stream, index", [
        (0, Stream.SLM_PHASES, ()),
        (9, Stream.INIT, ()),
        (3, Stream.EPOCH_ORDER, (1,)),
        (7, Stream.TRAIN_BLOCK, (np.int64(499),)),
        (2, Stream.EVAL_DATA, (1, 2047)),
        (5, Stream.EVAL_CHANNEL, (2, 0, 1, 59)),
    ])
    def test_draws_match_default_rng_on_the_int_tuple(self, seed, stream, index):
        want = np.random.default_rng((seed, int(stream), *index))
        got = block_rng(seed, stream, *index)
        np.testing.assert_array_equal(got.integers(0, 2**62, 16), want.integers(0, 2**62, 16))
        np.testing.assert_array_equal(got.standard_normal(8), want.standard_normal(8))

    def test_training_exports_the_same_function(self):
        from tinyfdss import training
        assert training.block_rng is block_rng


class TestBlockRngs:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream=st.sampled_from(list(Stream)),
        # past 4 entropy words in all, the seed hash mixes the rest in after
        # its pool (EVAL_CHANNEL's coordinates are 6 words)
        prefix=st.lists(st.integers(0, 2**40), max_size=4),
        indices=st.lists(st.sampled_from([0, 2**32 - 1, 2**32, 2**40])
                         | st.integers(0, 2**32 - 1), max_size=6),
    )
    @example(seed=0, stream=Stream.TRAIN_BLOCK, prefix=[], indices=[0, 2**32 - 1, 2**32, 2**40])
    @example(seed=2**64 - 1, stream=Stream.EVAL_CHANNEL, prefix=[2, 2, 4, 2**32 - 1],
             indices=[0, 7, 2**32 - 1, 2**32, 2**40])
    def test_states_and_draws_equal_block_rng(self, seed, stream, prefix, indices):
        rngs = block_rngs(seed, stream, *prefix, indices=np.array(indices, dtype=np.int64))
        for index in indices:
            rng, want = next(rngs), block_rng(seed, stream, *prefix, index)
            assert rng.bit_generator.state == want.bit_generator.state
            assert rng.integers(0, 2**62, 4).tobytes() == want.integers(0, 2**62, 4).tobytes()
            assert rng.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
        assert next(rngs, None) is None

    def test_negative_seed_entry_rejected(self):
        # default_rng rejects it too: SeedSequence takes non-negative entries only
        rngs = block_rngs(3, Stream.EVAL_DATA, -2, indices=[0])
        with pytest.raises(ValueError, match=r"^seed entries must be non-negative, got -2$"):
            next(rngs)

    def test_batch_builds_no_generator_per_block(self, monkeypatch):
        calls = Counter()
        for name in ("default_rng", "SeedSequence"):
            def counting(*args, _name=name, _real=getattr(np.random, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.random, name, counting)
        indices = np.arange(2048)
        rngs = list(block_rngs(3, Stream.EVAL_DATA, 1, indices=indices))
        assert calls == Counter()
        # an index past 32 bits takes block_rng
        past = list(block_rngs(3, Stream.EVAL_DATA, 1, indices=[2**32, 5]))
        assert calls == Counter(default_rng=1) and past[0] is not past[1]
        monkeypatch.undo()
        # a generator stays valid after the next one is taken: each draws its block_rng's bytes
        for index, rng in zip([*indices, 2**32, 5], rngs + past, strict=True):
            want = block_rng(3, Stream.EVAL_DATA, 1, int(index))
            assert rng.bit_generator.random_raw(3).tobytes() == \
                want.bit_generator.random_raw(3).tobytes()


class TestBitWords:
    """``unpack_bits(bit_words(rng, n), n)`` against ``rng.integers(0, 2, n)`` as the oracle."""

    SIZES = [*range(1, 71), 420, 840, 1260]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    @example(seed=0)
    def test_bytes_and_next_draws_equal_integers(self, seed):
        for n in self.SIZES:
            rng, want = np.random.default_rng(seed), np.random.default_rng(seed)
            words = bit_words(rng, n)
            assert words.shape == ((n + 1) // 2,) and words.dtype == np.uint64
            bits, oracle = unpack_bits(words, n), want.integers(0, 2, n)
            assert (bits.shape, bits.dtype) == (oracle.shape, oracle.dtype) == ((n,), np.int64)
            assert bits.tobytes() == oracle.tobytes()
            # the stream goes on where integers leaves it, odd n too
            assert rng.bit_generator.random_raw() == want.bit_generator.random_raw()
            assert rng.standard_normal(3).tobytes() == want.standard_normal(3).tobytes()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_data=st.sampled_from([1, 5, 210]))
    def test_batched_unpack_of_mixed_modulations(self, seed, n_data):
        # rows of three modulations from one loop, unpacked per modulation as
        # draw_blocks does; every row must equal its generator's integers
        schemes = [ModScheme.QPSK, ModScheme.QAM16, ModScheme.QAM64, ModScheme.QPSK,
                   ModScheme.QAM64, ModScheme.QAM16, ModScheme.QAM16]
        words = [bit_words(rng, n_data * scheme.bits_per_symbol) for rng, scheme
                 in zip(block_rngs(seed, Stream.TRAIN_BLOCK, indices=range(len(schemes))),
                        schemes)]
        for scheme in set(schemes):
            rows = [row for row, s in enumerate(schemes) if s is scheme]
            n_bits = n_data * scheme.bits_per_symbol
            bits = unpack_bits(np.stack([words[row] for row in rows]), n_bits)
            assert bits.shape == (len(rows), n_bits) and bits.dtype == np.int64
            for got, row in zip(bits, rows):
                want = block_rng(seed, Stream.TRAIN_BLOCK, row).integers(0, 2, n_bits)
                assert got.tobytes() == want.tobytes()


class TestDrawBlocks:
    """``draw_blocks`` against one ``block_rng`` per block, whose
    ``integers(0, 2, n)``, ``draw_fade`` and ``standard_normal`` are the oracle."""

    # each block stream: (draws a modulation, draws a channel, leading draws of its head)
    HEADS = {Stream.TRAIN_BLOCK: (True, True, 3), Stream.EVAL_DATA: (True, False, 0),
             Stream.EVAL_CHANNEL: (False, True, 0), Stream.ADAPT_TICK: (True, True, 0)}

    @settings(max_examples=60, deadline=None)
    @given(
        stream=st.sampled_from(list(HEADS)),
        seed=st.integers(0, 2**64 - 1),
        prefix=st.lists(st.integers(0, 4), max_size=3),
        blocks=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(list(ModScheme)),
                                  st.sampled_from(list(ChannelModel))), min_size=1, max_size=7),
        one_modulation=st.booleans(),
        k_factor_db=st.sampled_from([-3.0, 3.0, 10.0]),
        n_symbols=st.sampled_from([1, 7, 30]),
        n_noise=st.sampled_from([0, 1, 16]),
    )
    @example(stream=Stream.TRAIN_BLOCK, seed=0, prefix=[],
             blocks=[(0, ModScheme.QPSK, ChannelModel.AWGN),
                     (1, ModScheme.QAM16, ChannelModel.RAYLEIGH),
                     (2, ModScheme.QAM64, ChannelModel.RICIAN),
                     (3, ModScheme.QPSK, ChannelModel.RICIAN)],
             one_modulation=False, k_factor_db=3.0, n_symbols=30, n_noise=16)
    @example(stream=Stream.EVAL_DATA, seed=3, prefix=[2],
             blocks=[(5, ModScheme.QAM64, ChannelModel.AWGN),
                     (2**32 - 1, ModScheme.QPSK, ChannelModel.RAYLEIGH)],
             one_modulation=True, k_factor_db=3.0, n_symbols=30, n_noise=0)
    def test_blocks_equal_one_block_rng_each(self, stream, seed, prefix, blocks, one_modulation,
                                             k_factor_db, n_symbols, n_noise):
        draws_mod, draws_channel, n_lead = self.HEADS[stream]
        indices = [index for index, _, _ in blocks]
        schemes = [blocks[0][1] if one_modulation else scheme for _, scheme, _ in blocks]
        channels = [ChannelCfg(model, k_factor_db=k_factor_db) for _, _, model in blocks]

        def run(rngs):
            heads, leading = iter(zip(schemes, channels)), []

            def head(rng):
                leading.append([rng.random() for _ in range(n_lead)])
                scheme, channel = next(heads)
                return scheme if draws_mod else None, channel if draws_channel else None
            return draw_blocks(rngs, len(blocks), n_symbols, n_noise, head), leading

        (symbols, fades, noise), leading = run(
            block_rngs(seed, stream, *prefix, indices=np.array(indices)))
        assert symbols.shape == (len(blocks), n_symbols) and symbols.dtype == np.complex128
        assert fades.shape == (len(blocks), 1) and noise.shape == (len(blocks), n_noise)
        # the same blocks from a list of generators, each kept for its next draw
        gens = [block_rng(seed, stream, *prefix, index) for index in indices]
        again, _ = run(iter(gens))
        for a, b in zip(again, (symbols, fades, noise)):
            assert a.tobytes() == b.tobytes()
        for row, (index, scheme, channel) in enumerate(zip(indices, schemes, channels)):
            want = block_rng(seed, stream, *prefix, index)
            assert leading[row] == [want.random() for _ in range(n_lead)]
            for got, oracle in zip((symbols[row], fades[row, 0], noise[row]), draw_block(
                    want, scheme if draws_mod else None, channel if draws_channel else None,
                    n_symbols, n_noise)):
                assert got.tobytes() == oracle.tobytes()
            # the generator goes on where the oracle's draws leave it
            assert gens[row].bit_generator.random_raw() == want.bit_generator.random_raw()

    def test_rows_of_equal_channel_configs_each_get_their_fade(self):
        # configs equal by value in separate objects, and one object in two
        # rows: each row's fade is its own generator's, as the oracle draws it
        rician = ChannelCfg(ChannelModel.RICIAN, k_factor_db=6.0)
        channels = [rician, ChannelCfg(ChannelModel.RAYLEIGH),
                    ChannelCfg(ChannelModel.RICIAN, k_factor_db=6.0), ChannelCfg(ChannelModel.AWGN),
                    rician, ChannelCfg(ChannelModel.RAYLEIGH)]
        heads = iter(channels)
        _, fades, noise = draw_blocks(block_rngs(5, Stream.EVAL_CHANNEL, indices=range(6)), 6, 0, 8,
                                      lambda rng: (None, next(heads)))
        for row, channel in enumerate(channels):
            _, fade, want = draw_block(block_rng(5, Stream.EVAL_CHANNEL, row), None, channel, 0, 8)
            assert fades[row, 0].tobytes() == fade.tobytes()
            assert noise[row].tobytes() == want.tobytes()

    def test_a_short_stream_raises_naming_both_counts(self):
        rngs = block_rngs(1, Stream.ADAPT_TICK, indices=range(2))
        with pytest.raises(ValueError, match=r"asked for 4 blocks.* ended after 2"):
            draw_blocks(rngs, 4, 3, 2, lambda rng: (ModScheme.QPSK, ChannelCfg()))


class TestApplyChannel:
    @pytest.mark.parametrize("snr_db", [np.inf, -np.inf, np.nan])
    def test_non_finite_snr_rejected(self, cfg, snr_db):
        sig = make_signal(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="snr_db must be finite"):
            apply_channel(sig, ChannelCfg(ChannelModel.AWGN), snr_db, cfg,
                          np.random.default_rng(0))

    def test_config_is_the_fading_model_alone(self):
        assert [f.name for f in dataclasses.fields(ChannelCfg)] == ["model", "k_factor_db"]
        # the K-factor is keyword-only: a leftover positional SNR fails loudly
        # rather than becoming the Rician K
        with pytest.raises(TypeError):
            ChannelCfg(ChannelModel.RICIAN, 5.0)

    def test_rayleigh_unit_power(self):
        rng = np.random.default_rng(0)
        draws = np.array(
            [draw_fade(ChannelCfg(ChannelModel.RAYLEIGH), rng) for _ in range(100_000)]
        )
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_rician_moments(self):
        # K = 10 dB: E|h|^2 = 1 and |E h|^2 = K/(K+1)
        k_lin = 10.0
        rng = np.random.default_rng(1)
        rician = ChannelCfg(ChannelModel.RICIAN, k_factor_db=10.0)
        draws = np.array([draw_fade(rician, rng) for _ in range(100_000)])
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)
        assert np.abs(np.mean(draws)) ** 2 == pytest.approx(k_lin / (k_lin + 1), abs=0.02)

    def test_seeded_determinism(self, cfg, rng):
        sig = make_signal(cfg, rng)
        ch = ChannelCfg(ChannelModel.RAYLEIGH)
        rx1, h1 = apply_channel(sig, ch, 7.0, cfg, np.random.default_rng(99))
        rx2, h2 = apply_channel(sig, ch, 7.0, cfg, np.random.default_rng(99))
        assert h1 == h2
        np.testing.assert_array_equal(rx1.values, rx2.values)

    def test_noise_power_within_one_percent(self, cfg):
        # the boundary's noise per occupied bin is the configured SNR's at any
        # oversampling, and nothing is added outside the band
        rng = np.random.default_rng(5)
        bins = make_bins(cfg, rng)
        ch = ChannelCfg(ChannelModel.AWGN)
        sigma2 = noise_power(bins, 10.0)
        n_runs = int(np.ceil(5e5 / cfg.n_sk))
        for oversample in (1, 4):
            sig = SymbolBlock(Stage.TIME_DOMAIN, time_signal(bins, cfg, oversample))
            out_of_band = np.ones(len(sig), dtype=bool)
            out_of_band[centered_band(cfg.n_sk, len(sig))] = False
            acc = 0.0
            for i in range(n_runs):
                rx, _ = apply_channel(sig, ch, 10.0, cfg, rng=np.random.default_rng((17, i)))
                acc += np.sum(np.abs(occupied_bins(rx.values, cfg) - bins) ** 2)
                if i == 0:
                    leak = np.fft.fft(rx.values - sig.values)[out_of_band]
                    assert np.max(np.abs(leak)) < 1e-9
            assert acc / (n_runs * cfg.n_sk) == pytest.approx(sigma2, rel=0.01)

    def test_fading_is_flat_per_block(self, cfg, rng):
        bins = make_bins(cfg, rng)
        ch = ChannelCfg(ChannelModel.RAYLEIGH)
        h = draw_fade(ch, np.random.default_rng(3))
        rx = add_channel(bins, h, np.zeros(cfg.n_sk, dtype=complex), 10.0)
        np.testing.assert_array_equal(rx, h * bins)

    def test_rician_requires_finite_k(self):
        with pytest.raises(ValueError):
            ChannelCfg(ChannelModel.RICIAN, k_factor_db=np.inf)

    def test_wrong_stage_rejected(self, cfg):
        block = SymbolBlock(Stage.DATA_SYMBOLS, np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            apply_channel(block, ChannelCfg(ChannelModel.AWGN), 10.0, cfg,
                          np.random.default_rng(0))


class TestDrawThenApply:
    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(list(ChannelModel)),
        snr_db=st.floats(-10.0, 40.0),
        n_blocks=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    # at 22 dB numpy's vectorized 10**x can differ from Python's in the last
    # bit (AVX-512 builds), and only Python's form is the same at any batch
    @example(model=ChannelModel.AWGN, snr_db=22.0, n_blocks=2, seed=0)
    def test_batched_matches_per_block_apply_channel(self, model, snr_db, n_blocks, seed):
        cfg = ChainConfig()
        ch = ChannelCfg(model, k_factor_db=10.0)
        data = np.random.default_rng(seed)
        # blocks of different powers, so a pooled noise power would show
        scale = data.uniform(0.1, 10.0, (n_blocks, 1))
        x = scale * (data.standard_normal((n_blocks, cfg.n_sk))
                     + 1j * data.standard_normal((n_blocks, cfg.n_sk)))
        fades, noise = zip(*(draw_block(np.random.default_rng((seed, b)), None, ch, 0, cfg.n_sk)[1:]
                             for b in range(n_blocks)))
        h, noise = np.array(fades)[:, None], np.array(noise)
        assert noise.shape == (n_blocks, cfg.n_sk)
        batched = add_channel(x, h, noise, snr_db)
        sigma2 = noise_power(x, snr_db)
        assert sigma2.shape == (n_blocks,)
        # one SNR per block, as adapt's replay passes them
        snrs = snr_db + np.arange(n_blocks) / 3.0
        per_block = add_channel(x, h, noise, snrs)
        # the boundary's steps on the whole batch: bins, channel, synthesis
        x_time = time_signal(x, cfg, oversample=1)
        boundary = time_signal(add_channel(occupied_bins(x_time, cfg), h, noise, snr_db), cfg,
                               oversample=1)
        for b in range(n_blocks):
            assert sigma2[b] == noise_power(x[b], snr_db)
            alone = add_channel(x[b], h[b], noise[b], snr_db)
            assert batched[b].tobytes() == alone.tobytes()
            alone = add_channel(x[b], h[b], noise[b], float(snrs[b]))
            assert per_block[b].tobytes() == alone.tobytes()
            y, fade = apply_channel(SymbolBlock(Stage.TIME_DOMAIN, x_time[b]), ch, snr_db, cfg,
                                    np.random.default_rng((seed, b)))
            assert fade == h[b, 0]
            assert boundary[b].tobytes() == y.values.tobytes()

    @pytest.mark.parametrize("model", list(ChannelModel))
    def test_noise_draws_real_parts_then_imaginary(self, model):
        # every output's noise depends on this order
        _, fade, noise = draw_blocks([np.random.default_rng(3)], 1, 0, 16,
                                     lambda rng: (None, ChannelCfg(model)))
        _, want_fade, want = draw_block(np.random.default_rng(3), None, ChannelCfg(model), 0, 16)
        assert fade[0, 0].tobytes() == want_fade.tobytes()
        assert noise[0].tobytes() == want.tobytes()
        batch = unit_noise(np.stack([np.zeros((2, 16)), [np.ones(16), np.full(16, 2.0)]]))
        assert batch.tobytes() == np.stack([np.zeros(16), np.full(16, 1 + 2j)]).tobytes()

    def test_noise_power_is_per_block(self, cfg):
        # unit-magnitude bins: occupied power 1, noise at 0 dB equal
        x = np.ones((2, cfg.n_sk), dtype=complex)
        x[1] *= 2.0
        np.testing.assert_array_equal(noise_power(x, 0.0), [1.0, 4.0])

    def test_unit_bins_noise_power_is_the_snr_rule_exactly(self, cfg):
        # per occupied bin, noise power over signal power is 10**(-snr/10)
        snrs = [-10.0, 0.0, 3.0, 10.0, 22.0, 37.5]
        x = np.array([1, 1j, -1, -1j])[np.arange(cfg.n_sk) % 4]  # |x| = 1 on every bin
        for snr in snrs:
            assert noise_power(x, snr) == 10.0 ** (-snr / 10.0)
        batch = np.stack([np.ones(cfg.n_sk, dtype=complex)] * len(snrs))
        assert noise_power(batch, np.array(snrs)).tolist() == [10.0 ** (-s / 10.0) for s in snrs]

    def test_noise_term_scales_unit_noise(self, cfg):
        bins = 3.0 * np.ones((2, cfg.n_sk), dtype=complex)
        noise = np.ones((2, cfg.n_sk)) * (1 + 1j)
        got = noise_term(bins, noise, np.array([0.0, 10.0]))
        np.testing.assert_allclose(got[0], 3.0 / np.sqrt(2.0) * (1 + 1j), rtol=1e-15)
        np.testing.assert_allclose(got[1], 3.0 / np.sqrt(20.0) * (1 + 1j), rtol=1e-15)


class TestNonFiniteSnr:
    """``noise_power`` is the link's one SNR check: every path that makes
    noise rejects a non-finite SNR there, one for every block or one per block,
    and ``noise_power`` rejects an SNR below the float floor."""

    @staticmethod
    def assert_rejected_in_noise_power(call):
        with pytest.raises(ValueError, match="snr_db must be finite") as exc:
            call()
        assert exc.traceback[-1].name == "noise_power"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("per_block", [False, True])
    def test_every_noise_path(self, cfg, bad, per_block):
        bins = np.ones((3, cfg.n_sk), dtype=complex)
        noise = np.zeros((3, cfg.n_sk), dtype=complex)
        # per block: one bad entry among finite ones
        snr_db = np.array([3.0, bad, 10.0]) if per_block else bad
        self.assert_rejected_in_noise_power(lambda: noise_power(bins, snr_db))
        self.assert_rejected_in_noise_power(lambda: noise_term(bins, noise, snr_db))
        self.assert_rejected_in_noise_power(
            lambda: add_channel(bins, np.ones((3, 1)), noise, snr_db))
        if not per_block:
            sig = make_signal(cfg, np.random.default_rng(0))
            self.assert_rejected_in_noise_power(lambda: apply_channel(
                sig, ChannelCfg(ChannelModel.RAYLEIGH), bad, cfg, np.random.default_rng(0)))

    @pytest.mark.parametrize("per_block", [False, True])
    def test_snr_below_the_floor_rejected(self, cfg, per_block):
        # 10**(-snr/10) overflows a float below about -3082.5 dB
        bins = np.ones((3, cfg.n_sk), dtype=complex)
        noise_power(bins, -3082.0)
        snr_db = np.array([3.0, -4000.0, 10.0]) if per_block else -4000.0
        with pytest.raises(ValueError, match=r"snr_db -4000.0 dB is below the floor") as exc:
            noise_power(bins, snr_db)
        assert exc.traceback[-1].name == "noise_power"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("per_block", [False, True])
    def test_noise_power_overflow_rejected(self, per_block):
        # 10**(3082/10) is finite, but times a block power of 4 it overflows:
        # the floor error, without an overflow warning
        with pytest.raises(ValueError, match=r"snr_db -3082.0 dB is below the floor"):
            noise_power(np.full(4, 2 + 0j), -3082.0)
        bins = np.ones((2, 4), dtype=complex)
        bins[1] = 2.0
        snr_db = np.array([3.0, -3082.0]) if per_block else -3082.0
        with pytest.raises(ValueError, match=r"snr_db -3082.0 dB is below the floor") as exc:
            noise_power(bins, snr_db)
        assert exc.traceback[-1].name == "noise_power"
        # a finite noise power keeps its bytes
        assert noise_power(bins[0], -3082.0) == 10.0 ** 308.2
        got = noise_power(bins, np.array([-3082.0, 3.0]))
        assert got.tobytes() == np.array([10.0 ** 308.2, 4.0 * 10.0 ** -0.3]).tobytes()
