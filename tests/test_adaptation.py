import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tinyfdss import network
from tinyfdss.adaptation import (
    CHUNK_TICKS,
    DEFAULT_BINS,
    DEFAULT_PERIOD_MS,
    MAX_TICKS,
    AdaptConfig,
    LambdaTable,
    adaptation_cycle,
    preset_trace,
    run_scenario,
    tick_count,
)
from tinyfdss.chain import ChainConfig, ModScheme, extend, map_symbols, precode, shape_and_normalize
from tinyfdss.filters import taps_from_coeffs

from reference import lambda_of, qpsk_ser, replay


@pytest.fixture
def net():
    return network.init_params(hidden_width=10, rng=np.random.default_rng(0))


def make_block(cfg, seed=0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, cfg.n_data * 2)
    return extend(precode(map_symbols(bits, ModScheme.QPSK)), cfg.n_se)


# an inner NaN timestamp fails every comparison with its neighbours, so a
# check for a decrease alone (b < a) passes it: this trace replayed 4 ticks
INNER_NAN_TRACE = [(0.0, 5.0), (math.nan, 25.0), (300.0, 12.0)]


@st.composite
def sorted_traces(draw, min_size=1):
    """Finite traces in time order over at most 2 s, repeats and every lambda bin allowed."""
    times = sorted(draw(st.lists(st.floats(0.0, 2000.0), min_size=min_size, max_size=6)))
    snrs = draw(st.lists(st.floats(-5.0, 30.0), min_size=len(times), max_size=len(times)))
    return list(zip(times, snrs))


@st.composite
def refused_traces(draw):
    """A sorted finite trace with one row spoiled, as the CLI's trace reader refuses it:
    a non-finite timestamp or SNR, or a timestamp below the one before."""
    trace = draw(sorted_traces(min_size=2))
    i = draw(st.integers(0, len(trace) - 1))
    t_ms, snr_db = trace[i]
    bad = st.sampled_from([math.nan, math.inf, -math.inf])
    kind = draw(st.sampled_from(["time", "snr", "decrease"]))
    if kind == "time":
        t_ms = draw(bad)
    elif kind == "snr":
        snr_db = draw(bad)
    else:
        i = max(i, 1)
        t_ms = trace[i - 1][0] - draw(st.floats(1e-3, 1e3))
    trace[i] = (t_ms, snr_db)
    return trace


# feedback held across ticks and across every lambda bin; its 153 ticks are
# two full replay chunks and a partial third
CHUNKED_TRACE = [(0.0, -1.0), (500.0, 3.0), (2460.0, 7.5), (5200.0, 12.0),
                 (8200.0, 17.0), (11110.0, 22.0), (12800.0, 9.0), (15200.0, 4.0)]
# the default layout, even and odd n_sk, and no extension
REPLAY_CHAINS = [ChainConfig(), ChainConfig(n_data=24, n_se=4, n_fft=64),
                 ChainConfig(n_data=25, n_se=3, n_fft=64, oversample=2),
                 ChainConfig(n_data=30, n_se=0, n_fft=32)]


class TestLambdaTable:
    def test_bin_examples(self):
        table = LambdaTable()
        assert table.lookup(7.0) == 0.3
        assert table.lookup(25.0) == 1.0
        assert table.lookup(-3.0) == 0.1  # clamped below range

    def test_half_open_boundaries(self):
        table = LambdaTable()
        assert table.lookup(5.0) == 0.3
        assert table.lookup(10.0) == 0.5
        assert table.lookup(15.0) == 0.8
        assert table.lookup(20.0) == 1.0

    def test_bin_midpoints(self):
        table = LambdaTable()
        for snr, lam in [(2.5, 0.1), (7.5, 0.3), (12.5, 0.5), (17.5, 0.8), (25.0, 1.0)]:
            assert table.lookup(snr) == lam

    def test_rejects_gaps(self):
        # the bins are the constant DEFAULT_BINS: each starts where the last
        # one ends, so the upper edges rise, and the last one is open
        his, _ = zip(*DEFAULT_BINS)
        assert all(lo < hi for lo, hi in zip(his, his[1:]))
        assert his[-1] == math.inf

    def test_rejects_bad_lambda(self):
        # every lambda of the constant DEFAULT_BINS lies in (0, 1]
        assert all(0.0 < lam <= 1.0 for _, lam in DEFAULT_BINS)

    def test_rejects_non_finite_snr(self):
        with pytest.raises(ValueError):
            LambdaTable().lookup(float("nan"))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"snr_db must be finite, got {bad}"):
                LambdaTable().lookup(np.array([[5.0, 7.0], [bad, 12.0]]))

    def test_array_form_is_the_scalar_rule(self):
        # every bin edge (0 dB and the finite upper edges), one ulp either
        # side of it, below the first bin and far above the last; the rule:
        # the first bin whose upper edge lies above the SNR
        edges = [0.0] + [hi for hi, _ in DEFAULT_BINS[:-1]]
        snrs = np.array(sorted({v for e in edges
                                for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))}
                               | {-3.0, -1e300, 1e300}))
        table = LambdaTable()
        scalar = [table.lookup(float(snr)) for snr in snrs]
        assert all(type(lam) is float for lam in scalar)
        assert scalar == [lambda_of(snr) for snr in snrs]
        got = table.lookup(snrs)
        assert got.shape == snrs.shape and got.tolist() == scalar
        assert table.lookup(snrs.reshape(-1, 1)).ravel().tolist() == scalar


class TestAdaptationCycle:
    def test_identical_inputs_identical_taps(self, cfg, net):
        block = make_block(cfg)
        bins1, taps1 = adaptation_cycle(8.0, net, block)
        adaptation_cycle(20.0, net, make_block(cfg, seed=1))
        bins2, taps2 = adaptation_cycle(8.0, net, block)
        np.testing.assert_array_equal(bins2, bins1)
        np.testing.assert_array_equal(taps2, taps1)

    def test_lambda_transition_logged(self, cfg, net):
        # the cycle keeps no log; the per-tick records of the loop are the log
        records = run_scenario([(0.0, 9.0), (100.0, 11.0)], net, cfg)
        assert [r.lam for r in records] == [0.3, 0.5]
        assert [r.t_ms for r in records] == [0.0, 100.0]

    def test_shaped_output_matches_manual_filter(self, cfg, net):
        block = make_block(cfg)
        shaped, eff_taps = adaptation_cycle(8.0, net, block)
        coeffs = network.predict_coeffs(net, network.build_input(block, 8.0))
        bins, eff, _ = shape_and_normalize(block, taps_from_coeffs(coeffs, cfg.n_sk))
        np.testing.assert_array_equal(shaped, bins)
        np.testing.assert_array_equal(eff_taps, eff)

    def test_shaped_output_keeps_unshaped_power(self, cfg, net):
        # fixed transmit power: the taps cannot buy SNR
        for seed, snr_db in enumerate((-2.0, 3.0, 8.0, 16.0, 24.0)):
            block = make_block(cfg, seed=seed)
            shaped, _ = adaptation_cycle(snr_db, net, block)
            assert np.mean(np.abs(shaped) ** 2) == pytest.approx(
                np.mean(np.abs(block) ** 2), rel=1e-12
            )

    def test_quantized_net_path(self, cfg, net):
        qnet = network.quantize(net)
        block = make_block(cfg)
        shaped, _ = adaptation_cycle(8.0, qnet, block)
        assert np.all(np.isfinite(shaped))

    @pytest.mark.parametrize("kind", ["float", "int8"])
    def test_batch_equals_single_block_calls_bytewise(self, cfg, net, kind):
        # general weights: the forward's contraction must not depend on the
        # batch shape, so every row has the bytes of that block run alone
        deployed = net if kind == "float" else network.quantize(net)
        rng = np.random.default_rng(3)
        n = 2048 + 7
        bits = rng.integers(0, 2, (n, cfg.n_data * 2))
        blocks = extend(precode(map_symbols(bits, ModScheme.QPSK)), cfg.n_se)
        snr_db = rng.uniform(-2.0, 25.0, n)
        bins, taps = adaptation_cycle(snr_db, deployed, blocks)
        assert bins.shape == taps.shape == blocks.shape
        for lo, size in ((1000, 1), (3, 7), (7, 2048)):
            rows = slice(lo, lo + size)
            part_bins, part_taps = adaptation_cycle(snr_db[rows], deployed, blocks[rows])
            assert part_bins.tobytes() == bins[rows].tobytes()
            assert part_taps.tobytes() == taps[rows].tobytes()
        one_bins, one_taps = adaptation_cycle(float(snr_db[5]), deployed, blocks[5])
        assert one_bins.shape == (cfg.n_sk,)
        assert one_bins.tobytes() == bins[5].tobytes()
        assert one_taps.tobytes() == taps[5].tobytes()

    @pytest.mark.parametrize("kind", ["float", "int8"])
    def test_batch_matches_single_block_calls(self, cfg, net, kind):
        # a batch at one shared SNR agrees row by row with each block run alone
        deployed = net if kind == "float" else network.quantize(net)
        blocks = np.stack([make_block(cfg, seed) for seed in range(5)])
        bins, taps = adaptation_cycle(8.0, deployed, blocks)
        for b in range(len(blocks)):
            one_bins, one_taps = adaptation_cycle(8.0, deployed, blocks[b])
            np.testing.assert_allclose(bins[b], one_bins, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(taps[b], one_taps, rtol=1e-12, atol=1e-14)

    def test_wrong_stage_rejected(self, cfg, net):
        # data symbols (n_data long) are not an extended spectrum (n_sk long)
        block = map_symbols(np.zeros(cfg.n_data * 2, dtype=int), ModScheme.QPSK)
        with pytest.raises(ValueError):
            adaptation_cycle(8.0, net, block)


class TestRunScenario:
    def test_constant_factory_trace_lambda(self, cfg, net):
        records = run_scenario(preset_trace("factory", 500.0), net, cfg, seed=1)
        assert len(records) == 6
        assert all(r.lam == 0.3 for r in records)  # 5 dB sits in the [5,10) bin

    def test_constant_rural_trace_lambda(self, cfg, net):
        records = run_scenario(preset_trace("rural", 500.0), net, cfg, seed=1)
        assert all(r.lam == 0.8 for r in records)  # 15 dB sits in the [15,20) bin

    def test_empty_trace_empty_timeline(self, cfg, net):
        assert run_scenario([], net, cfg) == []

    def test_replay_determinism(self, cfg, net):
        trace = [(0.0, 4.0), (250.0, 12.0), (600.0, 18.0)]
        a = run_scenario(trace, net, cfg, seed=3)
        b = run_scenario(trace, net, cfg, seed=3)
        assert [(r.t_ms, r.snr_db, r.lam, r.papr_db, r.ser_block) for r in a] == [
            (r.t_ms, r.snr_db, r.lam, r.papr_db, r.ser_block) for r in b
        ]

    @pytest.mark.parametrize("kind,scheme", [
        ("float", ModScheme.QPSK), ("int8", ModScheme.QPSK), ("float", ModScheme.QAM16),
    ])
    @settings(max_examples=8, deadline=None)
    @given(trace=sorted_traces(), chain=st.sampled_from(REPLAY_CHAINS),
           seed=st.integers(0, 2**32 - 1), net_seed=st.integers(0, 2**32 - 1))
    @example(trace=CHUNKED_TRACE, chain=ChainConfig(), seed=6, net_seed=0)
    def test_records_equal_tick_by_tick_replay_bytewise(self, kind, scheme, trace, chain, seed,
                                                       net_seed):
        net = network.init_params(hidden_width=10, rng=np.random.default_rng(net_seed),
                                  input_dim=chain.n_sk + 1)
        deployed = net if kind == "float" else network.quantize(net)
        records = run_scenario(trace, deployed, chain, scheme, seed=seed)
        if trace == CHUNKED_TRACE:
            assert len(records) > 2 * CHUNK_TICKS and len(records) % CHUNK_TICKS
            assert {r.lam for r in records} == {lam for _, lam in DEFAULT_BINS}
        want = replay(trace, deployed, chain, scheme, seed)
        assert [repr(r) for r in records] == [repr(r) for r in want]

    def test_ser_matches_closed_form_at_the_configured_snr(self, cfg):
        # zero weights and output bias [1, 0, 0, 0, 0]: every tap is 1, so the
        # link is the extended chain with unit taps, and folding the 2*n_se
        # copies buys n_data/(n_data - n_se) in SNR (acceptance criterion 6).
        # 3000 ticks of 210 QPSK symbols at 8 dB, ~0.5 s.
        snr_db, n_ticks = 8.0, 3000
        unit_net = network.NetParams.from_layers([(
            np.zeros((network.OUT_DIM, cfg.n_sk + 1)), np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
            np.ones((network.OUT_DIM, cfg.n_sk + 1)),
        )])
        trace = [(i * DEFAULT_PERIOD_MS, snr_db) for i in range(n_ticks)]
        records = run_scenario(trace, unit_net, cfg, ModScheme.QPSK, seed=11)
        assert len(records) == n_ticks
        ser = np.mean([r.ser_block for r in records])
        theory = qpsk_ser(snr_db, cfg.n_data, cfg.n_se)
        sem = math.sqrt(theory * (1 - theory) / (n_ticks * cfg.n_data))
        assert abs(ser - theory) <= 3 * sem

    def test_tick_count_and_feedback_holding(self, cfg, net):
        trace = [(0.0, 4.0), (250.0, 12.0)]
        records = run_scenario(trace, net, cfg, seed=4)
        # ticks at 0,100,200 use 4 dB; feedback at 250 never lands on a tick
        assert [r.snr_db for r in records] == [4.0, 4.0, 4.0]

    def test_unsorted_trace_rejected(self, cfg, net):
        with pytest.raises(ValueError):
            run_scenario([(100.0, 5.0), (0.0, 5.0)], net, cfg)

    # the fixtures are only read, so one instance serves every example
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trace=refused_traces())
    @example(trace=INNER_NAN_TRACE)
    def test_a_trace_the_cli_refuses_is_rejected(self, cfg, net, trace):
        with pytest.raises(ValueError):
            run_scenario(trace, net, cfg)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trace=sorted_traces())
    def test_a_sorted_finite_trace_replays_one_record_per_tick(self, cfg, net, trace):
        records = run_scenario(trace, net, cfg, seed=2)
        start = trace[0][0]
        now = [start + k * DEFAULT_PERIOD_MS
               for k in range(tick_count(trace[-1][0] - start, DEFAULT_PERIOD_MS))]
        assert [r.t_ms for r in records] == now
        # each tick holds the latest feedback at or before it
        assert [r.snr_db for r in records] == [
            [snr for t, snr in trace if t <= tick][-1] for tick in now]

    def test_snr_crossing_changes_lambda(self, cfg, net):
        trace = [(0.0, 9.0), (100.0, 11.0)]
        records = run_scenario(trace, net, cfg, seed=5)
        assert [r.lam for r in records] == [0.3, 0.5]

    def test_nonpositive_period_rejected(self, cfg, net):
        for period_ms in (0.0, -100.0):
            with pytest.raises(ValueError, match="period"):
                run_scenario([(0.0, 5.0)], net, cfg, period_ms=period_ms)

    def test_tick_count_bound(self):
        # arithmetic only: the count is checked before any tick exists
        assert tick_count((MAX_TICKS - 1) * 100.0, 100.0) == MAX_TICKS
        with pytest.raises(ValueError, match="MAX_TICKS"):
            tick_count(MAX_TICKS * 100.0, 100.0)

    @pytest.mark.parametrize("span_ms, period_ms, bad", [
        (-500.0, 100.0, "span must be finite and >= 0 ms, got -500.0"),
        (math.nan, 100.0, "span must be finite and >= 0 ms, got nan"),
        (math.inf, 100.0, "span must be finite and >= 0 ms, got inf"),
        (2000.0, 0.0, "period_ms must be positive and finite, got 0.0"),
        (2000.0, -100.0, "period_ms must be positive and finite, got -100.0"),
        (2000.0, math.nan, "period_ms must be positive and finite, got nan"),
    ], ids=["span-negative", "span-nan", "span-inf", "period-zero", "period-negative",
            "period-nan"])
    def test_tick_count_rejects_a_bad_clock_naming_the_value(self, span_ms, period_ms, bad):
        with pytest.raises(ValueError, match=bad):
            tick_count(span_ms, period_ms)

    @pytest.mark.parametrize("duration_ms", [-5.0, math.nan, math.inf])
    def test_adapt_config_span_is_checked_by_tick_count(self, duration_ms):
        with pytest.raises(ValueError, match=f"^duration_ms must be finite and >= 0 ms, "
                                             f"got {duration_ms}$"):
            AdaptConfig(duration_ms=duration_ms)

    @pytest.mark.parametrize("period_ms", [0.0, -100.0])
    def test_preset_trace_rejects_a_nonpositive_period(self, period_ms):
        # not a ZeroDivisionError, and not an empty trace
        with pytest.raises(ValueError, match=f"period_ms must be .* finite, got {period_ms}"):
            preset_trace("factory", 2000.0, period_ms)

    def test_unbounded_tick_counts_rejected(self, cfg, net):
        # rejected before the tick list or the per-tick arrays are built
        with pytest.raises(ValueError, match="MAX_TICKS"):
            AdaptConfig(period_ms=1e-300)
        with pytest.raises(ValueError, match="MAX_TICKS"):
            AdaptConfig(duration_ms=MAX_TICKS * DEFAULT_PERIOD_MS)
        with pytest.raises(ValueError, match="MAX_TICKS"):
            preset_trace("factory", 2000.0, 1e-300)
        with pytest.raises(ValueError, match="MAX_TICKS"):
            run_scenario([(0.0, 5.0), (1e300, 5.0)], net, cfg)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_trace("underwater")
