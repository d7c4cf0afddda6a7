"""Runtime adaptation loop: SNR feedback -> tap recomputation, lambda logged.

Taps are recomputed from the fed-back SNR alone once per feedback cycle, a
simulated 100 ms by default (a tick label; nothing runs on a wall clock).  The
weight lambda of a small SNR-binned table weights each block's tail term in
training; at run time it is looked up and logged.  Bins are half-open [lo, hi):
a value on a boundary belongs to the upper bin, one below the first bin to it.

:func:`adaptation_cycle` is the one learned-filter transmit: features ->
net -> taps -> shaping at fixed power.  The net's forward is batch-invariant
and every other step acts on each block alone, so a block's bytes do not
depend on the batch it is shaped in.  A device shapes one block per feedback
cycle.  :func:`run_scenario` replays the cycles in chunks of ticks and
evaluation's ``tinyml`` scheme shapes whole batches; both give each block
the bytes of that one device cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from . import network
from .chain import (
    SCHEME_NAMES,
    ChainConfig,
    ModScheme,
    extend,
    map_symbols,
    precode,
    receive,
    shape_and_normalize,
)
from .channel import (ChannelCfg, Stream, add_channel, bit_words, block_rngs, draw_channel,
                      unit_noise, unpack_bits)
from .filters import taps_from_coeffs
from .metrics import waveform_papr_db

DEFAULT_BINS = (
    (0.0, 5.0, 0.1),
    (5.0, 10.0, 0.3),
    (10.0, 15.0, 0.5),
    (15.0, 20.0, 0.8),
    (20.0, math.inf, 1.0),
)

DEFAULT_PERIOD_MS = 100.0
# most feedback cycles one replay runs (27.8 h of 100 ms cycles); a config or
# trace that asks for more is rejected before any tick is allocated
MAX_TICKS = 10**6
# ticks per batched replay step, chosen by measuring perfbench adapt: 64
# replays faster than 32 at the same peak RSS; 128 is ~7% faster again, but
# its per-chunk arrays add ~4 MB (+8%) to the peak
CHUNK_TICKS = 64

PRESET_TRACES = {
    "factory": 5.0,  # noisy industrial floor, reliability first
    "rural": 15.0,  # line-of-sight uplink, energy first
}


def tick_count(span_ms: float, period_ms: float, span_name: str = "a replay span") -> int:
    """Feedback cycles from 0 to ``span_ms`` inclusive: ``floor(span / period) + 1``.

    The one check of a replay's clock: the span must be finite and >= 0 (its
    message names the span ``span_name``) and the period finite and > 0, and
    a count above ``MAX_TICKS`` raises ``ValueError`` before anything is
    allocated for the ticks.
    """
    if not 0.0 < period_ms < math.inf:
        raise ValueError(f"period_ms must be positive and finite, got {period_ms}")
    if not 0.0 <= span_ms < math.inf:
        raise ValueError(f"{span_name} must be finite and >= 0 ms, got {span_ms}")
    steps = span_ms // period_ms
    if not steps < MAX_TICKS:
        raise ValueError(f"a {span_ms} ms span at a {period_ms} ms period is more than "
                         f"MAX_TICKS = {MAX_TICKS} feedback cycles")
    return int(steps) + 1


class LambdaTable:
    """SNR-bin -> lambda map over ``DEFAULT_BINS``: the first bin whose upper
    edge lies above the SNR, so the bins are half-open and an SNR below the
    first bin takes it."""

    _upper = np.array([hi for _, hi, _ in DEFAULT_BINS])
    _lam = np.array([lam for _, _, lam in DEFAULT_BINS])

    def lookup(self, snr_db: float | np.ndarray) -> float | np.ndarray:
        """Lambda of one SNR (a float) or of each of an array of SNRs (an
        array of the same shape); a non-finite SNR anywhere raises."""
        snr = np.asarray(snr_db, dtype=np.float64)
        finite = np.isfinite(snr)
        if not finite.all():
            raise ValueError(f"snr_db must be finite, got {snr[~finite].flat[0]}")
        lam = self._lam[np.searchsorted(self._upper, snr, side="right")]
        return float(lam) if lam.ndim == 0 else lam


def adaptation_cycle(
    snr_db: float | np.ndarray,
    net: network.NetParams | network.QuantizedNet,
    s_ext: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One feedback cycle: recompute the taps and shape the blocks.

    ``s_ext`` holds extended spectra of n_sk bins on its last axis, where
    n_sk is the net's input width less the SNR feature; ``snr_db`` is the
    fed-back SNR, one for every block or one per block.  Returns
    ``(bins, eff_taps)``: the bins shaped at fixed transmit power and the
    effective taps the receiver equalizes with, one row per block.  The cycle
    is a pure function of (snr, net, block) per row: a row has the same bytes
    alone as inside any batch.
    """
    n_sk = net.input_dim - 1
    features = network.build_input(s_ext, snr_db, expected_len=n_sk)
    coeffs = network.predict_coeffs(net, features)
    bins, eff_taps, _ = shape_and_normalize(s_ext, taps_from_coeffs(coeffs, n_sk))
    return bins, eff_taps


@dataclass(frozen=True)
class AdaptConfig:
    """The ``adapt`` command: feedback period, preset trace and modulation."""

    period_ms: float = DEFAULT_PERIOD_MS
    preset: str = "factory"
    duration_ms: float = 2000.0
    trace: str | None = None  # trace CSV path; the preset is used when unset
    mod: str = "qpsk"

    def __post_init__(self):
        tick_count(self.duration_ms, self.period_ms, "duration_ms")
        if self.preset not in PRESET_TRACES:
            raise ValueError(f"preset must be in {sorted(PRESET_TRACES)}, got {self.preset!r}")
        if self.mod not in SCHEME_NAMES:
            raise ValueError(f"mod must be in {sorted(SCHEME_NAMES)}, got {self.mod!r}")


class TickRecord(NamedTuple):
    """One tick: a row of ``events.csv``, whose ``lambda`` column is ``lam``."""

    t_ms: float
    snr_db: float
    lam: float
    papr_db: float
    ser_block: float


def preset_trace(name: str, duration_ms: float = AdaptConfig.duration_ms,
                 period_ms: float = DEFAULT_PERIOD_MS):
    """Constant-SNR feedback traces for the narrative scenarios."""
    if name not in PRESET_TRACES:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESET_TRACES)}")
    snr = PRESET_TRACES[name]
    return [(i * period_ms, snr) for i in range(tick_count(duration_ms, period_ms))]


def run_scenario(
    trace: list[tuple[float, float]],
    net: network.NetParams | network.QuantizedNet,
    cfg: ChainConfig,
    scheme: ModScheme = ModScheme.QPSK,
    seed: int = 0,
    period_ms: float = DEFAULT_PERIOD_MS,
) -> list[TickRecord]:
    """Replay an SNR feedback trace: a loop that only draws, then batched links.

    The trace's timestamps must be sorted (a NaN is out of order) and its
    values finite: the CLI's rule.  The clock advances in ``period_ms`` steps
    from the first to the last timestamp, and each tick takes the latest
    feedback at or before it, looks lambda up in :class:`LambdaTable`,
    transmits one fresh block, measures its PAPR, passes it through AWGN (no
    fade) at the true SNR, and records that block's symbol error rate.

    Every tick's generator, ``block_rng(seed, Stream.ADAPT_TICK, tick)``, is
    seeded up front in one pass (``block_rngs``), and every tick's time,
    feedback and lambda are resolved up front (one ``np.searchsorted`` and
    one ``LambdaTable.lookup`` of every tick's SNR).  The
    ticks run ``CHUNK_TICKS`` at a time.  Per chunk, a loop draws each tick's
    bits as raw words (``channel.bit_words``), then its noise
    (``channel.draw_channel``); the chunk's words are unpacked at once
    (``channel.unpack_bits``) into the bytes of each tick's
    ``rng.integers(0, 2, n_bits)``, and the link runs once on the chunk, with
    one SNR per block.  Every step of the link is row-independent, so each
    record has the bytes of the tick run alone.
    """
    if len(trace) == 0:
        return []
    times, snrs = np.array(trace, dtype=float).T
    if not (np.all(np.diff(times) >= 0) and np.all(np.isfinite(snrs))):
        raise ValueError("trace timestamps must be sorted and its values finite")
    n_ticks = tick_count(times[-1] - times[0], period_ms)
    records: list[TickRecord] = []
    n_bits = cfg.n_data * scheme.bits_per_symbol
    now = (times[0] + np.arange(n_ticks) * period_ms).tolist()
    fed = np.searchsorted(times, now, side="right") - 1  # latest feedback at or before
    snr_db = snrs[fed].tolist()
    lam = LambdaTable().lookup(snrs[fed]).tolist()
    rngs = block_rngs(seed, Stream.ADAPT_TICK, indices=range(n_ticks))
    awgn = ChannelCfg()  # draws no fade
    for lo in range(0, n_ticks, CHUNK_TICKS):
        ticks = slice(lo, lo + CHUNK_TICKS)
        snr = np.array(snr_db[ticks])
        words = []  # the bits' raw words
        parts = np.empty((len(snr), 2, cfg.n_sk))  # the noise's standard-normal parts
        for row, rng in enumerate(islice(rngs, len(snr))):
            words.append(bit_words(rng, n_bits))
            draw_channel(awgn, rng, parts[row])
        tx = map_symbols(unpack_bits(np.stack(words), n_bits), scheme)
        bins, taps = adaptation_cycle(snr, net, extend(precode(tx), cfg.n_se))
        papr = waveform_papr_db(bins, cfg)
        # the channel on the occupied bins, at the true SNR
        rx = add_channel(bins, 1.0, unit_noise(parts), snr)
        detected, _ = receive(rx, taps, cfg.n_se, scheme)
        ser = np.count_nonzero(detected != tx, axis=-1) / cfg.n_data
        records.extend(map(TickRecord, now[ticks], snr_db[ticks], lam[ticks],
                           papr.tolist(), ser.tolist()))
    return records
