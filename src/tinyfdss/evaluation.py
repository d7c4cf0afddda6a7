"""Frozen-checkpoint Monte-Carlo evaluation across channels, SNRs, and schemes.

Schemes
-------
``tinyml``    learned taps on the spectrum-extended chain (quantized twin by
              default), transmit power normalized per block; each batch is
              one ``adaptation.adaptation_cycle``, the feedback cycle the
              device runs
``rrc_fdss``  static root-raised-cosine frequency-domain profile on the same
              extended chain (informative extra column)
``dftsofdm``  conventional DFT-s-OFDM: every subcarrier carries data, no
              extension, flat spectrum
``rrc``       conventional chain through the classic truncated time-domain
              RRC transmit filter (expressed as complex per-bin gains)
``clf``       clipping-and-filtering on the conventional chain
``slm``       selective mapping on the conventional chain; the chosen phases
              are the receiver's complex taps (genie side info: the index)

Pairing is structural: draw once, then run every scheme through the draw.
The CCDF pass draws each chunk of blocks once.  The grid draws each
modulation's blocks once, and every scheme transmits them once (``tinyml``
once per SNR, since its taps depend on it); per (SNR, channel) it draws each
block's fade and unit noise once, from ``block_rng(seed, Stream.EVAL_CHANNEL,
channel, modulation, SNR, block)``, and passes every scheme's transmit
through them.  So every scheme sees the same data, fades and noise at
matched SNR, and every channel the same transmit.  PAPR is measured on the
oversampled transmit waveform; the communication path acts on the occupied
bins, where ``channel.noise_power`` makes the configured SNR exact per bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .adaptation import adaptation_cycle
from .baselines import (
    ClfConfig,
    SlmConfig,
    clf_reduce,
    conventional_config,
    fir_bin_gains,
    rrc_fir,
    slm_phase_vectors,
    slm_select,
)
from .chain import (
    SCHEME_NAMES,
    ChainConfig,
    extend,
    map_symbols,
    precode,
    receive,
    shape_and_normalize,
    time_signal,
)
from .channel import (MODEL_NAMES, RICIAN_K_DB, ChannelCfg, Stream, add_channel,
                      block_rngs, draw_channel, unit_noise)
from .filters import rrc_taps, unit_taps
from .metrics import (
    OOBE_MIN_BLOCKS,
    empirical_ccdf,
    measured_ser,
    oobe_db,
    papr_at_ccdf,
    waveform_papr_db,
)
from .training import Checkpoint

ALLSCHEME_NAMES = ("tinyml", "rrc", "dftsofdm", "clf", "slm", "rrc_fdss")
RRC_FIR_TAPS = 32
CCDF_CHUNK = 2048  # blocks per CCDF chunk, bounds peak memory
CCDF_GRID_DB = np.arange(0.0, 12.0 + 0.1 / 2, 0.1)  # CCDF thresholds 0, 0.1, ..., 12 dB


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation grid and Monte-Carlo sizes."""

    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    channels: tuple[str, ...] = ("awgn",)
    mods: tuple[str, ...] = ("qpsk",)
    n_blocks: int = 500
    ccdf_blocks: int = 20_000
    ccdf_snr_db: float = 15.0
    oobe_blocks: int = 64
    rrc_rolloff: float = 0.25
    rician_k_db: float = RICIAN_K_DB
    use_quantized: bool = True
    schemes: tuple[str, ...] = ("tinyml", "rrc", "dftsofdm", "clf", "slm")
    clf: ClfConfig = field(default_factory=ClfConfig)
    slm: SlmConfig = field(default_factory=SlmConfig)
    seed: int = 0

    def __post_init__(self):
        for key in ("schemes", "channels", "mods", "snr_db"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} must name at least one entry")
            if len(set(values)) != len(values):
                raise ValueError(f"{key} must not repeat an entry, got {list(values)}")
        for name in self.schemes:
            if name not in ALLSCHEME_NAMES:
                raise ValueError(f"unknown scheme {name!r}")
        for name in self.channels:
            if name not in MODEL_NAMES:
                raise ValueError(f"unknown channel {name!r}")
        for name in self.mods:
            if name not in SCHEME_NAMES:
                raise ValueError(f"unknown modulation {name!r}")
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks must be positive, got {self.n_blocks}")
        if self.ccdf_blocks < OOBE_MIN_BLOCKS:
            raise ValueError(f"ccdf_blocks must be >= {OOBE_MIN_BLOCKS}, got {self.ccdf_blocks}")
        if self.oobe_blocks < OOBE_MIN_BLOCKS:
            raise ValueError(
                f"oobe_blocks must be >= {OOBE_MIN_BLOCKS}, got {self.oobe_blocks}"
            )
        # the OOBE is measured on the first CCDF chunk
        oobe_max = min(self.ccdf_blocks, CCDF_CHUNK)
        if self.oobe_blocks > oobe_max:
            raise ValueError(f"oobe_blocks must be <= min(ccdf_blocks, {CCDF_CHUNK}) = "
                             f"{oobe_max}, got {self.oobe_blocks}")
        if not 0.0 < self.rrc_rolloff <= 1.0:
            raise ValueError(f"rrc_rolloff must be in (0, 1], got {self.rrc_rolloff}")
        if not np.isfinite(self.rician_k_db):
            raise ValueError(f"rician_k_db must be finite, got {self.rician_k_db}")
        if not np.all(np.isfinite(self.snr_db)):
            raise ValueError(f"snr_db must hold finite values, got {list(self.snr_db)}")
        if not np.isfinite(self.ccdf_snr_db):
            raise ValueError(f"ccdf_snr_db must be finite, got {self.ccdf_snr_db}")


@dataclass
class CellResult:
    scheme: str
    channel: str
    mod: str
    snr_db: float
    ser: float
    ser_total: int
    mean_papr_db: float


@dataclass
class EvalResult:
    schemes: tuple[str, ...]
    ccdf: dict  # scheme -> np.ndarray over CCDF_GRID_DB
    papr_samples: dict  # scheme -> np.ndarray (ccdf cell)
    oobe: dict  # scheme -> float
    cells: list[CellResult]
    summary: dict


@dataclass(frozen=True)
class Transmit:
    """One scheme's transmit side for a batch of blocks."""

    cfg: ChainConfig  # chain layout the scheme runs on
    bins: np.ndarray  # occupied bins, one row per block
    taps: np.ndarray  # effective receiver taps, broadcast against ``bins``
    symbols: np.ndarray  # reference data symbols
    papr: np.ndarray | None = None  # waveform PAPR per block, if already measured

    def waveform_papr(self) -> np.ndarray:
        """PAPR per block of the oversampled waveform, synthesized only if unknown."""
        return self.papr if self.papr is not None else waveform_papr_db(self.bins, self.cfg)


class _SchemeEngine:
    """Per-scheme transmit on blocks drawn once per (seed, mod, index)."""

    def __init__(self, cfg: ChainConfig, eval_cfg: EvalConfig,
                 checkpoint: Checkpoint | None):
        self.cfg = cfg
        self.conv = conventional_config(cfg)
        self.eval_cfg = eval_cfg
        self.net = (
            None if checkpoint is None
            else checkpoint.deployed_net(eval_cfg.use_quantized)
        )
        self.rrc_fdss_taps = rrc_taps(cfg.n_sk, eval_cfg.rrc_rolloff)
        self.unit = unit_taps(self.conv.n_sk)
        # the FIR runs at the oversampled rate; its occupied-bin gains apply
        # to any synthesis grid for the same physical subcarriers
        self.fir_gains = fir_bin_gains(
            rrc_fir(RRC_FIR_TAPS, eval_cfg.rrc_rolloff, sps=cfg.oversample), cfg
        )
        self.slm_phases = slm_phase_vectors(eval_cfg.slm, self.conv.n_data)

    def data_symbols(self, mod: str, indices: np.ndarray) -> dict:
        """Blocks for both chain layouts, deterministic per (seed, mod, index).

        When ``dftsofdm`` or ``slm`` is evaluated, ``papr_conv`` holds the
        PAPR of the plain DFT-s-OFDM waveform: ``dftsofdm``'s transmit and
        ``slm``'s identity candidate, measured once for both.
        """
        mod_i = list(SCHEME_NAMES).index(mod)
        scheme = SCHEME_NAMES[mod]
        n_bits = self.conv.n_data * scheme.bits_per_symbol
        bits = np.empty((len(indices), n_bits), dtype=np.int64)
        rngs = block_rngs(self.eval_cfg.seed, Stream.EVAL_DATA, mod_i, indices=indices)
        for row, rng in enumerate(rngs):
            bits[row] = rng.integers(0, 2, n_bits)
        sym_conv = map_symbols(bits, scheme)
        sym_ext = sym_conv[:, : self.cfg.n_data]
        data = {
            "sym_ext": sym_ext,
            "s_ext": extend(precode(sym_ext), self.cfg.n_se),
            "sym_conv": sym_conv,
            "s_conv": precode(sym_conv),
        }
        if not {"dftsofdm", "slm"}.isdisjoint(self.eval_cfg.schemes):
            data["papr_conv"] = waveform_papr_db(data["s_conv"], self.conv)
        return data

    def transmit(self, scheme: str, data: dict, snr_db: float) -> Transmit:
        """Occupied bins, effective receiver taps and reference symbols."""
        if scheme == "tinyml":
            if self.net is None:
                raise ValueError("tinyml scheme requires a checkpoint")
            bins, eff = adaptation_cycle(snr_db, self.net, data["s_ext"])
            return Transmit(self.cfg, bins, eff, data["sym_ext"])
        if scheme == "rrc_fdss":
            bins, eff, _ = shape_and_normalize(data["s_ext"], self.rrc_fdss_taps)
            return Transmit(self.cfg, bins, eff, data["sym_ext"])
        conv, s, sym = self.conv, data["s_conv"], data["sym_conv"]
        if scheme == "dftsofdm":
            return Transmit(conv, s, self.unit, sym, data.get("papr_conv"))
        if scheme == "rrc":
            bins, eff, _ = shape_and_normalize(s, self.fir_gains)
            return Transmit(conv, bins, eff, sym)
        if scheme == "clf":
            return Transmit(conv, clf_reduce(s, self.eval_cfg.clf, conv), self.unit, sym)
        if scheme == "slm":
            idx, papr = slm_select(s, self.slm_phases, conv, identity_papr=data.get("papr_conv"))
            taps = self.slm_phases[idx]
            return Transmit(conv, s * taps, taps, sym, papr)
        raise ValueError(f"unknown scheme {scheme!r}")


def _cell_draws(eval_cfg: EvalConfig, channel_name: str, mod: str, snr_i: int,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """One (channel, mod, SNR) cell's fade and unit noise on n bins per block.

    Block ``idx`` draws from ``block_rng(seed, Stream.EVAL_CHANNEL, channel,
    mod, SNR, idx)``, the cell's generators seeded in one pass
    (``block_rngs``); fades have shape (n_blocks, 1) to broadcast over the block.
    """
    channel = ChannelCfg(MODEL_NAMES[channel_name], eval_cfg.snr_db[snr_i],
                         k_factor_db=eval_cfg.rician_k_db)
    h = np.empty((eval_cfg.n_blocks, 1), dtype=np.complex128)
    parts = np.empty((eval_cfg.n_blocks, 2, n))
    rngs = block_rngs(eval_cfg.seed, Stream.EVAL_CHANNEL, list(MODEL_NAMES).index(channel_name),
                      list(SCHEME_NAMES).index(mod), snr_i, indices=range(eval_cfg.n_blocks))
    for idx, rng in enumerate(rngs):
        h[idx] = draw_channel(channel, rng, parts[idx])
    return h, unit_noise(parts)


def _grid(engine: _SchemeEngine) -> list[CellResult]:
    """Every (scheme, channel, mod, SNR) cell, listed in that order.

    Per modulation the blocks are drawn once and every scheme transmits once
    (``tinyml`` once per SNR, since its taps depend on it); per (channel,
    SNR) the fades and noise are drawn once and every scheme's transmit
    passes through them.
    """
    eval_cfg = engine.eval_cfg
    cells = {}
    for mod in eval_cfg.mods:
        sent = {}  # scheme -> (transmit, its mean PAPR)
        data = engine.data_symbols(mod, np.arange(eval_cfg.n_blocks))
        for snr_i, snr_db in enumerate(eval_cfg.snr_db):
            for scheme in eval_cfg.schemes:
                if snr_i == 0 or scheme == "tinyml":
                    tx = engine.transmit(scheme, data, snr_db)
                    sent[scheme] = tx, float(tx.waveform_papr().mean())
            for channel_name in eval_cfg.channels:
                h, noise = _cell_draws(eval_cfg, channel_name, mod, snr_i, engine.cfg.n_sk)
                for scheme, (tx, mean_papr) in sent.items():
                    rx = add_channel(tx.bins, h, noise, snr_db)
                    detected, _ = receive(rx, h * tx.taps, tx.cfg.n_se, SCHEME_NAMES[mod])
                    ser, _, total = measured_ser(tx.symbols, detected)
                    cells[scheme, channel_name, mod, snr_db] = CellResult(
                        scheme=scheme, channel=channel_name, mod=mod, snr_db=snr_db,
                        ser=ser, ser_total=total, mean_papr_db=mean_papr,
                    )
    return [cells[key] for key in product(eval_cfg.schemes, eval_cfg.channels,
                                          eval_cfg.mods, eval_cfg.snr_db)]


def _ccdf_pass(engine: _SchemeEngine) -> tuple[dict, dict]:
    """Noise-free PAPR samples and OOBE per scheme for the CCDF figure.

    Each chunk of blocks is drawn once and run through every scheme; the
    chunking bounds memory.  Waveforms are synthesized one tile of a chunk at
    a time, and in full only for the first chunk's OOBE blocks.  No waveform
    is synthesized twice for its PAPR: the ``slm`` samples are the running
    minimum ``slm_select`` keeps while choosing, and its identity candidate
    is the plain waveform whose PAPR the chunk measures once, for
    ``dftsofdm`` too (``papr_conv``).  Only one chunk's blocks and one
    scheme's transmit are held at a time.
    """
    eval_cfg = engine.eval_cfg
    samples = {scheme: np.empty(eval_cfg.ccdf_blocks) for scheme in eval_cfg.schemes}
    oobe = {}
    for lo in range(0, eval_cfg.ccdf_blocks, CCDF_CHUNK):
        indices = np.arange(lo, min(lo + CCDF_CHUNK, eval_cfg.ccdf_blocks))
        data = engine.data_symbols(eval_cfg.mods[0], indices)
        for scheme in eval_cfg.schemes:
            tx = engine.transmit(scheme, data, eval_cfg.ccdf_snr_db)
            samples[scheme][indices] = tx.waveform_papr()
            if lo == 0:
                x4 = time_signal(tx.bins[: eval_cfg.oobe_blocks], tx.cfg)
                oobe[scheme] = float(oobe_db(x4, tx.cfg))
            del tx  # free this scheme's bins before the next scheme transmits
        del data  # and this chunk's blocks before the next chunk is drawn
    return samples, oobe


def evaluate(
    checkpoint: Checkpoint | None, eval_cfg: EvalConfig, chain_cfg: ChainConfig
) -> EvalResult:
    """Full evaluation: the CCDF pass, then the grid (:func:`_grid`), whose
    cells are listed in (scheme, channel, mod, SNR) order."""
    engine = _SchemeEngine(chain_cfg, eval_cfg, checkpoint)
    schemes = eval_cfg.schemes

    papr_samples, oobe = _ccdf_pass(engine)
    ccdf = {scheme: empirical_ccdf(papr_samples[scheme], CCDF_GRID_DB) for scheme in schemes}
    cells = _grid(engine)

    summary = {}
    rrc_anchor = None
    if "rrc" in schemes:
        rrc_anchor = papr_at_ccdf(papr_samples["rrc"], 1e-3)
    for scheme in schemes:
        at_1e3 = papr_at_ccdf(papr_samples[scheme], 1e-3)
        entry = {"papr_at_ccdf_1e3_db": at_1e3, "mean_papr_db": float(papr_samples[scheme].mean()),
                 "oobe_db": oobe[scheme]}
        if rrc_anchor is not None:
            entry["delta_vs_rrc_db"] = at_1e3 - rrc_anchor
        summary[scheme] = entry

    return EvalResult(
        schemes=schemes, ccdf=ccdf,
        papr_samples=papr_samples, oobe=oobe, cells=cells, summary=summary,
    )
