"""Frozen-checkpoint Monte-Carlo evaluation across channels, SNRs, and schemes.

Schemes
-------
``tinyml``    learned taps on the spectrum-extended chain (quantized twin by
              default), transmit power normalized per block
``rrc_fdss``  static root-raised-cosine frequency-domain profile on the same
              extended chain (informative extra column)
``dftsofdm``  conventional DFT-s-OFDM: every subcarrier carries data, no
              extension, flat spectrum
``rrc``       conventional chain through the classic truncated time-domain
              RRC transmit filter (expressed as complex per-bin gains)
``clf``       clipping-and-filtering on the conventional chain
``slm``       selective mapping on the conventional chain (genie side info)

Pairing is structural.  The CCDF pass draws each chunk of blocks once and
runs every scheme on it.  The grid draws each modulation's blocks once and
each block's fade and unit noise once per (channel, modulation, SNR), from a
generator seeded by (seed, channel, modulation, SNR, block index), and
applies those same draws to every scheme.  A scheme transmits once per
modulation, or once per (modulation, SNR) for ``tinyml``, whose taps depend
on the SNR, and that one waveform passes through every channel.  So every
scheme sees the same data, fades and noise at matched SNR, and every channel
the same transmit.  PAPR is measured on the oversampled transmit waveform;
the communication path runs at critical sampling where the configured SNR is
exact per occupied bin.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import network
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
    detect_symbols,
    equalize,
    extend,
    map_symbols,
    occupied_bins,
    precode,
    shape_and_normalize,
    time_signal,
)
from .channel import MODEL_NAMES, ChannelCfg, add_channel, draw_channel
from .filters import rrc_taps, taps_from_coeffs, unit_taps
from .metrics import empirical_ccdf, measured_ser, oobe_db, papr_at_ccdf, papr_db
from .training import Checkpoint

ALLSCHEME_NAMES = ("tinyml", "rrc", "dftsofdm", "clf", "slm", "rrc_fdss")
BASELINESCHEME_NAMES = ("rrc", "dftsofdm", "clf", "slm")
RRC_FIR_TAPS = 32
CCDF_CHUNK = 2048  # blocks per CCDF chunk, bounds peak memory


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation grid and Monte-Carlo sizes."""

    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    channels: tuple[str, ...] = ("awgn",)
    mods: tuple[str, ...] = ("qpsk",)
    n_blocks: int = 500
    ccdf_blocks: int = 20_000
    ccdf_snr_db: float = 15.0
    ccdf_grid_db: tuple[float, float, float] = (0.0, 12.0, 0.1)
    papr_trace_blocks: int = 1000
    oobe_blocks: int = 64
    rrc_rolloff: float = 0.25
    rician_k_db: float = 3.0
    use_quantized: bool = True
    schemes: tuple[str, ...] = ("tinyml", "rrc", "dftsofdm", "clf", "slm")
    clf: ClfConfig = field(default_factory=ClfConfig)
    slm: SlmConfig = field(default_factory=SlmConfig)
    seed: int = 0

    def __post_init__(self):
        for name in self.schemes:
            if name not in ALLSCHEME_NAMES:
                raise ValueError(f"unknown scheme {name!r}")
        for name in self.channels:
            if name not in MODEL_NAMES:
                raise ValueError(f"unknown channel {name!r}")
        for name in self.mods:
            if name not in SCHEME_NAMES:
                raise ValueError(f"unknown modulation {name!r}")
        if self.n_blocks < 1 or self.ccdf_blocks < 1:
            raise ValueError("block counts must be positive")
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
    ccdf_grid_db: np.ndarray
    ccdf: dict  # scheme -> np.ndarray
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
    derot: np.ndarray | None = None  # per-bin SLM phases (genie side info)


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
        """Blocks for both chain layouts, deterministic per (seed, mod, index)."""
        mod_i = list(SCHEME_NAMES).index(mod)
        scheme = SCHEME_NAMES[mod]
        bps = scheme.bits_per_symbol
        sym_ext = np.empty((len(indices), self.cfg.n_data), dtype=np.complex128)
        sym_conv = np.empty((len(indices), self.conv.n_data), dtype=np.complex128)
        for row, idx in enumerate(indices):
            rng = np.random.default_rng((self.eval_cfg.seed, 30, mod_i, int(idx)))
            bits = rng.integers(0, 2, self.conv.n_data * bps)
            full = map_symbols(bits, scheme)
            sym_conv[row] = full
            sym_ext[row] = full[: self.cfg.n_data]
        return {
            "sym_ext": sym_ext,
            "s_ext": extend(precode(sym_ext), self.cfg.n_se),
            "sym_conv": sym_conv,
            "s_conv": precode(sym_conv),
        }

    def transmit(self, scheme: str, data: dict, snr_db: float) -> Transmit:
        """Occupied bins, effective receiver taps and reference symbols."""
        if scheme in ("tinyml", "rrc_fdss"):
            s_ext = data["s_ext"]
            if scheme == "tinyml":
                if self.net is None:
                    raise ValueError("tinyml scheme requires a checkpoint")
                feats = network.build_input(
                    s_ext, np.full(s_ext.shape[0], snr_db), expected_len=self.cfg.n_sk
                )
                coeffs = network.predict_coeffs(self.net, feats)
                taps = taps_from_coeffs(coeffs, self.cfg.n_sk)
            else:
                taps = self.rrc_fdss_taps
            bins, eff, _ = shape_and_normalize(s_ext, taps)
            return Transmit(self.cfg, bins, eff, data["sym_ext"])
        conv, s, sym = self.conv, data["s_conv"], data["sym_conv"]
        if scheme == "dftsofdm":
            return Transmit(conv, s, self.unit, sym)
        if scheme == "rrc":
            bins, eff, _ = shape_and_normalize(s, self.fir_gains)
            return Transmit(conv, bins, eff, sym)
        if scheme == "clf":
            x = clf_reduce(s, self.eval_cfg.clf, conv)
            return Transmit(conv, occupied_bins(x, conv), self.unit, sym)
        if scheme == "slm":
            x, idx = slm_select(s, self.slm_phases, conv)
            return Transmit(conv, occupied_bins(x, conv), self.unit, sym,
                            self.slm_phases[idx])
        raise ValueError(f"unknown scheme {scheme!r}")


def _draw_channels(eval_cfg: EvalConfig, n: int) -> dict:
    """Each block's fade and unit noise per (channel, mod, SNR), for every scheme.

    Block ``idx`` draws from the generator seeded by (seed, channel, mod,
    SNR, idx); fades have shape (n_blocks, 1) to broadcast over the block.
    """
    draws = {}
    for channel_name, mod, (snr_i, snr_db) in product(
        eval_cfg.channels, eval_cfg.mods, enumerate(eval_cfg.snr_db)
    ):
        channel = ChannelCfg(MODEL_NAMES[channel_name], snr_db,
                             k_factor_db=eval_cfg.rician_k_db)
        chan_i = list(MODEL_NAMES).index(channel_name)
        mod_i = list(SCHEME_NAMES).index(mod)
        h = np.empty((eval_cfg.n_blocks, 1), dtype=np.complex128)
        noise = np.empty((eval_cfg.n_blocks, n), dtype=np.complex128)
        for idx in range(eval_cfg.n_blocks):
            rng = np.random.default_rng((eval_cfg.seed, 31, chan_i, mod_i, snr_i, idx))
            h[idx], noise[idx] = draw_channel(channel, n, rng)
        draws[channel_name, mod, snr_i] = (h, noise)
    return draws


def _run_group(
    engine: _SchemeEngine, scheme: str, mod: str, data: dict, draws: dict
) -> dict:
    """One (scheme, modulation) group: every (channel, SNR) cell.

    Only ``tinyml``'s taps depend on the SNR; every other scheme transmits
    once.  Returns the cells keyed by (channel, SNR index).
    """
    eval_cfg = engine.eval_cfg
    cells = {}
    for snr_i, snr_db in enumerate(eval_cfg.snr_db):
        if snr_i == 0 or scheme == "tinyml":
            tx = engine.transmit(scheme, data, snr_db)
            cfg = tx.cfg
            x1 = time_signal(tx.bins, cfg, oversample=1)
            mean_papr = float(papr_db(time_signal(tx.bins, cfg)).mean())
        for channel_name in eval_cfg.channels:
            h, noise = draws[channel_name, mod, snr_i]
            rx = add_channel(x1, h, noise, snr_db, cfg) / h
            equalized = equalize(
                occupied_bins(rx, cfg), tx.taps, cfg.n_se, phase_derotate=tx.derot
            )
            detected = detect_symbols(equalized, SCHEME_NAMES[mod])
            ser, _, total = measured_ser(tx.symbols, detected)
            cells[channel_name, snr_i] = CellResult(
                scheme=scheme, channel=channel_name, mod=mod, snr_db=snr_db,
                ser=ser, ser_total=total, mean_papr_db=mean_papr,
            )
    return cells


def _ccdf_pass(engine: _SchemeEngine) -> tuple[dict, dict]:
    """Noise-free PAPR samples and OOBE per scheme for the CCDF figure.

    Each chunk of blocks is drawn once and run through every scheme; the
    chunking bounds memory.
    """
    eval_cfg = engine.eval_cfg
    samples = {scheme: np.empty(eval_cfg.ccdf_blocks) for scheme in eval_cfg.schemes}
    oobe = {}
    for lo in range(0, eval_cfg.ccdf_blocks, CCDF_CHUNK):
        indices = np.arange(lo, min(lo + CCDF_CHUNK, eval_cfg.ccdf_blocks))
        data = engine.data_symbols(eval_cfg.mods[0], indices)
        for scheme in eval_cfg.schemes:
            tx = engine.transmit(scheme, data, eval_cfg.ccdf_snr_db)
            x4 = time_signal(tx.bins, tx.cfg)
            samples[scheme][indices] = papr_db(x4)
            if lo == 0:
                oobe[scheme] = float(oobe_db(x4[: eval_cfg.oobe_blocks], tx.cfg))
    return samples, oobe


def evaluate(
    checkpoint: Checkpoint | None,
    eval_cfg: EvalConfig,
    chain_cfg: ChainConfig | None = None,
    threads: int = 1,
) -> EvalResult:
    """Full evaluation: the CCDF pass plus the (scheme, channel, mod, SNR) grid.

    ``threads`` parallelizes over independent (scheme, mod) groups; results
    are collected in a fixed order, so the thread count never changes any
    output.
    """
    cfg = chain_cfg if chain_cfg is not None else ChainConfig()
    engine = _SchemeEngine(cfg, eval_cfg, checkpoint)
    schemes = eval_cfg.schemes

    papr_samples, oobe = _ccdf_pass(engine)
    lo, hi, step = eval_cfg.ccdf_grid_db
    grid = np.arange(lo, hi + step / 2, step)
    ccdf = {scheme: empirical_ccdf(papr_samples[scheme], grid) for scheme in schemes}

    indices = np.arange(eval_cfg.n_blocks)
    data = {mod: engine.data_symbols(mod, indices) for mod in eval_cfg.mods}
    draws = _draw_channels(eval_cfg, cfg.n_fft)
    groups = list(product(schemes, eval_cfg.mods))

    def run(group):
        scheme, mod = group
        return _run_group(engine, scheme, mod, data[mod], draws)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            by_group = dict(zip(groups, pool.map(run, groups)))
    else:
        by_group = {group: run(group) for group in groups}
    cells = [
        by_group[scheme, mod][channel_name, snr_i]
        for scheme in schemes
        for channel_name in eval_cfg.channels
        for mod in eval_cfg.mods
        for snr_i in range(len(eval_cfg.snr_db))
    ]

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
        schemes=schemes, ccdf_grid_db=grid, ccdf=ccdf,
        papr_samples=papr_samples, oobe=oobe, cells=cells, summary=summary,
    )
