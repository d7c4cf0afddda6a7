"""Frozen-checkpoint Monte-Carlo evaluation across channels, SNRs, and schemes.

Each scheme is one :data:`SCHEMES` entry: a builder that turns (chain
config, eval config, deployed net or None) into its transmit rule, and a
flag saying whether that rule reads the SNR.  All schemes share one draw of
the data (:class:`Draw`, both layouts) and, per (channel, modulation, SNR)
cell, one draw of the fades and noise (:func:`_cell_draws`).  PAPR is
measured on the oversampled transmit waveform; the link acts on the
occupied bins, where ``channel.noise_power`` makes the SNR exact per bin.

One walk (:func:`_walk`) goes over each modulation's blocks once, in chunks
of :data:`CHUNK_BLOCKS`: a chunk gives the CCDF pass's noise-free PAPR
samples and the SER grid's cells from one draw, and the OOBE periodogram is
a running sum over the CCDF chunks, so memory does not grow with
``n_blocks``, ``ccdf_blocks`` or ``oobe_blocks``.  Every step of the link
acts on each block alone, so the chunk size changes no output.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, product

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
    precode,
    receive,
    shape_and_normalize,
)
from .channel import (MODEL_NAMES, RICIAN_K_DB, ChannelCfg, Stream, add_channel, block_rngs,
                      check_decibels, draw_blocks)
from .filters import rrc_taps, unit_taps
from .metrics import (
    OOBE_MIN_BLOCKS,
    Periodogram,
    Synthesis,
    empirical_ccdf,
    measured_ser,
    papr_at_ccdf,
    synthesize,
    waveform_papr_db,
)
from .training import Checkpoint

RRC_FIR_TAPS = 32
CHUNK_BLOCKS = 128  # blocks per chunk of eval's walk: bounds its peak memory
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
        for key, noun, known in (("schemes", "scheme", SCHEMES),
                                 ("channels", "channel", MODEL_NAMES),
                                 ("mods", "modulation", SCHEME_NAMES)):
            for name in getattr(self, key):
                if name not in known:
                    raise ValueError(f"unknown {noun} {name!r}")
        if self.n_blocks < 1:
            raise ValueError(f"n_blocks must be positive, got {self.n_blocks}")
        if self.ccdf_blocks < OOBE_MIN_BLOCKS:
            raise ValueError(f"ccdf_blocks must be >= {OOBE_MIN_BLOCKS}, got {self.ccdf_blocks}")
        if self.oobe_blocks < OOBE_MIN_BLOCKS:
            raise ValueError(
                f"oobe_blocks must be >= {OOBE_MIN_BLOCKS}, got {self.oobe_blocks}"
            )
        if self.oobe_blocks > self.ccdf_blocks:
            raise ValueError(f"oobe_blocks must be <= ccdf_blocks = {self.ccdf_blocks}, "
                             f"got {self.oobe_blocks}")
        if not 0.0 < self.rrc_rolloff <= 1.0:
            raise ValueError(f"rrc_rolloff must be in (0, 1], got {self.rrc_rolloff}")
        check_decibels("rician_k_db", self.rician_k_db, 10)
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

    @cached_property
    def waveform_papr(self) -> np.ndarray:
        """PAPR per block of the oversampled waveform, synthesized once if unknown."""
        return self.papr if self.papr is not None else waveform_papr_db(self.bins, self.cfg)


@dataclass(frozen=True)
class Draw:
    """Blocks in both layouts, sent plain; ``ext`` carries ``conv``'s first n_data symbols."""

    ext: Transmit
    conv: Transmit

    @cached_property
    def plain(self) -> Synthesis:
        """``conv``'s single-precision synthesis, made once per draw: ``dftsofdm``'s
        PAPR, ``slm``'s identity candidate and ``clf``'s first round."""
        return synthesize(self.conv.bins, self.conv.cfg)


def _chunks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The indices ``lo .. hi - 1`` in chunks of :data:`CHUNK_BLOCKS`, the last one partial."""
    for start in range(lo, hi, CHUNK_BLOCKS):
        yield np.arange(start, min(start + CHUNK_BLOCKS, hi))


def _draw(cfg: ChainConfig, seed: int, mod: str, indices: np.ndarray) -> Draw:
    """Blocks ``indices`` of ``mod`` from the stream ``EVAL_DATA``."""
    conv = conventional_config(cfg)
    scheme = SCHEME_NAMES[mod]
    rngs = block_rngs(seed, Stream.EVAL_DATA, list(SCHEME_NAMES).index(mod), indices=indices)
    sym_conv, _, _ = draw_blocks(rngs, len(indices), conv.n_data, 0, lambda rng: (scheme, None))
    sym_ext = sym_conv[:, : cfg.n_data]
    return Draw(Transmit(cfg, extend(precode(sym_ext), cfg.n_se), unit_taps(cfg.n_sk), sym_ext),
                Transmit(conv, precode(sym_conv), unit_taps(conv.n_sk), sym_conv))


Rule = Callable[[Draw, float], Transmit]  # (draw, SNR in dB) -> one scheme's transmit


def _shaped(plain: Transmit, bins: np.ndarray, eff_taps: np.ndarray, *_) -> Transmit:
    """``plain``'s blocks sent as ``bins`` and equalized with ``eff_taps``; extras unused."""
    return replace(plain, bins=bins, taps=eff_taps)


def _tinyml(cfg: ChainConfig, eval_cfg: EvalConfig, net) -> Rule:
    """Learned taps on the extended layout, one ``adaptation_cycle`` per batch, as on device."""
    if net is None:
        raise ValueError("tinyml scheme requires a checkpoint")
    return lambda draw, snr_db: _shaped(draw.ext, *adaptation_cycle(snr_db, net, draw.ext.bins))


def _rrc_fdss(cfg: ChainConfig, eval_cfg: EvalConfig, net) -> Rule:
    """Static root-raised-cosine profile on the extended layout."""
    taps = rrc_taps(cfg.n_sk, eval_cfg.rrc_rolloff)
    return lambda draw, snr_db: _shaped(draw.ext, *shape_and_normalize(draw.ext.bins, taps))


def _dftsofdm(cfg: ChainConfig, eval_cfg: EvalConfig, net) -> Rule:
    """Plain DFT-s-OFDM: every subcarrier carries data, flat spectrum."""
    return lambda draw, snr_db: replace(draw.conv, papr=draw.plain.papr)


def _rrc(cfg: ChainConfig, eval_cfg: EvalConfig, net) -> Rule:
    """The classic truncated RRC transmit FIR on the conventional layout, as per-bin gains."""
    gains = fir_bin_gains(rrc_fir(RRC_FIR_TAPS, eval_cfg.rrc_rolloff, sps=cfg.oversample), cfg)
    return lambda draw, snr_db: _shaped(draw.conv, *shape_and_normalize(draw.conv.bins, gains))


def _clf(cfg: ChainConfig, eval_cfg: EvalConfig, net) -> Rule:
    """Clipping and filtering on the conventional layout."""
    return lambda draw, snr_db: replace(
        draw.conv, bins=clf_reduce(draw.plain, eval_cfg.clf, draw.conv.cfg))


def _slm(cfg: ChainConfig, eval_cfg: EvalConfig, net) -> Rule:
    """Selective mapping on the conventional layout; the chosen phases are
    the receiver's taps (genie side information: the index)."""
    phases = slm_phase_vectors(eval_cfg.slm, conventional_config(cfg).n_data)

    def send(draw: Draw, snr_db: float) -> Transmit:
        conv = draw.conv  # phase 0 is the identity: its synthesis is draw.plain
        idx, papr = slm_select(draw.plain, phases, conv.cfg)
        chosen = phases[idx]
        return replace(conv, bins=conv.bins * chosen, taps=chosen, papr=papr)
    return send


@dataclass(frozen=True)
class Scheme:
    build: Callable[[ChainConfig, EvalConfig, object], Rule]  # (chain, eval, net or None)
    reads_snr: bool = False  # whether the rule's transmit depends on the SNR


SCHEMES = {
    "tinyml": Scheme(_tinyml, reads_snr=True),
    "rrc": Scheme(_rrc),
    "dftsofdm": Scheme(_dftsofdm),
    "clf": Scheme(_clf),
    "slm": Scheme(_slm),
    "rrc_fdss": Scheme(_rrc_fdss),
}


def _rules(cfg: ChainConfig, eval_cfg: EvalConfig, net) -> dict[str, Rule]:
    """Each evaluated scheme's transmit rule, in ``eval_cfg.schemes`` order."""
    return {name: SCHEMES[name].build(cfg, eval_cfg, net) for name in eval_cfg.schemes}


def _cell_draws(eval_cfg: EvalConfig, channel_name: str, mod: str, snr_i: int,
                n: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks ``indices`` of one (channel, mod, SNR) cell: fades (B, 1) and unit noise on n bins."""
    channel = ChannelCfg(MODEL_NAMES[channel_name], k_factor_db=eval_cfg.rician_k_db)
    rngs = block_rngs(eval_cfg.seed, Stream.EVAL_CHANNEL, list(MODEL_NAMES).index(channel_name),
                      list(SCHEME_NAMES).index(mod), snr_i, indices=indices)
    return draw_blocks(rngs, len(indices), 0, n, lambda rng: (None, channel))[1:]


def _walk(cfg: ChainConfig, eval_cfg: EvalConfig,
          rules: dict[str, Rule]) -> tuple[dict, dict, list[CellResult]]:
    """Each modulation's blocks, walked once: every scheme's noise-free PAPR
    samples and OOBE for the CCDF figure, and every (scheme, channel, mod,
    SNR) cell of the SER grid, listed in that order.

    A modulation's blocks come in chunks of :data:`CHUNK_BLOCKS`
    (:func:`_chunks`): the grid's first ``n_blocks``, then, for ``mods[0]``,
    those up to ``ccdf_blocks``.  Each chunk is drawn once.  If it holds
    CCDF blocks (the first ``ccdf_blocks`` of ``mods[0]``), every scheme
    transmits it at ``ccdf_snr_db``: those rows give the PAPR samples, and
    the first ``oobe_blocks`` add to each scheme's
    :class:`metrics.Periodogram` in block order.  No waveform is synthesized
    twice: ``Draw.plain`` gives ``dftsofdm``'s PAPR, ``slm``'s identity
    candidate and ``clf``'s first round, and a rule hands over the PAPR it
    measured while choosing (``Transmit.papr``).  A chunk of the grid then
    keeps the CCDF transmit of each rule that does not read the SNR (or
    makes it once) and sends ``tinyml`` once per SNR; per (channel, SNR) its
    fades and noise are drawn once and every scheme's transmit passes
    through them.  A cell adds up its symbol errors over the chunks, and its
    mean PAPR is that of one array filled chunk by chunk.  Only one chunk's
    blocks, transmits and link arrays are held at a time.
    """
    n = eval_cfg.n_blocks
    samples = {scheme: np.empty(eval_cfg.ccdf_blocks) for scheme in rules}
    welch, cells = {}, {}
    for mod in eval_cfg.mods:
        n_ccdf = eval_cfg.ccdf_blocks if mod == eval_cfg.mods[0] else 0
        papr = {(scheme, snr_db): np.empty(n) for scheme in rules for snr_db in eval_cfg.snr_db}
        counts = {key: [0, 0] for key in product(rules, eval_cfg.channels, eval_cfg.snr_db)}
        for indices in chain(_chunks(0, n), _chunks(n, n_ccdf)):
            draw = _draw(cfg, eval_cfg.seed, mod, indices)
            sent = {}  # scheme -> this chunk's transmit at the current SNR
            grid_snrs = eval_cfg.snr_db if indices[0] < n else ()  # none past the grid
            in_ccdf = int(np.count_nonzero(indices < n_ccdf))  # the chunk's first ones
            n_oobe = int(np.count_nonzero(indices < eval_cfg.oobe_blocks))
            for scheme, rule in rules.items() if in_ccdf else ():
                tx = rule(draw, eval_cfg.ccdf_snr_db)
                samples[scheme][indices[:in_ccdf]] = tx.waveform_papr[:in_ccdf]
                welch.setdefault(scheme, Periodogram(tx.cfg)).add_bins(tx.bins[:n_oobe])
                if grid_snrs:  # the grid keeps it; past the grid it is freed
                    sent[scheme] = tx
                del tx  # before the next scheme transmits
            for snr_i, snr_db in enumerate(grid_snrs):
                for scheme, rule in rules.items():
                    if scheme not in sent or SCHEMES[scheme].reads_snr:
                        sent[scheme] = rule(draw, snr_db)
                    papr[scheme, snr_db][indices] = sent[scheme].waveform_papr
                for channel_name in eval_cfg.channels:
                    h, noise = _cell_draws(eval_cfg, channel_name, mod, snr_i, cfg.n_sk, indices)
                    for scheme, tx in sent.items():
                        rx = add_channel(tx.bins, h, noise, snr_db)
                        detected, _ = receive(rx, h * tx.taps, tx.cfg.n_se, SCHEME_NAMES[mod])
                        _, errors, total = measured_ser(tx.symbols, detected)
                        count = counts[scheme, channel_name, snr_db]
                        count[0] += errors  # symbol errors and symbols, as integers
                        count[1] += total
                    del h, noise, tx, rx, detected  # this cell's link arrays
            del draw, sent  # and this chunk's blocks and transmits, before the next draw
        for (scheme, channel_name, snr_db), (errors, total) in counts.items():
            cells[scheme, channel_name, mod, snr_db] = CellResult(
                scheme, channel_name, mod, snr_db, ser=errors / total, ser_total=total,
                mean_papr_db=float(papr[scheme, snr_db].mean()))
    oobe = {scheme: float(welch[scheme].oobe_db()) for scheme in rules}
    return samples, oobe, [cells[key] for key in product(
        eval_cfg.schemes, eval_cfg.channels, eval_cfg.mods, eval_cfg.snr_db)]


def evaluate(
    checkpoint: Checkpoint | None, eval_cfg: EvalConfig, chain_cfg: ChainConfig
) -> EvalResult:
    """Full evaluation: one walk over each modulation's blocks (:func:`_walk`),
    whose cells are listed in (scheme, channel, mod, SNR) order."""
    net = None if checkpoint is None else checkpoint.deployed_net(eval_cfg.use_quantized)
    rules = _rules(chain_cfg, eval_cfg, net)  # a missing checkpoint fails here, before any draw
    schemes = eval_cfg.schemes

    papr_samples, oobe, cells = _walk(chain_cfg, eval_cfg, rules)
    ccdf = {scheme: empirical_ccdf(papr_samples[scheme], CCDF_GRID_DB) for scheme in schemes}

    at_1e3 = {scheme: papr_at_ccdf(papr_samples[scheme], 1e-3) for scheme in schemes}
    summary = {}
    for scheme in schemes:
        summary[scheme] = {"papr_at_ccdf_1e3_db": at_1e3[scheme], "oobe_db": oobe[scheme],
                           "mean_papr_db": float(papr_samples[scheme].mean())}
        if "rrc" in schemes:
            summary[scheme]["delta_vs_rrc_db"] = at_1e3[scheme] - at_1e3["rrc"]

    return EvalResult(
        schemes=schemes, ccdf=ccdf,
        papr_samples=papr_samples, oobe=oobe, cells=cells, summary=summary,
    )
