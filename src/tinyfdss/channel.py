"""Flat-fading and AWGN channel models with deterministic seeding.

SNR convention: the configured SNR is the ratio of average occupied-subcarrier
signal power to noise power per subcarrier, as in DFT-s-OFDM/SC-FDMA.  The
channel acts on the n_sk occupied bins, so the noise is in-band only, and
:func:`noise_power` is the one rule that turns an SNR into noise: every
symbol-error path (training's fixed noise, eval's grid, adapt's ticks and the
single-block boundary) takes its noise from :func:`noise_term`.

Fading is flat per block: a single coefficient h with E[|h|^2] = 1 multiplies
the whole block, and the receiver compensates it genie-aided.  Draw order per
block is fixed (fade first, then noise) so that a given (config, seed)
reproduces bit-identical sequences.  Drawing (:func:`draw_channel`) is
separate from applying (:func:`add_channel`), so a paired Monte-Carlo can
apply one block's draws to several transmits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .chain import ChainConfig, Stage, SymbolBlock, occupied_bins, time_signal

RICIAN_K_DB = 3.0  # Rician K-factor of every run's training and evaluation


class Stream(enum.IntEnum):
    """Tag of each random stream; every generator comes from :func:`block_rng`.

    A block is a pure function of (seed, stream, index...), so the values
    are part of every output.
    """

    TRAIN_BLOCK = 0  # training block: mod, SNR, channel model, bits, fade, noise
    INIT = 1  # initial network weights
    EPOCH_ORDER = 2  # per-epoch permutation of the training blocks
    ADAPT_TICK = 4  # adapt tick: bits, then fade and noise
    SLM_PHASES = 5  # SLM candidate phase vectors
    EVAL_DATA = 30  # eval bits per (modulation, block)
    EVAL_CHANNEL = 31  # eval fade and noise per (channel, mod, SNR, block)


def block_rng(seed: int, stream: Stream, *index: int) -> np.random.Generator:
    """The generator of one (seed, stream, index...) coordinate."""
    return np.random.default_rng((seed, stream, *index))


class ChannelModel(enum.Enum):
    AWGN = "awgn"
    RAYLEIGH = "rayleigh"
    RICIAN = "rician"


MODEL_NAMES = {"awgn": ChannelModel.AWGN, "rayleigh": ChannelModel.RAYLEIGH,
               "rician": ChannelModel.RICIAN}


@dataclass(frozen=True)
class ChannelCfg:
    """Channel selector plus SNR and the Rician K-factor in dB."""

    model: ChannelModel = ChannelModel.AWGN
    snr_db: float = 10.0
    k_factor_db: float = RICIAN_K_DB

    def __post_init__(self):
        if not np.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")
        if self.model is ChannelModel.RICIAN and not np.isfinite(self.k_factor_db):
            raise ValueError("Rician channel requires a finite K-factor")

    @property
    def k_linear(self) -> float:
        return float(10.0 ** (self.k_factor_db / 10.0))


def draw_fade(model: ChannelModel, rng: np.random.Generator, k_linear: float) -> complex:
    """One unit-power flat fading coefficient; AWGN returns exactly 1."""
    if model is ChannelModel.AWGN:
        return 1.0 + 0.0j
    scatter = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
    if model is ChannelModel.RAYLEIGH:
        return complex(scatter)
    los = np.sqrt(k_linear / (k_linear + 1.0))
    return complex(los + scatter * np.sqrt(1.0 / (k_linear + 1.0)))


def noise_power(bins: np.ndarray, snr_db: float | np.ndarray) -> float | np.ndarray:
    """Noise power per occupied bin: ``mean|bins|^2 * 10**(-snr/10)``.

    One power per block (last axis); a single 1-D block gives a float.
    ``snr_db`` is one SNR for every block or one per block.
    """
    # Python's float pow per SNR: numpy's vectorized power may differ in the
    # last bit, and a block's noise must not depend on the batch it is in
    scale = [10.0 ** (-snr / 10.0) for snr in np.ravel(snr_db).tolist()]
    return np.mean(np.abs(bins) ** 2, axis=-1) * np.reshape(scale, np.shape(snr_db))


def draw_channel(
    cfg: ChannelCfg, n: int, rng: np.random.Generator
) -> tuple[complex, np.ndarray]:
    """One block's draws: the fade, then unit complex noise of length ``n``."""
    h = draw_fade(cfg.model, rng, cfg.k_linear)
    return h, unit_noise(rng.standard_normal((2, n)))


def unit_noise(parts: np.ndarray) -> np.ndarray:
    """Unit complex noise ``re + 1j*im`` from standard-normal parts of shape
    ``(..., 2, n)``, drawn real first: ``parts[..., 0, :]`` is ``re``."""
    return parts[..., 0, :] + 1j * parts[..., 1, :]


def noise_term(bins: np.ndarray, noise: np.ndarray, snr_db: float | np.ndarray) -> np.ndarray:
    """``sqrt(sigma2/2)*noise``, with sigma2 = :func:`noise_power` of each block.

    ``bins`` is one block or a batch of blocks along the leading axes, and
    ``noise`` unit complex noise of the same shape.
    """
    return np.sqrt(noise_power(bins, snr_db) / 2.0)[..., None] * noise


def add_channel(
    bins: np.ndarray, h: complex | np.ndarray, noise: np.ndarray, snr_db: float | np.ndarray
) -> np.ndarray:
    """``h*bins + noise_term(bins, noise, snr_db)`` on the occupied bins.

    ``h`` broadcasts against ``bins`` (one fade per block: shape ``(..., 1)``),
    and ``snr_db`` is one SNR for every block or one per block.
    """
    return h * bins + noise_term(bins, noise, snr_db)


def apply_channel(
    signal: SymbolBlock,
    cfg: ChannelCfg,
    chain_cfg: ChainConfig,
    rng: np.random.Generator,
) -> tuple[SymbolBlock, complex]:
    """Pass one time-domain block through the channel; returns (received, fade).

    The block's occupied bins go through :func:`add_channel`, and the received
    bins are synthesized again at the block's own oversampling, so the
    received noise is in-band only and each occupied bin sees the configured
    SNR at any oversampling.  The fade coefficient is returned for
    genie-aided compensation at the receiver.  Monte-Carlo loops pass one
    generator per block, from :func:`block_rng` with a :class:`Stream` member
    and the block index.
    """
    if signal.stage is not Stage.TIME_DOMAIN:
        raise ValueError(f"expected TIME_DOMAIN block, got {signal.stage.name}")
    bins = occupied_bins(signal.values, chain_cfg)
    h, noise = draw_channel(cfg, chain_cfg.n_sk, rng)
    rx = time_signal(add_channel(bins, h, noise, cfg.snr_db), chain_cfg,
                     len(signal) // chain_cfg.n_fft)
    return SymbolBlock(Stage.RECEIVED, rx), h
