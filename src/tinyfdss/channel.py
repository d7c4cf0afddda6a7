"""Flat-fading and AWGN channel models with deterministic seeding.

SNR convention: the configured SNR is the ratio of average occupied-subcarrier
signal power to noise power per complex sample.  At critical sampling
(oversample = 1) the post-FFT noise per occupied bin then equals the per-sample
noise power, so the per-bin SNR is exactly the configured value; on an
L-times oversampled grid the receiver discards out-of-band noise and the
per-bin SNR becomes L times larger.  All symbol-error paths in this package
therefore run the channel at critical sampling.

Fading is flat per block: a single coefficient h with E[|h|^2] = 1 multiplies
the whole time-domain vector, and the receiver compensates it genie-aided.
Draw order per block is fixed (fade first, then noise) so that a given
(config, seed) reproduces bit-identical sequences.  Drawing
(:func:`draw_channel`) is separate from applying (:func:`add_channel`), so a
paired Monte-Carlo can apply one block's draws to several waveforms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .chain import ChainConfig, Stage, SymbolBlock

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


def noise_power(
    signal: np.ndarray, snr_db: float | np.ndarray, chain_cfg: ChainConfig
) -> float | np.ndarray:
    """Per-sample noise power for the occupied-subcarrier SNR convention.

    One power per block (last axis); a single 1-D block gives a float.
    ``snr_db`` is one SNR for every block or one per block.
    """
    occupied_power = np.mean(np.abs(signal) ** 2, axis=-1) * chain_cfg.n_fft / chain_cfg.n_sk
    # Python's float pow per SNR: numpy's vectorized power may differ in the
    # last bit, and a block's noise must not depend on the batch it is in
    scale = [10.0 ** (-snr / 10.0) for snr in np.ravel(snr_db).tolist()]
    return occupied_power * np.reshape(scale, np.shape(snr_db))


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


def add_channel(
    x: np.ndarray,
    h: complex | np.ndarray,
    noise: np.ndarray,
    snr_db: float | np.ndarray,
    chain_cfg: ChainConfig,
) -> np.ndarray:
    """``h*x + sqrt(sigma2/2)*noise``, with sigma2 from each block's own power.

    ``x`` is one block or a batch of blocks along the leading axes; ``h``
    broadcasts against it (one fade per block: shape ``(..., 1)``), and
    ``snr_db`` is one SNR for every block or one per block.
    """
    sigma = np.sqrt(noise_power(x, snr_db, chain_cfg) / 2.0)
    return h * x + sigma[..., None] * noise


def apply_channel(
    signal: SymbolBlock,
    cfg: ChannelCfg,
    chain_cfg: ChainConfig,
    rng: np.random.Generator,
) -> tuple[SymbolBlock, complex]:
    """Pass one time-domain block through the channel; returns (received, fade).

    The fade coefficient is returned for genie-aided compensation at the
    receiver.  Monte-Carlo loops pass one generator per block, from
    :func:`block_rng` with a :class:`Stream` member and the block index.
    """
    if signal.stage is not Stage.TIME_DOMAIN:
        raise ValueError(f"expected TIME_DOMAIN block, got {signal.stage.name}")
    h, noise = draw_channel(cfg, len(signal), rng)
    rx = add_channel(signal.values, h, noise, cfg.snr_db, chain_cfg)
    return SymbolBlock(Stage.RECEIVED, rx), h
