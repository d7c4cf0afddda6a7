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
paired Monte-Carlo can apply one block's draws to several waveforms;
:func:`pass_channel` is the two in sequence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .chain import ChainConfig, Stage, SymbolBlock

SNR_CAP_DB = 60.0  # reported when the residual is exactly zero


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
    k_factor_db: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if np.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")
        if self.model is ChannelModel.RICIAN and not np.isfinite(self.k_factor_db):
            raise ValueError("Rician channel requires a finite K-factor")

    @property
    def k_linear(self) -> float:
        return float(10.0 ** (self.k_factor_db / 10.0))


def draw_fade(model: ChannelModel, rng: np.random.Generator, k_linear: float = 2.0) -> complex:
    """One unit-power flat fading coefficient; AWGN returns exactly 1."""
    if model is ChannelModel.AWGN:
        return 1.0 + 0.0j
    scatter = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
    if model is ChannelModel.RAYLEIGH:
        return complex(scatter)
    los = np.sqrt(k_linear / (k_linear + 1.0))
    return complex(los + scatter * np.sqrt(1.0 / (k_linear + 1.0)))


def noise_power(
    signal: np.ndarray, snr_db: float, chain_cfg: ChainConfig
) -> float | np.ndarray:
    """Per-sample noise power for the occupied-subcarrier SNR convention.

    One power per block (last axis); a single 1-D block gives a float.
    """
    scale = 0.0 if snr_db == np.inf else 10.0 ** (-snr_db / 10.0)
    occupied_power = np.mean(np.abs(signal) ** 2, axis=-1) * chain_cfg.n_fft / chain_cfg.n_sk
    return occupied_power * scale


def draw_channel(
    cfg: ChannelCfg, n: int, rng: np.random.Generator
) -> tuple[complex, np.ndarray | None]:
    """One block's draws: the fade, then unit complex noise of length ``n``.

    The noise is ``re + 1j*im`` with standard-normal parts drawn real first;
    at +inf SNR none is drawn and ``None`` is returned in its place.
    """
    h = draw_fade(cfg.model, rng, cfg.k_linear)
    if cfg.snr_db == np.inf:
        return h, None
    return h, rng.standard_normal(n) + 1j * rng.standard_normal(n)


def add_channel(
    x: np.ndarray,
    h: complex | np.ndarray,
    noise: np.ndarray | None,
    snr_db: float,
    chain_cfg: ChainConfig,
) -> np.ndarray:
    """``h*x + sqrt(sigma2/2)*noise``, with sigma2 from each block's own power.

    ``x`` is one block or a batch of blocks along the leading axes; ``h``
    broadcasts against it (one fade per block: shape ``(..., 1)``).
    """
    if noise is None:
        return h * x
    sigma = np.sqrt(noise_power(x, snr_db, chain_cfg) / 2.0)
    return h * x + sigma[..., None] * noise


def pass_channel(
    x: np.ndarray,
    cfg: ChannelCfg,
    chain_cfg: ChainConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, complex]:
    """Fade and noise for one time-domain block; returns (h*x + w, h)."""
    h, noise = draw_channel(cfg, x.shape[-1], rng)
    return add_channel(x, h, noise, cfg.snr_db, chain_cfg), h


def apply_channel(
    signal: SymbolBlock,
    cfg: ChannelCfg,
    chain_cfg: ChainConfig,
    rng: np.random.Generator | None = None,
) -> tuple[SymbolBlock, complex]:
    """Pass one time-domain block through the channel; returns (received, fade).

    The fade coefficient is returned for genie-aided compensation at the
    receiver.  When ``rng`` is omitted a fresh generator is seeded from
    ``cfg.seed``; Monte-Carlo loops should pass per-block generators seeded
    from (master_seed, block_index).
    """
    if signal.stage is not Stage.TIME_DOMAIN:
        raise ValueError(f"expected TIME_DOMAIN block, got {signal.stage.name}")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    rx, h = pass_channel(signal.values, cfg, chain_cfg, rng)
    return SymbolBlock(Stage.RECEIVED, rx), h


def estimate_snr(
    rx_blocks: list[np.ndarray],
    truth_blocks: list[np.ndarray],
    chain_cfg: ChainConfig,
    cap_db: float = SNR_CAP_DB,
) -> float:
    """Empirical SNR (dB) from received blocks and their noiseless references.

    Uses the same occupied-subcarrier convention as :func:`apply_channel`:
    10*log10(occupied signal power / per-sample residual power).  A zero
    residual returns ``cap_db``.
    """
    if len(rx_blocks) == 0 or len(rx_blocks) != len(truth_blocks):
        raise ValueError("need at least one (received, truth) block pair")
    sig = 0.0
    res = 0.0
    count = 0
    for rx, truth in zip(rx_blocks, truth_blocks):
        rx = np.asarray(rx)
        truth = np.asarray(truth)
        if rx.shape != truth.shape:
            raise ValueError("received/truth shape mismatch")
        sig += float(np.sum(np.abs(truth) ** 2))
        res += float(np.sum(np.abs(rx - truth) ** 2))
        count += truth.size
    occupied = (sig / count) * chain_cfg.n_fft / chain_cfg.n_sk
    if res == 0.0:
        return cap_db
    return min(cap_db, 10.0 * np.log10(occupied / (res / count)))
