"""PAPR, CCDF, symbol error ratio, spectral leakage, and the PAPR-tail surrogate.

Reported PAPR figures are the empirical CCDF and its quantiles.  Training
penalizes the CCDF tail above x0 through a differentiable softplus surrogate
of its hinge form, E[max(0, PAPR - x0)].
"""

from __future__ import annotations

import numpy as np

from .chain import ChainConfig

TAIL_X0_DB = 6.0


def papr_db(signal) -> float | np.ndarray:
    """Peak-to-average power ratio 10*log10(max|s|^2 / mean|s|^2) in dB.

    With leading batch dimensions one PAPR per block is returned.
    """
    x = np.asarray(signal)
    p = np.abs(x) ** 2
    peak = p.max(axis=-1)
    mean = p.mean(axis=-1)
    if np.any(mean == 0.0):
        raise ValueError("PAPR undefined for an all-zero signal")
    out = 10.0 * np.log10(peak / mean)
    return float(out) if np.ndim(out) == 0 else out


def empirical_ccdf(samples: np.ndarray, grid_db: np.ndarray) -> np.ndarray:
    """Pr(PAPR > x) per threshold: fraction of samples strictly greater."""
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if samples.size == 0:
        raise ValueError("need at least one PAPR sample")
    grid_db = np.asarray(grid_db, dtype=np.float64)
    sorted_s = np.sort(samples)
    exceed = samples.size - np.searchsorted(sorted_s, grid_db, side="right")
    return exceed / samples.size


def papr_at_ccdf(samples: np.ndarray, prob: float) -> float:
    """PAPR threshold exceeded with probability ~prob (the (1-prob) quantile)."""
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if samples.size == 0:
        raise ValueError("need at least one PAPR sample")
    if not 0.0 < prob < 1.0:
        raise ValueError(f"prob must be in (0, 1), got {prob}")
    return float(np.quantile(samples, 1.0 - prob))


def surrogate_blocks(
    papr_db_batch: np.ndarray,
    x0_db: float = TAIL_X0_DB,
    sharpness: float = 4.0,
) -> np.ndarray:
    """Per-block softplus tail surrogate softplus_b(PAPR - x0).

    softplus_b(z) = log(1 + exp(b*z))/b approaches max(0, z) as the sharpness
    b grows, so its batch mean approximates E[max(0, PAPR - x0)], the hinge
    form of the CCDF-tail integral.
    """
    if not sharpness > 0.0:
        raise ValueError(f"sharpness must be positive, got {sharpness}")
    z = np.asarray(papr_db_batch, dtype=np.float64) - x0_db
    return np.maximum(z, 0.0) + np.log1p(np.exp(-sharpness * np.abs(z))) / sharpness


def measured_ser(tx_symbols: np.ndarray, detected: np.ndarray) -> tuple[float, int, int]:
    """Symbol error ratio from hard decisions: (ser, errors, total)."""
    tx = np.asarray(tx_symbols)
    det = np.asarray(detected)
    if tx.shape != det.shape:
        raise ValueError(f"length mismatch: {tx.shape} vs {det.shape}")
    errors = int(np.count_nonzero(tx != det))
    total = int(tx.size)
    return errors / total, errors, total


def oobe_db(blocks: np.ndarray, cfg: ChainConfig, pad_factor: int = 4) -> float:
    """Out-of-band emission from a Hann-windowed averaged periodogram, in dB.

    Each block is one Welch segment: windowed, zero-padded by ``pad_factor``
    so leakage between subcarrier bins is resolved, and averaged.  OOBE is
    mean out-of-band PSD over mean in-band PSD.  A block-boundary--free tone
    still leaks through the window's sidelobes, which sets the measurement
    floor (well below -40 dB for the Hann window at this grid size).
    """
    blocks = np.atleast_2d(np.asarray(blocks, dtype=np.complex128))
    if blocks.shape[0] < 10:
        raise ValueError(f"need at least 10 blocks for a stable PSD, got {blocks.shape[0]}")
    n = blocks.shape[-1]
    if n % cfg.n_fft != 0:
        raise ValueError(f"block length {n} not a multiple of n_fft={cfg.n_fft}")
    window = np.hanning(n)
    spec = np.fft.fft(blocks * window, n=n * pad_factor, axis=-1)
    psd = np.mean(np.abs(spec) ** 2, axis=0)
    psd = np.fft.fftshift(psd)
    # occupied band at padded resolution: n_sk original bins, pad_factor each
    center = n * pad_factor // 2
    half = cfg.n_sk * pad_factor // 2
    in_band = np.zeros(n * pad_factor, dtype=bool)
    in_band[center - half : center - half + cfg.n_sk * pad_factor] = True
    mean_in = float(np.mean(psd[in_band]))
    mean_out = float(np.mean(psd[~in_band]))
    if mean_in == 0.0:
        raise ValueError("no in-band power")
    return 10.0 * np.log10(mean_out / mean_in) if mean_out > 0.0 else -np.inf
