"""PAPR, CCDF, symbol error ratio, spectral leakage, and the PAPR-tail surrogate.

Reported PAPR figures are the empirical CCDF and its quantiles.  Training
penalizes the CCDF tail above x0 through a differentiable softplus surrogate
of its hinge form, E[max(0, PAPR - x0)].
"""

from __future__ import annotations

import numpy as np

from .chain import ChainConfig, centered_band, time_signal

TAIL_X0_DB = 6.0
SURROGATE_SHARPNESS = 4.0  # softplus sharpness of the tail surrogate
OOBE_MIN_BLOCKS = 10  # periodogram segments oobe_db averages at the least
OOBE_PAD = 4  # zero-padding factor of each oobe_db periodogram segment
# bytes of one tile's complex128 oversampled grid: a tile stays in a 2 MiB
# per-core L2 instead of mapping and page-faulting a whole batch's grid
TILE_BYTES = 2 << 20


def papr_db(signal) -> float | np.ndarray:
    """Peak-to-average power ratio 10*log10(max|s|^2 / mean|s|^2) in dB.

    With leading batch dimensions one PAPR per block is returned.
    """
    x = np.asarray(signal)
    p = np.abs(x)
    np.square(p, out=p)
    peak = p.max(axis=-1)
    mean = p.mean(axis=-1)
    if np.any(mean == 0.0):
        raise ValueError("PAPR undefined for an all-zero signal")
    out = 10.0 * np.log10(peak / mean)
    return float(out) if np.ndim(out) == 0 else out


def tile_rows(cfg: ChainConfig) -> int:
    """Blocks per tile whose complex128 ``n_fft*oversample`` grid fits ``TILE_BYTES``."""
    return max(1, TILE_BYTES // (16 * cfg.n_fft * cfg.oversample))


def by_tiles(fn, bins: np.ndarray, cfg: ChainConfig) -> np.ndarray:
    """``fn`` on ``tile_rows(cfg)`` rows of ``bins`` (..., n_sk) at a time.

    The leading axes are flattened into rows and restored on the stacked
    results.  Each row's FFT does not depend on the rows beside it, so a
    row-wise ``fn`` gives the same bytes for any tile size.
    """
    bins = np.asarray(bins)
    rows = bins.reshape(-1, bins.shape[-1])
    step = tile_rows(cfg)
    out = np.concatenate([fn(rows[lo: lo + step]) for lo in range(0, len(rows), step)])
    return out.reshape(bins.shape[:-1] + out.shape[1:])


def waveform_papr_db(bins: np.ndarray, cfg: ChainConfig) -> float | np.ndarray:
    """PAPR of the oversampled waveform of occupied bins, synthesized per tile.

    Equal, byte for byte, to ``papr_db(time_signal(bins, cfg))`` without
    holding the whole batch's grid: a float for one block, else one PAPR per
    block over the leading axes.  Each tile's grid is written from the band
    slices and transformed in place by :func:`time_signal`, and ``papr_db``
    squares its magnitudes in place, so a tile costs one grid and one
    magnitude array.
    """
    out = by_tiles(lambda tile: papr_db(time_signal(tile, cfg)), bins, cfg)
    return float(out) if out.ndim == 0 else out


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


def surrogate_blocks(papr_db_batch: np.ndarray) -> np.ndarray:
    """Per-block softplus tail surrogate softplus_b(PAPR - x0), with
    b = ``SURROGATE_SHARPNESS`` and x0 = ``TAIL_X0_DB``.

    softplus_b(z) = log(1 + exp(b*z))/b approaches max(0, z) as the sharpness
    b grows, so its batch mean approximates E[max(0, PAPR - x0)], the hinge
    form of the CCDF-tail integral.  ``training.chain_loss``'s backward reads
    the same two constants.
    """
    b = SURROGATE_SHARPNESS
    z = np.asarray(papr_db_batch, dtype=np.float64) - TAIL_X0_DB
    return np.maximum(z, 0.0) + np.log1p(np.exp(-b * np.abs(z))) / b


def measured_ser(tx_symbols: np.ndarray, detected: np.ndarray) -> tuple[float, int, int]:
    """Symbol error ratio from hard decisions: (ser, errors, total)."""
    tx = np.asarray(tx_symbols)
    det = np.asarray(detected)
    if tx.shape != det.shape:
        raise ValueError(f"length mismatch: {tx.shape} vs {det.shape}")
    errors = int(np.count_nonzero(tx != det))
    total = int(tx.size)
    return errors / total, errors, total


def oobe_db(blocks: np.ndarray, cfg: ChainConfig) -> float:
    """Out-of-band emission from a Hann-windowed averaged periodogram, in dB.

    Each block is one Welch segment: windowed, zero-padded by ``OOBE_PAD``
    so leakage between subcarrier bins is resolved, and averaged.  OOBE is
    mean out-of-band PSD over mean in-band PSD.  A block-boundary--free tone
    still leaks through the window's sidelobes, which sets the measurement
    floor (well below -40 dB for the Hann window at this grid size).
    """
    blocks = np.atleast_2d(np.asarray(blocks, dtype=np.complex128))
    if blocks.shape[0] < OOBE_MIN_BLOCKS:
        raise ValueError(
            f"need at least {OOBE_MIN_BLOCKS} blocks for a stable PSD, got {blocks.shape[0]}"
        )
    n = blocks.shape[-1]
    if n % cfg.n_fft != 0:
        raise ValueError(f"block length {n} not a multiple of n_fft={cfg.n_fft}")
    window = np.hanning(n)
    spec = np.fft.fft(blocks * window, n=n * OOBE_PAD, axis=-1)
    psd = np.mean(np.abs(spec) ** 2, axis=0)
    # occupied band at padded resolution: n_sk original bins, OOBE_PAD each
    in_band = np.zeros(n * OOBE_PAD, dtype=bool)
    in_band[centered_band(cfg.n_sk * OOBE_PAD, n * OOBE_PAD)] = True
    mean_in = float(np.mean(psd[in_band]))
    mean_out = float(np.mean(psd[~in_band]))
    if mean_in == 0.0:
        raise ValueError("no in-band power")
    return 10.0 * np.log10(mean_out / mean_in) if mean_out > 0.0 else -np.inf
