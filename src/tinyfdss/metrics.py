"""PAPR, CCDF, symbol error ratio, spectral leakage, and the PAPR-tail surrogate.

Reported PAPR figures are the empirical CCDF and its quantiles.  Training
penalizes the CCDF tail above x0 through a differentiable softplus surrogate
of its hinge form, E[max(0, PAPR - x0)].

Noise-free PAPR figures (the CCDF, its quantiles, mean PAPR, SLM's candidate
search and adapt's per-tick PAPR) come from :func:`waveform_papr_db`, which
synthesizes in single precision: each block's PAPR lies within ~2e-6 dB of
the float64 synthesis, against a ~0.06 dB sampling interval of the 1e-3
quantile.  CLF's rounds and training's peak search also run on
:func:`single_precision`'s bins; training's PAPR values and gradients stay
float64, as do the links and the OOBE periodogram.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainConfig, centered_band, time_signal

TAIL_X0_DB = 6.0
SURROGATE_SHARPNESS = 4.0  # softplus sharpness of the tail surrogate
OOBE_MIN_BLOCKS = 10  # periodogram segments oobe_db averages at the least
OOBE_PAD = 4  # zero-padding factor of each oobe_db periodogram segment
# bytes of one tile's complex128 oversampled grid: it bounds a batch's
# working set, not its cache footprint
TILE_BYTES = 2 << 20


def papr_db(signal) -> float | np.ndarray:
    """Peak-to-average power ratio 10*log10(max|s|^2 / mean|s|^2) in dB.

    With leading batch dimensions one PAPR per block is returned.  Powers,
    peak and mean keep the signal's precision (single for a complex64
    waveform); their ratio and its log10 are float64.
    """
    x = np.asarray(signal)
    p = np.abs(x)
    np.square(p, out=p)
    peak = p.max(axis=-1)
    mean = p.mean(axis=-1)
    if np.any(mean == 0.0):
        raise ValueError("PAPR undefined for an all-zero signal")
    out = 10.0 * np.log10(np.divide(peak, mean, dtype=np.float64))
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


def row_scale(bins: np.ndarray) -> np.ndarray:
    """The power of two per row (a length-1 last axis) that puts the row's
    largest |bin| in [0.5, 1), from ``np.frexp``; 1 for an all-zero row.

    The scale is capped at 2**1023, the largest finite power of two, so a
    row whose largest |bin| is below 2**-1024 lands in [2**-51, 0.5) instead:
    exact, and in float32's normal range.
    """
    _, exp = np.frexp(np.abs(bins).max(axis=-1, keepdims=True))
    return np.ldexp(1.0, np.minimum(-exp, 1023))


def single_precision(bins: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """``bins`` times their :func:`row_scale` (``scale`` if the caller has it),
    in complex64.

    The scale is applied before the cast: it is exact and PAPR is scale-free,
    so a row's waveform PAPR has the bytes of the unscaled cast's wherever
    that stays in float32's normal range, and far outside it the float32
    powers neither overflow nor underflow.
    """
    bins = np.asarray(bins)
    return (bins * (row_scale(bins) if scale is None else scale)).astype(np.complex64)


def waveform_papr_db(bins: np.ndarray, cfg: ChainConfig) -> float | np.ndarray:
    """PAPR of the oversampled waveform of occupied bins, synthesized per tile
    in single precision.

    Complex64 bins are synthesized as given (``slm_select`` scales its
    spectrum once for every candidate); other bins pass through
    :func:`single_precision` a tile at a time.  So the result equals, byte
    for byte, ``papr_db(time_signal(bins.astype(np.complex64), cfg))``
    wherever that cast stays in float32's normal range, without holding the
    whole batch's grid: a float for one block, else one PAPR per block over
    the leading axes.  Each tile's grid is written from the band slices and
    transformed in place by :func:`time_signal`, and ``papr_db`` squares its
    magnitudes in place, so a tile costs one grid and one magnitude array.
    """
    def tile_papr(tile):
        single = tile if tile.dtype == np.complex64 else single_precision(tile)
        return papr_db(time_signal(single, cfg))

    out = by_tiles(tile_papr, bins, cfg)
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


def _segments_per_tile(n: int) -> int:
    """Periodogram segments of length n whose zero-padded spectrum fits ``TILE_BYTES``."""
    return max(1, TILE_BYTES // (16 * n * OOBE_PAD))


class Periodogram:
    """Welch's averaged periodogram as a running sum, the rule of :func:`oobe_db`.

    Each block is one segment: Hann-windowed, zero-padded by ``OOBE_PAD`` so
    leakage between subcarrier bins is resolved, and transformed.
    :meth:`add` adds each segment's |FFT|^2 to one sum in block order, so a
    sum built over any split of the blocks has the bytes of one built at
    once, and transforms a tile of segments at a time.
    """

    def __init__(self, cfg: ChainConfig):
        self.cfg = cfg
        self.total: np.ndarray | None = None  # sum of the segments' |FFT|^2
        self.count = 0  # segments added

    def add(self, blocks: np.ndarray) -> None:
        """Add one segment per row of ``blocks`` (..., n), n a multiple of n_fft
        and above n_sk, so that the grid has an out-of-band bin."""
        blocks = np.asarray(blocks, dtype=np.complex128)
        blocks = blocks.reshape(-1, blocks.shape[-1])
        n = blocks.shape[-1]
        if n % self.cfg.n_fft != 0:
            raise ValueError(f"block length {n} not a multiple of n_fft={self.cfg.n_fft}")
        if self.total is None:
            if n <= self.cfg.n_sk:
                raise ValueError(f"OOBE undefined: a {n}-sample grid has no bin outside "
                                 f"the band of n_sk={self.cfg.n_sk} occupied bins")
            self.total = np.zeros(n * OOBE_PAD)
        window = np.hanning(n)
        step = _segments_per_tile(n)
        for lo in range(0, len(blocks), step):
            power = np.abs(np.fft.fft(blocks[lo: lo + step] * window, n=n * OOBE_PAD, axis=-1))
            np.square(power, out=power)
            for row in power:
                self.total += row
        self.count += len(blocks)

    def add_bins(self, bins: np.ndarray) -> None:
        """Add the oversampled waveform of each row of occupied ``bins`` (B, n_sk),
        synthesized by :func:`chain.time_signal` one tile at a time."""
        step = _segments_per_tile(self.cfg.n_fft * self.cfg.oversample)
        for lo in range(0, len(bins), step):
            self.add(time_signal(bins[lo: lo + step], self.cfg))

    def oobe_db(self) -> float:
        """Mean out-of-band PSD over mean in-band PSD of the segments so far, in dB."""
        if self.count < OOBE_MIN_BLOCKS:
            raise ValueError(
                f"need at least {OOBE_MIN_BLOCKS} blocks for a stable PSD, got {self.count}"
            )
        psd = self.total / self.count
        # occupied band at padded resolution: n_sk original bins, OOBE_PAD each
        in_band = np.zeros(psd.size, dtype=bool)
        in_band[centered_band(self.cfg.n_sk * OOBE_PAD, psd.size)] = True
        mean_in = float(np.mean(psd[in_band]))
        mean_out = float(np.mean(psd[~in_band]))
        if mean_in == 0.0:
            raise ValueError("no in-band power")
        return 10.0 * np.log10(mean_out / mean_in) if mean_out > 0.0 else -np.inf


def oobe_db(blocks: np.ndarray, cfg: ChainConfig) -> float:
    """Out-of-band emission from a Hann-windowed averaged periodogram, in dB.

    Each block is one Welch segment (:class:`Periodogram`), and OOBE is mean
    out-of-band PSD over mean in-band PSD.  A block-boundary--free tone
    still leaks through the window's sidelobes, which sets the measurement
    floor (well below -40 dB for the Hann window at this grid size).
    """
    welch = Periodogram(cfg)
    welch.add(blocks)
    return welch.oobe_db()
