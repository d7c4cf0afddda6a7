"""End-to-end DFT-s-OFDM transmit/receive chain with frequency-domain shaping.

Transmit: bits -> Gray-mapped symbols -> DFT precoding (1/sqrt(n_data)) ->
cyclic spectrum extension -> per-bin real shaping taps -> centered subcarrier
mapping on an (oversampled) IDFT grid.  The channel acts on the occupied
bins.  Receive (single-carrier FDE, the fade times the taps being one
per-bin gain): matched filter (its conjugate) -> coherent folding of the
extension copies onto their source bins with per-bin gain normalization ->
inverse precoding -> per-axis minimum-distance detection.

Subcarrier mapping convention: the n_sk occupied bins sit symmetrically
around DC, bins -n_sk//2 .. n_sk - n_sk//2 - 1, written straight into the
FFT-order IDFT grid at the indices :func:`centered_band` returns.  The IDFT is
scaled so that the oversampled signal interpolates the critically sampled one
(``oversample=1`` is the unitary transform); transmitter and receiver share
this mapping bit-exactly.

The array-level functions act on the last axis and accept leading batch
dimensions; training, evaluation and adaptation use only these.  Fixed
transmit power (:func:`power_gain`, which :func:`shape_and_normalize` and
training's loss apply) and the receiver's matched filter and folding
(:func:`equalize`) are each written once here, so every transmit goes through
``shape_and_normalize`` and :func:`time_signal`.
:func:`receive` is the array receive step (equalization with the effective
taps, then detection) of every symbol-error path; it takes received occupied
bins and makes no FFT.  The stage-tagged :class:`SymbolBlock` exists only at the
single-block boundary ``SymbolBlock(Stage.TIME_DOMAIN, x)`` ->
``channel.apply_channel`` -> ``receiver_chain``, which validates stage, length
and taps, reads the block's occupied bins and then runs ``receive`` on them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

GAIN_EPS = 1e-12  # guards the per-bin gain normalization of the receiver


class EqualizationError(RuntimeError):
    """Raised when some data bin has zero effective gain (undecodable)."""


class ModScheme(enum.Enum):
    """Gray-coded square constellations with unit average energy."""

    QPSK = 2
    QAM16 = 4
    QAM64 = 6

    def __init__(self, bits: int):
        self.bits_per_symbol = bits  # a plain attribute: read once per drawn block


# in member order: a name's position is a coordinate of eval's block streams
SCHEME_NAMES = {scheme.name.lower(): scheme for scheme in ModScheme}


class Stage(enum.Enum):
    """Stages a block passes at the single-block boundary."""

    DATA_SYMBOLS = "data_symbols"
    TIME_DOMAIN = "time_domain"
    RECEIVED = "received"


@dataclass(frozen=True)
class SymbolBlock:
    """One block's complex values tagged with its boundary stage."""

    stage: Stage
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 1:
            raise ValueError(f"block values must be 1-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("block contains non-finite values")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ChainConfig:
    """Subcarrier allocation and grid sizes (defaults follow the 240/210/15 setup)."""

    n_data: int = 210
    n_se: int = 15
    n_fft: int = 256
    oversample: int = 4
    bandwidth_hz: float = 20e6
    scs_hz: float = 30e3

    def __post_init__(self):
        if self.n_data <= 0:
            raise ValueError(f"n_data must be positive, got {self.n_data}")
        if self.n_se < 0 or self.n_se >= self.n_data:
            raise ValueError(f"n_se must satisfy 0 <= n_se < n_data, got {self.n_se}")
        if self.n_sk < 2:
            raise ValueError(f"n_sk = n_data + 2*n_se must be >= 2, got {self.n_sk}")
        if self.n_fft < self.n_sk:
            raise ValueError(f"n_fft={self.n_fft} smaller than n_sk={self.n_sk}")
        if self.oversample < 1:
            raise ValueError(f"oversample must be >= 1, got {self.oversample}")

    @property
    def n_sk(self) -> int:
        return self.n_data + 2 * self.n_se


# ---------------------------------------------------------------------------
# Constellations
# ---------------------------------------------------------------------------

def _gray_pam(bits: np.ndarray) -> np.ndarray:
    """Map one axis' Gray-labelled bits (sign bit first) to odd PAM levels."""
    s = 1 - 2 * bits.astype(np.int64)
    level = np.ones(bits.shape[:-1], dtype=np.int64)
    scale = 2
    for j in range(s.shape[-1] - 1, 0, -1):
        level = scale - s[..., j] * level
        scale *= 2
    return s[..., 0] * level


@lru_cache(maxsize=None)
def constellation(scheme: ModScheme) -> np.ndarray:
    """All 2**bps constellation points, point ``i`` carrying the bit label of
    the integer ``i``, most significant bit first."""
    bps = scheme.bits_per_symbol
    labels = ((np.arange(2**bps)[:, None] >> np.arange(bps - 1, -1, -1)) & 1).astype(np.uint8)
    # even bit positions drive the I axis, odd positions the Q axis
    norm = np.sqrt(2.0 * (2**bps - 1) / 3.0)  # RMS of the m x m odd levels, m * m = 2**bps
    points = (_gray_pam(labels[:, 0::2]) + 1j * _gray_pam(labels[:, 1::2])) / norm
    points.setflags(write=False)
    return points


def map_symbols(bits: np.ndarray, scheme: ModScheme) -> np.ndarray:
    """Gray-map the bits on the last axis to unit-average-energy symbols.

    Each symbol's bits, most significant first, form its label integer, which
    indexes :func:`constellation`'s points.
    """
    bits = np.asarray(bits, dtype=np.int64)
    bps = scheme.bits_per_symbol
    if bits.ndim == 0:
        raise ValueError("bits must have at least one axis")
    if bits.shape[-1] % bps != 0:
        raise ValueError(
            f"bit count {bits.shape[-1]} not divisible by {bps} ({scheme.name})"
        )
    grouped = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // bps, bps))
    label = grouped[..., 0].copy()
    for k in range(1, bps):
        label <<= 1
        label |= grouped[..., k]
    return constellation(scheme)[label]


@lru_cache(maxsize=None)
def _pam_slicer(scheme: ModScheme) -> tuple[np.ndarray, np.ndarray]:
    """(midpoints of the PAM levels, the points at index ``I level * m + Q level``)."""
    points = constellation(scheme)
    levels = np.unique(points.real)  # the same PAM levels carry I and Q
    m = len(levels)
    grid = np.empty(m * m, dtype=np.complex128)
    grid[np.searchsorted(levels, points.real) * m + np.searchsorted(levels, points.imag)] = points
    grid.setflags(write=False)
    return (levels[1:] + levels[:-1]) / 2, grid


def detect_symbols(received: np.ndarray, scheme: ModScheme) -> np.ndarray:
    """Minimum-Euclidean-distance decision onto the square constellation grid.

    I and Q are sliced apart: each axis counts the PAM midpoints strictly
    below its value (one comparison per midpoint into int8 counters, far
    faster than a binary search) and takes that level.  Away from a midpoint
    this is the nearest level; a value on a midpoint takes the lower level,
    +-inf and values past the outer levels take the edge level, and NaN
    takes the lowest.
    """
    received = np.asarray(received, dtype=np.complex128)
    flat = received.reshape(-1)
    mids, grid = _pam_slicer(scheme)
    i = np.zeros(flat.shape, dtype=np.int8)
    q = np.zeros(flat.shape, dtype=np.int8)
    for mid in mids:
        i += flat.real > mid
        q += flat.imag > mid
    return grid[i * (len(mids) + 1) + q].reshape(received.shape)


# ---------------------------------------------------------------------------
# Array-level chain stages (batch-capable along leading axes)
# ---------------------------------------------------------------------------

def precode(x: np.ndarray) -> np.ndarray:
    """DFT precoding S = DFT(s)/sqrt(n_data); preserves block energy."""
    x = np.asarray(x, dtype=np.complex128)
    # numpy divides complex by real as (a + b*0) * (1/c): the multiply by the
    # reciprocal has the same bits, at a fraction of the cost
    return np.fft.fft(x, axis=-1) * (1.0 / np.sqrt(x.shape[-1]))

def deprecode(spectrum: np.ndarray) -> np.ndarray:
    """Inverse of :func:`precode` (IDFT scaled by sqrt(n_data))."""
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    return np.fft.ifft(spectrum, axis=-1) * np.sqrt(spectrum.shape[-1])


def extend(spectrum: np.ndarray, n_se: int) -> np.ndarray:
    """Cyclic spectrum extension: prepend the last n_se bins, append the first n_se."""
    spectrum = np.asarray(spectrum)
    if n_se < 0 or n_se >= spectrum.shape[-1]:
        raise ValueError(f"n_se={n_se} must be < n_data={spectrum.shape[-1]}")
    if n_se == 0:
        return spectrum.copy()
    return np.concatenate(
        [spectrum[..., -n_se:], spectrum, spectrum[..., :n_se]], axis=-1
    )


def fold_extension(values: np.ndarray, n_se: int) -> np.ndarray:
    """Coherently add the 2*n_se extension bins back onto their source bins."""
    values = np.asarray(values)
    n_data = values.shape[-1] - 2 * n_se
    if n_data <= 0:
        raise ValueError("extension larger than block")
    folded = values[..., n_se : n_se + n_data].copy()
    if n_se:
        folded[..., -n_se:] += values[..., :n_se]
        folded[..., :n_se] += values[..., n_se + n_data :]
    return folded


def centered_band(width: int, n: int) -> np.ndarray:
    """FFT-order indices of the ``width`` DC-centered bins of an n-point grid."""
    return (np.arange(width) - width // 2) % n


def time_signal(
    shaped: np.ndarray, cfg: ChainConfig, oversample: int | None = None
) -> np.ndarray:
    """IDFT of the centered occupied bins onto an n_fft*oversample grid.

    Scaling is 1/sqrt(n_fft) relative to the unnormalized IDFT sum, so the
    oversampled waveform interpolates the critical-rate one sample-for-sample
    and the mean time-domain power equals sum(|bins|^2)/n_fft for any
    oversample factor.  The band is written into the zeroed grid as two
    slices, at the indices :func:`centered_band` names (the bins below DC at
    the top of the grid, DC and above at the bottom), and the grid is
    transformed and scaled in place: one grid-sized allocation per call.

    The grid keeps the input's precision: complex64 bins (the noise-free PAPR
    rule, :func:`metrics.waveform_papr_db`) give a complex64 grid, and any
    other input, complex128 or real taps, a complex128 one.
    """
    shaped = np.asarray(shaped)
    if shaped.shape[-1] != cfg.n_sk:
        raise ValueError(f"expected {cfg.n_sk} shaped bins, got {shaped.shape[-1]}")
    n = cfg.n_fft * (cfg.oversample if oversample is None else oversample)
    half = cfg.n_sk // 2
    dtype = np.complex64 if shaped.dtype == np.complex64 else np.complex128
    grid = np.zeros(shaped.shape[:-1] + (n,), dtype=dtype)
    grid[..., : cfg.n_sk - half] = shaped[..., half:]
    grid[..., n - half :] = shaped[..., :half]
    np.fft.ifft(grid, axis=-1, out=grid)
    grid *= n / math.sqrt(cfg.n_fft)  # a Python float keeps a complex64 grid's loop complex64
    return grid


def occupied_bins(signal: np.ndarray, cfg: ChainConfig) -> np.ndarray:
    """Recover the n_sk occupied bins from a time-domain grid (inverse mapping).

    The band is read as the same two slices :func:`time_signal` writes, and
    only those n_sk bins are scaled.  The bins keep the grid's precision, as
    in :func:`time_signal`: a complex64 grid (CLF's rounds) gives complex64
    bins, any other input complex128 ones.  A complex64 grid is transformed
    with ``norm="forward"`` and its bins scaled by sqrt(n_fft): the default
    norm's integer factor runs complex64 through numpy's complex128 loop,
    ~5x slower.
    """
    signal = np.asarray(signal)
    single = signal.dtype == np.complex64
    if not single:
        signal = signal.astype(np.complex128, copy=False)
    n = signal.shape[-1]
    if n % cfg.n_fft != 0:
        raise ValueError(f"signal length {n} not a multiple of n_fft={cfg.n_fft}")
    spectrum = np.fft.fft(signal, axis=-1, norm="forward" if single else None)
    half = cfg.n_sk // 2
    bins = np.concatenate([spectrum[..., n - half :], spectrum[..., : cfg.n_sk - half]], axis=-1)
    # a Python float keeps a complex64 grid's loop complex64
    bins *= math.sqrt(cfg.n_fft) if single else math.sqrt(cfg.n_fft) / n
    return bins


def power_gain(p_s: np.ndarray, p_shaped: np.ndarray) -> np.ndarray:
    """The fixed-transmit-power gain ``sqrt(p_s / p_shaped)`` per block, from
    the mean bin powers ``mean|s|^2`` and ``mean|s*taps|^2``; ``p_shaped`` is
    floored at 1e-300, so all-zero taps give a finite gain."""
    return np.sqrt(p_s / np.maximum(p_shaped, 1e-300))


def shape_and_normalize(
    s: np.ndarray, taps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shape the bins with the taps at fixed transmit power.

    Returns ``(bins, eff_taps, g)``: the per-block :func:`power_gain`
    ``g = sqrt(mean|s|^2 / mean|s*taps|^2)`` makes the shaped bins
    ``bins = g*(s*taps)`` carry the unshaped occupied power, so scaling the
    taps can neither buy SNR nor change PAPR; ``eff_taps = g*taps`` is what the
    receiver equalizes with.  Taps may be real or complex (a transmit FIR's
    bin response) and broadcast against ``s``.  ``s`` is read C-ordered, so a
    block's bytes do not depend on its batch's layout.
    """
    s = np.ascontiguousarray(s)
    shaped = s * taps
    g = power_gain(np.mean(np.abs(s) ** 2, axis=-1), np.mean(np.abs(shaped) ** 2, axis=-1))
    return g[..., None] * shaped, g[..., None] * taps, g


def _matched_fold(
    rx_bins: np.ndarray, taps: np.ndarray, n_se: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matched filter, extension folding and gain normalization.

    Returns ``(numer, gain, recovered)`` per data bin: the folded matched
    filter output, the summed squared gain of its copies, and their
    ``GAIN_EPS``-guarded ratio.
    """
    taps = np.asarray(taps)
    matched = rx_bins * np.conj(taps)
    numer = fold_extension(matched, n_se)
    gain = fold_extension(np.broadcast_to(np.abs(taps) ** 2, matched.shape), n_se)
    return numer, gain, numer * (1.0 / (gain + GAIN_EPS))  # same bits as the division


def equalize(rx_bins: np.ndarray, taps: np.ndarray, n_se: int) -> np.ndarray:
    """Matched filter, extension folding and gain normalization, inverse precoding.

    ``taps`` are the effective taps ``h * taps``, the fade times the transmit
    shaping (a transmit FIR's bin response and SLM's phases are complex too),
    so the matched filter multiplies by their conjugate.  Each data bin is
    normalized by the summed squared gain of its copies, the faded gain
    |h|^2 * sum|taps|^2, which ``GAIN_EPS`` guards.  A bin whose total gain
    is exactly zero is undecodable.
    """
    _, gain, recovered = _matched_fold(rx_bins, taps, n_se)
    if np.any(gain == 0.0):
        raise EqualizationError("zero effective gain on at least one data bin")
    return deprecode(recovered)


def receive(
    rx_bins: np.ndarray, taps: np.ndarray, n_se: int, scheme: ModScheme
) -> tuple[np.ndarray, np.ndarray]:
    """Receive step: equalize with the effective taps and detect.

    ``rx_bins`` holds received occupied bins on its last axis, with any
    leading axes; ``taps``, the effective taps ``h * taps`` (the known fade
    times the transmit taps), broadcast against them.  Returns
    ``(detected, equalized)`` data symbols.
    """
    equalized = equalize(rx_bins, taps, n_se)
    return detect_symbols(equalized, scheme), equalized


# ---------------------------------------------------------------------------
# Single-block boundary
# ---------------------------------------------------------------------------

def receiver_chain(
    rx: SymbolBlock, taps: np.ndarray, cfg: ChainConfig, scheme: ModScheme
) -> tuple[SymbolBlock, np.ndarray]:
    """Full receiver: FFT to the occupied bins, then :func:`receive`.

    ``taps`` are the effective taps: a faded block passes ``fade * taps``.
    Returns the detected symbol block and the raw equalized symbols.
    """
    if rx.stage is not Stage.RECEIVED:
        raise ValueError(f"expected RECEIVED block, got {rx.stage.name}")
    if len(rx) % cfg.n_fft != 0:
        raise ValueError(f"received length {len(rx)} not a multiple of n_fft")
    taps = np.asarray(taps)
    if taps.shape != (cfg.n_sk,):
        raise ValueError(f"taps shape {taps.shape}, expected ({cfg.n_sk},)")
    detected, equalized = receive(occupied_bins(rx.values, cfg), taps, cfg.n_se, scheme)
    return SymbolBlock(Stage.DATA_SYMBOLS, detected), equalized
