"""PAPR-reduction comparison schemes: CLF, SLM, and the static RRC transmit filter.

Clipping-and-filtering amplitude-limits the time signal and removes the
out-of-allocation spectral regrowth, iterated a configurable number of times;
the rounds run in single precision, and ``clf_reduce`` returns the filtered
occupied bins of its last round in complex128.
Selective mapping transmits the minimum-PAPR candidate among phase-rotated
copies of the frequency-domain symbols (candidate 0 is always the identity,
so SLM never does worse than the unmodified block); ``slm_select`` returns the
chosen index, the side information a real system would signal, and the
chosen candidate's PAPR; the phases it picks are the block's complex receiver
taps.  Both take either bins or the :class:`metrics.Synthesis` of the plain
waveform, which CLF's first round clips and SLM reads as its identity
candidate; eval passes the one its ``dftsofdm`` PAPR comes from.

The static RRC baseline is the classic truncated time-domain pulse-shaping
filter (32 taps by default); its circular convolution is expressed as per-bin
complex gains on the occupied subcarriers so the receiver can invert it.
All of these operate on whatever ChainConfig they are given -- pass a
conventional configuration (``conventional_config``) to benchmark them on
plain DFT-s-OFDM as in the published comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chain import ChainConfig, centered_band, extend, occupied_bins, time_signal
from .channel import Stream, block_rng, check_decibels
from .metrics import Synthesis, by_tiles, papr_db, synthesize, tile_rows

SLM_ALPHABET = np.array([1.0 + 0.0j, -1.0 + 0.0j, 0.0 + 1.0j, 0.0 - 1.0j])
# how far a candidate's critical-rate PAPR (dB) may exceed the running minimum
# and still be synthesized on the oversampled grid: covers the float32
# rounding of the two syntheses, ~300x the largest excess seen
SLM_BOUND_SLACK_DB = 1e-3


@dataclass(frozen=True)
class ClfConfig:
    """Clip level relative to RMS (dB) and number of clip+filter rounds."""

    clip_ratio_db: float = 4.0
    iterations: int = 2

    def __post_init__(self):
        check_decibels("clip_ratio_db", self.clip_ratio_db, 20)
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass(frozen=True)
class SlmConfig:
    """Candidate count; U >= 2 for any reduction, U = 1 is the identity."""

    num_candidates: int = 8

    def __post_init__(self):
        if self.num_candidates < 1:
            raise ValueError(f"need at least one candidate, got {self.num_candidates}")


def conventional_config(cfg: ChainConfig) -> ChainConfig:
    """Plain DFT-s-OFDM occupying the same band: all n_sk subcarriers carry data."""
    return replace(cfg, n_data=cfg.n_sk, n_se=0)


# ---------------------------------------------------------------------------
# Clipping and filtering
# ---------------------------------------------------------------------------

def clip_amplitude(x: np.ndarray, level: np.ndarray | float) -> np.ndarray:
    """Hard amplitude clip: |y_n| <= level with phases preserved.

    A sample at or below the level, or whose ratio level / max(|x|, guard)
    is NaN (a NaN sample or level, inf over inf) or overflows (a zero
    sample), is scaled by exactly 1, without a warning.  The bytes are those
    of ``np.where(|x| > level, level / max(|x|, guard), 1.0)`` except where
    0 < |x| <= level < guard, a normal number of |x|'s precision.
    """
    scale = np.abs(x)
    np.maximum(scale, max(1e-300, np.finfo(scale.dtype).tiny), out=scale)
    with np.errstate(over="ignore"):
        np.divide(level, scale, out=scale)
    return x * np.fmin(scale, 1.0, out=scale)


def clf_reduce(bins: np.ndarray | Synthesis, clf: ClfConfig, cfg: ChainConfig) -> np.ndarray:
    """CLF rounds on occupied-bin blocks; returns their occupied bins in complex128.

    The clip level is fixed from the input waveform's RMS, ``sqrt(mean) *
    10**(clip_ratio_db / 20)``; each round clips the waveform and keeps its
    occupied bins, which restores the spectrum but regrows the peaks.
    ``bins`` (..., n_sk) of any dtype are synthesized a tile at a time by
    :func:`metrics.synthesize`, and a :class:`metrics.Synthesis` of rows
    (B, n_sk) (eval's plain transmit) is used as it is.  The rounds run in
    single precision on the record's scaled bins, and the result is at the
    input's scale exactly.  Each block's PAPR lies within ~4e-6 dB of the
    float64 rounds', and its bins within ~5e-7 of the row's peak.
    """
    if isinstance(bins, Synthesis):
        return _clf_rounds(bins, clf, cfg)
    return by_tiles(lambda tile: _clf_rounds(synthesize(tile, cfg), clf, cfg), bins, cfg)


def _clf_rounds(plain: Synthesis, clf: ClfConfig, cfg: ChainConfig) -> np.ndarray:
    """The rounds on the rows of ``plain``, walking its grid ``tile_rows`` rows at a time."""
    ratio = 10.0 ** (clf.clip_ratio_db / 20.0)
    out = np.empty(plain.bins.shape, dtype=np.complex128)
    step = tile_rows(cfg)
    for lo in range(0, len(out), step):
        rows = slice(lo, lo + step)
        # past ~770 dB the level overflows float32 to inf, and an all-zero
        # row's is NaN (0 * inf): both clip nothing, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            level = np.sqrt(plain.mean[rows, None]) * ratio
        x = plain.grid[rows]
        for i in range(clf.iterations):
            if i:
                x = time_signal(bins, cfg)
            x = clip_amplitude(x, level)  # the unclipped grid is freed before the FFT
            bins = occupied_bins(x, cfg)
        out[rows] = bins
    out /= plain.scale  # exact: a power of two
    return out


# ---------------------------------------------------------------------------
# Selective mapping
# ---------------------------------------------------------------------------

def slm_phase_vectors(slm: SlmConfig, n_data: int) -> np.ndarray:
    """(U, n_data) candidate phase vectors; row 0 is the identity."""
    phases = np.ones((slm.num_candidates, n_data), dtype=np.complex128)
    rng = block_rng(0, Stream.SLM_PHASES)  # every run uses the same phase vectors
    for u in range(1, slm.num_candidates):
        phases[u] = SLM_ALPHABET[rng.integers(0, len(SLM_ALPHABET), n_data)]
    return phases


def slm_select(
    spectrum: np.ndarray | Synthesis, phases: np.ndarray, cfg: ChainConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Index of the minimum-PAPR candidate per block (first minimum on ties),
    and that candidate's PAPR.

    ``spectrum`` is (..., n_data) frequency-domain symbols of any dtype,
    searched a tile of rows at a time from their :func:`metrics.synthesize`
    record, or that record of rows (B, n_sk) of candidate 0 (the extended
    bins, the identity row of :func:`slm_phase_vectors`), searched as it is:
    eval passes its plain transmit's.  Candidate 0's PAPR is the record's;
    every other candidate is the record's complex64 bins times its phases
    (+-1, +-j, so exactly), measured by :func:`metrics.papr_db` of its
    waveform.

    The search is branch and bound, and exact.  A candidate's critical-rate
    PAPR (every ``oversample``-th sample, at the same mean power) bounds its
    oversampled PAPR from below, so only the blocks whose bound is within
    ``SLM_BOUND_SLACK_DB`` of the running minimum are synthesized on the
    oversampled grid and compared (strict ``<``).  The slack covers the
    float32 rounding of the two syntheses, so index and PAPR keep the bytes
    of trying every candidate.

    Returns ``(index, papr)``, each shaped like the leading axes; the PAPR is
    per block ``waveform_papr_db`` of the chosen candidate's bins, and the
    index is the float64 argmin except between candidates within ~2e-6 dB.
    """
    if isinstance(spectrum, Synthesis):
        idx, best = _slm_search(spectrum, phases, cfg)
    else:
        idx, best = by_tiles(
            lambda tile: _slm_search(synthesize(extend(tile, cfg.n_se), cfg), phases, cfg),
            spectrum, cfg)
    return idx, best[()]


def _slm_search(plain: Synthesis, phases: np.ndarray,
                cfg: ChainConfig) -> tuple[np.ndarray, np.ndarray]:
    spectrum = plain.bins[:, cfg.n_se: cfg.n_se + cfg.n_data]
    phases = np.asarray(phases, dtype=np.complex64)
    best = plain.papr
    idx = np.zeros(best.shape, dtype=np.intp)
    for u in range(1, len(phases)):
        cand = extend(spectrum * phases[u], cfg.n_se)
        bound = papr_db(time_signal(cand, cfg, oversample=1))
        live = np.flatnonzero(bound <= best + SLM_BOUND_SLACK_DB)
        if live.size:
            exact = papr_db(time_signal(cand[live], cfg))
            idx[live[exact < best[live]]] = u
            best[live] = np.minimum(exact, best[live])
    return idx, best


# ---------------------------------------------------------------------------
# Static RRC transmit filter (truncated time-domain FIR)
# ---------------------------------------------------------------------------

def rrc_fir(n_taps: int = 32, rolloff: float = 0.25, sps: int = 4) -> np.ndarray:
    """Unit-energy root-raised-cosine impulse response truncated to n_taps."""
    if n_taps < 1:
        raise ValueError(f"n_taps must be positive, got {n_taps}")
    if not 0.0 < rolloff <= 1.0:
        raise ValueError(f"rolloff must be in (0, 1], got {rolloff}")
    t = (np.arange(n_taps) - (n_taps - 1) / 2.0) / sps
    h = np.empty(n_taps)
    for i, ti in enumerate(t):
        if abs(ti) < 1e-12:
            h[i] = 1.0 + rolloff * (4.0 / np.pi - 1.0)
        elif abs(abs(4.0 * rolloff * ti) - 1.0) < 1e-9:
            h[i] = (rolloff / np.sqrt(2.0)) * (
                (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * rolloff))
                + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * rolloff))
            )
        else:
            num = np.sin(np.pi * ti * (1.0 - rolloff)) + 4.0 * rolloff * ti * np.cos(
                np.pi * ti * (1.0 + rolloff)
            )
            den = np.pi * ti * (1.0 - (4.0 * rolloff * ti) ** 2)
            h[i] = num / den
    return h / np.sqrt(np.sum(h**2))


def fir_bin_gains(fir: np.ndarray, cfg: ChainConfig) -> np.ndarray:
    """Complex occupied-bin gains of circularly convolving the FIR on the grid.

    Circular convolution on the transmit grid is exactly a per-bin complex
    multiplication, so the filtered baseline can reuse the shaping/equalizing
    machinery with these gains as (complex) taps.  On a grid of n samples,
    tap t lands on sample t mod n: a FIR longer than the grid wraps around.
    """
    n = cfg.n_fft * cfg.oversample
    wrapped = np.bincount(np.arange(fir.size) % n, weights=fir, minlength=n)
    return np.fft.fft(wrapped)[centered_band(cfg.n_sk, n)]
