"""PAPR-reduction comparison schemes: CLF, SLM, and the static RRC transmit filter.

Clipping-and-filtering amplitude-limits the time signal and removes the
out-of-allocation spectral regrowth, iterated a configurable number of times;
``clf_reduce`` returns the filtered occupied bins of its last round.
Selective mapping transmits the minimum-PAPR candidate among phase-rotated
copies of the frequency-domain symbols (candidate 0 is always the identity,
so SLM never does worse than the unmodified block); ``slm_select`` returns the
chosen index, the side information a real system would signal, and the
chosen candidate's PAPR; the phases it picks are the block's complex receiver
taps.

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
from .channel import Stream, block_rng
from .metrics import by_tiles, single_precision, waveform_papr_db

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
        if not np.isfinite(self.clip_ratio_db):
            raise ValueError(f"clip_ratio_db must be finite, got {self.clip_ratio_db}")
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

    Each sample is scaled by ``min(1, level / max(|x|, 1e-300))``, built in
    one array; a sample at or below the level is scaled by exactly 1.
    """
    scale = np.abs(x)
    np.maximum(scale, 1e-300, out=scale)
    np.divide(level, scale, out=scale)
    np.minimum(scale, 1.0, out=scale)
    return x * scale


def clf_reduce(bins: np.ndarray, clf: ClfConfig, cfg: ChainConfig) -> np.ndarray:
    """CLF rounds on occupied-bin blocks (batch-capable); returns occupied bins.

    The clip level is fixed from the input signal's RMS; filtering keeps only
    the occupied bins, which restores the spectrum but regrows the peaks --
    the classic CLF behavior.  The rounds run one tile of blocks at a time.
    """
    return by_tiles(lambda tile: _clf_rounds(tile, clf, cfg), bins, cfg)


def _clf_rounds(bins: np.ndarray, clf: ClfConfig, cfg: ChainConfig) -> np.ndarray:
    x = time_signal(bins, cfg)
    level = np.sqrt(np.mean(np.abs(x) ** 2, axis=-1, keepdims=True)) * 10.0 ** (
        clf.clip_ratio_db / 20.0
    )
    for i in range(clf.iterations):
        if i:
            x = time_signal(bins, cfg)
        bins = occupied_bins(clip_amplitude(x, level), cfg)
    return bins


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
    spectrum: np.ndarray, phases: np.ndarray, cfg: ChainConfig,
    identity_papr: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Index of the minimum-PAPR candidate per block (first minimum on ties).

    ``spectrum`` is (..., n_data) frequency-domain symbols.  Candidates are
    tried one at a time against a running minimum.  A caller that has
    already measured candidate 0's waveform (with the identity row of
    :func:`slm_phase_vectors`, the unrotated spectrum's) passes its PAPR as
    ``identity_papr``, and that candidate is not synthesized again.

    The search is branch and bound, and exact.  The critical-rate waveform
    (``oversample=1``) is every ``oversample``-th sample of the oversampled
    one, and both have the mean power sum(|bins|^2)/n_fft, so a candidate's
    critical-rate PAPR is a lower bound on its oversampled PAPR.  Each
    candidate's bound is measured by the same rule on all blocks, and only
    the blocks whose bound is within ``SLM_BOUND_SLACK_DB`` of the running
    minimum are synthesized on the oversampled grid and compared (strict
    ``<``, so the first minimum wins ties).  The slack covers the float32
    rounding of the two syntheses (a bound above the exact PAPR by ~3e-6 dB
    at most on desk blocks), so a skipped candidate's PAPR exceeds the
    running minimum and could not have been chosen: index and PAPR keep the
    bytes of trying every candidate.  With phases applied to DFT-precoded
    bins the identity wins ~99% of blocks and ~98% of candidate blocks are
    skipped; phases applied before the DFT (ROADMAP item 6) would skip fewer,
    and the search would stay exact.

    The spectrum goes through :func:`metrics.single_precision` once and the
    phases are cast, so every candidate is built in complex64.  The phases
    (+-1, +-j) rotate exactly, so a candidate's PAPR has the bytes of
    ``waveform_papr_db`` of its complex128 bins, and the index is the float64
    argmin except between candidates within ~2e-6 dB of each other.

    Returns ``(index, papr)``, each shaped like the leading axes: the index
    per block and the running minimum, per block ``waveform_papr_db`` of the
    chosen candidate.
    """
    spectrum = single_precision(spectrum)
    lead = spectrum.shape[:-1]
    spectrum = spectrum.reshape(-1, spectrum.shape[-1])
    phases = np.asarray(phases, dtype=np.complex64)
    critical = replace(cfg, oversample=1)

    def candidate(u):
        return extend(spectrum * phases[u], cfg.n_se)

    best = waveform_papr_db(candidate(0), cfg) if identity_papr is None else identity_papr
    best = np.array(best, dtype=np.float64).reshape(-1)
    idx = np.zeros(best.shape, dtype=np.intp)
    for u in range(1, len(phases)):
        cand = candidate(u)
        live = np.flatnonzero(waveform_papr_db(cand, critical) <= best + SLM_BOUND_SLACK_DB)
        if live.size:
            exact = waveform_papr_db(cand[live], cfg)
            idx[live[exact < best[live]]] = u
            best[live] = np.minimum(exact, best[live])
    return idx.reshape(lead), best.reshape(lead)[()]


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
    machinery with these gains as (complex) taps.
    """
    n = cfg.n_fft * cfg.oversample
    return np.fft.fft(fir, n)[centered_band(cfg.n_sk, n)]
