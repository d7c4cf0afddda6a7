"""Frequency-domain shaping tap profiles.

The learned filter is a low-order polynomial evaluated on a normalized bin
grid; static profiles (square-root raised cosine, all-ones) serve as
baselines.  All taps are real-valued vectors of length ``n_sk``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def tap_positions(n_sk: int) -> np.ndarray:
    """Normalized bin positions t_k = (2k - n_sk - 1)/(n_sk - 1) for k = 1..n_sk
    (cached, read-only).

    The grid spans [-1, 1] symmetrically, which keeps the polynomial basis
    well conditioned (raw bin indices would make the high powers explode).
    """
    if n_sk < 2:
        raise ValueError(f"tap grid needs at least 2 bins, got n_sk={n_sk}")
    k = np.arange(1, n_sk + 1, dtype=np.float64)
    t = (2.0 * k - n_sk - 1.0) / (n_sk - 1.0)
    t.setflags(write=False)
    return t


@lru_cache(maxsize=None)
def coeff_basis(n_sk: int, n_coeffs: int) -> np.ndarray:
    """Vandermonde basis B[k, z] = t_k**z, so taps = coeffs @ B.T (cached, read-only)."""
    basis = np.power.outer(tap_positions(n_sk), np.arange(n_coeffs))
    basis.setflags(write=False)
    return basis


def taps_from_coeffs(coeffs: np.ndarray, n_sk: int) -> np.ndarray:
    """Evaluate the tap polynomial F_k = sum_z c_z t_k**z by Horner's rule.

    ``coeffs`` holds the polynomial coefficients (constant term first) along
    the last axis; leading batch dimensions are allowed.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[-1] < 1:
        raise ValueError("empty coefficient vector")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("non-finite filter coefficients")
    t = tap_positions(n_sk)
    taps = np.broadcast_to(coeffs[..., -1:], coeffs.shape[:-1] + (n_sk,)).copy()
    for z in range(coeffs.shape[-1] - 2, -1, -1):
        taps *= t
        taps += coeffs[..., z : z + 1]
    return taps


def rrc_response(x: np.ndarray, rolloff: float) -> np.ndarray:
    """Square-root raised-cosine magnitude at normalized band position x.

    Unity for |x| <= 1 - rolloff, cosine quarter-wave from 1 down to 0 over
    the outer ``rolloff`` fraction of each band half, zero beyond |x| = 1.
    """
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError(f"rolloff must be in [0, 1], got {rolloff}")
    x = np.abs(np.asarray(x, dtype=np.float64))
    if rolloff == 0.0:
        return np.where(x <= 1.0, 1.0, 0.0)
    u = np.clip((x - (1.0 - rolloff)) / rolloff, 0.0, 1.0)
    return np.where(x <= 1.0, np.cos(0.5 * np.pi * u), 0.0)


def rrc_taps(n_sk: int, rolloff: float) -> np.ndarray:
    """Root-raised-cosine magnitude profile sampled on the n_sk shaped bins."""
    return rrc_response(tap_positions(n_sk), rolloff)


def unit_taps(n_sk: int) -> np.ndarray:
    """All-ones profile (plain DFT-s-OFDM, no spectral shaping)."""
    if n_sk < 1:
        raise ValueError(f"n_sk must be positive, got {n_sk}")
    return np.ones(n_sk, dtype=np.float64)
