"""The chain, one block at a time in plain numpy: what tinyfdss computes, as
the oracle its fast paths are tested against.  Transmit: bits -> Gray map ->
DFT precoding -> spectrum extension -> taps at fixed power -> oversampled
IDFT -> PAPR.  Receive: flat fade and in-band noise -> matched filter with the
fade times the taps -> fold the extension copies -> de-precoding -> detection.

A function states one step for one block, on the last axis, and none batches,
tiles, caches, bounds a search or works in place; where ``axis=-1`` takes a
stack of blocks as it is, a function accepts one.  Each block draws from its
own ``block_rng``.  Tests compare a fast path with these byte for byte where
both do the same arithmetic, and within a stated bound where they do not.
"""

import math
from itertools import product

import numpy as np

from tinyfdss import network
from tinyfdss.adaptation import DEFAULT_BINS, DEFAULT_PERIOD_MS, TickRecord
from tinyfdss.baselines import conventional_config
from tinyfdss.chain import GAIN_EPS, SCHEME_NAMES
from tinyfdss.channel import MODEL_NAMES, ChannelCfg, ChannelModel, Stream, block_rng
from tinyfdss.evaluation import CellResult, Draw, Transmit
from tinyfdss.filters import coeff_basis, taps_from_coeffs, unit_taps
from tinyfdss.metrics import SURROGATE_SHARPNESS, TAIL_X0_DB
from tinyfdss.training import BatchPrep


def mix_choice(rng, mix):
    """The index of one entry of a ``(name, weight)`` mix, by numpy's ``choice``."""
    weights = np.array([w for _, w in mix])
    return rng.choice(len(weights), p=weights / weights.sum())


def flat_fade(channel, rng):
    """A flat fade from two scalar standard normals: Rayleigh ``(n1 + 1j*n2) / sqrt(2)``;
    Rician ``sqrt(K/(K+1)) + sqrt(1/(K+1))`` times that scatter; AWGN draws none: 1."""
    if channel.model is ChannelModel.AWGN:
        return np.complex128(1.0)
    scatter = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
    if channel.model is ChannelModel.RICIAN:
        k = 10 ** (channel.k_factor_db / 10)
        scatter = math.sqrt(k / (k + 1)) + math.sqrt(1 / (k + 1)) * scatter
    return np.complex128(scatter)


def draw_block(rng, scheme, channel, n_symbols, n_noise):
    """A block's draws after its head: ``integers(0, 2, n)`` bits, mapped; the
    fade; unit noise, real parts first.  A None scheme or channel draws none."""
    symbols = np.zeros(n_symbols, dtype=complex)
    if scheme is not None:
        symbols = map_symbols(rng.integers(0, 2, n_symbols * scheme.bits_per_symbol), scheme)
    if channel is None:
        return symbols, np.complex128(1.0), np.zeros(n_noise, dtype=complex)
    h = flat_fade(channel, rng)
    return symbols, h, rng.standard_normal(n_noise) + 1j * rng.standard_normal(n_noise)


def lambda_of(snr_db):
    """The tail weight of the first lambda bin whose upper edge lies above the SNR."""
    return next(lam for hi, lam in DEFAULT_BINS if snr_db < hi)


def gray_pam(bits):
    """One axis' Gray-labelled bits (sign bit first, on the last axis) to its odd PAM level."""
    s = 1 - 2 * bits.astype(np.int64)
    level = np.ones(bits.shape[:-1], dtype=np.int64)
    scale = 2
    for j in range(s.shape[-1] - 1, 0, -1):
        level = scale - s[..., j] * level
        scale *= 2
    return s[..., 0] * level


def map_symbols(bits, scheme):
    """Unit-energy square QAM from the bits: even bit positions drive I, odd ones Q."""
    bits = np.asarray(bits)
    bps = scheme.bits_per_symbol
    grouped = bits.reshape(bits.shape[:-1] + (bits.shape[-1] // bps, bps))
    norm = np.sqrt(2.0 * (2**bps - 1) / 3.0)  # the RMS of the m x m odd levels, m**2 = 2**bps
    return (gray_pam(grouped[..., 0::2]) + 1j * gray_pam(grouped[..., 1::2])) / norm


def constellation(scheme):
    """Every point of the scheme, in the order of its labels' integers."""
    bps = scheme.bits_per_symbol
    labels = (np.arange(2**bps)[:, None] >> np.arange(bps - 1, -1, -1)) & 1
    return map_symbols(labels, scheme)[:, 0]


def dft_matrix(n):
    """The n-point DFT matrix, F[k, m] = exp(-2j pi k m / n)."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * (np.outer(k, k) % n) / n)


def precode(symbols):
    """DFT precoding, scaled to keep the block's energy."""
    return np.fft.fft(symbols, axis=-1) / np.sqrt(symbols.shape[-1])


def extend(spectrum, n_se):
    """Cyclic spectrum extension: the last n_se bins before the block, the first n_se after."""
    n_data = spectrum.shape[-1]
    return spectrum[..., np.arange(-n_se, n_data + n_se) % n_data]


def shape(s_ext, taps):
    """(shaped bins, effective taps), times the gain that keeps the bins' power."""
    shaped = s_ext * taps
    g = np.sqrt(np.mean(np.abs(s_ext) ** 2, axis=-1) / np.mean(np.abs(shaped) ** 2, axis=-1))
    return g[..., None] * shaped, g[..., None] * taps


def band(n_sk, n):
    """FFT-order indices of the bins n//2 - n_sk//2 onward of the DC-centered grid."""
    return np.fft.fftshift(np.arange(n))[n // 2 - n_sk // 2 :][:n_sk]


def time_signal(bins, cfg, oversample=None):
    """The bins on the band of a zero grid, IDFT, times n/sqrt(n_fft), in the bins' precision."""
    bins = np.asarray(bins)
    n = cfg.n_fft * (cfg.oversample if oversample is None else oversample)
    grid = np.zeros(bins.shape[:-1] + (n,),
                    dtype=np.complex64 if bins.dtype == np.complex64 else np.complex128)
    grid[..., band(cfg.n_sk, n)] = bins
    return np.fft.ifft(grid, axis=-1) * (n / math.sqrt(cfg.n_fft))


def dft_synthesis(bins, cfg, oversample=None):
    """``time_signal`` by an explicit float64 DFT matrix over the occupied subcarriers."""
    n = cfg.n_fft * (cfg.oversample if oversample is None else oversample)
    return np.conj(dft_matrix(n))[:, band(cfg.n_sk, n)] @ bins / math.sqrt(cfg.n_fft)


def occupied_bins(signal, cfg):
    """The inverse of ``time_signal``: DFT, times sqrt(n_fft)/n, read on the band, in
    the signal's precision (complex64's 1/n by the ``norm="forward"`` transform)."""
    signal = np.asarray(signal)
    n = signal.shape[-1]
    if signal.dtype == np.complex64:
        spectrum = np.fft.fft(signal, axis=-1, norm="forward") * math.sqrt(cfg.n_fft)
    else:
        spectrum = np.fft.fft(signal.astype(np.complex128), axis=-1) * (math.sqrt(cfg.n_fft) / n)
    return spectrum[..., band(cfg.n_sk, n)]


def papr_db(x):
    """10 log10(peak power / mean power), the powers in the waveform's precision."""
    p = np.abs(x) ** 2
    return 10.0 * np.log10(p.max(axis=-1).astype(np.float64) / p.mean(axis=-1))


def waveform_papr_db(bins, cfg):
    """The bins scaled by the power of two that puts their peak in [0.5, 1), at most
    2**1023 (the largest finite one), in complex64."""
    _, exp = np.frexp(np.abs(bins).max(axis=-1, keepdims=True))
    return papr_db(time_signal((bins * np.ldexp(1.0, np.minimum(-exp, 1023))).astype(np.complex64),
                               cfg))


def fir_gains(fir, cfg):
    """A FIR's gain on each band bin k of the n-sample grid: the DFT sum over
    every tap, sum_t fir[t] exp(-2j pi k t / n), so a tap past n wraps."""
    n = cfg.n_fft * cfg.oversample
    k = band(cfg.n_sk, n)
    return np.exp(-2j * np.pi * (np.outer(k, np.arange(len(fir))) % n) / n) @ fir


def clip(x, level):
    """Hard amplitude clip at ``level``, phases kept; |x| below the larger of
    1e-300 and the least normal number of its precision divides as that number.
    The ratio is computed everywhere; where |x| <= level it is discarded, and
    its overflow there (x == 0 under a large level) is not reported."""
    mag = np.abs(x)
    guard = max(1e-300, np.finfo(mag.dtype).tiny)
    with np.errstate(over="ignore"):
        ratio = level / np.maximum(mag, guard)
    return x * np.where(mag > level, ratio, 1.0)


def clf(bins, clf_cfg, cfg):
    """Rounds of a clip at the input waveform's RMS level, then its occupied bins,
    in the bins' precision."""
    x = time_signal(bins, cfg)
    level = np.sqrt(np.mean(np.abs(x) ** 2, axis=-1, keepdims=True)) * 10.0 ** (
        clf_cfg.clip_ratio_db / 20.0)
    for i in range(clf_cfg.iterations):
        bins = occupied_bins(clip(time_signal(bins, cfg) if i else x, level), cfg)
    return bins


def slm(spectrum, phases, cfg):
    """Exhaustive selective mapping: (first index of the lowest PAPR, that PAPR)."""
    paprs = [waveform_papr_db(extend(spectrum * row, cfg.n_se), cfg) for row in phases]
    return np.argmin(paprs, axis=0), np.min(paprs, axis=0)


def noise(bins, unit_noise, snr_db):
    """The unit noise scaled to the block's SNR: power mean|bins|^2 * 10^(-snr/10) per bin."""
    sigma2 = np.mean(np.abs(bins) ** 2) * 10.0 ** (-float(snr_db) / 10.0)
    return np.sqrt(sigma2 / 2.0) * unit_noise


def fold(values, n_se):
    """Each of the n_sk extended bins added onto the data bin it copies."""
    n_sk = values.shape[-1]
    n_data = n_sk - 2 * n_se
    out = np.zeros(values.shape[:-1] + (n_data,), dtype=values.dtype)
    np.add.at(out, (Ellipsis, (np.arange(n_sk) - n_se) % n_data), values)
    return out


def receive(rx_bins, taps, n_se, scheme):
    """(detected, equalized): matched filter, fold, divide by the folded |taps|^2
    plus ``GAIN_EPS``, de-precode.  Pass the fade times the taps, or, to divide
    the fade out first, ``rx_bins / fade`` and the taps."""
    numer = fold(rx_bins * np.conj(taps), n_se)
    recovered = numer / (fold(np.abs(taps) ** 2, n_se) + GAIN_EPS)
    equalized = np.fft.ifft(recovered, axis=-1) * np.sqrt(recovered.shape[-1])
    return detect(equalized, scheme), equalized


def detect(received, scheme):
    """Minimum-distance detection: each symbol to its nearest point."""
    points = constellation(scheme)
    return points[np.argmin(np.abs(np.asarray(received)[..., None] - points) ** 2, axis=-1)]


def pam_levels(scheme):
    """The PAM levels of the scheme's I (and Q) axis, and the midpoints between them."""
    levels = np.unique(constellation(scheme).real)
    return levels, (levels[1:] + levels[:-1]) / 2


def slice_symbols(received, scheme):
    """Each axis takes the level above the midpoints strictly below it; NaN the lowest."""
    levels, mids = pam_levels(scheme)
    received = np.asarray(received, dtype=np.complex128)
    out = np.empty_like(received)
    for part in ("real", "imag"):
        value = getattr(received, part)
        setattr(out, part, levels[np.searchsorted(mids, np.where(np.isnan(value), -np.inf, value))])
    return out


def qpsk_ser(snr_db, n_data=1, n_se=0):
    """QPSK's SER in AWGN; folding 2*n_se copies gains n_data / (n_data - n_se) in SNR."""
    p_axis = 0.5 * math.erfc(math.sqrt(10 ** (snr_db / 10) * n_data / (n_data - n_se) / 2))
    return 2 * p_axis - p_axis**2


def train_batch(config, indices):
    """``prepare_batch``'s blocks one at a time, and the (modulation, model) pairs drawn."""
    cfg, rows, drawn = config.chain, [], set()
    for idx in indices:
        rng = block_rng(config.seed, Stream.TRAIN_BLOCK, int(idx))
        scheme = SCHEME_NAMES[config.mod_mix[mix_choice(rng, config.mod_mix)][0]]
        snr_db = rng.uniform(*config.snr_range_db)
        model = MODEL_NAMES[config.channel_mix[mix_choice(rng, config.channel_mix)][0]]
        symbols, fade, unit = draw_block(rng, scheme, ChannelCfg(model), cfg.n_data, cfg.n_sk)
        s_ext = extend(precode(symbols), cfg.n_se)
        rows.append((symbols, s_ext, network.build_input(s_ext, snr_db, cfg.n_sk),
                     noise(s_ext, unit, snr_db) / fade, lambda_of(snr_db)))
        drawn.add((scheme, model))
    symbols, s_ext, features, eta, lam = (np.array(column) for column in zip(*rows))
    return BatchPrep(symbols=symbols, s_ext=s_ext, features=features, eta=eta, lam=lam,
                     indices=np.asarray(indices)), drawn


def tail_gradient(coeffs, s_ext, lam, cfg):
    """d/dcoeffs of lam * softplus(PAPR - x0), by an FFT of the waveform's cotangent."""
    x = time_signal(s_ext * taps_from_coeffs(coeffs, cfg.n_sk), cfg)
    power = np.abs(x) ** 2
    peak_at, n_os = np.argmax(power), len(x)
    papr = 10.0 * np.log10(power[peak_at] / power.mean())
    w_papr = lam / (1.0 + np.exp(-SURROGATE_SHARPNESS * (papr - TAIL_X0_DB)))
    c_log = 10.0 / np.log(10.0)
    x_bar = x * (-2.0 * w_papr / (n_os * power.mean()) * c_log)
    x_bar[peak_at] += x[peak_at] * (2.0 * w_papr * c_log / power[peak_at])
    shaped_bar = np.fft.fft(x_bar)[band(cfg.n_sk, n_os)] / np.sqrt(cfg.n_fft)
    return np.real(shaped_bar * np.conj(s_ext)) @ coeff_basis(cfg.n_sk, len(coeffs))


def eval_draw(cfg, seed, mod, indices):
    """Eval's blocks; the extended layout carries the conventional one's first symbols."""
    conv, scheme = conventional_config(cfg), SCHEME_NAMES[mod]
    sym_conv = np.array([
        draw_block(block_rng(seed, Stream.EVAL_DATA, list(SCHEME_NAMES).index(mod), int(idx)),
                   scheme, None, conv.n_data, 0)[0] for idx in indices])
    sym_ext = sym_conv[:, : cfg.n_data]
    return Draw(Transmit(cfg, extend(precode(sym_ext), cfg.n_se), unit_taps(cfg.n_sk), sym_ext),
                Transmit(conv, precode(sym_conv), unit_taps(conv.n_sk), sym_conv))


def eval_channel_draw(eval_cfg, channel_name, mod, snr_i, idx, n):
    """One block's fade and unit noise on n bins in an eval (channel, mod, SNR) cell."""
    rng = block_rng(eval_cfg.seed, Stream.EVAL_CHANNEL, list(MODEL_NAMES).index(channel_name),
                    list(SCHEME_NAMES).index(mod), snr_i, int(idx))
    channel = ChannelCfg(MODEL_NAMES[channel_name], k_factor_db=eval_cfg.rician_k_db)
    return draw_block(rng, None, channel, 0, n)[1:]


def eval_cells(cfg, eval_cfg, rules):
    """The SER grid a cell at a time, each block through its own channel draw."""
    cells = []
    for scheme, channel_name, mod in product(eval_cfg.schemes, eval_cfg.channels, eval_cfg.mods):
        draw = eval_draw(cfg, eval_cfg.seed, mod, range(eval_cfg.n_blocks))
        for snr_i, snr_db in enumerate(eval_cfg.snr_db):
            tx = rules[scheme](draw, snr_db)
            taps, errors = np.broadcast_to(tx.taps, tx.bins.shape), 0
            for idx, bins in enumerate(tx.bins):
                fade, unit = eval_channel_draw(eval_cfg, channel_name, mod, snr_i, idx, cfg.n_sk)
                rx = fade * bins + noise(bins, unit, snr_db)
                detected, _ = receive(rx, fade * taps[idx], tx.cfg.n_se, SCHEME_NAMES[mod])
                errors += int(np.count_nonzero(detected != tx.symbols[idx]))
            papr = np.mean([waveform_papr_db(bins, tx.cfg) for bins in tx.bins])
            cells.append(CellResult(scheme, channel_name, mod, snr_db, errors / tx.symbols.size,
                                    tx.symbols.size, float(papr)))
    return cells


def replay(trace, net, cfg, scheme, seed, period_ms=DEFAULT_PERIOD_MS):
    """adapt's ticks one at a time, each at the latest feedback at or before it."""
    records, fed = [], 0
    for tick in range(int((trace[-1][0] - trace[0][0]) // period_ms) + 1):
        now = trace[0][0] + tick * period_ms
        while fed + 1 < len(trace) and trace[fed + 1][0] <= now:
            fed += 1
        snr_db = trace[fed][1]
        symbols, fade, unit = draw_block(block_rng(seed, Stream.ADAPT_TICK, tick), scheme,
                                         ChannelCfg(), cfg.n_data, cfg.n_sk)
        s_ext = extend(precode(symbols), cfg.n_se)
        coeffs = network.predict_coeffs(net, network.build_input(s_ext, snr_db, cfg.n_sk))
        bins, taps = shape(s_ext, taps_from_coeffs(coeffs, cfg.n_sk))
        detected, _ = receive(fade * bins + noise(bins, unit, snr_db), fade * taps, cfg.n_se,
                              scheme)
        records.append(TickRecord(now, float(snr_db), lambda_of(snr_db),
                                  float(waveform_papr_db(bins, cfg)),
                                  int(np.count_nonzero(detected != symbols)) / cfg.n_data))
    return records
