"""Flat-fading and AWGN channel models with deterministic seeding.

SNR convention: the SNR is the ratio of average occupied-subcarrier signal
power to noise power per subcarrier, as in DFT-s-OFDM/SC-FDMA.  The channel
acts on the n_sk occupied bins, so the noise is in-band only, and
:func:`noise_power` is the one rule that turns an SNR into noise and the one
check that rejects a non-finite SNR: every symbol-error path (training's
fixed noise, eval's grid, adapt's ticks and the single-block boundary) takes
its noise from :func:`noise_term` at an SNR it passes as an argument.  A
:class:`ChannelCfg` is the fading model alone.

Fading is flat per block: a single coefficient h with E[|h|^2] = 1 multiplies
the whole block; the receiver knows it (genie-aided) and equalizes with the
effective taps h * taps, fade and shaping as one per-bin gain.  Drawing
(:func:`draw_blocks`) is separate from applying (:func:`add_channel`), so a
paired Monte-Carlo can apply one block's draws to several transmits.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable, Iterator
from dataclasses import KW_ONLY, dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .chain import (ChainConfig, ModScheme, Stage, SymbolBlock, map_symbols, occupied_bins,
                    time_signal)

RICIAN_K_DB = 3.0  # Rician K-factor of every run's training and evaluation


class Stream(enum.IntEnum):
    """Tag of each random stream; every generator comes from :func:`block_rng`.

    A block is a pure function of (seed, stream, index...), so the values
    are part of every output.  Each comment lists the stream's draws in
    order; a block stream draws through :func:`draw_blocks`.
    """

    TRAIN_BLOCK = 0  # per block: mod, SNR, channel model, bits, fade, noise
    INIT = 1  # initial network weights
    EPOCH_ORDER = 2  # per-epoch permutation of the training blocks
    ADAPT_TICK = 4  # per tick: bits, noise (its AWGN channel draws no fade)
    SLM_PHASES = 5  # SLM candidate phase vectors
    EVAL_DATA = 30  # per (modulation, block): bits
    EVAL_CHANNEL = 31  # per (channel, mod, SNR, block): fade, noise


def block_rng(seed: int, stream: Stream, *index: int) -> np.random.Generator:
    """The generator of one (seed, stream, index...) coordinate."""
    return np.random.default_rng((seed, stream, *index))


# numpy's SeedSequence: O'Neill's seed_seq hash, pool of 4 uint32 words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1


def _uint32_words(value: int) -> list[int]:
    """An int's entropy words as ``SeedSequence`` takes them: 32 bits each,
    least significant first, one word for 0."""
    if value < 0:
        raise ValueError(f"seed entries must be non-negative, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The running constant of ``count`` hash steps, before and after each
    step's update, as (count, 1) uint32 columns: it does not depend on the data."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One hash step per row; uint32 arrays wrap without a warning."""
    values = (values ^ xor) * mult
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = _MIX_MULT_L * x - _MIX_MULT_R * y
    return x ^ (x >> 16)


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(column).generate_state(4, np.uint64)`` for each column.

    ``entropy`` holds one seed's uint32 entropy words per column.  Every step
    that numpy runs word by word runs here on all seeds at once, and on all
    the pool words it updates with one source word.  Returns (n_seeds, 4).
    """
    n_words, n = entropy.shape
    n_extra = max(n_words - _POOL_SIZE, 0)
    xor, mult = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE**2 + _POOL_SIZE * n_extra)
    pool = np.zeros((_POOL_SIZE, n), dtype=np.uint32)  # zeros past the entropy's end
    pool[:n_words] = entropy[:_POOL_SIZE]
    pool = _hash(pool, xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):  # every pool word into every other
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k:k + len(dst)], mult[k:k + len(dst)]))
        k += len(dst)
    for word in entropy[_POOL_SIZE:]:  # then each further word into all of them
        pool = _mix(pool, _hash(word, xor[k:k + _POOL_SIZE], mult[k:k + _POOL_SIZE]))
        k += _POOL_SIZE
    xor, mult = _hash_consts(_INIT_B, _MULT_B, 8)
    state = _hash(np.tile(pool, (2, 1)), xor, mult)  # 8 uint32 words per seed
    return np.ascontiguousarray((state[0::2] | state[1::2].astype(np.uint64) << 32).T)


def block_rngs(
    seed: int, stream: Stream, *prefix: int, indices: Iterable[int]
) -> Iterator[np.random.Generator]:
    """``block_rng(seed, stream, *prefix, i)`` for each ``i`` of ``indices``, in order.

    Each generator's state equals that of :func:`block_rng` for its
    coordinate, so its draws are the same.  The seed words of every index are
    computed at the first ``next`` in one numpy pass, and numpy's PCG64 seeds
    each generator from its index's words (:func:`_words_seed`).  An index
    outside ``[0, 2**32)`` takes :func:`block_rng`.
    """
    indices = np.asarray(indices)
    shared = [w for value in (seed, stream, *prefix) for w in _uint32_words(int(value))]
    entropy = np.empty((len(shared) + 1, len(indices)), dtype=np.uint32)
    entropy[:-1] = np.array(shared, dtype=np.uint32)[:, None]
    entropy[-1] = indices.astype(np.uint32)  # one word: rows past 32 bits take block_rng
    words = _seed_words(entropy)
    in_range = ((indices >= 0) & (indices <= _MASK32)).tolist()
    generator, pcg64, words_seed = np.random.Generator, np.random.PCG64, _words_seed()
    for row, index in enumerate(indices):
        if in_range[row]:
            yield generator(pcg64(words_seed(words[row])))
        else:
            yield block_rng(seed, stream, *prefix, int(index))


@lru_cache(maxsize=None)
def _words_seed() -> type:
    """A seed sequence of given state words, for ``PCG64``.

    ``PCG64(s)`` seeds itself from ``s.generate_state(4, np.uint64)`` by
    numpy's ``pcg64_set_seed``, so one that returns a row of
    :func:`_seed_words` gives ``block_rng``'s generator without hashing again.
    Made on first use: importing the package loads no ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeed(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words  # PCG64 asks for 4 uint64 words, and nothing else asks

    return WordsSeed


def bit_words(rng: np.random.Generator, n_bits: int) -> np.ndarray:
    """The ``ceil(n_bits / 2)`` raw PCG64 words that ``rng.integers(0, 2, n_bits)`` reads.

    For a range of 2, numpy's bounded-integer rule (Lemire's) never rejects:
    each bit is the top bit of one 32-bit half of a word, the low half first.
    So these words, through :func:`unpack_bits`, give that call's bits, and
    the generator's next 64-bit draw (``random_raw``, ``standard_normal``)
    is the same.  For odd ``n_bits`` the unused high half is dropped, where
    ``integers`` would keep it for a later 32-bit draw; no caller makes one.
    """
    return rng.bit_generator.random_raw((n_bits + 1) // 2)


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """The int64 bits of :func:`bit_words` rows ``(..., ceil(n_bits / 2))``: ``(..., n_bits)``."""
    halves = np.ascontiguousarray(words, dtype="<u8").view("<u4")  # per word: low half, then high
    return (halves[..., :n_bits] >> 31).astype(np.int64)


class ChannelModel(enum.Enum):
    AWGN = "awgn"
    RAYLEIGH = "rayleigh"
    RICIAN = "rician"


# in member order: a name's position is a coordinate of eval's block streams
MODEL_NAMES = {model.value: model for model in ChannelModel}


@dataclass(frozen=True)
class ChannelCfg:
    """The fading model alone: the selector and the keyword-only Rician K-factor in dB."""

    model: ChannelModel = ChannelModel.AWGN
    _: KW_ONLY
    k_factor_db: float = RICIAN_K_DB

    def __post_init__(self):
        if self.model is ChannelModel.RICIAN:
            check_decibels("k_factor_db", self.k_factor_db, 10)


def check_decibels(name: str, db: float, per: int) -> None:
    """``ValueError`` naming ``name`` unless ``db`` is finite and its linear
    form ``10 ** (db / per)`` (``per`` 10 for a power ratio, 20 for an
    amplitude ratio) is a finite float: up to about 3082.5 dB for a power
    ratio and 6165.1 dB for an amplitude ratio."""
    if not np.isfinite(db):
        raise ValueError(f"{name} must be finite, got {db}")
    try:
        10.0 ** (float(db) / per)
    except OverflowError:
        bound = per * np.log10(np.finfo(float).max)
        raise ValueError(f"{name} must be at most {bound:.1f} dB, where 10**({name}/{per}) "
                         f"overflows a float, got {db}") from None


def _fades(cfg: ChannelCfg, normals: np.ndarray) -> np.ndarray:
    """Unit-power flat fades from standard-normal pairs ``normals (..., 2)``.

    A pair is the scatter's real part, then its imaginary part: Rayleigh
    ``(n1 + 1j*n2) / sqrt(2)``, Rician ``sqrt(K/(K+1)) + sqrt(1/(K+1)) *
    scatter``; AWGN's fades are exactly 1.  Each part is divided by ``sqrt(2)``
    on its own, as Python's complex division does; numpy multiplies a complex
    array by the reciprocal, which can differ in the last bit.
    """
    shape = normals.shape[:-1]
    if cfg.model is ChannelModel.AWGN:
        return np.ones(shape, dtype=np.complex128)
    re, im = normals[..., 0] / np.sqrt(2.0), normals[..., 1] / np.sqrt(2.0)
    if cfg.model is ChannelModel.RICIAN:
        k = 10.0 ** (cfg.k_factor_db / 10.0)
        scale = np.sqrt(1.0 / (k + 1.0))
        re, im = np.sqrt(k / (k + 1.0)) + re * scale, im * scale
    fades = np.empty(shape, dtype=np.complex128)
    fades.real, fades.imag = re, im
    return fades


def draw_fade(cfg: ChannelCfg, rng: np.random.Generator) -> complex:
    """One :func:`_fades` fade from two standard normals; AWGN draws none."""
    if cfg.model is ChannelModel.AWGN:
        return 1.0 + 0.0j
    return complex(_fades(cfg, rng.standard_normal(2)))


def noise_power(bins: np.ndarray, snr_db: float | np.ndarray) -> float | np.ndarray:
    """Noise power per occupied bin: ``mean|bins|^2 * 10**(-snr/10)``.

    One power per block (last axis); a single 1-D block gives a float.
    ``snr_db`` is one SNR for every block or one per block, and each must be
    finite and above the floor where the noise power overflows a float:
    about -3082.5 dB for a unit-power block, where ``10**(-snr/10)`` itself
    overflows, and higher for a block of more power.
    """
    if not np.all(np.isfinite(snr_db)):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    # Python's float pow per SNR: numpy's vectorized power may differ in the
    # last bit, and a block's noise must not depend on the batch it is in
    snrs = np.ravel(snr_db).tolist()
    try:
        scale = [10.0 ** (-snr / 10.0) for snr in snrs]
    except OverflowError:
        raise _below_floor(min(snrs)) from None
    # rows read C-ordered: a row's sum must not follow its batch's layout
    power = np.mean(np.abs(np.ascontiguousarray(bins)) ** 2, axis=-1)
    with np.errstate(over="ignore"):
        sigma2 = power * np.reshape(scale, np.shape(snr_db))
    overflow = np.isinf(sigma2) & np.isfinite(power)
    if np.any(overflow):
        raise _below_floor(np.broadcast_to(snr_db, np.shape(sigma2))[overflow].min())
    return sigma2


def _below_floor(snr_db: float) -> ValueError:
    return ValueError(f"snr_db {snr_db} dB is below the floor where its noise power overflows "
                      "a float (about -3082.5 dB for a unit-power block)")


def unit_noise(parts: np.ndarray) -> np.ndarray:
    """Unit complex noise ``re + 1j*im`` from standard-normal parts of shape
    ``(..., 2, n)``, drawn real first: ``parts[..., 0, :]`` is ``re``."""
    noise = np.empty(parts.shape[:-2] + parts.shape[-1:], dtype=np.complex128)
    noise.real, noise.imag = parts[..., 0, :], parts[..., 1, :]
    return noise


def draw_blocks(rngs: Iterable[np.random.Generator], n_blocks: int, n_symbols: int, n_noise: int,
                head: Callable[[np.random.Generator], tuple[ModScheme | None, ChannelCfg | None]]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block from each of the next ``n_blocks`` generators of ``rngs``.

    Every block stream draws in this order, per generator:

    1. ``head(rng)``: the block's own leading draws; it returns the block's
       modulation and channel, and None skips that kind of draw;
    2. the bits of ``n_symbols`` symbols of the modulation, the bytes of
       ``rng.integers(0, 2, n)``, taken as raw words (:func:`bit_words`);
    3. the channel's fade: two standard normals, none for AWGN;
    4. ``n_noise`` standard normals for the noise's real parts, then as many
       for its imaginary parts.

    Steps 3 and 4 are one ``standard_normal`` call per block.  Returns
    ``(symbols (B, n_symbols), fades (B, 1), unit noise (B, n_noise))``.
    Each modulation's rows are unpacked and mapped at once, and each
    channel's fades are computed at once by :func:`_fades`; a block that
    skips a kind of draw has zero symbols, or a fade of 1 and zero noise.
    A stream of fewer than ``n_blocks`` generators raises ``ValueError``.
    """
    kinds, words, channels = [], [], []  # per block; None where it draws none of that kind
    normals = np.zeros((n_blocks, 2 + 2 * n_noise))  # per block: the fade's pair, the noise's
    for row, rng in enumerate(islice(rngs, n_blocks)):
        scheme, channel = head(rng)
        kinds.append(scheme)
        words.append(None if scheme is None else bit_words(rng, n_symbols * scheme.bits_per_symbol))
        channels.append(channel)
        if channel is not None:
            rng.standard_normal(out=normals[row, 2 if channel.model is ChannelModel.AWGN else 0:])
    if len(kinds) < n_blocks:
        raise ValueError(f"asked for {n_blocks} blocks, but the generator stream "
                         f"ended after {len(kinds)}")
    if kinds and kinds[0] is not None and kinds.count(kinds[0]) == n_blocks:
        # one modulation in every row: its mapped rows are the result, with no copy
        bits = unpack_bits(np.stack(words), n_symbols * kinds[0].bits_per_symbol)
        symbols = map_symbols(bits, kinds[0])
    else:
        symbols = np.zeros((n_blocks, n_symbols), dtype=np.complex128)
        for scheme in set(kinds) - {None}:
            rows = [row for row, kind in enumerate(kinds) if kind is scheme]
            bits = unpack_bits(np.stack([words[row] for row in rows]),
                               n_symbols * scheme.bits_per_symbol)
            symbols[rows] = map_symbols(bits, scheme)
    groups = {}  # rows per config object: equal configs in separate objects are separate groups
    for row, channel in enumerate(channels):
        if channel is not None:
            groups.setdefault(id(channel), []).append(row)
    fades = np.ones(n_blocks, dtype=np.complex128)
    for rows in groups.values():
        fades[rows] = _fades(channels[rows[0]], normals[rows, :2])
    return symbols, fades[:, None], unit_noise(normals[:, 2:].reshape(n_blocks, 2, n_noise))


def noise_term(bins: np.ndarray, noise: np.ndarray, snr_db: float | np.ndarray) -> np.ndarray:
    """``sqrt(sigma2/2)*noise``, with sigma2 = :func:`noise_power` of each block.

    ``bins`` is one block or a batch of blocks along the leading axes, and
    ``noise`` unit complex noise of the same shape.
    """
    return np.sqrt(noise_power(bins, snr_db) / 2.0)[..., None] * noise


def add_channel(
    bins: np.ndarray, h: complex | np.ndarray, noise: np.ndarray, snr_db: float | np.ndarray
) -> np.ndarray:
    """``h*bins + noise_term(bins, noise, snr_db)`` on the occupied bins.

    ``h`` broadcasts against ``bins`` (one fade per block: shape ``(..., 1)``),
    and ``snr_db`` is one SNR for every block or one per block.
    """
    return h * bins + noise_term(bins, noise, snr_db)


def apply_channel(
    signal: SymbolBlock,
    cfg: ChannelCfg,
    snr_db: float,
    chain_cfg: ChainConfig,
    rng: np.random.Generator,
) -> tuple[SymbolBlock, complex]:
    """Pass one time-domain block through the channel; returns (received, fade).

    The block's occupied bins go through :func:`add_channel` at ``snr_db``,
    and the received bins are synthesized again at the block's own
    oversampling, so the received noise is in-band only and each occupied bin
    sees that SNR at any oversampling.  The fade is returned for the receiver's
    effective taps ``fade * taps`` (genie-aided).  Monte-Carlo loops pass one
    generator per block, from :func:`block_rng` with a :class:`Stream` member
    and the block index.
    """
    if signal.stage is not Stage.TIME_DOMAIN:
        raise ValueError(f"expected TIME_DOMAIN block, got {signal.stage.name}")
    bins = occupied_bins(signal.values, chain_cfg)
    _, fades, noise = draw_blocks([rng], 1, 0, chain_cfg.n_sk, lambda rng: (None, cfg))
    h = fades[0, 0]
    rx = time_signal(add_channel(bins, h, noise[0], snr_db), chain_cfg,
                     len(signal) // chain_cfg.n_fft)
    return SymbolBlock(Stage.RECEIVED, rx), h
