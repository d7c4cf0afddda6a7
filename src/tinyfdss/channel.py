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
effective taps h * taps, fade and shaping as one per-bin gain.  Draw order per
block is fixed (fade first, then noise) so that a given (config, seed)
reproduces bit-identical sequences.  Drawing (:func:`draw_channel`) is
separate from applying (:func:`add_channel`), so a paired Monte-Carlo can
apply one block's draws to several transmits.

Every generator is ``np.random.default_rng((seed, stream, *index))``
(:func:`block_rng`).  :func:`block_rngs` gives the same generators for many
indices: numpy's ``SeedSequence`` is a fixed hash of uint32 words, so it is
computed for all indices in one numpy pass, and each generator's PCG64 state
follows from its four seed words.  A block's bits are the bytes of
``rng.integers(0, 2, n)``, drawn as raw words in the per-block loop
(:func:`bit_words`) and unpacked for the whole batch at once
(:func:`unpack_bits`), so no stream changes.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .chain import ChainConfig, Stage, SymbolBlock, occupied_bins, time_signal

RICIAN_K_DB = 3.0  # Rician K-factor of every run's training and evaluation


class Stream(enum.IntEnum):
    """Tag of each random stream; every generator comes from :func:`block_rng`.

    A block is a pure function of (seed, stream, index...), so the values
    are part of every output.
    """

    TRAIN_BLOCK = 0  # training block: mod, SNR, channel model, bits, fade, noise
    INIT = 1  # initial network weights
    EPOCH_ORDER = 2  # per-epoch permutation of the training blocks
    ADAPT_TICK = 4  # adapt tick: bits, then noise (its AWGN channel draws no fade)
    SLM_PHASES = 5  # SLM candidate phase vectors
    EVAL_DATA = 30  # eval bits per (modulation, block)
    EVAL_CHANNEL = 31  # eval fade and noise per (channel, mod, SNR, block)


def block_rng(seed: int, stream: Stream, *index: int) -> np.random.Generator:
    """The generator of one (seed, stream, index...) coordinate."""
    return np.random.default_rng((seed, stream, *index))


# numpy's SeedSequence (O'Neill's seed_seq hash, pool of 4 uint32 words) and
# PCG64's 128-bit LCG multiplier
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


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
    computed at the first ``next`` in one numpy pass, and one generator is
    reseeded per index: a yielded generator is valid until the next one is
    taken.  An index outside ``[0, 2**32)`` takes :func:`block_rng`.
    """
    indices = np.asarray(indices)
    shared = [w for value in (seed, stream, *prefix) for w in _uint32_words(int(value))]
    entropy = np.empty((len(shared) + 1, len(indices)), dtype=np.uint32)
    entropy[:-1] = np.array(shared, dtype=np.uint32)[:, None]
    entropy[-1] = indices.astype(np.uint32)  # one word: rows past 32 bits take block_rng
    words = _seed_words(entropy)
    in_range = ((indices >= 0) & (indices <= _MASK32)).tolist()
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for row, index in enumerate(indices):
        if not in_range[row]:
            yield block_rng(seed, stream, *prefix, int(index))
            continue
        w0, w1, w2, w3 = words[row].tolist()
        # pcg64_set_seed: inc from words 2-3, then two LCG steps around words 0-1
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": inc}}
        yield rng


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


MODEL_NAMES = {"awgn": ChannelModel.AWGN, "rayleigh": ChannelModel.RAYLEIGH,
               "rician": ChannelModel.RICIAN}


@dataclass(frozen=True)
class ChannelCfg:
    """The fading model alone: the selector and the keyword-only Rician K-factor in dB."""

    model: ChannelModel = ChannelModel.AWGN
    _: KW_ONLY
    k_factor_db: float = RICIAN_K_DB

    def __post_init__(self):
        if self.model is ChannelModel.RICIAN and not np.isfinite(self.k_factor_db):
            raise ValueError("Rician channel requires a finite K-factor")

    @property
    def k_linear(self) -> float:
        return float(10.0 ** (self.k_factor_db / 10.0))


def draw_fade(model: ChannelModel, rng: np.random.Generator, k_linear: float) -> complex:
    """One unit-power flat fading coefficient; AWGN returns exactly 1."""
    if model is ChannelModel.AWGN:
        return 1.0 + 0.0j
    scatter = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
    if model is ChannelModel.RAYLEIGH:
        return complex(scatter)
    los = np.sqrt(k_linear / (k_linear + 1.0))
    return complex(los + scatter * np.sqrt(1.0 / (k_linear + 1.0)))


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
    power = np.mean(np.abs(bins) ** 2, axis=-1)
    with np.errstate(over="ignore"):
        sigma2 = power * np.reshape(scale, np.shape(snr_db))
    overflow = np.isinf(sigma2) & np.isfinite(power)
    if np.any(overflow):
        raise _below_floor(np.broadcast_to(snr_db, np.shape(sigma2))[overflow].min())
    return sigma2


def _below_floor(snr_db: float) -> ValueError:
    return ValueError(f"snr_db {snr_db} dB is below the floor where its noise power overflows "
                      "a float (about -3082.5 dB for a unit-power block)")


def draw_channel(cfg: ChannelCfg, rng: np.random.Generator, out: np.ndarray) -> complex:
    """One block's draws: returns the fade, then fills ``out`` (2, n) with the
    noise's standard-normal parts, which :func:`unit_noise` turns into noise."""
    h = draw_fade(cfg.model, rng, cfg.k_linear)
    rng.standard_normal(out=out)
    return h


def unit_noise(parts: np.ndarray) -> np.ndarray:
    """Unit complex noise ``re + 1j*im`` from standard-normal parts of shape
    ``(..., 2, n)``, drawn real first: ``parts[..., 0, :]`` is ``re``."""
    return parts[..., 0, :] + 1j * parts[..., 1, :]


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
    parts = np.empty((2, chain_cfg.n_sk))
    h = draw_channel(cfg, rng, parts)
    rx = time_signal(add_channel(bins, h, unit_noise(parts), snr_db), chain_cfg,
                     len(signal) // chain_cfg.n_fft)
    return SymbolBlock(Stage.RECEIVED, rx), h
