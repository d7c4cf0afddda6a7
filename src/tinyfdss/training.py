"""Offline training: dataset generation, differentiable chain loss, AdamW loop.

Every block is a pure function of (seed, block index), so runs are
bit-reproducible regardless of batching.  Its generator,
``block_rng(seed, Stream.TRAIN_BLOCK, index)``, draws in this order: the
modulation (one ``random()`` against the mix's CDF), the SNR (``uniform``),
the channel model (one ``random()``), the bits, then ``draw_channel``'s fade
and the per-bin noise's standard-normal parts, real then imaginary
(``unit_noise``).  ``prepare_batch`` seeds the batch's generators in one pass
(``block_rngs``) and its per-block loop only draws: the mixes' indices by
bisecting a list CDF, the bits as raw words (``channel.bit_words``), fade and
noise by ``channel.draw_channel``.  The words of each modulation's rows are
unpacked at once (``channel.unpack_bits``) into the bytes of
``rng.integers(0, 2, n)``, and symbols, lambda (one ``LambdaTable.lookup``
of the batch's SNRs), noise scaling and features run on the whole batch.
The noise is the channel's own, ``channel.noise_term`` at the block's SNR on
its occupied bins, held fixed and fade-compensated.  Every stage is
row-independent, so ``train`` prepares ``PREP_BATCHES`` whole batches per
call and slices each step's batch out of them: each Adam step sees the rows,
and the bytes, of its own batch prepared alone.

The loss per block is mse + lambda(snr) * softplus(papr - x0), with the
lambda looked up per block's drawn SNR.  The chain is differentiated in closed
form down to the polynomial coefficients: the PAPR path routes the gradient
through each block's peak sample (max subgradient), and needs no transform of
its own (see :func:`chain_loss`); the symbol-error path treats the drawn
noise as constant and differentiates through shaping, power normalization,
matched filtering, extension folding, gain normalization, and inverse
precoding.

Transmit power is normalized per block (shaped occupied power equals the
unshaped occupied power) so that scaling the taps can neither buy SNR nor
change PAPR; the receiver equalizes with the known effective taps.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from . import network
from .adaptation import LambdaTable
from .chain import (
    GAIN_EPS,
    SCHEME_NAMES,
    ChainConfig,
    _matched_fold,
    centered_band,
    deprecode,
    extend,
    map_symbols,
    precode,
    shape_and_normalize,
    time_signal,
)
from .channel import (MODEL_NAMES, ChannelCfg, Stream, bit_words, block_rng, block_rngs,
                      draw_channel, noise_term, unit_noise, unpack_bits)
from .filters import coeff_basis, taps_from_coeffs
from .metrics import SURROGATE_SHARPNESS, TAIL_X0_DB, surrogate_blocks
from .network import HISTORY_COLUMNS

OUT_INIT_SCALE = 0.3  # ``init_params`` scale of the output weights in every run
# whole batches ``train`` prepares per ``prepare_batch`` call, chosen by
# measuring perfbench train: 2 halves the calls at an unchanged peak RSS;
# 4 reads ~3% more blocks/s than 2, but adds ~1.7 MB (+3.7%) to the peak
PREP_BATCHES = 2


class TrainingDivergedError(RuntimeError):
    """Raised when the loss turns non-finite; carries diagnostic context."""


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the offline training run (desk-scale defaults)."""

    n_blocks: int = 10_000
    batch_size: int = 32
    epochs: int = 5
    lr: float = 1e-3
    weight_decay: float = 1e-4
    prune_mode: str = "target"  # "target" | "none"
    target_sparsity: float = 0.8
    snr_range_db: tuple[float, float] = (0.0, 20.0)
    channel_mix: tuple[tuple[str, float], ...] = (("awgn", 0.5), ("rayleigh", 0.5))
    mod_mix: tuple[tuple[str, float], ...] = (("qpsk", 0.5), ("qam16", 0.5))
    hidden_width: int = network.HIDDEN_DEFAULT
    seed: int = 0
    chain: ChainConfig = field(default_factory=ChainConfig)

    def __post_init__(self):
        if self.n_blocks <= 0 or self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("n_blocks, batch_size, and epochs must be positive")
        if len(self.snr_range_db) != 2 or not np.all(np.isfinite(self.snr_range_db)):
            raise ValueError(
                f"snr_range_db must be two finite values, got {list(self.snr_range_db)}"
            )
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if not 0.0 <= self.target_sparsity < 1.0:
            raise ValueError(f"target_sparsity must be in [0, 1), got {self.target_sparsity}")
        if self.snr_range_db[0] > self.snr_range_db[1]:
            raise ValueError(f"snr range out of order: {self.snr_range_db}")
        if self.prune_mode not in ("target", "none"):
            raise ValueError(f"unknown prune_mode {self.prune_mode!r}")
        if self.hidden_width < 0:
            raise ValueError(f"hidden_width must be >= 0, got {self.hidden_width}")
        if self.prune_mode == "target":
            shapes = network._layer_shapes(self.chain.n_sk + 1, self.hidden_width,
                                           network.OUT_DIM)
            n_weights = sum(fan_out * fan_in for fan_out, fan_in in shapes)
            if network.live_target(n_weights, self.target_sparsity) == 0:
                raise ValueError(f"target_sparsity must leave at least one of the "
                                 f"{n_weights} weights live, got {self.target_sparsity}")
        for mix, table in (("channel_mix", MODEL_NAMES), ("mod_mix", SCHEME_NAMES)):
            pairs = getattr(self, mix)
            for name, weight in pairs:
                if name not in table:
                    raise ValueError(f"unknown {mix} entry {name!r}")
                if weight < 0.0:
                    raise ValueError(f"{mix} weight of {name!r} must be >= 0, got {weight}")
            total = sum(w for _, w in pairs)
            if not abs(total - 1.0) <= 1e-9:
                raise ValueError(f"{mix} weights sum to {total}, expected 1")


def config_hash(config: TrainConfig) -> int:
    """Stable 64-bit hash of the canonical JSON form of the config."""
    blob = json.dumps(asdict(config), sort_keys=True).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


@dataclass
class Checkpoint:
    """Trained parameters, their int8 twin, and the run's provenance and history."""

    params: network.NetParams
    qnet: network.QuantizedNet
    epoch: int
    config_hash: int
    history: np.ndarray  # one row per epoch, HISTORY_COLUMNS order
    wall_seconds: np.ndarray | None = None  # per-epoch, reported but not serialized

    def deployed_net(self, use_quantized: bool) -> network.NetParams | network.QuantizedNet:
        """The net a deployment runs: the int8 twin if asked for."""
        return self.qnet if use_quantized else self.params


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    network.save_net(path, ckpt.params, ckpt.qnet, ckpt.epoch, ckpt.config_hash,
                     ckpt.history)


def load_checkpoint(path) -> Checkpoint:
    return Checkpoint(**network.load_net(path))


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

def _mix_sampler(mix: tuple[tuple[str, float], ...]):
    """Index sampler of a mix: one ``rng.random()``, the same draw and stream
    step as ``rng.choice(len(mix), p=w / w.sum())`` with the mix's weights.
    The CDF is bisected as a list of floats: ``searchsorted(side="right")``'s
    index, without a numpy call per block."""
    weights = np.array([w for _, w in mix])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    return lambda rng: bisect_right(cdf, rng.random())


@dataclass
class BatchPrep:
    """Fixed per-batch quantities the loss is differentiated against."""

    symbols: np.ndarray  # (B, n_data) complex
    s_ext: np.ndarray  # (B, n_sk) complex
    features: np.ndarray  # (B, input_dim)
    eta: np.ndarray  # (B, n_sk) complex fixed noise (already fade-compensated)
    lam: np.ndarray  # (B,)
    indices: np.ndarray  # (B,) block indices, for diagnostics

    def rows(self, rows: slice) -> BatchPrep:
        """The batch of a run of rows: every field sliced alike."""
        return BatchPrep(**{name: value[rows] for name, value in vars(self).items()})


def prepare_batch(
    config: TrainConfig, indices: np.ndarray, table: LambdaTable
) -> BatchPrep:
    """Rebuild blocks for the given dataset indices (deterministic per index)."""
    cfg = config.chain
    batch = len(indices)
    schemes = [SCHEME_NAMES[name] for name, _ in config.mod_mix]
    n_bits = [cfg.n_data * scheme.bits_per_symbol for scheme in schemes]
    channels = [ChannelCfg(MODEL_NAMES[name]) for name, _ in config.channel_mix]
    pick_scheme, pick_channel = _mix_sampler(config.mod_mix), _mix_sampler(config.channel_mix)
    lo, hi = config.snr_range_db
    rows_of = [[] for _ in schemes]  # batch rows of each scheme
    words = []  # each block's bits as raw words
    snr = np.empty(batch)
    h = np.empty(batch, dtype=np.complex128)
    parts = np.empty((batch, 2, cfg.n_sk))  # the noise's standard-normal parts
    for row, rng in enumerate(block_rngs(config.seed, Stream.TRAIN_BLOCK, indices=indices)):
        k = pick_scheme(rng)
        rows_of[k].append(row)
        snr[row] = rng.uniform(lo, hi)
        channel = channels[pick_channel(rng)]
        words.append(bit_words(rng, n_bits[k]))
        h[row] = draw_channel(channel, rng, parts[row])
    symbols = np.empty((batch, cfg.n_data), dtype=np.complex128)
    for scheme, n, rows in zip(schemes, n_bits, rows_of):
        if rows:
            symbols[rows] = map_symbols(unpack_bits(np.stack([words[row] for row in rows]), n),
                                        scheme)
    s_ext = extend(precode(symbols), cfg.n_se)
    # the channel's noise on the unshaped bins, whose power the normalized
    # transmit keeps, divided by the flat fade: the receiver's effective taps
    # h * taps see the same noise, up to where GAIN_EPS sits
    eta = noise_term(s_ext, unit_noise(parts), snr) / h[:, None]
    features = network.build_input(s_ext, snr, expected_len=cfg.n_sk)
    return BatchPrep(
        symbols=symbols, s_ext=s_ext, features=features, eta=eta,
        lam=table.lookup(snr), indices=np.asarray(indices),
    )


# ---------------------------------------------------------------------------
# Differentiable chain loss
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _twiddles(n: int) -> np.ndarray:
    """The row e^(-j2 pi m / n), m = 0..n-1 (cached, read-only)."""
    row = np.exp(-2j * np.pi * np.arange(n) / n)
    row.setflags(write=False)
    return row


@dataclass
class LossTerms:
    loss: float
    mse_term: float
    tail_term: float
    mse: np.ndarray  # (B,)


def chain_loss(
    coeffs: np.ndarray,
    prep: BatchPrep,
    cfg: ChainConfig,
    want_grad: bool = True,
) -> tuple[LossTerms, np.ndarray | None]:
    """Mean block loss and its gradient w.r.t. the (B, n_coeffs) coefficients.

    Forward: coeffs -> taps -> shaped bins; PAPR on the oversampled grid
    (batch mean of the softplus tail surrogate, lambda-weighted per block);
    symbol MSE through power normalization, fixed noise, matched filter,
    folding, and inverse precoding.  Backward is exact reverse mode with the
    noise held constant and the max subgradient at each block's peak sample.

    The PAPR's cotangent on the waveform, ``x_bar``, is the waveform times a
    per-block scalar ``a`` plus one impulse ``c`` at the peak sample ``p``, so
    its band bins have a closed form: ``a * (n_os / n_fft) * shaped + c *
    e^(-j2 pi k p / n_os) / sqrt(n_fft)`` over the band's FFT-order indices
    ``k``, the exponential read from one cached row of ``n_os`` twiddles.
    No ``x_bar`` grid is built: a step runs one transform of the oversampled
    grid, the forward IDFT.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    batch = coeffs.shape[0]
    n_sk = cfg.n_sk
    if not np.all(np.isfinite(coeffs)):
        bad = prep.indices[~np.all(np.isfinite(coeffs), axis=-1)]
        raise TrainingDivergedError(
            f"non-finite coefficients at block indices {bad.tolist()[:8]}"
        )
    # a diverged net overflows here; the finite-loss check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        taps = taps_from_coeffs(coeffs, n_sk)

        s_ext = prep.s_ext
        shaped = s_ext * taps

        # --- PAPR path (scale-invariant, so it runs on the unnormalized bins)
        x = time_signal(shaped, cfg)
        n_os = x.shape[-1]
        power = np.abs(x) ** 2
        peak_idx = np.argmax(power, axis=-1)
        rows = np.arange(batch)
        peak = power[rows, peak_idx]
        mean_pow = power.mean(axis=-1)
        papr = 10.0 * np.log10(peak / mean_pow)
        softplus = surrogate_blocks(papr)

        # --- symbol-error path at fixed transmit power
        bins, taps_eff, g = shape_and_normalize(s_ext, taps)
        numer, gain, recovered = _matched_fold(bins + prep.eta, taps_eff, cfg.n_se)
        s_hat = deprecode(recovered)
        err = s_hat - prep.symbols
        mse = np.mean(np.abs(err) ** 2, axis=-1)

        per_block = mse + prep.lam * softplus
        loss = float(np.mean(per_block))
    terms = LossTerms(
        loss=loss,
        mse_term=float(np.mean(mse)),
        tail_term=float(np.mean(prep.lam * softplus)),
        mse=mse,
    )
    if not np.isfinite(loss):
        bad = prep.indices[~np.isfinite(per_block)]
        raise TrainingDivergedError(
            f"non-finite loss at block indices {bad.tolist()[:8]}"
        )
    if not want_grad:
        return terms, None

    # --- backward: PAPR tail term
    z = SURROGATE_SHARPNESS * (papr - TAIL_X0_DB)
    w_papr = prep.lam / (1.0 + np.exp(-z)) / batch  # dLoss/dpapr_b
    c_log = 10.0 / np.log(10.0)
    # x_bar = a * x + c at the peak sample: its FFT over the band is a times
    # the shaped bins (which x interpolates) plus c times one twiddle row
    a = -2.0 * w_papr / (n_os * mean_pow) * c_log
    c = x[rows, peak_idx] * (2.0 * w_papr * c_log / peak)
    band = centered_band(n_sk, n_os)
    shaped_bar = ((a * (n_os / cfg.n_fft))[:, None] * shaped
                  + (c / np.sqrt(cfg.n_fft))[:, None]
                  * _twiddles(n_os)[band * peak_idx[:, None] % n_os])
    d_taps = np.real(shaped_bar * np.conj(s_ext))

    # --- backward: mse term, first w.r.t. the effective taps u = g * taps
    shat_bar = err * (2.0 / (batch * cfg.n_data))
    rec_bar = np.fft.fft(shat_bar, axis=-1) * (1.0 / np.sqrt(cfg.n_data))
    t_bar = rec_bar * (1.0 / (gain + GAIN_EPS))
    g_bar = -np.real(rec_bar * np.conj(numer)) / (gain + GAIN_EPS) ** 2
    # unfold: every extended position inherits its data bin's cotangent
    t_bar_ext = extend(t_bar, cfg.n_se)
    g_bar_ext = extend(g_bar, cfg.n_se)
    dt_du = 2.0 * taps_eff * s_ext + prep.eta
    d_u = np.real(np.conj(t_bar_ext) * dt_du) + 2.0 * taps_eff * g_bar_ext
    # through the power normalization u = g(taps) * taps
    p_shaped = np.mean(np.abs(shaped) ** 2, axis=-1)
    s_ext_pow = np.abs(s_ext) ** 2
    du_dot_f = np.sum(d_u * taps, axis=-1)
    d_taps += g[:, None] * d_u
    d_taps -= (
        (du_dot_f * g / (n_sk * np.maximum(p_shaped, 1e-300)))[:, None]
        * taps
        * s_ext_pow
    )

    basis = coeff_basis(n_sk, coeffs.shape[-1])
    return terms, d_taps @ basis


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def _batches(config: TrainConfig, order: np.ndarray, table: LambdaTable):
    """Each step's batch of the epoch's ``order``, in order: ``PREP_BATCHES``
    whole batches are prepared per ``prepare_batch`` call, then sliced.  A
    row's bytes do not depend on the batch it is prepared in."""
    size = PREP_BATCHES * config.batch_size
    for lo in range(0, len(order), size):
        chunk = prepare_batch(config, order[lo : lo + size], table)
        for at in range(0, len(chunk.indices), config.batch_size):
            yield chunk.rows(slice(at, at + config.batch_size))


def _sparsity(params: network.NetParams) -> float:
    total = network.total_weight_count(params)
    return 1.0 - network.live_weight_count(params) / total


def train(config: TrainConfig, progress: bool = False) -> Checkpoint:
    """Run the offline loop: batched chain loss, AdamW, epoch-end pruning.

    Returns a checkpoint whose parameters are float32-representable so that a
    save -> load -> forward round trip is bit-exact.  The quantized twin is
    produced once from the final pruned weights.
    """
    table = LambdaTable()
    params = network.init_params(
        hidden_width=config.hidden_width,
        rng=block_rng(config.seed, Stream.INIT),
        input_dim=config.chain.n_sk + 1,
        out_scale=OUT_INIT_SCALE,
    )
    opt = network.AdamState(lr=config.lr, weight_decay=config.weight_decay)
    history = np.zeros((config.epochs, len(HISTORY_COLUMNS)))
    wall = np.zeros(config.epochs)

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = block_rng(config.seed, Stream.EPOCH_ORDER, epoch).permutation(config.n_blocks)
        losses, mses, tails = [], [], []
        for prep in _batches(config, order, table):
            coeffs, cache = network.forward_cached(params, prep.features)
            try:
                terms, d_coeffs = chain_loss(coeffs, prep, config.chain)
            except TrainingDivergedError as exc:
                norms = [
                    (float(np.linalg.norm(w)), float(np.linalg.norm(b)))
                    for w, b, _ in params.layers()
                ]
                raise TrainingDivergedError(
                    f"{exc}; parameter norms (weights, bias) per layer {norms}"
                ) from exc
            grads = network.backward(params, cache, d_coeffs)
            network.adamw_step(params, grads, opt)
            losses.append(terms.loss)
            mses.append(terms.mse_term)
            tails.append(terms.tail_term)
        if config.prune_mode == "target":
            ramp = config.target_sparsity * (epoch + 1) / config.epochs
            network.prune_to(params, ramp)
        wall[epoch] = time.perf_counter() - t0
        history[epoch] = (
            epoch,
            float(np.mean(losses)),
            float(np.median(losses)),
            float(np.mean(mses)),
            float(np.mean(tails)),
            _sparsity(params),
        )
        if progress:
            print(
                f"epoch {epoch}: loss {history[epoch, 1]:.5f} "
                f"(median {history[epoch, 2]:.5f}, mse {history[epoch, 3]:.5f}, "
                f"tail {history[epoch, 4]:.5f}) "
                f"sparsity {history[epoch, 5]:.2f} [{wall[epoch]:.1f}s]"
            )

    # make the stored parameters float32-representable for bit-exact round trips
    params = network.NetParams.from_layers([
        tuple(t.astype(np.float32).astype(np.float64) for t in layer)
        for layer in params.layers()
    ])
    network.apply_masks(params)
    qnet = network.quantize(params)
    return Checkpoint(
        params=params,
        qnet=qnet,
        epoch=config.epochs,
        config_hash=config_hash(config),
        history=history,
        wall_seconds=wall,
    )
