"""Tiny dense network that maps block features to filter polynomial coefficients.

Architecture: input (240 bin magnitudes + scaled SNR) -> hidden ReLU layer ->
linear output of polynomial coefficients.  ``hidden_width = 0`` degenerates to
a single linear layer (the perceptron variant of the architecture sweep).

Everything here is plain float64 numpy with explicit reverse-mode gradients:
forward/backward are pure, parameter updates (AdamW, pruning) mutate in place
under a single writer.  Binary masks enforce sparsity multiplicatively, so a
pruned weight stays exactly zero through every forward, backward, and
optimizer step.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

INPUT_DIM = 241
OUT_DIM = 5
HIDDEN_DEFAULT = 10


def build_input(
    s_ext: np.ndarray, snr_db: float | np.ndarray, expected_len: int = INPUT_DIM - 1
) -> np.ndarray:
    """Feature vector: extended-spectrum magnitudes followed by snr_db/20.

    ``s_ext`` may carry a leading batch axis (with ``snr_db`` a matching
    vector); features are float64 and O(1) by construction.
    """
    s_ext = np.asarray(s_ext)
    if s_ext.shape[-1] != expected_len:
        raise ValueError(f"expected {expected_len} shaped bins, got {s_ext.shape[-1]}")
    mags = np.abs(s_ext).astype(np.float64)
    snr_feat = np.asarray(snr_db, dtype=np.float64) / 20.0
    if mags.ndim == 1:
        if np.ndim(snr_feat) != 0:
            raise ValueError("scalar snr_db expected for a single block")
        return np.concatenate([mags, [snr_feat]])
    if np.ndim(snr_feat) == 0:
        snr_feat = np.full(mags.shape[:-1], snr_feat)
    return np.concatenate([mags, snr_feat[..., None]], axis=-1)


@dataclass
class NetParams:
    """Dense weights, biases, and the sparsity masks that shadow the weights."""

    w1: np.ndarray | None
    b1: np.ndarray | None
    w2: np.ndarray
    b2: np.ndarray
    mask1: np.ndarray | None
    mask2: np.ndarray
    hidden_width: int = HIDDEN_DEFAULT
    input_dim: int = INPUT_DIM
    out_dim: int = OUT_DIM

    def weight_tensors(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weights, mask) pairs in layer order; biases are never pruned."""
        pairs = []
        if self.hidden_width > 0:
            pairs.append((self.w1, self.mask1))
        pairs.append((self.w2, self.mask2))
        return pairs

    def copy(self) -> "NetParams":
        return NetParams(
            w1=None if self.w1 is None else self.w1.copy(),
            b1=None if self.b1 is None else self.b1.copy(),
            w2=self.w2.copy(),
            b2=self.b2.copy(),
            mask1=None if self.mask1 is None else self.mask1.copy(),
            mask2=self.mask2.copy(),
            hidden_width=self.hidden_width,
            input_dim=self.input_dim,
            out_dim=self.out_dim,
        )


@dataclass
class Grads:
    w1: np.ndarray | None
    b1: np.ndarray | None
    w2: np.ndarray
    b2: np.ndarray


def init_params(
    hidden_width: int = HIDDEN_DEFAULT,
    rng: np.random.Generator | None = None,
    input_dim: int = INPUT_DIM,
    out_dim: int = OUT_DIM,
    out_scale: float = 0.05,
) -> NetParams:
    """Glorot-uniform weights with a damped output layer.

    The output bias starts at [1, 0, ...] so the initial filter is the
    identity (all-ones) profile; the output weight matrix is additionally
    scaled by ``out_scale`` so early blocks stay decodable while hidden-layer
    gradients remain nonzero.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if hidden_width < 0:
        raise ValueError(f"hidden_width must be >= 0, got {hidden_width}")

    def glorot(fan_out, fan_in):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_out, fan_in))

    b2 = np.zeros(out_dim)
    b2[0] = 1.0
    if hidden_width == 0:
        w2 = glorot(out_dim, input_dim) * out_scale
        return NetParams(
            w1=None, b1=None, w2=w2, b2=b2,
            mask1=None, mask2=np.ones_like(w2),
            hidden_width=0, input_dim=input_dim, out_dim=out_dim,
        )
    w1 = glorot(hidden_width, input_dim)
    w2 = glorot(out_dim, hidden_width) * out_scale
    return NetParams(
        w1=w1, b1=np.zeros(hidden_width), w2=w2, b2=b2,
        mask1=np.ones_like(w1), mask2=np.ones_like(w2),
        hidden_width=hidden_width, input_dim=input_dim, out_dim=out_dim,
    )


def _check_input(params: NetParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.input_dim:
        raise ValueError(f"input dim {x.shape[-1]}, expected {params.input_dim}")
    return x


def forward(params: NetParams, x: np.ndarray) -> np.ndarray:
    """Coefficients = W2 @ relu(W1 @ x + b1) + b2, masks applied multiplicatively."""
    out, _ = forward_cached(params, x)
    return out


def forward_cached(params: NetParams, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Forward pass that also returns the intermediates needed by backward()."""
    x = _check_input(params, x)
    if params.hidden_width == 0:
        out = x @ (params.w2 * params.mask2).T + params.b2
        return out, {"x": x, "h": None}
    z1 = x @ (params.w1 * params.mask1).T + params.b1
    h = np.maximum(z1, 0.0)
    out = h @ (params.w2 * params.mask2).T + params.b2
    return out, {"x": x, "z1": z1, "h": h}


def backward(params: NetParams, cache: dict, upstream: np.ndarray) -> Grads:
    """Exact reverse-mode gradients of the masked network.

    ``upstream`` is dLoss/dcoeffs with the same leading shape as the cached
    input; batch contributions are summed (scale the upstream by 1/B for a
    mean).  Masked weights receive exactly zero gradient.
    """
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape[-1] != params.out_dim:
        raise ValueError(f"upstream dim {g.shape[-1]}, expected {params.out_dim}")
    x2 = cache["x"].reshape(-1, params.input_dim)
    g2 = g.reshape(-1, params.out_dim)
    if params.hidden_width == 0:
        gw2 = (g2.T @ x2) * params.mask2
        gb2 = g2.sum(axis=0)
        return Grads(w1=None, b1=None, w2=gw2, b2=gb2)
    h2 = cache["h"].reshape(-1, params.hidden_width)
    z2 = cache["z1"].reshape(-1, params.hidden_width)
    gw2 = (g2.T @ h2) * params.mask2
    gb2 = g2.sum(axis=0)
    gh = g2 @ (params.w2 * params.mask2)
    gz1 = gh * (z2 > 0.0)
    gw1 = (gz1.T @ x2) * params.mask1
    gb1 = gz1.sum(axis=0)
    return Grads(w1=gw1, b1=gb1, w2=gw2, b2=gb2)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Decoupled-weight-decay Adam accumulators (one slot per parameter tensor)."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def slot(self, name: str, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if name not in self.m:
            self.m[name] = np.zeros_like(like)
            self.v[name] = np.zeros_like(like)
        return self.m[name], self.v[name]


def adamw_step(params: NetParams, grads: Grads, opt: AdamState) -> NetParams:
    """One AdamW update with bias correction; masks are re-applied afterwards."""
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - opt.beta1**t
    bc2 = 1.0 - opt.beta2**t

    def update(name, p, g):
        m, v = opt.slot(name, p)
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        p *= 1.0 - opt.lr * opt.weight_decay
        p -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)

    if params.hidden_width > 0:
        update("w1", params.w1, grads.w1)
        update("b1", params.b1, grads.b1)
    update("w2", params.w2, grads.w2)
    update("b2", params.b2, grads.b2)
    apply_masks(params)
    return params


def apply_masks(params: NetParams) -> None:
    for w, mask in params.weight_tensors():
        w *= mask


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def live_weight_count(params: NetParams) -> int:
    return int(sum(m.sum() for _, m in params.weight_tensors()))


def total_weight_count(params: NetParams) -> int:
    return int(sum(m.size for _, m in params.weight_tensors()))


def _live_entries(params: NetParams):
    """Flat view of currently live weights with deterministic sort keys."""
    mags, layers, rows, cols = [], [], [], []
    for layer_idx, (w, mask) in enumerate(params.weight_tensors()):
        live = mask > 0.0
        r, c = np.nonzero(live)
        mags.append(np.abs(w[live]))
        layers.append(np.full(r.size, layer_idx))
        rows.append(r)
        cols.append(c)
    return (
        np.concatenate(mags),
        np.concatenate(layers),
        np.concatenate(rows),
        np.concatenate(cols),
    )


def _mask_smallest(params: NetParams, n_mask: int) -> NetParams:
    if n_mask <= 0:
        return params
    mags, layers, rows, cols = _live_entries(params)
    # primary key |w|, ties broken by (layer, row, col) order
    order = np.lexsort((cols, rows, layers, mags))
    victims = order[:n_mask]
    tensors = params.weight_tensors()
    for k in victims:
        w, mask = tensors[int(layers[k])]
        mask[int(rows[k]), int(cols[k])] = 0.0
    apply_masks(params)
    return params


def prune_step(params: NetParams, fraction: float) -> NetParams:
    """Mask the ``fraction`` smallest-magnitude live weights (global, both layers).

    The surviving count is floor(live * (1 - fraction)); pruning everything is
    rejected.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    live = live_weight_count(params)
    keep = int(np.floor(live * (1.0 - fraction)))
    if keep == 0:
        raise ValueError("pruning step would mask every weight")
    return _mask_smallest(params, live - keep)


def prune_to(params: NetParams, sparsity: float) -> NetParams:
    """Prune until exactly round(total * (1 - sparsity)) weights remain live."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    total = total_weight_count(params)
    target_live = int(round(total * (1.0 - sparsity)))
    if target_live == 0:
        raise ValueError("target sparsity would mask every weight")
    return _mask_smallest(params, live_weight_count(params) - target_live)


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

BIAS_SCALE_SHIFT = 256.0  # bias resolution is weight_scale / 256 (int32 ints)


def _weight_scale(w_max: float) -> float:
    """Largest float32-representable scale <= w_max/127 (1.0 for an all-zero tensor).

    Rounding the scale *down* keeps the round-trip error provably within half
    a step of the true w_max/127; values at exactly +/-w_max then land on
    +/-127 after clipping, so -128 is never emitted.
    """
    if w_max == 0.0:
        return 1.0
    s = np.float32(w_max / 127.0)
    if float(s) > w_max / 127.0:
        s = np.nextafter(s, np.float32(0.0))
    return float(s)


def _quant_tensor(w: np.ndarray) -> tuple[np.ndarray, float]:
    scale = _weight_scale(float(np.max(np.abs(w))) if w.size else 0.0)
    q = np.clip(np.round(w / scale), -127, 127).astype(np.int8)
    return q, scale


def _quant_bias(b: np.ndarray, weight_scale: float) -> tuple[np.ndarray, float]:
    scale = weight_scale / BIAS_SCALE_SHIFT
    q = np.round(b / scale)
    if np.any(np.abs(q) > np.iinfo(np.int32).max):
        raise ValueError("bias too large for int32 representation")
    return q.astype(np.int32), scale


@dataclass
class QuantizedNet:
    """Symmetric per-tensor int8 twin (zero-point 0, weight-only quantization)."""

    q1: np.ndarray | None
    scale1: float
    b1_q: np.ndarray | None
    bias_scale1: float
    q2: np.ndarray
    scale2: float
    b2_q: np.ndarray
    bias_scale2: float
    hidden_width: int
    input_dim: int = INPUT_DIM
    out_dim: int = OUT_DIM

    def dequant_w1(self) -> np.ndarray | None:
        return None if self.q1 is None else self.q1.astype(np.float64) * self.scale1

    def dequant_b1(self) -> np.ndarray | None:
        return None if self.b1_q is None else self.b1_q.astype(np.float64) * self.bias_scale1

    def dequant_w2(self) -> np.ndarray:
        return self.q2.astype(np.float64) * self.scale2

    def dequant_b2(self) -> np.ndarray:
        return self.b2_q.astype(np.float64) * self.bias_scale2


def quantize(params: NetParams) -> QuantizedNet:
    """Map each weight tensor's [-w_max, w_max] range onto int8 [-127, 127]."""
    for w, _ in params.weight_tensors():
        if not np.all(np.isfinite(w)):
            raise ValueError("cannot quantize non-finite weights")
    if params.hidden_width > 0:
        q1, s1 = _quant_tensor(params.w1)
        b1_q, bs1 = _quant_bias(params.b1, s1)
    else:
        q1, s1, b1_q, bs1 = None, 1.0, None, 1.0 / BIAS_SCALE_SHIFT
    q2, s2 = _quant_tensor(params.w2)
    b2_q, bs2 = _quant_bias(params.b2, s2)
    return QuantizedNet(
        q1=q1, scale1=s1, b1_q=b1_q, bias_scale1=bs1,
        q2=q2, scale2=s2, b2_q=b2_q, bias_scale2=bs2,
        hidden_width=params.hidden_width,
        input_dim=params.input_dim, out_dim=params.out_dim,
    )


def forward_q(qnet: QuantizedNet, x: np.ndarray) -> np.ndarray:
    """Inference with dequantized weights on the float activation path."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != qnet.input_dim:
        raise ValueError(f"input dim {x.shape[-1]}, expected {qnet.input_dim}")
    if qnet.hidden_width == 0:
        return x @ qnet.dequant_w2().T + qnet.dequant_b2()
    h = np.maximum(x @ qnet.dequant_w1().T + qnet.dequant_b1(), 0.0)
    return h @ qnet.dequant_w2().T + qnet.dequant_b2()


def predict_coeffs(net: NetParams | QuantizedNet, x: np.ndarray) -> np.ndarray:
    """Dispatch to the float or quantized forward path."""
    if isinstance(net, QuantizedNet):
        return forward_q(net, x)
    return forward(net, x)


# ---------------------------------------------------------------------------
# Checkpoint file format
# ---------------------------------------------------------------------------
#
# Little-endian byte layout, version 1:
#   magic           4s   b"TFSS"
#   version         u32  1
#   hidden_width    u32
#   input_dim       u32
#   out_dim         u32  (also the coefficient count)
#   flags           u32  bit0 quantized twin, bit2 extras, bit3 history; any
#                        other bit is rejected, including bit1, which marked an
#                        optimizer section that no code path resumed from
#   params          float32 row-major: [w1, b1] (if hidden>0), w2, b2
#   masks           packed bitsets (row-major, padded to byte) per weight tensor
#   quant (bit0)    per layer: int8 tensor, float32 weight scale,
#                   int32 bias tensor, float32 bias scale
#   extras(bit2)    u32 epoch, u64 config hash
#   history(bit3)   u32 row count, rows of 6 f64
#                   (epoch, mean_loss, median_loss, mse_term, tail_term, sparsity)
#
# The file ends after the last section its flags name; trailing bytes are
# rejected.

MAGIC = b"TFSS"
VERSION = 1
_FLAG_QUANT = 1
_FLAG_EXTRAS = 4
_FLAG_HISTORY = 8
_KNOWN_FLAGS = _FLAG_QUANT | _FLAG_EXTRAS | _FLAG_HISTORY


def _f32_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f4").tobytes()


def _mask_bytes(mask: np.ndarray) -> bytes:
    return np.packbits(mask.astype(np.uint8), axis=None).tobytes()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated checkpoint file")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def array(self, dtype: str, shape: tuple) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        raw = self.take(n * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def mask(self, shape: tuple) -> np.ndarray:
        n = int(np.prod(shape))
        raw = self.take((n + 7) // 8)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n)
        return bits.reshape(shape).astype(np.float64)


def save_net(
    path,
    params: NetParams,
    qnet: QuantizedNet | None = None,
    epoch: int | None = None,
    config_hash: int | None = None,
    history: np.ndarray | None = None,
) -> None:
    """Serialize the network (optional int8 twin, extras, history) to ``path``.

    Parameter tensors are stored as float32; callers needing a bit-exact
    save -> load -> forward round trip should hold float32-representable
    parameters (the trainer casts once after training).
    """
    flags = 0
    if qnet is not None:
        flags |= _FLAG_QUANT
    if epoch is not None or config_hash is not None:
        flags |= _FLAG_EXTRAS
    if history is not None:
        flags |= _FLAG_HISTORY
    chunks = [
        struct.pack(
            "<4sIIIII", MAGIC, VERSION, params.hidden_width,
            params.input_dim, params.out_dim, flags,
        )
    ]
    if params.hidden_width > 0:
        chunks += [_f32_bytes(params.w1), _f32_bytes(params.b1)]
    chunks += [_f32_bytes(params.w2), _f32_bytes(params.b2)]
    if params.hidden_width > 0:
        chunks.append(_mask_bytes(params.mask1))
    chunks.append(_mask_bytes(params.mask2))
    if qnet is not None:
        if params.hidden_width > 0:
            chunks += [
                qnet.q1.astype("<i1").tobytes(),
                struct.pack("<f", qnet.scale1),
                qnet.b1_q.astype("<i4").tobytes(),
                struct.pack("<f", qnet.bias_scale1),
            ]
        chunks += [
            qnet.q2.astype("<i1").tobytes(),
            struct.pack("<f", qnet.scale2),
            qnet.b2_q.astype("<i4").tobytes(),
            struct.pack("<f", qnet.bias_scale2),
        ]
    if flags & _FLAG_EXTRAS:
        chunks.append(struct.pack("<IQ", epoch or 0, config_hash or 0))
    if history is not None:
        hist = np.ascontiguousarray(history, dtype="<f8").reshape(-1, 6)
        chunks.append(struct.pack("<I", hist.shape[0]))
        chunks.append(hist.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_net(path) -> dict:
    """Load a checkpoint into a dict: params, qnet, epoch, config_hash, history.

    A file that sets a flag bit this loader does not read, ends early, or
    carries bytes after its last section raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    magic, version, hidden, in_dim, out_dim, flags = struct.unpack(
        "<4sIIIII", reader.take(24)
    )
    if magic != MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    unknown = flags & ~_KNOWN_FLAGS
    if unknown:
        bits = [i for i in range(32) if unknown >> i & 1]
        raise ValueError(
            f"checkpoint sets flag bit(s) {bits} (flags {flags:#x}) that this loader "
            "does not read"
        )
    if hidden > 0:
        w1 = reader.array("<f4", (hidden, in_dim)).astype(np.float64)
        b1 = reader.array("<f4", (hidden,)).astype(np.float64)
        w2 = reader.array("<f4", (out_dim, hidden)).astype(np.float64)
    else:
        w1 = b1 = None
        w2 = reader.array("<f4", (out_dim, in_dim)).astype(np.float64)
    b2 = reader.array("<f4", (out_dim,)).astype(np.float64)
    mask1 = reader.mask((hidden, in_dim)) if hidden > 0 else None
    mask2 = reader.mask(w2.shape)
    params = NetParams(
        w1=w1, b1=b1, w2=w2, b2=b2, mask1=mask1, mask2=mask2,
        hidden_width=hidden, input_dim=in_dim, out_dim=out_dim,
    )
    apply_masks(params)
    out = {"params": params, "qnet": None, "epoch": None, "config_hash": None,
           "history": None}
    if flags & _FLAG_QUANT:
        if hidden > 0:
            q1 = reader.array("<i1", (hidden, in_dim))
            (s1,) = struct.unpack("<f", reader.take(4))
            b1_q = reader.array("<i4", (hidden,))
            (bs1,) = struct.unpack("<f", reader.take(4))
        else:
            q1, s1, b1_q, bs1 = None, 1.0, None, 1.0 / BIAS_SCALE_SHIFT
        q2 = reader.array("<i1", w2.shape)
        (s2,) = struct.unpack("<f", reader.take(4))
        b2_q = reader.array("<i4", (out_dim,))
        (bs2,) = struct.unpack("<f", reader.take(4))
        out["qnet"] = QuantizedNet(
            q1=q1, scale1=float(s1), b1_q=b1_q, bias_scale1=float(bs1),
            q2=q2, scale2=float(s2), b2_q=b2_q, bias_scale2=float(bs2),
            hidden_width=hidden, input_dim=in_dim, out_dim=out_dim,
        )
    if flags & _FLAG_EXTRAS:
        epoch, config_hash = struct.unpack("<IQ", reader.take(12))
        out["epoch"] = int(epoch)
        out["config_hash"] = int(config_hash)
    if flags & _FLAG_HISTORY:
        (rows,) = struct.unpack("<I", reader.take(4))
        out["history"] = reader.array("<f8", (rows, 6))
    trailing = len(reader.data) - reader.pos
    if trailing:
        raise ValueError(f"{trailing} trailing bytes after the checkpoint's last section")
    return out
