"""Tiny dense network that maps block features to filter polynomial coefficients.

Architecture: input (240 bin magnitudes + scaled SNR) -> hidden ReLU layer ->
linear output of polynomial coefficients.  ``hidden_width = 0`` degenerates to
a single linear layer (the perceptron variant of the architecture sweep).

A net is a list of dense layers, input side first: ``NetParams.layers()``
gives (weights, bias, mask) per layer and ``QuantizedNet.layers()`` gives
(int8 weights, scale, int32 bias, bias scale).  The forward pass, its
gradient, AdamW, pruning, quantization and the checkpoint layout each loop
over that list, so the layer count is data.  ``hidden_width``, ``input_dim``
and ``out_dim`` are read from the weight shapes, never stored.

Everything here is plain float64 numpy with explicit reverse-mode gradients:
forward/backward are pure, parameter updates (AdamW, pruning) mutate in place
under a single writer.  Binary masks enforce sparsity multiplicatively, so a
pruned weight stays exactly zero through every forward, backward, and
optimizer step.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

INPUT_DIM = 241
OUT_DIM = 5
HIDDEN_DEFAULT = 10


def build_input(
    s_ext: np.ndarray, snr_db: float | np.ndarray, expected_len: int = INPUT_DIM - 1
) -> np.ndarray:
    """Feature vector: extended-spectrum magnitudes followed by snr_db/20.

    ``s_ext`` may carry leading batch axes, and ``snr_db`` is one value for
    every block or one per block; features are float64 and O(1) by
    construction.
    """
    s_ext = np.asarray(s_ext)
    if s_ext.shape[-1] != expected_len:
        raise ValueError(f"expected {expected_len} shaped bins, got {s_ext.shape[-1]}")
    mags = np.abs(s_ext).astype(np.float64, copy=False)  # complex128 gives float64 already
    snr_feat = np.broadcast_to(np.asarray(snr_db, dtype=np.float64) / 20.0, mags.shape[:-1])
    return np.concatenate([mags, snr_feat[..., None]], axis=-1)


def _layer_shapes(input_dim: int, hidden_width: int, out_dim: int) -> list[tuple[int, int]]:
    """(fan_out, fan_in) of each weight matrix, input side first."""
    widths = [input_dim, hidden_width, out_dim] if hidden_width > 0 else [input_dim, out_dim]
    return list(zip(widths[1:], widths[:-1]))


class _Layers:
    """A net of one or two dense layers kept in per-layer dataclass fields.

    ``FIELDS`` names a subclass's fields for the hidden layer and for the
    output layer, weights first; a perceptron holds ``None`` in every
    hidden-layer field.
    """

    FIELDS: tuple[tuple[str, ...], tuple[str, ...]]

    @classmethod
    def from_layers(cls, layers: list[tuple]):
        """Build from one tuple per layer (``FIELDS`` order), input side first."""
        if not 1 <= len(layers) <= len(cls.FIELDS):
            raise ValueError(f"a net has 1 or 2 layers, got {len(layers)}")
        absent = [(None,) * len(cls.FIELDS[0])] * (len(cls.FIELDS) - len(layers))
        return cls(**{
            name: value
            for names, layer in zip(cls.FIELDS, absent + list(layers))
            for name, value in zip(names, layer)
        })

    def layers(self) -> list[tuple]:
        """One tuple per layer in ``FIELDS`` order, input side first."""
        per_layer = [attrgetter(*names)(self) for names in self.FIELDS]
        return [layer for layer in per_layer if layer[0] is not None]

    @property
    def input_dim(self) -> int:
        return self.layers()[0][0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers()[-1][0].shape[0]

    @property
    def hidden_width(self) -> int:
        """Units of the hidden layer; 0 for the perceptron."""
        return sum(layer[0].shape[0] for layer in self.layers()[:-1])


@dataclass
class NetParams(_Layers):
    """Dense weights, biases, and the sparsity masks that shadow the weights."""

    FIELDS = (("w1", "b1", "mask1"), ("w2", "b2", "mask2"))

    w1: np.ndarray | None
    b1: np.ndarray | None
    w2: np.ndarray
    b2: np.ndarray
    mask1: np.ndarray | None
    mask2: np.ndarray


@dataclass
class Grads(_Layers):
    FIELDS = (("w1", "b1"), ("w2", "b2"))

    w1: np.ndarray | None
    b1: np.ndarray | None
    w2: np.ndarray
    b2: np.ndarray


def init_params(
    rng: np.random.Generator,
    hidden_width: int = HIDDEN_DEFAULT,
    input_dim: int = INPUT_DIM,
    out_dim: int = OUT_DIM,
    out_scale: float = 0.05,
) -> NetParams:
    """Glorot-uniform weights with a damped output layer.

    The output bias starts at [1, 0, ...], the identity (all-ones) profile,
    and the output weights are scaled by ``out_scale``: the initial filter is
    that profile only as ``out_scale`` -> 0 (training passes 0.3), but early
    blocks stay decodable while hidden-layer gradients remain nonzero.
    """
    if hidden_width < 0:
        raise ValueError(f"hidden_width must be >= 0, got {hidden_width}")

    layers = []
    for fan_out, fan_in in _layer_shapes(input_dim, hidden_width, out_dim):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        layers.append((rng.uniform(-bound, bound, size=(fan_out, fan_in)), np.zeros(fan_out)))
    w_out, b_out = layers[-1]
    w_out *= out_scale
    b_out[0] = 1.0
    return NetParams.from_layers([(w, b, np.ones_like(w)) for w, b in layers])


def _dense(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray):
    """Run ``x`` through (W, b) layers with a ReLU between consecutive layers.

    Returns the output and the input each layer saw, which is all that
    ``backward`` needs (a hidden unit is active where its ReLU output is > 0).

    The contraction is ``np.einsum`` without BLAS: every row of ``x`` is
    summed in one fixed order, so a row's output has the same bytes at any
    batch shape, alone or inside a batch, under any BLAS threading.  A
    BLAS ``x @ w.T`` picks its kernel and blocking from the batch shape.
    ``x`` is read C-ordered, so its layout does not change the order either.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    in_dim = layers[0][0].shape[1]
    if x.shape[-1] != in_dim:
        raise ValueError(f"input dim {x.shape[-1]}, expected {in_dim}")
    inputs = []
    for k, (w, b) in enumerate(layers):
        if k > 0:
            x = np.maximum(x, 0.0)
        inputs.append(x)
        x = np.einsum("...i,oi->...o", x, w) + b
    return x, inputs


def forward(params: NetParams, x: np.ndarray) -> np.ndarray:
    """Coefficients = W2 @ relu(W1 @ x + b1) + b2, masks applied multiplicatively."""
    out, _ = forward_cached(params, x)
    return out


def forward_cached(params: NetParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward pass that also returns the intermediates needed by backward()."""
    return _dense([(w * mask, b) for w, b, mask in params.layers()], x)


def backward(params: NetParams, cache: list, upstream: np.ndarray) -> Grads:
    """Exact reverse-mode gradients of the masked network.

    ``upstream`` is dLoss/dcoeffs with the same leading shape as the cached
    input; batch contributions are summed (scale the upstream by 1/B for a
    mean).  Masked weights receive exactly zero gradient.
    """
    g = np.asarray(upstream, dtype=np.float64)
    if g.shape[-1] != params.out_dim:
        raise ValueError(f"upstream dim {g.shape[-1]}, expected {params.out_dim}")
    g = g.reshape(-1, params.out_dim)
    layers = params.layers()
    grads = []
    for k in reversed(range(len(layers))):
        w, _, mask = layers[k]
        a = cache[k].reshape(-1, w.shape[1])
        grads.append(((g.T @ a) * mask, g.sum(axis=0)))
        if k > 0:
            g = (g @ (w * mask)) * (a > 0.0)
    return Grads.from_layers(grads[::-1])


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclass
class AdamState:
    """Decoupled-weight-decay Adam accumulators (one slot per parameter tensor)."""

    lr: float = 1e-3
    weight_decay: float = 1e-4
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def slot(self, name: tuple, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if name not in self.m:
            self.m[name] = np.zeros_like(like)
            self.v[name] = np.zeros_like(like)
        return self.m[name], self.v[name]


def adamw_step(params: NetParams, grads: Grads, opt: AdamState) -> NetParams:
    """One AdamW update with bias correction; masks are re-applied afterwards."""
    opt.step += 1
    t = opt.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for k, ((w, b, _), (gw, gb)) in enumerate(zip(params.layers(), grads.layers())):
        for name, p, g in (("w", w, gw), ("b", b, gb)):
            m, v = opt.slot((name, k), p)
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p *= 1.0 - opt.lr * opt.weight_decay
            p -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    apply_masks(params)
    return params


def apply_masks(params: NetParams) -> None:
    for w, _, mask in params.layers():
        w *= mask


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def live_weight_count(params: NetParams) -> int:
    return int(sum(mask.sum() for _, _, mask in params.layers()))


def total_weight_count(params: NetParams) -> int:
    return int(sum(mask.size for _, _, mask in params.layers()))


def _mask_smallest(params: NetParams, n_mask: int) -> NetParams:
    if n_mask <= 0:
        return params
    layers = params.layers()
    # dead weights key +inf; the stable sort breaks |w| ties in (layer, row,
    # col) flatten order
    keys = np.concatenate(
        [np.where(mask > 0.0, np.abs(w), np.inf).ravel() for w, _, mask in layers]
    )
    victims = np.zeros(keys.size, dtype=bool)
    victims[np.argsort(keys, kind="stable")[:n_mask]] = True
    offsets = np.cumsum([mask.size for _, _, mask in layers])[:-1]
    for (_, _, mask), hit in zip(layers, np.split(victims, offsets)):
        mask[hit.reshape(mask.shape)] = 0.0
    apply_masks(params)
    return params


def live_target(total: int, sparsity: float) -> int:
    """Weights ``prune_to`` leaves live out of ``total``: round(total * (1 - sparsity))."""
    return int(round(total * (1.0 - sparsity)))


def prune_to(params: NetParams, sparsity: float) -> NetParams:
    """Prune until exactly ``live_target(total, sparsity)`` weights remain live.

    The smallest-magnitude live weights across all layers go first.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    target_live = live_target(total_weight_count(params), sparsity)
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
class QuantizedNet(_Layers):
    """Symmetric per-tensor int8 twin (zero-point 0, weight-only quantization)."""

    FIELDS = (
        ("q1", "scale1", "b1_q", "bias_scale1"),
        ("q2", "scale2", "b2_q", "bias_scale2"),
    )

    q1: np.ndarray | None
    scale1: float | None
    b1_q: np.ndarray | None
    bias_scale1: float | None
    q2: np.ndarray
    scale2: float
    b2_q: np.ndarray
    bias_scale2: float


def quantize(params: NetParams) -> QuantizedNet:
    """Map each weight tensor's [-w_max, w_max] range onto int8 [-127, 127]."""
    qlayers = []
    for w, b, _ in params.layers():
        if not np.all(np.isfinite(w)):
            raise ValueError("cannot quantize non-finite weights")
        q, scale = _quant_tensor(w)
        qlayers.append((q, scale, *_quant_bias(b, scale)))
    return QuantizedNet.from_layers(qlayers)


def forward_q(qnet: QuantizedNet, x: np.ndarray) -> np.ndarray:
    """Inference with dequantized weights on the float activation path."""
    dequantized = [
        (q.astype(np.float64) * scale, b_q.astype(np.float64) * bias_scale)
        for q, scale, b_q, bias_scale in qnet.layers()
    ]
    out, _ = _dense(dequantized, x)
    return out


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
#   header          _HEADER: magic 4s b"TFSS", u32 version 1, u32 hidden_width,
#                   u32 input_dim, u32 out_dim (also the coefficient count),
#                   u32 flags 13
#   params          float32 row-major: [w1, b1] (if hidden>0), w2, b2
#   masks           packed bitsets (row-major, padded to byte) per weight tensor
#   quant           per layer: int8 tensor, float32 weight scale,
#                   int32 bias tensor, float32 bias scale
#   extras          _EXTRAS: u32 epoch, u64 config hash
#   history         _ROWS: u32 row count, then rows of len(HISTORY_COLUMNS) = 6
#                   f64 (epoch, mean_loss, median_loss, mse_term, tail_term,
#                   sparsity)
#
# The file ends after the history; trailing bytes are rejected.

MAGIC = b"TFSS"
VERSION = 1
# bit0 quantized twin, bit2 extras, bit3 history: every file carries all three.
# bit1 marked an optimizer section that no writer emits any more.
FLAGS = 13
HISTORY_COLUMNS = ("epoch", "mean_loss", "median_loss", "mse_term", "tail_term",
                   "sparsity")
_HEADER = struct.Struct("<4sIIIII")
_EXTRAS = struct.Struct("<IQ")
_ROWS = struct.Struct("<I")


# The body after the header, in file order: per net class, the (field, kind,
# ndim) of each section it writes for every layer, input side first.  A field
# indexes the layer's ``layers()`` tuple; a kind is a little-endian dtype or
# "mask" (a packed bitset); a section's shape is the first ``ndim`` axes of the
# layer's (fan_out, fan_in) weight shape: 1 is the bias and 0 one scalar.
_BODY = (
    (NetParams, ((0, "<f4", 2), (1, "<f4", 1))),  # w, b
    (NetParams, ((2, "mask", 2),)),
    (QuantizedNet, ((0, "<i1", 2), (1, "<f4", 0), (2, "<i4", 1), (3, "<f4", 0))),
)


def _sections(shapes: list[tuple[int, int]]) -> list[tuple]:
    """Every body section in file order: (net class, layer, field, kind, shape)."""
    return [
        (cls, k, field, kind, shape[:ndim])
        for cls, fields in _BODY
        for k, shape in enumerate(shapes)
        for field, kind, ndim in fields
    ]


def _encode(what: str, kind: str, value, shape: tuple) -> bytes:
    """One section's bytes, ``kind`` as in ``_BODY``; ``ValueError`` naming
    ``what`` unless ``value`` has ``shape``."""
    if np.shape(value) != shape:
        raise ValueError(f"{what} has shape {np.shape(value)}; the layout would give {shape}")
    if kind == "mask":
        return np.packbits(value.astype(np.uint8), axis=None).tobytes()
    return np.ascontiguousarray(value, dtype=kind).tobytes()


def save_net(
    path,
    params: NetParams,
    qnet: QuantizedNet,
    epoch: int,
    config_hash: int,
    history: np.ndarray,
) -> None:
    """Serialize the network, its int8 twin, extras and history to ``path``.

    Parameter tensors are stored as float32; callers needing a bit-exact
    save -> load -> forward round trip should hold float32-representable
    parameters (the trainer casts once after training).  Every section must
    have the shape that ``load_net`` reads: the header's dimensions
    (``params``') for the nets, ``(rows, len(HISTORY_COLUMNS))`` for the
    history.  Otherwise ``ValueError`` names the first field that does not,
    and no file is written.
    """
    layers = {NetParams: params.layers(), QuantizedNet: qnet.layers()}
    shapes = _layer_shapes(params.input_dim, params.hidden_width, params.out_dim)
    for cls, net in layers.items():
        if len(net) != len(shapes):
            raise ValueError(f"{cls.__name__} has {len(net)} layer(s); the header's "
                             f"dimensions give {len(shapes)}")
    chunks = [_HEADER.pack(MAGIC, VERSION, params.hidden_width, params.input_dim,
                           params.out_dim, FLAGS)]
    for cls, k, field, kind, shape in _sections(shapes):
        name = cls.FIELDS[len(cls.FIELDS) - len(shapes) + k][field]
        chunks.append(_encode(f"{cls.__name__}.{name} (layer {k + 1})", kind,
                              layers[cls][k][field], shape))
    rows = np.shape(history)[:1]
    hist = _encode("history", "<f8", history, (*rows, len(HISTORY_COLUMNS)))
    chunks += [_EXTRAS.pack(epoch, config_hash), _ROWS.pack(*rows), hist]
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_net(path) -> dict:
    """Load a checkpoint into a dict: params, qnet, epoch, config_hash, history.

    A file whose magic, version or flags are not exactly ``MAGIC``,
    ``VERSION`` and ``FLAGS``, that ends early, or that carries bytes after
    its history raises ``ValueError``; a header field's message names it and
    both values.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(size: int) -> bytes:
        nonlocal pos
        if pos + size > len(data):
            raise ValueError("truncated checkpoint file")
        pos += size
        return data[pos - size : pos]

    def unpack(layout: struct.Struct) -> tuple:
        return layout.unpack(take(layout.size))

    def read(kind: str, shape: tuple):
        """The next section; floats load as float64 and a scalar as a Python number."""
        count = math.prod(shape)  # a Python int: a header's product never wraps
        if kind == "mask":
            raw = np.frombuffer(take((count + 7) // 8), dtype=np.uint8)
            return np.unpackbits(raw, count=count).reshape(shape).astype(np.float64)
        value = np.frombuffer(take(count * np.dtype(kind).itemsize), dtype=kind).reshape(shape)
        if not shape:
            return value.item()
        return value.astype(np.float64) if value.dtype.kind == "f" else value.copy()

    magic, version, hidden, in_dim, out_dim, flags = unpack(_HEADER)
    for name, got, want in (("magic", magic, MAGIC), ("version", version, VERSION),
                            ("flags", flags, FLAGS)):
        if got != want:
            raise ValueError(f"checkpoint {name} {got!r}; this loader reads only {want!r}")
    shapes = _layer_shapes(in_dim, hidden, out_dim)
    layers = {cls: [[None] * len(cls.FIELDS[0]) for _ in shapes]
              for cls in (NetParams, QuantizedNet)}
    for cls, k, field, kind, shape in _sections(shapes):
        layers[cls][k][field] = read(kind, shape)
    params = NetParams.from_layers(layers[NetParams])
    apply_masks(params)
    qnet = QuantizedNet.from_layers(layers[QuantizedNet])
    epoch, config_hash = unpack(_EXTRAS)
    (rows,) = unpack(_ROWS)
    history = read("<f8", (rows, len(HISTORY_COLUMNS)))
    trailing = len(data) - pos
    if trailing:
        raise ValueError(f"{trailing} trailing bytes after the checkpoint's last section")
    return {"params": params, "qnet": qnet, "epoch": int(epoch),
            "config_hash": int(config_hash), "history": history}
