"""Show magnitude pruning to the target sparsity and the int8 quantization error.

Global magnitude pruning masks the smallest live weights across both layers
until exactly 492 of the 2460 weights stay live (80% sparsity).  Symmetric
per-tensor quantization maps each weight range onto int8 with at most half a
step of round-trip error, and the checkpoint file reloads bit-exactly.
"""

import tempfile
from pathlib import Path

import numpy as np

from tinyfdss import network

rng = np.random.default_rng(0)
params = network.init_params(hidden_width=10, rng=rng)
params.w1 = rng.standard_normal(params.w1.shape) * 0.2
params.w2 = rng.standard_normal(params.w2.shape) * 0.2

total = network.total_weight_count(params)
network.prune_to(params, 0.8)
print(f"target mode, 80% sparsity: {network.live_weight_count(params)} of {total} "
      "weights live")

qnet = network.quantize(params)
for label, (w, _, mask), (q, scale, _, _) in zip(
    ("hidden", "output"), params.layers(), qnet.layers()
):
    err = np.max(np.abs(q.astype(float) * scale - w * mask))
    w_max = np.max(np.abs(w * mask))
    print(f"{label} layer: w_max {w_max:.4f}, scale {scale:.6f}, "
          f"max round-trip error {err:.2e} (bound {w_max / 254:.2e})")

x = rng.standard_normal((1000, 241))
dev = np.abs(network.forward(params, x) - network.forward_q(qnet, x))
print(f"float vs int8 coefficient deviation over 1000 inputs: "
      f"max {dev.max():.2e}, mean {dev.mean():.2e}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "net.bin"
    # float32-representable weights round-trip the file bit-exactly
    params = network.NetParams.from_layers([
        tuple(t.astype(np.float32).astype(np.float64) for t in layer)
        for layer in params.layers()
    ])
    network.save_net(path, params, network.quantize(params), epoch=0, config_hash=0,
                     history=np.zeros((0, len(network.HISTORY_COLUMNS))))
    loaded = network.load_net(path)
    same = np.array_equal(
        network.forward(loaded["params"], x), network.forward(params, x)
    )
    print(f"checkpoint is {path.stat().st_size} bytes; "
          f"reload forward bit-exact: {same}")
