"""Replay the runtime adaptation loop over a time-varying SNR trace.

SNR feedback from the gateway arrives every 100 ms; each tick updates the
trade-off weight from the lookup table, recomputes the taps with the
quantized network, transmits one block, and logs (time, snr, lambda, papr,
ser).  The trace here walks from factory-like conditions (5 dB) up to a
rural line-of-sight link (18 dB).
"""

import numpy as np

from tinyfdss.adaptation import preset_trace, run_scenario
from tinyfdss.chain import ChainConfig
from tinyfdss.training import TrainConfig, train

cfg = ChainConfig()
ckpt = train(TrainConfig(n_blocks=1000, epochs=3, batch_size=32, seed=2, chain=cfg))
net = ckpt.qnet  # deployed model: pruned + int8

# replay a trace that climbs from factory to rural SNR
trace = [(t, 5.0 + 13.0 * min(t / 1500.0, 1.0)) for t in range(0, 2001, 100)]
records = run_scenario(trace, net, cfg, seed=3)

print(" t_ms   snr_db  lambda  papr_db  ser (one block)")
for r in records:
    print(f"{r.t_ms:5.0f}  {r.snr_db:6.2f}  {r.lam:6.2f}  {r.papr_db:7.2f}  {r.ser_block:.3f}")

lams = sorted({r.lam for r in records})
print(f"\nlambda visited {lams} as the SNR crossed its bins")

for name in ("factory", "rural"):
    ticks = run_scenario(preset_trace(name, 500.0), net, cfg, seed=4)
    print(f"{name:8s} preset: lambda held at {ticks[0].lam}, "
          f"mean papr {np.mean([t.papr_db for t in ticks]):.2f} dB")
