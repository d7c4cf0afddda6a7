"""Train the tap-predicting network at small scale and measure what it buys.

Runs a reduced offline loop (2000 blocks, 5 epochs -- a few seconds), prunes
to 80% sparsity, quantizes, and then compares the learned filter's PAPR
against the flat and RRC baselines at CCDF = 1e-3.  A full desk-scale run
(10^4 blocks) widens the gain slightly; see configs/desk.json.
"""

import numpy as np

from tinyfdss import network
from tinyfdss.adaptation import adaptation_cycle
from tinyfdss.baselines import conventional_config, fir_bin_gains, rrc_fir
from tinyfdss.chain import ChainConfig, ModScheme, extend, map_symbols, precode
from tinyfdss.metrics import papr_at_ccdf, waveform_papr_db
from tinyfdss.training import TrainConfig, train

cfg = ChainConfig()
config = TrainConfig(n_blocks=2000, epochs=5, batch_size=32, seed=1, chain=cfg)

print("training", config.n_blocks, "blocks for", config.epochs, "epochs...")
ckpt = train(config, progress=True)
live = network.live_weight_count(ckpt.params)
total = network.total_weight_count(ckpt.params)
print(f"\npruned to {live}/{total} live weights "
      f"({1 - live / total:.0%} sparsity), then int8-quantized")

# fresh evaluation blocks, never seen in training
rng = np.random.default_rng(777)
n_eval = 6000
bits = rng.integers(0, 2, (n_eval, cfg.n_data * 2))
symbols = map_symbols(bits, ModScheme.QPSK)
s_ext = extend(precode(symbols), cfg.n_se)

# the deployed int8 net's feedback cycle at 15 dB, on all blocks at once
bins, taps = adaptation_cycle(15.0, ckpt.qnet, s_ext)
papr_trained = waveform_papr_db(bins, cfg)

conv = conventional_config(cfg)
sym_conv = map_symbols(rng.integers(0, 2, (n_eval, conv.n_data * 2)), ModScheme.QPSK)
spectrum = precode(sym_conv)
papr_plain = waveform_papr_db(spectrum, conv)
gains = fir_bin_gains(rrc_fir(32, 0.25, sps=conv.oversample), conv)
papr_rrc = waveform_papr_db(spectrum * gains, conv)

t_rrc = papr_at_ccdf(papr_rrc, 1e-3)
t_plain = papr_at_ccdf(papr_plain, 1e-3)
t_net = papr_at_ccdf(papr_trained, 1e-3)
print(f"\nPAPR at CCDF = 1e-3:")
print(f"  rrc (32-tap FIR)   {t_rrc:5.2f} dB")
print(f"  plain dft-s-ofdm   {t_plain:5.2f} dB")
print(f"  learned filter     {t_net:5.2f} dB   ({t_rrc - t_net:+.2f} dB vs rrc)")

print("\neffective tap profile extremes at 15 dB: min %.3f, max %.3f"
      % (taps.min(), taps.max()))
