"""Walk through the transmit chain and compare PAPR statistics across schemes.

Builds a few thousand QPSK blocks, pushes them through plain DFT-s-OFDM, the
static 32-tap RRC transmit filter, clipping-and-filtering, and selective
mapping, then prints each scheme's CCDF anchors.  Everything here is
noise-free: PAPR is a transmitter-side statistic.
"""

import numpy as np

from tinyfdss.baselines import (
    ClfConfig,
    SlmConfig,
    clf_reduce,
    conventional_config,
    fir_bin_gains,
    rrc_fir,
    slm_phase_vectors,
    slm_select,
)
from tinyfdss.chain import ChainConfig, ModScheme, map_symbols, precode
from tinyfdss.metrics import empirical_ccdf, papr_at_ccdf, waveform_papr_db

N_BLOCKS = 5000

cfg = ChainConfig()  # 240 shaped bins = 210 data + 2x15 extension
conv = conventional_config(cfg)  # all 240 subcarriers carry data, no extension

rng = np.random.default_rng(0)
bits = rng.integers(0, 2, (N_BLOCKS, conv.n_data * 2))
symbols = map_symbols(bits, ModScheme.QPSK)
spectrum = precode(symbols)

samples = {}

# plain DFT-s-OFDM: flat spectrum straight onto the oversampled grid
samples["dftsofdm"] = waveform_papr_db(spectrum, conv)

# classic truncated RRC transmit filter, expressed as per-bin complex gains
gains = fir_bin_gains(rrc_fir(32, 0.25, sps=conv.oversample), conv)
samples["rrc"] = waveform_papr_db(spectrum * gains, conv)

# clipping and filtering: clip 4 dB above RMS, remove regrowth, twice
samples["clf"] = waveform_papr_db(clf_reduce(spectrum, ClfConfig(), conv), conv)

# selective mapping: best of 8 phase-rotated candidates (identity included);
# the chosen phases are per-bin taps the receiver undoes with its matched filter
phases = slm_phase_vectors(SlmConfig(num_candidates=8), conv.n_data)
idx, samples["slm"] = slm_select(spectrum, phases, conv)  # the chosen candidates' PAPR
print(f"SLM kept the identity candidate on {np.mean(idx == 0):.0%} of blocks")

print(f"\n{'scheme':>10s} {'mean':>7s} {'@1e-2':>7s} {'@1e-3':>7s}  (dB)")
for name, papr in samples.items():
    print(
        f"{name:>10s} {papr.mean():7.2f} {papr_at_ccdf(papr, 1e-2):7.2f} "
        f"{papr_at_ccdf(papr, 1e-3):7.2f}"
    )

grid = np.arange(4.0, 10.1, 0.5)
print("\nCCDF curves, Pr(PAPR > x):")
print("x_db " + " ".join(f"{name:>9s}" for name in samples))
curves = {name: empirical_ccdf(papr, grid) for name, papr in samples.items()}
for i, x in enumerate(grid):
    print(f"{x:4.1f} " + " ".join(f"{curves[name][i]:9.4f}" for name in samples))
