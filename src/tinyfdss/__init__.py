"""Adaptive frequency-domain pulse shaping for DFT-s-OFDM uplinks.

A tiny pruned-and-quantized dense network maps each block's extended spectrum
and the fed-back SNR to polynomial filter coefficients; the resulting real tap
profile shapes the subcarriers to trade PAPR against detection error.  Training
weights each block's PAPR tail term by the lambda of its SNR bin; at run time
lambda is looked up and logged, and the taps see only the SNR.  The package
bundles the transmit/receive chain, channel models, training and evaluation
harnesses, classic baselines (RRC, CLF, SLM) and the runtime adaptation loop.
"""

__version__ = "0.1.0"
