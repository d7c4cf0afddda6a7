"""Adaptive frequency-domain pulse shaping for DFT-s-OFDM uplinks.

A tiny pruned-and-quantized dense network maps each block's extended spectrum
and the fed-back SNR to polynomial filter coefficients; the resulting real tap
profile shapes the subcarriers to trade PAPR against detection error.  Training
weights each block's PAPR tail term by the lambda of its SNR bin; at run time
lambda is looked up and logged, and the taps see only the SNR.  The package
bundles the transmit/receive chain, channel models, training and evaluation
harnesses, classic baselines (RRC, CLF, SLM) and the runtime adaptation loop.
"""

from .adaptation import (
    LambdaTable,
    adaptation_cycle,
    preset_trace,
    run_scenario,
)
from .baselines import (
    ClfConfig,
    SlmConfig,
    conventional_config,
    rrc_fir,
)
from .chain import (
    ChainConfig,
    EqualizationError,
    ModScheme,
    Stage,
    SymbolBlock,
    extend,
    map_symbols,
    precode,
    receive,
    receiver_chain,
    shape_and_normalize,
    time_signal,
)
from .channel import ChannelCfg, ChannelModel, apply_channel
from .evaluation import EvalConfig, evaluate
from .filters import rrc_taps, taps_from_coeffs, unit_taps
from .metrics import (
    empirical_ccdf,
    measured_ser,
    oobe_db,
    papr_at_ccdf,
    papr_db,
    waveform_papr_db,
)
from .network import (
    NetParams,
    QuantizedNet,
    build_input,
    forward,
    forward_q,
    init_params,
    prune_to,
    quantize,
)
from .training import (
    Checkpoint,
    TrainConfig,
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
