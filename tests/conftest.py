from dataclasses import replace

import numpy as np
import pytest

from tinyfdss.baselines import SLM_BOUND_SLACK_DB
from tinyfdss.chain import ChainConfig, extend
from tinyfdss.metrics import single_precision, waveform_papr_db


@pytest.fixture
def cfg():
    """Default allocation: 240 shaped bins = 210 data + 2x15 extension."""
    return ChainConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def slm_survivors():
    """Rows ``slm_select`` synthesizes on the oversampled grid: (block,
    candidate) pairs past the identity whose critical-rate PAPR is within
    the slack of the running minimum of the candidates before it."""
    def count(spectrum, phases, cfg):
        spectrum = single_precision(spectrum)
        cands = [extend(spectrum * p, cfg.n_se) for p in np.asarray(phases, dtype=np.complex64)]
        running = np.minimum.accumulate([waveform_papr_db(c, cfg) for c in cands])
        bounds = [waveform_papr_db(c, replace(cfg, oversample=1)) for c in cands[1:]]
        return int(sum(np.count_nonzero(b <= m + SLM_BOUND_SLACK_DB)
                       for b, m in zip(bounds, running[:-1])))
    return count
