"""Hedge-family online learning with adaptive learning rates.

The package plays K actions against [0, 1] loss streams: exponential
weights at fixed, decreasing, doubling and budget-adaptive learning rates,
plus leader-following baselines, together with the matching closed-form
regret guarantees and a bit-reproducible simulation harness.
"""

from .core import (
    ACCUMULATED_TOL,
    LOSS_RANGE_TOL,
    PER_OP_TOL,
    CumulativeLoss,
    RoundReport,
    WeightSnapshot,
    hedge_weights,
    log_marginal_likelihood,
    mix_loss,
    mixability_gap,
    posterior_update,
)
from .strategies import (
    AdaHedge,
    DoublingHedge,
    FixedHedge,
    FollowTheLeader,
    OracleHedge,
    RegretTrace,
    Strategy,
    VariableHedge,
    init,
    oracle_eta,
    run,
)
from .simulation import (
    AggregateResult,
    AlternatingPair,
    Correlated,
    ExperimentConfig,
    FtlKiller,
    IidBernoulli,
    SegmentStats,
    derive_seed,
    generate,
    run_experiment,
    segment_statistics,
    unit_uniforms,
)
from . import bounds

__version__ = "0.1.0"
