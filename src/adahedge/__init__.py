"""Hedge-family online learning with adaptive learning rates.

The package plays K actions against [0, 1] loss streams: exponential
weights at fixed, decreasing, doubling and budget-adaptive learning rates,
plus leader-following baselines, together with the matching closed-form
regret guarantees and a bit-reproducible simulation harness.

The public names load with their submodule on first use, so importing the
package alone loads no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it; a submodule maps to itself
_EXPORTS = {
    **dict.fromkeys(
        ("ACCUMULATED_TOL", "LOSS_RANGE_TOL", "PER_OP_TOL", "CumulativeLoss", "RoundReport",
         "WeightSnapshot", "hedge_weights", "log_marginal_likelihood", "mix_loss",
         "mixability_gap", "posterior_update", "core"),
        "core",
    ),
    **dict.fromkeys(
        ("AdaHedge", "DoublingHedge", "FixedHedge", "FollowTheLeader", "OracleHedge",
         "RegretTrace", "Strategy", "VariableHedge", "init", "oracle_eta", "run", "strategies"),
        "strategies",
    ),
    **dict.fromkeys(
        ("AggregateResult", "AlternatingPair", "Correlated", "ExperimentConfig", "FtlKiller",
         "IidBernoulli", "SegmentStats", "derive_seed", "generate", "run_experiment",
         "segment_statistics", "unit_uniforms", "simulation"),
        "simulation",
    ),
    "reports": "reports",
    "bounds": "bounds",
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_EXPORTS[name]}", __name__)
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
