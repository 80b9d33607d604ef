"""One integer rule for every count and seed the public API takes.

Each entry point keeps the exact ``int`` that ``core._check_int`` returns:
an integer type as it is, a float only when it holds an integer.  Any
other value raises a ``ValueError`` that names the parameter.  The seeds of
``derive_seed``, ``unit_uniforms`` and ``generate`` take any integer and
wrap it modulo 2**64.
"""

import math
import os
import sys

import numpy as np
import pytest

import adahedge.simulation as simulation_mod
import adahedge.verify as verify_mod
from adahedge import bounds
from adahedge.core import CumulativeLoss
from adahedge.simulation import (
    _M64,
    ExperimentConfig,
    FtlKiller,
    IidBernoulli,
    _resolve_threads,
    derive_seed,
    generate,
    unit_uniforms,
)
from adahedge.strategies import FollowTheLeader, init, oracle_eta


def _config(**field):
    kwargs = dict(
        generator=FtlKiller(),
        horizon_t=5,
        repetitions=1,
        strategies=(FollowTheLeader(),),
        base_seed=5,
    )
    kwargs.update(field)
    return ExperimentConfig(**kwargs)


def _suite_seed(seed):
    """The sub-seed ``run_suite`` hands its one (probe) property."""
    results, _ = verify_mod.run_suite(full=False, seed=seed)
    return results[0].detail


# (parameter name as the error states it, entry point, its result at 5)
ENTRY_POINTS = {
    "init.k": ("number of actions k", lambda x: init(FollowTheLeader(), x).k, 5),
    "config.horizon_t": ("horizon_t", lambda x: _config(horizon_t=x).horizon_t, 5),
    "config.repetitions": ("repetitions", lambda x: _config(repetitions=x).repetitions, 5),
    "config.base_seed": ("base_seed", lambda x: _config(base_seed=x).base_seed, 5),
    "generate.horizon_t": ("horizon_t", lambda x: generate(FtlKiller(), x, 0).shape[0], 5),
    "CumulativeLoss.rounds": ("rounds", lambda x: CumulativeLoss((0.0, 0.0), x).rounds, 5),
    "unit_uniforms.n": ("n", lambda x: unit_uniforms(0, x).size, 5),
    "derive_seed.index": ("repetition index", lambda x: derive_seed(0, x), derive_seed(0, 5)),
    "derive_seed.base_seed": ("base_seed", lambda x: derive_seed(x, 0), derive_seed(5, 0)),
    "unit_uniforms.seed": (
        "seed", lambda x: unit_uniforms(x, 3).tolist(), unit_uniforms(5, 3).tolist(),
    ),
    "generate.seed": (
        "seed",
        lambda x: generate(IidBernoulli((0.5, 0.5)), 4, x).tolist(),
        generate(IidBernoulli((0.5, 0.5)), 4, 5).tolist(),
    ),
    "oracle_eta.k": ("number of actions k", lambda x: oracle_eta(4.0, x), oracle_eta(4.0, 5)),
    "threads": ("threads", _resolve_threads, min(5, len(os.sched_getaffinity(0)))),
    "run_suite.seed": ("seed", _suite_seed, derive_seed(5, 1000)),
    "bounds.k": ("k", lambda x: bounds.budget(1.0, x), bounds.budget(1.0, 5)),
    "bounds.m": ("m", lambda x: bounds.lemma3_bound(x, 2, 2.0), bounds.lemma3_bound(5, 2, 2.0)),
    "bounds.mstar": (
        "mstar",
        lambda x: bounds.lemma6_tau(x, 2, 1.0, 1.0, 2.0),
        bounds.lemma6_tau(5, 2, 1.0, 1.0, 2.0),
    ),
}


@pytest.fixture
def probed(monkeypatch):
    """Replaces the suite's properties by one probe that records its runs."""
    runs = []

    def probe(sub_seed):
        runs.append(sub_seed)
        return True, sub_seed

    monkeypatch.setattr(verify_mod, "_CHECKS", (("probe", probe, (), ()),))
    monkeypatch.delenv("ADAHEDGE_THREADS", raising=False)
    # the suite runs in this process, so that ``runs`` sees every probe
    monkeypatch.setattr(simulation_mod, "_FORK", None)
    return runs


@pytest.mark.parametrize("value", [2.5, math.nan, math.inf, "3", None], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_integer_is_refused_by_name(entry, value, probed):
    name, call, _ = ENTRY_POINTS[entry]
    if entry == "threads" and value is None:  # the documented default
        assert call(None) == len(os.sched_getaffinity(0))
        return
    with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
        call(value)
    assert probed == []


@pytest.mark.parametrize("value", [5.0, np.int64(5)], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_integral_value_is_the_int(entry, value, probed):
    _, call, want = ENTRY_POINTS[entry]
    got = call(value)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("seed", [-1, 2**64, 2.5])
def test_run_suite_refuses_seed_before_any_property(seed, probed):
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 18446744073709551615\]"):
        verify_mod.run_suite(full=True, seed=seed)
    assert probed == []


#: Seeds, which take any integer and wrap it modulo 2**64.
WRAPPING = ("derive_seed.base_seed", "unit_uniforms.seed", "generate.seed")
#: Entries whose interval has a finite top.
BOUNDED_ABOVE = ("config.base_seed", "run_suite.seed")


@pytest.mark.parametrize(
    "entry,value",
    [(e, -(10**5000)) for e in sorted(ENTRY_POINTS) if e not in WRAPPING]
    + [(e, 10**5000) for e in BOUNDED_ABOVE],
    ids=lambda v: ("-10**5000" if v < 0 else "10**5000") if isinstance(v, int) else v,
)
def test_integer_too_long_to_print_is_refused_by_name(entry, value, probed):
    """An int past the interpreter's int-to-str digit limit is refused by
    its number of digits, not by the limit's own error."""
    name, call, _ = ENTRY_POINTS[entry]
    message = rf"^{name} must be an integer in .*, got an integer of 5001 digits$"
    with pytest.raises(ValueError, match=message):
        call(value)
    assert probed == []


@pytest.mark.parametrize("value", [-(10**5000), 10**5000], ids=["-10**5000", "10**5000"])
@pytest.mark.parametrize("entry", WRAPPING)
def test_seed_too_long_to_print_wraps(entry, value):
    _, call, _ = ENTRY_POINTS[entry]
    assert call(value) == call(value & _M64)


def test_strategy_k_past_an_index_is_refused_by_name():
    """A k no list can be indexed by is refused before any allocation
    (only 2**63 is tried: a k that fits an index would be allocated)."""
    message = rf"^number of actions k must be an integer in \[2, {sys.maxsize}\], got {2**63}$"
    with pytest.raises(ValueError, match=message):
        init(FollowTheLeader(), 2**63)
