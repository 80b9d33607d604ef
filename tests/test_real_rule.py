"""One real-number rule for every rate, probability and bound parameter.

Each entry point takes its parameter through ``core._check_real``: a real
(a float, an int, a numpy scalar) as ``float(x)`` when it is finite and in
the parameter's interval.  Any other value raises a ``ValueError`` that
names the parameter and the interval.
"""

import math
import re

import numpy as np
import pytest

from adahedge import bounds
from adahedge.core import mixability_gap
from adahedge.simulation import AlternatingPair, Correlated, IidBernoulli
from adahedge.strategies import AdaHedge, FixedHedge, oracle_eta

# (parameter name as the error states it, entry point, a value inside the
# interval that a float32 holds, an int inside it or None where the interval
# holds none, a value outside it)
ENTRY_POINTS = {
    "typed_op.eta": (
        "learning rate eta",
        lambda x: mixability_gap([0.5, 0.5], [0.0, 1.0], x).eta,
        0.5, 2, 0.0,
    ),
    "FixedHedge.eta": ("learning rate eta", lambda x: FixedHedge(x).eta, 0.5, 2, -1.0),
    "Restarting.phi": ("phi", lambda x: AdaHedge(x).phi, 1.5, 2, 1.0),
    "budget.eta": ("eta", lambda x: bounds.budget(x, 4), 0.5, 2, 0.0),
    "lemma2.eta": ("eta", lambda x: bounds.lemma2_bound(x, 1.0, 4), 0.5, 1, 1.5),
    "lemma2.lstar": ("lstar", lambda x: bounds.lemma2_bound(0.5, x, 4), 0.5, 3, -0.5),
    "eta_floor.lstar": ("lstar", lambda x: bounds.eta_floor(x, 4), 0.5, 3, 0.0),
    "theorem1.lstar": ("lstar", lambda x: bounds.theorem1_bound(x, 4), 0.5, 0, -0.5),
    "lemma3.phi": ("phi", lambda x: bounds.lemma3_bound(3, 2, x), 1.5, 2, 1.0),
    "factor.phi": ("phi", bounds.theorem2_leading_factor, 1.5, 2, 0.5),
    "lemma4.eta": ("eta", lambda x: bounds.lemma4_bound(x, 0.5), 0.5, 1, 2.0),
    "lemma4.wstar": ("wstar", lambda x: bounds.lemma4_bound(0.5, x), 0.5, 0, 1.5),
    "lemma5_ck.alpha": ("alpha", lambda x: bounds.lemma5_ck(3, x, 1.0), 0.5, 2, 0.0),
    "lemma5_ck.beta": ("beta", lambda x: bounds.lemma5_ck(3, 0.5, x), 0.5, 1, 0.05),
    "lemma5_bound.alpha": (
        "alpha", lambda x: bounds.lemma5_bound(3, x, 1.0, 0.5), 0.5, 2, -1.0,
    ),
    "lemma5_bound.beta": (
        "beta", lambda x: bounds.lemma5_bound(3, 0.5, x, 0.5), 0.75, 2, 0.0,
    ),
    "lemma5_bound.eta": ("eta", lambda x: bounds.lemma5_bound(3, 0.5, 1.0, x), 0.5, 2, 0.0),
    "intro_mstar.alpha": ("alpha", lambda x: bounds.intro_mstar(x, 2.0), 0.5, 1, 1.5),
    "intro_mstar.phi": ("phi", lambda x: bounds.intro_mstar(0.5, x), 1.5, 3, 1.0),
    "theorem3_mstar.alpha": (
        "alpha", lambda x: bounds.theorem3_mstar(x, 0.5, 2, 2.0), 0.25, None, 0.75,
    ),
    "theorem3_mstar.delta_prob": (
        "delta_prob", lambda x: bounds.theorem3_mstar(0.25, x, 2, 2.0), 0.5, 1, 0.0,
    ),
    "theorem3_mstar.phi": (
        "phi", lambda x: bounds.theorem3_mstar(0.25, 0.5, 2, x), 1.5, 3, 1.0,
    ),
    "lemma6_tau.alpha": (
        "alpha", lambda x: bounds.lemma6_tau(3, 2, x, 1.0, 2.0), 0.5, 1, 0.0,
    ),
    "lemma6_tau.beta": ("beta", lambda x: bounds.lemma6_tau(3, 2, 0.5, x, 2.0), 0.75, 1, 0.5),
    "lemma6_tau.phi": ("phi", lambda x: bounds.lemma6_tau(3, 2, 0.5, 1.0, x), 1.5, 2, 1.0),
    "oracle_eta.lstar": ("lstar", lambda x: oracle_eta(x, 4), 0.5, 3, -0.5),
    "IidBernoulli.probs": (
        "probability probs[1]", lambda x: IidBernoulli((0.5, x)).probs[1], 0.5, 1, 1.5,
    ),
    "Correlated.hard_prob": (
        "probability hard_prob", lambda x: Correlated(hard_prob=x).hard_prob, 0.5, 1, 1.5,
    ),
    "Correlated.p1": ("probability p1", lambda x: Correlated(p1=x).p1, 0.5, 1, -0.5),
    "Correlated.p2": ("probability p2", lambda x: Correlated(p2=x).p2, 0.5, 0, 2.0),
    # a and b lie strictly between 0 and 1, so neither takes an int
    "AlternatingPair.a": (
        "a", lambda x: AlternatingPair(a=x, b=0.75, eps=0.0).a, 0.25, None, -0.25,
    ),
    "AlternatingPair.b": (
        "b", lambda x: AlternatingPair(a=0.25, b=x, eps=0.0).b, 0.75, None, -0.75,
    ),
    "AlternatingPair.eps": (
        "eps", lambda x: AlternatingPair(a=0.25, b=0.75, eps=x).eps, 0.125, 0, -0.125,
    ),
}

# (value, how the error gives it)
NOT_REAL = [
    ("0.5", "'0.5'"),
    (None, "None"),
    (math.nan, "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (10**400, "1" + "0" * 400),
    (10**5000, "an integer of 5001 digits"),
]


@pytest.mark.parametrize(
    "value,shown", NOT_REAL, ids=["str", "None", "nan", "inf", "-inf", "10**400", "10**5000"]
)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_real_is_refused_by_name(entry, value, shown):
    name, call, *_ = ENTRY_POINTS[entry]
    message = rf"^{re.escape(name)} must be in .*, got {re.escape(shown)}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_value_outside_the_interval_is_refused_by_name(entry):
    name, call, _, _, outside = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be in .*, got {outside!r}$"):
        call(outside)


@pytest.mark.parametrize(
    "entry,kind",
    [(e, "int") for e in sorted(ENTRY_POINTS) if ENTRY_POINTS[e][3] is not None]
    + [(e, "float32") for e in sorted(ENTRY_POINTS)],
)
def test_real_is_taken_as_its_float(entry, kind):
    """An int or a numpy scalar gives what its float gives, and a stored
    parameter is a plain ``float``."""
    _, call, inside, whole, _ = ENTRY_POINTS[entry]
    value = whole if kind == "int" else np.float32(inside)
    got, want = call(value), call(float(value))
    assert got == want and type(got) is type(want)

