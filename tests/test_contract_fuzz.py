"""Contract fuzzing of the CLI's two outside inputs, config texts and bound
flags, and of the typed API's arguments.

Any CLI input either runs or is refused with exit 2 and a message; any typed
call returns a value or raises a ValueError/TypeError naming the parameter.
Nothing ends in a traceback.  The tests run in-process, start no process,
simulate nothing (config texts go through ``--dry-run`` only) and allocate
nothing large.
"""

import contextlib
import io
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adahedge import cli
from adahedge.cli import ConfigError, main, parse_config
from adahedge.core import CumulativeLoss, WeightSnapshot, mix_loss, mixability_gap, posterior_update
from adahedge.strategies import AdaHedge, init, run


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# config texts

BASE = {
    "generator": "iid_bernoulli",
    "probs": "0.2, 0.8",
    "horizon_t": "40",
    "repetitions": "3",
    "strategies": "ftl, adahedge(phi=2), fixed_hedge(eta=0.5)",
    "base_seed": "11",
    "output_dir": "out/fuzz",
}
KEYS = sorted(cli._ALL_KEYS) + ["horizon", "Horizon_T", "ｈorizon_t", "seed", "#key"]
INT_TEXT = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.sampled_from([2**31, 2**53 + 1, 2**62, 2**63, 2**64 - 1, 2**64, 10**30]).map(str),
    st.integers(4295, 4305).map(lambda n: "9" * n),  # around int()'s digit limit
    st.sampled_from(["0x10", "0b11", "1_000", "1e3", "1.0", "+5", "-0", "٣", "007"]),
)
FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "inf", "5e-324", "1e-320", "-0.0", "1e300", "0.5, 0.5"]),
    st.lists(st.floats(0, 1).map(repr), min_size=1, max_size=5).map(", ".join),
)
ENTRY = st.tuples(
    st.sampled_from(sorted(cli._STRATEGIES) + ["ADAHEDGE", "bogus", ""]),
    st.sampled_from(
        ["", "(phi=2)", "(eta=0.5)", "(phi=(2))", "((eta=1))", "(", ")", "(eta=nan)",
         "(phi=1e308)", "(phi=2, phi=3)", "(eta=-0.0)", "(phi=2)x", "(2)"]
    ),
).map("".join)
ROSTER_TEXT = st.lists(ENTRY, max_size=4).map(", ".join)
VALUE = st.one_of(
    INT_TEXT,
    FLOAT_TEXT,
    ROSTER_TEXT,
    st.sampled_from(sorted(cli.GENERATORS) + ["IID_BERNOULLI", "bogus"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.just("a\0b"),
)


@st.composite
def config_texts(draw):
    entries = dict(BASE)
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=3)):
        entries[key] = draw(VALUE)
    dropped = draw(st.sampled_from([None] * 4 + list(BASE)))
    lines = [f"{key} = {value}" for key, value in entries.items() if key != dropped]
    for _ in range(draw(st.integers(0, 2))):  # repeated lines, junk and comments
        extra = draw(
            st.sampled_from(lines or ["x"])
            | st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
            | st.just("# a comment = 1")
        )
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return draw(st.sampled_from(["", "\ufeff"])) + "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=config_texts())
def test_config_text_runs_or_is_refused_at_a_line(tmp_path_factory, text):
    try:
        parse_config(text.removeprefix("\ufeff"), "cfg")
        parsed = True
    except ConfigError as exc:
        assert str(exc).startswith("cfg:")
        parsed = False
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(text.encode("utf-8"))
    rc, out, err = run_main(["run", str(path), "--dry-run"])
    assert rc in (0, 2)
    if rc == 0:
        assert parsed and out.startswith("config OK: ") and not err
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not parsed or "ADAHEDGE_THREADS" in err


# ---------------------------------------------------------------------------
# bound flags

INT_FLAGS = {"k", "m", "mstar"}
FLAGS = sorted({"eta"} | {flag for _, flags in cli._BOUNDS.values() for flag in flags})
EXTREME_FLOATS = [5e-324, -5e-324, 1e300, -1e300, 0.0, -0.0, math.nan, math.inf, -math.inf]
EXTREME_INTS = [2**63, 2**64, 10**300, -(2**63), -1, 0, 1, 2, 3]


def flag_text(flag):
    if flag in INT_FLAGS:
        return st.one_of(st.sampled_from(EXTREME_INTS), st.integers(-5, 100)).map(str)
    return st.one_of(
        st.sampled_from(EXTREME_FLOATS + EXTREME_INTS),
        st.floats(),
        st.floats(0, 1),
        st.floats(1, 4),
    ).map(repr)


@st.composite
def bound_argvs(draw):
    name = draw(st.sampled_from(sorted(cli._BOUNDS)))
    taken = cli._BOUNDS[name][1]
    argv = ["bounds", name]
    for flag in FLAGS:
        # mostly the flags the bound takes; now and then one it does not
        if draw(st.integers(0, 9)) < (9 if flag in taken else 1):
            # argparse reads a separate "-1e300" as an option, so mostly join it
            value = draw(flag_text(flag))
            argv += draw(st.sampled_from([[f"--{flag}={value}"]] * 3 + [[f"--{flag}", value]]))
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=bound_argvs())
def test_bound_is_finite_and_nonnegative_or_refused(argv):
    rc, out, err = run_main(argv)
    assert rc in (0, 2)
    if rc == 0:
        value = float(out)
        assert math.isfinite(value) and value >= 0 and not err
    else:
        assert err and not out


# ---------------------------------------------------------------------------
# the typed API

ODD_ELEMENTS = [
    "0.5", None, 10**400, 2**64, -(2**63), math.nan, -math.nan, math.inf, -math.inf, -0.0,
    5e-324, 1e308, -1e308, True, 1j, Decimal("0.5"), Fraction(1, 2), np.float32(0.5),
    np.int64(1), [0.5], object(),
]
ELEMENT = st.one_of(st.floats(0, 1), st.floats(), st.sampled_from(ODD_ELEMENTS))
# a set has no order and a mapping would give its keys: both must be refused
UNORDERED = {"set", "frozenset", "dict", "keys"}
CONTAINERS = sorted(
    UNORDERED | {"list", "tuple", "array", "generator", "values", "0-d", "3-d", "ragged", "str"}
)


def contain(kind, values):
    """``values`` in the container named ``kind``; TypeError if they cannot be."""
    if kind == "list":
        return list(values)
    if kind == "tuple":
        return tuple(values)
    if kind == "array":
        try:
            return np.array(values)
        except (TypeError, ValueError):  # ragged or odd elements
            return np.array(values, dtype=object)
    if kind == "generator":
        return (v for v in values)
    if kind == "values":
        return dict(enumerate(values)).values()
    if kind == "set":
        return set(values)
    if kind == "frozenset":
        return frozenset(values)
    if kind == "dict":
        return dict.fromkeys(values, 0.5)
    if kind == "keys":
        return dict.fromkeys(values).keys()
    if kind == "0-d":
        return np.array(0.5)
    if kind == "3-d":
        return np.full((1, 2, max(1, len(values))), 0.5)
    if kind == "ragged":
        return [list(values), list(values)[:1]]
    assert kind == "str"
    return ",".join(map(str, values))


@st.composite
def vectors(draw, good):
    """(container kind, vector): ``good`` itself, or odd elements and counts."""
    kind = draw(st.sampled_from(CONTAINERS))
    values = draw(st.just(good) | st.lists(ELEMENT, max_size=5))
    try:
        return kind, contain(kind, values)
    except TypeError:  # unhashable elements in a set or a mapping
        assume(False)


COUNTS = [-1, 0, 1, 2, 3, 2.0, 2.5, math.nan, math.inf, "2", None, True, 2**63, 10**400]
RATES = [0.5, 0.0, -0.0, -1.0, math.nan, math.inf, 1e308, 5e-324, "0.5", None, 10**400, 1j]
W, L = [0.25, 0.75], [0.0, 1.0]
ROUND = {"weights": W, "loss": L, "eta": 0.5}
# call name -> (function of the keyword arguments, defaults, the text a
# refusal of each parameter contains)
TYPED = {
    "mix_loss": (lambda a: mix_loss(**a), ROUND, {"weights": "weight", "loss": "loss", "eta": "eta"}),
    "mixability_gap": (
        lambda a: mixability_gap(**a), ROUND, {"weights": "weight", "loss": "loss", "eta": "eta"}
    ),
    "posterior_update": (
        lambda a: posterior_update(**a), ROUND, {"weights": "weight", "loss": "loss", "eta": "eta"}
    ),
    "CumulativeLoss": (
        lambda a: CumulativeLoss(**a), {"totals": [0.0, 1.0], "rounds": 2},
        {"totals": "total", "rounds": "rounds"},
    ),
    "from_weights": (lambda a: WeightSnapshot.from_weights(**a), {"weights": W}, {"weights": "weight"}),
    "init": (lambda a: init(AdaHedge(), **a), {"k": 2}, {"k": "number of actions k"}),
    "observe": (lambda a: init(AdaHedge(), 2).observe(**a), {"loss": L}, {"loss": "loss"}),
    "run": (lambda a: run(AdaHedge(), **a), {"losses": [L, L[::-1]]}, {"losses": "loss"}),
}
SCALARS = {"eta": RATES, "rounds": COUNTS, "k": COUNTS}


@st.composite
def typed_calls(draw):
    """(call name, parameter, container kinds it was given in, arguments)."""
    name = draw(st.sampled_from(sorted(TYPED)))
    _, defaults, _ = TYPED[name]
    param = draw(st.sampled_from(sorted(defaults)))
    kinds = set()
    if param in SCALARS:
        # no random float for k: an integral one would allocate k actions
        odd = st.sampled_from(SCALARS[param]) | st.integers(-3, 5)
        value = draw(odd if param == "k" else odd | st.floats())
    elif param == "losses":  # rows of losses, each row in its own container
        rows = []
        for _ in range(draw(st.integers(0, 3))):
            kind, row = draw(st.sampled_from([("tuple", tuple(L))]) | vectors(L))
            kinds.add(kind)
            rows.append(row)
        outer = draw(st.sampled_from(CONTAINERS))
        kinds.add(outer)
        try:
            value = contain(outer, rows)
        except TypeError:  # unhashable rows in a set or a mapping
            assume(False)
    else:
        kind, value = draw(vectors(defaults[param]))
        kinds.add(kind)
    return name, param, kinds, {**defaults, param: value}


@settings(max_examples=600, deadline=None)
@given(call=typed_calls())
def test_typed_call_returns_or_names_its_parameter(call):
    name, param, kinds, args = call
    fn, _, names = TYPED[name]
    try:
        fn(args)
    except (ValueError, TypeError) as exc:
        text = str(exc)
        # a weight vector of another length is reported as the loss count it implies
        assert names[param] in text or (param == "weights" and "losses, got" in text), text
    else:
        assert not kinds & UNORDERED, f"{name} took {param} in no order: {args[param]!r}"
