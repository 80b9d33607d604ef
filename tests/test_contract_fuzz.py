"""Contract fuzzing of the CLI's two outside inputs: config texts and bound flags.

Any input either runs or is refused with exit 2 and a message; nothing ends
in a traceback.  Both tests run in-process, start no process, simulate
nothing (config texts go through ``--dry-run`` only) and allocate nothing
large.
"""

import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from adahedge import cli
from adahedge.cli import ConfigError, main, parse_config


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
