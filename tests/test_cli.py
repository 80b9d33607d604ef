"""Tests for config parsing, the CLI commands and their file outputs."""

import csv
import importlib
import io
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adahedge
from adahedge.cli import ConfigError, main, parse_config
from adahedge.reports import (
    _BLOCK,
    SUMMARY_HEADER,
    TRACE_HEADER,
    format_sig,
    write_summary_csv,
    write_trace_csvs,
)
from adahedge.simulation import (
    GENERATORS,
    AggregateResult,
    AlternatingPair,
    Correlated,
    ExperimentConfig,
    FtlKiller,
    IidBernoulli,
)
from adahedge.strategies import KINDS, AdaHedge, FixedHedge, FollowTheLeader
from adahedge.verify import run_suite

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"

VALID = """\
# tiny smoke experiment
generator = iid_bernoulli
probs = 0.2, 0.8
horizon_t = 40
repetitions = 3
strategies = ftl, adahedge(phi=2), fixed_hedge(eta=0.5)
base_seed = 11
output_dir = {out}
"""


class TestParseConfig:
    def test_valid_config(self):
        cfg = parse_config(VALID.format(out="out/smoke"))
        assert isinstance(cfg.generator, IidBernoulli)
        assert cfg.generator.probs == (0.2, 0.8)
        assert cfg.horizon_t == 40
        assert cfg.repetitions == 3
        assert cfg.base_seed == 11
        assert cfg.output_dir == Path("out/smoke")
        assert cfg.strategies == (
            FollowTheLeader(),
            AdaHedge(2.0),
            FixedHedge(0.5),
        )

    def test_comments_and_blank_lines_ignored(self):
        text = VALID.format(out="x") + "\n# trailing comment\n\n"
        assert parse_config(text).horizon_t == 40

    def test_hex_seed(self):
        text = VALID.format(out="x").replace("base_seed = 11", "base_seed = 0x10")
        assert parse_config(text).base_seed == 16

    def test_unknown_key_reports_line(self):
        text = VALID.format(out="x").replace("horizon_t = 40", "horizon = 40")
        with pytest.raises(ConfigError, match=r"cfg:4: unknown key 'horizon'"):
            parse_config(text, "cfg")

    def test_duplicate_key_reports_both_lines(self):
        text = VALID.format(out="x") + "horizon_t = 50\n"
        with pytest.raises(ConfigError, match=r"cfg:9: duplicate key.*line 4"):
            parse_config(text, "cfg")

    def test_missing_required_key(self):
        text = VALID.format(out="x").replace("strategies = ftl, adahedge(phi=2), fixed_hedge(eta=0.5)\n", "")
        with pytest.raises(ConfigError, match=r"cfg: missing required key 'strategies'"):
            parse_config(text, "cfg")

    def test_unknown_generator(self):
        text = VALID.format(out="x").replace("iid_bernoulli", "white_noise")
        with pytest.raises(ConfigError, match="unknown generator 'white_noise'"):
            parse_config(text, "cfg")

    def test_generator_key_mismatch(self):
        text = VALID.format(out="x") + "hard_prob = 0.3\n"
        with pytest.raises(ConfigError, match="not valid for generator 'iid_bernoulli'"):
            parse_config(text, "cfg")

    def test_unknown_strategy(self):
        text = VALID.format(out="x").replace("ftl,", "gradient_descent,")
        with pytest.raises(ConfigError, match="unknown strategy 'gradient_descent'"):
            parse_config(text, "cfg")

    def test_unbalanced_parens(self):
        text = VALID.format(out="x").replace("adahedge(phi=2)", "adahedge(phi=2")
        with pytest.raises(ConfigError, match="unbalanced"):
            parse_config(text, "cfg")

    def test_fixed_hedge_requires_eta(self):
        text = VALID.format(out="x").replace("fixed_hedge(eta=0.5)", "fixed_hedge")
        with pytest.raises(ConfigError, match="fixed_hedge requires eta"):
            parse_config(text, "cfg")

    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_every_kind_parses_under_its_name(self, name):
        required = [f"{f.name}=2" for f in fields(KINDS[name]) if f.default is MISSING]
        entry = f"{name}({', '.join(required)})" if required else name
        text = VALID.format(out="x").replace("ftl, adahedge(phi=2), fixed_hedge(eta=0.5)", entry)
        (kind,) = parse_config(text).strategies
        assert type(kind) is KINDS[name]
        assert kind.slug.startswith(name)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_every_generator_parses_under_its_name(self, name):
        valid = {"probs": "0.2, 0.8", "a": "0.2", "b": "0.6", "eps": "0.1"}
        required = [
            f"{f.name} = {valid[f.name]}\n"
            for f in fields(GENERATORS[name])
            if f.default is MISSING
        ]
        text = VALID.format(out="x").replace(
            "generator = iid_bernoulli\nprobs = 0.2, 0.8\n",
            f"generator = {name}\n{''.join(required)}",
        )
        assert type(parse_config(text).generator) is GENERATORS[name]

    def test_follow_the_leader_is_ftl(self):
        text = VALID.format(out="x").replace("ftl,", "follow_the_leader,")
        assert parse_config(text).strategies[0].slug == "ftl"

    @pytest.mark.parametrize(
        "entry,message",
        [("adahedge(phi=1)", "phi must be"), ("fixed_hedge(eta=nan)", "eta must be")],
    )
    def test_strategy_parameter_checks_report_line(self, entry, message):
        text = VALID.format(out="x").replace("adahedge(phi=2)", entry)
        with pytest.raises(ConfigError, match=rf"cfg:6: .*{message}"):
            parse_config(text, "cfg")

    def test_strategy_rejects_foreign_parameter(self):
        text = VALID.format(out="x").replace("adahedge(phi=2)", "adahedge(eta=1)")
        with pytest.raises(ConfigError, match="does not take"):
            parse_config(text, "cfg")

    def test_repeated_strategy_parameter_rejected(self):
        text = VALID.format(out="x").replace("adahedge(phi=2)", "adahedge(phi=2, phi=3)")
        with pytest.raises(ConfigError, match=r"cfg:6: repeated parameter 'phi'"):
            parse_config(text, "cfg")

    def test_duplicate_strategies_rejected(self):
        text = VALID.format(out="x").replace("ftl,", "adahedge(phi=2),")
        with pytest.raises(ConfigError, match="duplicate strategies"):
            parse_config(text, "cfg")

    def test_bad_horizon_value(self):
        text = VALID.format(out="x").replace("horizon_t = 40", "horizon_t = 0")
        with pytest.raises(
            ConfigError, match=r"^cfg:4: horizon_t must be an integer in \[1, inf\), got 0$"
        ):
            parse_config(text, "cfg")

    @pytest.mark.parametrize(
        "key,line", [("horizon_t", 4), ("repetitions", 5), ("base_seed", 7)]
    )
    def test_integer_past_the_digit_limit_is_out_of_range(self, key, line):
        """int() refuses decimal literals of more than 4300 digits; the
        value is well formed, so the error names its range."""
        text = "\n".join(
            f"{key} = {'9' * 2000}_{'1' * 3000}" if row.startswith(key) else row
            for row in VALID.format(out="x").splitlines()
        )
        with pytest.raises(
            ConfigError, match=rf"cfg:{line}: {key} is out of range, got an integer of 5000 digits"
        ):
            parse_config(text, "cfg")

    def test_malformed_long_integer_is_not_an_integer(self):
        text = VALID.format(out="x").replace("horizon_t = 40", f"horizon_t = 0{'1' * 5000}")
        with pytest.raises(ConfigError, match="cfg:4: horizon_t must be an integer"):
            parse_config(text, "cfg")

    def test_correlated_defaults(self):
        text = """\
generator = correlated
horizon_t = 10
repetitions = 1
strategies = adahedge
base_seed = 1
output_dir = out
"""
        cfg = parse_config(text)
        assert cfg.generator == Correlated(hard_prob=0.3, p1=0.01, p2=0.02)

    def test_generator_invariants_surface_with_line(self):
        text = """\
generator = alternating_pair
a = 0.2
b = 0.3
eps = 0.1
horizon_t = 10
repetitions = 1
strategies = adahedge
base_seed = 1
output_dir = out
"""
        with pytest.raises(ConfigError, match=r"cfg:1: .*ahead"):
            parse_config(text, "cfg")

    def test_alternating_config_round_trips(self):
        text = """\
generator = alternating_pair
a = 0.2
b = 0.6
eps = 0.1
horizon_t = 10
repetitions = 1
strategies = variable_hedge
base_seed = 1
output_dir = out
"""
        assert parse_config(text).generator == AlternatingPair(a=0.2, b=0.6, eps=0.1)

    @pytest.mark.parametrize(
        "old,new,line,message",
        [
            ("ftl,", "ftl),", 6, "unbalanced ')' in strategy list"),
            ("adahedge(phi=2)", "adahedge(phi=2)x", 6, "missing ')' in strategy 'adahedge(phi=2)x'"),
            ("adahedge(phi=2)", "adahedge(2)", 6, "expected key=value inside 'adahedge(2)', got '2'"),
            ("adahedge(phi=2)", "adahedge(phi=x)", 6, "'phi' in 'adahedge(phi=x)' is not a number"),
            ("probs = 0.2, 0.8", "probs = 0.2, x", 3, "probs must be a number, got ' x'"),
            ("horizon_t = 40", "horizon_t 40", 4, "expected key = value, got 'horizon_t 40'"),
            ("repetitions = 3", "repetitions =", 5, "key 'repetitions' has an empty value"),
            (
                "iid_bernoulli\nprobs = 0.2, 0.8",
                "alternating_pair\na = 0.2\nb = 0.6",
                2,
                "generator 'alternating_pair' requires key 'eps'",
            ),
            (
                "repetitions = 3",
                "repetitions = 0",
                5,
                "repetitions must be an integer in [1, inf), got 0",
            ),
            (
                "base_seed = 11",
                "base_seed = 18446744073709551616",
                7,
                "base_seed must be an integer in [0, 18446744073709551615], "
                "got 18446744073709551616",
            ),
            ("ftl, adahedge(phi=2), fixed_hedge(eta=0.5)", ",", 6, "need at least one strategy"),
        ],
    )
    def test_refusal_names_its_line(self, old, new, line, message):
        text = VALID.format(out="x")
        assert old in text
        with pytest.raises(ConfigError, match=rf"^cfg:{line}: {re.escape(message)}$"):
            parse_config(text.replace(old, new), "cfg")


class TestReportWriters:
    """The CSV writers' bytes, pinned to csv.writer with format_sig per float."""

    @staticmethod
    def edge_result():
        config = ExperimentConfig(
            generator=FtlKiller(),
            horizon_t=4,
            repetitions=3,
            strategies=(FollowTheLeader(), AdaHedge(phi=2.0)),
            base_seed=2**64 - 1,
        )
        edges = [-0.0, 5e-324, 1.5e16, 0.1 + 0.2, math.nan, math.inf, -math.inf, 1 / 3]
        slugs = config.slugs
        col = {s: np.array(edges[4 * i : 4 * i + 4]) for i, s in enumerate(slugs)}
        return AggregateResult(
            config=config,
            mean_regret=col,
            mean_cum_loss={s: col[s][::-1].copy() for s in slugs},
            mean_eta={
                "ftl": np.full(4, math.inf),
                "adahedge_phi2": np.array([1.0, 0.5, 2 / 3, 1e-300]),
            },
            segment_events={s: np.array([3, 10, 12, 123456], dtype=np.int64) for s in slugs},
            segments_started={
                "ftl": np.array([1, 1, 1], dtype=np.int64),
                "adahedge_phi2": np.array([2, 10, 17], dtype=np.int64),
            },
        )

    @staticmethod
    def reference(result):
        """File name -> text, written row by row through the csv module,
        with the nine-digit float format spelled out here rather than taken
        from the module under test."""

        def format_sig(x):
            return f"{float(x):.9g}"

        files = {}
        for slug in result.slugs:
            buf = io.StringIO(newline="")
            writer = csv.writer(buf)
            writer.writerow(TRACE_HEADER)
            # every column the header names after "round", of any length
            columns = [getattr(result, name)[slug] for name in TRACE_HEADER[1:]]
            for t, (mr, mc, me, ev) in enumerate(zip(*columns), 1):
                writer.writerow([t, format_sig(mr), format_sig(mc), format_sig(me), int(ev)])
            files[f"trace_{slug}.csv"] = buf.getvalue()
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(SUMMARY_HEADER)
        cfg = result.config
        for slug in result.slugs:
            segs = result.segments_started[slug]
            writer.writerow(
                [
                    slug,
                    format_sig(result.mean_regret[slug][-1]),
                    format_sig(segs.sum() / len(segs)),
                    cfg.repetitions,
                    cfg.horizon_t,
                    cfg.base_seed,
                ]
            )
        files["summary.csv"] = buf.getvalue()
        return files

    def test_edge_values_match_csv_module(self, tmp_path):
        result = self.edge_result()
        write_trace_csvs(result, tmp_path)
        write_summary_csv(result, tmp_path)
        want = self.reference(result)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(want)
        for name, text in want.items():
            assert (tmp_path / name).read_bytes() == text.encode()

    @staticmethod
    def one_trace(regret, cum_loss, eta, events):
        """A one-strategy result holding these trace columns."""
        config = ExperimentConfig(
            generator=FtlKiller(),
            horizon_t=len(regret),
            repetitions=1,
            strategies=(FollowTheLeader(),),
            base_seed=0,
        )
        return AggregateResult(
            config=config,
            mean_regret={"ftl": np.asarray(regret, np.float64)},
            mean_cum_loss={"ftl": np.asarray(cum_loss, np.float64)},
            mean_eta={"ftl": np.asarray(eta, np.float64)},
            segment_events={"ftl": np.asarray(events, np.int64)},
            segments_started={"ftl": np.array([1], dtype=np.int64)},
        )

    def assert_matches_reference(self, result, outdir):
        write_trace_csvs(result, outdir)
        write_summary_csv(result, outdir)
        for name, text in self.reference(result).items():
            assert (outdir / name).read_bytes() == text.encode(), name

    # the round column's width grows at 9/10, 99/100, 999/1000 and
    # 9999/10000, inside a block and across its edges
    @pytest.mark.parametrize(
        "n",
        [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001]
        + [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3, 10**4 + 1],
    )
    def test_block_edges_match_csv_module(self, n, tmp_path):
        rng = np.random.default_rng(n)
        regret = rng.normal(0.0, 100.0, n)
        # eta and the events repeat within a block, as in real traces
        eta = rng.choice([1.0, 0.5, 1 / 3, math.inf], n)
        events = rng.integers(0, 3, n)
        result = self.one_trace(regret, np.cumsum(np.abs(regret)), eta, events)
        self.assert_matches_reference(result, tmp_path)

    def test_widest_cells_and_special_values_match_csv_module(self, tmp_path):
        nan_bits = [
            0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
            0xFFF0000000000001, 0x7FF4000000000000, 0x7FFFFFFFFFFFFFFF,
        ]
        floats = np.concatenate(
            [
                [-1.23456789e-100, -5e-324, 5e-324, -0.0, 0.0, math.inf, -math.inf],
                [-np.finfo(np.float64).max, np.finfo(np.float64).max],
                np.array(nan_bits, dtype=np.uint64).view(np.float64),
            ]
        )
        events = np.resize(np.array([2**63 - 1, -(2**63 - 1), -(2**63), 0]), len(floats))
        result = self.one_trace(floats, floats[::-1], np.roll(floats, 3), events)
        self.assert_matches_reference(result, tmp_path)
        text = (tmp_path / "trace_ftl.csv").read_bytes().decode()
        for widest in ("-1.23456789e-100,", "-4.94065646e-324,", ",-9223372036854775808\r\n"):
            assert widest in text

    @settings(max_examples=200, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
        picks=st.lists(st.integers(0, 7), min_size=1, max_size=40),
        events=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=4),
        across_blocks=st.booleans(),
    )
    def test_any_float64_bits_match_csv_module(
        self, tmp_path_factory, bits, picks, events, across_blocks
    ):
        """Raw bit patterns, repeated within a block and, when stretched,
        across a block boundary."""
        pool = np.array(bits, dtype=np.uint64).view(np.float64)
        floats = pool[np.array(picks) % len(pool)]
        if across_blocks:
            floats = np.resize(floats, _BLOCK + len(floats))
        n = len(floats)
        result = self.one_trace(
            floats, floats[::-1], np.roll(floats, 1), np.resize(np.array(events), n)
        )
        outdir = tmp_path_factory.getbasetemp() / "float64_bits"
        self.assert_matches_reference(result, outdir)

    def test_trace_writer_memory_is_pinned(self, tmp_path):
        """The writer holds one block of rows at a time: its traced peak at
        2e5 rows (about 0.3 MB) stays far below the ~6 MB that one whole
        column as a Python list would take."""
        n = 200_000
        rng = np.random.default_rng(0)
        # the rounds are distinct; the other columns repeat, as eta does,
        # which keeps tracemalloc's cost per Python object down
        regret, loss = rng.random(256)[rng.integers(0, 256, (2, n))]
        eta = rng.choice([1.0, 0.5, 0.25], n)
        result = self.one_trace(regret, loss, eta, rng.integers(0, 2, n))
        tracemalloc.start()
        try:
            write_trace_csvs(result, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestRunCommand:
    def write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return path

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.cfg")])
        assert rc == 3
        assert "cannot read config" in capsys.readouterr().err

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"\xff\xfe")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: config is not UTF-8 text\n"

    def test_out_of_memory_names_the_sizes(self, tmp_path, capsys, monkeypatch):
        """Stands in for the allocation a huge horizon fails; nothing is
        allocated for real."""
        import adahedge.cli as cli_mod

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli_mod, "run_experiment", no_memory)
        text = VALID.format(out=tmp_path / "out").replace(
            "horizon_t = 40", "horizon_t = 100000000000"
        )
        assert main(["run", str(self.write(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert "horizon_t = 100000000000" in err and "repetitions = 3" in err

    @pytest.mark.parametrize(
        "horizon", ["100000000000000000000", "4611686018427387904", "35184372088832"]
    )
    def test_horizon_numpy_cannot_address_names_the_sizes(
        self, tmp_path, capsys, monkeypatch, horizon
    ):
        """The shared mapping of the sums refuses these lengths before
        anything is allocated: the first two do not fit ``mmap``'s size, and
        the third (2**45 rounds, 3 PB of sums) is past the address space, which
        the OS refuses as out of memory."""
        monkeypatch.setenv("ADAHEDGE_THREADS", "1")
        text = VALID.format(out=tmp_path / "out").replace(
            "horizon_t = 40", f"horizon_t = {horizon}"
        )
        assert main(["run", str(self.write(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"horizon_t = {horizon}" in err
        assert not (tmp_path / "out").exists()

    def test_repetitions_numpy_cannot_address_are_one_error_line(self, tmp_path, capsys):
        """The shared mapping of the segment counts refuses 2**62 of them
        before anything runs."""
        reps = 4611686018427387904
        text = VALID.format(out=tmp_path / "out")
        text = text.replace("horizon_t = 40", "horizon_t = 10")
        text = text.replace("repetitions = 3", f"repetitions = {reps}")
        assert main(["run", str(self.write(tmp_path, text))]) == 2
        assert capsys.readouterr().err == (
            f"error: out of memory for horizon_t = 10 and repetitions = {reps}; "
            "lower horizon_t or repetitions\n"
        )
        assert not (tmp_path / "out").exists()

    def test_dead_pool_worker_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        """A worker that exits abruptly breaks the pool. The forked workers
        inherit the patched ``run``; this process must never call it."""
        import adahedge.simulation as simulation_mod

        parent = os.getpid()

        def die(*args):
            assert os.getpid() != parent, "run ran in the test process"
            os._exit(9)

        monkeypatch.setenv("ADAHEDGE_THREADS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(simulation_mod, "run", die)
        path = self.write(tmp_path, VALID.format(out=tmp_path / "out"))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: a pool worker process died running horizon_t = 40 and "
            "repetitions = 3; lower them or ADAHEDGE_THREADS\n"
        )
        assert not (tmp_path / "out").exists()

    def test_dry_run_caps_threads_at_cpu_count(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADAHEDGE_THREADS", "1000000")
        path = self.write(tmp_path, VALID.format(out=tmp_path / "never"))
        assert main(["run", str(path), "--dry-run"]) == 0
        assert f"  threads     {os.cpu_count() or 1}\n" in capsys.readouterr().out

    def test_invalid_config_names_line(self, tmp_path, capsys):
        path = self.write(
            tmp_path, VALID.format(out="x").replace("horizon_t = 40", "horizon = 40")
        )
        rc = main(["run", str(path)])
        assert rc == 2
        assert f"{path}:4" in capsys.readouterr().err

    @pytest.mark.parametrize("dry_run", [True, False])
    def test_nul_byte_in_output_dir_is_a_config_error(self, tmp_path, capsys, dry_run):
        """Refused at its line before anything is simulated."""
        path = self.write(tmp_path, VALID.format(out=tmp_path / "a\0b"))
        assert main(["run", str(path), *(["--dry-run"] if dry_run else [])]) == 2
        assert f"{path}:8: output_dir contains a NUL byte" in capsys.readouterr().err

    @pytest.mark.parametrize("dry_run", [True, False])
    @pytest.mark.parametrize(
        "old,new,line,field,value",
        [
            ("horizon_t = 40", "horizon_t = 0", 4, "horizon_t", 0),
            ("repetitions = 3", "repetitions = 0", 5, "repetitions", 0),
            ("base_seed = 11", "base_seed = -1", 7, "base_seed", -1),
            ("base_seed = 11", f"base_seed = {2**64}", 7, "base_seed", 2**64),
            ("ftl, adahedge(phi=2), fixed_hedge(eta=0.5)", ",", 6, "strategies", ()),
            (
                "ftl,",
                "adahedge(phi=2),",
                6,
                "strategies",
                (AdaHedge(phi=2), AdaHedge(phi=2), FixedHedge(eta=0.5)),
            ),
            ("output_dir = x", "output_dir = a\0b", 8, "output_dir", "a\0b"),
        ],
        ids=[
            "horizon_t-0",
            "repetitions-0",
            "base_seed-negative",
            "base_seed-2**64",
            "empty-roster",
            "duplicate-roster",
            "nul-output_dir",
        ],
    )
    def test_config_refusal_is_the_api_refusal(
        self, tmp_path, capsys, dry_run, old, new, line, field, value
    ):
        """ExperimentConfig owns these rules; the CLI adds only the line."""
        text = VALID.format(out="x")
        with pytest.raises(ValueError) as api:
            replace(parse_config(text), **{field: value})
        path = self.write(tmp_path, text.replace(old, new))
        assert main(["run", str(path), *(["--dry-run"] if dry_run else [])]) == 2
        assert capsys.readouterr().err == f"error: {path}:{line}: {api.value}\n"

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "never"
        path = self.write(tmp_path, VALID.format(out=out))
        rc = main(["run", str(path), "--dry-run"])
        assert rc == 0
        assert not out.exists()
        stdout = capsys.readouterr().out
        assert "config OK" in stdout
        assert "iid_bernoulli" in stdout
        assert "ftl, adahedge_phi2, fixed_hedge_eta0.5" in stdout

    def test_dry_run_keeps_near_equal_parameters_apart(self, tmp_path, capsys):
        """Six significant digits cannot tell these two rates apart."""
        text = VALID.format(out=tmp_path / "never").replace(
            "ftl, adahedge(phi=2), fixed_hedge(eta=0.5)",
            "adahedge(phi=1.0000001), adahedge(phi=1.0000002)",
        )
        assert main(["run", str(self.write(tmp_path, text)), "--dry-run"]) == 0
        assert "adahedge_phi1.0000001, adahedge_phi1.0000002" in capsys.readouterr().out

    def test_run_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = self.write(tmp_path, VALID.format(out=out))
        rc = main(["run", str(path)])
        assert rc == 0
        assert "final mean regret" in capsys.readouterr().out

        slugs = ["ftl", "adahedge_phi2", "fixed_hedge_eta0.5"]
        for slug in slugs:
            assert (out / f"trace_{slug}.csv").is_file()
        assert (out / "summary.csv").is_file()
        assert (out / "regret.svg").is_file()

        with open(out / "trace_ftl.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == TRACE_HEADER
        assert len(rows) == 41  # header + one row per round
        assert rows[1][0] == "1"
        assert int(rows[1][4]) == 3  # all repetitions start a segment in round 1
        assert rows[1][3] == "inf"  # leader play records an infinite rate
        # float cells are canonical nine-significant-digit strings
        for row in rows[1:]:
            for cell in row[1:4]:
                assert format_sig(float(cell)) == cell

        with open(out / "summary.csv", newline="") as fh:
            srows = list(csv.reader(fh))
        assert srows[0] == SUMMARY_HEADER
        assert [r[0] for r in srows[1:]] == slugs
        assert all(r[3] == "3" and r[4] == "40" and r[5] == "11" for r in srows[1:])

    def test_large_fixed_eta_runs(self, tmp_path, capsys):
        """At eta = 1000 the expected-vs-mix sum underflows; the run still
        completes."""
        out = tmp_path / "out"
        text = VALID.format(out=out).replace("fixed_hedge(eta=0.5)", "fixed_hedge(eta=1000)")
        assert main(["run", str(self.write(tmp_path, text))]) == 0
        assert "fixed_hedge_eta1000: final mean regret" in capsys.readouterr().out

    def test_huge_doubling_phi_runs(self, tmp_path, capsys):
        """At phi = 1e200 the first restart's eta * eta underflows to 0; the
        budget is then out of reach instead of a division by zero."""
        text = (
            "generator = ftl_killer\nhorizon_t = 5000\nrepetitions = 1\nbase_seed = 1\n"
            f"strategies = doubling_hedge(phi=1e200)\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert main(["run", str(self.write(tmp_path, text))]) == 0
        assert "doubling_hedge_phi1e+200: final mean regret" in capsys.readouterr().out

    def test_svg_is_well_formed_with_one_polyline_per_strategy(self, tmp_path):
        out = tmp_path / "out"
        path = self.write(tmp_path, VALID.format(out=out))
        assert main(["run", str(path)]) == 0
        root = ET.parse(out / "regret.svg").getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3

    def test_log_x_axis_variant(self, tmp_path):
        out = tmp_path / "out"
        path = self.write(tmp_path, VALID.format(out=out))
        assert main(["run", str(path), "--log-x"]) == 0
        root = ET.parse(out / "regret.svg").getroot()
        assert root is not None

    def test_output_dir_under_a_file_is_an_io_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADAHEDGE_THREADS", "1")
        (tmp_path / "file").write_text("")
        path = self.write(tmp_path, VALID.format(out=tmp_path / "file" / "out"))
        assert main(["run", str(path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_trace_a_worker_cannot_write_is_one_io_error_line(
        self, tmp_path, capsys, monkeypatch
    ):
        """A pool worker's failed trace write reaches the CLI as the OSError
        it raised: exit 3, one line, no traceback."""
        monkeypatch.setenv("ADAHEDGE_THREADS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "out"
        (out / "trace_ftl.csv").mkdir(parents=True)
        path = self.write(tmp_path, VALID.format(out=out))
        assert main(["run", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trace_ftl.csv" in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestBoundsCommand:
    def out(self, capsys):
        return capsys.readouterr().out.strip()

    def test_budget(self, capsys):
        assert main(["bounds", "budget", "--eta", "1", "--k", "4"]) == 0
        assert self.out(capsys) == "2.19308539"

    def test_factor_at_golden_ratio(self, capsys):
        assert main(["bounds", "factor", "--phi", "1.618033988749895"]) == 0
        assert self.out(capsys) == "3.33019068"

    def test_theorem1(self, capsys):
        assert main(["bounds", "theorem1", "--lstar", "100", "--k", "4"]) == 0
        assert self.out(capsys) == "18.8961004"

    def test_integer_bounds_print_plain(self, capsys):
        assert main(["bounds", "intro-mstar", "--alpha", "0.2", "--phi", "2"]) == 0
        assert self.out(capsys) == "4"
        assert main(
            ["bounds", "lemma6-tau", "--mstar", "4", "--k", "2", "--alpha", "0.2",
             "--beta", "1", "--phi", "2"]
        ) == 0
        assert self.out(capsys) == "16"

    def test_lemma5_constant_and_bound(self, capsys):
        assert main(["bounds", "lemma5", "--k", "2", "--alpha", "0.2", "--beta", "1"]) == 0
        assert self.out(capsys) == "5"
        assert main(
            ["bounds", "lemma5", "--k", "2", "--alpha", "0.2", "--beta", "1",
             "--eta", "0.5"]
        ) == 0
        assert self.out(capsys) == "10"

    def test_integer_past_float_precision(self, capsys):
        """k = 10**26 + 1 has no float; it is still an integer >= 2."""
        assert main(["bounds", "budget", "--eta", "1", "--k", "100000000000000000000000001"]) == 0
        want = (1.0 + 1.0 / (math.e - 1.0)) * math.log(10**26 + 1)
        assert math.isclose(float(self.out(capsys)), want, rel_tol=1e-8)

    def test_missing_flag_is_an_error(self, capsys):
        assert main(["bounds", "budget", "--eta", "1"]) == 2
        assert "requires --k" in capsys.readouterr().err

    def test_spaced_negative_value_reaches_its_rule(self, capsys):
        """argparse reads a separate "-1e300" as an option."""
        assert main(["bounds", "budget", "--eta", "-1e300", "--k", "2"]) == 2
        assert capsys.readouterr().err == "error: eta must be in (0, inf), got -1e+300\n"

    @pytest.mark.parametrize(
        "flag,value",
        [("eta", "-1e300"), ("eta", "-inf"), ("eta", "-nan"), ("eta", "-1"), ("eta", "0.5"),
         ("eta", "-1e-300"), ("k", "-1e3"), ("k", "-2"), ("k", "3")],
    )
    def test_spaced_value_is_read_as_the_joined_one(self, flag, value, capsys):
        other = ["--k", "2"] if flag == "eta" else ["--eta", "0.5"]
        spaced = main(["bounds", "budget", f"--{flag}", value, *other]), capsys.readouterr()
        joined = main(["bounds", "budget", f"--{flag}={value}", *other]), capsys.readouterr()
        assert spaced == joined

    def test_domain_violation_is_an_error(self, capsys):
        assert main(["bounds", "lemma2", "--eta", "1.5", "--lstar", "1", "--k", "2"]) == 2
        assert "eta must be in" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lemma3", "--m", "2000", "--k", "2", "--phi", "2"],
            ["intro-mstar", "--alpha", "1e-320", "--phi", "2"],
            ["lemma6-tau", "--mstar", "5000", "--k", "2", "--alpha", "0.2", "--beta", "1",
             "--phi", "2"],
            ["theorem3-mstar", "--alpha", "1e-200", "--delta", "0.5", "--k", "2", "--phi", "2"],
            # these overflow to inf without raising
            ["theorem1", "--lstar", "1e308", "--k", "4"],
            ["factor", "--phi", "1e200"],
            ["budget", "--eta", "1e-320", "--k", "4"],
            ["eta-floor", "--lstar", "1e-320", "--k", "4"],
            # an integer m past 2**53 is taken exactly, then phi**m overflows
            ["lemma3", "--m", "9007199254740993", "--k", "2", "--phi", "1.0000001"],
        ],
    )
    def test_float_range_failure_is_an_error(self, argv, capsys):
        assert main(["bounds", *argv]) == 2
        assert f"bounds {argv[0]} is not representable" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha,beta", [("0.01", "1"), ("0.2", "1e300")])
    def test_lemma6_tau_is_at_least_round_one(self, alpha, beta, capsys):
        """The formula gives -569 and 0 here; a horizon is a round >= 1."""
        argv = ["bounds", "lemma6-tau", "--mstar", "1", "--k", "2", "--alpha", alpha,
                "--beta", beta, "--phi", "2"]
        assert main(argv) == 0
        assert self.out(capsys) == "1"

    @pytest.mark.parametrize("alpha", ["10", "1e300"])
    def test_intro_mstar_rejects_alpha_above_one(self, alpha, capsys):
        """Per-round divergence of [0, 1] losses is at most 1; the formula
        gives 0 and -1 here."""
        assert main(["bounds", "intro-mstar", "--alpha", alpha, "--phi", "2"]) == 2
        assert "alpha must be in (0, 1]" in capsys.readouterr().err

    def test_intro_mstar_at_alpha_one(self, capsys):
        assert main(["bounds", "intro-mstar", "--alpha", "1", "--phi", "2"]) == 0
        assert int(self.out(capsys)) >= 2

    def test_unknown_bound_name(self, capsys):
        assert main(["bounds", "lemma99"]) == 2

    def test_no_subcommand(self, capsys):
        assert main([]) == 2


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        rc = main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all 10 properties passed" in out
        assert out.count("PASS") == 10
        assert "FAIL" not in out

    def test_quick_and_full_are_exclusive(self, capsys):
        assert main(["verify", "--quick", "--full"]) == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_refused(self, seed, capsys):
        assert main(["verify", "--full", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "--seed" in captured.err

    @pytest.mark.parametrize("profile", ["--quick", "--full"])
    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_bad_thread_count_is_refused_first(self, threads, profile, capsys, monkeypatch):
        """Both profiles read ADAHEDGE_THREADS; a bad value is refused
        before any property runs."""
        monkeypatch.setenv("ADAHEDGE_THREADS", threads)
        start = time.perf_counter()
        assert main(["verify", profile]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "FAIL" not in captured.out
        assert "ADAHEDGE_THREADS" in captured.err

    @pytest.mark.parametrize("profile", ["--quick", "--full"])
    def test_same_output_at_one_and_two_threads(self, profile, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ADAHEDGE_THREADS", threads)
            assert main(["verify", profile]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1]
        assert outs[0].out.count("PASS ") == 10 and outs[0].err == ""
        assert outs[0].out.count("INFO ") == (profile == "--full")

    def test_dead_worker_is_one_error_line(self, capsys, monkeypatch):
        """A pool worker killed mid-suite, say by the OS out of memory, exits
        2 with one line and prints no property."""
        import adahedge.verify as verify_mod

        parent = os.getpid()

        def die(*args):
            assert os.getpid() != parent, "the property ran in the test process"
            os._exit(9)

        checks = list(verify_mod._CHECKS)
        checks[4] = (checks[4][0], die, (), ())
        monkeypatch.setattr(verify_mod, "_CHECKS", tuple(checks))
        monkeypatch.setenv("ADAHEDGE_THREADS", "2")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(["verify", "--quick"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: a pool worker process died running the property suite; "
            "lower ADAHEDGE_THREADS\n",
        )

    def test_weakened_gap_constant_is_caught(self):
        """Shrinking the gap-bound coefficient from (e - 2) to (e - 2.1)
        must trip the posterior-gap property: the suite samples near-binary
        two-action rounds where the true constant is approached."""
        import adahedge.bounds as bounds_mod

        original = bounds_mod.lemma4_bound
        try:
            bounds_mod.lemma4_bound = (
                lambda eta, wstar: (math.e - 2.1) * eta * (1.0 - wstar)
            )
            results, _ = run_suite(full=False, seed=20110718)
        finally:
            bounds_mod.lemma4_bound = original

        by_name = {res.name: res for res in results}
        assert not by_name["gap-posterior-lemma4"].passed
        assert by_name["gap-range-lemma1"].passed

    @pytest.mark.parametrize("threads", [1, 2])
    def test_wrong_kernel_mix_loss_is_caught(self, threads, monkeypatch):
        """A mix loss off by 1e-6 in the kernel that produces results must
        trip the chain rule, while the typed per-round API stays correct."""
        import adahedge.strategies as strategies_mod

        kernel = strategies_mod.block_hedge_and_mix_loss

        def off_by_a_little(*args):
            hedge, mix = kernel(*args)
            return hedge, mix + 1e-6

        monkeypatch.setattr(strategies_mod, "block_hedge_and_mix_loss", off_by_a_little)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # forked workers inherit the patch
        monkeypatch.setenv("ADAHEDGE_THREADS", str(threads))
        results, _ = run_suite(full=False, seed=20110718)
        by_name = {res.name: res for res in results}
        assert not by_name["factorization-chain-rule"].passed
        assert by_name["gap-range-lemma1"].passed

    @pytest.mark.parametrize("threads", [1, 2])
    def test_wrong_posterior_update_is_caught(self, threads, monkeypatch):
        """A typed posterior update at a rate off by one part in a million
        must trip the chain rule on sampled priors."""
        import adahedge.verify as verify_mod

        update = verify_mod.posterior_update

        def off_by_a_little(weights, loss, eta):
            return update(weights, loss, eta * (1.0 + 1e-6))

        monkeypatch.setattr(verify_mod, "posterior_update", off_by_a_little)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("ADAHEDGE_THREADS", str(threads))
        results, _ = run_suite(full=False, seed=20110718)
        by_name = {res.name: res for res in results}
        assert not by_name["factorization-chain-rule"].passed
        assert by_name["gap-range-lemma1"].passed

    def test_refused_round_is_a_fail(self, monkeypatch, capsys):
        """A typed op that refuses a round fails its property; verify still
        reports every property and exits 1."""
        import adahedge.core as core_mod

        kernel = core_mod.hedge_and_mix_loss

        def gap_too_wide(*args):
            hedge, mix = kernel(*args)
            return hedge, mix - 1.0

        monkeypatch.setattr(core_mod, "hedge_and_mix_loss", gap_too_wide)
        assert main(["verify", "--quick"]) == 1
        out = capsys.readouterr().out
        assert "FAIL gap-range-lemma1: raised ValueError: gap" in out
        assert "FAIL gap-posterior-lemma4: raised ValueError: gap" in out
        assert out.count("PASS") + out.count("FAIL") == 10

    def test_info_only_in_full_profile(self):
        results, info = run_suite(full=False, seed=20110718)
        assert len(results) == 10
        assert info == []


class TestRefusalExitCodes:
    """``main`` alone maps a refusal to its exit code: a ValueError raised
    anywhere in a command exits 2 and an OSError 3, each as one line."""

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_value_error_inside_run_exits_2(self, tmp_path, capsys, monkeypatch):
        import adahedge.cli as cli_mod

        def refuse(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli_mod, "run_experiment", refuse)
        monkeypatch.setenv("ADAHEDGE_THREADS", "1")
        path = tmp_path / "exp.cfg"
        path.write_text(VALID.format(out=tmp_path / "out"))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: boom\n")

    def test_os_error_inside_verify_exits_3(self, capsys, monkeypatch):
        import adahedge.cli as cli_mod

        def fail(*args, **kwargs):
            raise OSError("disk gone")

        monkeypatch.setattr(cli_mod, "run_suite", fail)
        assert main(["verify", "--quick"]) == 3
        assert capsys.readouterr() == ("", "error: disk gone\n")


# ``--dry-run`` output of the shipped configs after their "config OK" line,
# recorded before the generator tables were derived from the dataclasses
DRY_RUN_PLANS = {
    "alternating": """\
  generator   alternating_pair(a=0.2, b=0.6, eps=0.1)  [K=2]
  horizon     100000 rounds x 1 repetitions
  strategies  ftl, oracle_hedge, doubling_hedge_phi2, adahedge_phi2, variable_hedge
  base_seed   1
  output_dir  out/alternating
  threads     1
""",
    "correlated": """\
  generator   correlated(hard_prob=0.3, p1=0.01, p2=0.02)  [K=2]
  horizon     10000 rounds x 200 repetitions
  strategies  ftl, oracle_hedge, doubling_hedge_phi2, adahedge_phi2, variable_hedge
  base_seed   20110718
  output_dir  out/correlated
  threads     1
""",
    "ftl_killer": """\
  generator   ftl_killer  [K=2]
  horizon     1000 rounds x 1 repetitions
  strategies  ftl, oracle_hedge, doubling_hedge_phi2, adahedge_phi2, variable_hedge
  base_seed   1
  output_dir  out/ftl_killer
  threads     1
""",
    "iid": """\
  generator   iid_bernoulli(probs=0.35, 0.4, 0.45, 0.5)  [K=4]
  horizon     10000 rounds x 50 repetitions
  strategies  ftl, oracle_hedge, doubling_hedge_phi2, adahedge_phi2, variable_hedge
  base_seed   20110717
  output_dir  out/iid
  threads     1
""",
}


@pytest.mark.parametrize("name", sorted(DRY_RUN_PLANS))
def test_shipped_config_dry_run_plan(name, capsys, monkeypatch):
    monkeypatch.setenv("ADAHEDGE_THREADS", "1")
    path = EXPERIMENTS / f"{name}.cfg"
    assert main(["run", str(path), "--dry-run"]) == 0
    assert capsys.readouterr().out == f"config OK: {path}\n" + DRY_RUN_PLANS[name]


def test_config_with_byte_order_mark(tmp_path, capsys, monkeypatch):
    """A config saved with a UTF-8 BOM plans the same run as without it."""
    monkeypatch.setenv("ADAHEDGE_THREADS", "1")
    path = tmp_path / "iid.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + (EXPERIMENTS / "iid.cfg").read_bytes())
    assert main(["run", str(path), "--dry-run"]) == 0
    assert capsys.readouterr().out == f"config OK: {path}\n" + DRY_RUN_PLANS["iid"]


def test_tracing_wrappers_bind(tmp_path, monkeypatch):
    """The benchmark's traced run binds timing wrappers to names in the
    adahedge modules; it must start and produce a well-formed span tree."""
    repo = EXPERIMENTS.parent
    spans = tmp_path / "spans.json"
    argv = ["bounds", "budget", "--eta", "1", "--k", "4"]
    proc = subprocess.run(
        [sys.executable, str(repo / "bench" / "tracing.py"), "cli", str(spans), "--", *argv],
        env={**os.environ, "PYTHONPATH": str(repo / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.syspath_prepend(str(repo / "bench"))
    import tracing

    assert tracing.check_tree(tracing.load(spans)) == []


@pytest.mark.parametrize(
    "module", sorted(info.name for info in pkgutil.iter_modules(adahedge.__path__))
)
def test_all_names_exist(module):
    """bench/tracing.py looks up every name in bounds.__all__; a stale entry
    in any module's __all__ would break such a lookup."""
    mod = importlib.import_module(f"adahedge.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
