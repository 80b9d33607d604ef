"""Tests for config parsing, the CLI commands and their file outputs."""

import csv
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from adahedge.cli import ConfigError, main, parse_config
from adahedge.reports import SUMMARY_HEADER, TRACE_HEADER, format_sig
from adahedge.simulation import AlternatingPair, Correlated, IidBernoulli
from adahedge.strategies import AdaHedge, FixedHedge, FollowTheLeader
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

    def test_duplicate_strategies_rejected(self):
        text = VALID.format(out="x").replace("ftl,", "adahedge(phi=2),")
        with pytest.raises(ConfigError, match="duplicate strategies"):
            parse_config(text, "cfg")

    def test_bad_horizon_value(self):
        text = VALID.format(out="x").replace("horizon_t = 40", "horizon_t = 0")
        with pytest.raises(ConfigError, match="horizon_t must be >= 1"):
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


class TestRunCommand:
    def write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return path

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.cfg")])
        assert rc == 3
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_names_line(self, tmp_path, capsys):
        path = self.write(
            tmp_path, VALID.format(out="x").replace("horizon_t = 40", "horizon = 40")
        )
        rc = main(["run", str(path)])
        assert rc == 2
        assert f"{path}:4" in capsys.readouterr().err

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

    def test_missing_flag_is_an_error(self, capsys):
        assert main(["bounds", "budget", "--eta", "1"]) == 2
        assert "requires --k" in capsys.readouterr().err

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
        ],
    )
    def test_float_range_failure_is_an_error(self, argv, capsys):
        assert main(["bounds", *argv]) == 2
        assert f"bounds {argv[0]} is not representable" in capsys.readouterr().err

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

    def test_wrong_kernel_mix_loss_is_caught(self, monkeypatch):
        """A mix loss off by 1e-6 in the kernel that produces results must
        trip the chain rule, while the typed per-round API stays correct."""
        import adahedge.strategies as strategies_mod

        kernel = strategies_mod.hedge_and_mix_loss

        def off_by_a_little(*args):
            hedge, mix = kernel(*args)
            return hedge, mix + 1e-6

        monkeypatch.setattr(strategies_mod, "hedge_and_mix_loss", off_by_a_little)
        results, _ = run_suite(full=False, seed=20110718)
        by_name = {res.name: res for res in results}
        assert not by_name["factorization-chain-rule"].passed
        assert by_name["gap-range-lemma1"].passed

    def test_wrong_posterior_update_is_caught(self, monkeypatch):
        """A typed posterior update at a rate off by one part in a million
        must trip the chain rule on sampled priors."""
        import adahedge.verify as verify_mod

        update = verify_mod.posterior_update

        def off_by_a_little(weights, loss, eta):
            return update(weights, loss, eta * (1.0 + 1e-6))

        monkeypatch.setattr(verify_mod, "posterior_update", off_by_a_little)
        results, _ = run_suite(full=False, seed=20110718)
        by_name = {res.name: res for res in results}
        assert not by_name["factorization-chain-rule"].passed
        assert by_name["gap-range-lemma1"].passed

    def test_info_only_in_full_profile(self):
        results, info = run_suite(full=False, seed=20110718)
        assert len(results) == 10
        assert info == []


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
