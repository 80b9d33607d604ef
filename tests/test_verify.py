"""The two gap properties of ``verify``, evaluated on the block kernel, and
the fan-out over the one fork pool, ``simulation._run_tasks``.

Their sampled rounds go through ``core.block_hedge_and_mix_loss``, one call
per number of actions; these tests pin that every gap equals the typed
``mixability_gap`` bit for bit, that the quick profile prints the same
details, and that a wrong block kernel fails both properties on their
numbers rather than through an exception.  The suite gives the same results
at one and two threads, runs in this process where there is no fork, and
passes a property's other errors on to the caller; an experiment's
strategies go through the same pool.
"""

import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import adahedge.bounds as bounds_mod
import adahedge.core as core_mod
import adahedge.simulation as simulation_mod
import adahedge.verify as verify_mod
from adahedge import cli
from adahedge.cli import main
from adahedge.core import WeightSnapshot, mixability_gap
from adahedge.simulation import ExperimentConfig, IidBernoulli, derive_seed, run_experiment
from adahedge.strategies import AdaHedge, FollowTheLeader, VariableHedge
from adahedge.verify import DEFAULT_SEED, run_suite


def _typed(w, l, eta):
    snap = WeightSnapshot.from_weights(w)
    return mixability_gap(snap, l, eta).delta, max(snap.weights)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_block_gaps_equal_the_typed_op_bit_for_bit(monkeypatch):
    """300 rounds per K = 2..8, with a zero weight and every third column at
    eta = 40, where columns take the kernel's logsumexp fallback."""
    fallbacks = []
    logsumexp = core_mod._logsumexp

    def counted(values):
        fallbacks.append(len(values))
        return logsumexp(values)

    compared = 0
    for ws, losses, etas in verify_mod._sample_blocks(5, 7 * 300, 4.0):
        ws, etas = ws.copy(), etas.copy()
        ws[0, 0] = 0.0
        etas[::3] = 40.0
        with monkeypatch.context() as patch:
            patch.setattr(core_mod, "_logsumexp", counted)
            gaps, tops = verify_mod._block_gaps(ws, losses, etas)
        rows = zip(ws.tolist(), losses.tolist(), etas.tolist())
        want_gaps, want_tops = zip(*(_typed(w, l, eta) for w, l, eta in rows))
        assert (_bits(gaps) == _bits(want_gaps)).all()
        assert (_bits(tops) == _bits(want_tops)).all()
        compared += len(gaps)
    assert compared == 2100
    assert fallbacks  # the eta = 40 columns reached the fallback


def test_block_gaps_take_no_fallback_at_sampled_rates(monkeypatch):
    """The sampled eta <= 4 keeps every column on the expm1/log1p form."""
    monkeypatch.setattr(core_mod, "_logsumexp", None)  # any call would raise
    for block in verify_mod._sample_blocks(5, 7 * 300, 4.0):
        verify_mod._block_gaps(*block)


@pytest.fixture(scope="module")
def quick_results():
    results, _ = run_suite(full=False, seed=DEFAULT_SEED)
    return {res.name: res for res in results}


@pytest.mark.parametrize(
    "name,detail",
    [
        ("gap-range-lemma1", "20000 samples, min gap 2.31e-11, max gap excess -1.73e-07"),
        ("gap-posterior-lemma4", "20024 samples, max bound excess -1.47e-06 (sample 20018)"),
    ],
)
def test_quick_profile_details_are_pinned(quick_results, name, detail):
    assert quick_results[name].passed
    assert quick_results[name].detail == detail


def _plant(monkeypatch, shift):
    kernel = verify_mod.block_hedge_and_mix_loss

    def wrong(*args):
        hedge, mix = kernel(*args)
        return hedge, mix + shift

    monkeypatch.setattr(verify_mod, "block_hedge_and_mix_loss", wrong)


def test_wrong_block_kernel_fails_both_gap_properties(monkeypatch, capsys):
    """A block mix loss 1 too low widens every sampled gap by 1: both gap
    properties fail on their numbers, and all ten lines still print."""
    _plant(monkeypatch, -1.0)
    assert main(["verify", "--quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith(("PASS ", "FAIL ")) for line in lines) == 10
    assert any(line.startswith("FAIL gap-range-lemma1: 20000 samples, min gap") for line in lines)
    assert any(
        line.startswith("FAIL gap-posterior-lemma4: 20024 samples, max bound excess")
        for line in lines
    )


def test_slightly_wrong_block_kernel_fails_gap_range(monkeypatch):
    """A block mix loss 1e-6 too high puts the smallest sampled gap below
    zero by far more than the per-op tolerance."""
    _plant(monkeypatch, 1e-6)
    ok, detail = verify_mod._check_gap_range(derive_seed(DEFAULT_SEED, 1000), 20_000)
    assert not ok
    low = float(detail.split("min gap ")[1].split(",")[0])
    assert low < -1e-7


def test_budget_constant_is_checked_apart_from_the_calculators(monkeypatch, capsys):
    """A budget built on e - 2 in place of e - 1 restarts AdaHedge late, so
    every depletion overshoots the paper's window; ``verify`` holds its own
    e - 1 and reports that, whatever ``bounds`` says."""
    import adahedge.bounds as bounds_mod

    monkeypatch.setattr(bounds_mod, "_E1", math.e - 2.0)
    assert main(["verify", "--quick"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL depletion-window-theorem1: stream 0, eta=1.0: gap ")
    assert " left window [b, b+eta/8)  [rerun: " in fails[0]


def test_gap_budget_reads_its_own_constant(monkeypatch):
    """Lemma 2's bound in ``verify`` does not move with the calculators'
    constant: the property reports the same excess on e - 2."""
    import adahedge.bounds as bounds_mod

    seed = derive_seed(DEFAULT_SEED, 1003)
    real = verify_mod._check_gap_budget(seed, 5)
    monkeypatch.setattr(bounds_mod, "_E1", math.e - 2.0)
    assert verify_mod._check_gap_budget(seed, 5) == real


class TestFanOut:
    """With two workers a fork pool runs the properties, and an experiment's
    strategies; with one, or without fork, this process runs them.  The
    results are the same."""

    EXPERIMENT = ExperimentConfig(
        generator=IidBernoulli((0.2, 0.5, 0.8)),
        horizon_t=300,
        repetitions=3,
        strategies=(FollowTheLeader(), AdaHedge(2.0), VariableHedge()),
        base_seed=101,
    )

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def counted_pools(self, monkeypatch):
        """Each pool made: its worker count and the function that made it."""
        made = []
        pool = simulation_mod.ProcessPoolExecutor

        def counted(*args, **kwargs):
            made.append((kwargs["max_workers"], sys._getframe(1).f_code.co_name))
            return pool(*args, **kwargs)

        monkeypatch.setattr(simulation_mod, "ProcessPoolExecutor", counted)
        return made

    @staticmethod
    def suite(monkeypatch, threads):
        monkeypatch.setenv("ADAHEDGE_THREADS", str(threads))
        return run_suite(seed=DEFAULT_SEED)

    def test_same_results_at_one_and_two_threads(self, monkeypatch):
        """The suite, and an experiment of three strategies, each make one
        pool of ``min(threads, tasks)`` workers at two threads, and none at
        one; ``_run_tasks`` makes both."""
        made = self.counted_pools(monkeypatch)
        serial = self.suite(monkeypatch, 1)
        assert made == []
        pooled = self.suite(monkeypatch, 2)
        assert made == [(2, "_run_tasks")]
        assert pooled == serial
        assert [res.name for res in pooled[0]] == [name for name, *_ in verify_mod._CHECKS]

        made.clear()
        want = run_experiment(self.EXPERIMENT, threads=1)
        assert made == []
        got = run_experiment(self.EXPERIMENT, threads=2)
        assert made == [(2, "_run_tasks")]
        fields = ("mean_regret", "mean_cum_loss", "mean_eta", "segment_events", "segments_started")
        for field in fields:
            for slug, values in getattr(want, field).items():
                assert getattr(got, field)[slug].tobytes() == values.tobytes(), (field, slug)

    def test_without_fork_runs_in_this_process_at_any_thread_count(self, monkeypatch):
        calls = []
        check = verify_mod._run_check

        def recorded(i, seed, full):
            calls.append(i)
            return check(i, seed, full)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was made without fork")

        want = self.suite(monkeypatch, 1)
        monkeypatch.setattr(simulation_mod, "_FORK", None)
        monkeypatch.setattr(simulation_mod, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(verify_mod, "_run_check", recorded)
        assert self.suite(monkeypatch, 2) == want
        assert calls == list(range(len(verify_mod._CHECKS)))

    def test_other_errors_reach_the_caller_from_a_worker(self, monkeypatch):
        """Only ``ValueError`` and ``ArithmeticError`` fail a property; any
        other error stops the suite, with its type, from the worker.  An
        error in an experiment's worker reaches its caller the same way."""

        def broken(*args):
            raise LookupError(f"raised in {os.getpid()}")

        checks = list(verify_mod._CHECKS)
        checks[6] = (checks[6][0], broken, (), ())
        monkeypatch.setattr(verify_mod, "_CHECKS", tuple(checks))
        with pytest.raises(LookupError, match="raised in ") as info:
            self.suite(monkeypatch, 2)
        assert int(str(info.value).split()[-1]) != os.getpid()

        monkeypatch.setattr(simulation_mod, "run", broken)
        with pytest.raises(LookupError, match="raised in ") as info:
            run_experiment(self.EXPERIMENT, threads=2)
        assert int(str(info.value).split()[-1]) != os.getpid()


_IN_RANGE = (True, "all grid evaluations finite and in range")


@pytest.mark.parametrize(
    "name,value,label",
    [
        ("lemma3_bound", math.nan, "lemma3_bound(1, 2, 1.5) = nan"),
        ("theorem1_bound", -1.0, "theorem1_bound(0.0, 2) = -1.0"),
        ("intro_mstar", 0, "intro_mstar(0.05, 1.1) = 0"),
        ("lemma6_tau", 16.0, "lemma6_tau(1, 2, 0.2, 1.0, 1.1) = 16.0"),
    ],
    ids=["nan", "negative", "zero-count", "float-round"],
)
def test_bound_domain_fails_on_one_wrong_calculator(monkeypatch, name, value, label):
    """A non-finite or negative value, a count below 1, and a round that is
    not an int each fail the property, on that calculator's labels alone."""
    assert verify_mod._check_bound_domain(0) == _IN_RANGE
    monkeypatch.setattr(bounds_mod, name, lambda *args: value)
    ok, detail = verify_mod._check_bound_domain(0)
    assert not ok
    labels = detail.split("; ")
    assert label in labels
    assert all(part.startswith(f"{name}(") for part in labels)


def test_bound_grid_rows_are_the_calculators():
    """Each calculator is one grid row, save Lemma 4's, which
    gap-posterior-lemma4 evaluates on every sample; and each is reachable
    through ``adahedge bounds``, ``lemma5_bound`` as ``lemma5 --eta``."""
    calculators = {n for n in bounds_mod.__all__ if callable(getattr(bounds_mod, n))}
    names = [name for name, _ in verify_mod._BOUND_GRID]
    assert sorted(names) == sorted(calculators - {"lemma4_bound"})
    assert {fn.__name__ for fn, _ in cli._BOUNDS.values()} == calculators - {"lemma5_bound"}
    args = ["--k", "3", "--alpha", "0.5", "--beta", "1", "--eta", "0.25"]
    assert cli._evaluate_bound(cli._build_parser().parse_args(["bounds", "lemma5", *args])) == (
        bounds_mod.lemma5_bound(3, 0.5, 1.0, 0.25)
    )


def test_bound_grid_looks_each_calculator_up_when_called(monkeypatch):
    """With ``verify.bounds`` rebound to counting wrappers, as the bench's
    tracer does, every grid call goes through them: a table that bound the
    functions at import would count none."""
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    view = {n: getattr(bounds_mod, n) for n in bounds_mod.__all__}
    view = {n: counted(n, v) if callable(v) else v for n, v in view.items()}
    monkeypatch.setattr(verify_mod, "bounds", SimpleNamespace(**view))
    assert verify_mod._check_bound_domain(0) == _IN_RANGE
    assert len(calls) == 213
    assert set(calls) == {name for name, _ in verify_mod._BOUND_GRID}
