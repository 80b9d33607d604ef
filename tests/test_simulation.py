"""Tests for the loss generators and the multi-repetition harness."""

import math
import os
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adahedge.reports as reports_mod
import adahedge.simulation as simulation_mod
from adahedge.simulation import (
    AlternatingPair,
    Correlated,
    ExperimentConfig,
    FtlKiller,
    IidBernoulli,
    _Generator,
    derive_seed,
    generate,
    run_experiment,
    segment_statistics,
    unit_uniforms,
)
from adahedge.strategies import (
    AdaHedge,
    DoublingHedge,
    FixedHedge,
    FollowTheLeader,
    OracleHedge,
    VariableHedge,
    _Kind,
    run,
)


class TestRandomnessKernel:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed(20110717, 0) == derive_seed(20110717, 0)

    def test_substreams_are_distinct(self):
        seeds = {derive_seed(42, r) for r in range(100)}
        assert len(seeds) == 100
        assert derive_seed(42, 0) != derive_seed(43, 0)

    def test_derive_seed_rejects_negative_index(self):
        with pytest.raises(ValueError, match="index"):
            derive_seed(1, -1)

    def test_uniforms_land_in_unit_interval(self):
        u = unit_uniforms(7, 10_000)
        assert np.all(u >= 0.0)
        assert np.all(u < 1.0)

    def test_uniforms_reproduce(self):
        np.testing.assert_array_equal(unit_uniforms(9, 500), unit_uniforms(9, 500))

    def test_counter_based_prefix_consistency(self):
        """Asking for fewer draws returns a prefix of the longer stream."""
        np.testing.assert_array_equal(
            unit_uniforms(123, 1000)[:100], unit_uniforms(123, 100)
        )

    def test_uniform_mean(self):
        u = unit_uniforms(20110717, 200_000)
        assert abs(float(u.mean()) - 0.5) < 0.005

    def test_seeds_and_uniforms_pinned(self):
        """Values recorded before the SplitMix64 finalizer was shared by
        ``derive_seed`` and ``unit_uniforms``; seeds and indices outside
        [0, 2**64) are read modulo 2**64."""
        assert derive_seed(20110717, 0) == 4669015438272984285
        assert derive_seed(0, 0) == 5197578548964807871
        assert derive_seed(-1, 0) == 17272934151417163375
        assert derive_seed(-20110718, 3) == 4902966046946248668
        assert derive_seed(2**64 + 5, 2) == 14807283364393364910
        assert derive_seed(7, 2**64) == 1732980984081694018
        assert derive_seed(2**70 + 1, 2**64 + 9) == 13787382996389560898
        assert [x.hex() for x in unit_uniforms(0, 3)] == [
            "0x1.c4415072f63b9p-1", "0x1.b9e279aa86e58p-2", "0x1.b117462002500p-6",
        ]
        assert [x.hex() for x in unit_uniforms(-5, 4)] == [
            "0x1.6b1cba95fc600p-4", "0x1.1d76ef18db002p-1",
            "0x1.c3d7376cc88c1p-1", "0x1.b1de70de4fe21p-1",
        ]
        assert [x.hex() for x in unit_uniforms(2**65 + 3, 4)] == [
            "0x1.d0b14e4db0188p-4", "0x1.668cdf14f7035p-1",
            "0x1.39d7d14da0a1bp-1", "0x1.2a764fb66abc8p-4",
        ]


class TestGenerators:
    def test_alternating_pair_first_rows(self):
        arr = generate(AlternatingPair(a=0.2, b=0.6, eps=0.1), 4, seed=0)
        np.testing.assert_allclose(arr[0], [0.3, 0.5], rtol=1e-15)
        np.testing.assert_allclose(arr[1], [0.1, 0.7], rtol=1e-15)
        np.testing.assert_allclose(arr[2], arr[0], rtol=0)
        np.testing.assert_allclose(arr[3], arr[1], rtol=0)

    def test_alternating_pair_gap_grows_linearly(self):
        """Exact check (dyadic rationals, no rounding): after any round t the
        trailing action is behind by at least 0.199 * t."""
        arr = generate(AlternatingPair(a=0.2, b=0.6, eps=0.1), 2000, seed=0)
        gap = Fraction(0)
        floor_rate = Fraction(199, 1000)
        for t, (l1, l2) in enumerate(arr.tolist(), start=1):
            gap += Fraction(l2) - Fraction(l1)
            assert gap >= floor_rate * t

    def test_ftl_killer_rows(self):
        arr = generate(FtlKiller(), 6, seed=0)
        np.testing.assert_array_equal(arr[:, 0], [0.5, 0.0, 1.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(arr[:, 1], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_iid_bernoulli_degenerate_probs(self):
        zeros = generate(IidBernoulli((0.0, 0.0)), 50, seed=3)
        assert np.all(zeros == 0.0)
        ones = generate(IidBernoulli((1.0, 1.0)), 50, seed=3)
        assert np.all(ones == 1.0)

    def test_iid_bernoulli_matches_probs_in_the_mean(self):
        """Across 50 repetitions of 10**4 rounds, each action's empirical
        loss rate sits within 0.01 of its probability."""
        spec = IidBernoulli((0.35, 0.4, 0.45, 0.5))
        sums = np.zeros(4)
        reps = 50
        for r in range(reps):
            sums += generate(spec, 10_000, derive_seed(20110717, r)).mean(axis=0)
        np.testing.assert_allclose(sums / reps, spec.probs, atol=0.01)

    def test_generate_is_deterministic(self):
        spec = IidBernoulli((0.3, 0.7))
        a = generate(spec, 200, seed=11)
        b = generate(spec, 200, seed=11)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, generate(spec, 200, seed=12))

    def test_correlated_shape_and_support(self):
        arr = generate(Correlated(), 500, seed=5)
        assert arr.shape == (500, 2)
        assert set(np.unique(arr)) <= {0.0, 1.0}

    def test_correlated_hard_round_frequency(self):
        """Late-stream rounds are nearly deterministic given the regime, so
        action 1's loss rate tracks hard_prob."""
        arr = generate(Correlated(hard_prob=0.3, p1=0.01, p2=0.02), 10_000, seed=8)
        assert abs(float(arr[:, 0].mean()) - 0.3) < 0.02

    def test_correlated_actions_rarely_differ(self):
        """The shared regime makes differing losses vanishingly rare: the
        per-round chance is under (p1 + p2)/t, about 0.03/t here."""
        spec = Correlated(hard_prob=0.3, p1=0.01, p2=0.02)
        differing = 0
        for r in range(20):
            arr = generate(spec, 10_000, derive_seed(99, r))
            differing += int((arr[:, 0] != arr[:, 1]).sum())
        assert differing <= 30

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="actions"):
            IidBernoulli((0.5,))
        with pytest.raises(ValueError, match="probability"):
            IidBernoulli((0.5, 1.5))
        with pytest.raises(ValueError, match="hard_prob"):
            Correlated(hard_prob=1.5)
        with pytest.raises(ValueError, match="ahead"):
            AlternatingPair(a=0.2, b=0.3, eps=0.1)
        with pytest.raises(ValueError, match="0 <"):
            AlternatingPair(a=0.05, b=0.6, eps=0.1)

    @pytest.mark.parametrize("probs", [{0.9, 0.1, 0.5}, {0.9: 1, 0.1: 1}, 5, None], ids=repr)
    def test_probs_without_an_order_are_refused_by_name(self, probs):
        with pytest.raises(ValueError, match="^probs must be a sequence, got "):
            IidBernoulli(probs)

    def test_probs_keep_the_order_they_were_given(self):
        assert IidBernoulli(p for p in (0.9, 0.1, 0.5)).probs == (0.9, 0.1, 0.5)
        assert IidBernoulli({0: 0.9, 1: 0.1}.values()).probs == (0.9, 0.1)

    def test_generate_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            generate(FtlKiller(), 0, seed=1)

    def test_generate_rejects_unknown_spec(self):
        with pytest.raises(TypeError, match="unknown"):
            generate(object(), 10, seed=1)


def _splitmix_uniforms(seed: int, n: int) -> np.ndarray:
    """The whole-array reference: uniform ``i`` (from 1) is the top 53 bits
    of ``mix64(seed + i * GAMMA)`` over 2**64, with the finalizer spelled out."""
    x = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = x + np.uint64(seed % 2**64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _reference_stream(spec, t_total: int, seed: int) -> np.ndarray:
    """The stream built whole: every draw at once, then every comparison."""
    if isinstance(spec, IidBernoulli):
        u = _splitmix_uniforms(seed, t_total * spec.k).reshape(t_total, spec.k)
        return (u < np.asarray(spec.probs)).astype(np.float64)
    u = _splitmix_uniforms(seed, 3 * t_total).reshape(t_total, 3)
    tv = np.arange(1, t_total + 1, dtype=np.float64)
    q1, q2 = spec.p1 / tv, spec.p2 / tv
    hard = u[:, 0] < spec.hard_prob
    loss1 = u[:, 1] < np.where(hard, 1.0 - q1, q1)
    loss2 = u[:, 2] < np.where(hard, 1.0 - q2, q2)
    return np.column_stack([loss1, loss2]).astype(np.float64)


BLOCK = simulation_mod._BLOCK
SEEDS = [20110717, -7, 2**64 + 12345]


class TestBlockGeneration:
    """Streams are drawn in blocks of at most ``_BLOCK`` uniforms, written
    into the output; the bits are those of the stream drawn whole."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", [2, 3, 256, 300, BLOCK + 3])  # the last, one row a block
    def test_iid_bernoulli_equals_the_whole_array_stream(self, k, seed):
        spec = IidBernoulli(tuple((i % 7 + 1) / 8 for i in range(k)))
        rows = max(1, BLOCK // k)
        t_total = 3 * rows + rows // 2 + 1  # three whole blocks and a partial one
        got = generate(spec, t_total, seed)
        assert got.tobytes() == _reference_stream(spec, t_total, seed).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_correlated_equals_the_whole_array_stream(self, seed):
        # half the rounds are hard, so both regimes, and losses 0 and 1,
        # occur in every block
        spec = Correlated(hard_prob=0.5, p1=0.9, p2=0.6)
        t_total = 3 * (BLOCK // 3) + 5
        got = generate(spec, t_total, seed)
        want = _reference_stream(spec, t_total, seed)
        assert got.tobytes() == want.tobytes()
        assert 0 < want[BLOCK // 3 :].sum() < want[BLOCK // 3 :].size

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms_equal_the_whole_array_stream(self, seed):
        n = 2 * BLOCK + 3
        assert unit_uniforms(seed, n).tobytes() == _splitmix_uniforms(seed, n).tobytes()

    @pytest.mark.parametrize(
        "cuts",
        [(), (1,), (BLOCK - 1, BLOCK + 1), (5, BLOCK, 2 * BLOCK), (777, 778, 2 * BLOCK - 7)],
    )
    def test_uniforms_are_their_blocks_joined(self, cuts):
        """Any split of the counters draws the same uniforms, block by block."""
        n = 2 * BLOCK + 9
        bounds = [0, *cuts, n]
        for seed in SEEDS:
            parts = [
                simulation_mod._uniforms(seed % 2**64, a, np.empty(b - a))
                for a, b in zip(bounds, bounds[1:])
            ]
            assert np.concatenate(parts).tobytes() == unit_uniforms(seed, n).tobytes()

    @pytest.mark.parametrize(
        "spec, t_total",
        [(IidBernoulli(tuple(np.linspace(0.1, 0.9, 256))), 2000), (Correlated(), 10**6)],
        ids=["iid_k256_t2000", "correlated_t1e6"],
    )
    def test_peak_is_the_output_and_one_block(self, spec, t_total):
        """The traced peak is the output plus one block's working set, taken
        as five arrays of ``_BLOCK`` 8-byte values: the block's counters and
        one shift of them, and Correlated's uniforms and per-round arrays."""
        tracemalloc.start()
        try:
            out = generate(spec, t_total, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 5 * BLOCK * 8, (peak, out.nbytes)

    @pytest.mark.parametrize("n", [2**50, 2**63, 2**64, 10**30])
    def test_uniform_count_too_long_for_one_array_is_named(self, n):
        with pytest.raises(MemoryError, match=rf"^n = {n} is too long for one array$"):
            unit_uniforms(0, n)

    @pytest.mark.parametrize(
        "spec",
        [IidBernoulli((0.5, 0.5)), Correlated(), FtlKiller()],
        ids=lambda spec: type(spec).__name__,
    )
    @pytest.mark.parametrize("t_total", [2**50, 2**62, 2**64, 10**30])
    def test_horizon_too_long_for_one_array_is_named(self, spec, t_total):
        with pytest.raises(
            MemoryError, match=rf"^horizon_t = {t_total} is too long for one array$"
        ):
            generate(spec, t_total, 0)


class _FsPath:
    """An ``os.PathLike`` whose ``__fspath__`` gives ``value``, whatever it is."""

    def __init__(self, value):
        self.value = value

    def __fspath__(self):
        return self.value

    def __repr__(self):
        return f"_FsPath({self.value!r})"


class _MyAda(AdaHedge):
    pass


class TestExperimentConfig:
    def small(self, **overrides):
        kwargs = dict(
            generator=IidBernoulli((0.3, 0.6)),
            horizon_t=50,
            repetitions=2,
            strategies=(FollowTheLeader(), AdaHedge(2.0)),
            base_seed=7,
        )
        kwargs.update(overrides)
        return ExperimentConfig(**kwargs)

    def test_accepts_valid(self):
        cfg = self.small()
        assert cfg.k == 2
        assert cfg.slugs == ["ftl", "adahedge_phi2"]

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="horizon_t"):
            self.small(horizon_t=0)

    def test_rejects_bad_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            self.small(repetitions=0)

    def test_rejects_empty_roster(self):
        with pytest.raises(ValueError, match="strategy"):
            self.small(strategies=())

    def test_rejects_duplicate_strategies(self):
        with pytest.raises(ValueError, match="duplicate"):
            self.small(strategies=(AdaHedge(2.0), AdaHedge(2.0)))

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError, match="base_seed"):
            self.small(base_seed=1 << 64)

    def test_rejects_nul_byte_in_output_dir(self):
        """Refused at construction, before anything is simulated."""
        with pytest.raises(ValueError, match="^output_dir contains a NUL byte$"):
            self.small(output_dir="a\0b")

    def test_rejects_generator_that_is_not_a_spec(self):
        with pytest.raises(TypeError, match="generator"):
            self.small(generator="iid")

    def test_rejects_roster_entry_that_is_not_a_kind(self):
        with pytest.raises(TypeError, match="strategies"):
            self.small(strategies=(FollowTheLeader(), "ftl"))

    def test_subclass_of_a_registered_kind_is_that_kind(self):
        """Its slug is its registered kind's, so a roster holding both is a
        duplicate, and it plays, and is counted, as that kind."""
        assert _MyAda().slug == "adahedge_phi2"
        with pytest.raises(ValueError, match="duplicate"):
            self.small(strategies=(_MyAda(), AdaHedge()))
        got = run_experiment(self.small(strategies=(_MyAda(),)), threads=1)
        want = run_experiment(self.small(strategies=(AdaHedge(2.0),)), threads=1)
        for field in ("mean_regret", "mean_cum_loss", "mean_eta", "segment_events"):
            assert getattr(got, field)["adahedge_phi2"].tobytes() == (
                getattr(want, field)["adahedge_phi2"].tobytes()
            ), field
        assert segment_statistics(got, _MyAda()) == segment_statistics(want, AdaHedge(2.0))

    def test_rejects_unregistered_kind_and_generator(self):
        """A subclass of the bases that no registry names is refused here,
        not when its slug is read or its stream generated."""

        class Mine(_Kind):
            pass

        class Stream(_Generator):
            pass

        with pytest.raises(TypeError, match="strategies must be strategy kinds"):
            self.small(strategies=(Mine(),))
        with pytest.raises(TypeError, match="generator must be a generator spec"):
            self.small(generator=Stream())

    @pytest.mark.parametrize(
        "roster", [{AdaHedge(2.0)}, {AdaHedge(2.0): 1}, None, 5], ids=repr
    )
    def test_roster_without_an_order_is_refused_by_name(self, roster):
        with pytest.raises(ValueError, match="^strategies must be a sequence, got "):
            self.small(strategies=roster)

    def test_roster_keeps_the_order_it_was_given(self):
        kinds = (VariableHedge(), FollowTheLeader(), AdaHedge(2.0))
        assert self.small(strategies=iter(kinds)).strategies == kinds

    @pytest.mark.parametrize(
        "output_dir", [b"x", 5, "", _FsPath(5), _FsPath(b"x"), _FsPath("")], ids=repr
    )
    def test_output_dir_must_be_a_non_empty_path(self, output_dir):
        with pytest.raises(ValueError, match="^output_dir must be a non-empty str or path, got "):
            self.small(output_dir=output_dir)

    def test_output_dir_takes_any_path_giving_text(self, tmp_path):
        assert self.small(output_dir=_FsPath(str(tmp_path))).output_dir == tmp_path

    def test_summary_records_the_ints_it_ran(self, tmp_path):
        """Integral floats and numpy integers are stored, run and written
        as the ints they hold."""
        cfg = self.small(
            horizon_t=5.0, repetitions=np.int64(2), base_seed=np.float64(3.0),
            strategies=(FollowTheLeader(),), output_dir=tmp_path,
        )
        assert (cfg.horizon_t, cfg.repetitions, cfg.base_seed) == (5, 2, 3)
        run_experiment(cfg, threads=1)
        rows = (tmp_path / "summary.csv").read_text().splitlines()
        assert rows[1].endswith(",2,5,3")
        assert len((tmp_path / "trace_ftl.csv").read_text().splitlines()) == 1 + 5


class TestRunExperiment:
    def config(self, reps=3, output_dir=None):
        return ExperimentConfig(
            generator=IidBernoulli((0.2, 0.5, 0.8)),
            horizon_t=300,
            repetitions=reps,
            strategies=(FollowTheLeader(), AdaHedge(2.0), VariableHedge()),
            base_seed=101,
            output_dir=output_dir,
        )

    def test_single_repetition_equals_run(self):
        cfg = self.config(reps=1)
        result = run_experiment(cfg, threads=1)
        stream = generate(cfg.generator, cfg.horizon_t, derive_seed(101, 0))
        trace = run(AdaHedge(2.0), stream)
        np.testing.assert_array_equal(result.mean_regret["adahedge_phi2"], trace.regret)
        np.testing.assert_array_equal(result.mean_eta["adahedge_phi2"], trace.eta)

    def test_thread_count_does_not_change_results(self):
        cfg = self.config(reps=4)
        serial = run_experiment(cfg, threads=1)
        pooled = run_experiment(cfg, threads=2)
        for slug in cfg.slugs:
            np.testing.assert_array_equal(
                serial.mean_regret[slug], pooled.mean_regret[slug]
            )
            np.testing.assert_array_equal(
                serial.segments_started[slug], pooled.segments_started[slug]
            )
            np.testing.assert_array_equal(
                serial.segment_events[slug], pooled.segment_events[slug]
            )

    def test_aggregate_shapes_and_markers(self):
        cfg = self.config(reps=3)
        result = run_experiment(cfg, threads=1)
        assert result.horizon == 300
        assert result.repetitions == 3
        for slug in cfg.slugs:
            assert len(result.mean_regret[slug]) == 300
            assert len(result.segments_started[slug]) == 3
            # every repetition opens its first segment in round 1
            assert result.segment_events[slug][0] == 3
        assert np.all(np.isinf(result.mean_eta["ftl"]))
        assert np.all(result.segments_started["ftl"] == 1)
        assert np.all(result.segments_started["variable_hedge"] == 1)

    def test_segment_events_match_counts(self):
        cfg = self.config(reps=3)
        result = run_experiment(cfg, threads=1)
        assert (
            int(result.segment_events["adahedge_phi2"].sum())
            == int(result.segments_started["adahedge_phi2"].sum())
        )

    def test_writes_csvs_when_output_dir_set(self, tmp_path):
        cfg = self.config(reps=2, output_dir=tmp_path / "out")
        run_experiment(cfg, threads=1)
        for slug in cfg.slugs:
            assert (tmp_path / "out" / f"trace_{slug}.csv").is_file()
        assert (tmp_path / "out" / "summary.csv").is_file()

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError, match="thread"):
            run_experiment(self.config(reps=2), threads=0)

    def test_threads_are_capped_at_the_cpus_this_process_may_run_on(self, monkeypatch):
        """Under a one-CPU affinity mask on a two-core machine (``taskset -c
        0``), the default and ``ADAHEDGE_THREADS=2`` both resolve to one
        worker, and a run makes no pool."""

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was made on one usable CPU")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(simulation_mod, "ProcessPoolExecutor", no_pool)
        monkeypatch.delenv("ADAHEDGE_THREADS", raising=False)
        assert simulation_mod._resolve_threads(None) == 1
        monkeypatch.setenv("ADAHEDGE_THREADS", "2")
        assert simulation_mod._resolve_threads(None) == 1
        run_experiment(self.config(reps=2))

    @pytest.mark.parametrize("reps", [2**50, 2**62, 10**30])
    def test_repetitions_too_many_for_one_array_are_named(self, reps):
        """The shared mapping of the segment counts refuses these before
        anything runs: 2**50 counts per strategy are past the address space,
        which the OS refuses as out of memory, and the others past ``mmap``'s
        size."""
        with pytest.raises(
            MemoryError, match=rf"^repetitions = {reps} is too long for one array$"
        ):
            run_experiment(self.config(reps=reps), threads=1)


FIELDS = ("mean_regret", "mean_cum_loss", "mean_eta", "segment_events", "segments_started")


def _reference(cfg):
    """The five aggregate fields computed straight from the definition: per
    strategy, zeros plus each repetition's trace in repetition order, over
    the repetition count."""
    sums = {f: {s: np.zeros(cfg.horizon_t) for s in cfg.slugs} for f in FIELDS[:3]}
    events = {s: np.zeros(cfg.horizon_t, dtype=np.int64) for s in cfg.slugs}
    counts = {s: [] for s in cfg.slugs}
    for rep in range(cfg.repetitions):
        stream = generate(cfg.generator, cfg.horizon_t, derive_seed(cfg.base_seed, rep))
        for kind in cfg.strategies:
            trace = simulation_mod.run(kind, stream)
            for field, x in zip(FIELDS, (trace.regret, trace.cum_agent_loss, trace.eta)):
                sums[field][kind.slug] = sums[field][kind.slug] + x
            for start in trace.segment_starts:
                events[kind.slug][start - 1] += 1
            counts[kind.slug].append(len(trace.segment_starts))
    means = {f: {s: a / cfg.repetitions for s, a in sums[f].items()} for f in sums}
    return {
        **means,
        "segment_events": events,
        "segments_started": {s: np.array(c, dtype=np.int64) for s, c in counts.items()},
    }


def _assert_same_bits(got: dict, want: dict):
    assert list(got) == list(want)
    for slug in want:
        assert got[slug].dtype == want[slug].dtype, slug
        assert got[slug].tobytes() == want[slug].tobytes(), slug


def _assert_in_one_mapping(result):
    """Every sum and event count is a view of one mapping of 4 * 8 * S * T
    bytes, which tracemalloc does not see."""
    regions = set()
    for field in FIELDS[:4]:
        for a in getattr(result, field).values():
            while isinstance(a, np.ndarray):
                a = a.base
            regions.add(id(a.obj))
            assert len(a.obj) == 4 * 8 * len(result.slugs) * result.horizon
    assert len(regions) == 1


class TestFanOut:
    """With more than one worker, a task is one strategy over every
    repetition, and ``min(threads, strategies)`` run at once; with one, this
    process runs them all.  Either way every field is the definition's value
    bit for bit and the files are the same bytes."""

    ROSTER = (FollowTheLeader(), AdaHedge(2.0), VariableHedge())

    def config(self, reps, output_dir=None, strategies=ROSTER):
        return ExperimentConfig(
            generator=IidBernoulli((0.2, 0.5, 0.8)),
            horizon_t=300,
            repetitions=reps,
            strategies=strategies,
            base_seed=101,
            output_dir=output_dir,
        )

    @pytest.mark.parametrize("reps", [1, 2, 3, 40])
    def test_every_field_and_file_is_the_same_at_any_thread_count(
        self, reps, tmp_path, monkeypatch
    ):
        # four workers on any machine: more than the three strategies, and a
        # one-strategy roster runs in this process at any thread count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        for roster in (self.ROSTER, self.ROSTER[1:2]):
            want = _reference(self.config(reps, strategies=roster))
            files = {}
            for threads in (1, 2, 4):
                outdir = tmp_path / f"s{len(roster)}t{threads}"
                cfg = self.config(reps, outdir, roster)
                result = run_experiment(cfg, threads=threads)
                for field in FIELDS:
                    _assert_same_bits(getattr(result, field), want[field])
                files[threads] = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            assert len(files[1]) == len(roster) + 1
            assert files[1] == files[2] == files[4]

    def test_first_repetition_sum_starts_from_zero(self, monkeypatch):
        """A -0.0 in the first repetition's arrays sums to 0.0, as a sum
        started from zeros gives."""
        traced = run

        def negative_zeros(kind, stream):
            trace = traced(kind, stream)
            trace.regret[::7] = -0.0
            return trace

        monkeypatch.setattr(simulation_mod, "run", negative_zeros)
        cfg = self.config(1)
        result = run_experiment(cfg, threads=1)
        for field in FIELDS:
            _assert_same_bits(getattr(result, field), _reference(cfg)[field])
        regret = result.mean_regret["ftl"]
        assert (regret[::7] == 0.0).all() and not np.signbit(regret).any()

    def test_calls_through_the_module_names(self, tmp_path, monkeypatch):
        """The names the per-layer benchmark wraps: ``generate`` once per
        repetition, ``run`` once per strategy and repetition, and the trace
        writer once with the output directory and every strategy's columns,
        in roster order."""
        calls = {"generate": 0, "run": 0}
        written = []
        for name in calls:
            fn = getattr(simulation_mod, name)

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(simulation_mod, name, counted)
        write = reports_mod.write_trace_csvs

        def recorded(*args, **kwargs):
            written.append((args, kwargs))
            return write(*args, **kwargs)

        monkeypatch.setattr(reports_mod, "write_trace_csvs", recorded)
        cfg = self.config(3, tmp_path)
        result = run_experiment(cfg, threads=1)
        assert calls == {"generate": 3, "run": 9}
        assert len(written) == 1
        ((outdir, traces), kwargs), = written
        assert outdir == tmp_path and not kwargs and list(traces) == cfg.slugs
        for slug, columns in traces.items():
            fields = (result.mean_regret, result.mean_cum_loss, result.mean_eta)
            want = [field[slug] for field in fields] + [result.segment_events[slug]]
            assert [c.tobytes() for c in columns] == [w.tobytes() for w in want]

    def test_without_fork_runs_in_this_process_at_any_thread_count(
        self, tmp_path, monkeypatch
    ):
        """Where the platform cannot fork there is no pool: at two threads
        this process makes every strategy's means and writes the traces in
        one call, with the same bits and bytes as at one thread."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(simulation_mod, "_FORK", None)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was made without fork")

        monkeypatch.setattr(simulation_mod, "ProcessPoolExecutor", no_pool)
        written = []
        write = reports_mod.write_trace_csvs

        def recorded(outdir, traces):
            written.append((outdir, list(traces)))
            return write(outdir, traces)

        monkeypatch.setattr(reports_mod, "write_trace_csvs", recorded)
        want = _reference(self.config(3))
        result = run_experiment(self.config(3, tmp_path / "t2"), threads=2)
        for field in FIELDS:
            _assert_same_bits(getattr(result, field), want[field])
        assert written == [(tmp_path / "t2", result.slugs)]
        run_experiment(self.config(3, tmp_path / "t1"), threads=1)
        files = [
            {p.name: p.read_bytes() for p in sorted((tmp_path / t).iterdir())}
            for t in ("t1", "t2")
        ]
        assert len(files[0]) == len(self.ROSTER) + 1 and files[0] == files[1]

    def test_the_parent_keeps_no_shared_arguments(self, monkeypatch):
        """``_run_tasks`` hands the config and the mappings to the task as
        arguments, so after a run in this process or in the pool the
        module's ``_inherited`` is still empty: no global keeps the mappings
        alive (16 MB for ``alternating.cfg``)."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        for threads in (1, 2):
            run_experiment(self.config(2), threads=threads)
            assert simulation_mod._inherited == ()

    def test_holds_the_means_and_one_repetition(self):
        """At one thread the traced peak stays within one repetition's
        working set: its stream and the costliest single ``run``, whose
        trace is added into the sums and freed before the next, plus 64 KiB
        for the result's views and the interpreter's small objects.  The
        means live in the mapping."""
        kinds = (
            FollowTheLeader(), OracleHedge(), DoublingHedge(2.0), AdaHedge(2.0), VariableHedge()
        )
        cfg = ExperimentConfig(
            generator=AlternatingPair(a=0.2, b=0.6, eps=0.1),
            horizon_t=100_000,
            repetitions=2,
            strategies=kinds,
            base_seed=1,
        )
        tracemalloc.start()
        try:
            stream = generate(cfg.generator, cfg.horizon_t, derive_seed(1, 0))
            run_peaks = []
            for kind in kinds:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                run(kind, stream)
                run_peaks.append(tracemalloc.get_traced_memory()[1] - before)
            working_set = stream.nbytes + max(run_peaks) + 2**16
            del stream
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = run_experiment(cfg, threads=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= working_set, (peak, working_set)
        _assert_in_one_mapping(result)

    def test_two_workers_leave_the_parent_less_than_one_run(self, monkeypatch):
        """At two workers the parent's traced peak stays below one
        strategy's arrays for one repetition: the workers add their runs
        into the mapping and return nothing to unpickle.  The means live in
        the mapping."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        kinds = (FollowTheLeader(), AdaHedge(2.0))
        cfg = ExperimentConfig(
            generator=IidBernoulli((0.3, 0.5)),
            horizon_t=20_000,
            repetitions=24,
            strategies=kinds,
            base_seed=7,
        )
        run_bytes = 3 * cfg.horizon_t * 8  # regret, loss and rate
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_experiment(cfg, threads=2)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < run_bytes, peak / run_bytes
        _assert_in_one_mapping(result)

    @pytest.mark.parametrize("reps", [1, 40])
    def test_pool_workers_write_the_traces(self, reps, tmp_path, monkeypatch):
        """At two workers each trace is written once, by a forked worker,
        which inherits the patched writer; this process writes none."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        log = tmp_path / "writers.log"
        write = reports_mod.write_trace_csv

        def recorded(path, columns):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {path.name}\n")
            return write(path, columns)

        monkeypatch.setattr(reports_mod, "write_trace_csv", recorded)
        cfg = self.config(reps, tmp_path / "out")
        run_experiment(cfg, threads=2)
        calls = [line.split() for line in log.read_text().splitlines()]
        assert sorted(name for _, name in calls) == sorted(f"trace_{s}.csv" for s in cfg.slugs)
        assert all(int(pid) != os.getpid() for pid, _ in calls)

PROB = st.floats(0.0, 1.0)
GENERATOR = st.one_of(
    st.lists(PROB, min_size=2, max_size=6).map(IidBernoulli),
    st.builds(Correlated, PROB, PROB, PROB),
    st.builds(
        AlternatingPair, st.floats(0.1, 0.3), st.floats(0.5, 0.8), st.floats(0.0, 0.05)
    ),
    st.just(FtlKiller()),
)
PHI = st.sampled_from([1.5, 2.0, 3.0])
KIND = st.one_of(
    st.sampled_from([FollowTheLeader(), OracleHedge(), VariableHedge()]),
    st.builds(FixedHedge, st.sampled_from([0.25, 1.0, 4.0])),
    st.builds(DoublingHedge, PHI),
    st.builds(AdaHedge, PHI),
)


class TestEveryPoolPath:
    """Small experiments drawn at random give the same arrays bit for bit
    and the same files byte for byte in this process at one thread, in a
    fork pool at two to four threads on as many CPUs (fewer workers than
    strategies, as many, or more, capped at one per strategy), and at the
    same count where the platform cannot fork; the arrays are the
    definition's: each strategy's runs summed from zeros in repetition order
    and divided by R.  Horizons up to 600 cross the strategy kernel's first
    block of 256 rounds."""

    @settings(max_examples=25, deadline=None)
    @given(
        pooled=st.integers(2, 4),
        generator=GENERATOR,
        horizon_t=st.integers(1, 600),
        repetitions=st.integers(1, 5),
        strategies=st.lists(KIND, min_size=1, max_size=4, unique_by=lambda kind: kind.slug),
        base_seed=st.integers(0, 2**64 - 1),
    )
    def test_same_bits_and_bytes_on_every_path(self, pooled, **drawn):
        want = _reference(ExperimentConfig(**drawn))
        files = []
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(pooled)))
            for case, threads in (("one", 1), ("pool", pooled), ("no_fork", pooled)):
                if case == "no_fork":
                    patch.setattr(simulation_mod, "_FORK", None)
                outdir = Path(tmp, case)
                cfg = ExperimentConfig(**drawn, output_dir=outdir)
                result = run_experiment(cfg, threads=threads)
                for field in FIELDS:
                    _assert_same_bits(getattr(result, field), want[field])
                files.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
        assert len(files[0]) == len(drawn["strategies"]) + 1
        assert files[0] == files[1] == files[2]


class TestSegmentStatistics:
    def result(self, reps=5):
        cfg = ExperimentConfig(
            generator=IidBernoulli((0.4, 0.6)),
            horizon_t=400,
            repetitions=reps,
            strategies=(FollowTheLeader(), AdaHedge(2.0)),
            base_seed=55,
        )
        return run_experiment(cfg, threads=1)

    def test_mean_and_histogram(self):
        stats = segment_statistics(self.result(), AdaHedge(2.0))
        assert stats.mean >= 1.0
        assert sum(stats.histogram.values()) == 5
        assert all(count >= 1 for count in stats.histogram)

    def test_accepts_slug_string(self):
        result = self.result()
        by_kind = segment_statistics(result, AdaHedge(2.0))
        by_slug = segment_statistics(result, "adahedge_phi2")
        assert by_kind == by_slug

    def test_single_repetition_is_a_point_mass(self):
        stats = segment_statistics(self.result(reps=1), AdaHedge(2.0))
        assert len(stats.histogram) == 1
        assert list(stats.histogram.values()) == [1]

    def test_rejects_non_restart_strategy(self):
        with pytest.raises(ValueError, match="restart"):
            segment_statistics(self.result(), FollowTheLeader())

    def test_rejects_absent_strategy(self):
        with pytest.raises(ValueError, match="not present"):
            segment_statistics(self.result(), "doubling_hedge_phi2")

    @pytest.mark.parametrize("strategy", [None, 5, b"adahedge_phi2", ["adahedge_phi2"]])
    def test_rejects_what_is_neither_a_kind_nor_a_slug_by_name(self, strategy):
        with pytest.raises(TypeError, match="^strategy must be a strategy kind or its slug, got "):
            segment_statistics(self.result(), strategy)
