"""Tests for the strategy state machines and the whole-stream driver."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adahedge.bounds import budget, eta_floor, intro_mstar
from adahedge.core import (
    ACCUMULATED_TOL,
    LOSS_RANGE_TOL,
    CumulativeLoss,
    hedge_and_mix_loss,
    hedge_weights,
)
import adahedge.core as core_mod
import adahedge.strategies as strategies_mod
from adahedge.simulation import FtlKiller, IidBernoulli, generate, unit_uniforms
from adahedge.strategies import (
    AdaHedge,
    DoublingHedge,
    FixedHedge,
    FollowTheLeader,
    OracleHedge,
    RegretTrace,
    VariableHedge,
    as_loss_array,
    init,
    oracle_eta,
    run,
)

# Gap of uniform play on losses (0, 1) at eta = 1, and the gap sum of one
# (0,1),(1,0) pair starting from uniform weights.  Independently computed
# at 40 digits; the pair sum collapses to sigmoid(1) - 1/2.
GAP_UNIFORM_01 = 0.1201145069582775
PAIR_GAP_01_10 = 0.2310585786300049


def killer_rows(t_total):
    """Action 1 plays 0.5, 0, 1, 0, 1, ...; action 2 plays 0, 1, 0, 1, ..."""
    rows = []
    for t in range(1, t_total + 1):
        if t == 1:
            rows.append([0.5, 0.0])
        elif t % 2 == 0:
            rows.append([0.0, 1.0])
        else:
            rows.append([1.0, 0.0])
    return np.asarray(rows)


def alternating_rows(t_total, a=0.2, b=0.6, eps=0.1):
    rows = []
    for t in range(1, t_total + 1):
        if t % 2 == 1:
            rows.append([a + eps, b - eps])
        else:
            rows.append([a - eps, b + eps])
    return np.asarray(rows)


class TestKinds:
    def test_slugs(self):
        assert FollowTheLeader().slug == "ftl"
        assert FixedHedge(0.5).slug == "fixed_hedge_eta0.5"
        assert OracleHedge().slug == "oracle_hedge"
        assert DoublingHedge().slug == "doubling_hedge_phi2"
        assert AdaHedge(1.5).slug == "adahedge_phi1.5"
        assert VariableHedge().slug == "variable_hedge"
        assert FixedHedge(1000.0).slug == "fixed_hedge_eta1000"
        # parameters that six significant digits cannot tell apart
        assert AdaHedge(1.0000001).slug == "adahedge_phi1.0000001"
        assert DoublingHedge(1.0000000001).slug == "doubling_hedge_phi1.0000000001"

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="eta"):
            FixedHedge(0.0)
        with pytest.raises(ValueError, match="eta"):
            FixedHedge(math.inf)
        with pytest.raises(ValueError, match="phi"):
            AdaHedge(1.0)
        with pytest.raises(ValueError, match="phi"):
            DoublingHedge(0.9)

    def test_oracle_eta(self):
        np.testing.assert_allclose(
            oracle_eta(499.5, 2), 0.052681724405396105, rtol=1e-13
        )
        assert oracle_eta(0.0, 5) == 1.0
        with pytest.raises(ValueError, match="lstar"):
            oracle_eta(-1.0, 2)


class TestInit:
    def test_adahedge_first_round(self):
        state = init(AdaHedge(2.0), 4)
        assert state.eta == 1.0
        assert state.segment == 1
        np.testing.assert_allclose(state.budget, 2.1930853881559615, rtol=1e-13)
        np.testing.assert_allclose(state.weights, 0.25, rtol=1e-15)

    def test_ftl_starts_uniform(self):
        state = init(FollowTheLeader(), 3)
        np.testing.assert_allclose(state.weights, 1.0 / 3.0, rtol=1e-15)
        assert state.eta == math.inf

    def test_fixed_hedge_starts_uniform(self):
        state = init(FixedHedge(0.5), 2)
        assert state.weights == (0.5, 0.5)
        assert state.eta == 0.5

    def test_oracle_needs_full_stream(self):
        with pytest.raises(ValueError, match="final best loss"):
            init(OracleHedge(), 2)

    def test_rejects_single_action(self):
        with pytest.raises(ValueError, match="actions"):
            init(FollowTheLeader(), 1)

    def test_rejects_non_kind(self):
        with pytest.raises(TypeError, match="unknown strategy kind"):
            init("ftl", 2)

    def test_k_past_memory_names_k(self):
        """A k the integer rule takes but no list can hold; 10**12 fails at
        once, where a k near 1e8 would allocate gigabytes first."""
        with pytest.raises(MemoryError, match=r"^number of actions k = 1000000000000 "):
            init(AdaHedge(), 10**12)


class TestFollowTheLeaderActs:
    def test_plays_unique_leader(self):
        state = init(FollowTheLeader(), 2)
        state.observe([0.5, 0.0])
        assert state.weights == (0.0, 1.0)

    def test_splits_ties_uniformly(self):
        state = init(FollowTheLeader(), 2)
        state.observe([1.0, 1.0])
        assert state.weights == (0.5, 0.5)

    def test_exact_ties_only(self):
        # 0.1 + 0.2 lands just above 0.3 in floats, so action 2 leads alone
        state = init(FollowTheLeader(), 2)
        state.observe([0.1, 0.3])
        state.observe([0.2, 0.0])
        assert state.weights == (0.0, 1.0)


class TestObserve:
    def test_first_gap_on_01(self):
        state = init(AdaHedge(2.0), 2)
        state.observe([0.0, 1.0])
        np.testing.assert_allclose(state.delta_sum, GAP_UNIFORM_01, rtol=1e-12)

    def test_equal_losses_are_null_updates(self):
        state = init(FixedHedge(0.7), 3)
        for _ in range(5):
            state.observe([0.4, 0.4, 0.4])
        assert state.delta_sum == pytest.approx(0.0, abs=1e-15)
        w = state.weights
        assert w[0] == w[1] == w[2]
        np.testing.assert_allclose(w, 1.0 / 3.0, rtol=1e-15)

    def test_cum_property_tracks_totals(self):
        state = init(VariableHedge(), 2)
        state.observe([0.25, 1.0]).observe([0.5, 0.0])
        cum = state.cum
        assert isinstance(cum, CumulativeLoss)
        np.testing.assert_allclose(cum.totals, (0.75, 1.0), rtol=1e-15)
        assert cum.rounds == 2


class TestAdaHedgeRollover:
    """Hand-traced first restart: K = 2, phi = 2, alternating (0,1),(1,0).

    Each loss pair returns the weights to uniform and adds sigmoid(1) - 1/2
    to the gap sum, so the budget (1 + 1/(e-1)) ln 2 = 1.0965... is hit
    after the fifth pair (5 x 0.23106 = 1.15529), i.e. after round 10.
    """

    def deplete(self):
        state = init(AdaHedge(2.0), 2)
        for t in range(10):
            state.observe([0.0, 1.0] if t % 2 == 0 else [1.0, 0.0])
        return state

    def test_gap_sum_at_depletion(self):
        state = self.deplete()
        np.testing.assert_allclose(state.delta_sum, 5 * PAIR_GAP_01_10, rtol=1e-12)
        assert state.delta_sum >= state.budget
        # rollover is pending, not yet applied
        assert state.segment == 1

    def test_rollover_applied_before_next_act(self):
        state = self.deplete()
        snap = state.act()
        assert state.segment == 2
        assert state.eta == 0.5
        assert state.delta_sum == 0.0
        assert state.segment_starts == [1, 11]
        np.testing.assert_allclose(snap.weights, (0.5, 0.5), rtol=1e-15)
        np.testing.assert_allclose(state.budget, 1.789689874637926, rtol=1e-13)

    def test_four_pairs_do_not_deplete(self):
        state = init(AdaHedge(2.0), 2)
        for t in range(8):
            state.observe([0.0, 1.0] if t % 2 == 0 else [1.0, 0.0])
        state.act()
        assert state.segment == 1


class TestDoublingHedge:
    def test_segment_two_budget(self):
        state = init(DoublingHedge(2.0), 4)
        assert state.budget == pytest.approx(2.0 * math.log(4))
        # all-ones rounds grow every action's segment loss by 1; the budget
        # 2 ln 4 = 2.77 is reached after round 3
        for _ in range(3):
            state.observe([1.0, 1.0, 1.0, 1.0])
        state.act()
        assert state.segment == 2
        assert state.eta == 0.5
        np.testing.assert_allclose(state.budget, 8.0 * math.log(4), rtol=1e-13)

    def test_no_restart_before_budget(self):
        state = init(DoublingHedge(2.0), 4)
        for _ in range(2):
            state.observe([1.0, 1.0, 1.0, 1.0])
        state.act()
        assert state.segment == 1

    def test_underflowed_budget_stops_restarting(self):
        """At phi = 1e200 the second segment's eta * eta underflows to 0:
        its budget is infinite and the run finishes in two segments."""
        trace = run(DoublingHedge(1e200), generate(FtlKiller(), 5000, 0))
        assert trace.segment_starts == [1, 5]
        assert trace.eta[-1] == 1e-200
        for field in (trace.agent_loss, trace.cum_agent_loss, trace.regret, trace.cum_gap):
            assert np.isfinite(field).all()


class TestRunKillerStream:
    def test_ftl_regret_t10(self):
        """Hand trace: FTL pays 0.25 in round 1, then swaps onto the loser
        every round and pays 1; best action total is 4.5 after ten rounds."""
        trace = run(FollowTheLeader(), killer_rows(10))
        assert trace.agent_loss[0] == 0.25
        assert np.all(trace.agent_loss[1:] == 1.0)
        np.testing.assert_allclose(trace.best_cum_loss[-1], 4.5, rtol=1e-15)
        np.testing.assert_allclose(trace.final_regret, 4.75, rtol=1e-15)

    def test_ftl_regret_t1000(self):
        trace = run(FollowTheLeader(), killer_rows(1000))
        assert trace.final_regret >= 499.0
        np.testing.assert_allclose(trace.final_regret, 499.75, rtol=1e-14)

    def test_ftl_trace_markers(self):
        trace = run(FollowTheLeader(), killer_rows(10))
        assert np.all(np.isinf(trace.eta))
        assert np.all(trace.cum_gap == 0.0)
        assert trace.segments_started == 1

    def test_hedge_family_is_not_trapped(self):
        for kind in (AdaHedge(2.0), VariableHedge(), OracleHedge()):
            trace = run(kind, killer_rows(1000))
            assert trace.final_regret < 100.0


class TestRunAlternatingStream:
    def test_ftl_locks_onto_diverging_leader(self):
        trace = run(FollowTheLeader(), alternating_rows(10_000))
        np.testing.assert_allclose(trace.final_regret, 0.1, atol=1e-9)
        assert trace.final_regret <= 1.0

    def test_adahedge_stops_restarting(self):
        trace = run(AdaHedge(2.0), alternating_rows(100_000))
        assert trace.segments_started <= intro_mstar(0.2, 2.0)
        # regret has flattened: the last 90% of the stream adds almost none
        tail_growth = trace.final_regret - trace.regret[len(trace.regret) // 10]
        assert tail_growth <= 2.0


class TestRunInvariants:
    def make_stream(self, t_total=300, k=4, seed=0):
        rng = np.random.default_rng(seed)
        return rng.random((t_total, k))

    def test_regret_identity(self):
        trace = run(AdaHedge(2.0), self.make_stream())
        np.testing.assert_allclose(
            trace.regret, trace.cum_agent_loss - trace.best_cum_loss, atol=1e-12
        )

    def test_negative_zero_losses_total_positive_zero(self):
        """Running totals start at 0.0, and 0.0 + -0.0 is 0.0."""
        trace = run(FixedHedge(1.0), [[-0.0, 1.0], [-0.0, 0.5]])
        assert not np.signbit(trace.best_cum_loss).any()

    def test_agent_loss_in_unit_range(self):
        for kind in (FollowTheLeader(), FixedHedge(0.3), VariableHedge()):
            trace = run(kind, self.make_stream(seed=3))
            assert np.all(trace.agent_loss >= -1e-12)
            assert np.all(trace.agent_loss <= 1.0 + 1e-12)

    def test_bitwise_deterministic(self):
        arr = self.make_stream(seed=7)
        a = run(AdaHedge(2.0), arr)
        b = run(AdaHedge(2.0), arr)
        assert np.array_equal(a.regret, b.regret)
        assert np.array_equal(a.eta, b.eta)
        assert np.array_equal(a.cum_gap, b.cum_gap)

    def test_fixed_hedge_matches_typed_kernel(self):
        """The fast in-strategy weight path and the typed hedge_weights op
        agree bitwise on every round."""
        arr = self.make_stream(t_total=50, k=3, seed=11)
        state = init(FixedHedge(0.3), 3)
        for row in arr:
            state.observe(row)
            snap = hedge_weights(state.cum, 0.3)
            assert state.weights == snap.weights

    def test_oracle_is_fixed_hedge_at_oracle_rate(self):
        arr = self.make_stream(seed=13)
        lstar = float(arr.sum(axis=0).min())
        a = run(OracleHedge(), arr)
        b = run(FixedHedge(oracle_eta(lstar, arr.shape[1])), arr)
        assert np.array_equal(a.regret, b.regret)
        assert np.array_equal(a.agent_loss, b.agent_loss)
        assert np.all(a.eta == oracle_eta(lstar, arr.shape[1]))

    def test_variable_hedge_schedule_replay(self):
        """eta_t = min(1, sqrt(2 ln K / L*_{t-1})), and 1 while L* = 0."""
        arr = self.make_stream(t_total=300, k=5, seed=17)
        trace = run(VariableHedge(), arr)
        two_lnk = 2.0 * math.log(5)
        assert trace.eta[0] == 1.0
        for t in range(1, trace.horizon):
            lstar = trace.best_cum_loss[t - 1]
            want = 1.0 if lstar <= 0.0 else min(1.0, math.sqrt(two_lnk / lstar))
            assert trace.eta[t] == want

    def test_adahedge_eta_floor_per_depleted_segment(self):
        """Every segment that actually depleted its budget did so only after
        the segment's best action lost at least (e-1) ln K / eta**2."""
        rng = np.random.default_rng(42)
        arr = rng.random((3000, 3))
        state = init(AdaHedge(2.0), 3)
        seg_totals = np.zeros(3)
        rollovers = 0
        for row in arr:
            before = state.segment
            state.act()
            if state.segment != before:
                rollovers += 1
                eta_prev = 2.0 ** (1 - before)
                assert eta_prev >= eta_floor(float(seg_totals.min()), 3) - 1e-12
                seg_totals[:] = 0.0
            state.observe(row)
            seg_totals += row
        assert rollovers >= 2

    def test_adahedge_gap_never_exceeds_budget_plus_eighth_eta(self):
        trace = run(AdaHedge(2.0), self.make_stream(t_total=2000, k=3, seed=23))
        for t in range(trace.horizon):
            eta = trace.eta[t]
            assert trace.cum_gap[t] <= budget(eta, 3) + eta / 8.0 + 1e-9


class TestAsLossArray:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            as_loss_array(np.zeros((0, 2)))

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError, match="2-d"):
            as_loss_array(np.zeros(5))

    def test_rejects_single_action(self):
        with pytest.raises(ValueError, match="actions"):
            as_loss_array(np.zeros((5, 1)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            as_loss_array([[0.0, 1.5]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_loss_array([[0.0, math.nan]])

    def test_keeps_float_array_and_reads_any_iterable_of_rows(self):
        arr = np.array([[0.0, 1.0], [0.5, 0.5]])
        assert as_loss_array(arr) is arr
        rows = as_loss_array(tuple(row) for row in arr.tolist())
        np.testing.assert_array_equal(rows, arr)


class TestRegretTraceShape:
    def test_fields_aligned(self):
        trace = run(FixedHedge(1.0), np.random.default_rng(42).random((40, 2)))
        assert isinstance(trace, RegretTrace)
        assert trace.horizon == 40
        for field in (
            trace.agent_loss,
            trace.cum_agent_loss,
            trace.best_cum_loss,
            trace.regret,
            trace.segment,
            trace.eta,
            trace.cum_gap,
        ):
            assert len(field) == 40
        assert trace.segment_starts == [1]


# sha256 of every trace array, recorded before the exponential-weights
# states were merged into one class.  K = 6 is in the grid because
# VariableHedge's first-round weights are exp(-ln K), not 1/K, and the two
# differ in the last bit there.
GOLDEN_KINDS = (
    FollowTheLeader(),
    FixedHedge(0.3),
    OracleHedge(),
    DoublingHedge(2.0),
    AdaHedge(2.0),
    VariableHedge(),
)
GOLDEN_HORIZONS = {2: 3000, 6: 1000, 256: 400}
GOLDEN_DIGESTS = {
    ("uniform", 2, "ftl"): "9d3c0ee00a2a63115b8df7b8854032f80c2da54f03e7170b3a0b6c6f5dc272b3",
    ("uniform", 2, "fixed_hedge_eta0.3"): "7bd15cad489ad204469a6a4eea27b9918ddab5f2927d08c300979abd8342b4ed",
    ("uniform", 2, "oracle_hedge"): "656ca5e755dff9b1e64782b044c4c1e95531fa9bf5170de9e75beb00951fa0d4",
    ("uniform", 2, "doubling_hedge_phi2"): "09f92c537c199520b25ff9a88e43dfe3e488aa6edddd686997a3690a43b0f5c7",
    ("uniform", 2, "adahedge_phi2"): "4d56d769815c01080f6c5801c9cdaecb43e657c80a5f0ccc6de103e490daf54a",
    ("uniform", 2, "variable_hedge"): "766ad1baec0417bf6ad6433f730f575de937ca49d29dfdab8ba0288fb2beaa95",
    ("uniform", 6, "ftl"): "4644936a81469f32bfdf3fc8fb5d5df6c387b7770fb9fd29e4fbc5ddbc163515",
    ("uniform", 6, "fixed_hedge_eta0.3"): "2900e2bd9dd628910eeee4d7de2a7326dc12ce0ba7755aff8e98f4cffefabe24",
    ("uniform", 6, "oracle_hedge"): "b085099d4c6784114e951758ba9fc0d129171b6ffd515aff8d9ec8a8b752d573",
    ("uniform", 6, "doubling_hedge_phi2"): "2dad81cf611d16e34550cafceef1089cd8d7a5f9f70919730784924746784e9d",
    ("uniform", 6, "adahedge_phi2"): "e3d984d55e936325408c9e2aafcd23ea134c36ab9d78b3830fa43a142b01543b",
    ("uniform", 6, "variable_hedge"): "2fad0219230724c0e3c1e9bd935a9fe2eecdbc795c14ee8a21334a996417b114",
    ("uniform", 256, "ftl"): "52adc3cf4ff6ce4ea890960932868cfdede2f39973f5ee8e9df182490648b02c",
    ("uniform", 256, "fixed_hedge_eta0.3"): "c8c21ab2b63bc31e8205b44bc9ac6b6c5726c0331f252e8ab148262d69b62462",
    ("uniform", 256, "oracle_hedge"): "66604f0e7797376a84a13c5cbcfb688bdfae57f4ab67155aafa4106dfc961106",
    ("uniform", 256, "doubling_hedge_phi2"): "8d16524551a9ecec649c0befff3901bfcd906a2449bee344965cec55fcb4c9e3",
    ("uniform", 256, "adahedge_phi2"): "fc040e02d2544550dec7a2e47c7485e399bff8294c07662236861623283d6e7e",
    ("uniform", 256, "variable_hedge"): "204725d857715110251bff11471626826900d1aaaa355b276e3df0d49fdae141",
    ("bernoulli", 2, "ftl"): "f074123d7aa3093d4173c1eedae96cff30f2b489d10191d229007a8916cc1523",
    ("bernoulli", 2, "fixed_hedge_eta0.3"): "833efa935c3720ba0128e44dfb9528f80e4e7375c0a9818f0a1e7a04fafa2864",
    ("bernoulli", 2, "oracle_hedge"): "a7e7d13ffdc7993358793c1ab025d5ac5fc00a5bdba9a00ba1123772128982dd",
    ("bernoulli", 2, "doubling_hedge_phi2"): "7ae42883ef81a8ee3562aa035e3ecc4938f5c4e6a183e142ee0f86eed159e843",
    ("bernoulli", 2, "adahedge_phi2"): "1d253fb39da5be635de2782b4007c6bb1368e2ff9abd2cd87bbc4360c183c7e8",
    ("bernoulli", 2, "variable_hedge"): "b805503d5464bce38900e09bfba4d8335eecedc2ac824af25dc0c0f945fd4f19",
    ("bernoulli", 6, "ftl"): "77e0134639a1e1ffb0c3ce2223e7c2c490a52aa98c705eb2c58190e10d4d20ce",
    ("bernoulli", 6, "fixed_hedge_eta0.3"): "670f6f37e4fbe5b105cb84efe9c45b378e8bdeda4d387daf14c914535ce4eed6",
    ("bernoulli", 6, "oracle_hedge"): "c25da9bbeae2a2fae4674b9ee3db6fef087716a47823cdcecb248e9c65522f7c",
    ("bernoulli", 6, "doubling_hedge_phi2"): "75774e488fb3ad1c85311dbb629f8c2696094c5f4f1b25d07a3ac6841fc116f2",
    ("bernoulli", 6, "adahedge_phi2"): "66f76ab7fc74e330be31ff8de52a169eed6d3e2d502e90f51ac4f10fccfcfd27",
    ("bernoulli", 6, "variable_hedge"): "514124aa30f94774ab7c42048858395a805a0928b77aef36a2eeb00c324ac629",
    ("bernoulli", 256, "ftl"): "f71fd3e7b96cc06c32a01d138e3bbf4373986923757de275750bc40e448a5e72",
    ("bernoulli", 256, "fixed_hedge_eta0.3"): "e3ab41ab0f3d8984bc0873a8a74f013aea25bda29abda5531c347eeee11e0780",
    ("bernoulli", 256, "oracle_hedge"): "cd897127234efcfbdb53fb758306f9b53ac8cb8a21f7c24d375f474edde63d09",
    ("bernoulli", 256, "doubling_hedge_phi2"): "722cee569464cb0e7be9043776a7c03b284d3dda8c2c86dd80afbb4f5a97d386",
    ("bernoulli", 256, "adahedge_phi2"): "170140dba7a41a558d98fa252eed872704fc8164d7f77a0dc388f967be375469",
    ("bernoulli", 256, "variable_hedge"): "0eb28e77e04e9347b39cc859c02080bec0489d067786dc5b1ad16f34aa4640d3",
}


def golden_stream(family, k):
    t_total = GOLDEN_HORIZONS[k]
    if family == "uniform":
        return unit_uniforms(1000 + k, t_total * k).reshape(t_total, k)
    return generate(IidBernoulli(np.linspace(0.3, 0.6, k)), t_total, k)


def trace_digest(trace):
    h = hashlib.sha256()
    for arr in (
        trace.agent_loss,
        trace.cum_agent_loss,
        trace.best_cum_loss,
        trace.regret,
        trace.segment,
        trace.eta,
        trace.cum_gap,
        np.asarray(trace.segment_starts, dtype=np.int64),
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestGoldenTraces:
    @pytest.mark.parametrize("family", ["uniform", "bernoulli"])
    @pytest.mark.parametrize("k", sorted(GOLDEN_HORIZONS))
    def test_traces_bitwise_unchanged(self, family, k):
        stream = golden_stream(family, k)
        got = {
            (family, k, kind.slug): trace_digest(run(kind, stream))
            for kind in GOLDEN_KINDS
        }
        want = {key: GOLDEN_DIGESTS[key] for key in got}
        assert got == want


def test_k256_goldens_catch_a_real_numpy_exp(monkeypatch):
    """A planted fault: the kernels' ``exp`` as numpy's real ``np.exp``, whose
    SIMD loops round some results differently from ``math.exp``.  The K = 256
    golden traces must change wherever the two differ on a probe."""
    probe = -np.random.default_rng(14).exponential(5.0, 10**5)
    if np.exp(probe).tobytes() == np.array([math.exp(v) for v in probe.tolist()]).tobytes():
        pytest.skip("numpy's real exp gives math.exp's bits on the probe on this host")
    monkeypatch.setattr(core_mod, "_exp", np.exp)
    monkeypatch.setattr(strategies_mod, "_exp", np.exp)
    changed = [
        (family, kind.slug)
        for family in ("uniform", "bernoulli")
        for kind in GOLDEN_KINDS
        if trace_digest(run(kind, golden_stream(family, 256)))
        != GOLDEN_DIGESTS[(family, 256, kind.slug)]
    ]
    assert changed


class TestLargeEta:
    """Fixed rates at which every weighted action's exp(-eta * l) can
    underflow while the round's best action carries no weight."""

    @pytest.mark.parametrize("eta", [40.0, 1e2, 1e3, 1e300])
    @pytest.mark.parametrize("family", ["uniform", "bernoulli"])
    def test_run_stays_finite(self, family, eta):
        if family == "uniform":
            arr = unit_uniforms(7, 3000).reshape(1500, 2)
        else:
            arr = generate(IidBernoulli((0.35, 0.4, 0.45, 0.5)), 10_000, 1)
        trace = run(FixedHedge(eta), arr)
        for field in (trace.agent_loss, trace.regret, trace.cum_gap):
            assert np.isfinite(field).all()
        # each round's gap lies in [0, expected loss - min loss]
        gaps = np.diff(trace.cum_gap, prepend=0.0)
        assert gaps.min() >= -ACCUMULATED_TOL
        assert np.all(gaps <= trace.agent_loss - arr.min(axis=1) + ACCUMULATED_TOL)


DIFFERENTIAL_KINDS = (
    FollowTheLeader(),
    FixedHedge(0.05),
    FixedHedge(1.0),
    FixedHedge(1e3),
    DoublingHedge(1.5),
    DoublingHedge(2.0),
    AdaHedge(1.2),
    AdaHedge(2.0),
    VariableHedge(),
)


@st.composite
def kind_and_stream(draw):
    """A strategy kind and a (T, K) stream with K up to 64.  Uniform draws
    below ``snap`` become exact 0 losses and those above 1 - snap exact 1
    losses; the edges may be pushed out by LOSS_RANGE_TOL."""
    kind = draw(st.sampled_from(DIFFERENTIAL_KINDS))
    k = draw(st.integers(min_value=2, max_value=64))
    t_total = draw(st.integers(min_value=1, max_value=60))
    u = unit_uniforms(draw(st.integers(0, 2**64 - 1)), t_total * k).reshape(t_total, k)
    snap = draw(st.sampled_from([0.0, 0.2, 0.5]))
    low, high = draw(
        st.sampled_from([(0.0, 1.0), (-LOSS_RANGE_TOL, 1.0 + LOSS_RANGE_TOL)])
    )
    arr = np.where(u < snap, low, np.where(u >= 1.0 - snap, high, u))
    return kind, arr


def stepwise_trace(kind, arr):
    """Per-round (eta, segment, played loss, cum gap, best total, cum played
    loss, regret) from driving ``init`` / ``observe`` by hand, plus the
    segment starts."""
    state = init(kind, arr.shape[1])
    rounds = []
    cum_played = 0.0
    for row in arr.tolist():
        weights = state.weights  # applies a pending rollover
        eta, segment = state.eta, state.segment
        if isinstance(kind, FollowTheLeader):
            played = 0.0
            for w, l in zip(weights, row):
                played += w * l
        else:
            played = hedge_and_mix_loss(weights, row, eta)[0]
        state.observe(row)
        cum_played += played
        best = min(state.cum.totals)
        rounds.append(
            (eta, segment, played, state.delta_sum, best, cum_played, cum_played - best)
        )
    return rounds, state.segment_starts


class TestStepwiseMatchesRun:
    @settings(max_examples=150, deadline=None)
    @given(kind_and_stream())
    def test_observe_equals_run_bitwise(self, case):
        kind, arr = case
        trace = run(kind, arr)
        rounds, starts = stepwise_trace(kind, arr)
        fields = (
            trace.eta,
            trace.segment,
            trace.agent_loss,
            trace.cum_gap,
            trace.best_cum_loss,
            trace.cum_agent_loss,
            trace.regret,
        )
        stepped = [np.asarray(col, dtype=f.dtype) for col, f in zip(zip(*rounds), fields)]
        assert [f.tobytes() for f in fields] == [col.tobytes() for col in stepped]
        assert trace.segment_starts == starts
        finite = [trace.agent_loss, trace.cum_agent_loss, trace.regret, trace.cum_gap]
        if not isinstance(kind, FollowTheLeader):
            finite.append(trace.eta)
        assert all(np.isfinite(field).all() for field in finite)
        assert starts[0] == 1 and starts[-1] <= len(arr)
        assert all(a < b for a, b in zip(starts, starts[1:]))


def block_stream(name):
    """Streams longer than the first block ``run`` computes (256 rounds, or
    128 at K = 256)."""
    if name == "ftl_killer":
        return generate(FtlKiller(), 300, 0)
    if name == "antithetic":  # tied totals: AdaHedge and DoublingHedge restart often
        u = unit_uniforms(41, 150 * 5).reshape(150, 5)
        return np.stack([u, 1.0 - u], axis=1).reshape(300, 5)
    if name == "negative_zero":
        u = unit_uniforms(42, 300 * 3).reshape(300, 3)
        return np.where(u < 0.3, -0.0, np.where(u >= 0.8, 1.0, u))
    k = int(name.removeprefix("uniform_k"))
    t_total = 140 if k == 256 else 300
    return unit_uniforms(4000 + k, t_total * k).reshape(t_total, k)


BLOCK_STREAMS = [f"uniform_k{k}" for k in (2, 3, 5, 64, 256)] + [
    "ftl_killer",
    "antithetic",
    "negative_zero",
]
BLOCK_KINDS = (
    FollowTheLeader(),
    FixedHedge(0.3),
    FixedHedge(40.0),  # most rounds take the logsumexp fallback
    FixedHedge(1e3),
    OracleHedge(),
    DoublingHedge(1.5),
    AdaHedge(1.2),
    VariableHedge(),
)


def trace_bytes(trace):
    fields = (
        trace.agent_loss,
        trace.cum_agent_loss,
        trace.best_cum_loss,
        trace.regret,
        trace.segment,
        trace.eta,
        trace.cum_gap,
    )
    return [field.tobytes() for field in fields] + [trace.segment_starts]


class TestBlockInvariance:
    """``run`` computes blocks of rounds at once; no block size may move a
    bit, and every trace equals stepping the state round by round."""

    @pytest.mark.parametrize("kind", BLOCK_KINDS, ids=lambda kind: kind.slug)
    @pytest.mark.parametrize("name", BLOCK_STREAMS)
    def test_block_size_moves_no_bit(self, name, kind, monkeypatch):
        arr = block_stream(name)
        k = arr.shape[1]
        trace = run(kind, arr)
        want = trace_bytes(trace)
        # blocks of 1 round, then of 1, 2, 3, 3, ... rounds
        monkeypatch.setattr(strategies_mod, "_FIRST_ROWS", 1)
        for rows in (1, 3):
            monkeypatch.setattr(strategies_mod, "_BLOCK_LOSSES", rows * k)
            assert trace_bytes(run(kind, arr)) == want, f"{rows}-round blocks"

        if isinstance(kind, OracleHedge):
            kind = FixedHedge(oracle_eta(float(arr.sum(axis=0).min()), k))
        rounds, starts = stepwise_trace(kind, arr)
        fields = (
            trace.eta,
            trace.segment,
            trace.agent_loss,
            trace.cum_gap,
            trace.best_cum_loss,
            trace.cum_agent_loss,
            trace.regret,
        )
        stepped = [np.asarray(col, dtype=f.dtype) for col, f in zip(zip(*rounds), fields)]
        assert [f.tobytes() for f in fields] == [col.tobytes() for col in stepped]
        assert trace.segment_starts == starts
        if name in ("ftl_killer", "antithetic") and isinstance(kind, (AdaHedge, DoublingHedge)):
            assert trace.segments_started >= 3


# sha256 of every public attribute of the stepwise state, round by round,
# recorded before leader play and the Hedge kinds shared one state class.
# K = 7 is in the grid because FTL's fresh log weights are log(1/K), and
# log(1/7) != -log(7), which the Hedge kinds' fresh log weights are.
STEPWISE_KINDS = (
    FollowTheLeader(),
    FixedHedge(0.3),
    FixedHedge(40.0),
    DoublingHedge(1.5),
    AdaHedge(1.2),
    VariableHedge(),
)
STEPWISE_DIGESTS = {
    ("ftl", 2): "cf3d1b60b44154a019bbda2e6321e1af6a6cd9e6a9ea36c1c62da2cbccdda076",
    ("fixed_hedge_eta0.3", 2): "85f86f0bc6a7e865a51104860ea98b0c0e0568acc5d2641eabf4e7b483be0faf",
    ("fixed_hedge_eta40", 2): "b0949802f59ffd27c7e947dab24d7c0e7ce15b9353b981928801d665057adfce",
    ("doubling_hedge_phi1.5", 2): "a0f5c097add0807cc0a5cb30987bbe2ad54dd508bd166cb4d61f6b7f5de76db2",
    ("adahedge_phi1.2", 2): "6b95301bb0c2ec561dd52f1aaba001246e85a8ae9e64c800962aa3327e0a2a13",
    ("variable_hedge", 2): "f2f184f97e02ac781822c6571d4161ef3786565fd34925f04166a05983daf8d6",
    ("ftl", 3): "c67b9ee9250ddb7812ab35ab4af7637ab39e1eba2b373c3e0b48210f0b1479d1",
    ("fixed_hedge_eta0.3", 3): "5d9be00be3f1aa63e30cde8afed325a0a60cb38c775aa5132109542fec85fe3b",
    ("fixed_hedge_eta40", 3): "3a2ba10c288d4aafbd372811bf16fe4fdf39147d1949e078b57d1db97ff71b17",
    ("doubling_hedge_phi1.5", 3): "61d89917ef8e14301041ced17f159d72b8ffb6c1e4e2d50c7d97940386859e71",
    ("adahedge_phi1.2", 3): "6ba900d238992e57cc0713280f4c481c97adbf99894b7fa72a8a9d50cc1c14ff",
    ("variable_hedge", 3): "1bbccff4a87e3f74ecde243a03a2139c1035f68544d5c85a0aada497aaf97eb7",
    ("ftl", 5): "4414b7a43873b68bdf6f43f26f30dca96c1f8972710dca3b90f2345273653730",
    ("fixed_hedge_eta0.3", 5): "86000cc8d6c03db7c35b4eb33e51b921a335160bdb17d918d89029647c6c453b",
    ("fixed_hedge_eta40", 5): "5eab69a34c0dc58a368c3225b91fe3b12af6e29fe7530028ba71157fc09a6938",
    ("doubling_hedge_phi1.5", 5): "dee5da1e306432b9e23a6920ef854c5da182a84224fd6ea4f88ee75c70478f97",
    ("adahedge_phi1.2", 5): "e667d827674fe6885ce577b1a10c721a9af41b267f39d779dd1e7d97e2b48375",
    ("variable_hedge", 5): "fd7b4a437582e3c94e0c0befb76ceb9622357880276d6dba9548955e4d8fdfe2",
    ("ftl", 7): "e9a1f8e82620a52626e9a6c77707ea08e21c021210bfc92a8bd282ca81612308",
    ("fixed_hedge_eta0.3", 7): "6aa8d62bf3811d6961016190a6d3aac6b83975b7c01a555de161510d391b14be",
    ("fixed_hedge_eta40", 7): "7970d1b0489674ea9d90a4d6cdd1f2ac1f1df60f01f25c36be335f79657d738a",
    ("doubling_hedge_phi1.5", 7): "86ac16267d499c068b75edf6c3f706f67a75f0cf6393878fc89f0be4dc69149e",
    ("adahedge_phi1.2", 7): "cbd7221bb6db19dd7fa8d73fcaf196ffee61cd53da253932b0890d5288fcc92a",
    ("variable_hedge", 7): "59884c2e4cb0dc20a3b87735d1143c63b3c6f20f42800964c8316329680a3720",
    ("ftl", 64): "8b0dab89e917f87a9853ab492df7894ee46cd0e94b1f453fcab257336b1d22e8",
    ("fixed_hedge_eta0.3", 64): "173f7d904243cb93e8633cd230ca9742aba9a6a00d1628482499175ebfe4f0ae",
    ("fixed_hedge_eta40", 64): "d7a388d51ac2bb2dda5a7aa4ec7c688d2b08d85e86eb2ab656d389c027758897",
    ("doubling_hedge_phi1.5", 64): "71c74d600528c3e4964d8f29426a61bea2dbbcb6d82a7a6ea0038f93fb9cc5ea",
    ("adahedge_phi1.2", 64): "60d8f08f96afeda2004f4d0d420432cc19b0ad4aef2cf8ce982a29e96eb5457a",
    ("variable_hedge", 64): "70556b1d772f33fe47e2f728775ae521edb217981cbcb64d30dc974a17d05ac8",
}


def stepwise_stream(k):
    """200 rounds with exact -0.0 and 1 losses mixed into uniform ones,
    each odd round followed by its antithetic round, so that near ties
    keep the Hedge weights spread and the restarting kinds restart."""
    u = unit_uniforms(500 + k, 100 * k).reshape(100, k)
    u = np.stack([u, 1.0 - u], axis=1).reshape(200, k)
    return np.where(u < 0.2, -0.0, np.where(u >= 0.8, 1.0, u))


def stepwise_digest(kind, arr):
    """Hash of the public attributes read before and after each round's
    act() (which applies a pending restart), of the weights it gives, and
    of the final segment starts; also returns the segments started."""
    state = init(kind, arr.shape[1])
    h = hashlib.sha256()

    def floats(values):
        h.update(np.asarray(values, dtype=np.float64).tobytes())

    def attributes():
        floats([state.eta, state.delta_sum, *state.cum.totals])
        h.update(np.asarray([state.segment, state.cum.rounds], dtype=np.int64).tobytes())
        if not isinstance(kind, FollowTheLeader):
            floats([state.budget])

    for row in [*arr.tolist(), None]:
        attributes()
        floats(state.act().log_weights)
        floats(state.weights)
        attributes()
        if row is not None:
            state.observe(row)
    h.update(np.asarray(state.segment_starts, dtype=np.int64).tobytes())
    return h.hexdigest(), len(state.segment_starts)


class TestStepwisePinned:
    @pytest.mark.parametrize("k", [2, 3, 5, 7, 64])
    def test_state_bits_unchanged(self, k):
        arr = stepwise_stream(k)
        got = {}
        for kind in STEPWISE_KINDS:
            got[kind.slug, k], segments = stepwise_digest(kind, arr)
            if isinstance(kind, (AdaHedge, DoublingHedge)):
                assert segments >= 2, kind.slug
        assert got == {key: STEPWISE_DIGESTS.get(key) for key in got}
