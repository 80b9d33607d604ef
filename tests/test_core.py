"""Tests for the exponential-weights primitives.

Reference values were computed independently with mpmath at 40 significant
digits before being frozen here.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adahedge.core as core_mod
from adahedge.core import (
    ACCUMULATED_TOL,
    PER_OP_TOL,
    CumulativeLoss,
    RoundReport,
    WeightSnapshot,
    _action_sums,
    _exp,
    _map,
    block_hedge_and_mix_loss,
    hedge_and_mix_loss,
    hedge_weights,
    log_marginal_likelihood,
    mix_loss,
    mixability_gap,
    posterior_update,
)

E2 = math.e - 2.0

# frozen oracle values (mpmath, 40 digits)
MIX_UNIFORM_01 = 0.3798854930417225  # -ln(0.5*(1 + e^-1))
GAP_UNIFORM_01 = 0.1201145069582775  # 0.5 - mix
W_AFTER_01 = (0.7310585786300049, 0.2689414213699951)  # softmax of -(0, 1)
W1_AFTER_0101 = 0.8807970779778823  # 1 / (1 + e^-2)


class TestLossVector:
    """One round's losses, a plain float sequence as the typed operations
    take it."""

    def test_rejects_single_action(self):
        with pytest.raises(ValueError, match="at least 2"):
            mixability_gap([0.5, 0.5], [0.5], 1.0)

    @pytest.mark.parametrize("bad", [-0.001, 1.001, 2.0, math.nan])
    def test_rejects_out_of_range(self, bad):
        """Losses beyond [0, 1] by more than 1e-9 are rejected, not clamped."""
        with pytest.raises(ValueError, match="outside"):
            mixability_gap([0.5, 0.5], [0.5, bad], 1.0)

    def test_tolerates_rounding_jitter(self):
        """A loss 1e-12 above 1 is accepted as it is."""
        rep = mixability_gap([0.5, 0.5], [0.0, 1.0 + 1e-12], 1.0)
        assert rep.hedge_loss == 0.5 * (1.0 + 1e-12)


class TestCumulativeLoss:
    def test_totals_bounded_by_rounds(self):
        """A total outside [0, rounds] cannot come from [0, 1] losses."""
        with pytest.raises(ValueError, match="impossible"):
            CumulativeLoss((0.5, 1.5), rounds=1)
        with pytest.raises(ValueError):
            CumulativeLoss((-0.5, 0.5), rounds=1)


class TestWeightSnapshot:
    def test_from_weights_normalises(self):
        snap = WeightSnapshot.from_weights([2.0, 1.0, 1.0])
        np.testing.assert_allclose(snap.weights, (0.5, 0.25, 0.25), rtol=1e-15)

    def test_zero_weight_is_neg_inf_log(self):
        snap = WeightSnapshot.from_weights([1.0, 0.0])
        assert snap.log_weights == (0.0, -math.inf)
        assert snap.weights == (1.0, 0.0)

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError, match="sum"):
            WeightSnapshot((-1.0, -1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_log_weight(self, bad):
        with pytest.raises(ValueError):
            WeightSnapshot((bad, 0.0))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            WeightSnapshot.from_weights([1.5, -0.5])


class TestRoundReport:
    def test_enforces_delta_consistency(self):
        with pytest.raises(ValueError, match="delta"):
            RoundReport(hedge_loss=0.5, mix_loss=0.4, delta=0.2, eta=1.0)

    def test_enforces_gap_range(self):
        """delta must lie in [0, eta/8] up to the per-operation tolerance."""
        with pytest.raises(ValueError, match="gap"):
            RoundReport(hedge_loss=0.5, mix_loss=0.3, delta=0.2, eta=1.0)
        with pytest.raises(ValueError, match="gap"):
            RoundReport(hedge_loss=0.3, mix_loss=0.5, delta=-0.2, eta=1.0)
        # boundary value passes
        RoundReport(hedge_loss=0.5, mix_loss=0.375, delta=0.125, eta=1.0)


class TestHedgeWeights:
    def test_zero_totals_uniform(self):
        for eta in (0.01, 1.0, 50.0):
            snap = hedge_weights(CumulativeLoss((0.0,) * 4, 0), eta)
            np.testing.assert_allclose(snap.weights, (0.25,) * 4, rtol=1e-15)

    def test_two_action_softmax(self):
        snap = hedge_weights(CumulativeLoss((0.0, 1.0), 1), eta=1.0)
        np.testing.assert_allclose(snap.weights, W_AFTER_01, rtol=1e-14)

    def test_extreme_totals_stay_in_log_domain(self):
        """exp(-1000) underflows, but its log weight is representable."""
        snap = hedge_weights(CumulativeLoss((0.0, 1000.0), 1000), eta=1.0)
        assert snap.log_weights[0] == 0.0
        assert snap.log_weights[1] == -1000.0

    def test_argmax_weight_is_argmin_loss(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            totals = rng.uniform(0.0, 30.0, size=5)
            snap = hedge_weights(CumulativeLoss(totals, 30), eta=0.7)
            assert np.argmax(snap.weights) == np.argmin(totals)

    @pytest.mark.parametrize("eta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_eta(self, eta):
        with pytest.raises(ValueError, match="learning rate"):
            hedge_weights(CumulativeLoss((0.0,) * 2, 0), eta)


class TestMixLoss:
    def test_constant_losses_pass_through(self):
        w = WeightSnapshot((-math.log(3),) * 3)
        for c in (0.0, 0.25, 1.0):
            np.testing.assert_allclose(mix_loss(w, [c, c, c], 1.0), c, atol=1e-15)

    def test_uniform_two_action_value(self):
        got = mix_loss(WeightSnapshot((-math.log(2),) * 2), [0.0, 1.0], 1.0)
        np.testing.assert_allclose(got, MIX_UNIFORM_01, rtol=1e-14)

    def test_large_eta_approaches_min_loss(self):
        got = mix_loss(WeightSnapshot((-math.log(2),) * 2), [0.0, 1.0], 1e6)
        assert 0.0 <= got < 1e-4

    def test_between_min_and_expected_loss(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            w = rng.dirichlet(np.ones(4))
            l = rng.uniform(size=4)
            got = mix_loss(w, l, 0.8)
            assert l.min() - PER_OP_TOL <= got <= float(w @ l) + PER_OP_TOL


class TestMixabilityGap:
    def test_equal_losses_zero_gap(self):
        rep = mixability_gap(WeightSnapshot((-math.log(3),) * 3), [0.4, 0.4, 0.4], 1.0)
        np.testing.assert_allclose(rep.delta, 0.0, atol=1e-15)

    def test_uniform_two_action_value(self):
        rep = mixability_gap(WeightSnapshot((-math.log(2),) * 2), [0.0, 1.0], 1.0)
        np.testing.assert_allclose(rep.hedge_loss, 0.5, rtol=1e-15)
        np.testing.assert_allclose(rep.mix_loss, MIX_UNIFORM_01, rtol=1e-14)
        np.testing.assert_allclose(rep.delta, GAP_UNIFORM_01, rtol=1e-13)
        assert rep.delta <= 1.0 / 8.0
        assert rep.delta <= E2 * 1.0 * 0.5  # gap bound at w* = 1/2

    def test_concentrated_weights_small_gap(self):
        """With weight 0.99 on one action the gap is at most (e-2)*0.01."""
        rep = mixability_gap(WeightSnapshot.from_weights([0.99, 0.01]), [0.0, 1.0], 1.0)
        assert 0.0 <= rep.delta <= E2 * 0.01 + PER_OP_TOL


class TestPosteriorUpdate:
    def test_zero_loss_is_identity(self):
        snap = WeightSnapshot.from_weights([0.7, 0.3])
        after = posterior_update(snap, [0.0, 0.0], 1.0)
        np.testing.assert_allclose(after.log_weights, snap.log_weights, atol=1e-15)

    def test_two_updates_match_batch(self):
        snap = WeightSnapshot((-math.log(2),) * 2)
        for _ in range(2):
            snap = posterior_update(snap, [0.0, 1.0], 1.0)
        np.testing.assert_allclose(snap.weights[0], W1_AFTER_0101, rtol=1e-14)
        batch = hedge_weights(CumulativeLoss((0.0, 2.0), 2), 1.0)
        np.testing.assert_allclose(snap.log_weights, batch.log_weights, atol=1e-12)

    def test_sequential_equals_batch_over_random_stream(self):
        """Sequential multiplicative updates equal the batch softmax of the
        summed losses, within 1e-10 per log component after 100 rounds."""
        rng = np.random.default_rng(42)
        k, eta = 5, 0.3
        snap = WeightSnapshot((-math.log(k),) * k)
        totals = np.zeros(k)
        for _ in range(100):
            losses = rng.uniform(size=k).tolist()
            snap = posterior_update(snap, losses, eta)
            totals += losses
        batch = hedge_weights(CumulativeLoss(totals, 100), eta)
        np.testing.assert_allclose(snap.log_weights, batch.log_weights, atol=1e-10)

    def test_long_horizon_drift_stays_bounded(self):
        """After 10^4 rounds at K=16 the accumulated rounding stays below
        the package-wide accumulated tolerance."""
        rng = np.random.default_rng(7)
        k, eta = 16, 1.0
        snap = WeightSnapshot((-math.log(k),) * k)
        totals = np.zeros(k)
        for _ in range(10_000):
            losses = rng.uniform(size=k).tolist()
            snap = posterior_update(snap, losses, eta)
            totals += losses
        batch = hedge_weights(CumulativeLoss(totals, 10_000), eta)
        np.testing.assert_allclose(
            snap.log_weights, batch.log_weights, atol=ACCUMULATED_TOL
        )

    @pytest.mark.parametrize(
        "weights,message", [([2.0, 2.0], "not a probability"), ([0.25, 0.25], "sum to")]
    )
    def test_plain_weights_follow_mix_loss_rule(self, weights, message):
        """Plain weights that are not a probability vector are refused, as
        by mix_loss, not renormalised."""
        with pytest.raises(ValueError, match=message):
            mix_loss(weights, [0.0, 1.0], 1.0)
        with pytest.raises(ValueError, match=message):
            posterior_update(weights, [0.0, 1.0], 1.0)

    def test_checks_dimension(self):
        with pytest.raises(ValueError, match="expected 2"):
            posterior_update([0.5, 0.5], [0.1, 0.2, 0.3], 1.0)


class TestLogMarginalLikelihood:
    def test_no_rounds_is_zero(self):
        assert log_marginal_likelihood(CumulativeLoss((0.0,) * 5, 0), 1.0) == 0.0

    def test_two_action_value(self):
        got = log_marginal_likelihood(CumulativeLoss((0.0, 1.0), 1), 1.0)
        np.testing.assert_allclose(got, -MIX_UNIFORM_01, rtol=1e-14)

    def test_lower_bound_by_best_action(self):
        """ln B >= -eta*L* - ln K: the mixture cannot do worse than the
        best action's own likelihood divided by K."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            totals = rng.uniform(0.0, 20.0, size=4)
            for eta in (0.3, 1.0):
                got = log_marginal_likelihood(CumulativeLoss(totals, 20), eta)
                assert got >= -eta * totals.min() - math.log(4) - PER_OP_TOL

    def test_factorizes_over_rounds(self):
        """The direct evaluation equals the accumulated per-round log mix
        factors ln(w_t . exp(-eta*l_t)) within 1e-9."""
        rng = np.random.default_rng(42)
        k, eta = 5, 0.3
        snap = WeightSnapshot((-math.log(k),) * k)
        totals = np.zeros(k)
        acc = 0.0
        for _ in range(200):
            losses = rng.uniform(size=k).tolist()
            acc += -eta * mix_loss(snap, losses, eta)
            snap = posterior_update(snap, losses, eta)
            totals += losses
        np.testing.assert_allclose(
            log_marginal_likelihood(CumulativeLoss(totals, 200), eta),
            acc,
            atol=ACCUMULATED_TOL,
        )

    def test_scale_robust_at_large_eta_l(self):
        """Finite results with eta*L around 1e5 (log-domain requirement)."""
        cum = CumulativeLoss((0.0, 9e4, 1e5), 100_000)
        got = log_marginal_likelihood(cum, 1.0)
        assert math.isfinite(got)
        np.testing.assert_allclose(got, -math.log(3), rtol=1e-12)


class TestLargeEta:
    """All weight on an action that loses the round, the round's best action
    at log weight -1000 (weight 0 as a float): the expm1 sum cancels to -1."""

    @pytest.mark.parametrize("eta", [40.0, 1e2, 1e3, 1e300])
    def test_mix_loss_and_gap_from_log_weights(self, eta):
        snap = WeightSnapshot((0.0, -1000.0))
        want = -float(np.logaddexp(-eta, -1000.0)) / eta
        np.testing.assert_allclose(mix_loss(snap, [1.0, 0.0], eta), want, rtol=1e-12)
        rep = mixability_gap(snap, [1.0, 0.0], eta)
        assert rep.hedge_loss == 1.0
        np.testing.assert_allclose(rep.mix_loss, want, rtol=1e-12)

    @pytest.mark.parametrize("eta", [40.0, 1e2, 1e3, 1e300])
    def test_plain_weight_vector(self, eta):
        assert mix_loss([1.0, 0.0], [1.0, 0.0], eta) == 1.0
        assert mixability_gap([1.0, 0.0], [1.0, 0.0], eta).delta == 0.0


class TestFallbackBits:
    """Exact results on the max-shifted log-sum-exp path at eta = 40, as
    hex floats; in mix_loss the weight on the round's best action is below
    2**-10.  The last case of each test changes bits if the terms are
    summed in another order."""

    W = (1e-4, 0.6, 0.3999)
    L = (0.0, 1.0, 0.5)

    def test_mix_loss(self):
        assert mix_loss(WeightSnapshot.from_weights(self.W), self.L, 40.0).hex() == (
            "0x1.d791aa5043535p-3"
        )
        assert mix_loss(list(self.W), self.L, 40.0).hex() == "0x1.d791aa5043535p-3"
        snap = WeightSnapshot.from_weights((0.0001, 0.11, 0.25, 0.7, 0.46))
        assert mix_loss(snap, (0.0, 0.53, 0.56, 0.55, 0.53), 40.0).hex() == (
            "0x1.ed02ad77e2605p-3"
        )

    def test_posterior_update(self):
        snap = posterior_update(
            WeightSnapshot.from_weights((0.2, 0.3, 0.5)), (0.7, 0.1, 0.35), 40.0
        )
        assert [v.hex() for v in snap.log_weights] == [
            "-0x1.867d1852029bep+4",
            "-0x1.3d5b4ad760000p-14",
            "-0x1.2fa7efb324576p+3",
        ]
        snap = posterior_update((0.25, 0.25, 0.125, 0.375), (1.0, 0.3, 0.0, 0.9), 40.0)
        assert [v.hex() for v in snap.log_weights] == [
            "-0x1.3a7475b191e83p+5",
            "-0x1.69d1d6c647a0ep+3",
            "-0x1.9c541dacc0000p-17",
            "-0x1.17361133f9f53p+5",
        ]
        snap = posterior_update(
            WeightSnapshot.from_weights((0.36, 0.19, 0.67, 0.12, 0.56)),
            (0.04, 0.01, 0.05, 0.0, 0.04),
            40.0,
        )
        assert [v.hex() for v in snap.log_weights] == [
            "-0x1.f99783d66002ep+0",
            "-0x1.69ff0f27da6a6p+0",
            "-0x1.c0f8ad38061e4p+0",
            "-0x1.793c91e79699ep+0",
            "-0x1.887b905108ef4p+0",
        ]

    def test_log_marginal_likelihood(self):
        cum = CumulativeLoss((3.25, 1.5, 2.0, 7.0), 9)
        assert log_marginal_likelihood(cum, 40.0).hex() == "-0x1.eb17217f364adp+5"
        cum = CumulativeLoss((0.1, 0.2, 0.3), 1)
        assert log_marginal_likelihood(cum, 40.0).hex() == "-0x1.4520e61aa10b1p+2"
        cum = CumulativeLoss((2.057, 2.09, 2.048, 2.033, 2.026, 2.036), 3)
        assert log_marginal_likelihood(cum, 40.0).hex() == "-0x1.46aa3be24d39dp+6"


def bits_of(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def map_per_element(fn, x):
    """``_map``'s reference: ``fn`` called on every element in turn."""
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


class TestMap:
    """``_map`` calls ``fn`` once per distinct bit pattern; every result
    must be the bits of calling ``fn`` on each element."""

    # +-0.0, +-inf, two NaN payloads, the smallest normal, subnormals, +-5e-324
    SPECIAL = np.concatenate(
        [
            [0.0, -0.0, math.inf, -math.inf, 2.0**-1022, -3e-310, 1e-310, 5e-324, -5e-324],
            bits_of(0x7FF8000000000001, 0xFFF8000000000123),
        ]
    )

    def assert_same(self, fn, x):
        got = _map(fn, x)
        want = map_per_element(fn, x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fn", [math.exp, math.expm1])
    def test_special_values(self, fn):
        x = np.tile(self.SPECIAL, (3, 1))
        self.assert_same(fn, x)

    @pytest.mark.parametrize("fn", [math.log, math.log1p])
    def test_special_values_in_domain(self, fn):
        x = self.SPECIAL[~(self.SPECIAL <= 0.0)]  # NaNs stay
        if fn is math.log1p:
            x = np.concatenate([x, [0.0, -0.0, -0.5, -3e-310]])
        self.assert_same(fn, x)

    def test_expm1_keeps_the_sign_of_zero(self):
        out = _map(math.expm1, np.array([0.0, -0.0, 0.0, -0.0]))
        assert [math.copysign(1.0, v) for v in out] == [1.0, -1.0, 1.0, -1.0]

    @pytest.mark.parametrize("distinct", [1, 7, 300, None])
    def test_duplicates_and_distinct(self, distinct):
        rng = np.random.default_rng(5)
        if distinct is None:  # every element distinct
            x = rng.uniform(-30.0, 0.0, (64, 96))
        else:
            x = rng.choice(rng.uniform(-30.0, 0.0, distinct), (64, 96))
        for fn in (math.exp, math.expm1):
            self.assert_same(fn, x)

    def test_views_empty_and_zero_d(self):
        x = np.random.default_rng(6).choice([-1.5, -0.0, 0.25, 2.0], (5, 7))
        self.assert_same(math.exp, x.T)
        self.assert_same(math.exp, x[::2, 1::3])
        self.assert_same(math.exp, np.empty((4, 0)))
        self.assert_same(math.expm1, np.array(-0.0))

    def test_calls_once_per_distinct_bit_pattern(self):
        x = np.random.default_rng(7).choice(self.SPECIAL, (256, 33))
        calls = []

        def counting_exp(v):
            calls.append(v)
            return math.exp(v)

        assert _map(counting_exp, x).tobytes() == map_per_element(math.exp, x).tobytes()
        assert len(calls) == np.unique(x.view(np.int64)).size < x.size

    @given(
        st.lists(
            st.floats(max_value=700.0) | st.sampled_from(SPECIAL.tolist()),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_element_map(self, values):
        x = np.array(values, dtype=np.float64).reshape(-1, 1)
        for fn in (math.exp, math.expm1):
            self.assert_same(fn, x)


class TestExp:
    """``_exp`` gives the bits of ``math.exp`` on every element up to 709,
    the range the kernels' non-positive arguments lie in."""

    def assert_same(self, x):
        got = _exp(x)
        want = map_per_element(math.exp, x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.tobytes() == want.tobytes()

    def test_random_non_positive_bit_patterns(self):
        bits = np.random.default_rng(11).integers(0, 2**63, 10**6, dtype=np.uint64)
        x = (bits | np.uint64(1 << 63)).view(np.float64)
        self.assert_same(x[~np.isnan(x)])

    def test_special_values_and_edge_bands(self):
        special = TestMap.SPECIAL[~np.isnan(TestMap.SPECIAL)]
        subnormal_results = np.linspace(-745.2, -708.3, 20_001)  # and 0.0 below -745.13
        positives = np.append(np.linspace(0.0, 709.0, 20_001), np.nextafter(709.0, 0.0))
        self.assert_same(np.concatenate([special, subnormal_results, positives]))

    def test_views_empty_and_zero_d(self):
        x = np.random.default_rng(12).uniform(-40.0, 5.0, (5, 7))
        self.assert_same(x.T)
        self.assert_same(x[::2, 1::3])
        self.assert_same(np.empty((4, 0)))
        self.assert_same(np.array(-0.0))

    def test_kernel_arguments_raise_no_warning(self):
        x = np.array([-math.inf, -0.0, 0.0, -800.0, -1e308, -5e-324])
        with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
            warnings.simplefilter("error")
            out = _exp(x)
        assert out.tolist() == [0.0, 1.0, 1.0, 0.0, 0.0, 1.0]

    @given(st.lists(st.floats(allow_nan=False, max_value=709.0), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_math_exp(self, values):
        self.assert_same(np.array(values, dtype=np.float64))


class TestActionSums:
    """``_action_sums`` adds the rows one at a time from 0.0, whatever the
    memory layout.  ``np.add.reduce(x, axis=0, initial=0.0)`` sums pairwise
    along the contiguous axis, so it is a substitute only where that axis
    is not axis 0: on a C-contiguous block of two or more columns.  On
    ``(256, 1)`` blocks and on Fortran-order ones it differs."""

    @staticmethod
    def in_sequence(x):
        acc = [0.0] * x.shape[1]
        for row in x.tolist():
            acc = [a + v for a, v in zip(acc, row)]
        return np.array(acc)

    def assert_in_sequence(self, x):
        assert _action_sums(x).tobytes() == self.in_sequence(x).tobytes()

    @pytest.mark.parametrize(
        "shape, order",
        [((256, 1), "C"), ((256, 33), "F"), ((256, 2), "C"), ((256, 128), "C")],
    )
    def test_rows_added_in_sequence_from_zero(self, shape, order):
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-12, 13, shape)
            self.assert_in_sequence(np.asarray(x, order=order))

    def test_negative_zeros_sum_to_zero(self):
        assert _action_sums(np.full((3, 2), -0.0)).tobytes() == bytes(16)
        assert _action_sums(np.full((256, 128), -0.0)).tobytes() == bytes(8 * 128)

    def test_rows_that_start_with_negative_zero(self):
        x = np.random.default_rng(14).choice([-0.0, 0.0, 1e-300, -2.5], (256, 128))
        x[:3] = -0.0
        x[3:, :7] = -0.0  # columns that are -0.0 all the way down
        self.assert_in_sequence(x)
        assert not np.signbit(_action_sums(x)[:7]).any()

    @given(
        st.integers(1, 300),
        st.integers(1, 40),
        st.sampled_from(["C", "F", "strided"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_shape_and_layout(self, k, n, layout, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, (k, 2 * n)) * 10.0 ** rng.integers(-12, 13, (k, 2 * n))
        special = rng.random(x.shape) < 0.3
        x[special] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, -1e-310], special.sum())
        if layout == "strided":
            x = x[:, ::2]
        else:
            x = np.asarray(x[:, :n], order=layout)
        self.assert_in_sequence(x)


class TestBlockHedgeAndMixLoss:
    """``block_hedge_and_mix_loss`` gives ``hedge_and_mix_loss``'s bits in
    every column.  Gaps ``l - min l`` with at most two bit patterns (0/1
    losses) take expm1 of the two values per column; any other block maps
    every element."""

    @staticmethod
    def assert_matches(losses, eta, lw=None):
        """The kernel's (hedge, mix) on ``losses`` equal the scalar twin's,
        column by column, at log weights ``lw`` (random if None)."""
        if lw is None:
            lw = -np.random.default_rng(15).exponential(2.0, losses.shape)
        weights = _exp(lw)
        hedge, mix = block_hedge_and_mix_loss(weights, losses, eta, lw)
        etas = np.broadcast_to(eta, losses.shape[1:])
        want = np.array([
            hedge_and_mix_loss(w, l, e, a)
            for w, l, e, a in zip(weights.T.tolist(), losses.T.tolist(), etas.tolist(), lw.T.tolist())
        ])
        assert hedge.tobytes() == want[:, 0].copy().tobytes()
        assert mix.tobytes() == want[:, 1].copy().tobytes()

    @staticmethod
    def zero_one(k, n, seed=16):
        losses = (np.random.default_rng(seed).random((k, n)) < 0.5).astype(np.float64)
        losses[:, 0] = 0.0  # an all-equal column
        losses[:, 1] = 1.0  # an all-ones column
        return losses

    RATES = {
        "scalar": lambda n: 0.7,
        "per column": lambda n: np.random.default_rng(17).uniform(1e-3, 3.0, n),
    }

    @pytest.mark.parametrize("rate", sorted(RATES))
    @pytest.mark.parametrize("k, n", [(2, 2), (4, 60), (256, 128)])
    def test_zero_one_blocks(self, k, n, rate):
        self.assert_matches(self.zero_one(k, n), self.RATES[rate](n))

    @pytest.mark.parametrize("rate", sorted(RATES))
    @pytest.mark.parametrize("value", [0.0, 1.0, 0.375])
    def test_one_valued_block(self, value, rate):
        self.assert_matches(np.full((5, 9), value), self.RATES[rate](9))

    @pytest.mark.parametrize("rate", sorted(RATES))
    def test_gaps_with_negative_zero(self, rate):
        rng = np.random.default_rng(18)
        two = rng.choice([-0.0, 0.0], (6, 30))  # gaps 0.0 and -0.0
        three = rng.choice([-0.0, 0.0, 1.0], (6, 30))  # gaps 0.0, -0.0 and 1.0
        for losses in (two, three):
            # min() keeps the first of equal zeros and numpy's min the last;
            # a +0.0 at both ends makes both +0.0
            losses[[0, -1]] = 0.0
            self.assert_matches(losses, self.RATES[rate](30))

    @pytest.mark.parametrize("eta", [40.0, np.linspace(20.0, 60.0, 40)])
    def test_logsumexp_fallback_columns(self, eta):
        losses = self.zero_one(8, 40)
        # the zero-loss actions hold less than 2**-10 of the weight, except
        # in every third column
        lw = np.where(losses == 0.0, -12.0, 0.0)
        lw[:, ::3] = 0.0
        w = _exp(lw)
        ratio = (w * np.expm1(-eta * (losses - losses.min(axis=0)))).sum(axis=0) / w.sum(axis=0)
        falls_back = ratio < -1.0 + 2.0**-10
        assert falls_back.any() and not falls_back.all()
        self.assert_matches(losses, eta, lw)

    @pytest.mark.parametrize("rate", sorted(RATES))
    def test_block_of_no_rounds(self, rate):
        empty = np.empty((3, 0))
        hedge, mix = block_hedge_and_mix_loss(empty, empty, self.RATES[rate](0), empty)
        assert hedge.shape == mix.shape == (0,)

    @pytest.mark.parametrize("rate", sorted(RATES))
    def test_three_valued_block(self, rate):
        losses = self.zero_one(16, 20)
        losses[3, 5] = 0.5
        self.assert_matches(losses, self.RATES[rate](20))

    @pytest.mark.parametrize("rate", sorted(RATES))
    def test_zero_one_block_maps_no_full_block(self, rate, monkeypatch):
        sizes = []

        def recording_map(fn, x):
            sizes.append(x.size)
            return _map(fn, x)

        monkeypatch.setattr(core_mod, "_map", recording_map)
        k, n = 256, 128
        losses = self.zero_one(k, n)
        self.assert_matches(losses, self.RATES[rate](n))
        assert sizes and k * n not in sizes
        sizes.clear()
        losses[3, 5] = 0.5
        self.assert_matches(losses, self.RATES[rate](n))
        assert sizes.count(k * n) == 1


@st.composite
def sampled_round(draw, eta_max):
    """A random (weights, losses, eta) triple with 2..8 actions."""
    k = draw(st.integers(min_value=2, max_value=8))
    raw = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0), min_size=k, max_size=k
        )
    )
    losses = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=k, max_size=k
        )
    )
    eta = draw(st.floats(min_value=1e-6, max_value=eta_max))
    total = math.fsum(raw)
    return [v / total for v in raw], losses, eta


class TestGapInequalities:
    """Property checks over adversarially-searched random rounds."""

    @settings(max_examples=300, deadline=None)
    @given(sampled_round(eta_max=4.0))
    def test_gap_within_eighth_eta(self, sample):
        """0 <= delta <= eta/8 for every weight/loss/rate combination."""
        weights, losses, eta = sample
        rep = mixability_gap(WeightSnapshot.from_weights(weights), losses, eta)
        assert -PER_OP_TOL <= rep.delta <= eta / 8.0 + PER_OP_TOL

    @settings(max_examples=300, deadline=None)
    @given(sampled_round(eta_max=1.0))
    def test_gap_bounded_by_off_leader_mass(self, sample):
        """delta <= (e-2)*eta*(1 - max weight) whenever eta <= 1."""
        weights, losses, eta = sample
        snap = WeightSnapshot.from_weights(weights)
        rep = mixability_gap(snap, losses, eta)
        assert rep.delta <= E2 * eta * (1.0 - max(snap.weights)) + PER_OP_TOL
