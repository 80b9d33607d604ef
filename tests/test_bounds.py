"""Tests for the closed-form guarantee calculators.

Reference values were computed independently with mpmath at 40 significant
digits before being frozen here.
"""

import math

import numpy as np
import pytest

from adahedge import bounds
from adahedge.core import WeightSnapshot, posterior_update
from adahedge.bounds import (
    GOLDEN_RATIO,
    budget,
    eta_floor,
    intro_mstar,
    lemma2_bound,
    lemma3_bound,
    lemma4_bound,
    lemma5_bound,
    lemma5_ck,
    lemma6_tau,
    theorem1_bound,
    theorem2_leading_factor,
    theorem3_mstar,
)

E1 = math.e - 1.0


class TestBudget:
    def test_frozen_values(self):
        np.testing.assert_allclose(budget(1.0, 4), 2.1930853881559615, rtol=1e-13)
        np.testing.assert_allclose(budget(0.5, 2), 1.789689874637926, rtol=1e-13)

    def test_large_eta_limit(self):
        """As eta grows the 1/eta term vanishes, leaving ln(K)/(e-1)."""
        np.testing.assert_allclose(budget(1e9, 4), math.log(4) / E1, atol=1e-6)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError, match="eta"):
            budget(0.0, 4)
        with pytest.raises(ValueError, match="eta"):
            budget(-1.0, 4)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k"):
            budget(1.0, 1)
        for k in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="k must be an integer"):
                budget(1.0, k)

    def test_integer_k_is_exact(self):
        """An int past 2**53 is an integer even though no float equals it;
        a float that holds an integer is still accepted."""
        k = 2**53 + 1
        assert budget(1.0, k) == (1.0 + 1.0 / E1) * math.log(k)
        assert budget(1.0, 4.0) == budget(1.0, 4)


class TestLemma2Bound:
    def test_frozen_values(self):
        np.testing.assert_allclose(
            lemma2_bound(1.0, 0.0, 2), 0.4033955135180354, rtol=1e-13
        )
        np.testing.assert_allclose(
            lemma2_bound(1.0, 100.0, 4), 59.004461713968716, rtol=1e-13
        )

    def test_monotone_in_lstar(self):
        values = [lemma2_bound(0.7, lstar, 3) for lstar in np.linspace(0, 50, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_eta_above_one(self):
        """The bound only holds for eta <= 1; larger rates are refused."""
        with pytest.raises(ValueError, match="eta"):
            lemma2_bound(1.0001, 10.0, 2)

    def test_rejects_negative_lstar(self):
        with pytest.raises(ValueError, match="lstar"):
            lemma2_bound(0.5, -1.0, 2)


class TestEtaFloor:
    def test_frozen_values(self):
        np.testing.assert_allclose(
            eta_floor(100.0, 4), 0.15433873167832984, rtol=1e-13
        )
        np.testing.assert_allclose(
            eta_floor(1000.0, 2), 0.034511189559384574, rtol=1e-13
        )

    def test_exact_one_at_cancellation_point(self):
        """lstar = (e-1)*ln(K) makes the square root exactly 1."""
        for k in (2, 4, 7):
            np.testing.assert_allclose(eta_floor(E1 * math.log(k), k), 1.0, rtol=1e-15)

    def test_rejects_zero_lstar(self):
        with pytest.raises(ValueError, match="lstar"):
            eta_floor(0.0, 4)


class TestTheorem1Bound:
    def test_frozen_values(self):
        np.testing.assert_allclose(
            theorem1_bound(0.0, 2), 0.5283955135180354, rtol=1e-13
        )
        np.testing.assert_allclose(
            theorem1_bound(100.0, 4), 18.89610038794467, rtol=1e-13
        )

    def test_square_root_scaling(self):
        """Quadrupling lstar doubles the square-root part exactly."""
        additive = theorem1_bound(0.0, 4)
        for lstar in (1.0, 25.0, 400.0):
            grown = theorem1_bound(4.0 * lstar, 4) - additive
            np.testing.assert_allclose(
                grown, 2.0 * (theorem1_bound(lstar, 4) - additive), rtol=1e-12
            )

    def test_accepts_zero_lstar(self):
        assert theorem1_bound(0.0, 2) > 0.0


class TestLemma3Bound:
    def test_frozen_values(self):
        np.testing.assert_allclose(
            lemma3_bound(1, 2, 2.0), 1.914689874637926, rtol=1e-13
        )
        np.testing.assert_allclose(
            lemma3_bound(2, 2, 2.0), 5.215674110395742, rtol=1e-13
        )

    def test_strictly_increasing_in_m(self):
        values = [lemma3_bound(m, 3, 2.0) for m in range(1, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError, match="m"):
            lemma3_bound(0, 2, 2.0)

    def test_rejects_non_integral_m(self):
        with pytest.raises(ValueError, match="m must be an integer"):
            lemma3_bound(1.5, 2, 2.0)

    def test_rejects_phi_at_one(self):
        with pytest.raises(ValueError, match="phi"):
            lemma3_bound(1, 2, 1.0)


class TestLeadingFactor:
    def test_printed_approximations(self):
        assert 3.32 <= theorem2_leading_factor(GOLDEN_RATIO) <= 3.34
        assert 3.45 <= theorem2_leading_factor(2.0) <= 3.47
        np.testing.assert_allclose(
            theorem2_leading_factor(2.0), 2.0 * math.sqrt(3.0), rtol=1e-15
        )

    def test_grid_minimum_at_golden_ratio(self):
        """Across phi = 1.1, 1.2, ..., 3.0 no grid point beats the golden
        ratio's factor."""
        best = theorem2_leading_factor(GOLDEN_RATIO)
        grid = [round(1.1 + 0.1 * i, 1) for i in range(20)]
        assert all(theorem2_leading_factor(phi) >= best for phi in grid)


class TestLemma4Bound:
    def test_converged_posterior_is_zero(self):
        assert lemma4_bound(0.7, 1.0) == 0.0

    def test_frozen_values(self):
        np.testing.assert_allclose(
            lemma4_bound(1.0, 0.5), 0.3591409142295226, rtol=1e-13
        )
        np.testing.assert_allclose(
            lemma4_bound(0.25, 0.9), 0.017957045711476131, rtol=1e-13
        )

    def test_rejects_eta_above_one(self):
        with pytest.raises(ValueError, match="eta"):
            lemma4_bound(1.5, 0.5)

    def test_rejects_wstar_outside_unit_interval(self):
        with pytest.raises(ValueError, match="wstar"):
            lemma4_bound(0.5, 1.2)


class TestLemma5:
    def test_frozen_ck_values(self):
        np.testing.assert_allclose(lemma5_ck(2, 0.2, 1.0), 5.0, rtol=1e-10)
        np.testing.assert_allclose(lemma5_ck(4, 1.0, 1.0), 3.0, rtol=1e-10)
        np.testing.assert_allclose(lemma5_ck(2, 1.0, 0.5), 2.0, rtol=1e-10)

    def test_bound_scales_with_eta(self):
        np.testing.assert_allclose(
            lemma5_bound(2, 0.2, 1.0, 0.5), 10.0, rtol=1e-10
        )
        np.testing.assert_allclose(
            lemma5_bound(2, 1.0, 0.5, 0.25), 2.0 * 0.25**-2, rtol=1e-10
        )

    def test_rejects_tiny_beta(self):
        """Gamma(1 + 1/beta) is only evaluated for beta >= 1/10."""
        with pytest.raises(ValueError, match="beta"):
            lemma5_ck(2, 0.5, 0.05)

    def test_dominates_measured_posterior_tail(self):
        """On a stream whose loss gap is exactly alpha*t, the summed
        off-leader mass sum_t (1 - w*_{t+1}) stays below C * eta^(-1/beta)
        for eta in {1, 1/2, 1/4}."""
        k, alpha, t_end = 3, 0.5, 4000
        loss = [0.0] + [alpha] * (k - 1)
        for eta in (1.0, 0.5, 0.25):
            snap = WeightSnapshot((-math.log(k),) * k)
            tail = 0.0
            for _ in range(t_end):
                snap = posterior_update(snap, loss, eta)
                tail += 1.0 - max(snap.weights)
            assert tail <= lemma5_bound(k, alpha, 1.0, eta)


class TestSegmentCaps:
    def test_intro_mstar_frozen_values(self):
        assert intro_mstar(0.2, 2.0) == 4
        assert intro_mstar(0.05, 2.0) == 6

    def test_intro_mstar_monotone_in_alpha(self):
        values = [intro_mstar(a, 2.0) for a in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_theorem3_mstar_frozen_value(self):
        assert theorem3_mstar(0.025, 0.05, 4, 2.0) == 13

    def test_theorem3_mstar_monotone_in_delta(self):
        caps = [theorem3_mstar(0.1, d, 4, 2.0) for d in (1.0, 0.1, 1e-3, 1e-6)]
        assert all(b >= a for a, b in zip(caps, caps[1:]))

    def test_theorem3_mstar_edge_of_domain(self):
        assert theorem3_mstar(0.5, 1.0, 2, 2.0) >= 1

    def test_theorem3_mstar_rejects_alpha_above_half(self):
        """The cap formula is only derived for alpha <= 1/2."""
        with pytest.raises(ValueError, match="alpha"):
            theorem3_mstar(0.6, 0.05, 4, 2.0)


class TestLemma6Tau:
    def test_frozen_value(self):
        assert lemma6_tau(4, 2, 0.2, 1.0, 2.0) == 16

    def test_rejects_non_integral_mstar(self):
        with pytest.raises(ValueError, match="mstar must be an integer"):
            lemma6_tau(2.5, 2, 0.2, 1.0, 2.0)

    def test_monotone_in_mstar(self):
        """Round 1 while the formula is below it, then strictly rising."""
        taus = [lemma6_tau(m, 2, 0.2, 1.0, 2.0) for m in range(1, 8)]
        assert taus[:3] == [1, 1, 1]
        assert all(b > a for a, b in zip(taus[2:], taus[3:]))

    def test_exponent_limit_at_large_beta(self):
        """As beta grows, the exponent (mstar-1)*(2 - 1/beta) approaches
        2*(mstar-1); at beta = 1000 the two differ by under 0.5%."""
        near = lemma6_tau(4, 2, 0.2, 1000.0, 2.0)
        limit = 8.0 * math.log(2) * 2.0 ** (2 * 3) - 8.0 * (math.e - 2.0) * lemma5_ck(
            2, 0.2, 1000.0
        ) + 1.0
        assert abs(near - limit) <= 0.005 * limit + 1.0

    def test_rejects_beta_at_half(self):
        """beta must exceed 1/2 for the horizon exponent to be positive."""
        with pytest.raises(ValueError, match="beta"):
            lemma6_tau(4, 2, 0.2, 0.5, 2.0)


class TestDomainSanity:
    def test_all_real_bounds_finite_nonnegative(self):
        """Spot grid over each calculator's domain."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(2, 17))
            eta = float(rng.uniform(0.01, 4.0))
            lstar = float(rng.uniform(0.0, 1e4))
            phi = float(rng.uniform(1.01, 3.0))
            m = int(rng.integers(1, 12))
            vals = [
                budget(eta, k),
                lemma2_bound(min(eta, 1.0), lstar, k),
                theorem1_bound(lstar, k),
                lemma3_bound(m, k, phi),
                theorem2_leading_factor(phi),
                lemma4_bound(min(eta, 1.0), float(rng.uniform(0.0, 1.0))),
            ]
            assert all(math.isfinite(v) and v >= 0.0 for v in vals)
