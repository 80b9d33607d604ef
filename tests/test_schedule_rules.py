"""The schedule rules of the rate-tuning kinds, read off ``run()`` traces,
and the planted faults each rule catches.

VariableHedge plays round t at min(1, sqrt(2 ln K / L*)) of the previous
round's best total, and at 1 while that total is 0.  AdaHedge and
DoublingHedge play segment j at phi**(1 - j) and restart after the first
round whose restart quantity reaches the segment's budget: the gap sum
against (1/eta + 1/(e-1)) ln K, or the segment's best total against
2 ln K / eta**2.  Each rule is written out here as the state evaluates it,
so every comparison is exact.
"""

import math

import numpy as np
import pytest

from adahedge import bounds
from adahedge.simulation import unit_uniforms
from adahedge.strategies import AdaHedge, DoublingHedge, Strategy, VariableHedge, run

KS = (2, 3, 5, 16)
FAMILIES = ("uniform", "antithetic")
RESTARTING = (AdaHedge(2.0), DoublingHedge(2.0), AdaHedge(1.3), DoublingHedge(1.3))


def stream(family, k, t_total=1500):
    u = unit_uniforms(7000 + k, t_total * k).reshape(t_total, k)
    if family == "uniform":
        return u
    # rounds in pairs, l then 1 - l: the totals tie every other round
    half = u[: t_total // 2]
    return np.stack([half, 1.0 - half], axis=1).reshape(t_total, k)


def exact_stream():
    """Two tied actions whose segment best reaches DoublingHedge's first
    budget, 2 ln 2, exactly in round 2 (1.0 + (b - 1.0) is b in floats)."""
    b = 2.0 * math.log(2)
    return np.concatenate([[[1.0, 1.0], [b - 1.0, b - 1.0]], stream("uniform", 2)])


def variable_rate_misses(trace):
    """Rounds whose rate is not the rule's rate of the previous best total."""
    two_lnk = 2.0 * math.log(trace.k)
    lstar = [0.0] + trace.best_cum_loss[:-1].tolist()
    want = [1.0 if x == 0.0 else min(1.0, math.sqrt(two_lnk / x)) for x in lstar]
    return np.flatnonzero(trace.eta != np.array(want)).tolist()


def restart_misses(kind, trace, arr):
    """Each way the trace breaks the segment rules, as (segment, rule)."""
    k = trace.k
    ends = trace.segment_starts[1:] + [trace.horizon + 1]
    misses = []
    for j, (lo, hi) in enumerate(zip(trace.segment_starts, ends), start=1):
        rounds = slice(lo - 1, hi - 1)
        eta = kind.phi ** (1 - j)
        if (trace.eta[rounds] != eta).any():
            misses.append((j, "rate"))
        if isinstance(kind, AdaHedge):
            amount = trace.cum_gap[rounds]
            budget = (1.0 / eta + 1.0 / (math.e - 1.0)) * math.log(k)
        else:  # the segment's per-action totals, added in sequence from round lo
            amount = np.cumsum(arr[rounds], axis=0).min(axis=1)
            budget = 2.0 * math.log(k) / (eta * eta)
        if (amount[:-1] >= budget).any():
            misses.append((j, "reached the budget before its last round"))
        if hi <= trace.horizon and not amount[-1] >= budget:
            misses.append((j, "restarted below the budget"))
    return misses


def broken_rules():
    """The rules some trace breaks, over every case below."""
    broken = set()
    for k in KS:
        for family in FAMILIES:
            arr = stream(family, k)
            if variable_rate_misses(run(VariableHedge(), arr)):
                broken.add("variable rate")
            for kind in RESTARTING:
                broken |= {rule for _, rule in restart_misses(kind, run(kind, arr), arr)}
    for kind in (DoublingHedge(2.0), AdaHedge(2.0)):
        arr = exact_stream()
        broken |= {rule for _, rule in restart_misses(kind, run(kind, arr), arr)}
    return broken


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", KS)
def test_variable_hedge_rate_is_the_rule_of_the_previous_best_total(k, family):
    trace = run(VariableHedge(), stream(family, k))
    assert trace.eta[0] == 1.0
    assert variable_rate_misses(trace) == []


@pytest.mark.parametrize("kind", RESTARTING, ids=lambda kind: kind.slug)
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", KS)
def test_restart_follows_the_first_round_at_the_budget(k, family, kind):
    arr = stream(family, k)
    trace = run(kind, arr)
    assert trace.segments_started >= 2
    assert restart_misses(kind, trace, arr) == []


def test_budget_reached_exactly_restarts():
    """The restart test is ``>=``: a segment best equal to the budget
    restarts in the round after it, here round 3."""
    arr = exact_stream()
    trace = run(DoublingHedge(2.0), arr)
    assert trace.segment_starts[:2] == [1, 3]
    assert restart_misses(DoublingHedge(2.0), trace, arr) == []


def strict_depletion(monkeypatch):
    def depleted(self, seg_best, gap_sum):
        return (seg_best if isinstance(self.kind, DoublingHedge) else gap_sum) > self.budget

    monkeypatch.setattr(Strategy, "_depleted", depleted)


def rate_exponent_off_by_one(monkeypatch):
    restart = Strategy._restart

    def restart_at_phi_to_minus_segment(self, start):
        restart(self, start)
        self.eta = self.kind.phi ** -self.segment
        self.budget = self._budget_at(self.eta)

    monkeypatch.setattr(Strategy, "_restart", restart_at_phi_to_minus_segment)


def variable_rate_with_ln_k(monkeypatch):
    rate = Strategy._variable_rate

    def half_rate(self, lstar):
        self._two_lnk /= 2.0
        try:
            return rate(self, lstar)
        finally:
            self._two_lnk *= 2.0

    monkeypatch.setattr(Strategy, "_variable_rate", half_rate)


def budget_with_e_minus_2(monkeypatch):
    monkeypatch.setattr(bounds, "_E1", math.e - 2.0)


def block_kept_one_round_late(monkeypatch):
    """``run()`` cuts a block one round after its first depleted round:
    the block's restart mask is shifted one round later; the stepwise
    state's scalar test is unchanged."""
    depleted = Strategy._depleted

    def late(self, seg_best, gap_sum):
        hit = depleted(self, seg_best, gap_sum)
        return hit if np.ndim(hit) == 0 else np.concatenate(([False], hit[:-1]))

    monkeypatch.setattr(Strategy, "_depleted", late)


def test_unplanted_tree_breaks_no_rule():
    assert broken_rules() == set()


# each planted fault, and the rule that catches it
PLANTED = {
    strict_depletion: "reached the budget before its last round",
    rate_exponent_off_by_one: "rate",
    variable_rate_with_ln_k: "variable rate",
    budget_with_e_minus_2: "reached the budget before its last round",
    block_kept_one_round_late: "reached the budget before its last round",
}


@pytest.mark.parametrize("plant", PLANTED, ids=lambda plant: plant.__name__)
def test_planted_fault_is_caught(plant, monkeypatch):
    plant(monkeypatch)
    assert PLANTED[plant] in broken_rules()
