"""Sequential decision strategies over K actions with [0, 1] losses.

Every strategy is a small state machine: ``act()`` returns the probability
vector to play in the coming round, ``observe(loss)`` feeds the realised
losses back.  ``run()`` drives one strategy down a whole loss stream and
records the per-round trace (losses, regret, learning rate, segment index)
that the simulation harness aggregates.

FollowTheLeader has its own state.  The Hedge kinds (fixed, doubling,
AdaHedge, variable; OracleHedge is fixed Hedge at a hindsight rate) share
one exponential-weights state and differ only in their schedule: the rate
for each round and when to restart.  A restart divides eta by phi and
empties the segment's totals and gap sum.  It is applied at the start of a
round, before weights are produced, so a depletion in the final observed
round never opens a segment that plays no rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import bounds
from .core import (
    LOSS_RANGE_TOL,
    CumulativeLoss,
    WeightSnapshot,
    _coerce_losses,
    hedge_and_mix_loss,
    log_weights_from_totals,
)

__all__ = [
    "FollowTheLeader",
    "FixedHedge",
    "OracleHedge",
    "DoublingHedge",
    "AdaHedge",
    "VariableHedge",
    "StrategyKind",
    "Strategy",
    "RegretTrace",
    "init",
    "run",
    "oracle_eta",
    "as_loss_array",
]

_NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# strategy kinds (frozen parameter records)


def _slug_number(x: float) -> str:
    """``x`` in ``:g`` form when that reads back as ``x``, else its repr,
    so that distinct parameters never share a slug."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


@dataclass(frozen=True)
class FollowTheLeader:
    """Uniform play over the actions with the smallest cumulative loss."""

    @property
    def slug(self) -> str:
        return "ftl"


@dataclass(frozen=True)
class FixedHedge:
    """Exponential weights at a constant learning rate ``eta``."""

    eta: float

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ValueError(f"eta must be positive and finite, got {self.eta!r}")

    @property
    def slug(self) -> str:
        return f"fixed_hedge_eta{_slug_number(self.eta)}"


@dataclass(frozen=True)
class OracleHedge:
    """Fixed-rate Hedge tuned on the stream's final best loss (hindsight)."""

    @property
    def slug(self) -> str:
        return "oracle_hedge"


@dataclass(frozen=True)
class DoublingHedge:
    """Restarts with eta divided by ``phi`` once the best action's loss
    inside the current segment exhausts the segment's loss budget."""

    phi: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.phi) and self.phi > 1.0):
            raise ValueError(f"phi must be finite and > 1, got {self.phi!r}")

    @property
    def slug(self) -> str:
        return f"doubling_hedge_phi{_slug_number(self.phi)}"


@dataclass(frozen=True)
class AdaHedge:
    """Restarts with eta divided by ``phi`` once the cumulative gap between
    expected and mix loss depletes the budget (1/eta + 1/(e-1)) * ln K."""

    phi: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.phi) and self.phi > 1.0):
            raise ValueError(f"phi must be finite and > 1, got {self.phi!r}")

    @property
    def slug(self) -> str:
        return f"adahedge_phi{_slug_number(self.phi)}"


@dataclass(frozen=True)
class VariableHedge:
    """Hedge at the decreasing rate min(1, sqrt(2 ln K / L*)) where L* is
    the best cumulative loss seen so far (1 while L* is zero)."""

    @property
    def slug(self) -> str:
        return "variable_hedge"


StrategyKind = Union[
    FollowTheLeader, FixedHedge, OracleHedge, DoublingHedge, AdaHedge, VariableHedge
]


def oracle_eta(lstar: float, k: int) -> float:
    """Hindsight tuning sqrt(2 ln K / L*); 1 when the best loss is zero."""
    lstar = float(lstar)
    if not (math.isfinite(lstar) and lstar >= 0.0):
        raise ValueError(f"lstar must be >= 0, got {lstar!r}")
    if k < 2:
        raise ValueError(f"need at least 2 actions, got {k}")
    if lstar == 0.0:
        return 1.0
    return math.sqrt(2.0 * math.log(k) / lstar)


# ---------------------------------------------------------------------------
# strategy state machines


class Strategy:
    """Common state: cumulative losses, round count, segment bookkeeping."""

    def __init__(self, kind: StrategyKind, k: int):
        if int(k) != k or k < 2:
            raise ValueError(f"need an integer number of actions >= 2, got {k!r}")
        self.kind = kind
        self.k = int(k)
        self._totals = [0.0] * self.k
        self._rounds = 0
        self.segment = 1
        self.segment_starts = [1]
        self.delta_sum = 0.0
        self.eta = math.inf

    # -- public API ---------------------------------------------------------

    def act(self) -> WeightSnapshot:
        """Weights for the coming round (applies any pending rollover)."""
        self._pre_act()
        return WeightSnapshot(tuple(self._log_weights_list()))

    def observe(self, loss) -> "Strategy":
        """Consume one round of losses; mutates and returns this state."""
        row = _coerce_losses(loss, self.k)
        self._pre_act()
        self._observe(row)
        return self

    @property
    def cum(self) -> CumulativeLoss:
        return CumulativeLoss(tuple(self._totals), self._rounds)

    @property
    def rounds(self) -> int:
        return self._rounds

    @property
    def log_weights(self) -> tuple[float, ...]:
        self._pre_act()
        return tuple(self._log_weights_list())

    @property
    def weights(self) -> tuple[float, ...]:
        self._pre_act()
        return tuple(self._w)

    @property
    def segments_started(self) -> int:
        return len(self.segment_starts)

    # -- internal fast path (plain float lists, no validation) --------------

    def _pre_act(self):
        pass

    def _log_weights_list(self) -> list[float]:
        raise NotImplementedError

    def _observe(self, row: list[float]) -> float:
        """Consume one round; return the expected loss of the weights played."""
        raise NotImplementedError


class _FtlState(Strategy):
    def __init__(self, kind, k):
        super().__init__(kind, k)
        self._w = [1.0 / k] * k
        self._fresh = 0

    def _pre_act(self):
        if self._fresh != self._rounds:
            tot = self._totals
            m = min(tot)
            n = 0
            for v in tot:
                if v == m:
                    n += 1
            inv = 1.0 / n
            self._w = [inv if v == m else 0.0 for v in tot]
            self._fresh = self._rounds

    def _log_weights_list(self):
        return [math.log(v) if v > 0.0 else _NEG_INF for v in self._w]

    def _observe(self, row):
        w = self._w
        hedge = 0.0
        for a, b in zip(w, row):
            hedge += a * b
        tot = self._totals
        for i, v in enumerate(row):
            tot[i] += v
        self._rounds += 1
        return hedge


class _HedgeState(Strategy):
    """Exponential weights over the current segment's per-action totals.

    Every Hedge kind runs this one update; a kind supplies only its
    schedule.  FixedHedge plays its own eta and VariableHedge derives the
    rate from the best total; neither has a restart budget.  AdaHedge and
    DoublingHedge start at eta = 1 and restart with eta divided by phi once
    the gap sum (AdaHedge) or the segment's best loss (DoublingHedge)
    reaches ``budget``.  Weights come from ``log_weights_from_totals``, the
    kernel ``hedge_weights`` uses, so the two agree bitwise; they are
    refreshed lazily, at the first act of a round, when its rate is known.
    """

    def __init__(self, kind, k):
        super().__init__(kind, k)
        self.eta = kind.eta if isinstance(kind, FixedHedge) else 1.0
        self._two_lnk = 2.0 * math.log(k)
        self.budget = self._budget_at(self.eta)
        self._budget_on_lstar = isinstance(kind, DoublingHedge)
        self._rate_from_lstar = isinstance(kind, VariableHedge)
        # without a budget the one segment is the whole stream
        self._seg_totals = self._totals if self.budget == math.inf else [0.0] * k
        self._lw = [-math.log(k)] * k
        self._w = [1.0 / k] * k
        # round whose weights _w holds; VariableHedge computes even its
        # first-round weights through its rate rule, as exp(-ln K)
        self._fresh = -1 if self._rate_from_lstar else 0

    def _budget_at(self, eta):
        if isinstance(self.kind, AdaHedge):
            return bounds.budget(eta, self.k)
        if isinstance(self.kind, DoublingHedge):
            # once eta * eta underflows the budget is out of reach
            return self._two_lnk / (eta * eta) if eta * eta > 0.0 else math.inf
        return math.inf

    def _pre_act(self):
        if self._fresh == self._rounds:
            return
        self._fresh = self._rounds
        seg = self._seg_totals
        if (min(seg) if self._budget_on_lstar else self.delta_sum) >= self.budget:
            self.segment += 1
            self.eta = self.kind.phi ** (1 - self.segment)
            self.budget = self._budget_at(self.eta)
            self.delta_sum = 0.0
            self._seg_totals = seg = [0.0] * self.k
            self.segment_starts.append(self._rounds + 1)
        elif self._rate_from_lstar:
            lstar = min(self._totals)
            self.eta = 1.0 if lstar <= 0.0 else min(1.0, math.sqrt(self._two_lnk / lstar))
        lw = log_weights_from_totals(seg, self.eta)
        self._lw = lw
        self._w = [math.exp(v) for v in lw]

    def _log_weights_list(self):
        return self._lw

    def _observe(self, row):
        hedge, mix = hedge_and_mix_loss(self._w, row, self.eta, self._lw)
        self.delta_sum += hedge - mix
        tot = self._totals
        seg = self._seg_totals
        if seg is tot:
            for i, v in enumerate(row):
                tot[i] += v
        else:
            for i, v in enumerate(row):
                tot[i] += v
                seg[i] += v
        self._rounds += 1
        return hedge


def init(kind: StrategyKind, k: int) -> Strategy:
    """Fresh state for ``kind`` over ``k`` actions, uniform first-round play."""
    if isinstance(kind, FollowTheLeader):
        return _FtlState(kind, k)
    if isinstance(kind, OracleHedge):
        raise ValueError(
            "OracleHedge needs the stream's final best loss; use run(), or "
            "FixedHedge(oracle_eta(lstar, k)) once lstar is known"
        )
    if isinstance(kind, (FixedHedge, DoublingHedge, AdaHedge, VariableHedge)):
        return _HedgeState(kind, k)
    raise TypeError(f"unknown strategy kind {kind!r}")


# ---------------------------------------------------------------------------
# whole-stream driver


def as_loss_array(losses) -> np.ndarray:
    """Coerce a loss stream to a (T, K) float array and validate it."""
    if isinstance(losses, np.ndarray):
        arr = np.asarray(losses, dtype=np.float64)
    else:
        rows = [
            list(row.losses) if hasattr(row, "losses") else row for row in losses
        ]
        arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"loss stream must be 2-d (rounds x actions), got shape {arr.shape}")
    t_total, k = arr.shape
    if t_total < 1:
        raise ValueError("loss stream is empty")
    if k < 2:
        raise ValueError(f"need at least 2 actions, got {k}")
    if not np.isfinite(arr).all():
        raise ValueError("loss stream contains non-finite values")
    if (arr < -LOSS_RANGE_TOL).any() or (arr > 1.0 + LOSS_RANGE_TOL).any():
        bad = arr[(arr < -LOSS_RANGE_TOL) | (arr > 1.0 + LOSS_RANGE_TOL)][0]
        raise ValueError(f"loss {bad!r} outside [0, 1] by more than {LOSS_RANGE_TOL}")
    return arr


@dataclass
class RegretTrace:
    """Per-round record of one strategy on one loss stream.

    ``cum_gap`` is the strategy's own cumulative expected-vs-mix-loss gap;
    for restart strategies it resets with each segment, and for
    FollowTheLeader it is identically zero (``eta`` is recorded as inf
    there: leader play is the infinite-rate limit).
    """

    kind: StrategyKind
    k: int
    agent_loss: np.ndarray
    cum_agent_loss: np.ndarray
    best_cum_loss: np.ndarray
    regret: np.ndarray
    segment: np.ndarray
    eta: np.ndarray
    cum_gap: np.ndarray
    segment_starts: list[int]

    @property
    def horizon(self) -> int:
        return len(self.agent_loss)

    @property
    def final_regret(self) -> float:
        return float(self.regret[-1])

    @property
    def segments_started(self) -> int:
        return len(self.segment_starts)


def run(kind: StrategyKind, losses) -> RegretTrace:
    """Play ``kind`` against a whole loss stream and trace every round.

    A pure function of its arguments: identical inputs produce bitwise
    identical traces.  For OracleHedge the stream's final best cumulative
    loss is computed first and a fixed-rate Hedge at oracle_eta is run.
    """
    arr = as_loss_array(losses)
    k = arr.shape[1]
    if isinstance(kind, OracleHedge):
        lstar = float(arr.sum(axis=0).min())
        strat = init(FixedHedge(oracle_eta(lstar, k)), k)
    else:
        strat = init(kind, k)

    segment: list[int] = []
    eta: list[float] = []
    agent: list[float] = []
    gap: list[float] = []
    for row in arr.tolist():
        strat._pre_act()
        segment.append(strat.segment)
        eta.append(strat.eta)
        agent.append(strat._observe(row))
        gap.append(strat.delta_sum)

    # cumsum adds in sequence, as the states' running totals do; + 0.0 maps
    # the -0.0 a column of -0.0 losses sums to onto the totals' 0.0
    agent_loss = np.asarray(agent)
    cum_agent_loss = np.cumsum(agent_loss)
    best_cum_loss = np.cumsum(arr, axis=0).min(axis=1) + 0.0
    return RegretTrace(
        kind=kind,
        k=k,
        agent_loss=agent_loss,
        cum_agent_loss=cum_agent_loss,
        best_cum_loss=best_cum_loss,
        regret=cum_agent_loss - best_cum_loss,
        segment=np.asarray(segment, dtype=np.int64),
        eta=np.asarray(eta),
        cum_gap=np.asarray(gap),
        segment_starts=list(strat.segment_starts),
    )
