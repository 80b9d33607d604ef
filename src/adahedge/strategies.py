"""Sequential decision strategies over K actions with [0, 1] losses.

Every strategy is a small state machine: ``act()`` returns the probability
vector to play in the coming round, ``observe(loss)`` feeds the realised
losses back.  That stepwise API is the reference; ``run()`` plays a whole
loss stream and records the per-round trace (losses, regret, learning
rate, segment index) that the simulation harness aggregates.

Every kind runs one state, ``Strategy``.  The Hedge kinds (fixed,
doubling, AdaHedge, variable; OracleHedge is fixed Hedge at a hindsight
rate) differ only in their schedule: the rate for each round and when to
restart.  FollowTheLeader is Hedge at an infinite rate, playing uniformly
over the actions with the smallest totals.  A restart divides eta by phi and
empties the segment's totals and gap sum.  It is applied at the start of a
round, before weights are produced, so a depletion in the final observed
round never opens a segment that plays no rounds.

Between restarts every state is a function of the loss prefix alone, so
``run()`` computes whole blocks of rounds at once with the block kernels
of ``core``, bit for bit equal to stepping the state: per-action totals
continue across blocks as ``np.cumsum`` over ``[carry; block]``, a block
of a restarting kind is cut at the first round whose restart test holds,
and the restart itself is the state's own schedule step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import bounds
from .core import (
    LOSS_RANGE_TOL,
    CumulativeLoss,
    WeightSnapshot,
    _action_sums,
    _check_eta,
    _check_int,
    _check_real,
    _coerce_losses,
    _exp,
    _in_order,
    block_hedge_and_mix_loss,
    block_log_weights,
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
    "KINDS",
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


class _Kind:
    """A kind's slug: its ``KINDS`` name, then ``_<field><value>`` per field."""

    @property
    def slug(self) -> str:
        name = next(n for n, cls in KINDS.items() if isinstance(self, cls))
        return name + "".join(
            f"_{f.name}{_slug_number(getattr(self, f.name))}" for f in fields(self)
        )


@dataclass(frozen=True)
class FollowTheLeader(_Kind):
    """Uniform play over the actions with the smallest cumulative loss."""


@dataclass(frozen=True)
class FixedHedge(_Kind):
    """Exponential weights at a constant learning rate ``eta``."""

    eta: float

    def __post_init__(self):
        object.__setattr__(self, "eta", _check_eta(self.eta))


@dataclass(frozen=True)
class OracleHedge(_Kind):
    """Fixed-rate Hedge tuned on the stream's final best loss (hindsight)."""


@dataclass(frozen=True)
class _Restarting(_Kind):
    """Starts at eta = 1 and divides eta by ``phi`` at each restart."""

    phi: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "phi", bounds._check_phi(self.phi))


@dataclass(frozen=True)
class DoublingHedge(_Restarting):
    """Restarts with eta divided by ``phi`` once the best action's loss
    inside the current segment exhausts the segment's loss budget."""


@dataclass(frozen=True)
class AdaHedge(_Restarting):
    """Restarts with eta divided by ``phi`` once the cumulative gap between
    expected and mix loss depletes the budget (1/eta + 1/(e-1)) * ln K."""


@dataclass(frozen=True)
class VariableHedge(_Kind):
    """Hedge at the decreasing rate min(1, sqrt(2 ln K / L*)) where L* is
    the best cumulative loss seen so far (1 while L* is zero)."""


#: Every strategy kind, by the name a config file gives it.
KINDS = {
    "ftl": FollowTheLeader,
    "fixed_hedge": FixedHedge,
    "oracle_hedge": OracleHedge,
    "doubling_hedge": DoublingHedge,
    "adahedge": AdaHedge,
    "variable_hedge": VariableHedge,
}


def oracle_eta(lstar: float, k: int) -> float:
    """Hindsight tuning sqrt(2 ln K / L*); 1 when the best loss is zero."""
    lstar = _check_real("lstar", lstar, 0, low_in=True)
    k = _check_int("number of actions k", k, 2)
    return 1.0 if lstar == 0.0 else math.sqrt(2.0 * math.log(k) / lstar)


# ---------------------------------------------------------------------------
# strategy state machines


class Strategy:
    """The stepwise state of every kind over ``k`` actions (``init``).

    The Hedge kinds play exponential weights over the current segment's
    per-action totals: FixedHedge at its own eta, VariableHedge at a rate
    from the best total, AdaHedge and DoublingHedge from eta = 1, divided
    by phi once the gap sum (AdaHedge) or the segment's best loss
    (DoublingHedge) reaches ``budget``.  Their weights come from
    ``log_weights_from_totals``, which ``hedge_weights`` also uses, so the
    two agree bitwise.  Leader play has eta = inf, no gap and no restart.
    Weights are refreshed at the first act of a round, when its rate is
    known.
    """

    def __init__(self, kind: _Kind, k: int):
        if isinstance(kind, OracleHedge):
            raise ValueError(
                "OracleHedge needs the stream's final best loss; use run(), or "
                "FixedHedge(oracle_eta(lstar, k)) once lstar is known"
            )
        if not isinstance(kind, tuple(KINDS.values())):
            raise TypeError(f"unknown strategy kind {kind!r}")
        self.kind = kind
        self.k = k = _check_int("number of actions k", k, 2, sys.maxsize)
        try:
            self._totals = [0.0] * k
            self._seg_totals = [0.0] * k
            self._lw = [-math.log(k)] * k
            self._w = [1.0 / k] * k
        except MemoryError:  # a k such as 10**12 passes the integer rule
            raise MemoryError(f"number of actions k = {k} is too many for one list") from None
        self._rounds = 0
        self.segment = 1
        self.segment_starts = [1]
        self.delta_sum = 0.0
        self._leader = isinstance(kind, FollowTheLeader)
        self.eta = (
            math.inf if self._leader else kind.eta if isinstance(kind, FixedHedge) else 1.0
        )
        self._two_lnk = 2.0 * math.log(k)
        self.budget = self._budget_at(self.eta)
        # round whose weights _w holds; leader play and VariableHedge compute
        # even their first-round weights in the refresh, as log(1/K) and
        # exp(-ln K), which differ from -ln K and 1/K in the last bit
        self._fresh = -1 if isinstance(kind, (FollowTheLeader, VariableHedge)) else 0

    # -- public API ---------------------------------------------------------

    def act(self) -> WeightSnapshot:
        """Weights for the coming round (applies any pending restart)."""
        self._refresh()
        return WeightSnapshot(tuple(self._lw))

    def observe(self, loss) -> "Strategy":
        """Consume one round of losses; mutates and returns this state."""
        row = _coerce_losses(loss, self.k)
        self._refresh()
        if not self._leader:
            hedge, mix = hedge_and_mix_loss(self._w, row, self.eta, self._lw)
            self.delta_sum += hedge - mix
        for i, v in enumerate(row):
            self._totals[i] += v
            self._seg_totals[i] += v
        self._rounds += 1
        return self

    @property
    def cum(self) -> CumulativeLoss:
        return CumulativeLoss(tuple(self._totals), self._rounds)

    @property
    def weights(self) -> tuple[float, ...]:
        self._refresh()
        return tuple(self._w)

    # -- schedule, also called by run() --------------------------------------

    def _budget_at(self, eta):
        if isinstance(self.kind, AdaHedge):
            return bounds.budget(eta, self.k)
        if isinstance(self.kind, DoublingHedge):
            # once eta * eta underflows the budget is out of reach
            return self._two_lnk / (eta * eta) if eta * eta > 0.0 else math.inf
        return math.inf

    def _depleted(self, seg_best, gap_sum):
        """The restart test before a round, from the segment's best total
        and gap sum so far; elementwise over arrays of them."""
        return (seg_best if isinstance(self.kind, DoublingHedge) else gap_sum) >= self.budget

    def _restart(self, start: int):
        """Open the next segment, whose first round is ``start``."""
        self.segment += 1
        self.eta = self.kind.phi ** (1 - self.segment)
        self.budget = self._budget_at(self.eta)
        self.delta_sum = 0.0
        self._seg_totals = [0.0] * self.k
        self.segment_starts.append(start)

    def _variable_rate(self, lstar):
        """VariableHedge's rate min(1, sqrt(2 ln K / L*)), 1 while L* <= 0;
        elementwise over an array of L*."""
        with np.errstate(over="ignore"):  # a tiny L* gives rate 1, as in floats
            return np.minimum(
                1.0, np.sqrt(self._two_lnk / np.where(lstar > 0.0, lstar, self._two_lnk))
            )

    # -- internal (plain float lists, no validation) -------------------------

    def _refresh(self):
        """Apply a pending restart and the round's rate, then compute the
        round's weights; once per round."""
        if self._fresh == self._rounds:
            return
        self._fresh = self._rounds
        if self._depleted(min(self._seg_totals), self.delta_sum):
            self._restart(self._rounds + 1)
        elif isinstance(self.kind, VariableHedge):
            self.eta = float(self._variable_rate(min(self._totals)))
        seg = self._seg_totals
        if self._leader:
            m = min(seg)
            inv = 1.0 / seg.count(m)
            self._w = [inv if v == m else 0.0 for v in seg]
            self._lw = [math.log(v) if v > 0.0 else _NEG_INF for v in self._w]
        else:
            self._lw = log_weights_from_totals(seg, self.eta)
            self._w = [math.exp(v) for v in self._lw]


init = Strategy


# ---------------------------------------------------------------------------
# whole-stream driver


def as_loss_array(losses) -> np.ndarray:
    """Coerce a loss stream to a (T, K) float array and validate it."""
    # an ndarray is kept as it is (no copy); any other iterable is read as rows
    try:
        rows = losses if isinstance(losses, np.ndarray) else list(_in_order("loss stream", losses))
        arr = np.asarray(rows)
    except (TypeError, ValueError):  # not iterable, unordered, or ragged rows
        raise ValueError(
            f"loss stream must be a sequence of equal-length rows, got {type(losses).__name__}"
        ) from None
    if arr.dtype.kind not in "biuf":  # strings, objects and complex are not losses
        raise ValueError(f"loss stream must hold real numbers, got dtype {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 2:
        raise ValueError(f"loss stream must be 2-d (rounds x actions), got shape {arr.shape}")
    t_total, k = arr.shape
    if t_total < 1:
        raise ValueError("loss stream is empty")
    if k < 2:
        raise ValueError(f"loss stream must cover at least 2 actions, got {k}")
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

    kind: _Kind
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


#: Most losses one block of rounds holds, so that the working memory of
#: ``run()`` does not grow with the stream.
_BLOCK_LOSSES = 1 << 15
#: Rounds in the first block, and in the first block after a restart;
#: blocks then double.  Rounds computed past a restart are thrown away, so
#: small blocks early in a segment bound that waste.
_FIRST_ROWS = 256


def run(kind: _Kind, losses) -> RegretTrace:
    """Play ``kind`` against a whole loss stream and trace every round.

    A pure function of its arguments: identical inputs produce bitwise
    identical traces, equal to driving ``init``/``observe`` round by round.
    For OracleHedge the stream's final best cumulative loss is computed
    first and a fixed-rate Hedge at oracle_eta is run.
    """
    arr = as_loss_array(losses)
    t_total, k = arr.shape
    if isinstance(kind, OracleHedge):
        lstar = float(arr.sum(axis=0).min())
        state = init(FixedHedge(oracle_eta(lstar, k)), k)
    else:
        state = init(kind, k)
    ftl = isinstance(kind, FollowTheLeader)
    restarts = isinstance(kind, _Restarting)
    variable = isinstance(kind, VariableHedge)

    agent_loss = np.empty(t_total)
    best_cum_loss = np.empty(t_total)
    eta = np.empty(t_total)
    segment = np.empty(t_total, dtype=np.int64)
    cum_gap = np.zeros(t_total)
    # carries into the next block: per-action totals over the stream and
    # over the segment, and the segment's gap sum
    totals = seg = np.zeros(k)
    gap_sum = 0.0
    cap = max(1, _BLOCK_LOSSES // k)
    rows = _FIRST_ROWS
    t = 0
    while t < t_total:
        if restarts and t and state._depleted(seg.min(), gap_sum):
            state._restart(t + 1)
            seg, gap_sum, rows = np.zeros(k), 0.0, _FIRST_ROWS
        n = min(rows, cap, t_total - t)
        rows = 2 * n
        # column 0 holds a carry, columns 1..n the block's losses; a cumsum
        # along the rounds gives the totals before (0..n-1) and after (1..n)
        # each round, added in the order the states add them, from a 0.0
        # that no -0.0 loss can turn into -0.0
        ext = np.empty((k, n + 1))
        ext[:, 1:] = arr[t : t + n].T
        block = ext[:, 1:]
        ext[:, 0] = totals
        tot = np.cumsum(ext, axis=1)
        best = tot.min(axis=0)
        if restarts:
            ext[:, 0] = seg
            seg_tot = np.cumsum(ext, axis=1)
        else:
            seg_tot = tot
        keep = n
        if ftl:
            lead = tot[:, :n] == best[:n]
            weights = np.where(lead, 1.0 / lead.sum(axis=0), 0.0)
            played = _action_sums(weights * block)
            rate = state.eta
        else:
            rate = state._variable_rate(best[:n]) if variable else state.eta
            with np.errstate(over="ignore"):  # a huge eta * total is -inf, as in floats
                log_w = block_log_weights(seg_tot[:, :n], rate)
                weights = _exp(log_w)
                if t == 0:  # the first round plays what the fresh state plays
                    weights[:, 0] = state.weights
                played, mix = block_hedge_and_mix_loss(weights, block, rate, log_w)
            sums = np.cumsum(np.concatenate(([gap_sum], played - mix)))
            if restarts:
                hit = np.flatnonzero(
                    state._depleted(seg_tot.min(axis=0)[1:n], sums[1:n])
                )
                if hit.size:
                    keep = int(hit[0]) + 1
            cum_gap[t : t + keep] = sums[1 : keep + 1]
            gap_sum = sums[keep]
        out = slice(t, t + keep)
        agent_loss[out] = played[:keep]
        best_cum_loss[out] = best[1 : keep + 1]
        eta[out] = np.broadcast_to(rate, (n,))[:keep]
        segment[out] = state.segment
        totals, seg = tot[:, keep], seg_tot[:, keep]
        t += keep

    cum_agent_loss = np.cumsum(agent_loss)
    return RegretTrace(
        kind=kind,
        k=k,
        agent_loss=agent_loss,
        cum_agent_loss=cum_agent_loss,
        best_cum_loss=best_cum_loss,
        regret=cum_agent_loss - best_cum_loss,
        segment=segment,
        eta=eta,
        cum_gap=cum_gap,
        segment_starts=list(state.segment_starts),
    )
