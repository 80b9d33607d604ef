"""Primitives for exponential-weights (Hedge) prediction.

Everything works in the log domain.  Each per-round kernel has a scalar
form on plain Python floats, which the typed operations and the stepwise
strategy states use, and a block form over ``(K, rows)`` arrays, one column
per round, which ``strategies.run`` uses.  The two agree bit for bit, under
one contract:

- ``+ - * /``, ``min``, compares and masks run in numpy, which rounds them
  as Python does;
- every ``exp``/``log``/``expm1``/``log1p`` gives the bits of the ``math``
  function, because numpy's real vectorised transcendentals may differ
  from the C library's in the last bit.  ``exp`` runs as numpy's complex
  ``exp`` on a zero imaginary part, which is the C library's ``cexp``
  (``_exp``); the other three call the ``math`` function once per distinct
  bit pattern in the block and gather the results back (``_map``);
- every sum over actions adds in sequence from 0.0, as the scalar loops do,
  never with ``np.sum``, whose pairwise order rounds differently.

Tolerances used across the package and its test suite are fixed here:
``PER_OP_TOL`` for single operation chains, ``ACCUMULATED_TOL`` for
quantities accumulated over many rounds, and ``LOSS_RANGE_TOL`` for how far
a loss may stray outside [0, 1] before it is rejected (never clamped).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping, Set
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PER_OP_TOL",
    "ACCUMULATED_TOL",
    "LOSS_RANGE_TOL",
    "CumulativeLoss",
    "WeightSnapshot",
    "RoundReport",
    "hedge_weights",
    "mix_loss",
    "mixability_gap",
    "posterior_update",
    "log_marginal_likelihood",
    "log_weights_from_totals",
    "hedge_and_mix_loss",
    "block_log_weights",
    "block_hedge_and_mix_loss",
]

PER_OP_TOL = 1e-12
ACCUMULATED_TOL = 1e-9
LOSS_RANGE_TOL = 1e-9

_NEG_INF = float("-inf")


def _as_float(x) -> float:
    """``float(x)`` for a real ``x`` a float holds, else nan."""
    try:
        return float(x) if isinstance(x, Real) else math.nan
    except OverflowError:  # an int such as 10**400
        return math.nan


def _shown(x) -> str:
    """``repr(x)``; an int too long to print by its digit count."""
    try:
        return repr(x)
    except ValueError:  # past the interpreter's int-to-str digit limit
        digits = int(x.bit_length() * math.log10(2)) + 1
        return f"an integer of {digits - (abs(x) < 10 ** (digits - 1))} digits"


def _refused(name: str, domain: str, x, low, high, low_in: bool) -> ValueError:
    """The error naming ``name`` and its interval."""
    lo = "[" if low_in and low > -math.inf else "("
    hi = "]" if high < math.inf else ")"
    return ValueError(f"{name} must be {domain} {lo}{low}, {high}{hi}, got {_shown(x)}")


def _check_int(name: str, x, low: float = -math.inf, high: float = math.inf) -> int:
    """``x`` as an int, refused by ``name`` unless it is an integer in
    [low, high].  An integer type is taken exactly, never rounded through a
    float; a float only when it holds an integer."""
    if not isinstance(x, int) and _as_float(x).is_integer():
        x = int(x)  # a numpy integer or integral float; ints skip the slower ABC check
    if not (isinstance(x, int) and low <= x <= high):
        raise _refused(name, "an integer in", x, low, high, True)
    return int(x)


def _check_real(name: str, x, low: float, high: float = math.inf, *, low_in=False) -> float:
    """``x`` as a float, refused by ``name`` unless it is a finite real above
    ``low`` (or at it, when ``low_in``) and at most ``high``.  Any other
    real, such as an int or a numpy scalar, is taken as ``float(x)``."""
    v = x if type(x) is float else _as_float(x)  # floats skip the slower ABC check
    if math.isfinite(v) and (low <= v if low_in else low < v) and v <= high:
        return v
    raise _refused(name, "in", x, low, high, low_in)


def _check_eta(eta: float) -> float:
    return _check_real("learning rate eta", eta, 0)


def _as_element(name: str, v) -> float:
    """``float(v)``, refused by ``name`` unless ``v`` is a real number a float
    holds (not a str, ``None`` or ``10**400``).  A nan is kept, for the
    caller's range check to refuse."""
    f = _as_float(v)
    if f != f and not (isinstance(v, Real) and v != v):
        raise ValueError(f"{name} must be a real number in float range, got {_shown(v)}")
    return f


def _in_order(name: str, values):
    """``iter(values)``, refused by ``name`` unless the values come in order
    (a set has none, and a mapping would give its keys)."""
    try:
        if isinstance(values, (Set, Mapping)):
            raise TypeError
        return iter(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {_shown(values)}") from None


def _as_floats(name: str, values) -> list[float]:
    """``values``, one per action, as a list of at least two floats."""
    values = _in_order(f"{name} values", values)
    # floats skip the element check; observe() runs this every round
    out = [v if type(v) is float else _as_element(name, v) for v in values]
    if len(out) < 2:
        raise ValueError(f"{name} values must cover at least 2 actions, got {len(out)}")
    return out


def _coerce_losses(values, k: int) -> list[float]:
    """Validate one round of ``k`` losses and return them as a plain float list."""
    out = _as_floats("loss", values)
    if len(out) != k:
        raise ValueError(f"expected {k} losses, got {len(out)}")
    lo, hi = -LOSS_RANGE_TOL, 1.0 + LOSS_RANGE_TOL
    for v in out:
        # NaN fails both comparisons, so it is rejected here too.
        if not (lo <= v <= hi):
            raise ValueError(f"loss {v!r} outside [0, 1] by more than {LOSS_RANGE_TOL}")
    return out


def _coerce_weights(values) -> list[float]:
    if isinstance(values, WeightSnapshot):
        return list(values.weights)
    out = _as_floats("weight", values)
    for v in out:
        if not (0.0 <= v <= 1.0 + PER_OP_TOL):
            raise ValueError(f"weight {v!r} is not a probability")
    if abs(math.fsum(out) - 1.0) > ACCUMULATED_TOL:
        raise ValueError(f"weights sum to {math.fsum(out)!r}, not 1")
    return out


@dataclass(frozen=True)
class CumulativeLoss:
    """Per-action loss totals after ``rounds`` rounds."""

    totals: tuple[float, ...]
    rounds: int

    def __init__(self, totals: Iterable[float], rounds: int):
        totals = tuple(_as_floats("total", totals))
        rounds = _check_int("rounds", rounds, 0, sys.maxsize)
        hi = rounds + (rounds + 1) * LOSS_RANGE_TOL
        for v in totals:
            if not (-LOSS_RANGE_TOL * (rounds + 1) <= v <= hi):
                raise ValueError(
                    f"total {v!r} impossible after {rounds} rounds of [0, 1] losses"
                )
        object.__setattr__(self, "totals", totals)
        object.__setattr__(self, "rounds", rounds)

    @property
    def k(self) -> int:
        return len(self.totals)


@dataclass(frozen=True)
class WeightSnapshot:
    """A probability vector over actions, stored as log weights.

    Zero weights are represented by -inf log weights; NaN and +inf are
    rejected, and the weights must sum to 1 within ``PER_OP_TOL``.
    """

    log_weights: tuple[float, ...]

    def __init__(self, log_weights: Iterable[float]):
        lw = tuple(_as_floats("log weight", log_weights))
        for v in lw:
            if math.isnan(v) or v == math.inf:
                raise ValueError(f"log weight {v!r} is not allowed")
        try:
            total = math.fsum(math.exp(v) for v in lw)
        except OverflowError:  # a log weight past ~709
            total = math.inf
        if abs(total - 1.0) > PER_OP_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1 within {PER_OP_TOL}")
        object.__setattr__(self, "log_weights", lw)

    @classmethod
    def from_weights(cls, weights: Iterable[float]) -> "WeightSnapshot":
        ws = _as_floats("weight", weights)
        total = math.nan
        if all(0.0 <= v < math.inf for v in ws):  # nan fails too
            try:
                total = math.fsum(ws)
            except OverflowError:  # finite weights whose sum is not
                total = math.inf
        if not 0.0 < total < math.inf:
            raise ValueError("weights must be nonnegative with a positive finite sum")
        # a share that underflows to 0.0 is a zero weight
        shares = [v / total for v in ws]
        return cls(tuple(math.log(q) if q > 0.0 else _NEG_INF for q in shares))

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(math.exp(v) for v in self.log_weights)


@dataclass(frozen=True)
class RoundReport:
    """Expected loss, mix loss and their gap for one round at rate eta.

    The gap ``delta = hedge_loss - mix_loss`` always lies in
    [0, eta/8] (up to ``PER_OP_TOL``); the constructor enforces this.
    """

    hedge_loss: float
    mix_loss: float
    delta: float
    eta: float

    def __post_init__(self):
        if abs(self.delta - (self.hedge_loss - self.mix_loss)) > PER_OP_TOL:
            raise ValueError("delta does not equal hedge_loss - mix_loss")
        if not (-PER_OP_TOL <= self.delta <= self.eta / 8.0 + PER_OP_TOL):
            raise ValueError(
                f"gap {self.delta!r} outside [0, eta/8] for eta={self.eta!r}"
            )


# ---------------------------------------------------------------------------
# low-level kernels (shared by the typed operations and the strategy loops)


def _logsumexp(values: Sequence[float]) -> float:
    """log(sum_i exp(v_i)), shifted by the max and summed in sequence; -inf
    when every value is.  The shift is exact, so values already shifted to
    a max of +-0.0 sum to the same bits as without it."""
    top = max(values)
    if top == _NEG_INF:
        return top
    s = 0.0
    for v in values:
        s += math.exp(v - top)
    return top + math.log(s)


def log_weights_from_totals(totals: Sequence[float], eta: float) -> list[float]:
    """Normalised log weights  -eta*L_k - log(sum_j exp(-eta*L_j)).

    Max-shifted so the result stays finite for eta*L up to at least 1e5:
    the largest scaled value is pinned at 0 before exponentiation.
    """
    best = min(totals)
    scaled = [-eta * (t - best) for t in totals]
    log_norm = _logsumexp(scaled)
    return [v - log_norm for v in scaled]


def hedge_and_mix_loss(
    weights: Sequence[float],
    losses: Sequence[float],
    eta: float,
    log_weights: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Return (w . l, -(1/eta) * log(w . exp(-eta*l))) for one round.

    The mix loss is evaluated with the losses shifted by their minimum, so
    no exponential ever overflows.  The sum is accumulated as expm1 terms
    and taken through log1p, because at small eta the plain form loses the
    log to rounding and the division by eta blows that up: the gap
    (expected minus mix) is itself O(eta), so an absolute log error of
    1e-16 would already swamp it near eta = 1e-6.  Weights are divided by
    their exact float sum so a vector that is 1e-12 off normalisation
    cannot shift the mix by 1e-12/eta.

    That form cancels when the weight sits on actions whose
    exp(-eta*(l - min l)) is tiny: 1 + z/wsum is then known only to about
    1e-16 absolute, and reaches 0 (a log1p domain error) once those terms
    underflow.  Rounds where 1 + z/wsum < 2**-10, which needs
    eta*(l - min l) > 6.9 for some action, are evaluated as a max-shifted
    logsumexp of ``log_weights - eta*l`` instead; ``log_weights`` defaults
    to the logs of the normalised weights.
    """
    m = min(losses)
    hedge = 0.0
    wsum = 0.0
    z = 0.0
    for w, l in zip(weights, losses):
        hedge += w * l
        wsum += w
        z += w * math.expm1(-eta * (l - m))
    ratio = z / wsum
    if ratio > -1.0 + 2.0**-10:
        return hedge / wsum, m - math.log1p(ratio) / eta
    if log_weights is None:
        log_weights = [math.log(w / wsum) if w > 0.0 else _NEG_INF for w in weights]
    shifted = [a - eta * (l - m) for a, l in zip(log_weights, losses)]
    return hedge / wsum, m - _logsumexp(shifted) / eta


def _map(fn, x: np.ndarray) -> np.ndarray:
    """The scalar ``math`` function ``fn`` applied to every element of the
    float64 array ``x``: called once per distinct bit pattern, then gathered
    back into ``x``'s shape.  Keying on bits keeps ``-0.0`` apart from
    ``0.0`` and one NaN payload apart from another, so a NaN keeps its
    payload where ``fn`` does.  The kernels map ``log``, ``expm1`` and
    ``log1p`` through it; ``exp`` goes through ``_exp``."""
    bits, inverse = np.unique(x.view(np.int64), return_inverse=True)
    values = np.fromiter(map(fn, bits.view(np.float64).tolist()), np.float64, bits.size)
    return values[inverse].reshape(x.shape)


def _exp(x: np.ndarray) -> np.ndarray:
    """``math.exp`` of every element of the float64 array ``x``, bit for bit
    for every element up to 709, in one numpy call and without deduplication.

    numpy's complex ``exp`` calls the C library's ``cexp``, which for a zero
    imaginary part returns ``exp(x) * cos 0``, the bits of ``exp(x)`` (C99
    Annex G).  Above 709 glibc's ``cexp`` scales by ``exp(709)`` and may
    round the last bit differently; no kernel argument is positive.  A NaN
    comes out as the canonical NaN, its payload not kept as ``_map`` keeps
    it; no kernel argument is a NaN, since ``as_loss_array`` refuses
    non-finite losses and every rate is checked finite."""
    # a copy, so the complex buffer is freed here, not kept by a view
    return np.exp(x, dtype=np.complex128).real.copy()


def _action_sums(x: np.ndarray) -> np.ndarray:
    """Sums over axis 0 (the actions), each added in sequence from 0.0."""
    acc = np.zeros(x.shape[1:])
    for row in x:
        acc += row
    return acc


def block_log_weights(totals: np.ndarray, eta) -> np.ndarray:
    """``log_weights_from_totals`` for every column of ``totals`` (K, rows);
    ``eta`` is one rate or one per column."""
    scaled = -eta * (totals - totals.min(axis=0))
    return scaled - _map(math.log, _action_sums(_exp(scaled)))


def block_hedge_and_mix_loss(
    weights: np.ndarray, losses: np.ndarray, eta, log_weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``hedge_and_mix_loss`` for every column of ``weights``, ``losses``
    and ``log_weights`` (K, rows); ``eta`` is one rate or one per column.
    Columns that need the logsumexp fallback take the scalar one."""
    m = losses.min(axis=0)
    shifted = -eta * (losses - m)
    hedge = _action_sums(weights * losses)
    wsum = _action_sums(weights)
    ratio = _action_sums(weights * _map(math.expm1, shifted)) / wsum
    eta = np.broadcast_to(eta, m.shape)
    fine = ratio > -1.0 + 2.0**-10
    mix = np.empty_like(m)
    mix[fine] = m[fine] - _map(math.log1p, ratio[fine]) / eta[fine]
    for j in np.flatnonzero(~fine):  # log_weights + shifted is a - eta * (l - m)
        mix[j] = m[j] - _logsumexp((log_weights[:, j] + shifted[:, j]).tolist()) / eta[j]
    return hedge / wsum, mix


# ---------------------------------------------------------------------------
# typed operations


def hedge_weights(cum: CumulativeLoss, eta: float) -> WeightSnapshot:
    """Exponential weights  w_k proportional to exp(-eta * L_k).

    Args:
        cum: cumulative losses after any number of rounds.
        eta: positive, finite learning rate.
    """
    eta = _check_eta(eta)
    return WeightSnapshot(log_weights_from_totals(cum.totals, eta))


def _checked_round(weights, loss, eta: float) -> tuple[float, float, float]:
    """Validated (hedge loss, mix loss, eta) for one round."""
    eta = _check_eta(eta)
    w = _coerce_weights(weights)
    l = _coerce_losses(loss, len(w))
    lw = weights.log_weights if isinstance(weights, WeightSnapshot) else None
    return (*hedge_and_mix_loss(w, l, eta, lw), eta)


def mix_loss(weights, loss, eta: float) -> float:
    """Mix loss -(1/eta) * ln(w . exp(-eta*l)) for one round.

    Lies between min(l) and the expected loss w . l.  Accepts a
    WeightSnapshot or a plain probability vector for ``weights``.
    """
    return _checked_round(weights, loss, eta)[1]


def mixability_gap(weights, loss, eta: float) -> RoundReport:
    """Expected loss minus mix loss for one round; the gap is in [0, eta/8]."""
    hedge, mix, eta = _checked_round(weights, loss, eta)
    return RoundReport(hedge, mix, hedge - mix, eta)


def posterior_update(weights, loss, eta: float) -> WeightSnapshot:
    """One multiplicative update  w_k <- w_k * exp(-eta*l_k), renormalised.

    Performed in the log domain with a max shift; applying this
    sequentially from uniform weights matches ``hedge_weights`` on the
    summed losses up to floating-point rounding.  Plain ``weights`` must
    be a probability vector, as for ``mix_loss``.
    """
    eta = _check_eta(eta)
    if isinstance(weights, WeightSnapshot):
        lw = list(weights.log_weights)
    else:
        lw = WeightSnapshot.from_weights(_coerce_weights(weights)).log_weights
    l = _coerce_losses(loss, len(lw))
    shifted = [a - eta * b for a, b in zip(lw, l)]
    log_norm = _logsumexp(shifted)
    if log_norm == _NEG_INF:
        raise ValueError("all weights are zero after the update")
    return WeightSnapshot(tuple(v - log_norm for v in shifted))


def log_marginal_likelihood(cum: CumulativeLoss, eta: float) -> float:
    """ln of the uniform mixture (1/K) * sum_k exp(-eta * L_k).

    Equals the sum over past rounds of ln(w_t . exp(-eta*l_t)) when the
    weights follow the exponential-weights updates, and is always at
    least -eta*min(L) - ln(K).
    """
    eta = _check_eta(eta)
    best = min(cum.totals)
    scaled = [-eta * (t - best) for t in cum.totals]
    return -eta * best + _logsumexp(scaled) - math.log(cum.k)
