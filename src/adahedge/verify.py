"""Executable property checks tying the library to its stated guarantees.

The stream properties read ``strategies.run`` traces, and the two gap
properties evaluate their sampled rounds with ``block_hedge_and_mix_loss``,
so the guarantees are checked on the kernels that produce results.  The
typed operations are checked on arbitrary weights too: hand-built Lemma 4
corner rounds go through ``mixability_gap``, and the chain rule's sampled
priors through ``posterior_update`` and ``mix_loss``.

Each property draws its randomness from a sub-stream of one suite seed, so
any failure is replayable by passing the same ``--seed`` to the ``verify``
CLI subcommand.  ``run_suite`` returns one result per property plus
informational lines (the full suite reruns the correlated-losses experiment
and reports the measured mean segment count next to the 2.265 reference
value, which this generator does not reproduce; see the README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .core import (
    ACCUMULATED_TOL,
    PER_OP_TOL,
    CumulativeLoss,
    WeightSnapshot,
    _check_int,
    _exp,
    _map,
    block_hedge_and_mix_loss,
    log_marginal_likelihood,
    mix_loss,
    mixability_gap,
    posterior_update,
)

# unused here, but bench/tracing.py binds a timing wrapper to this name in
# this module's namespace, so it must stay importable from it
from .core import hedge_weights  # noqa: F401
from .simulation import (
    AlternatingPair,
    Correlated,
    ExperimentConfig,
    FtlKiller,
    _M64,
    _run_tasks,
    derive_seed,
    generate,
    run_experiment,
    segment_statistics,
    unit_uniforms,
)
from .strategies import AdaHedge, FixedHedge, FollowTheLeader, run

__all__ = ["DEFAULT_SEED", "PropertyResult", "run_suite"]

DEFAULT_SEED = 20110718

# e - 1 as the paper writes it into the budget and Lemma 2, kept apart from
# the calculators' own constant so that a wrong one there fails a property
_E_MINUS_1 = math.e - 1.0

# reference mean segment count for the correlated experiment, reported for
# comparison by the full suite (never asserted; the shipped generator yields
# lower counts -- losses differ between the two actions in O(log T) rounds)
REFERENCE_CORRELATED_SEGMENTS = 2.265


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _sample_blocks(seed: int, count: int, eta_hi: float):
    """``count`` random rounds, one (weights, losses, etas) block per K = 2..8.

    A row is a round: weights are normalised exponentials (a simplex point),
    losses uniform in [0, 1) and eta uniform in (0, eta_hi].
    """
    ks = list(range(2, 9))
    per = [count // len(ks)] * len(ks)
    per[0] += count - sum(per)
    for j, (k, m) in enumerate(zip(ks, per)):
        u = unit_uniforms(derive_seed(seed, j), m * (2 * k + 1)).reshape(m, 2 * k + 1)
        raw = -np.log1p(-u[:, :k])
        yield raw / raw.sum(axis=1, keepdims=True), u[:, k : 2 * k], eta_hi * (1.0 - u[:, 2 * k])


def _sample_rounds(seed: int, count: int, eta_hi: float):
    """The rounds of ``_sample_blocks`` as (weights, losses, eta) lists."""
    return [
        round_
        for ws, losses, etas in _sample_blocks(seed, count, eta_hi)
        for round_ in zip(ws.tolist(), losses.tolist(), etas.tolist())
    ]


def _block_gaps(ws: np.ndarray, losses: np.ndarray, etas: np.ndarray):
    """Per row of a block: the gap and largest weight that
    ``mixability_gap(WeightSnapshot.from_weights(w), l, eta)`` gives, bit for
    bit, from one kernel call.  The weights are normalised as ``from_weights``
    does (an exact sum, a zero weight to -inf) and read back through ``exp``."""
    totals = np.array([math.fsum(row) for row in ws.tolist()])
    lw = np.full(ws.shape, -math.inf)
    live = ws > 0.0
    lw[live] = _map(math.log, (ws / totals[:, None])[live])
    w = _exp(lw)
    hedge, mix = block_hedge_and_mix_loss(w.T, losses.T, etas, lw.T)
    return hedge - mix, w.max(axis=1)


def _uniform_stream(seed: int, t: int, k: int) -> np.ndarray:
    """A (t, k) stream of independent uniform [0, 1) losses."""
    return unit_uniforms(seed, t * k).reshape(t, k)


def _antithetic_stream(seed: int, t: int, k: int) -> np.ndarray:
    """Uniform losses in antithetic pairs: round 2j+1 draws u, round 2j+2
    replays 1 - u, so every action's total advances by exactly 1 per pair.

    Tied totals keep the weights spread out, which makes the cumulative
    gap grow linearly at any fixed learning rate -- a stream on which
    budget depletion is guaranteed, not a matter of which seed was drawn.
    """
    u = unit_uniforms(seed, (t // 2) * k).reshape(-1, k)
    out = np.empty((2 * len(u), k))
    out[0::2] = u
    out[1::2] = 1.0 - u
    return out


# corner rounds where the Lemma 4 bound is nearly tight: the heavy action
# loses this round; the gap approaches (e-2)*eta*q as the light weight q -> 0
LEMMA4_CORNERS = tuple(
    ((1.0 - q, q), (1.0, 0.0), eta)
    for q in (0.5, 0.1, 0.01, 0.001)
    for eta in (1.0, 0.999, 0.9, 0.75, 0.5, 0.25)
)


def _check_gap_range(seed: int, count: int) -> tuple[bool, str]:
    """Per-round gap stays in [0, eta/8] over random rounds, eta up to 4."""
    blocks = list(_sample_blocks(seed, count, 4.0))
    gaps = np.concatenate([_block_gaps(*block)[0] for block in blocks])
    etas = np.concatenate([block[2] for block in blocks])
    low = float(gaps.min())
    excess = float((gaps - etas / 8.0).max())
    for w, l, eta in LEMMA4_CORNERS:  # the typed op refuses a gap out of range
        mixability_gap(WeightSnapshot.from_weights(w), l, eta)
    ok = low >= -PER_OP_TOL and excess <= PER_OP_TOL
    detail = f"{count} samples, min gap {low:.3g}, max gap excess {excess:.3g}"
    return ok, detail


def _check_gap_posterior(seed: int, count: int) -> tuple[bool, str]:
    """Gap bounded by (e-2)*eta*(1 - max weight) whenever eta <= 1."""
    overs = []
    for ws, losses, etas in _sample_blocks(seed, count, 1.0):
        gaps, tops = _block_gaps(ws, losses, etas)
        for gap, eta, top in zip(gaps.tolist(), etas.tolist(), tops.tolist()):
            overs.append(gap - bounds.lemma4_bound(eta, top))
    for w, l, eta in LEMMA4_CORNERS:
        snap = WeightSnapshot.from_weights(w)
        rep = mixability_gap(snap, l, eta)
        overs.append(rep.delta - bounds.lemma4_bound(eta, max(snap.weights)))
    where = int(np.argmax(overs))  # the first maximum, or the first nan
    excess = overs[where]
    ok = excess <= PER_OP_TOL
    detail = f"{len(overs)} samples, max bound excess {excess:.3g} (sample {where})"
    return ok, detail


def _check_factorization(
    seed: int, streams: int, samples: int, t: int = 200, k: int = 5
) -> tuple[bool, str]:
    """The kernel's summed log mix factors, -eta * (agent loss - gap), equal
    the direct log marginal likelihood; and for any prior, the mix losses of
    losses l and then 1 - l, across one posterior update, sum to 1."""
    worst = 0.0
    for s in range(streams):
        stream = _uniform_stream(derive_seed(seed, s), t, k)
        cum = CumulativeLoss(stream.sum(axis=0).tolist(), t)
        for eta in (1.0, 0.3):
            trace = run(FixedHedge(eta), stream)
            summed = -eta * float(trace.cum_agent_loss[-1] - trace.cum_gap[-1])
            worst = max(worst, abs(log_marginal_likelihood(cum, eta) - summed))
    # every action loses exactly 1 over the two rounds, so the two factors
    # multiply to exp(-eta) whatever the prior
    for w, l, eta in _sample_rounds(derive_seed(seed, streams), samples, 4.0):
        after = posterior_update(w, l, eta)
        pair = mix_loss(w, l, eta) + mix_loss(after, [1.0 - x for x in l], eta)
        worst = max(worst, abs(pair - 1.0))
    ok = worst <= ACCUMULATED_TOL
    detail = (
        f"{streams} streams (T={t}, K={k}) and {samples} two-round priors, "
        f"max |direct - summed| {worst:.3g}"
    )
    return ok, detail


def _check_gap_budget(seed: int, streams: int, t: int = 200, k: int = 5) -> tuple[bool, str]:
    """Cumulative gap under (eta*L* + ln K)/(e-1) at every prefix, eta <= 1."""
    excess, lnk = -math.inf, math.log(k)
    for s in range(streams):
        stream = _uniform_stream(derive_seed(seed, s), t, k)
        for eta in (1.0, 0.3):
            trace = run(FixedHedge(eta), stream)
            pairs = zip(trace.cum_gap.tolist(), trace.best_cum_loss.tolist())
            excess = max(excess, max(g - (eta * b + lnk) / _E_MINUS_1 for g, b in pairs))
    ok = excess <= ACCUMULATED_TOL
    detail = f"{streams} streams, max prefix excess {excess:.3g}"
    return ok, detail


def _check_depletion_window(seed: int, streams: int, t: int = 2000, k: int = 5) -> tuple[bool, str]:
    """AdaHedge's first three segments (eta = 1, 1/2, 1/4) each end with the
    gap in [b, b + eta/8) and regret under the square-root bound."""
    for s in range(streams):
        stream = _antithetic_stream(derive_seed(seed, s), t, k)
        trace = run(AdaHedge(phi=2.0), stream)
        starts = trace.segment_starts
        if len(starts) < 4:
            detail = f"stream {s}: {len(starts) - 1} depletions within {t} rounds, need 3"
            return False, detail
        for first, nxt in zip(starts[:3], starts[1:4]):
            lo, hi = first - 1, nxt - 1  # the segment's rounds, as a slice
            eta = float(trace.eta[lo])
            b = (1.0 / eta + 1.0 / _E_MINUS_1) * math.log(k)  # the budget b(eta)
            gap = float(trace.cum_gap[hi - 1])
            if not (b <= gap < b + eta / 8.0 + PER_OP_TOL):
                detail = f"stream {s}, eta={eta}: gap {gap} left window [b, b+eta/8)"
                return False, detail
            lstar = float(stream[lo:hi].sum(axis=0).min())
            regret = float(trace.agent_loss[lo:hi].sum()) - lstar
            limit = bounds.theorem1_bound(lstar, k)
            if not (regret < limit + ACCUMULATED_TOL):
                detail = f"stream {s}, eta={eta}: regret {regret:.6g} >= bound {limit:.6g}"
                return False, detail
    return True, f"{3 * streams} depletion windows inside bounds"


def _lemma3_excess(trace, k: int, phi: float) -> float:
    by_segment = {int(m): bounds.lemma3_bound(int(m), k, phi) for m in np.unique(trace.segment)}
    limits = np.array([by_segment[int(m)] for m in trace.segment])
    return float(np.max(trace.regret - limits))


def _check_restart_regret(seed: int, streams: int, t: int = 600) -> tuple[bool, str]:
    """AdaHedge regret stays below the m-segment restart bound every round."""
    excess = -math.inf
    for s in range(streams):
        k = 2 + (s % 2) * 3  # alternate K=2 and K=5
        stream = _uniform_stream(derive_seed(seed, s), t, k)
        trace = run(AdaHedge(phi=2.0), stream)
        excess = max(excess, _lemma3_excess(trace, k, 2.0))
    killer = generate(FtlKiller(), 1000, 0)
    excess = max(excess, _lemma3_excess(run(AdaHedge(phi=2.0), killer), 2, 2.0))
    ok = excess < ACCUMULATED_TOL
    detail = f"{streams} random streams + leader trap, max regret excess {excess:.3g}"
    return ok, detail


def _check_alternating(seed: int, t: int) -> tuple[bool, str]:
    """Deterministic easy case: leader-following regret at most 1, segment
    count capped by the two-action m* formula, and a flat regret tail."""
    spec = AlternatingPair(a=0.2, b=0.6, eps=0.1)
    alpha = spec.b - spec.a - 2.0 * spec.eps  # per-round divergence guarantee
    stream = generate(spec, t, 0)
    problems = []

    ftl = run(FollowTheLeader(), stream)
    if not (ftl.regret[-1] <= 1.0 + ACCUMULATED_TOL):
        problems.append(f"leader regret {ftl.regret[-1]:.6g} > 1")

    ada = run(AdaHedge(phi=2.0), stream)
    cap = bounds.intro_mstar(alpha, 2.0)
    started = len(ada.segment_starts)
    if started > cap:
        problems.append(f"{started} segments > cap {cap}")
    plateau = float(ada.regret[-1] - ada.regret[t // 10 - 1])
    if not (plateau <= 0.5):
        problems.append(f"regret rose {plateau:.6g} over the last 90% of rounds")

    detail = "; ".join(problems) if problems else (
        f"T={t}: leader regret {ftl.regret[-1]:.4g}, "
        f"{started} segments <= {cap}, tail rise {plateau:.3g}"
    )
    return not problems, detail


def _check_leader_trap(seed: int) -> tuple[bool, str]:
    """Leader play forfeits at least T/2 - 1 on the alternating trap."""
    t = 1000
    trace = run(FollowTheLeader(), generate(FtlKiller(), t, 0))
    final = float(trace.regret[-1])
    ok = final >= t / 2 - 1
    return ok, f"T={t}: regret {final} >= {t // 2 - 1}"


def _check_posterior_tail(seed: int, t: int) -> tuple[bool, str]:
    """Summed off-leader posterior mass on exact-linear-gap streams stays
    below the closed-form tail constant times 1/eta."""
    excess = -math.inf
    for k in (2, 4):
        for alpha in (0.2, 1.0):
            # L_t^k - L_t^* = alpha * t exactly, so round t + 1 costs alpha
            # times the off-leader mass of the posterior after t rounds
            stream = np.tile([0.0] + [alpha] * (k - 1), (t + 1, 1))
            for eta in (1.0, 0.5, 0.25):
                tail = float(run(FixedHedge(eta), stream).agent_loss[1:].sum()) / alpha
                excess = max(excess, tail - bounds.lemma5_bound(k, alpha, 1.0, eta))
    ok = excess <= ACCUMULATED_TOL
    detail = f"T={t} exact-gap streams, max tail excess {excess:.3g}"
    return ok, detail


def _check_bound_domain(seed: int) -> tuple[bool, str]:
    """Every calculator is finite (and nonnegative where real-valued) on a
    grid of in-domain parameters."""
    bad = []

    def real(label, value):
        if not (math.isfinite(value) and value >= 0.0):
            bad.append(f"{label} = {value!r}")

    for k in (2, 4, 16):
        for eta in (1e-6, 0.25, 1.0, 4.0):
            real(f"budget({eta},{k})", bounds.budget(eta, k))
        for eta in (1e-6, 0.5, 1.0):
            for lstar in (0.0, 1.0, 1e5):
                real(f"lemma2({eta},{lstar},{k})", bounds.lemma2_bound(eta, lstar, k))
        for lstar in (1e-6, 1.0, 1e5):
            real(f"eta_floor({lstar},{k})", bounds.eta_floor(lstar, k))
        for lstar in (0.0, 1.0, 1e5):
            real(f"theorem1({lstar},{k})", bounds.theorem1_bound(lstar, k))
        for m in (1, 3, 10):
            for phi in (1.5, 2.0, bounds.GOLDEN_RATIO):
                real(f"lemma3({m},{k},{phi:.3g})", bounds.lemma3_bound(m, k, phi))
        for alpha in (0.1, 0.5, 1.0):
            for beta in (0.6, 1.0, 2.0):
                real(f"lemma5_ck({k},{alpha},{beta})", bounds.lemma5_ck(k, alpha, beta))
                for eta in (0.25, 1.0):
                    real(
                        f"lemma5({k},{alpha},{beta},{eta})",
                        bounds.lemma5_bound(k, alpha, beta, eta),
                    )
    for phi in (1.1, 1.5, 2.0, 3.0):
        real(f"factor({phi})", bounds.theorem2_leading_factor(phi))
        for alpha in (0.05, 0.2, 1.0):
            m = bounds.intro_mstar(alpha, phi)
            if m < 1:
                bad.append(f"intro_mstar({alpha},{phi}) = {m}")
        for alpha in (0.025, 0.25, 0.5):
            for delta in (0.05, 1.0):
                m = bounds.theorem3_mstar(alpha, delta, 4, phi)
                if m < 1:
                    bad.append(f"theorem3_mstar({alpha},{delta},4,{phi}) = {m}")
        for mstar in (1, 4):
            tau = bounds.lemma6_tau(mstar, 2, 0.2, 1.0, phi)
            if not isinstance(tau, int) or tau < 1:
                bad.append(f"lemma6_tau({mstar},...) = {tau!r}, not a round >= 1")
    detail = "; ".join(bad) if bad else "all grid evaluations finite and in range"
    return not bad, detail


def _correlated_info(seed: int) -> str:
    """Measured mean segment count of the correlated-losses experiment."""
    config = ExperimentConfig(
        generator=Correlated(hard_prob=0.3, p1=0.01, p2=0.02),
        horizon_t=10_000,
        repetitions=200,
        strategies=(AdaHedge(phi=2.0),),
        base_seed=seed,
    )
    stats = segment_statistics(run_experiment(config), AdaHedge(phi=2.0))
    return (
        f"correlated experiment (T=10000, R=200, seed={seed}): adaptive restarts "
        f"started {stats.mean:.3f} segments on average "
        f"(reference value {REFERENCE_CORRELATED_SEGMENTS}; see README)"
    )


# (property name, check, quick-profile arguments, full-profile arguments),
# in report order
_CHECKS = (
    ("gap-range-lemma1", _check_gap_range, (20_000,), (100_000,)),
    ("gap-posterior-lemma4", _check_gap_posterior, (20_000,), (100_000,)),
    ("factorization-chain-rule", _check_factorization, (30, 2000), (100, 20_000)),
    ("gap-budget-lemma2", _check_gap_budget, (30,), (100,)),
    ("depletion-window-theorem1", _check_depletion_window, (10,), (100,)),
    ("restart-regret-lemma3", _check_restart_regret, (10,), (30, 2000)),
    ("alternating-easy-case", _check_alternating, (20_000,), (100_000,)),
    ("leader-trap-floor", _check_leader_trap, (), ()),
    ("posterior-tail-lemma5", _check_posterior_tail, (2000,), (5000,)),
    ("bound-domain-grid", _check_bound_domain, (), ()),
)


def _run_check(i: int, seed: int, full: bool) -> tuple[bool, str]:
    """Property ``i`` of ``_CHECKS`` at the suite ``seed``: (passed, detail).

    Module-level and reading ``_CHECKS`` when called, so that a forked pool
    worker runs the table, and any patch, that this process holds."""
    _, check, quick_args, full_args = _CHECKS[i]
    try:
        return check(derive_seed(seed, 1000 + i), *(full_args if full else quick_args))
    except (ValueError, ArithmeticError) as exc:  # an op refused its input
        return False, f"raised {type(exc).__name__}: {exc}"


def run_suite(*, full: bool = False, seed: int = DEFAULT_SEED):
    """Run every property; returns (results, info_lines).

    The quick profile keeps the whole suite under ~10 seconds; the full
    profile uses acceptance-scale sample counts and also reruns the
    correlated-losses experiment for the informational segment report.
    ``seed`` must be in [0, 2**64); any other is refused before a property runs.
    No property depends on another, so ``ADAHEDGE_THREADS`` workers may run
    them (``simulation._run_tasks``), the experiment report first, as the
    longest task; the results are the same at any thread count.
    """
    seed = _check_int("seed", seed, 0, _M64)
    report = [(_correlated_info, seed)] if full else []
    checks = [(_run_check, i, seed, full) for i in range(len(_CHECKS))]
    outcomes = _run_tasks(report + checks)
    results = [
        PropertyResult(name, *outcome)
        for (name, *_), outcome in zip(_CHECKS, outcomes[len(report) :])
    ]
    return results, outcomes[: len(report)]
