"""Executable property checks tying the library to its stated guarantees.

The stream properties read ``strategies.run`` traces, so the guarantees are
checked on the kernel that produces results.  The per-round properties feed
arbitrary weights to the typed operations: the two gap properties to
``mixability_gap``, and the chain rule also to ``posterior_update`` and
``mix_loss``.

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
    LossVector,
    WeightSnapshot,
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
    derive_seed,
    generate,
    run_experiment,
    segment_statistics,
    unit_uniforms,
)
from .strategies import AdaHedge, FixedHedge, FollowTheLeader, run

__all__ = ["DEFAULT_SEED", "PropertyResult", "run_suite"]

DEFAULT_SEED = 20110718

# reference mean segment count for the correlated experiment, reported for
# comparison by the full suite (never asserted; the shipped generator yields
# lower counts -- losses differ between the two actions in O(log T) rounds)
REFERENCE_CORRELATED_SEGMENTS = 2.265


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str
    seed: int


def _sample_rounds(seed: int, count: int, eta_hi: float):
    """``count`` random (weights, losses, eta) rounds with K cycling 2..8.

    Weights are normalised exponentials (a simplex point), losses uniform in
    [0, 1) and eta uniform in (0, eta_hi].
    """
    ks = list(range(2, 9))
    per = [count // len(ks)] * len(ks)
    per[0] += count - sum(per)
    out = []
    for j, (k, m) in enumerate(zip(ks, per)):
        u = unit_uniforms(derive_seed(seed, j), m * (2 * k + 1)).reshape(m, 2 * k + 1)
        raw = -np.log1p(-u[:, :k])
        w = raw / raw.sum(axis=1, keepdims=True)
        losses = u[:, k : 2 * k]
        etas = eta_hi * (1.0 - u[:, 2 * k])
        for i in range(m):
            out.append((w[i].tolist(), losses[i].tolist(), float(etas[i])))
    return out


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


def _check_gap_range(seed: int, count: int) -> PropertyResult:
    """Per-round gap stays in [0, eta/8] over random rounds, eta up to 4."""
    name = "gap-range-lemma1"
    low = math.inf
    excess = -math.inf
    for i, (w, l, eta) in enumerate(_sample_rounds(seed, count, 4.0)):
        try:
            rep = mixability_gap(WeightSnapshot.from_weights(w), LossVector(l), eta)
        except ValueError as exc:
            return PropertyResult(name, False, f"sample {i}: {exc}", seed)
        low = min(low, rep.delta)
        excess = max(excess, rep.delta - eta / 8.0)
    ok = low >= -PER_OP_TOL and excess <= PER_OP_TOL
    detail = f"{count} samples, min gap {low:.3g}, max gap excess {excess:.3g}"
    return PropertyResult(name, ok, detail, seed)


def _check_gap_posterior(seed: int, count: int) -> PropertyResult:
    """Gap bounded by (e-2)*eta*(1 - max weight) whenever eta <= 1."""
    name = "gap-posterior-lemma4"
    samples = _sample_rounds(seed, count, 1.0)
    # corner where the bound is nearly tight: the heavy action loses this
    # round; the gap approaches (e-2)*eta*q as the light weight q -> 0
    for q in (0.5, 0.1, 0.01, 0.001):
        for eta in (1.0, 0.999, 0.9, 0.75, 0.5, 0.25):
            samples.append(([1.0 - q, q], [1.0, 0.0], eta))
    excess = -math.inf
    where = -1
    for i, (w, l, eta) in enumerate(samples):
        snap = WeightSnapshot.from_weights(w)
        rep = mixability_gap(snap, LossVector(l), eta)
        over = rep.delta - bounds.lemma4_bound(eta, max(snap.weights))
        if over > excess:
            excess, where = over, i
    ok = excess <= PER_OP_TOL
    detail = f"{len(samples)} samples, max bound excess {excess:.3g} (sample {where})"
    return PropertyResult(name, ok, detail, seed)


def _check_factorization(
    seed: int, streams: int, samples: int, t: int = 200, k: int = 5
) -> PropertyResult:
    """The kernel's summed log mix factors, -eta * (agent loss - gap), equal
    the direct log marginal likelihood; and for any prior, the mix losses of
    losses l and then 1 - l, across one posterior update, sum to 1."""
    name = "factorization-chain-rule"
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
    return PropertyResult(name, ok, detail, seed)


def _check_gap_budget(seed: int, streams: int, t: int = 200, k: int = 5) -> PropertyResult:
    """Cumulative gap under (eta*L* + ln K)/(e-1) at every prefix, eta <= 1."""
    name = "gap-budget-lemma2"
    excess = -math.inf
    for s in range(streams):
        stream = _uniform_stream(derive_seed(seed, s), t, k)
        for eta in (1.0, 0.3):
            trace = run(FixedHedge(eta), stream)
            pairs = zip(trace.cum_gap.tolist(), trace.best_cum_loss.tolist())
            excess = max(excess, max(g - bounds.lemma2_bound(eta, b, k) for g, b in pairs))
    ok = excess <= ACCUMULATED_TOL
    detail = f"{streams} streams, max prefix excess {excess:.3g}"
    return PropertyResult(name, ok, detail, seed)


def _check_depletion_window(seed: int, streams: int, t: int = 2000, k: int = 5) -> PropertyResult:
    """AdaHedge's first three segments (eta = 1, 1/2, 1/4) each end with the
    gap in [b, b + eta/8) and regret under the square-root bound."""
    name = "depletion-window-theorem1"
    for s in range(streams):
        stream = _antithetic_stream(derive_seed(seed, s), t, k)
        trace = run(AdaHedge(phi=2.0), stream)
        starts = trace.segment_starts
        if len(starts) < 4:
            detail = f"stream {s}: {len(starts) - 1} depletions within {t} rounds, need 3"
            return PropertyResult(name, False, detail, seed)
        for first, nxt in zip(starts[:3], starts[1:4]):
            lo, hi = first - 1, nxt - 1  # the segment's rounds, as a slice
            eta = float(trace.eta[lo])
            b = bounds.budget(eta, k)
            gap = float(trace.cum_gap[hi - 1])
            if not (b <= gap < b + eta / 8.0 + PER_OP_TOL):
                detail = f"stream {s}, eta={eta}: gap {gap} left window [b, b+eta/8)"
                return PropertyResult(name, False, detail, seed)
            lstar = float(stream[lo:hi].sum(axis=0).min())
            regret = float(trace.agent_loss[lo:hi].sum()) - lstar
            limit = bounds.theorem1_bound(lstar, k)
            if not (regret < limit + ACCUMULATED_TOL):
                detail = f"stream {s}, eta={eta}: regret {regret:.6g} >= bound {limit:.6g}"
                return PropertyResult(name, False, detail, seed)
    return PropertyResult(name, True, f"{3 * streams} depletion windows inside bounds", seed)


def _lemma3_excess(trace, k: int, phi: float) -> float:
    by_segment = {int(m): bounds.lemma3_bound(int(m), k, phi) for m in np.unique(trace.segment)}
    limits = np.array([by_segment[int(m)] for m in trace.segment])
    return float(np.max(trace.regret - limits))


def _check_restart_regret(seed: int, streams: int, t: int = 600) -> PropertyResult:
    """AdaHedge regret stays below the m-segment restart bound every round."""
    name = "restart-regret-lemma3"
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
    return PropertyResult(name, ok, detail, seed)


def _check_alternating(seed: int, t: int) -> PropertyResult:
    """Deterministic easy case: leader-following regret at most 1, segment
    count capped by the two-action m* formula, and a flat regret tail."""
    name = "alternating-easy-case"
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
    return PropertyResult(name, not problems, detail, seed)


def _check_leader_trap(seed: int) -> PropertyResult:
    """Leader play forfeits at least T/2 - 1 on the alternating trap."""
    name = "leader-trap-floor"
    t = 1000
    trace = run(FollowTheLeader(), generate(FtlKiller(), t, 0))
    final = float(trace.regret[-1])
    ok = final >= t / 2 - 1
    return PropertyResult(name, ok, f"T={t}: regret {final} >= {t // 2 - 1}", seed)


def _check_posterior_tail(seed: int, t: int) -> PropertyResult:
    """Summed off-leader posterior mass on exact-linear-gap streams stays
    below the closed-form tail constant times 1/eta."""
    name = "posterior-tail-lemma5"
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
    return PropertyResult(name, ok, detail, seed)


def _check_bound_domain(seed: int) -> PropertyResult:
    """Every calculator is finite (and nonnegative where real-valued) on a
    grid of in-domain parameters."""
    name = "bound-domain-grid"
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
            if not isinstance(tau, int):
                bad.append(f"lemma6_tau({mstar},...) not an integer: {tau!r}")
    detail = "; ".join(bad) if bad else "all grid evaluations finite and in range"
    return PropertyResult(name, not bad, detail, seed)


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


# (check, quick-profile arguments, full-profile arguments), in report order
_CHECKS = (
    (_check_gap_range, (20_000,), (100_000,)),
    (_check_gap_posterior, (20_000,), (100_000,)),
    (_check_factorization, (30, 2000), (100, 20_000)),
    (_check_gap_budget, (30,), (100,)),
    (_check_depletion_window, (10,), (100,)),
    (_check_restart_regret, (10,), (30, 2000)),
    (_check_alternating, (20_000,), (100_000,)),
    (_check_leader_trap, (), ()),
    (_check_posterior_tail, (2000,), (5000,)),
    (_check_bound_domain, (), ()),
)


def run_suite(*, full: bool = False, seed: int = DEFAULT_SEED):
    """Run every property; returns (results, info_lines).

    The quick profile keeps the whole suite under ~10 seconds; the full
    profile uses acceptance-scale sample counts and also reruns the
    correlated-losses experiment for the informational segment report.
    """
    seed = int(seed)
    results = [
        check(derive_seed(seed, 1000 + i), *(full_args if full else quick_args))
        for i, (check, quick_args, full_args) in enumerate(_CHECKS)
    ]
    info = [_correlated_info(seed)] if full else []
    return results, info
