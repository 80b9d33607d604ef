"""Closed-form regret guarantees for the Hedge family.

Each function evaluates one of the library's numbered guarantees (the same
names the ``adahedge bounds`` subcommand exposes).  All preconditions are
checked and reported by name; nothing is clamped silently.
"""

from __future__ import annotations

import math

from .core import _check_int

__all__ = [
    "GOLDEN_RATIO",
    "budget",
    "lemma2_bound",
    "eta_floor",
    "theorem1_bound",
    "lemma3_bound",
    "theorem2_leading_factor",
    "lemma4_bound",
    "lemma5_ck",
    "lemma5_bound",
    "intro_mstar",
    "theorem3_mstar",
    "lemma6_tau",
]

_E1 = math.e - 1.0  # e - 1
_E2 = math.e - 2.0  # e - 2

#: Minimiser (to first order) of ``theorem2_leading_factor``.
GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def _check(name: str, ok: bool, requirement: str):
    if not ok:
        raise ValueError(f"{name} {requirement}")


def _check_k(k: int) -> int:
    return _check_int("k", k, 2)


def _check_phi(phi: float) -> float:
    phi = float(phi)
    _check("phi", math.isfinite(phi) and phi > 1.0, "must be finite and > 1")
    return phi


def budget(eta: float, k: int) -> float:
    """Cumulative-gap budget b(eta) = (1/eta + 1/(e-1)) * ln(k).

    A fixed-rate Hedge run is said to deplete its budget once its summed
    per-round gaps reach this value.
    """
    eta = float(eta)
    _check("eta", math.isfinite(eta) and eta > 0.0, "must be > 0")
    k = _check_k(k)
    return (1.0 / eta + 1.0 / _E1) * math.log(k)


def lemma2_bound(eta: float, lstar: float, k: int) -> float:
    """Upper bound (eta*lstar + ln k)/(e-1) on the cumulative gap, eta <= 1."""
    eta = float(eta)
    _check("eta", math.isfinite(eta) and 0.0 < eta <= 1.0, "must be in (0, 1]")
    lstar = float(lstar)
    _check("lstar", math.isfinite(lstar) and lstar >= 0.0, "must be >= 0")
    k = _check_k(k)
    return (eta * lstar + math.log(k)) / _E1


def eta_floor(lstar: float, k: int) -> float:
    """Smallest rate sqrt((e-1)*ln(k)/lstar) a depleted run can have used."""
    lstar = float(lstar)
    _check("lstar", math.isfinite(lstar) and lstar > 0.0, "must be > 0")
    k = _check_k(k)
    return math.sqrt(_E1 * math.log(k) / lstar)


def theorem1_bound(lstar: float, k: int) -> float:
    """Regret bound sqrt(4/(e-1)*lstar*ln k) + ln(k)/(e-1) + 1/8 at depletion."""
    lstar = float(lstar)
    _check("lstar", math.isfinite(lstar) and lstar >= 0.0, "must be >= 0")
    k = _check_k(k)
    lnk = math.log(k)
    return math.sqrt(4.0 / _E1 * lstar * lnk) + lnk / _E1 + 0.125


def lemma3_bound(m: int, k: int, phi: float) -> float:
    """Regret bound after m restarts with rate divided by phi each time.

    Equals 2*ln(k)*(phi**m - 1)/(phi - 1) + m*(ln(k)/(e-1) + 1/8).
    """
    m = _check_int("m", m, 1)
    k = _check_k(k)
    phi = _check_phi(phi)
    lnk = math.log(k)
    return 2.0 * lnk * (phi**m - 1.0) / (phi - 1.0) + m * (lnk / _E1 + 0.125)


def theorem2_leading_factor(phi: float) -> float:
    """Leading constant phi*sqrt(phi**2 - 1)/(phi - 1) of the adaptive bound.

    Minimised near the golden ratio (~3.33 there, ~3.46 at phi = 2).
    """
    phi = _check_phi(phi)
    return phi * math.sqrt(phi * phi - 1.0) / (phi - 1.0)


def lemma4_bound(eta: float, wstar: float) -> float:
    """Gap bound (e-2)*eta*(1 - wstar) given the best action's weight, eta <= 1."""
    eta = float(eta)
    _check("eta", math.isfinite(eta) and 0.0 < eta <= 1.0, "must be in (0, 1]")
    wstar = float(wstar)
    _check("wstar", 0.0 <= wstar <= 1.0, "must be in [0, 1]")
    return _E2 * eta * (1.0 - wstar)


def lemma5_ck(k: int, alpha: float, beta: float) -> float:
    """Tail constant C = (k-1) * alpha**(-1/beta) * Gamma(1 + 1/beta).

    Used when every other action's cumulative loss exceeds the best one's
    by at least alpha * t**beta.  beta below 1/10 is rejected (the Gamma
    argument would leave the supported range).
    """
    k = _check_k(k)
    alpha = float(alpha)
    _check("alpha", math.isfinite(alpha) and alpha > 0.0, "must be > 0")
    beta = float(beta)
    _check("beta", math.isfinite(beta) and beta >= 0.1, "must be >= 1/10")
    return (k - 1) * alpha ** (-1.0 / beta) * math.gamma(1.0 + 1.0 / beta)


def lemma5_bound(k: int, alpha: float, beta: float, eta: float) -> float:
    """Bound C * eta**(-1/beta) on the summed posterior mass off the best action."""
    ck = lemma5_ck(k, alpha, beta)
    eta = float(eta)
    _check("eta", math.isfinite(eta) and eta > 0.0, "must be > 0")
    return ck * eta ** (-1.0 / float(beta))


def intro_mstar(alpha: float, phi: float) -> int:
    """Cap on segments started in the two-action linearly-diverging case.

    Equals 1 + ceil(log_phi((e-2)/(alpha*ln 2) + 1/(8*ln 2))), at least 2.
    With losses in [0, 1] the per-round divergence alpha is at most 1.
    """
    alpha = float(alpha)
    _check("alpha", 0.0 < alpha <= 1.0, "must be in (0, 1]")
    phi = _check_phi(phi)
    ln2 = math.log(2.0)
    inner = _E2 / (alpha * ln2) + 1.0 / (8.0 * ln2)
    return 1 + math.ceil(math.log(inner) / math.log(phi))


def theorem3_mstar(alpha: float, delta_prob: float, k: int, phi: float) -> int:
    """High-probability segment cap for i.i.d. losses with mean gap 2*alpha.

    Holds with probability at least 1 - delta_prob; requires alpha <= 1/2.
    """
    alpha = float(alpha)
    _check("alpha", math.isfinite(alpha) and 0.0 < alpha <= 0.5, "must be in (0, 1/2]")
    delta_prob = float(delta_prob)
    _check("delta_prob", 0.0 < delta_prob <= 1.0, "must be in (0, 1]")
    k = _check_k(k)
    phi = _check_phi(phi)
    lnk = math.log(k)
    a2 = alpha * alpha
    inner = (
        (k - 1) * _E2 / (alpha * lnk)
        + math.log(2.0 * k / (a2 * delta_prob)) / (4.0 * a2 * lnk)
        + 1.0 / (8.0 * lnk)
    )
    return 1 + math.ceil(math.log(inner) / math.log(phi))


def lemma6_tau(mstar: int, k: int, alpha: float, beta: float, phi: float) -> int:
    """Horizon floor(8*ln(k)*phi**((mstar-1)*(2-1/beta)) - 8*(e-2)*C + 1)
    by which a diverging stream can no longer exceed mstar segments.

    A horizon is a round, so the result is at least 1: once the formula
    drops below round 1 (a large tail constant C), the segment cap holds
    from round 1 on.  Requires beta > 1/2 so that the exponent 2 - 1/beta
    is positive.
    """
    mstar = _check_int("mstar", mstar, 1)
    beta = float(beta)
    _check("beta", math.isfinite(beta) and beta > 0.5, "must be > 1/2")
    ck = lemma5_ck(k, alpha, beta)
    k = _check_k(k)
    phi = _check_phi(phi)
    value = 8.0 * math.log(k) * phi ** ((mstar - 1) * (2.0 - 1.0 / beta)) - 8.0 * _E2 * ck + 1.0
    return max(1, math.floor(value))
