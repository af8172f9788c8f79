"""Closed-form bound evaluators and their Monte-Carlo verification hooks.

Every function evaluates a displayed right-hand side verbatim, with natural
logarithms throughout. Values above 1/2 are reported as-is (the raw formula
value is what the inequality asserts); consumers may annotate them as vacuous
but must not clip them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, _require
from .estimators import screening_alpha
from .model import MixtureParams, _block_rows, _count, _log_density_kernel, _placer, _positive, _real_number, _squarable, make_rng
from .model import mixture_log_density, sample  # not called here; perfbench/tracing.py BINDINGS rebinds these names

__all__ = [
    "theorem_bound",
    "kl_bound",
    "kl_monte_carlo",
    "concentration_bound",
    "general_loss_upper",
    "THEOREM_KINDS",
    "CONCENTRATION_KINDS",
]

THEOREM_KINDS = ("thm1_upper", "thm1_upper_largesep", "thm2_lower", "thm3_upper", "thm4_lower")
# The parameters each concentration kind reads.
_CONCENTRATION_PARAMS = {
    "chisq_upper": ("d", "eps"),
    "chisq_lower": ("d", "eps"),
    "gaussian_mean": ("d", "eps"),
    "prodnormal": ("n", "eps"),
    "wishart_spectral": ("n", "d", "delta"),
    "mean_concentration": ("n", "d", "delta", "mu_norm", "sigma"),
    "angle_concentration": ("n", "d", "delta", "mu_norm", "sigma"),
    "perdim_variance": ("n", "delta", "mu_i", "sigma"),
}
CONCENTRATION_KINDS = tuple(_CONCENTRATION_PARAMS)


# The checker of each bound parameter that is not any finite real; formulas square the last four.
_CHECKS = {"n": _count, "d": _count, "s": _count, "lambda": _positive, "sigma": _positive, "mu_norm": _squarable, "mu_i": _squarable}


def _checked(name: str, value):
    """A bound parameter read by the ``model`` checker of its kind, or
    DomainError naming it; mu_norm must also be nonnegative."""
    x = _CHECKS.get(name, _real_number)(name, value)
    if name == "mu_norm" and x < 0.0:
        raise DomainError(f"mu_norm must be nonnegative, got {value!r}")
    return x


def theorem_bound(kind: str, *, n: int, d: int, lam: float, s: int | None = None) -> float:
    """Evaluate one of the headline minimax bounds, at lambda in units of sigma.

    Only thm3_upper and thm4_lower read ``s``, and they require it; the other
    kinds reject it. Each kind enforces its stated hypotheses and raises
    PreconditionViolated naming the failed condition. The constants are loose
    by design; values above 1/2 are expected at desk scale.
    """
    if kind not in THEOREM_KINDS:
        raise DomainError(f"unknown theorem kind {kind!r}")
    sparse = kind in ("thm3_upper", "thm4_lower")
    if (s is None) == sparse:
        raise DomainError(f"s is {'required' if sparse else 'not read'} by {kind}")
    n, d, lam = _checked("n", n), _checked("d", d), _checked("lambda", lam)
    if sparse:
        s = _checked("s", s)

    if kind == "thm1_upper":
        _require(n >= max(68, 4 * d), f"requires n >= max(68, 4d) = {max(68, 4 * d)}, got n = {n}")
        return 600.0 * max(4.0 / lam**2, 1.0) * math.sqrt(d * math.log(n * d) / n)

    if kind == "thm1_upper_largesep":
        thresh = 2.0 * max(80.0, 14.0 * math.sqrt(5.0 * d))
        _require(lam >= thresh, f"requires lambda >= {thresh:.6g}, got {lam:.6g}")
        return 17.0 * math.exp(-n / 32.0) + 9.0 * math.exp(-(lam**2) / 80.0)

    if kind == "thm2_lower":
        _require(d >= 9, f"requires d >= 9, got d = {d}")
        _require(lam <= 0.2, f"requires lambda <= 0.2, got {lam:.6g}")
        return (1.0 / 500.0) * min(
            (math.sqrt(math.log(2.0)) / 3.0) * (1.0 / lam**2) * math.sqrt((d - 1) / n), 0.25
        )

    if kind == "thm3_upper":
        _require(n >= max(68, 4 * s), f"requires n >= max(68, 4s) = {max(68, 4 * s)}, got n = {n}")
        _require(d >= 2, f"requires d >= 2, got d = {d}")
        alpha = screening_alpha(n, d)
        _require(alpha <= 0.25, f"requires alpha <= 1/4, got alpha = {alpha:.4f}")
        _require(s <= d, f"requires 1 <= s <= d = {d}, got s = {s}")
        return 603.0 * max(16.0 / lam**2, 1.0) * math.sqrt(s * math.log(n * s) / n) + 220.0 * (
            math.sqrt(s) / lam
        ) * (math.log(n * d) / n) ** 0.25

    # thm4_lower
    _require(lam <= 0.2, f"requires lambda <= 0.2, got {lam:.6g}")
    _require(d >= 17, f"requires d >= 17, got d = {d}")
    _require(5 <= s <= (d - 1) / 4 + 1, f"requires 5 <= s <= (d-1)/4 + 1 = {(d - 1) / 4 + 1:.6g}, got s = {s}")
    return (1.0 / 600.0) * min(
        math.sqrt(8.0 / 45.0) * (1.0 / lam**2) * math.sqrt((s - 1) / n * math.log((d - 1) / (s - 1))),
        0.5,
    )


def kl_bound(xi: float, cos_beta: float) -> float:
    """xi^4 (1 - cos beta): KL bound for an equal-norm symmetric pair.

    ``xi`` is ||h||/sigma, below 2^256 so that xi^4 is finite, and
    ``cos_beta`` the absolute cosine between the two signal directions (so it
    must lie in [0, 1]).
    """
    xi = _real_number("xi", xi)
    cos_beta = _real_number("cos_beta", cos_beta)
    if xi < 0.0:
        raise DomainError(f"xi must be nonnegative, got {xi}")
    if xi >= 2.0**256:
        raise DomainError(f"xi must be below 2^256 so that xi^4 is finite, got {xi}")
    if not (0.0 <= cos_beta <= 1.0):
        raise DomainError(f"cos_beta must lie in [0, 1] (it is an absolute cosine), got {cos_beta}")
    return xi**4 * (1.0 - cos_beta)


def kl_monte_carlo(
    theta: MixtureParams, theta_prime: MixtureParams, n_samples: int = 100_000, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo estimate of KL(P_theta, P_theta') with its standard error.

    Averages log p_theta(X) - log p_theta'(X) over X ~ P_theta; deterministic
    for a fixed seed.
    """
    if theta.d != theta_prime.d:
        raise DomainError(f"dimensions differ: {theta.d} vs {theta_prime.d}")
    _require(theta.sigma == theta_prime.sigma, "the two mixtures must share sigma")
    n_samples = _count("n_samples", n_samples)
    if n_samples < 10_000:
        raise DomainError(f"need at least 1e4 samples, got {n_samples}")
    # sample's draws and steps, block by block: the same rows, bit for bit,
    # and no (n, d) array. Beside the labels and diff, one block's buffers.
    step = _block_rows(n_samples, theta.d)
    place = _placer(theta, step)
    log_p, log_q = _log_density_kernel(theta, step), _log_density_kernel(theta_prime, step)
    block, other = np.empty((step, theta.d)), np.empty(step)
    rng = make_rng(seed)
    labels = rng.integers(0, 2, size=n_samples)
    diff = np.empty(n_samples)
    for start in range(0, n_samples, step):
        m = min(step, n_samples - start)
        z, res = block[:m], diff[start : start + m]
        rng.standard_normal(out=z)
        place(z, labels[start : start + m])
        log_p(z, res)
        res -= log_q(z, other[:m])
    est = float(np.mean(diff))
    se = float(np.std(diff, ddof=1) / math.sqrt(n_samples))
    return est, se


def _chisq_upper(d: int, eps: float) -> float:
    return math.exp(-0.5 * d * (eps - math.log1p(eps)))


def concentration_bound(kind: str, **params) -> float:
    """Evaluate one of the appendix concentration tails verbatim.

    Parameter names follow the formulas: d, n, eps, delta, mu_norm, mu_i,
    sigma. Each kind takes exactly the parameters its formula reads (a
    DomainError names one that is missing or not read) and validates their
    domain (for example the lower chi-square tail needs eps < 1).
    """
    if kind not in CONCENTRATION_KINDS:
        raise DomainError(f"unknown concentration kind {kind!r}")
    reads = _CONCENTRATION_PARAMS[kind]
    odd = sorted(set(reads) ^ set(params))  # missing or not read
    if odd:
        raise DomainError(f"{odd[0]} is {'required' if odd[0] in reads else 'not read'} by {kind}, which reads {', '.join(reads)}")
    p = {name: _checked(name, params[name]) for name in reads}

    if kind == "chisq_upper":
        d, eps = p["d"], p["eps"]
        _require(eps > 0.0, "chisq_upper needs eps > 0")
        return _chisq_upper(d, eps)

    if kind == "chisq_lower":
        d, eps = p["d"], p["eps"]
        _require(0.0 < eps < 1.0, f"chisq_lower needs eps < 1, got eps = {eps}")
        return math.exp(0.5 * d * (eps + math.log1p(-eps)))

    if kind == "gaussian_mean":
        # P(||mean of n standard normals|| >= sqrt((1+eps) d / n)) obeys the
        # upper chi-square tail; the bound value does not involve n.
        d, eps = p["d"], p["eps"]
        _require(eps > 0.0, "gaussian_mean needs eps > 0")
        return _chisq_upper(d, eps)

    if kind == "prodnormal":
        n, eps = p["n"], p["eps"]
        _require(eps > 0.0, "prodnormal needs eps > 0")
        return 2.0 * math.exp(-n * eps * min(1.0, eps) / 10.0)

    if kind == "wishart_spectral":
        n, d, delta = p["n"], p["d"], p["delta"]
        _require(0.0 < delta < 1.0, "wishart_spectral needs 0 < delta < 1")
        _require(n >= d, f"wishart_spectral needs n >= d, got n = {n}, d = {d}")
        ld = math.log(1.0 / delta)
        first_fac = (1.0 + math.sqrt(2.0 * ld / d)) * math.sqrt(d / n)
        term1 = 3.0 * first_fac * max(1.0, first_fac)
        term2 = (1.0 + math.sqrt((8.0 * ld / d) * max(1.0, 8.0 * ld / d))) * d / n
        return term1 + term2

    if kind == "mean_concentration":
        n, d, delta = p["n"], p["d"], p["delta"]
        mu_norm, sigma = p["mu_norm"], p["sigma"]
        _require(0.0 < delta < 1.0, "mean_concentration needs 0 < delta < 1")
        ld = math.log(1.0 / delta)
        return sigma * math.sqrt(2.0 * max(d, 8.0 * ld) / n) + mu_norm * math.sqrt(2.0 * ld / n)

    if kind == "angle_concentration":
        n, d, delta = p["n"], p["d"], p["delta"]
        mu_norm, sigma = p["mu_norm"], p["sigma"]
        _require(d > 1, "angle_concentration needs d > 1")
        _require(0.0 < delta < (d - 1) / math.sqrt(math.e), "angle_concentration needs 0 < delta < (d-1)/sqrt(e)")
        _require(mu_norm > 0.0, "angle_concentration needs mu_norm > 0")
        ratio = max(sigma**2 / mu_norm**2, sigma / mu_norm)
        inner = 10.0 * math.log(d / delta) / n
        return 14.0 * ratio * math.sqrt(d) * math.sqrt(inner * max(1.0, inner))

    # perdim_variance
    n, delta = p["n"], p["delta"]
    mu_i, sigma = p["mu_i"], p["sigma"]
    _require(0.0 < delta < 1.0 / math.sqrt(math.e), "perdim_variance needs 0 < delta < 1/sqrt(e)")
    ld = math.log(1.0 / delta)
    _require(math.sqrt(6.0 * ld / n) <= 0.5, "perdim_variance needs sqrt(6 log(1/delta)/n) <= 1/2")
    a = abs(mu_i)
    return (
        sigma**2 * math.sqrt(6.0 * ld / n)
        + 2.0 * sigma * a * math.sqrt(2.0 * ld / n)
        + (sigma + a) ** 2 * 2.0 * ld / n
    )


def general_loss_upper(eps1: float, eps2: float, sin_beta: float, mu_over_sigma: float) -> float:
    """Loss bound for a linear rule with controlled threshold and angle error.

    ``mu_over_sigma`` is the half-separation in noise units. Requires
    eps1 >= 0, 0 <= eps2 <= 1/4 and sin_beta <= 1/sqrt(5).
    """
    eps1, eps2 = _real_number("eps1", eps1), _real_number("eps2", eps2)
    # The envelope squares mu_over_sigma / 2.
    sin_beta, m = _real_number("sin_beta", sin_beta), _squarable("mu_over_sigma", mu_over_sigma)
    _require(eps1 >= 0.0, f"eps1 must be nonnegative, got {eps1}")
    _require(0.0 <= eps2 <= 0.25, f"eps2 must lie in [0, 1/4], got {eps2}")
    _require(0.0 <= sin_beta <= 1.0 / math.sqrt(5.0), f"sin_beta must lie in [0, 1/sqrt(5)], got {sin_beta}")
    if m < 0.0:
        raise DomainError("mu_over_sigma must be nonnegative")
    envelope = math.exp(-0.5 * max(0.0, m / 2.0 - 2.0 * eps1) ** 2)
    return envelope * (2.0 * eps1 + eps2 * m + 2.0 * sin_beta * (2.0 * sin_beta * m + 1.0))
