"""Monte-Carlo verification suites for the closed-form bounds.

Each suite returns a list of JSON-ready entries, one per checked instance,
with a boolean ``holds`` field. Empirical frequencies are compared against
bounds with a 3-standard-error margin; that margin is a verification-suite
convention, not part of the bounds themselves. All suites are deterministic
for a fixed seed.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import concentration_bound, kl_bound, kl_monte_carlo
from .errors import DomainError
from .estimators import davis_kahan_check, support_recovery_check
from .loss import loss_bounds_symmetric, loss_exact_linear
from .model import MixtureParams, _count, bayes_classifier, make_rng, stream_seed
from .packing import fano_check, local_triangle_check, lower_bound_family

__all__ = [
    "SUITES",
    "suite_loss_sandwich",
    "suite_kl",
    "suite_concentration",
    "suite_fano",
    "suite_triangle",
    "suite_davis_kahan",
    "suite_support_recovery",
]

SANDWICH_XI_GRID = (0.05, 0.1, 0.2, 0.5, 1.0)
SANDWICH_BETA_GRID = (0.05, 0.1, 0.3, 0.6)
SANDWICH_TOL = 1e-8  # quadrature tolerance of each loss
SANDWICH_MARGIN = 1e-7  # slack on either side of the sandwich
KL_SAMPLES = 100_000  # Monte-Carlo points per KL estimate
KL_SEED = 20240
CONCENTRATION_TRIALS = 100_000
CONCENTRATION_SEED = 77
# Davis-Kahan instances drawn, built and checked together; bounds the stacks' memory.
_DK_CHUNK = 128


def _symmetric_pair(xi: float, beta: float, sigma: float = 1.0, d: int = 2, mu0=None):
    """Equal-SNR mixtures whose signal directions differ by angle beta."""
    if d < 2:
        raise DomainError("need d >= 2 to realize an angle")
    center = np.zeros(d) if mu0 is None else np.asarray(mu0, dtype=float)
    h = np.zeros(d)
    h[0] = xi * sigma
    hp = np.zeros(d)
    hp[0] = xi * sigma * math.cos(beta)
    hp[1] = xi * sigma * math.sin(beta)
    return (
        MixtureParams(center - h, center + h, sigma),
        MixtureParams(center - hp, center + hp, sigma),
    )


def suite_loss_sandwich() -> list[dict]:
    """Quadrature loss of each grid configuration against its closed form
    sandwich [2 g(xi) sin b cos b, tan(b)/pi]."""
    out = []
    for xi in SANDWICH_XI_GRID:
        for beta in SANDWICH_BETA_GRID:
            theta, theta_p = _symmetric_pair(xi, beta)
            value = loss_exact_linear(theta, bayes_classifier(theta_p), tol=SANDWICH_TOL)
            lower, upper = loss_bounds_symmetric(xi, beta)
            holds = (lower - SANDWICH_MARGIN) <= value <= (upper + SANDWICH_MARGIN)
            out.append(
                {
                    "check": "loss_sandwich",
                    "xi": xi,
                    "beta": beta,
                    "lower": lower,
                    "loss": value,
                    "upper": upper,
                    "holds": holds,
                }
            )
    return out


def suite_kl(pairs: int = 200) -> list[dict]:
    """Monte-Carlo KL of random equal-norm symmetric pairs (xi <= 0.5)
    against the closed-form bound xi^4 (1 - cos beta)."""
    rng = make_rng(KL_SEED)
    out = []
    for k in range(_count("pairs", pairs)):
        d = int(rng.integers(2, 9))
        xi = float(rng.uniform(0.02, 0.5))
        beta = float(rng.uniform(0.0, math.pi / 2))
        sigma = float(rng.uniform(0.5, 2.0))
        mu0 = rng.normal(size=d)
        theta, theta_p = _symmetric_pair(xi, beta, sigma=sigma, d=d, mu0=mu0)
        est, se = kl_monte_carlo(theta, theta_p, n_samples=KL_SAMPLES, seed=stream_seed(KL_SEED, k))
        bound = kl_bound(xi, math.cos(beta))
        out.append(
            {
                "check": "kl_dominance",
                "d": d,
                "xi": xi,
                "cos_beta": math.cos(beta),
                "estimate": est,
                "std_err": se,
                "bound": bound,
                "holds": est <= bound + 3.0 * se,
            }
        )
    return out


def _freq_entry(check: str, params: dict, freq: float, bound: float) -> dict:
    se = math.sqrt(freq * (1.0 - freq) / CONCENTRATION_TRIALS)
    return {
        "check": check,
        **params,
        "frequency": freq,
        "trials": CONCENTRATION_TRIALS,
        "bound": bound,
        "holds": freq <= bound + 3.0 * se,
    }


def suite_concentration() -> list[dict]:
    """Empirical tail frequencies against the chi-square and product-normal
    bounds on the module's parameter grid. Each product-normal mean is drawn
    from its exact law, a scaled difference of two chi-square variables."""
    out = []
    for i, d in enumerate((5, 50)):
        rng = make_rng(stream_seed(CONCENTRATION_SEED, i))
        x = rng.chisquare(d, size=CONCENTRATION_TRIALS)
        for eps in (0.1, 0.5, 1.0):
            freq = float(np.mean(x > (1.0 + eps) * d))
            out.append(_freq_entry("chisq_upper", {"d": d, "eps": eps}, freq, concentration_bound("chisq_upper", d=d, eps=eps)))
        for eps in (0.1, 0.5):
            freq = float(np.mean(x < (1.0 - eps) * d))
            out.append(_freq_entry("chisq_lower", {"d": d, "eps": eps}, freq, concentration_bound("chisq_lower", d=d, eps=eps)))
    for i, n in enumerate((50, 500)):
        # With z1, z2 iid N(0, 1), u, v = (z1 +/- z2)/sqrt(2) are iid N(0, 1) and
        # z1 z2 = (u^2 - v^2)/2: a mean of n products is (A - B)/(2n), A, B iid chi^2_n.
        rng = make_rng(stream_seed(CONCENTRATION_SEED, 100 + i))
        means = (rng.chisquare(n, CONCENTRATION_TRIALS) - rng.chisquare(n, CONCENTRATION_TRIALS)) / (2.0 * n)
        for eps in (0.1, 0.5, 1.0):
            freq = float(np.mean(np.abs(means) > eps / 2.0))
            out.append(_freq_entry("prodnormal", {"n": n, "eps": eps}, freq, concentration_bound("prodnormal", n=n, eps=eps)))
    return out


def suite_fano(families=None) -> list[dict]:
    """KL budget and pairwise loss window of the lower-bound families."""
    if families is None:
        families = [
            lower_bound_family("dense", 10_000, 9, lam=0.2),
            lower_bound_family("sparse", 10_000, 17, s=4, lam=0.2),
        ]
    out = []
    for fam in families:
        rep = fano_check(fam)
        entry = rep.to_json_dict()
        entry["check"] = "fano"
        entry["regime"] = fam.regime
        # A certificate whose implied lower bound is not positive certifies
        # nothing: gamma < 0 for a dense family past lambda/sigma of about 0.48.
        entry["holds"] = rep.holds and rep.window_holds and rep.implied_lower_bound > 0
        out.append(entry)
    return out


def suite_triangle(seed: int = 0) -> list[dict]:
    """Local triangle inequality on family pairs and an identity case. The
    dense family has no seed: ``seed`` stays only as perfbench passes it."""
    dense = lower_bound_family("dense", 10_000, 9, lam=0.2)
    out = []
    theta0 = dense.thetas[0]
    ident = local_triangle_check(theta0, theta0, bayes_classifier(theta0))
    entry = ident.to_json_dict()
    entry.update({"check": "triangle_identity", "holds": bool(ident.applicable and ident.holds)})
    out.append(entry)
    clf0 = bayes_classifier(theta0)
    for i in range(1, dense.size):
        for j in range(dense.size):
            if i == j:
                continue
            rep = local_triangle_check(dense.thetas[i], dense.thetas[j], clf0)
            entry = rep.to_json_dict()
            entry.update(
                {
                    "check": "triangle_pair",
                    "i": i,
                    "j": j,
                    "holds": bool(rep.holds) if rep.applicable else True,  # vacuous when not applicable
                }
            )
            out.append(entry)
    return out


def suite_davis_kahan(instances: int = 1000, seed: int = 4242) -> list[dict]:
    """Random admissible (a, e) pairs in d = 2..10; the perturbation bound must hold on all.

    Each instance draws its values in turn from the one generator; a chunk of
    instances is then built and checked as one stack per dimension, each
    member with the bits of its own per-instance computation.
    """
    instances = _count("instances", instances)
    rng = make_rng(seed)
    failures = 0
    worst_ratio = 0.0
    for start in range(0, instances, _DK_CHUNK):
        # By dimension, each instance's draws in turn: q's source, the
        # eigenvalues, the gap, e's source and ||e||_2 as a share of gap/5.
        draws: dict[int, list] = {}
        for _ in range(min(_DK_CHUNK, instances - start)):
            d = int(rng.integers(2, 11))
            draws.setdefault(d, []).append(
                (rng.normal(size=(d, d)), rng.uniform(-1.0, 1.0, size=d), rng.uniform(0.1, 2.0), rng.normal(size=(d, d)), rng.uniform(0.05, 1.0))
            )
        for group in draws.values():
            z, ev, gap_draw, noise, share = map(np.array, zip(*group))
            q, _ = np.linalg.qr(z)
            evals = np.sort(ev)[:, ::-1]
            evals[:, 0] = evals[:, 1] + gap_draw  # enforce a usable gap
            a = np.matmul(q * evals[:, None, :], np.swapaxes(q, -2, -1))
            a = (a + np.swapaxes(a, -2, -1)) / 2.0
            gap = evals[:, 0] - evals[:, 1]
            e = (noise + np.swapaxes(noise, -2, -1)) / 2.0
            e *= (share * (gap / 5.0) / np.linalg.norm(e, 2, axis=(-2, -1)))[:, None, None]
            rep = davis_kahan_check(a, e)
            failures += int(np.count_nonzero(~rep.holds))
            positive = rep.bound > 0
            worst_ratio = max(worst_ratio, float((rep.sin_angle[positive] / rep.bound[positive]).max(initial=0.0)))
    return [
        {
            "check": "davis_kahan",
            "instances": instances,
            "failures": failures,
            "worst_ratio": worst_ratio,
            "holds": failures == 0,
        }
    ]


def suite_support_recovery() -> list[dict]:
    """Frequency of exact screening recovery against the 1 - 6/n floor, over
    500 replicates of n = 4000 points in d = 256 with 4 coordinates at 2 sigma."""
    h = np.zeros(256)
    h[:4] = 2.0
    theta = MixtureParams(-h, h, 1.0)
    rep = support_recovery_check(theta, 4000, 500, seed=31)
    se = math.sqrt(max(rep.floor * (1.0 - rep.floor), 0.0) / rep.replicates)
    entry = rep.to_json_dict()
    entry["check"] = "support_recovery"
    entry["margin_3se"] = 3.0 * se
    entry["holds"] = rep.frequency >= rep.floor - 3.0 * se
    return [entry]


SUITES = {
    "loss-sandwich": suite_loss_sandwich,
    "kl": suite_kl,
    "concentration": suite_concentration,
    "fano": suite_fano,
    "triangle": suite_triangle,
    "davis-kahan": suite_davis_kahan,
    "support-recovery": suite_support_recovery,
}
