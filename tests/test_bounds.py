"""Tests for the closed-form bound evaluators and their MC verifiers."""

import hashlib
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.special import chdtr, chdtrc
from scipy.stats import binomtest, ks_2samp

from mixbench.bounds import (
    THEOREM_KINDS,
    concentration_bound,
    general_loss_upper,
    kl_bound,
    kl_monte_carlo,
    theorem_bound,
)
from mixbench.errors import DomainError, MixbenchError, PreconditionViolated
from mixbench.loss import loss_exact_linear
from mixbench.model import LinearClassifier, MixtureParams, mixture_log_density, sample, stream_seed
from mixbench.verify import suite_concentration


class TestTheoremBound:
    def test_thm1_frozen_value(self):
        assert theorem_bound("thm1_upper", n=10**4, d=10, lam=1.0) == pytest.approx(
            257.51592315472167, rel=1e-12
        )

    def test_thm1_hypothesis(self):
        with pytest.raises(PreconditionViolated):
            theorem_bound("thm1_upper", n=50, d=10, lam=1.0)
        with pytest.raises(PreconditionViolated):
            theorem_bound("thm1_upper", n=100, d=30, lam=1.0)  # n < 4d

    def test_thm1_largesep(self):
        lam = 2.0 * max(80.0, 14.0 * math.sqrt(50.0)) + 1.0
        val = theorem_bound("thm1_upper_largesep", n=1000, d=10, lam=lam)
        expected = 17.0 * math.exp(-1000 / 32.0) + 9.0 * math.exp(-(lam**2) / 80.0)
        assert val == pytest.approx(expected, rel=1e-12)
        with pytest.raises(PreconditionViolated):
            theorem_bound("thm1_upper_largesep", n=1000, d=10, lam=10.0)

    def test_thm2_frozen_value(self):
        assert theorem_bound("thm2_lower", n=10**4, d=10, lam=0.2) == pytest.approx(
            4.162773055788489e-4, rel=1e-10
        )

    def test_thm2_hypotheses(self):
        with pytest.raises(PreconditionViolated):
            theorem_bound("thm2_lower", n=10**4, d=5, lam=0.2)
        with pytest.raises(PreconditionViolated):
            theorem_bound("thm2_lower", n=10**4, d=10, lam=0.5)

    def test_thm3_value_and_hypotheses(self):
        n, d, s, lam = 10**4, 100, 4, 1.0
        alpha = math.sqrt(6 * math.log(n * d) / n) + 2 * math.log(n * d) / n
        assert alpha <= 0.25
        expected = 603.0 * 16.0 * math.sqrt(s * math.log(n * s) / n) + 220.0 * (
            math.sqrt(s) / lam
        ) * (math.log(n * d) / n) ** 0.25
        assert theorem_bound("thm3_upper", n=n, d=d, s=s, lam=lam) == pytest.approx(expected, rel=1e-12)
        with pytest.raises(PreconditionViolated):
            theorem_bound("thm3_upper", n=100, d=100, s=4, lam=1.0)  # alpha > 1/4

    def test_thm4_value_and_hypotheses(self):
        val = theorem_bound("thm4_lower", n=10**4, d=41, s=5, lam=0.2)
        expected = (1.0 / 600.0) * min(
            math.sqrt(8.0 / 45.0) * 25.0 * math.sqrt(4.0 / 10**4 * math.log(40.0 / 4.0)), 0.5
        )
        assert val == pytest.approx(expected, rel=1e-12)
        with pytest.raises(PreconditionViolated):
            theorem_bound("thm4_lower", n=10**4, d=16, s=5, lam=0.2)  # d < 17
        with pytest.raises(PreconditionViolated):
            theorem_bound("thm4_lower", n=10**4, d=41, s=12, lam=0.2)  # s too large
        with pytest.raises(PreconditionViolated):
            theorem_bound("thm4_lower", n=10**4, d=41, s=4, lam=0.2)  # s < 5

    def test_sigma_is_not_a_parameter(self):
        # Every kind reads lambda and sigma only through lambda / sigma, so
        # lambda is given in units of sigma.
        with pytest.raises(TypeError, match="sigma"):
            theorem_bound("thm1_upper", n=10**4, d=10, lam=1.0, sigma=1.0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            theorem_bound("thm9", n=100, d=10, lam=1.0)

    @pytest.mark.parametrize("kind, lam", [("thm1_upper", 1.0), ("thm1_upper_largesep", 300.0), ("thm2_lower", 0.2)])
    def test_s_rejected_where_not_read(self, kind, lam):
        # s = 5 returned the value these kinds give for any s.
        with pytest.raises(DomainError, match=f"^s is not read by {kind}$"):
            theorem_bound(kind, n=10**4, d=10, lam=lam, s=5)

    @pytest.mark.parametrize("kind", ["thm3_upper", "thm4_lower"])
    def test_s_required_where_read(self, kind):
        with pytest.raises(DomainError, match=f"^s is required by {kind}$"):
            theorem_bound(kind, n=10**4, d=41, lam=0.2)

    @pytest.mark.parametrize("s", [11, 50])
    def test_thm3_s_above_d_rejected(self, s):
        # s = 50 > d = 10 returned 2757.87.
        with pytest.raises(PreconditionViolated, match=f"^requires 1 <= s <= d = 10, got s = {s}$"):
            theorem_bound("thm3_upper", n=10**4, d=10, s=s, lam=1.0)

    def test_thm3_s_equal_d_accepted(self):
        assert math.isfinite(theorem_bound("thm3_upper", n=10**4, d=10, s=10, lam=1.0))

    def test_monotonicity(self):
        # thm1 decreasing in n, increasing in d
        b = lambda n, d: theorem_bound("thm1_upper", n=n, d=d, lam=1.0)
        assert b(20000, 10) < b(10000, 10)
        assert b(10000, 20) > b(10000, 10)
        # thm2 increasing in d, decreasing in n and lambda
        c = lambda n, d, lam: theorem_bound("thm2_lower", n=n, d=d, lam=lam)
        assert c(10**6, 20, 0.1) > c(10**6, 10, 0.1)
        assert c(4 * 10**6, 10, 0.1) < c(10**6, 10, 0.1)
        assert c(10**6, 10, 0.2) < c(10**6, 10, 0.1)

    def test_nonnegative(self):
        for kind, kwargs in [
            ("thm1_upper", dict(n=10**4, d=10, lam=1.0)),
            ("thm2_lower", dict(n=10**4, d=10, lam=0.2)),
            ("thm3_upper", dict(n=10**4, d=100, s=4, lam=1.0)),
            ("thm4_lower", dict(n=10**4, d=41, s=5, lam=0.2)),
        ]:
            assert theorem_bound(kind, **kwargs) >= 0.0


class TestParameterDomain:
    """n and d are whole numbers >= 1, s is a whole number, every real is
    finite, sigma is positive, mu_norm is nonnegative, and a real that a
    formula squares is 0 or lies between 2^-510 and 2^510 in magnitude; a bad
    value is rejected by name, not truncated, divided by, overflowed or
    passed on as NaN."""

    @pytest.mark.parametrize(
        "kind, kwargs, name",
        [
            ("thm2_lower", dict(n=0, d=10, lam=0.2), "n"),
            ("thm4_lower", dict(n=0, d=41, s=5, lam=0.2), "n"),
            ("thm1_upper_largesep", dict(n=-5, d=10, lam=200.0), "n"),
            ("thm1_upper_largesep", dict(n=1000, d=-1, lam=200.0), "d"),
            ("thm2_lower", dict(n=10**4, d=10.5, lam=0.2), "d"),
            ("thm3_upper", dict(n=10**4, d=100, s=4.5, lam=1.0), "s"),
            ("thm1_upper", dict(n=10**4, d=10, lam=float("inf")), "lambda"),
            ("thm1_upper", dict(n=10**4, d=10, lam=float("nan")), "lambda"),
            ("thm2_lower", dict(n=10**4, d=10, lam=-float("inf")), "lambda"),
            ("thm2_lower", dict(n=True, d=10, lam=0.2), "n"),
            ("thm1_upper", dict(n=10**4, d=10, lam="1.0"), "lambda"),
            # lambda**2 underflowed to 0, then a ZeroDivisionError; or overflowed.
            ("thm1_upper", dict(n=10**4, d=10, lam=1e-200), "lambda"),
            ("thm2_lower", dict(n=10**4, d=10, lam=1e-200), "lambda"),
            ("thm3_upper", dict(n=10**4, d=100, s=4, lam=1e-200), "lambda"),
            ("thm4_lower", dict(n=10**4, d=41, s=5, lam=1e-200), "lambda"),
            ("thm1_upper_largesep", dict(n=10**4, d=10, lam=1e200), "lambda"),
        ],
    )
    def test_theorem_bound_rejects(self, kind, kwargs, name):
        with pytest.raises(DomainError, match=f"^{name} "):
            theorem_bound(kind, **kwargs)

    def test_theorem_bound_has_no_default_for_n_d_or_lambda(self):
        # The defaults n = d = 0 and lambda = 0.0 failed every kind.
        for missing in ("n", "d", "lam"):
            kwargs = {k: v for k, v in dict(n=10**4, d=10, lam=1.0).items() if k != missing}
            with pytest.raises(TypeError, match=f"'{missing}'"):
                theorem_bound("thm1_upper", **kwargs)
        with pytest.raises(TypeError, match="positional"):
            theorem_bound("thm1_upper", 10**4, 10, 0, 1.0)

    @pytest.mark.parametrize(
        "kind, kwargs, name",
        [
            ("mean_concentration", dict(n=0, d=16, delta=0.01, mu_norm=0.5, sigma=1.0), "n"),
            ("angle_concentration", dict(n=0, d=16, delta=0.01, mu_norm=0.4, sigma=1.0), "n"),
            ("perdim_variance", dict(n=0, delta=0.01, mu_i=0.0, sigma=1.0), "n"),
            ("wishart_spectral", dict(n=1000, d=0, delta=0.05), "d"),
            ("chisq_upper", dict(d=-3, eps=0.5), "d"),
            ("chisq_upper", dict(d=2.7, eps=0.5), "d"),
            ("prodnormal", dict(n=2.5, eps=0.5), "n"),
            ("mean_concentration", dict(n=400, d=16, delta=0.01, mu_norm=0.5, sigma=-1.0), "sigma"),
            ("perdim_variance", dict(n=4000, delta=0.01, mu_i=float("nan"), sigma=1.0), "mu_i"),
            ("chisq_upper", dict(d=4, eps=float("inf")), "eps"),
            ("mean_concentration", dict(n=400, d=16, delta=0.01, mu_norm=-5.0, sigma=1.0), "mu_norm"),
            ("angle_concentration", dict(n=4000, d=16, delta=0.01, mu_norm=-0.4, sigma=1.0), "mu_norm"),
            ("chisq_upper", dict(d=5, eps=0.1, n=100, bogus=3), "bogus"),
            ("gaussian_mean", dict(d=5, eps=0.1, n=100), "n"),
            ("angle_concentration", dict(n=4000, d=16, delta=0.01, mu_norm=1e-200, sigma=1.0), "mu_norm"),
            ("perdim_variance", dict(n=4000, delta=0.01, mu_i=1e200, sigma=1.0), "mu_i"),
        ],
    )
    def test_concentration_bound_rejects(self, kind, kwargs, name):
        with pytest.raises(DomainError, match=f"^{name} "):
            concentration_bound(kind, **kwargs)

    # kl_bound takes xi^4, and general_loss_upper squares mu_over_sigma / 2:
    # both were OverflowErrors.
    @pytest.mark.parametrize("xi", [1e100, 2.0**256])
    def test_kl_bound_rejects_xi_whose_fourth_power_overflows(self, xi):
        with pytest.raises(DomainError, match="^xi must be below 2\\^256"):
            kl_bound(xi, 0.5)

    def test_kl_bound_just_below_the_edge(self):
        assert math.isfinite(kl_bound(math.nextafter(2.0**256, 0.0), 0.5))

    @pytest.mark.parametrize("m", [1e160, 1e-200, 2.0**511])
    def test_general_loss_upper_rejects_mu_over_sigma_out_of_square_range(self, m):
        with pytest.raises(DomainError, match="^mu_over_sigma must be 0 or lie between 2\\^-510 and 2\\^510"):
            general_loss_upper(0.1, 0.1, 0.2, m)

    def test_squarable_edges_raise_only_mixbench_errors(self):
        # At the ends of the range of a squared parameter, every kind either
        # evaluates or fails by name.
        edges = (2.0**-510, 2.0**-255, 1.0, 2.0**255, 2.0**510)
        for kind in THEOREM_KINDS:
            s = {"s": 5} if kind in ("thm3_upper", "thm4_lower") else {}
            for lam in edges:
                try:
                    theorem_bound(kind, n=10**4, d=41, lam=lam, **s)
                except MixbenchError:
                    pass
        for kind in ("mean_concentration", "angle_concentration"):
            for mu_norm, sigma in itertools.product(edges, edges):
                concentration_bound(kind, n=4000, d=16, delta=0.01, mu_norm=mu_norm, sigma=sigma)
        for mu_i, sigma in itertools.product(edges + (-(2.0**510),), edges):
            concentration_bound("perdim_variance", n=4000, delta=0.01, mu_i=mu_i, sigma=sigma)
        for m in (0.0,) + edges:
            assert math.isfinite(general_loss_upper(0.1, 0.1, 0.2, m))


class TestKlBound:
    def test_identical_directions(self):
        assert kl_bound(0.7, 1.0) == 0.0

    def test_frozen_value(self):
        assert kl_bound(0.1, 0.0) == pytest.approx(1e-4, rel=1e-12)

    def test_monotone_in_angle(self):
        assert kl_bound(0.5, 0.5) < kl_bound(0.5, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            kl_bound(0.5, -0.2)
        with pytest.raises(DomainError):
            kl_bound(0.5, 1.2)
        with pytest.raises(DomainError):
            kl_bound(-0.5, 0.5)

    @pytest.mark.parametrize("bad", ["0.5", True, None])
    def test_reals_not_coerced(self, bad):
        with pytest.raises(DomainError, match="^xi "):
            kl_bound(bad, 0.5)
        with pytest.raises(DomainError, match="^cos_beta "):
            kl_bound(0.5, bad)


class TestKlMonteCarlo:
    def test_identical_thetas_exactly_zero(self):
        theta = MixtureParams([-0.5, 0.0], [0.5, 0.0], 1.0)
        est, se = kl_monte_carlo(theta, theta, n_samples=10**4, seed=1)
        assert est == 0.0
        assert se == 0.0

    def test_determinism(self):
        a = MixtureParams([-0.5, 0.0], [0.5, 0.0], 1.0)
        b = MixtureParams([0.0, -0.5], [0.0, 0.5], 1.0)
        r1 = kl_monte_carlo(a, b, n_samples=10**4, seed=2)
        r2 = kl_monte_carlo(a, b, n_samples=10**4, seed=2)
        assert r1 == r2

    def test_dominated_by_bound(self):
        rng = np.random.default_rng(9)
        for k in range(20):
            d = int(rng.integers(2, 6))
            xi = float(rng.uniform(0.05, 0.5))
            beta = float(rng.uniform(0.0, math.pi / 2))
            sigma = float(rng.uniform(0.5, 2.0))
            h = np.zeros(d)
            h[0] = xi * sigma
            hp = np.zeros(d)
            hp[0] = xi * sigma * math.cos(beta)
            hp[1] = xi * sigma * math.sin(beta)
            mu0 = rng.normal(size=d)
            a = MixtureParams(mu0 - h, mu0 + h, sigma)
            b = MixtureParams(mu0 - hp, mu0 + hp, sigma)
            est, se = kl_monte_carlo(a, b, n_samples=10**5, seed=stream_seed(100, k))
            assert est <= kl_bound(xi, math.cos(beta)) + 3.0 * se

    def test_positive_for_separated_pairs(self):
        # KL of clearly different mixtures is positive at many sigmas
        a = MixtureParams([-2.0, 0.0], [2.0, 0.0], 1.0)
        b = MixtureParams([0.0, -2.0], [0.0, 2.0], 1.0)
        est, se = kl_monte_carlo(a, b, n_samples=10**5, seed=5)
        assert est > 10.0 * se > 0.0

    def test_errors(self):
        a = MixtureParams([-0.5, 0.0], [0.5, 0.0], 1.0)
        b = MixtureParams([-0.5], [0.5], 1.0)
        with pytest.raises(DomainError, match="^dimensions differ: 2 vs 1$"):
            kl_monte_carlo(a, b, n_samples=10**4, seed=0)
        c = MixtureParams([-0.5, 0.0], [0.5, 0.0], 2.0)
        with pytest.raises(PreconditionViolated):
            kl_monte_carlo(a, c, n_samples=10**4, seed=0)
        with pytest.raises(DomainError, match="^need at least 1e4 samples, got 100$"):
            kl_monte_carlo(a, a, n_samples=100, seed=0)

    # Block rows are 16384 / d: at d = 1, 10^4 is less than one block and
    # 16384 exactly one; elsewhere the counts end on and off block edges.
    @pytest.mark.parametrize("d", [1, 2, 7, 8, 15, 16, 40, 161])
    def test_bits_equal_whole_vector_formula(self, d):
        rng = np.random.default_rng(d)
        a = MixtureParams(rng.normal(size=d) - 0.3, rng.normal(size=d) + 0.3, 1.4)
        b = MixtureParams(rng.normal(size=d), rng.normal(size=d), 1.4)
        for n in (10_000, 12_345, 16_384, 100_000):
            est, se = kl_monte_carlo(a, b, n_samples=n, seed=stream_seed(3, d))
            pts = sample(a, n, stream_seed(3, d)).points
            diff = mixture_log_density(a, pts) - mixture_log_density(b, pts)
            want = (float(np.mean(diff)), float(np.std(diff, ddof=1) / math.sqrt(n)))
            assert np.array([est, se]).tobytes() == np.array(want).tobytes(), n

    @pytest.mark.parametrize("d", [8, 40])
    def test_holds_no_sample_sized_array(self, d):
        n = 100_000
        a = MixtureParams(np.full(d, -0.2), np.full(d, 0.2), 1.0)
        b = MixtureParams(np.zeros(d), np.full(d, 0.4), 1.0)
        tracemalloc.start()
        try:
            kl_monte_carlo(a, b, n_samples=n, seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Labels, diff and np.std's temporaries are n-vectors; the sample
        # is drawn and scored one block at a time, so d does not enter.
        assert peak <= 5 * 8 * n + 2**20

    @pytest.mark.parametrize("n_samples", [10_000.7, True])
    def test_sample_count_must_be_whole(self, n_samples):
        a = MixtureParams([-0.5, 0.0], [0.5, 0.0], 1.0)
        with pytest.raises(DomainError, match="^n_samples "):
            kl_monte_carlo(a, a, n_samples=n_samples, seed=0)


class TestConcentrationBound:
    def test_chisq_upper_frozen(self):
        assert concentration_bound("chisq_upper", d=10, eps=0.5) == pytest.approx(0.6233329583002315, rel=1e-12)

    def test_chisq_lower_frozen(self):
        assert concentration_bound("chisq_lower", d=10, eps=0.5) == pytest.approx(0.3807029362719835, rel=1e-12)

    def test_chisq_lower_domain(self):
        with pytest.raises(PreconditionViolated):
            concentration_bound("chisq_lower", d=10, eps=1.0)

    def test_prodnormal_frozen(self):
        assert concentration_bound("prodnormal", n=100, eps=1.0) == pytest.approx(2.0 * math.exp(-10.0), rel=1e-12)

    def test_gaussian_mean_matches_chisq(self):
        assert concentration_bound("gaussian_mean", d=7, eps=0.3) == concentration_bound(
            "chisq_upper", d=7, eps=0.3
        )

    def test_wishart_spectral(self):
        val = concentration_bound("wishart_spectral", n=1000, d=10, delta=0.05)
        ld = math.log(20.0)
        f = (1.0 + math.sqrt(2.0 * ld / 10.0)) * math.sqrt(10.0 / 1000.0)
        expected = 3.0 * f * max(1.0, f) + (1.0 + math.sqrt((8.0 * ld / 10.0) * max(1.0, 8.0 * ld / 10.0))) * 0.01
        assert val == pytest.approx(expected, rel=1e-12)
        with pytest.raises(PreconditionViolated):
            concentration_bound("wishart_spectral", n=5, d=10, delta=0.05)

    def test_mean_concentration(self):
        val = concentration_bound("mean_concentration", n=400, d=16, delta=0.01, mu_norm=0.5, sigma=1.5)
        ld = math.log(100.0)
        expected = 1.5 * math.sqrt(2.0 * max(16.0, 8.0 * ld) / 400.0) + 0.5 * math.sqrt(2.0 * ld / 400.0)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_angle_concentration(self):
        val = concentration_bound("angle_concentration", n=4000, d=16, delta=0.01, mu_norm=0.4, sigma=1.0)
        ratio = max(1.0 / 0.16, 1.0 / 0.4)
        inner = 10.0 * math.log(16.0 / 0.01) / 4000.0
        expected = 14.0 * ratio * 4.0 * math.sqrt(inner * max(1.0, inner))
        assert val == pytest.approx(expected, rel=1e-12)

    def test_perdim_variance(self):
        val = concentration_bound("perdim_variance", n=4000, delta=0.01, mu_i=-0.7, sigma=1.0)
        ld = math.log(100.0)
        expected = math.sqrt(6.0 * ld / 4000.0) + 2.0 * 0.7 * math.sqrt(2.0 * ld / 4000.0) + (1.7**2) * 2.0 * ld / 4000.0
        assert val == pytest.approx(expected, rel=1e-12)
        with pytest.raises(PreconditionViolated):
            concentration_bound("perdim_variance", n=10, delta=0.01, mu_i=0.0, sigma=1.0)

    @pytest.mark.parametrize(
        "kind, params, message",
        [
            ("chisq_upper", dict(d=10, eps=0.0), "chisq_upper needs eps > 0"),
            ("chisq_lower", dict(d=10, eps=-0.5), "chisq_lower needs eps < 1, got eps = -0.5"),
            ("gaussian_mean", dict(d=10, eps=-1.0), "gaussian_mean needs eps > 0"),
            ("prodnormal", dict(n=100, eps=0.0), "prodnormal needs eps > 0"),
            ("wishart_spectral", dict(n=1000, d=10, delta=1.0), "wishart_spectral needs 0 < delta < 1"),
            ("mean_concentration", dict(n=400, d=16, delta=0.0, mu_norm=0.5, sigma=1.0), "mean_concentration needs 0 < delta < 1"),
            ("angle_concentration", dict(n=4000, d=1, delta=0.01, mu_norm=0.4, sigma=1.0), "angle_concentration needs d > 1"),
            ("angle_concentration", dict(n=4000, d=2, delta=0.7, mu_norm=0.4, sigma=1.0), "angle_concentration needs 0 < delta < (d-1)/sqrt(e)"),
            ("angle_concentration", dict(n=4000, d=16, delta=0.01, mu_norm=0.0, sigma=1.0), "angle_concentration needs mu_norm > 0"),
            ("perdim_variance", dict(n=4000, delta=0.7, mu_i=0.0, sigma=1.0), "perdim_variance needs 0 < delta < 1/sqrt(e)"),
        ],
    )
    def test_precondition_named_by_kind(self, kind, params, message):
        with pytest.raises(PreconditionViolated, match="^" + re.escape(message) + "$"):
            concentration_bound(kind, **params)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            concentration_bound("bernstein", n=10, eps=0.1)

    def test_missing_parameter(self):
        with pytest.raises(DomainError):
            concentration_bound("chisq_upper", d=10)


class TestChisqTailDominance:
    # chisq_upper and gaussian_mean bound P(X > (1 + eps) d), and chisq_lower
    # P(X < (1 - eps) d), for X chi-square with d degrees of freedom, whose
    # exact tails are chdtrc and chdtr. Grids (d, upper eps, lower eps):
    # suite_concentration's, and a wider one fixed before the first run.
    SUITE_GRID = ((5, 50), (0.1, 0.5, 1.0), (0.1, 0.5))
    WIDE_GRID = ((1, 2, 3, 10, 100, 1000), (0.01, 0.05, 0.25, 2.0, 5.0, 20.0), (0.01, 0.05, 0.25, 0.75, 0.9, 0.99))

    @pytest.mark.parametrize("grid", [SUITE_GRID, WIDE_GRID], ids=["suite", "wide"])
    def test_exact_tail_at_most_bound(self, grid):
        ds, upper, lower = grid
        for d in ds:
            for eps in upper:
                exact = float(chdtrc(d, (1.0 + eps) * d))
                for kind in ("chisq_upper", "gaussian_mean"):
                    assert exact <= concentration_bound(kind, d=d, eps=eps), (kind, d, eps)
            for eps in lower:
                exact = float(chdtr(d, (1.0 - eps) * d))
                assert exact <= concentration_bound("chisq_lower", d=d, eps=eps), ("chisq_lower", d, eps)

    def test_suite_frequencies_match_exact_tails(self):
        # suite_concentration's ten chi-square frequencies against the exact
        # tails, each by an exact two-sided binomial test. The family-wise level
        # 0.01 was fixed before the first run; Bonferroni over the ten gives
        # 0.001 each. A failure is a finding about the sampler, not a level to relax.
        entries = [e for e in suite_concentration() if e["check"] in ("chisq_upper", "chisq_lower")]
        assert len(entries) == 10
        for e in entries:
            d, eps, trials = e["d"], e["eps"], e["trials"]
            exact = float(chdtrc(d, (1.0 + eps) * d) if e["check"] == "chisq_upper" else chdtr(d, (1.0 - eps) * d))
            count = round(e["frequency"] * trials)
            p = binomtest(count, trials, exact).pvalue
            assert p >= 0.01 / len(entries), (e["check"], d, eps, count, exact * trials, p)

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(30)
        trials = 10**5
        for d in (5, 50):
            x = rng.chisquare(d, size=trials)
            for eps in (0.1, 0.5, 1.0):
                freq = float(np.mean(x > (1 + eps) * d))
                bound = concentration_bound("chisq_upper", d=d, eps=eps)
                se = math.sqrt(freq * (1 - freq) / trials)
                assert freq <= bound + 3 * se
            for eps in (0.1, 0.5):
                freq = float(np.mean(x < (1 - eps) * d))
                bound = concentration_bound("chisq_lower", d=d, eps=eps)
                se = math.sqrt(freq * (1 - freq) / trials)
                assert freq <= bound + 3 * se

    def test_prodnormal_frequencies(self):
        rng = np.random.default_rng(31)
        trials = 10**5
        for n in (50, 500):
            means = np.mean(rng.standard_normal((trials, n)) * rng.standard_normal((trials, n)), axis=1)
            for eps in (0.1, 0.5, 1.0):
                freq = float(np.mean(np.abs(means) > eps / 2.0))
                bound = concentration_bound("prodnormal", n=n, eps=eps)
                se = math.sqrt(freq * (1 - freq) / trials)
                assert freq <= bound + 3 * se


class TestSuiteConcentration:
    def test_entries_are_pinned_and_peak_under_8_mb(self):
        # The product-normal means once came from two whole (1e5, 500) arrays,
        # a 400 MB peak each; the 8 MB bound was fixed before the first run.
        # The digest pins all 16 entries, the product-normal means drawn from
        # their chi-square-difference law.
        tracemalloc.start()
        try:
            entries = suite_concentration()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000, peak
        digest = hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()
        assert (len(entries), digest) == (16, "d27c591d02082b520507fa8090013facb41a28a946c85d7d6b0a6e7b9412e431")

    @pytest.mark.parametrize("n", [2, 50])
    def test_chi_square_difference_matches_product_means(self, n):
        # The suite draws a mean of n products z1 z2 of iid standard normals
        # as (A - B)/(2n), A, B iid chi^2_n. A two-sample KS test against
        # direct product draws; 20000 draws a side and the family-wise level
        # 0.01 (0.005 for each n) were fixed before the first run.
        trials = 20_000
        rng = np.random.default_rng(stream_seed(32, n))
        direct = np.mean(rng.standard_normal((trials, n)) * rng.standard_normal((trials, n)), axis=1)
        law = (rng.chisquare(n, trials) - rng.chisquare(n, trials)) / (2.0 * n)
        p = ks_2samp(direct, law).pvalue
        assert p >= 0.005, (n, p)


class TestGeneralLossUpper:
    def test_zero_errors_zero_bound(self):
        for m in (0.1, 1.0, 5.0):
            assert general_loss_upper(0.0, 0.0, 0.0, m) == 0.0

    def test_frozen_value(self):
        assert general_loss_upper(0.1, 0.1, 0.2, 1.0) == pytest.approx(0.8221578343764659, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            general_loss_upper(0.1, 0.3, 0.2, 1.0)
        with pytest.raises(PreconditionViolated):
            general_loss_upper(0.1, 0.1, 0.5, 1.0)
        with pytest.raises(PreconditionViolated):
            general_loss_upper(-0.1, 0.1, 0.2, 1.0)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((float("nan"), 0.1, 0.2, 1.0), "eps1"),
            ((0.1, 0.1, 0.2, float("nan")), "mu_over_sigma"),
            ((0.1, 0.1, 0.2, float("inf")), "mu_over_sigma"),
            ((0.1, "0.1", 0.2, 1.0), "eps2"),
        ],
    )
    def test_rejects_non_finite_or_non_numbers(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be (a number|finite)"):
            general_loss_upper(*args)

    def test_dominates_exact_loss(self):
        # 200 random admissible configurations: the bound evaluated at the
        # realized offset decomposition and angle dominates the exact loss
        rng = np.random.default_rng(40)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            sigma = float(rng.uniform(0.5, 2.0))
            hnorm = float(rng.uniform(0.1, 2.0))
            u1 = np.zeros(d)
            u1[0] = 1.0
            u2 = np.zeros(d)
            u2[1] = 1.0
            h = hnorm * u1
            mu0 = rng.normal(size=d)
            theta = MixtureParams(mu0 - h, mu0 + h, sigma)
            sin_beta = float(rng.uniform(0.0, 1.0 / math.sqrt(5.0)))
            cos_beta = math.sqrt(1.0 - sin_beta**2)
            v = cos_beta * u1 + sin_beta * u2
            eps1 = float(rng.uniform(0.0, 1.0))
            eps2 = float(rng.uniform(0.0, 0.25))
            offset = sigma * eps1 + hnorm * eps2
            t = float(mu0 @ v) + offset * float(rng.choice([-1.0, 1.0]))
            clf = LinearClassifier(v, t)
            exact = loss_exact_linear(theta, clf, tol=1e-9)
            bound = general_loss_upper(eps1, eps2, sin_beta, hnorm / sigma)
            assert exact <= bound + 1e-8
