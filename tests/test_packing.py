"""Tests for packing codes, lower-bound families and their certification."""

import dataclasses
import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from mixbench import packing
from mixbench.errors import BudgetExceeded, DomainError, PreconditionViolated
from mixbench.bounds import kl_monte_carlo
from mixbench.loss import g_function, loss_exact_linear
from mixbench.model import LinearClassifier, MixtureParams, bayes_classifier, stream_seed
from mixbench.packing import (
    BinaryCode,
    PackingFamily,
    family_from_json_dict,
    family_to_json_dict,
    fano_check,
    local_triangle_check,
    lower_bound_family,
    sparse_code,
    vg_code,
)
from mixbench.verify import suite_fano


class TestVgCode:
    def test_m8(self):
        code = vg_code(8)
        assert code.count >= 3  # 2^1 + 1
        assert np.all(code.words[0] == 0)
        assert code.min_distance == 1
        assert code.verify()

    def test_m16(self):
        code = vg_code(16)
        assert code.count >= 5  # 2^2 + 1
        assert code.min_distance == 2
        assert code.verify()

    def test_m24(self):
        code = vg_code(24)
        assert code.count >= 9  # 2^3 + 1 including the zero word
        assert code.min_distance == 3
        assert code.verify()

    def test_below_domain(self):
        with pytest.raises(PreconditionViolated):
            vg_code(7)

    def test_above_budget(self):
        with pytest.raises(BudgetExceeded):
            vg_code(25)

    @pytest.mark.parametrize("m", [8.5, True])
    def test_length_must_be_whole(self, m):
        with pytest.raises(DomainError, match="^m "):
            vg_code(m)

    def test_deterministic(self):
        a = vg_code(12)
        b = vg_code(12)
        assert np.array_equal(a.words, b.words)


class TestSparseCode:
    def test_m16_s4(self):
        code = sparse_code(16, 4, seed=0)
        assert code.count >= 4
        assert code.weight == 4
        assert np.all(code.words.sum(axis=1) == 4)
        dists = code.pairwise_distances()
        off = dists[~np.eye(code.count, dtype=bool)]
        assert off.min() >= 4  # distance is even, > 2 forces >= 4
        assert code.verify()

    def test_feasibility_brute_force(self):
        # independent oracle: a greedy pass over all weight-4 words of length
        # 16 shows at least 4 words with pairwise distance > 2 exist
        words = []
        for support in itertools.combinations(range(16), 4):
            w = np.zeros(16, dtype=np.int8)
            w[list(support)] = 1
            if all(int(np.sum(w != u)) > 2 for u in words):
                words.append(w)
            if len(words) >= 4:
                break
        assert len(words) >= 4

    def test_domain(self):
        with pytest.raises(PreconditionViolated, match="^requires s <= m/4 = 4, got s = 5$"):
            sparse_code(16, 5)
        with pytest.raises(DomainError, match="^s must be >= 1, got 0$"):
            sparse_code(16, 0)

    def test_budget_exhaustion(self, monkeypatch):
        # A target of 6 words within a budget of 6 draws: one draw is rejected.
        monkeypatch.setattr(packing, "_SPARSE_CODE_BUDGET", 6)
        with pytest.raises(BudgetExceeded, match="^budget of 6 draws exhausted with 5/6 words$"):
            sparse_code(32, 4, seed=0)

    def test_target_above_budget_raises_before_drawing(self, monkeypatch):
        monkeypatch.setattr(packing, "_SPARSE_CODE_BUDGET", 2)
        with pytest.raises(BudgetExceeded, match=r"^the target of e\^1\.10904 words exceeds the budget of 2 draws$"):
            sparse_code(16, 4, seed=0)

    # Targets of 1.1e12 words and of e^1844, which exp cannot hold: the first
    # drew for over 15 s, the second was an OverflowError.
    @pytest.mark.parametrize("m, s", [(400, 100), (100_000, 2500)])
    def test_target_beyond_budget_raises_within_a_second(self, m, s):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="words exceeds the budget of 1000000 draws$"):
            sparse_code(m, s)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("m, s, seed, name", [(16.5, 4, 100, "m"), (16, 4.5, 100, "s")])
    def test_counts_must_be_whole(self, m, s, seed, name):
        with pytest.raises(DomainError, match=f"^{name} "):
            sparse_code(m, s, seed=seed)

    def test_deterministic(self):
        a = sparse_code(32, 8, seed=5)
        b = sparse_code(32, 8, seed=5)
        assert np.array_equal(a.words, b.words)


class TestBinaryCode:
    def test_verify_catches_violations(self):
        bad = BinaryCode(words=np.array([[0, 0, 0], [0, 0, 1]], dtype=np.int8), min_distance=2)
        assert not bad.verify()
        dup = BinaryCode(words=np.array([[0, 1, 0], [0, 1, 0]], dtype=np.int8), min_distance=0)
        assert not dup.verify()
        wrong_weight = BinaryCode(words=np.array([[1, 1, 0], [0, 1, 1], [1, 0, 0]], dtype=np.int8), min_distance=1, weight=2)
        assert not wrong_weight.verify()


class TestLowerBoundFamily:
    def test_dense_frozen_values(self):
        fam = lower_bound_family("dense", 10**4, 9, lam=0.2)
        assert fam.epsilon == pytest.approx(0.013875910185961629, rel=1e-12)
        assert fam.lambda0 == pytest.approx(0.19611137889497644, rel=1e-12)

    def test_sparse_frozen_values(self):
        fam = lower_bound_family("sparse", 10**4, 17, s=4, lam=0.2)
        assert fam.epsilon == pytest.approx(0.024821982740393561, rel=1e-12)
        assert fam.lambda0 == pytest.approx(0.19374074607924482, rel=1e-12)

    def test_members_on_sphere(self):
        for regime, kwargs in (("dense", {}), ("sparse", {"s": 4})):
            fam = lower_bound_family(regime, 10**4, 17, lam=0.2, **kwargs)
            for theta in fam.thetas:
                assert theta.separation == pytest.approx(0.2, rel=1e-12)

    def test_sparse_member_sparsity(self):
        fam = lower_bound_family("sparse", 10**4, 17, s=4, lam=0.2)
        for theta in fam.thetas:
            assert theta.sparsity <= 5  # s' + 1 with the shared last coordinate

    def test_eps_cap_keeps_lambda0_large(self):
        # tiny n activates the cap branch of eps
        fam = lower_bound_family("dense", 10, 9, lam=0.2)
        assert fam.lambda0**2 >= (15.0 / 16.0) * 0.04 - 1e-15
        fam = lower_bound_family("sparse", 10, 17, s=4, lam=0.2)
        assert fam.lambda0**2 >= 0.75 * 0.04 - 1e-15

    def test_dense_cosine_identity(self):
        # pairwise cos(beta) must equal 1 - 2 rho eps^2 / lambda^2
        fam = lower_bound_family("dense", 10**4, 9, lam=0.2)
        words = fam.code.words
        for i in range(fam.size):
            for j in range(fam.size):
                if i == j:
                    continue
                mu_i = fam.thetas[i].mu2 - fam.thetas[i].mu1
                mu_j = fam.thetas[j].mu2 - fam.thetas[j].mu1
                cos = abs(float(mu_i @ mu_j)) / (0.2 * 0.2)
                rho = int(np.sum(words[i] != words[j]))
                expected = 1.0 - 2.0 * rho * fam.epsilon**2 / 0.04
                assert cos == pytest.approx(expected, abs=1e-12)

    def test_gamma_formula(self):
        fam = lower_bound_family("dense", 10**4, 9, lam=0.2)
        xi = 0.1
        expected = 0.25 * (g_function(xi) - 2.0 * xi**2) * math.sqrt(8.0) * fam.epsilon / 0.2
        assert fam.gamma == pytest.approx(expected, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            lower_bound_family("dense", 100, 8, lam=0.2)
        with pytest.raises(PreconditionViolated):
            lower_bound_family("sparse", 100, 17, s=3, lam=0.2)
        with pytest.raises(PreconditionViolated):
            lower_bound_family("sparse", 100, 17, s=5, lam=0.2)
        with pytest.raises(DomainError):
            lower_bound_family("other", 100, 9, lam=0.2)

    @pytest.mark.parametrize("s", [4, 0])
    def test_dense_regime_rejects_s(self, s):
        with pytest.raises(DomainError, match="^s applies to the sparse regime only"):
            lower_bound_family("dense", 10_000, 9, s=s, lam=0.2)

    @pytest.mark.parametrize("seed", [5, 0])
    def test_dense_regime_rejects_seed(self, seed):
        # The dense code has no seed: seed 5 built seed 0's family.
        with pytest.raises(DomainError, match=f"^seed applies to the sparse regime only, got seed = {seed} in the dense regime$"):
            lower_bound_family("dense", 10_000, 9, lam=0.2, seed=seed)

    def test_sparse_seed_defaults_to_0(self):
        a = lower_bound_family("sparse", 10_000, 41, s=8, lam=0.2)
        b = lower_bound_family("sparse", 10_000, 41, s=8, lam=0.2, seed=0)
        c = lower_bound_family("sparse", 10_000, 41, s=8, lam=0.2, seed=5)
        assert np.array_equal(a.code.words, b.code.words) and not np.array_equal(a.code.words, c.code.words)

    @pytest.mark.parametrize(
        "regime, n, d, s, name",
        [("dense", 10_000.9, 9, None, "n"), ("dense", 10_000, 9.5, None, "d"), ("sparse", 10_000, 17, 4.5, "s")],
    )
    def test_counts_must_be_whole(self, regime, n, d, s, name):
        with pytest.raises(DomainError, match=f"^{name} "):
            lower_bound_family(regime, n, d, s=s, lam=0.2)

    # The construction squares lambda and lambda / 2: 1e200 squared was an
    # OverflowError. The Fano certificate takes the fourth power of
    # lambda / 2: at 1e100 that was an OverflowError too.
    @pytest.mark.parametrize(
        "lam, name",
        [(1e200, "lambda"), (2e100, "lambda / 2"), (2.0**256 * 1.000001, "lambda / 2")],
    )
    @pytest.mark.parametrize("regime, d, s", [("dense", 9, None), ("sparse", 41, 8)])
    def test_squares_out_of_float_range_rejected(self, regime, d, s, lam, name):
        with pytest.raises(DomainError, match=f"^{name} must (lie between 2\\^-510 and 2\\^510|be at most 2\\^255)"):
            lower_bound_family(regime, 10_000, d, s=s, lam=lam)

    def test_sigma_is_not_a_parameter(self):
        # The certificate reads lambda and sigma only through lambda / sigma,
        # so lambda is given in units of sigma and the members have sigma = 1.
        with pytest.raises(TypeError, match="sigma"):
            lower_bound_family("dense", 10_000, 9, lam=0.2, sigma=1.0)
        assert {theta.sigma for theta in lower_bound_family("dense", 10_000, 9, lam=0.2).thetas} == {1.0}

    def test_fourth_power_edge_builds_and_certifies(self):
        fam = lower_bound_family("dense", 10_000, 9, lam=2.0**256)
        assert math.isfinite(fano_check(fam).max_kl)

    def test_triangle_check_rejects_xi_whose_fourth_power_overflows(self):
        h = np.array([1e100, 0.0])
        hp = 1e100 * np.array([math.cos(0.1), math.sin(0.1)])
        theta, theta_p = MixtureParams(-h, h, 1.0), MixtureParams(-hp, hp, 1.0)
        with pytest.raises(DomainError, match="^xi "):
            local_triangle_check(theta, theta_p, bayes_classifier(theta))


def inflate_epsilon(fam: PackingFamily, factor: float) -> PackingFamily:
    """Manual override: rebuild the member means with eps scaled up. They
    leave the sphere of radius lambda, so lambda becomes their separation."""
    d = fam.d
    signs = 2.0 * fam.code.words.astype(float) - 1.0 if fam.regime == "dense" else fam.code.words.astype(float)
    eps = fam.epsilon * factor
    thetas = []
    for row in signs:
        mu = np.zeros(d)
        mu[: d - 1] = row * eps
        mu[d - 1] = fam.lambda0
        thetas.append(MixtureParams(-mu / 2.0, mu / 2.0, 1.0))
    return dataclasses.replace(fam, thetas=tuple(thetas), epsilon=eps, lam=thetas[0].separation)


class TestFanoCheck:
    def test_dense_budget(self):
        fam = lower_bound_family("dense", 10**4, 9, lam=0.2)
        rep = fano_check(fam)
        assert rep.holds
        assert rep.alpha_fano <= 1.0 / 9.0
        assert rep.window_holds
        assert rep.implied_lower_bound == pytest.approx(0.07 * fam.gamma, rel=1e-12)

    def test_sparse_budget(self):
        fam = lower_bound_family("sparse", 10**4, 17, s=4, lam=0.2)
        rep = fano_check(fam)
        assert rep.holds
        assert rep.alpha_fano <= 1.0 / 9.0
        assert rep.window_holds

    def test_inflated_epsilon_fails(self):
        fam = inflate_epsilon(lower_bound_family("dense", 10**4, 9, lam=0.2), 10.0)
        rep = fano_check(fam)
        assert not rep.holds

    def test_single_hypothesis_rejected(self):
        fam = lower_bound_family("dense", 10**4, 9, lam=0.2)
        small = dataclasses.replace(fam, thetas=fam.thetas[:2])
        with pytest.raises(PreconditionViolated):
            fano_check(small)

    def test_members_must_match_codewords(self):
        # Pair losses are keyed by codeword distance, so a member per codeword
        # is required; a family with one member too few would report short.
        fam = lower_bound_family("sparse", 10**4, 41, s=8)
        short = dataclasses.replace(fam, thetas=fam.thetas[:-1])
        with pytest.raises(PreconditionViolated, match="one member per codeword"):
            fano_check(short)

    def test_members_at_sigma_2_rejected(self):
        # Their xi is 0.05; the budget and the window were taken at lambda/2 = 0.1,
        # and both read as holding.
        fam = lower_bound_family("dense", 10**4, 9, lam=0.2)
        c = np.linspace(1.0, 2.0, 9)
        at_sigma_2 = tuple(MixtureParams(t.mu1 + c, t.mu2 + c, 2.0) for t in fam.thetas)
        with pytest.raises(PreconditionViolated, match=r"; member 0 has sigma = 2\.0, "):
            fano_check(dataclasses.replace(fam, thetas=at_sigma_2))

    def test_member_with_its_center_moved_rejected(self):
        fam = lower_bound_family("dense", 10**4, 9, lam=0.2)
        thetas = list(fam.thetas)
        thetas[2] = MixtureParams(thetas[2].mu1 + 1e-3, thetas[2].mu2 + 1e-3, 1.0)
        with pytest.raises(PreconditionViolated, match=r"; member 2 has sigma = 1\.0, \|\|h\|\| = 0\.1 and its center 0\.003"):
            fano_check(dataclasses.replace(fam, thetas=tuple(thetas)))

    def test_members_off_the_sphere_of_lambda_rejected(self):
        fam = lower_bound_family("dense", 10**4, 9, lam=0.2)
        off = dataclasses.replace(inflate_epsilon(fam, 10.0), lam=fam.lam)
        with pytest.raises(PreconditionViolated, match=r"lambda/2 = 0\.1 and member 0's center; member 0 has sigma = 1\.0, \|\|h\|\| = 0\.219"):
            fano_check(off)

    def test_members_shifted_by_a_common_center_certify(self):
        fam = lower_bound_family("dense", 10**4, 9, lam=0.2)
        c = np.linspace(1.0, 2.0, 9)
        shifted = fano_check(dataclasses.replace(fam, thetas=tuple(MixtureParams(t.mu1 + c, t.mu2 + c, 1.0) for t in fam.thetas)))
        assert shifted.holds and shifted.window_holds
        assert shifted.pair_losses == pytest.approx(fano_check(fam).pair_losses, rel=1e-12)

    def test_monte_carlo_agrees_with_bound(self):
        # Monte-Carlo KL needs enough samples to resolve values of order 1e-6
        # against the budget; 2e6 per pair does it for both families.
        for regime, kwargs in (("dense", {}), ("sparse", {"s": 4})):
            d = 9 if regime == "dense" else 17
            fam = lower_bound_family(regime, 10**4, d, lam=0.2, **kwargs)
            theta0 = fam.thetas[0]
            ests = [
                kl_monte_carlo(theta_i, theta0, n_samples=2_000_000, seed=stream_seed(3, i))[0]
                for i, theta_i in enumerate(fam.thetas[1:], start=1)
            ]
            alpha_mc = fam.n * max(max(est, 0.0) for est in ests) / math.log(fam.size - 1)
            assert (alpha_mc < 1.0 / 8.0) == fano_check(fam).holds

    @pytest.mark.parametrize("round_trip", [False, True])
    @pytest.mark.parametrize(
        "regime, d, kwargs",
        [
            ("sparse", 41, {"s": 8}),
            ("dense", 17, {}),
            ("sparse", 161, {"s": 8}),
            # The families of the verify suites, the acceptance criteria, CI and
            # the benchmark; "inflate" scales eps as test_inflated_epsilon_fails does.
            ("dense", 9, {}),
            ("dense", 9, {"inflate": 10.0}),
            ("sparse", 17, {"s": 4}),
            *(("sparse", 161, {"s": 8, "seed": seed}) for seed in range(1, 6)),
        ],
    )
    def test_pair_losses_equal_one_integration_per_pair(self, regime, d, kwargs, round_trip):
        kwargs = dict(kwargs)
        factor = kwargs.pop("inflate", None)
        fam = lower_bound_family(regime, 10**4, d, **kwargs)
        if round_trip:
            fam = family_from_json_dict(family_to_json_dict(fam))
        if factor is not None:
            fam = inflate_epsilon(fam, factor)
        expected = [
            loss_exact_linear(fam.thetas[i], bayes_classifier(fam.thetas[j]), tol=1e-9)
            for i, j in itertools.combinations(range(fam.size), 2)
        ]
        assert list(fano_check(fam).pair_losses) == expected

    def test_each_distinct_pair_geometry_integrated_once(self, monkeypatch):
        fam = lower_bound_family("sparse", 10**4, 41, s=8)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return loss_exact_linear(*args, **kwargs)

        monkeypatch.setattr(packing, "loss_exact_linear", counting)
        rep = fano_check(fam)
        assert len(rep.pair_losses) == 91
        assert len(calls) == 6

    def test_memory_is_one_row_of_dots(self):
        fam = lower_bound_family("sparse", 10**4, 161, s=8)  # the verify workload's family, M = 121
        fano_check(lower_bound_family("sparse", 10**4, 41, s=8))  # numpy's one-time set-up is not the check's memory
        tracemalloc.start()
        try:
            rep = fano_check(fam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rep.pair_losses) == 7260
        # The 7260 losses as a list and a tuple (0.12 MB) and one row's codeword
        # comparison; a whole-family dedup array once reached 1.7 MB.
        assert peak <= 600_000


class TestLocalTriangle:
    def test_identity_case(self):
        theta = MixtureParams([-0.1, 0.0], [0.1, 0.0], 1.0)
        rep = local_triangle_check(theta, theta, bayes_classifier(theta))
        assert rep.applicable
        assert rep.lower == 0.0 and rep.upper == 0.0 and rep.observed == 0.0
        assert rep.holds

    def test_family_pairs_hold(self):
        fam = lower_bound_family("dense", 10**4, 9, lam=0.2)
        clf0 = bayes_classifier(fam.thetas[0])
        for i in (1, 2):
            for j in range(fam.size):
                if i == j:
                    continue
                rep = local_triangle_check(fam.thetas[i], fam.thetas[j], clf0)
                assert rep.applicable
                assert rep.holds

    def test_not_applicable(self):
        # an orthogonal classifier has loss 1/2, so tau alone exceeds the cap
        theta = MixtureParams([-0.1, 0.0], [0.1, 0.0], 1.0)
        theta_p = MixtureParams([0.0, -0.1], [0.0, 0.1], 1.0)
        clf = LinearClassifier(np.array([0.0, 1.0]), 0.0)
        rep = local_triangle_check(theta, theta_p, clf)
        assert not rep.applicable
        assert rep.holds is None

    def test_dimension_mismatch_is_a_domain_error(self):
        # A pair of two dimensions is a bad input, as in the other dimension
        # checks, not an unmet hypothesis of the KL bound.
        a = MixtureParams([-0.1, 0.0], [0.1, 0.0], 1.0)
        b = MixtureParams([-0.1, 0.0, 0.0], [0.1, 0.0, 0.0], 1.0)
        with pytest.raises(DomainError, match="^the pair must share a dimension$"):
            local_triangle_check(a, b, bayes_classifier(a))

    def test_unequal_norms_rejected(self):
        a = MixtureParams([-0.1, 0.0], [0.1, 0.0], 1.0)
        b = MixtureParams([-0.2, 0.0], [0.2, 0.0], 1.0)
        with pytest.raises(PreconditionViolated):
            local_triangle_check(a, b, bayes_classifier(a))

    def test_different_centers_rejected(self):
        a = MixtureParams([-0.1, 0.0], [0.1, 0.0], 1.0)
        b = MixtureParams([0.9, 0.0], [1.1, 0.0], 1.0)
        with pytest.raises(PreconditionViolated):
            local_triangle_check(a, b, bayes_classifier(a))

    def test_centers_apart_by_more_than_rounding_rejected(self):
        # 5e-3 apart in each of 9 coordinates: the pair's KL is about 1e-4,
        # far above the 5e-7 bound that tau would take for a shared center.
        h = np.zeros(9)
        h[0], h[1] = 0.1 * math.cos(0.1), 0.1 * math.sin(0.1)
        e1 = np.eye(9)[0] * 0.1
        a = MixtureParams(np.full(9, 1000.0) - e1, np.full(9, 1000.0) + e1, 1.0)
        b = MixtureParams(np.full(9, 1000.005) - h, np.full(9, 1000.005) + h, 1.0)
        with pytest.raises(PreconditionViolated, match="center"):
            local_triangle_check(a, b, bayes_classifier(a))


# The family that TestFamilySerialization.written("dense") records.
DENSE = lower_bound_family("dense", 10**4, 9, lam=0.2)


class TestFamilySerialization:
    @pytest.mark.parametrize("regime, d, kwargs", [("sparse", 17, {"s": 4, "seed": 2}), ("dense", 9, {})])
    def test_round_trip_keeps_every_count(self, regime, d, kwargs):
        fam = lower_bound_family(regime, 10**4, d, lam=0.2, **kwargs)
        back = family_from_json_dict(family_to_json_dict(fam))
        for a, b in [(back.n, fam.n), (back.d, fam.d), (back.s, fam.s),
                     (back.code.min_distance, fam.code.min_distance), (back.code.weight, fam.code.weight)]:
            assert a == b and type(a) is type(b)

    @pytest.mark.parametrize(
        "key, value",
        [("n", 10000.7), ("d", 17.5), ("s", 2.5), ("s", True), ("code_min_distance", 1.5), ("code_weight", 4.2)],
    )
    def test_fractional_counts_rejected(self, key, value):
        obj = family_to_json_dict(lower_bound_family("sparse", 10**4, 17, s=4, lam=0.2, seed=2))
        obj[key] = value
        with pytest.raises(DomainError, match=f"^{key} must be a whole number"):
            family_from_json_dict(obj)

    @staticmethod
    def written(regime="sparse"):
        if regime == "dense":
            return family_to_json_dict(lower_bound_family("dense", 10**4, 9, lam=0.2))
        return family_to_json_dict(lower_bound_family("sparse", 10**4, 17, s=4, lam=0.2, seed=2))

    @pytest.mark.parametrize(
        "key, value",
        [("lambda", True)],
    )
    def test_header_numbers_must_be_numbers(self, key, value):
        obj = self.written()
        obj[key] = value
        with pytest.raises(DomainError, match=f"^{key} must be a number"):
            family_from_json_dict(obj)

    @pytest.mark.parametrize("bit", [0.7, 2, -1, "1"])
    def test_codewords_must_be_bits(self, bit):
        obj = self.written()
        obj["codewords"][1][0] = bit
        with pytest.raises(DomainError, match="^codewords must hold only the bits 0 and 1"):
            family_from_json_dict(obj)

    @pytest.mark.parametrize(
        "regime, edit, key",
        [
            ("dense", lambda obj: obj.update(d=12), "codewords"),
            ("dense", lambda obj: obj.update(codewords=[w[:-1] for w in obj["codewords"]]), "codewords"),
        ],
        ids=["d", "word-length"],
    )
    def test_header_must_agree_with_members(self, regime, edit, key):
        obj = self.written(regime)
        edit(obj)
        with pytest.raises(DomainError, match=f"^{key} "):
            family_from_json_dict(obj)

    @staticmethod
    def certified(family):
        """The bytes that ``verify --suite fano --family`` prints for ``family``."""
        return json.dumps(suite_fano([family]), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("key, value", [("lambda", 0.2 * (1.0 + 1e-9)), ("n", 10**6)], ids=["lambda", "n"])
    def test_edited_inputs_build_the_edited_family(self, key, value):
        # The file holds only inputs, so a file with an edited input holds the family of the edited inputs.
        inputs = {"n": 10**4, "lambda": 0.2, key: value}
        obj = {**self.written("dense"), **inputs}
        expected = lower_bound_family("dense", inputs["n"], 9, lam=inputs["lambda"])
        assert self.certified(family_from_json_dict(obj)) == self.certified(expected)

    @pytest.mark.parametrize("regime", ["sparse", "dense"])
    def test_separation_agrees_within_rounding(self, regime):
        obj = self.written(regime)
        obj["lambda"] *= 1.0 + 1e-13
        kwargs = {"s": 4, "seed": 2} if regime == "sparse" else {}
        expected = lower_bound_family(regime, 10**4, obj["d"], lam=obj["lambda"], **kwargs)
        assert self.certified(family_from_json_dict(obj)) == self.certified(expected)

    def test_whole_valued_floats_accepted(self):
        fam = lower_bound_family("sparse", 10**4, 17, s=4, lam=0.2, seed=2)
        obj = family_to_json_dict(fam)
        obj.update(n=1e4, s=4.0, code_weight=float(fam.code.weight), codewords=fam.code.words.astype(float).tolist())
        back = family_from_json_dict(obj)
        assert (back.n, back.s, back.code.weight) == (10**4, 4, fam.code.weight)
        assert np.array_equal(back.code.words, fam.code.words)
        assert type(back.n) is int and type(back.s) is int

    def test_json_round_trip(self):
        fam = lower_bound_family("sparse", 10**4, 17, s=4, lam=0.2, seed=2)
        obj = family_to_json_dict(fam)
        back = family_from_json_dict(obj)
        assert back.regime == fam.regime
        assert back.epsilon == fam.epsilon
        assert back.lambda0 == fam.lambda0
        assert np.array_equal(back.code.words, fam.code.words)
        for a, b in zip(back.thetas, fam.thetas):
            assert np.array_equal(a.mu1, b.mu1)
            assert np.array_equal(a.mu2, b.mu2)
            assert a.sigma == b.sigma

    @pytest.mark.parametrize(
        "edit, error, match",
        [
            (lambda obj: obj.update(epsilon=3.0 * DENSE.epsilon), DomainError, "; unknown: epsilon$"),
            (lambda obj: obj.update(gamma=100.0 * DENSE.gamma), DomainError, "; unknown: gamma$"),
            (lambda obj: obj.update(lambda0=DENSE.lambda0 * (1.0 - 1e-6)), DomainError, "; unknown: lambda0$"),
            (lambda obj: obj.update(regime="sparse", s=8), PreconditionViolated, "^sparse regime requires 4 <= s"),
            (lambda obj: obj.update(code_min_distance=2), DomainError, "^codewords "),
        ],
        ids=["epsilon-x3", "gamma-x100", "lambda0", "sparse-s8", "min-distance"],
    )
    def test_header_values_are_rebuilt_not_trusted(self, edit, error, match):
        # Each of these once loaded, and the certificate read the edited value.
        # A derived value is never read: a file that holds one is rejected.
        obj = self.written("dense")
        edit(obj)
        with pytest.raises(error, match=match):
            family_from_json_dict(obj)

    def test_word_of_wrong_weight_rejected_with_matching_members(self):
        fam = lower_bound_family("sparse", 10**4, 17, s=4, lam=0.2, seed=2)
        obj = family_to_json_dict(fam)
        word = obj["codewords"][1]
        word[word.index(0)] = 1  # weight s + 1
        with pytest.raises(DomainError, match="^codewords "):
            family_from_json_dict(obj)

    @pytest.mark.parametrize(
        "regime, d, s", [("dense", 9, None), ("dense", 17, None), ("sparse", 17, 4), ("sparse", 161, 8)]
    )
    def test_record_round_trip_is_exact(self, regime, d, s):
        seed = None if s is None else 3
        obj = family_to_json_dict(lower_bound_family(regime, 10**4, d, s=s, lam=0.2, seed=seed))
        assert family_to_json_dict(family_from_json_dict(obj)) == obj

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"lam": math.nan}, "lambda"), ({"lam": math.inf}, "lambda"), ({"lam": "0.2"}, "lambda"), ({"lam": True}, "lambda")],
    )
    def test_lambda_and_sigma_must_be_finite_numbers(self, kwargs, name):
        with pytest.raises(DomainError, match=f"^{name} must be (a number|finite)"):
            lower_bound_family("dense", 10**4, 9, **kwargs)
