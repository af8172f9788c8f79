"""Packing codes and the hypothesis families behind the minimax lower bounds.

A lower-bound family places 2^k-style collections of mixtures with sigma = 1
on a sphere of radius lambda: each binary codeword perturbs the first d-1
coordinates of a base direction by +/- eps (dense) or by eps on its support
(sparse), with the last coordinate set to lambda_0 so that every member has
separation exactly lambda. Codewords with guaranteed pairwise Hamming
distance keep the members far apart in clustering loss while an eps cap
keeps their pairwise KL divergence inside the Fano budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import kl_bound
from .bounds import kl_monte_carlo  # not called here; perfbench/tracing.py BINDINGS rebinds this name
from .errors import BudgetExceeded, DomainError, PreconditionViolated, _require
from .loss import g_function, loss_exact_linear
from .model import LinearClassifier, MixtureParams, _count, _seed, _separation, _whole_number, bayes_classifier, json_record, make_rng

__all__ = [
    "BinaryCode",
    "PackingFamily",
    "FanoReport",
    "TriangleReport",
    "vg_code",
    "sparse_code",
    "lower_bound_family",
    "fano_check",
    "local_triangle_check",
    "family_to_json_dict",
    "family_from_json_dict",
]

# Quadrature tolerance of every exact loss the certification checks compute;
# their windows allow 10x this much slack.
_QUAD_TOL = 1e-9
# Weight-s words that sparse_code draws before it gives up.
_SPARSE_CODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class BinaryCode:
    """A set of distinct binary words with a guaranteed pairwise distance.

    ``words`` is a (count, length) 0/1 array; ``weight`` is set when every
    word has that exact Hamming weight (constant-weight codes).
    """

    words: np.ndarray
    min_distance: int
    weight: int | None = None

    def __post_init__(self):
        w = np.array(self.words, dtype=np.int8)
        if w.ndim != 2:
            raise DomainError(f"words must be a (count, length) array, got shape {w.shape}")
        w.setflags(write=False)
        object.__setattr__(self, "words", w)

    @property
    def count(self) -> int:
        return self.words.shape[0]

    def pairwise_distances(self) -> np.ndarray:
        """Exhaustive Hamming distance matrix (count x count)."""
        diff = self.words[:, None, :] != self.words[None, :, :]
        return diff.sum(axis=2)

    def verify(self) -> bool:
        """Exhaustively check the declared distance/weight invariants."""
        d = self.pairwise_distances()
        off = d[~np.eye(self.count, dtype=bool)]
        if off.size and int(off.min()) < self.min_distance:
            return False
        if np.unique(self.words, axis=0).shape[0] != self.count:
            return False
        if self.weight is not None and not np.all(self.words.sum(axis=1) == self.weight):
            return False
        return True


@dataclass(frozen=True)
class PackingFamily:
    """Hypothesis family theta_omega derived from a binary code."""

    thetas: tuple[MixtureParams, ...]
    code: BinaryCode
    epsilon: float
    lambda0: float
    gamma: float
    regime: str  # "dense" | "sparse"
    n: int
    d: int
    s: int | None
    lam: float

    @property
    def size(self) -> int:
        return len(self.thetas)


@dataclass(frozen=True)
class FanoReport:
    """Certification that a family satisfies the testing-reduction budget."""

    alpha_fano: float
    holds: bool  # alpha_fano < 1/8
    max_kl: float
    log_m: float
    kl_method: str  # always "bound", the closed-form KL
    window_low: float
    window_high: float
    pair_losses: tuple[float, ...]
    window_holds: bool
    implied_lower_bound: float  # 0.07 * gamma

    to_json_dict = json_record


@dataclass(frozen=True)
class TriangleReport:
    """Outcome of the local triangle inequality check on one configuration."""

    applicable: bool
    lower: float
    upper: float
    observed: float
    holds: bool | None

    to_json_dict = json_record


def _hamming(a: int, b: int) -> int:
    return (a ^ b).bit_count()


def _int_to_word(x: int, m: int) -> np.ndarray:
    return np.array([(x >> (m - 1 - i)) & 1 for i in range(m)], dtype=np.int8)


def vg_code(m: int) -> BinaryCode:
    """Greedy lexicographic code of length m with distance >= ceil(m/8).

    Starts from the all-zeros word and admits each subsequent word that keeps
    the minimum distance; stops once ceil(2^(m/8)) + 1 words are collected,
    the count the greedy argument guarantees for m >= 8. Enumeration is
    capped at m = 24.
    """
    m = _count("m", m)
    _require(m >= 8, f"the construction requires m >= 8, got m = {m}")
    if m > 24:
        raise BudgetExceeded(f"enumeration budget is m <= 24, got m = {m}")
    dist = math.ceil(m / 8)
    target = math.ceil(2.0 ** (m / 8.0)) + 1
    admitted: list[int] = []
    for x in range(2**m):
        if all(_hamming(x, y) >= dist for y in admitted):
            admitted.append(x)
            if len(admitted) >= target:
                break
    if len(admitted) < target:  # cannot happen for 8 <= m <= 24
        raise BudgetExceeded(f"greedy enumeration found only {len(admitted)} of {target} words")
    words = np.stack([_int_to_word(x, m) for x in admitted])
    return BinaryCode(words=words, min_distance=dist)


def sparse_code(m: int, s: int, seed: int = 0) -> BinaryCode:
    """Randomized greedy constant-weight code: weight s, distance > s/2.

    Samples weight-s words uniformly and admits those far from everything
    admitted so far, until ceil((m/s)^(s/5)) words are collected. m and s are
    counts with s <= m/4. A target above the draw budget raises BudgetExceeded
    before any draw, as does exhausting the budget (existence is guaranteed,
    so failure signals the budget, not the mathematics).
    """
    m, s, budget = _count("m", m), _count("s", s), _SPARSE_CODE_BUDGET
    _require(s <= m / 4, f"requires s <= m/4 = {m / 4:.6g}, got s = {s}")
    # In log space, where exp cannot overflow. The 1e-9 leaves a target
    # within rounding of the budget to the draws, which decide it as before.
    log_target = (s / 5.0) * math.log(m / s)
    if log_target > math.log(budget) + 1e-9:
        raise BudgetExceeded(f"the target of e^{log_target:.6g} words exceeds the budget of {budget} draws")
    target = math.ceil(math.exp(log_target))
    min_dist_exclusive = s / 2.0
    rng = make_rng(seed)
    words = np.zeros((target, m), dtype=np.int8)
    count = 0
    for _ in range(budget):
        word = np.zeros(m, dtype=np.int8)
        word[rng.choice(m, size=s, replace=False)] = 1
        if count and int(np.sum(words[:count] != word, axis=1).min()) <= min_dist_exclusive:
            continue
        words[count] = word
        count += 1
        if count >= target:
            break
    else:
        raise BudgetExceeded(f"budget of {budget} draws exhausted with {count}/{target} words")
    # distances between equal-weight words are even, so > s/2 means >= the
    # next even integer
    declared = int(math.floor(min_dist_exclusive)) + 1
    if declared % 2 == 1:
        declared += 1
    return BinaryCode(words=words, min_distance=declared, weight=s)


# Per regime: the xi^2 coefficient of gamma and the constant of the loss window's upper end.
_REGIME_CONSTANTS = {"dense": (2.0, 4.0 / math.pi), "sparse": (math.sqrt(2.0), 2.0 * math.sqrt(2.0) / math.pi)}


def lower_bound_family(
    regime: str,
    n: int,
    d: int,
    s: int | None = None,
    lam: float = 0.2,
    seed: int | None = None,
) -> PackingFamily:
    """Construct the hypothesis family used by the minimax lower bounds.

    dense:  eps = min( (sqrt(log 2)/3) / (lambda sqrt(n)),
                       lambda / (4 sqrt(d-1)) ),  codewords over {0,1}^(d-1)
            with signs 2w-1, lambda_0^2 = lambda^2 - (d-1) eps^2.
    sparse: eps = min( sqrt(8/45) sqrt(log((d-1)/s)/n) / lambda,
                       lambda / (2 sqrt(s)) ),  weight-s codewords,
            lambda_0^2 = lambda^2 - s eps^2. ``s`` is the construction's
            internal sparsity; members lie in the class with s + 1 relevant
            coordinates.

    Every member has sigma = 1 and separation exactly lambda by construction.
    ``s`` is required in the sparse regime and rejected in the dense one.
    ``seed``, a whole number in [0, 2^64), picks the sparse code (0 when None)
    and is rejected in the dense regime, whose code has no seed.
    """
    return _family(regime, n, d, s, lam, None if seed is None else _seed("seed", seed), None)


def _family(regime, n, d, s, lam, seed: int | None, code: BinaryCode | None) -> PackingFamily:
    """The family of ``lower_bound_family`` on ``code`` (a sparse one of weight
    s), or on the regime's code made from ``seed`` when ``code`` is None."""
    n, d = _count("n", n), _count("d", d)
    lam = _separation("lambda", lam)
    xi = lam / 2.0

    if regime == "dense":
        if s is not None:
            raise DomainError(f"s applies to the sparse regime only, got s = {s!r} in the dense regime")
        if seed is not None:
            raise DomainError(f"seed applies to the sparse regime only, got seed = {seed!r} in the dense regime")
        _require(d >= 9, f"dense regime requires d >= 9, got d = {d}")
        # Both regimes take * (1.0 / lam), not / lam: the pinned bytes are the product's.
        eps = min(
            (math.sqrt(math.log(2.0)) / 3.0) * (1.0 / lam) / math.sqrt(n),
            lam / (4.0 * math.sqrt(d - 1.0)),
        )
        lambda0_sq = lam**2 - (d - 1) * eps**2
        code = vg_code(d - 1) if code is None else code
        signs = 2.0 * code.words.astype(np.float64) - 1.0
        k_eff = float(d - 1)
    elif regime == "sparse":
        if s is None:
            raise DomainError("sparse regime requires s")
        s = _count("s", s)
        _require(4 <= s <= (d - 1) / 4.0, f"sparse regime requires 4 <= s <= (d-1)/4 = {(d - 1) / 4.0:.6g}, got s = {s}")
        eps = min(
            math.sqrt(8.0 / 45.0) * (1.0 / lam) * math.sqrt(math.log((d - 1.0) / s) / n),
            0.5 * lam / math.sqrt(s),
        )
        lambda0_sq = lam**2 - s * eps**2
        code = sparse_code(d - 1, s, seed=seed or 0) if code is None else code
        if code.weight != s:
            raise DomainError(f"code_weight must be s = {s} in the sparse regime, got {code.weight!r}")
        signs = code.words.astype(np.float64)
        k_eff = float(s)
    else:
        raise DomainError(f"unknown regime {regime!r}")

    lambda0 = math.sqrt(lambda0_sq)
    thetas = []
    for row in signs:
        mu = np.zeros(d)
        mu[: d - 1] = row * eps
        mu[d - 1] = lambda0
        thetas.append(MixtureParams(-mu / 2.0, mu / 2.0, 1.0))
    gamma = 0.25 * (g_function(xi) - _REGIME_CONSTANTS[regime][0] * xi**2) * math.sqrt(k_eff) * eps / lam
    return PackingFamily(
        thetas=tuple(thetas),
        code=code,
        epsilon=eps,
        lambda0=lambda0,
        gamma=gamma,
        regime=regime,
        n=n,
        d=d,
        s=s,
        lam=lam,
    )


def _near(gap: float, *sizes: float) -> bool:
    """Whether ``gap`` is rounding: at most 1e-12 of the largest size, or of 1."""
    return gap <= 1e-12 * max(*sizes, 1.0)


def _pair_cos_beta(t1: MixtureParams, t2: MixtureParams) -> float:
    # The bits of the same ratio taken over mu2 - mu1 = 2h: scaling by 2 is exact.
    h1, h2 = t1.half_separation, t2.half_separation
    c = float(abs(h1 @ h2) / (t1.half_separation_norm * t2.half_separation_norm))
    return min(c, 1.0)


def fano_check(family: PackingFamily) -> FanoReport:
    """Certify the family's KL budget and pairwise loss window.

    alpha_fano = n * max_i KL(P_i, P_0) / log M must stay below 1/8 for the
    testing reduction to apply, with each KL taken from the closed-form bound
    xi^4 (1 - cos beta); the loss of each member's optimal rule under every
    other member must land in the construction's bracket. Both hold for
    members as the construction builds them, which share a center and have
    sigma = 1 and ||h|| = lambda/2 (to rounding); a member that does not is a
    PreconditionViolated naming it.
    """
    m_count = family.size - 1
    _require(m_count >= 2, f"the reduction requires M >= 2 hypotheses beyond the base, got M = {m_count}")
    _require(family.size == family.code.count, f"one member per codeword is required, got {family.size} members and {family.code.count} codewords")
    xi = family.lam / 2.0
    theta0 = family.thetas[0]
    c0, c0_norm = theta0.center, np.linalg.norm(theta0.center)
    for i, theta in enumerate(family.thetas):
        h, gap = theta.half_separation_norm, float(np.linalg.norm(theta.center - c0))
        if not (theta.sigma == 1.0 and _near(abs(h - xi), h, xi) and _near(gap, np.linalg.norm(theta.center), c0_norm)):
            raise PreconditionViolated(
                f"members must have sigma = 1, ||h|| = lambda/2 = {xi!r} and member 0's center; "
                f"member {i} has sigma = {theta.sigma!r}, ||h|| = {h!r} and its center {gap!r} from member 0's"
            )

    max_kl = float(max(kl_bound(xi, _pair_cos_beta(theta_i, theta0)) for theta_i in family.thetas[1:]))
    log_m = math.log(m_count)
    alpha_fano = family.n * max_kl / log_m

    k_eff = float(family.d - 1) if family.regime == "dense" else float(family.s)
    scale = math.sqrt(k_eff) * family.epsilon / family.lam
    window_low = 0.5 * g_function(xi) * scale
    window_high = _REGIME_CONSTANTS[family.regime][1] * scale

    # Members share a center and have sigma = 1 and ||h|| = lambda/2, so a
    # pair's loss is fixed by the Hamming distance between its codewords.
    words = family.code.words
    by_distance: dict[int, float] = {}
    losses = []
    for i, theta in enumerate(family.thetas[:-1]):
        for j, dist in enumerate(np.count_nonzero(words[i + 1 :] != words[i], axis=1).tolist(), start=i + 1):
            if dist not in by_distance:
                by_distance[dist] = loss_exact_linear(theta, bayes_classifier(family.thetas[j]), tol=_QUAD_TOL)
            losses.append(by_distance[dist])
    in_window = all(window_low - 10.0 * _QUAD_TOL <= val <= window_high + 10.0 * _QUAD_TOL for val in by_distance.values())
    return FanoReport(
        alpha_fano=alpha_fano,
        holds=alpha_fano < 1.0 / 8.0,
        max_kl=max_kl,
        log_m=log_m,
        kl_method="bound",
        window_low=window_low,
        window_high=window_high,
        pair_losses=tuple(losses),
        window_holds=in_window,
        implied_lower_bound=0.07 * family.gamma,
    )


def local_triangle_check(
    theta: MixtureParams,
    theta_prime: MixtureParams,
    clf: LinearClassifier,
) -> TriangleReport:
    """Check the loss window that substitutes for the triangle inequality.

    With tau = L_theta(clf) + sqrt(KL/2) (KL taken from the closed-form bound,
    which only widens the window), applicability requires
    L_theta(F_theta') + tau <= 1/2, and then L_theta'(clf) must land within
    L_theta(F_theta') +/- tau.
    """
    if theta.d != theta_prime.d:
        raise DomainError("the pair must share a dimension")
    _require(theta.sigma == theta_prime.sigma, "the pair must share sigma")
    # Rounding only, as tau's KL is the bound for a shared center and equal separations.
    c1, c2 = theta.center, theta_prime.center
    _require(_near(np.linalg.norm(c1 - c2), np.linalg.norm(c1), np.linalg.norm(c2)), "the pair must share the center mu0")
    h1 = theta.half_separation_norm
    h2 = theta_prime.half_separation_norm
    _require(_near(abs(h1 - h2), h1, h2), "the pair must have equal separations")

    xi = h1 / theta.sigma
    kl = kl_bound(xi, _pair_cos_beta(theta, theta_prime))
    loss_cross = loss_exact_linear(theta, bayes_classifier(theta_prime), tol=_QUAD_TOL)
    loss_clf = loss_exact_linear(theta, clf, tol=_QUAD_TOL)
    tau = loss_clf + math.sqrt(kl / 2.0)
    applicable = loss_cross + tau <= 0.5
    observed = loss_exact_linear(theta_prime, clf, tol=_QUAD_TOL)
    lower = loss_cross - tau
    upper = loss_cross + tau
    holds = None
    if applicable:
        slack = 10.0 * _QUAD_TOL
        holds = (lower - slack) <= observed <= (upper + slack)
    return TriangleReport(applicable=applicable, lower=lower, upper=upper, observed=observed, holds=holds)


# The keys of a family file: the construction's inputs and its code.
_FAMILY_KEYS = ("regime", "n", "d", "s", "lambda", "codewords", "code_min_distance", "code_weight")


def family_to_json_dict(family: PackingFamily) -> dict:
    return {
        "regime": family.regime,
        "n": family.n,
        "d": family.d,
        "s": family.s,
        "lambda": family.lam,
        "codewords": family.code.words.tolist(),
        "code_min_distance": family.code.min_distance,
        "code_weight": family.code.weight,
    }


def family_from_json_dict(obj: dict) -> PackingFamily:
    """The family that ``family_to_json_dict`` wrote, built by the construction
    from its regime, n, d, s, lambda and code. The record must have
    exactly those keys, and the code its declared distance and weight. A
    DomainError names the missing and the unknown keys, the key of a value
    that is not a (whole) number, or a codeword entry not 0 or 1."""
    if not isinstance(obj, dict):
        raise DomainError("a family file must be a JSON object")
    missing, unknown = [k for k in _FAMILY_KEYS if k not in obj], [str(k) for k in obj if k not in _FAMILY_KEYS]
    if missing or unknown:
        keys = f"missing: {', '.join(missing) or 'none'}; unknown: {', '.join(unknown) or 'none'}"
        raise DomainError(f"a family file holds exactly the keys {', '.join(_FAMILY_KEYS)}; {keys}")
    words = np.asarray(obj["codewords"])
    if words.dtype.kind not in "iuf" or not np.all((words == 0) | (words == 1)):
        raise DomainError(f"codewords must hold only the bits 0 and 1, got {obj['codewords']!r}")
    d = _count("d", obj["d"])
    if words.ndim != 2 or words.shape[1] != d - 1:
        raise DomainError(f"codewords must be words of length d - 1 = {d - 1}, got shape {words.shape}")
    min_distance = _whole_number("code_min_distance", obj["code_min_distance"])
    s, weight = obj["s"], obj["code_weight"]
    code = BinaryCode(words, min_distance, None if weight is None else _whole_number("code_weight", weight))
    if not code.verify():
        raise DomainError("codewords do not have the declared code_min_distance and code_weight, or repeat a word")
    return _family(obj["regime"], obj["n"], d, None if s is None else _count("s", s), obj["lambda"], None, code)
