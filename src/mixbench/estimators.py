"""Mixture clustering estimators: dense PCA split and screened (sparse) PCA.

Both estimators threshold the projection of a point onto the top eigenvector
of the sample covariance at the projected sample mean. The sparse variant
first screens coordinates by their sample variance: a coordinate whose means
differ by h(i) inflates its variance to sigma^2 + h(i)^2, so the relevant set
can be read off the covariance diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDimension,
    InvalidMatrix,
    InvalidParams,
    PreconditionViolated,
    TooFewSamples,
)
from .model import Dataset, LinearClassifier, MixtureParams, _canonical_direction, _whole_number, json_record, sample, stream_seed

__all__ = [
    "ScreeningResult",
    "SupportTruth",
    "RecoveryReport",
    "DavisKahanReport",
    "screening_alpha",
    "sample_mean_cov",
    "top_eigenvector",
    "pca_classifier",
    "screening",
    "sparse_pca_classifier",
    "oracle_support_pca",
    "support_truth",
    "support_recovery_check",
    "davis_kahan_check",
]

# Fixed pseudorandom restart direction source for power iteration; keyed so
# reruns are bit-identical.
_RESTART_KEY = 0x5EED0F


@dataclass(frozen=True)
class ScreeningResult:
    """Outcome of variance-threshold feature screening.

    ``selected`` holds 0-based coordinate indices whose sample variance
    strictly exceeds ``tau_hat = (1 + alpha)/(1 - alpha) * min_i var_i``.
    """

    alpha: float
    tau_hat: float
    selected: tuple[int, ...]
    diag_variances: np.ndarray

    def __post_init__(self):
        dv = np.array(self.diag_variances, dtype=np.float64)
        dv.setflags(write=False)
        object.__setattr__(self, "diag_variances", dv)
        object.__setattr__(self, "selected", tuple(int(i) for i in self.selected))

    @property
    def warn_alpha(self) -> bool:
        """True when alpha > 1/4, outside the screening guarantee's range."""
        return self.alpha > 0.25


@dataclass(frozen=True)
class SupportTruth:
    """True relevant set S and the strong subset S_tilde = {i: |h(i)| >= 4 sigma sqrt(alpha)}."""

    S: tuple[int, ...]
    S_tilde: tuple[int, ...]


@dataclass(frozen=True)
class RecoveryReport:
    """Monte-Carlo frequency of the support-recovery event S_tilde <= S_hat <= S."""

    frequency: float
    floor: float  # theoretical 1 - 6/n
    S: tuple[int, ...]
    S_tilde: tuple[int, ...]
    replicates: int
    n: int
    alpha: float

    to_json_dict = json_record


@dataclass(frozen=True)
class DavisKahanReport:
    sin_angle: float
    bound: float
    holds: bool


def screening_alpha(n: int, d: int) -> float:
    """alpha = sqrt(6 log(nd)/n) + 2 log(nd)/n (natural log)."""
    n = _whole_number("n", n)
    d = _whole_number("d", d)
    if n < 1 or d < 1:
        raise InvalidParams("n and d must be positive")
    lognd = math.log(n * d)
    return math.sqrt(6.0 * lognd / n) + 2.0 * lognd / n


def sample_mean_cov(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and 1/n-normalized covariance (not 1/(n-1))."""
    x = data.points
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / data.n
    cov = (cov + cov.T) / 2.0
    return mean, cov


def _check_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrix(f"{name} must be square, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    if float(np.max(np.abs(m - m.T))) > 1e-10 * scale:
        raise InvalidMatrix(f"{name} is not symmetric within 1e-10")
    return m


def top_eigenvector(m: np.ndarray, tol: float = 1e-10, max_iter: int | None = None) -> tuple[np.ndarray, bool]:
    """Leading eigenvector by power iteration from a deterministic start.

    Starts at the basis vector of the largest diagonal entry, with one fixed
    pseudorandom restart if that start sits in the nullspace. On convergence
    the residual ||m v - (v' m v) v|| is below tol * ||m||_2. When the top
    eigenvalue is (numerically) not unique the flag comes back False; the
    returned vector is still a canonical unit vector.
    """
    m = _check_symmetric(m)
    d = m.shape[0]
    if d == 1:
        return np.array([1.0]), True
    if max_iter is None:
        max_iter = int(10 * d * math.log(d)) + 500
    restart = np.random.Generator(np.random.Philox(_RESTART_KEY)).standard_normal(d)
    v = np.zeros(d)
    v[int(np.argmax(np.diag(m)))] = 1.0
    # Three d-vectors serve every step. The bits stay those of m @ v and
    # np.linalg.norm: np.matmul picks the kernel m @ v picks for any layout
    # of m (np.dot would copy a strided m into BLAS), and sqrt(x.dot(x)) is
    # what np.linalg.norm computes for a real vector.
    w = np.empty(d)
    r = np.empty(d)
    norm_est = 0.0
    restarted = False
    ok = False
    for _ in range(max_iter):
        np.matmul(m, v, out=w)
        nw = math.sqrt(w.dot(w))
        if nw == 0.0:
            if restarted:
                break
            np.divide(restart, math.sqrt(restart.dot(restart)), out=v)
            restarted = True
            continue
        norm_est = max(norm_est, nw)
        rho = float(v.dot(w))
        np.multiply(v, rho, out=r)
        np.subtract(w, r, out=r)
        if math.sqrt(r.dot(r)) <= tol * max(norm_est, 1e-300):
            ok = True
            break
        np.divide(w, nw, out=v)
    if ok:
        # Degeneracy probe: if an independent direction is also an eigenvector
        # at the same eigenvalue, there is no eigengap to converge into.
        u = restart - (restart @ v) * v
        nu = float(np.linalg.norm(u))
        if nu > 0.0:
            u = u / nu
            mu_ = m @ u
            rho_u = float(u @ mu_)
            resid_u = float(np.linalg.norm(mu_ - rho_u * u))
            scale = max(norm_est, 1e-300)
            ok = not (resid_u <= tol * scale and abs(rho_u - rho) <= tol * scale)
    v, _ = _canonical_direction(v / np.linalg.norm(v), 0.0)
    return v, ok


def pca_classifier(data: Dataset) -> LinearClassifier:
    """Dense estimator: split along the top sample-covariance eigenvector at
    the projected sample mean."""
    if data.n < 2:
        raise TooFewSamples(f"need n >= 2, got {data.n}")
    mean, cov = sample_mean_cov(data)
    v, ok = top_eigenvector(cov)
    return LinearClassifier(v=v, t=float(mean @ v), degenerate=not ok)


def screening(data: Dataset) -> ScreeningResult:
    """Select coordinates whose sample variance strictly exceeds tau_hat."""
    if data.d < 2:
        raise InvalidDimension(f"screening needs d >= 2, got d = {data.d}")
    if data.n < 2:
        raise TooFewSamples(f"need n >= 2, got {data.n}")
    x = data.points
    centered = x - x.mean(axis=0)
    centered *= centered
    diag = centered.mean(axis=0)
    alpha = screening_alpha(data.n, data.d)
    tau_hat = (1.0 + alpha) / (1.0 - alpha) * float(diag.min())
    selected = tuple(int(i) for i in np.nonzero(diag > tau_hat)[0])
    return ScreeningResult(alpha=alpha, tau_hat=tau_hat, selected=selected, diag_variances=diag)


def _restricted_pca(data: Dataset, idx: tuple[int, ...]) -> LinearClassifier:
    """PCA split on the named coordinates, embedded back into R^d. With no
    coordinates named, a flagged degenerate classifier (v = e_1, t = mean of
    the first coordinate) rather than a silent fallback to dense PCA."""
    v = np.zeros(data.d)
    if not idx:
        v[0] = 1.0
        return LinearClassifier(v=v, t=float(data.points[:, 0].mean()), degenerate=True)
    cols = np.asarray(idx, dtype=np.intp)
    clf_sub = pca_classifier(Dataset(points=data.points[:, cols]))
    v[cols] = clf_sub.v
    return LinearClassifier(v=v, t=clf_sub.t, degenerate=clf_sub.degenerate)


def sparse_pca_classifier(data: Dataset) -> tuple[LinearClassifier, ScreeningResult]:
    """Screen, then run the PCA split on the selected coordinates only.

    The returned direction lives in R^d with zeros off the selected set, so
    the exact loss machinery applies unchanged. An empty selection yields the
    flagged degenerate classifier of ``_restricted_pca``.
    """
    result = screening(data)
    return _restricted_pca(data, result.selected), result


def oracle_support_pca(data: Dataset, theta: MixtureParams) -> LinearClassifier:
    """Comparator that runs the PCA split on the true relevant set of theta.

    Not an estimator (it peeks at theta); it isolates how much of the dense
    estimator's difficulty comes from irrelevant coordinates.
    """
    if data.d != theta.d:
        raise InvalidDimension(f"data dimension {data.d} != theta dimension {theta.d}")
    return _restricted_pca(data, theta.support)


def support_truth(theta: MixtureParams, n: int) -> SupportTruth:
    """The sets S and S_tilde for the screening guarantee at sample size n."""
    alpha = screening_alpha(n, theta.d)
    strong = 4.0 * theta.sigma * math.sqrt(alpha)
    s_tilde = tuple(int(i) for i in np.nonzero(np.abs(theta.half_separation) >= strong)[0])
    return SupportTruth(S=theta.support, S_tilde=s_tilde)


def support_recovery_check(theta: MixtureParams, n: int, replicates: int, seed: int) -> RecoveryReport:
    """Frequency of S_tilde <= S_hat <= S over seeded replicates, against the
    theoretical floor 1 - 6/n."""
    if theta.d < 2:
        raise InvalidDimension("support recovery needs d >= 2")
    n = _whole_number("n", n)
    replicates = _whole_number("replicates", replicates)
    alpha = screening_alpha(n, theta.d)
    if alpha > 0.25:
        raise PreconditionViolated(f"alpha = {alpha:.4f} > 1/4: outside the guarantee's range")
    if replicates < 1:
        raise InvalidParams(f"need at least one replicate, got {replicates}")
    truth = support_truth(theta, n)
    s_set = set(truth.S)
    s_tilde_set = set(truth.S_tilde)
    hits = 0
    for r in range(replicates):
        ds = sample(theta, n, stream_seed(seed, r))
        sel = set(screening(ds).selected)
        if s_tilde_set <= sel <= s_set:
            hits += 1
    return RecoveryReport(
        frequency=hits / replicates,
        floor=1.0 - 6.0 / n,
        S=truth.S,
        S_tilde=truth.S_tilde,
        replicates=replicates,
        n=n,
        alpha=alpha,
    )


def davis_kahan_check(a: np.ndarray, e: np.ndarray) -> DavisKahanReport:
    """Verify the eigenvector perturbation bound on a concrete pair (a, e).

    With u_i = v_{i+1}(a)' e v_1(a), gap = lambda_1(a) - lambda_2(a) and
    ||e||_2 <= gap/5, the sine of the angle between the top eigenvectors of
    a and a + e is at most 4 ||u|| / gap.
    """
    a = _check_symmetric(a, "a")
    e = _check_symmetric(e, "e")
    if a.shape != e.shape:
        raise InvalidMatrix(f"shapes differ: {a.shape} vs {e.shape}")
    evals, evecs = np.linalg.eigh(a)  # ascending
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    gap = float(evals[0] - evals[1])
    if gap <= 0.0:
        raise PreconditionViolated("lambda_1(a) - lambda_2(a) must be positive")
    e_norm = float(np.linalg.norm(e, 2))
    if e_norm > gap / 5.0:
        raise PreconditionViolated(f"||e||_2 = {e_norm:.6g} exceeds gap/5 = {gap / 5.0:.6g}")
    u = evecs[:, 1:].T @ (e @ evecs[:, 0])
    bound = 4.0 * float(np.linalg.norm(u)) / gap
    pert_vals, pert_vecs = np.linalg.eigh(a + e)
    v1_pert = pert_vecs[:, -1]
    inner = float(np.clip(evecs[:, 0] @ v1_pert, -1.0, 1.0))
    sin_angle = math.sqrt(max(0.0, 1.0 - inner * inner))
    return DavisKahanReport(sin_angle=sin_angle, bound=bound, holds=sin_angle <= bound + 1e-12)
