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

from .errors import DomainError, PreconditionViolated, _require
from .model import Dataset, LinearClassifier, MixtureParams, _canonical_direction, _count, _seed, json_record, sample, stream_seed

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
_EPS = float(np.finfo(np.float64).eps)
_TOL = 1e-10  # power iteration's residual bound, relative to ||m||_2


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
    """One pair's sine, bound and verdict; length-k arrays for a stack of k."""

    sin_angle: float | np.ndarray
    bound: float | np.ndarray
    holds: bool | np.ndarray


def screening_alpha(n: int, d: int) -> float:
    """alpha = sqrt(6 log(nd)/n) + 2 log(nd)/n (natural log)."""
    n, d = _count("n", n), _count("d", d)
    lognd = math.log(n * d)
    return math.sqrt(6.0 * lognd / n) + 2.0 * lognd / n


def sample_mean_cov(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and 1/n-normalized covariance (not 1/(n-1))."""
    x = data.points
    mean = x.mean(axis=0)
    centered = x - mean
    return mean, centered.T @ centered / data.n


def _check_symmetric(m: np.ndarray, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """m as float64, checked to be a real square matrix (or, with ``stack``, a
    (k, d, d) stack of them) that is non-empty, finite and symmetric within
    1e-10 of its largest entry. A failed check on a stack names the member."""
    m = np.asarray(m)
    if m.dtype.kind not in "iuf":
        raise DomainError(f"{name} must have a real numeric dtype, got {m.dtype}")
    m = m.astype(np.float64, copy=False)
    if m.ndim not in ((2, 3) if stack else (2,)) or m.shape[-2] != m.shape[-1] or m.size == 0:
        raise DomainError(f"{name} must be square and non-empty, got shape {m.shape}")
    top = np.max(np.abs(m), axis=(-2, -1))
    finite = np.isfinite(top)
    if not finite.all():
        raise DomainError(f"{_member(name, ~finite)} has a non-finite entry")
    bad = np.max(np.abs(m - np.swapaxes(m, -2, -1)), axis=(-2, -1)) > 1e-10 * np.maximum(1.0, top)
    if bad.any():
        raise DomainError(f"{_member(name, bad)} is not symmetric within 1e-10")
    return m


def _first(bad) -> int:
    """The index of the first set flag of a flag per member (0 for one flag)."""
    return int(np.flatnonzero(bad)[0])


def _member(name: str, bad) -> str:
    """``name`` for a single matrix's flag, ``name[i]`` for the first member
    i of a stack that ``bad`` flags."""
    return name if np.ndim(bad) == 0 else f"{name}[{_first(bad)}]"


def top_eigenvector(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """Leading eigenvector by power iteration from a deterministic start.

    Starts at the basis vector of the largest diagonal entry, with one fixed
    pseudorandom restart if that start sits in the nullspace. On convergence
    the residual ||m v - rho v||, rho = v' m v, is below _TOL * ||m||_2. The
    flag comes back False without convergence in int(10 d log d) + 500
    steps, when a second eigenvalue of m (by eigvalsh) lies within that bound
    of rho (a tied top eigenvalue, at any d >= 2, leaves the direction
    undefined), or when an eigenvalue exceeds |rho| + bound in magnitude (v
    is an eigenvector, but not the top one).
    """
    m = _check_symmetric(m)
    d = m.shape[0]
    if d == 1:
        return np.array([1.0]), True
    v = np.zeros(d)
    v[int(np.argmax(np.diag(m)))] = 1.0
    # Three d-vectors serve every step. The bits stay those of m @ v and
    # np.linalg.norm: m.dot calls the gemv that m @ v calls for a C- or
    # F-ordered m, np.matmul keeps other layouts off a copy into BLAS, and
    # sqrt(x.dot(x)) is what np.linalg.norm computes for a real vector.
    mv = m.dot if m.flags.forc else lambda x, out: np.matmul(m, x, out=out)
    w = np.empty(d)
    r = np.empty(d)
    # For a unit v, ||w||^2 - rho^2 is ||w - rho v||^2 within (5d + 14) eps
    # ||w||^2 (CHANGES.md); slack is over 4x that. So the exact residual is
    # formed only where this allows convergence, or where ||w||^2 of this step
    # or of the one that made v is outside (1e-250, 1e250), beyond that bound.
    slack = 32.0 * (d + 2) * _EPS
    in_range = True
    norm_est = 0.0
    restarted = False
    ok = False
    for _ in range(int(10 * d * math.log(d)) + 500):
        mv(v, out=w)
        ww = float(w.dot(w))
        nw = math.sqrt(ww)
        if nw == 0.0:
            if restarted:
                break
            restart = np.random.Generator(np.random.Philox(_RESTART_KEY)).standard_normal(d)
            np.divide(restart, math.sqrt(restart.dot(restart)), out=v)
            restarted = True
            continue
        norm_est = max(norm_est, nw)
        rho = float(v.dot(w))
        bound = _TOL * max(norm_est, 1e-300)
        v_in_range, in_range = in_range, 1e-250 < ww < 1e250
        if not (v_in_range and in_range and ww - rho * rho > bound * bound + slack * ww):
            np.multiply(v, rho, out=r)
            np.subtract(w, r, out=r)
            if math.sqrt(r.dot(r)) <= bound:
                ok = True
                break
        np.divide(w, nw, out=v)
    if ok:
        # A second eigenvalue within the residual bound of rho: no eigengap.
        # An eigenvalue beyond |rho| + bound: v converged to an eigenvector
        # that is not the top one (a start orthogonal to the top eigenvector).
        ev = np.linalg.eigvalsh(m)
        ok = bool(np.partition(np.abs(ev - rho), 1)[1] > bound and max(-ev[0], ev[-1]) <= abs(rho) + bound)
    v, _ = _canonical_direction(v / np.linalg.norm(v), 0.0)
    return v, ok


def pca_classifier(data: Dataset) -> LinearClassifier:
    """Dense estimator: split along the top sample-covariance eigenvector at
    the projected sample mean."""
    if data.n < 2:
        raise DomainError(f"need n >= 2, got {data.n}")
    mean, cov = sample_mean_cov(data)
    v, ok = top_eigenvector(cov)
    return LinearClassifier(v=v, t=float(mean @ v), degenerate=not ok)


def screening(data: Dataset) -> ScreeningResult:
    """Select coordinates whose sample variance strictly exceeds tau_hat."""
    if data.d < 2:
        raise DomainError(f"screening needs d >= 2, got d = {data.d}")
    if data.n < 2:
        raise DomainError(f"need n >= 2, got {data.n}")
    diag = data.points.var(axis=0)
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
        raise DomainError(f"data dimension {data.d} != theta dimension {theta.d}")
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
        raise DomainError("support recovery needs d >= 2")
    n, replicates, seed = _count("n", n), _count("replicates", replicates), _seed("seed", seed)
    alpha = screening_alpha(n, theta.d)
    _require(alpha <= 0.25, f"alpha = {alpha:.4f} > 1/4: outside the guarantee's range")
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
    a and a + e is at most 4 ||u|| / gap. ``a`` and ``e`` are one (d, d) pair,
    d >= 2, or a (k, d, d) stack of pairs; for a stack the report holds
    length-k arrays, each member with the bits of its own single-pair check.
    """
    a = _check_symmetric(a, "a", stack=True)
    e = _check_symmetric(e, "e", stack=True)
    if a.shape != e.shape:
        raise DomainError(f"shapes differ: {a.shape} vs {e.shape}")
    if a.shape[-1] < 2:
        raise DomainError(f"the check needs d >= 2, got d = {a.shape[-1]}")
    evals, evecs = np.linalg.eigh(a)  # ascending
    gap = evals[..., -1] - evals[..., -2]
    bad = gap <= 0.0
    if bad.any():
        a_i = _member("a", bad)
        raise PreconditionViolated(f"lambda_1({a_i}) - lambda_2({a_i}) must be positive")
    e_norm = np.linalg.norm(e, 2, axis=(-2, -1))
    bad = e_norm > gap / 5.0
    if bad.any():
        i = _first(bad)
        raise PreconditionViolated(
            f"||{_member('e', bad)}||_2 = {np.ravel(e_norm)[i]:.6g} exceeds gap/5 = {np.ravel(gap)[i] / 5.0:.6g}"
        )
    # Each product is a matmul whose members have the strides of one pair's
    # 1-D @ (e v1, the other eigenvectors against it, u'u, v1 against the
    # perturbed v1), so it calls that @'s ddot, gemv or plain loop per member
    # and a stack keeps each pair's bits; sqrt(u'u) is np.linalg.norm(u).
    v1 = evecs[..., :, -1:]
    u = np.matmul(np.swapaxes(evecs[..., :, -2::-1], -2, -1), np.matmul(e, v1))
    bound = 4.0 * np.sqrt(np.matmul(np.swapaxes(u, -2, -1), u)[..., 0, 0]) / gap
    _, pert_vecs = np.linalg.eigh(a + e)
    inner = np.clip(np.matmul(np.swapaxes(v1, -2, -1), pert_vecs[..., :, -1:])[..., 0, 0], -1.0, 1.0)
    sin_angle = np.sqrt(np.maximum(0.0, 1.0 - inner * inner))
    holds = sin_angle <= bound + 1e-12
    if a.ndim == 2:
        return DavisKahanReport(sin_angle=float(sin_angle), bound=float(bound), holds=bool(holds))
    return DavisKahanReport(sin_angle=sin_angle, bound=bound, holds=holds)
