"""Two-component isotropic Gaussian mixture: domain types and sampling.

The mixture density is ``0.5 N(mu1, sigma^2 I) + 0.5 N(mu2, sigma^2 I)`` with
equal weights and a known, shared noise level ``sigma``. Internally everything
is expressed through the center ``mu0 = (mu1 + mu2)/2`` and the half-separation
vector ``h = (mu2 - mu1)/2``; the signal-to-noise ratio is ``snr = ||h||/sigma``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateSeparation,
    DomainError,
    EmptySample,
    InvalidClassifier,
    InvalidParams,
    ShapeError,
)

__all__ = [
    "MixtureParams",
    "LinearClassifier",
    "Dataset",
    "stream_seed",
    "make_rng",
    "sample",
    "bayes_classifier",
    "mixture_log_density",
    "json_record",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


def stream_seed(master_seed: int, *path: int) -> int:
    """Derive a child seed from a master seed and an index path.

    Built on numpy's splittable ``SeedSequence``: ``stream_seed(s, i)`` gives
    a well-mixed, independent stream per replicate index, and nested paths
    (``stream_seed(s, i, j)``) split further. Deterministic across platforms.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed) & (2**64 - 1), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) for a given 64-bit seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed) & (2**64 - 1))))


def json_record(obj) -> dict:
    """A dataclass as a JSON-ready dict: one key per field, arrays and tuples as lists."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _whole_number(name: str, value) -> int:
    """A count as an int, or DomainError naming it: never a bool, never
    truncated (1000.0 is 1000, 2.7 is an error)."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise DomainError(f"{name} must be a whole number, got {value!r}")


def _as_readonly(a, dtype=np.float64) -> np.ndarray:
    """``a`` itself if it is a read-only array of ``dtype`` that owns its data,
    else a read-only copy. Writing to a taken array through a view made before
    it was frozen is the caller's fault."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.owndata and not a.flags.writeable:
        return a
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _canonical_direction(v: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """Flip (v, t) -> (-v, -t) so the largest-|coordinate| entry of v is >= 0.

    The two forms induce the same partition of R^d; canonicalizing makes
    classifier equality testable.
    """
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        return -v, -t
    return v, t


@dataclass(frozen=True)
class MixtureParams:
    """Parameter pair (mu1, mu2) with shared isotropic noise level sigma."""

    mu1: np.ndarray
    mu2: np.ndarray
    sigma: float

    def __post_init__(self):
        mu1 = _as_readonly(np.atleast_1d(self.mu1))
        mu2 = _as_readonly(np.atleast_1d(self.mu2))
        if mu1.ndim != 1 or mu2.ndim != 1:
            raise InvalidParams("component means must be vectors")
        if mu1.shape != mu2.shape:
            raise ShapeError(f"mean shapes differ: {mu1.shape} vs {mu2.shape}")
        if not (np.all(np.isfinite(mu1)) and np.all(np.isfinite(mu2))):
            raise InvalidParams("component means must be finite")
        sigma = float(self.sigma)
        if not np.isfinite(sigma) or sigma <= 0.0:
            raise InvalidParams(f"sigma must be a positive real, got {sigma}")
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)
        object.__setattr__(self, "sigma", sigma)

    @property
    def d(self) -> int:
        return self.mu1.shape[0]

    @property
    def center(self) -> np.ndarray:
        """Midpoint mu0 = (mu1 + mu2)/2."""
        return (self.mu1 + self.mu2) / 2.0

    @property
    def half_separation(self) -> np.ndarray:
        """h = (mu2 - mu1)/2, so mu_{1,2} = mu0 -/+ h."""
        return (self.mu2 - self.mu1) / 2.0

    @property
    def separation(self) -> float:
        """lambda = ||mu1 - mu2|| = 2 ||h||."""
        return float(np.linalg.norm(self.mu2 - self.mu1))

    @property
    def snr(self) -> float:
        """||h|| / sigma (half the separation in noise units)."""
        return float(np.linalg.norm(self.half_separation)) / self.sigma

    @property
    def support(self) -> tuple[int, ...]:
        """Indices where the component means differ (0-based)."""
        return tuple(int(i) for i in np.nonzero(self.half_separation)[0])

    @property
    def sparsity(self) -> int:
        return len(self.support)

    def shifted(self, c) -> "MixtureParams":
        """Translate both component means by the constant vector c."""
        c = np.asarray(c, dtype=np.float64)
        return MixtureParams(self.mu1 + c, self.mu2 + c, self.sigma)

    to_json_dict = json_record

    @staticmethod
    def from_json_dict(obj: dict) -> "MixtureParams":
        return MixtureParams(np.asarray(obj["mu1"], dtype=float), np.asarray(obj["mu2"], dtype=float), float(obj["sigma"]))


@dataclass(frozen=True)
class LinearClassifier:
    """Hyperplane rule: label 1 if x . v >= t, else 2 (ties go to label 1).

    Stored in canonical form (largest-|coordinate| entry of v nonnegative);
    ``degenerate`` marks classifiers produced by an estimator that found no
    usable signal.
    """

    v: np.ndarray
    t: float
    degenerate: bool = False

    def __post_init__(self):
        v = np.array(np.atleast_1d(self.v), dtype=np.float64)
        if v.ndim != 1:
            raise InvalidClassifier(f"direction must be a 1-D vector, got shape {v.shape}")
        nv = float(np.linalg.norm(v))
        if not np.isfinite(nv) or abs(nv - 1.0) > 1e-12:
            raise InvalidClassifier(f"direction must be a unit vector, |v| = {nv}")
        v, t = _canonical_direction(v, float(self.t))
        v = _as_readonly(v)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "t", float(t))
        object.__setattr__(self, "degenerate", bool(self.degenerate))

    @property
    def d(self) -> int:
        return self.v.shape[0]

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Labels in {1, 2} for an (n, d) array (or a single point)."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.shape[1] != self.d:
            raise ShapeError(f"points have dimension {pts.shape[1]}, classifier has {self.d}")
        return np.where(pts @ self.v >= self.t, 1, 2).astype(np.int64)


@dataclass(frozen=True)
class Dataset:
    """An (n, d) sample matrix with optional latent labels.

    Read-only float64 points (int64 labels) that own their data are taken as
    they are; anything else, a writeable array or a view included, is copied.
    """

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = _as_readonly(np.atleast_2d(self.points))
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise EmptySample("a dataset needs at least one row")
        if not np.all(np.isfinite(pts)):
            raise InvalidParams("all data rows must be finite")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = _as_readonly(self.labels, np.int64)
            if lab.shape != (pts.shape[0],):
                raise ShapeError(f"labels have shape {lab.shape}, expected ({pts.shape[0]},)")
            # A label that the int64 cast changed (1.7 -> 1) is rejected, not truncated.
            if not (np.all((lab == 1) | (lab == 2)) and (lab is self.labels or np.array_equal(lab, self.labels))):
                raise InvalidParams("labels must take values in {1, 2}")
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def sample(theta: MixtureParams, n: int, seed: int) -> Dataset:
    """Draw n i.i.d. points from the mixture: row = mu0 + Y*h + sigma*Z.

    Y is uniform on {-1, +1} (recorded as labels 1/2) and Z is standard
    normal in R^d. Identical (theta, n, seed) give bit-identical output.
    """
    if not isinstance(theta, MixtureParams):
        raise InvalidParams("theta must be a MixtureParams")
    n = _whole_number("n", n)
    if n < 1:
        raise EmptySample(f"need n >= 1 points, got {n}")
    rng = make_rng(seed)
    labels = rng.integers(0, 2, size=n) + 1  # label 1 is Y = -1, label 2 is Y = +1
    up = (labels == 2)[:, None]
    # In place, with no (n, d) temporary. Each step rounds, so the order
    # sigma*z, +/- h, + center fixes the bits of every report.
    points = rng.standard_normal((n, theta.d))
    points *= theta.sigma
    h = theta.half_separation
    np.add(points, h, out=points, where=up)
    np.subtract(points, h, out=points, where=~up)
    points += theta.center
    points.setflags(write=False)
    labels.setflags(write=False)
    return Dataset(points=points, labels=labels)


def bayes_classifier(theta: MixtureParams) -> LinearClassifier:
    """Optimal rule for known theta: the midpoint hyperplane normal to h."""
    h = theta.half_separation
    nh = float(np.linalg.norm(h))
    if nh == 0.0:
        raise DegenerateSeparation("mu1 == mu2: no separating hyperplane")
    v = h / nh
    t = float(theta.center @ v)
    return LinearClassifier(v=v, t=t)


def mixture_log_density(theta: MixtureParams, x: np.ndarray) -> float | np.ndarray:
    """log p_theta(x) via log-sum-exp of the two component log-densities.

    Accepts a single point (1-D) or a batch (n, d); finite for all finite x.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != theta.d:
        raise ShapeError(f"x has dimension {pts.shape[1]}, theta has {theta.d}")
    s2 = theta.sigma**2
    norm_const = -0.5 * theta.d * (_LOG_2PI + np.log(s2))
    q1 = np.sum((pts - theta.mu1) ** 2, axis=1) / (2.0 * s2)
    q2 = np.sum((pts - theta.mu2) ** 2, axis=1) / (2.0 * s2)
    out = norm_const + np.logaddexp(-q1, -q2) - np.log(2.0)
    return float(out[0]) if single else out

