"""Two-component isotropic Gaussian mixture: domain types and sampling.

The mixture density is ``0.5 N(mu1, sigma^2 I) + 0.5 N(mu2, sigma^2 I)`` with
equal weights and a known, shared noise level ``sigma``. Internally everything
is expressed through the center ``mu0 = (mu1 + mu2)/2`` and the half-separation
vector ``h = (mu2 - mu1)/2``; the signal-to-noise ratio is ``snr = ||h||/sigma``.
"""

from __future__ import annotations

import math
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

# sample and mixture_log_density walk (n, d) rows in blocks of about this many
# bytes. A block against a block-shaped copy of a row vector is one long numpy
# inner loop (a broadcast row runs one loop per row), stays in cache and needs
# no (n, d) temporary.
_BLOCK_BYTES = 1 << 17


def _seed(name: str, value) -> int:
    """A seed or seed-path index as an int in [0, 2^64), or DomainError naming
    it: never a bool, never truncated, never wrapped (-1 is not 2^64 - 1)."""
    seed = _whole_number(name, value)
    if not 0 <= seed < 2**64:
        raise DomainError(f"{name} must lie in [0, 2^64), got {value!r}")
    return seed


def stream_seed(master_seed: int, *path: int) -> int:
    """Derive a child seed from a master seed and an index path.

    Built on numpy's splittable ``SeedSequence``: ``stream_seed(s, i)`` gives
    a well-mixed, independent stream per replicate index, and nested paths
    (``stream_seed(s, i, j)``) split further. Deterministic across platforms.
    The seed and each index are whole numbers in [0, 2^64).
    """
    key = tuple(_seed("seed path index", p) for p in path)
    ss = np.random.SeedSequence(entropy=_seed("seed", master_seed), spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) for a 64-bit seed: a whole number in
    [0, 2^64)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_seed("seed", seed))))


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
    truncated (1000.0 is 1000, 2.7 is an error). An integer is taken as it
    is, so one beyond the float range is not an OverflowError."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise DomainError(f"{name} must be a whole number, got {value!r}")


def _count(name: str, value) -> int:
    """A count of at least one as an int, or DomainError naming it: a count
    of nothing (a suite that checks nothing, say) must not pass."""
    count = _whole_number(name, value)
    if count < 1:
        raise DomainError(f"{name} must be >= 1, got {count}")
    return count


def _real_number(name: str, value) -> float:
    """A finite real as a float, or DomainError naming it: never a bool, a
    string, NaN or an infinity."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return x


def _squarable(name: str, value) -> float:
    """A finite real that is 0 or lies between 2^-510 and 2^510 in magnitude,
    as a float, or DomainError naming it. The square of such a number, and of
    a sum of two, is 0 or a finite normal float: a formula that squares it
    neither overflows nor divides by a square that underflowed to 0."""
    x = _real_number(name, value)
    if x != 0.0 and not 2.0**-510 <= abs(x) <= 2.0**510:
        raise DomainError(f"{name} must be 0 or lie between 2^-510 and 2^510 in magnitude, got {value!r}")
    return x


def _block_rows(n: int, d: int) -> int:
    """Rows per block of an (n, d) float64 pass: about _BLOCK_BYTES, at
    least one row and at most n."""
    return max(1, min(n, _BLOCK_BYTES // (8 * max(d, 1))))


def _row_sums(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.sum(rows, axis=1, out=out)`` for a C-ordered (m, d) block, bit for
    bit; when d >= 8 it overwrites columns 2, 4 and 6 of the block.

    numpy runs its reduce loop once per row. Below 16 entries that loop costs
    more than the adds, so there the columns are added whole, in the order
    numpy adds a short row: +0.0 first, then left to right below 8 entries;
    from 8, the first eight as ((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7)), then the
    rest one at a time."""
    d = rows.shape[1]
    if not 0 < d < 16:
        return np.sum(rows, axis=1, out=out)
    c = rows.T
    if d < 8:
        np.add(c[0], 0.0, out=out)
        rest = c[1:]
    else:
        # out takes the left branch: fewer strided writes into the block.
        np.add(c[0], c[1], out=out)
        for j, k in ((2, 3), (4, 5), (6, 7), (4, 6)):
            np.add(c[j], c[k], out=c[j])
        out += c[2]
        out += c[4]
        out += 0.0
        rest = c[8:]
    for col in rest:
        out += col
    return out


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
    """Parameter pair (mu1, mu2) with shared isotropic noise level sigma.

    ``center`` mu0 = (mu1 + mu2)/2, ``half_separation`` h = (mu2 - mu1)/2 (so
    mu_{1,2} = mu0 -/+ h) and ``half_separation_norm`` ||h|| are derived once,
    read-only, and are not fields: equality and the JSON record skip them.
    Both must be finite, and each nonzero entry of h must lie between 2^-510
    and 2^510 in magnitude, so that its square is a normal float; otherwise
    InvalidParams.
    """

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
        sigma = _squarable("sigma", self.sigma)
        if sigma <= 0.0:
            raise InvalidParams(f"sigma must be a positive real, got {sigma}")
        with np.errstate(over="ignore"):
            center = _as_readonly((mu1 + mu2) / 2.0)
            h = _as_readonly((mu2 - mu1) / 2.0)
            nh = float(np.linalg.norm(h))
        if not np.all(np.isfinite(center)):
            raise InvalidParams("the center (mu1 + mu2)/2 must be finite")
        # The loss and the bounds square h's entries and its norm; an entry
        # that overflowed is out of range too.
        entries = np.abs(h[h != 0.0])
        if entries.size and not 2.0**-510 <= entries.min() <= entries.max() <= 2.0**510:
            worst = entries.min() if entries.min() < 2.0**-510 else entries.max()
            raise InvalidParams(
                f"each nonzero entry of h = (mu2 - mu1)/2 must lie between 2^-510 and 2^510 in magnitude, got {float(worst)!r}"
            )
        if not math.isfinite(nh):
            raise InvalidParams(f"||h|| = ||mu2 - mu1||/2 must be finite, got {nh}")
        object.__setattr__(self, "mu1", mu1)
        object.__setattr__(self, "mu2", mu2)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_separation", h)
        object.__setattr__(self, "half_separation_norm", nh)

    @property
    def d(self) -> int:
        return self.mu1.shape[0]

    @property
    def separation(self) -> float:
        """lambda = ||mu1 - mu2|| = 2 ||h||."""
        return 2.0 * self.half_separation_norm

    @property
    def snr(self) -> float:
        """||h|| / sigma (half the separation in noise units)."""
        return self.half_separation_norm / self.sigma

    @property
    def support(self) -> tuple[int, ...]:
        """Indices where the component means differ (0-based)."""
        return tuple(int(i) for i in np.nonzero(self.half_separation)[0])

    @property
    def sparsity(self) -> int:
        return len(self.support)

    to_json_dict = json_record


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
        v, t = _canonical_direction(v, _real_number("t", self.t))
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
        # A finite sum means every entry is finite, and needs no (n, d) bool
        # temporary; only a non-finite sum (or one that overflows) looks closer.
        with np.errstate(over="ignore", invalid="ignore"):
            total = pts.sum()
        if not (np.isfinite(total) or np.all(np.isfinite(pts))):
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


def _placer(theta: MixtureParams, step: int):
    """``sample``'s in-place step z -> sigma*z +/- h + center on a block of at
    most ``step`` standard normal rows and their labels in {0, 1} (0 takes
    -h), with its buffers made once. Each step rounds, so the order fixes the
    bits of every report; x + (-h) rounds exactly as x - h."""
    offsets = np.stack((-theta.half_separation, theta.half_separation))
    center = np.tile(theta.center, (step, 1))
    shift = np.empty((step, theta.d))

    def place(block: np.ndarray, labels: np.ndarray) -> None:
        m = len(block)
        block *= theta.sigma
        # The index is 0 or 1, so "clip" changes nothing; it lets take write
        # to out without the buffer that the default "raise" makes.
        np.take(offsets, labels, axis=0, out=shift[:m], mode="clip")
        block += shift[:m]
        block += center[:m]

    return place


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
    # The block buffers come before the points. Made after them, they left
    # glibc holding freed (n, d) arrays in two-thread sweeps: sweep-large's
    # peak RSS rose from 243 MB to 245-280 MB, depending on the seed.
    step = _block_rows(n, theta.d)
    place = _placer(theta, step)
    rng = make_rng(seed)
    labels = rng.integers(0, 2, size=n)  # 0 or 1 here: the row of offsets to add
    points = rng.standard_normal((n, theta.d))
    for start in range(0, n, step):
        place(points[start : start + step], labels[start : start + step])
    labels += 1  # label 1 is Y = -1, label 2 is Y = +1
    points.setflags(write=False)
    labels.setflags(write=False)
    return Dataset(points=points, labels=labels)


def bayes_classifier(theta: MixtureParams) -> LinearClassifier:
    """Optimal rule for known theta: the midpoint hyperplane normal to h."""
    nh = theta.half_separation_norm
    if nh == 0.0:
        raise DegenerateSeparation("mu1 == mu2: no separating hyperplane")
    v = theta.half_separation / nh
    t = float(theta.center @ v)
    return LinearClassifier(v=v, t=t)


def _log_density_kernel(theta: MixtureParams, step: int):
    """A function that writes log p_theta of each row of a block of at most
    ``step`` rows into ``out``, with its buffers made once.

    q[k] is sum((x - mu_k)^2) per row, with the bits of a whole-array
    np.sum(axis=1), and every later step is elementwise: the blocks do not
    change a bit of norm_const + logaddexp(-q1, -q2) - log 2. The working set
    is one block's buffers.
    """
    s2 = theta.sigma**2
    norm_const = -0.5 * theta.d * (_LOG_2PI + np.log(s2))
    log2 = np.log(2.0)
    means = (np.tile(theta.mu1, (step, 1)), np.tile(theta.mu2, (step, 1)))
    buf = np.empty((step, theta.d))
    q = np.empty((2, step))

    def log_density(block: np.ndarray, out: np.ndarray) -> np.ndarray:
        m = len(block)
        for k, mean in enumerate(means):
            np.subtract(block, mean[:m], out=buf[:m])
            np.square(buf[:m], out=buf[:m])
            _row_sums(buf[:m], q[k, :m])
        qm = q[:, :m]
        qm /= 2.0 * s2
        np.negative(qm, out=qm)
        np.logaddexp(qm[0], qm[1], out=out)
        out += norm_const
        out -= log2
        return out

    return log_density


def mixture_log_density(theta: MixtureParams, x: np.ndarray) -> float | np.ndarray:
    """log p_theta(x) via log-sum-exp of the two component log-densities.

    Accepts a single point (1-D) or a batch (n, d); finite for all finite x.
    """
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    pts = np.atleast_2d(arr)
    if pts.shape[1] != theta.d:
        raise ShapeError(f"x has dimension {pts.shape[1]}, theta has {theta.d}")
    n = pts.shape[0]
    step = _block_rows(n, theta.d)
    log_density = _log_density_kernel(theta, step)
    out = np.empty(n)
    for start in range(0, n, step):
        log_density(pts[start : start + step], out[start : start + step])
    return float(out[0]) if single else out
