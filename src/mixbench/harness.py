"""Replicated simulation sweeps: fit an estimator, score it, fit rate slopes.

A sweep runs ``replicates`` independent datasets at each value of one axis
(n, d, lambda or s), scores every fitted classifier by its exact loss (so
rate experiments carry no loss-estimation noise), and summarizes mean
loss per axis value with a log-log slope fit. Replicate seeds are derived
from the master seed by index, so serial and parallel executions produce
identical results.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import warnings
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields

import numpy as np
from scipy.special import stdtrit

from .errors import ConfigError, DomainError, InvalidParams, MixbenchError, TooFewPoints
from .estimators import oracle_support_pca, pca_classifier, sparse_pca_classifier
from .loss import loss_exact_linear
from .loss import loss_monte_carlo  # not called here; perfbench/tracing.py BINDINGS rebinds this name
from .model import MixtureParams, json_record, sample, stream_seed

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "SweepSummary",
    "SweepResult",
    "SweepPoint",
    "signal_vector",
    "run_experiment",
    "fit_rate",
    "emit_report",
    "load_config",
    "CSV_COLUMNS",
    "json_chunks",
    "write_atomic",
]

ESTIMATORS = ("dense_pca", "sparse_pca", "oracle_support_pca")
AXES = ("n", "d", "lambda", "s")

# What each config field must be in JSON, by its annotation (less "| None").
_JSON_TYPES = {"str": "a string", "int": "an integer", "float": "a finite number", "tuple[float, ...]": "a list of numbers"}


def _key(name: str) -> str:
    """Config and report key of a field: ``lam`` is ``lambda``, ``sweep_axis`` is ``sweep.axis``."""
    return "lambda" if name == "lam" else name.replace("sweep_", "sweep.")


def _checked(key: str, kind: str, value):
    """``value`` as the JSON type ``kind``; a ConfigError naming ``key`` otherwise.
    Booleans are not numbers here, and integers are not strings."""
    if kind == "str":
        if isinstance(value, str):
            return value
    elif kind == "tuple[float, ...]":
        if isinstance(value, (list, tuple)):
            return tuple(_checked(key, "float", v) for v in value)
    elif not isinstance(value, bool):
        if kind == "int" and isinstance(value, numbers.Integral):
            return int(value)
        if kind == "float" and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    raise ConfigError(f"{key} must be {_JSON_TYPES[kind]}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. Its fields are the config keys (``lam`` is ``lambda``,
    ``sweep_axis`` and ``sweep_values`` are the ``sweep`` object); each value
    must have the JSON type of its annotation. Construction resolves every
    sweep point into ``points``, one ``SweepPoint`` per axis value, so a
    config that cannot run fails here, before any compute, and a run builds
    no mixture of its own.
    """

    estimator: str
    n: int
    d: int
    lam: float
    sigma: float = 1.0
    s: int | None = None
    replicates: int = 1
    master_seed: int = 0
    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or not f.type.endswith(" | None"):
                object.__setattr__(self, f.name, _checked(_key(f.name), f.type.removesuffix(" | None"), value))
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError(f"master_seed must lie in [0, 2^64), got {self.master_seed}")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if self.lam <= 0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        values = (self.n,)
        if self.sweep_axis is not None or self.sweep_values is not None:
            if self.sweep_axis not in AXES:
                raise ConfigError(f"sweep.axis must be one of {AXES}, got {self.sweep_axis!r}")
            values = self.sweep_values or ()
            if len(values) < 1:
                raise ConfigError("sweep.values must be nonempty")
            if any(v <= 0 for v in values):
                raise ConfigError("sweep.values must be positive")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError("sweep.values must be strictly increasing")
            if self.sweep_axis in ("n", "d", "s") and any(v != int(v) for v in values):
                raise ConfigError(f"sweep.values on the {self.sweep_axis} axis must be whole numbers, got {values}")
        points = []
        for value in values:
            at = {"n": self.n, "d": self.d, "lambda": self.lam, "s": self.s}
            if self.sweep_axis is not None:
                at[self.sweep_axis] = value if self.sweep_axis == "lambda" else int(value)
            h = signal_vector(at["d"], at["lambda"], at["s"])
            if at["n"] < 2:
                raise ConfigError(f"n must be >= 2, got {at['n']}")
            if self.estimator == "sparse_pca" and at["d"] < 2:
                raise ConfigError(f"sparse_pca needs d >= 2, got d = {at['d']}")
            try:
                theta = MixtureParams(-h, h, self.sigma)
            except InvalidParams as exc:
                raise ConfigError(f"lambda = {at['lambda']!r} cannot build its mixture: {exc}") from None
            points.append(SweepPoint(float(value), theta, at["n"], at["s"]))
        # Not a field: derived from the fields, so fields() stay the config keys.
        object.__setattr__(self, "points", tuple(points))


@dataclass(frozen=True)
class SweepPoint:
    """One resolved sweep point: its axis value (n when there is no sweep),
    the mixture, the sample size and the sparsity."""

    value: float
    theta: MixtureParams
    n: int
    s: int | None


@dataclass(frozen=True)
class SweepRow:
    """One replicate. Its fields, in order, are the report columns."""

    axis: str
    axis_value: float
    replicate: int
    seed: int
    n: int
    d: int
    s: int | None
    lam: float
    sigma: float
    estimator: str
    loss: float
    loss_method: str
    degenerate: bool
    # Nothing sets it, so the column reads 0.0; ROADMAP item 1b drops it
    # together with loss_method at the next re-pin of the report bytes.
    runtime_ms: float = 0.0


@dataclass(frozen=True)
class SweepSummary:
    axis_value: float
    mean_loss: float
    std_err: float
    replicates: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    summary: tuple[SweepSummary, ...]
    fitted_slope: float | None = None
    slope_ci95: tuple[float, float] | None = None


_ROW_FIELDS = tuple(f.name for f in fields(SweepRow))
CSV_COLUMNS = [_key(name) for name in _ROW_FIELDS]
# Top-level config keys; the sweep fields are read from the "sweep" object.
_CONFIG_FIELDS = {_key(f.name): f for f in fields(ExperimentConfig) if "." not in _key(f.name)}


def signal_vector(d: int, lam: float, s: int | None = None) -> np.ndarray:
    """Half-separation vector h, ||h|| = lambda/2, spread equally over the
    first s coordinates (all d when s is None)."""
    s_eff = d if s is None else s
    if not (1 <= s_eff <= d):
        raise ConfigError(f"s must lie in [1, d], got s = {s_eff}, d = {d}")
    h = np.zeros(d)
    h[:s_eff] = lam / (2.0 * math.sqrt(s_eff))
    return h


def _run_one(config: ExperimentConfig, axis: str, point: SweepPoint, replicate: int, index: int) -> SweepRow:
    theta = point.theta
    seed = stream_seed(config.master_seed, index)
    ds = sample(theta, point.n, seed)
    if config.estimator == "dense_pca":
        clf = pca_classifier(ds)
    elif config.estimator == "sparse_pca":
        clf, _ = sparse_pca_classifier(ds)
    else:
        clf = oracle_support_pca(ds, theta)
    return SweepRow(
        axis=axis,
        axis_value=point.value,
        replicate=replicate,
        seed=seed,
        n=point.n,
        d=theta.d,
        s=point.s,
        lam=theta.separation,
        sigma=config.sigma,
        estimator=config.estimator,
        loss=loss_exact_linear(theta, clf),
        loss_method="quadrature",
        degenerate=clf.degenerate,
    )


def run_experiment(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Run the configured sweep. Replicate seeds depend only on the task
    index, so serial and parallel executions give identical rows."""
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral) or threads < 1:
        raise DomainError(f"threads must be a whole number >= 1, got {threads!r}")
    axis = config.sweep_axis or "none"
    if config.estimator == "dense_pca":
        for p in config.points:
            if p.n < 4 * p.theta.d:
                warnings.warn(f"dense estimator with n = {p.n} < 4d = {4 * p.theta.d}: outside the guarantee's range")
                break
    reps = config.replicates
    tasks = [(p, r, i * reps + r) for i, p in enumerate(config.points) for r in range(reps)]
    if threads == 1:
        rows = [_run_one(config, axis, *t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda t: _run_one(config, axis, *t), tasks))

    # Rows come in task order (map keeps it): point by point, replicate by replicate.
    summaries = []
    for i, p in enumerate(config.points):
        losses = np.array([r.loss for r in rows[i * reps : (i + 1) * reps]])
        se = float(losses.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
        summaries.append(SweepSummary(axis_value=p.value, mean_loss=float(losses.mean()), std_err=se, replicates=reps))

    # A zero mean loss has no logarithm: it is dropped from the log-log fit.
    pts = [(sm.axis_value, sm.mean_loss) for sm in summaries if sm.mean_loss > 0.0]
    slope, _, ci = fit_rate(pts) if len(pts) >= 2 else (None, None, None)
    return SweepResult(rows=tuple(rows), summary=tuple(summaries), fitted_slope=slope, slope_ci95=ci)


def fit_rate(points) -> tuple[float, float, tuple[float, float]]:
    """Ordinary least squares of log y on log x; returns (slope, intercept,
    ci95) with the usual slope-variance interval."""
    pts = [(float(x), float(y)) for x, y in points]
    for x, y in pts:
        if not (0 < x < math.inf and 0 < y < math.inf):
            raise DomainError(f"fit_rate needs positive finite coordinates, got ({x}, {y})")
    if len({x for x, _ in pts}) < 2:
        raise TooFewPoints("need at least 2 distinct x values")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    n = lx.size
    xbar = lx.mean()
    sxx = float(np.sum((lx - xbar) ** 2))
    slope = float(np.sum((lx - xbar) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * xbar)
    resid = ly - (intercept + slope * lx)
    dof = n - 2
    if dof <= 0:
        return slope, intercept, (slope, slope)
    s2 = float(np.sum(resid**2) / dof)
    se = math.sqrt(s2 / sxx)
    if se == 0.0:
        return slope, intercept, (slope, slope)
    tq = float(stdtrit(dof, 0.975))  # Student's t quantile: the bits of stats.t.ppf, without importing scipy.stats
    return slope, intercept, (slope - tq * se, slope + tq * se)


def _row_record(row: SweepRow) -> dict:
    return dict(zip(CSV_COLUMNS, (getattr(row, name) for name in _ROW_FIELDS)))


def _csv_cell(value) -> str:
    """CSV text of a report value: floats by repr, None empty, booleans lower case."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return repr(value) if isinstance(value, float) else str(value)


# The encoder of json.dumps(..., indent=2, sort_keys=True): an indent makes
# both take the pure-Python iterencode, so its chunks join to the same text.
_JSON_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def json_chunks(obj) -> Iterator[str]:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` in the encoder's
    own chunks, so that a writer never holds the whole text."""
    yield from _JSON_ENCODER.iterencode(obj)
    yield "\n"


def write_atomic(path, chunks: Iterable[str]) -> None:
    """Write the text ``chunks`` to a temporary file beside ``path``, then
    move it onto ``path``: a write that fails part-way, in the encoder or on
    disk, leaves an existing file intact. A temporary file that cannot be
    created, or moved onto ``path`` (a directory, say), is a MixbenchError
    naming ``path``, and no temporary file is left."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w")
    except OSError as exc:
        raise MixbenchError(f"cannot write {path}: {exc.strerror}") from None
    it = iter(chunks)
    try:
        with fh:
            # One write per 256 chunks: a write per chunk costs a third more CPU,
            # and a join of 4096 chunks held 0.3 MB to write a 0.18 MB family.
            for first in it:
                fh.write(first + "".join(itertools.islice(it, 255)))
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise MixbenchError(f"cannot write {path}: {exc.strerror}") from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path):
    """Parse a JSON file; one that cannot be read or parsed is a ConfigError naming it."""
    try:
        with open(str(path)) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def emit_report(result: SweepResult, fmt: str, path) -> None:
    """Write the sweep to CSV or JSON, ending with a summary block. The bytes
    are a pure function of the configuration: a report carries no timings."""
    if fmt not in ("csv", "json"):
        raise DomainError(f"format must be csv or json, got {fmt!r}")
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(map(_csv_cell, _row_record(r).values())) for r in result.rows]
        lines += ["# summary," + ",".join(f"{k}={_csv_cell(v)}" for k, v in json_record(sm).items()) for sm in result.summary]
        slope = "" if result.fitted_slope is None else repr(result.fitted_slope)
        ci = "" if result.slope_ci95 is None else f"{result.slope_ci95[0]!r}:{result.slope_ci95[1]!r}"
        lines.append(f"# fitted_slope,{slope},ci95,{ci}")
        chunks = (line + "\n" for line in lines)
    else:
        obj = {
            "rows": [_row_record(r) for r in result.rows],
            "summary": [json_record(sm) for sm in result.summary],
            "fitted_slope": result.fitted_slope,
            "slope_ci95": list(result.slope_ci95) if result.slope_ci95 else None,
        }
        chunks = json_chunks(obj)
    write_atomic(path, chunks)


def load_config(path_or_dict) -> ExperimentConfig:
    """Parse a JSON config: the fields of ExperimentConfig, with the sweep as
    an object ``{"axis": ..., "values": [...]}``. Unknown keys are rejected by
    name; values go to ExperimentConfig as they are, which checks their types."""
    if isinstance(path_or_dict, dict):
        obj = dict(path_or_dict)
    else:
        obj = read_json(path_or_dict)
        if not isinstance(obj, dict):
            raise ConfigError("a config must be a JSON object")
    sweep = obj.pop("sweep", None)
    unknown = set(obj) - set(_CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, f in _CONFIG_FIELDS.items():
        if f.default is MISSING and key not in obj:
            raise ConfigError(f"missing required config key {key!r}")
    kwargs = {_CONFIG_FIELDS[key].name: value for key, value in obj.items()}
    if sweep is not None:
        if not isinstance(sweep, dict) or set(sweep) != {"axis", "values"}:
            raise ConfigError("sweep must be an object with keys 'axis' and 'values'")
        kwargs.update({f"sweep_{k}": v for k, v in sweep.items()})
    return ExperimentConfig(**kwargs)
