"""Replicated simulation sweeps: fit an estimator, score it, fit rate slopes.

A sweep runs ``replicates`` independent datasets at each value of one axis
(n, d, lambda or s), scores every fitted classifier by its exact loss (so
rate experiments carry no loss-estimation noise), and summarizes mean
loss per axis value with a log-log slope fit. Replicate seeds are derived
from the master seed by index, so serial and parallel executions produce
identical results.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields

import numpy as np
from scipy.special import stdtrit

from .errors import DomainError
from .estimators import oracle_support_pca, pca_classifier, screening_alpha, sparse_pca_classifier
from .loss import loss_exact_linear
from .loss import loss_monte_carlo  # not called here; perfbench/tracing.py BINDINGS rebinds this name
from .model import MixtureParams, _count, _real_number, _seed, _separation, json_record, sample, stream_seed

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
    "report_format",
    "load_config",
    "CSV_COLUMNS",
    "json_chunks",
    "write_atomic",
]

ESTIMATORS = ("dense_pca", "sparse_pca", "oracle_support_pca")
AXES = ("n", "d", "lambda", "s")


def _key(name: str) -> str:
    """Config and report key of a field: ``lam`` is ``lambda``, ``sweep_axis`` is ``sweep.axis``."""
    return "lambda" if name == "lam" else name.replace("sweep_", "sweep.")


# The checker of each numeric config field, in field order; a sweep value takes its axis's.
_FIELD_CHECKS = {"n": _count, "d": _count, "lam": _separation, "s": _count, "replicates": _count, "master_seed": _seed}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. Its fields are the config keys (``lam`` is ``lambda``,
    ``sweep_axis`` and ``sweep_values`` are the ``sweep`` object). ``n``,
    ``d``, ``s`` and ``replicates`` are counts, ``master_seed`` a seed and
    ``lambda`` a separation whose half lies in [2^-510, 2^255], each read by
    the checker of its kind in ``model``, as is each sweep value by its axis
    key's. ``estimator`` and ``sweep_axis`` must be one of their names.
    Construction resolves every sweep point into ``points``, one
    ``SweepPoint`` per axis value, so a config that cannot run fails here,
    before any compute, and a run builds no mixture of its own. Its mixtures
    have sigma = 1, as the loss and the estimators read lambda and sigma only
    through lambda / sigma.
    """

    estimator: str
    n: int
    d: int
    lam: float
    s: int | None = None
    replicates: int = 1
    master_seed: int = 0
    sweep_axis: str | None = None
    sweep_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.estimator not in ESTIMATORS:
            raise DomainError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        for name, check in _FIELD_CHECKS.items():
            value = getattr(self, name)
            if value is not None or name != "s":
                object.__setattr__(self, name, check(_key(name), value))
        values = (self.n,)
        if self.sweep_axis is not None or self.sweep_values is not None:
            if self.sweep_axis not in AXES:
                raise DomainError(f"sweep.axis must be one of {AXES}, got {self.sweep_axis!r}")
            if not isinstance(self.sweep_values, (list, tuple)) or not self.sweep_values:
                raise DomainError(f"sweep.values must be a nonempty list, got {self.sweep_values!r}")
            check = _FIELD_CHECKS[_CONFIG_FIELDS[self.sweep_axis].name]
            values = tuple(check(f"{self.sweep_axis} in sweep.values", v) for v in self.sweep_values)
            object.__setattr__(self, "sweep_values", values)
            if any(b <= a for a, b in zip(values, values[1:])):
                raise DomainError("sweep.values must be strictly increasing")
        points = []
        for value in values:
            at = {"n": self.n, "d": self.d, "lambda": self.lam, "s": self.s}
            if self.sweep_axis is not None:
                at[self.sweep_axis] = value
            h = signal_vector(at["d"], at["lambda"], at["s"])
            if at["n"] < 2:
                raise DomainError(f"n must be >= 2, got {at['n']}")
            if self.estimator == "sparse_pca" and at["d"] < 2:
                raise DomainError(f"sparse_pca needs d >= 2, got d = {at['d']}")
            try:
                theta = MixtureParams(-h, h, 1.0)
            except DomainError as exc:
                raise DomainError(f"lambda = {at['lambda']!r} cannot build its mixture: {exc}") from None
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
    sigma: float  # the point's, so always 1.0; ROADMAP item 1b drops it
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
    s_eff = d if s is None else _count("s", s)
    if s_eff > d:
        raise DomainError(f"s must lie in [1, d], got s = {s_eff}, d = {d}")
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
        sigma=theta.sigma,
        estimator=config.estimator,
        loss=loss_exact_linear(theta, clf),
        loss_method="quadrature",
        degenerate=clf.degenerate,
    )


def run_experiment(config: ExperimentConfig, threads: int = 1) -> SweepResult:
    """Run the configured sweep. Replicate seeds depend only on the task
    index, so serial and parallel executions give identical rows."""
    threads = _count("threads", threads)
    axis = config.sweep_axis or "none"
    for p in config.points:
        d = p.theta.d
        if config.estimator == "dense_pca" and p.n < 4 * d:
            warnings.warn(f"dense estimator with n = {p.n} < 4d = {4 * d}: outside the guarantee's range")
            break
        if config.estimator == "sparse_pca" and (alpha := screening_alpha(p.n, d)) > 0.25:
            warnings.warn(
                f"sparse estimator with n = {p.n}, d = {d}: screening alpha = {alpha:.4f} > 1/4, outside the guarantee's range"
            )
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


def fit_rate(points) -> tuple[float, float, tuple[float, float] | None]:
    """Ordinary least squares of log y on log x; returns (slope, intercept,
    ci95) with the usual slope-variance interval. ci95 is None for a fit
    through two points: it leaves no residual degree of freedom to estimate
    the slope's variance with."""
    pts = [(_real_number("x", x), _real_number("y", y)) for x, y in points]
    for x, y in pts:
        if not min(x, y) > 0.0:
            raise DomainError(f"fit_rate needs positive coordinates, got ({x}, {y})")
    if len({x for x, _ in pts}) < 2:
        raise DomainError("need at least 2 distinct x values")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    n = lx.size
    xbar = lx.mean()
    sxx = float(np.sum((lx - xbar) ** 2))
    slope = float(np.sum((lx - xbar) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * xbar)
    resid = ly - (intercept + slope * lx)
    dof = n - 2
    if dof == 0:
        return slope, intercept, None
    s2 = float(np.sum(resid**2) / dof)
    se = math.sqrt(s2 / sxx)
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
    created, or moved onto ``path`` (a directory, say), is a DomainError
    naming ``path``, and no temporary file is left."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w")
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with fh:
            fh.writelines(chunks)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise DomainError(f"cannot write {path}: {exc.strerror}") from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path):
    """Parse a JSON file; one that cannot be read or parsed is a DomainError naming it."""
    try:
        with open(str(path)) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None


def report_format(path) -> str:
    """A report's format, ``csv`` or ``json``, from the extension of its path;
    any other path is a DomainError naming it."""
    fmt = str(path).rpartition(".")[2]
    if fmt in ("csv", "json"):
        return fmt
    raise DomainError(f"cannot infer format from {str(path)!r}; use a .csv or .json extension")


def emit_report(result: SweepResult, path) -> None:
    """Write the sweep to ``path`` as CSV or JSON, by its extension (see
    ``report_format``), ending with a summary block. The bytes are a pure
    function of the configuration: a report carries no timings."""
    if report_format(path) == "csv":
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
    name; values go to ExperimentConfig as they are, which checks them."""
    if isinstance(path_or_dict, dict):
        obj = dict(path_or_dict)
    else:
        obj = read_json(path_or_dict)
        if not isinstance(obj, dict):
            raise DomainError("a config must be a JSON object")
    sweep = obj.pop("sweep", None)
    unknown = set(obj) - set(_CONFIG_FIELDS)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    for key, f in _CONFIG_FIELDS.items():
        if f.default is MISSING and key not in obj:
            raise DomainError(f"missing required config key {key!r}")
    kwargs = {_CONFIG_FIELDS[key].name: value for key, value in obj.items()}
    if sweep is not None:
        if not isinstance(sweep, dict) or set(sweep) != {"axis", "values"}:
            raise DomainError("sweep must be an object with keys 'axis' and 'values'")
        kwargs.update({f"sweep_{k}": v for k, v in sweep.items()})
    return ExperimentConfig(**kwargs)
