"""One mixbench workload in its own process; started by ``perfbench/run.py``.

The process imports mixbench, writes its inputs and runs one warm-up unit
at the default seed, whose reports must match the digests stored in
``reference.json``. It then prints a ``ready`` line; this is the end of
set-up. A probe exits here. The main process goes on to run whole units of
the workload for ``--seconds``, each unit on inputs derived from
``--seed``, checks every output, and prints a ``result`` line. Each step
of an untraced unit is timed in CPU time, relative to a reference
computation of the workload's kind run just before and just after it.

A unit drives mixbench only through ``mixbench.cli.main`` and the public
suites of ``mixbench.verify``:

- sweep-large: one ``mixbench simulate`` of the dense estimator at
  n = 20000 over d in (8, 32, 128, 256), 8 replicates per point, on the
  harness thread pool;
- sweep-small: one single-threaded ``mixbench simulate`` per estimator
  (dense, screened, oracle support) over n in (256, 512, 1024), d = 32,
  s = 4, 100 replicates per point;
- verify: ``mixbench packing`` of a sparse family of 121 members, ``mixbench
  verify --suite fano`` on it (7260 exact pairwise losses), then the KL,
  triangle, loss-sandwich and Davis-Kahan suites.

A failed operation is an exception, a nonzero exit of the CLI, a verify
entry that does not hold, a sweep row whose loss is not finite or not in
[0, 1/2], a report that differs between 1 and 2 harness threads, or a
warm-up report that differs from its reference digest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import scipy

import mixbench
from mixbench import cli, verify
from tracing import Tracer, layer_metrics, span_report

DEFAULT_SEED = 0
REFERENCE = Path(__file__).with_name("reference.json")
PROTOCOL = "PERFBENCH "

SWEEP_LARGE = [
    {
        "estimator": "dense_pca",
        "n": 20000,
        "d": 8,
        "lambda": 1.0,
        "replicates": 8,
        "sweep": {"axis": "d", "values": [8, 32, 128, 256]},
    }
]
SWEEP_SMALL = [
    {
        "estimator": estimator,
        "n": 256,
        "d": 32,
        "s": 4,
        "lambda": 1.6,
        "replicates": 100,
        "sweep": {"axis": "n", "values": [256, 512, 1024]},
    }
    for estimator in ("dense_pca", "sparse_pca", "oracle_support_pca")
]
# Replicates per point of the warm-up unit.
WARMUP_REPLICATES = {"sweep-large": 1, "sweep-small": 5}
# Family and suite sizes of a verify unit and of its warm-up unit.
VERIFY_FULL = {"d": 161, "kl_pairs": 20, "dk_instances": 1000}
VERIFY_WARMUP = {"d": 41, "kl_pairs": 2, "dk_instances": 50}


def unit_seed(seed: int, index: int) -> int:
    """Input seed of unit ``index`` of a run, a 32-bit function of (seed, index)."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def call_cli(argv: list[str]) -> int:
    """``mixbench.cli.main``; an exception is reported and read as exit code -1."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def call_suite(name: str, **kwargs) -> list[dict] | None:
    """A public verify suite; None when it raises."""
    try:
        return getattr(verify, name)(**kwargs)
    except Exception:
        traceback.print_exc()
        return None


def sweep_rows(text: str) -> list[dict]:
    """Data rows of a CSV sweep report (summary lines start with '#')."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return list(csv.DictReader(lines))


def bad_rows(rows: list[dict]) -> int:
    """Rows whose loss is not a finite number in [0, 1/2]."""
    bad = 0
    for row in rows:
        try:
            loss = float(row["loss"])
        except (KeyError, TypeError, ValueError):
            bad += 1
            continue
        if not (math.isfinite(loss) and 0.0 <= loss <= 0.5):
            bad += 1
    return bad


def differing_rows(a: list[bytes], b: list[bytes]) -> int:
    """Data rows that differ between two sets of CSV reports."""
    diff = 0
    for x, y in zip(a, b):
        xs = [line for line in x.splitlines() if not line.startswith(b"#")]
        ys = [line for line in y.splitlines() if not line.startswith(b"#")]
        diff += sum(p != q for p, q in zip(xs, ys)) + abs(len(xs) - len(ys))
    return diff + abs(len(a) - len(b))


# Buffers of the reference computations, made once, so that their arrays
# take no part in the heap of the workload they run beside. np.empty maps
# no pages until a computation writes them.
_REFERENCE_SMALL = (np.empty((500, 64)), np.empty((64, 64)))
_REFERENCE_LARGE = (np.empty((2000, 256)), np.empty((256, 256)))


def interpreter_reference() -> None:
    """Small numpy products in a Python loop, then work on dicts and lists:
    fixed per-call costs dominate, as in sweep-small and verify."""
    rng = np.random.default_rng(1306)
    x = rng.standard_normal(out=_REFERENCE_SMALL[0])
    c = np.dot(x.T, x, out=_REFERENCE_SMALL[1])
    v = np.ones(64)
    for _ in range(1500):
        v = c @ v
        v /= np.linalg.norm(v)
    for _ in range(8):
        records = [{"key": str(i), "value": float(u)} for i, u in enumerate(rng.random(2500))]
        records.sort(key=lambda r: r["value"])
        index = {r["key"]: r for r in records}
        sum(index[str(i)]["value"] for i in range(0, len(records), 3))


def vectorized_reference() -> None:
    """Gaussian sampling and a covariance product on a 4 MB array, larger
    than the L2 cache: numpy's inner loops dominate, as in sweep-large."""
    rng = np.random.default_rng(1306)
    for _ in range(2):
        x = rng.standard_normal(out=_REFERENCE_LARGE[0])
        np.dot(x.T, x, out=_REFERENCE_LARGE[1])


def reference_cpu_s(workload) -> float:
    """CPU time of the workload's reference computation, which calls no
    mixbench code and takes 25-50 ms on a quiet 2-core Xeon VM. It runs around
    every step of a timed unit, so that the step's CPU time can be given
    relative to the speed the shared host gave the process just then.
    Each workload has the reference that slows down as it does: in a
    sweep-large run the interpreter reference spread its units twice as
    widely as their raw CPU times did.
    """
    t0 = time.process_time()
    workload.reference()
    return time.process_time() - t0


class SweepWorkload:
    """One unit is one ``mixbench simulate`` call per config."""

    def __init__(self, name: str, configs: list[dict], threads: int, workdir: Path, reference: Callable):
        self.name = name
        self.configs = configs
        self.threads = threads
        self.workdir = workdir
        self.reference = reference
        self.replicates_per_unit = sum(len(c["sweep"]["values"]) * c["replicates"] for c in configs)

    def prepare(self, tag: str, master_seed: int, warmup: bool = False) -> list[tuple[str, str, int]]:
        """Write the unit's configs; returns (config, report, rows expected) per call."""
        unit = []
        for k, base in enumerate(self.configs):
            config = dict(base, master_seed=master_seed)
            if warmup:
                config["replicates"] = WARMUP_REPLICATES[self.name]
            path = self.workdir / f"{tag}-{k}.json"
            path.write_text(json.dumps(config, sort_keys=True))
            rows = len(config["sweep"]["values"]) * config["replicates"]
            report = self.workdir / f"{tag}-{k}.csv"
            report.unlink(missing_ok=True)
            unit.append((str(path), str(report), rows))
        return unit

    def steps(self, unit, threads: int) -> list[tuple[int, Callable]]:
        """One ``mixbench simulate`` call per config, keyed by config index."""
        return [
            (k, partial(call_cli, ["simulate", "--config", c, "--out", out, "--threads", str(threads)]))
            for k, (c, out, _) in enumerate(unit)
        ]

    def check(self, unit, out: dict) -> tuple[int, int, list[bytes]]:
        """(operations attempted, operations failed, report bytes) of one unit."""
        attempted = failed = 0
        reports = []
        for k, (_, out_path, expected) in enumerate(unit):
            code = out[k]
            attempted += expected
            data = Path(out_path).read_bytes() if code == 0 and os.path.exists(out_path) else b""
            rows = sweep_rows(data.decode())
            failed += expected if code != 0 or len(rows) != expected else bad_rows(rows)
            reports.append(data)
        return attempted, failed, reports


class VerifyWorkload:
    """One unit is one certification pass: packing, fano, then four suites."""

    replicates_per_unit = 1
    threads = 1
    reference = staticmethod(interpreter_reference)

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def prepare(self, tag: str, seed: int, warmup: bool = False) -> dict:
        sizes = VERIFY_WARMUP if warmup else VERIFY_FULL
        family, fano = self.workdir / f"{tag}-family.json", self.workdir / f"{tag}-fano.json"
        family.unlink(missing_ok=True)
        fano.unlink(missing_ok=True)
        return dict(sizes, seed=seed, family=str(family), fano=str(fano))

    def steps(self, unit: dict, threads: int) -> list[tuple[str, Callable]]:
        seed = str(unit["seed"])
        packing = ["packing", "--regime", "sparse", "--n", "10000", "--d", str(unit["d"]), "--s", "8", "--lambda", "0.2"]
        return [
            ("packing", partial(call_cli, packing + ["--seed", seed, "--out", unit["family"]])),
            ("fano", partial(call_cli, ["verify", "--suite", "fano", "--family", unit["family"], "--out", unit["fano"]])),
            # suite_kl keeps its own default seed, as `mixbench verify --suite kl`
            # does. Its check (estimate <= bound + 3 SE) is a Monte-Carlo test:
            # on seed-derived pairs, about one run in five has a false alarm
            # where quadrature puts the true KL under the bound.
            ("suite_kl", partial(call_suite, "suite_kl", pairs=unit["kl_pairs"])),
            ("suite_triangle", partial(call_suite, "suite_triangle", seed=unit["seed"])),
            ("suite_loss_sandwich", partial(call_suite, "suite_loss_sandwich")),
            (
                "suite_davis_kahan",
                partial(call_suite, "suite_davis_kahan", instances=unit["dk_instances"], seed=unit["seed"]),
            ),
        ]

    def check(self, unit: dict, out: dict) -> tuple[int, int, list[bytes]]:
        attempted, failed = 1, int(out["packing"] != 0)
        fano = None
        if out["fano"] in (0, 1) and os.path.exists(unit["fano"]):
            with open(unit["fano"]) as fh:
                fano = json.load(fh)
        reports = []
        for entries in (fano, out["suite_kl"], out["suite_triangle"], out["suite_loss_sandwich"], out["suite_davis_kahan"]):
            if entries is None:
                attempted += 1
                failed += 1
                continue
            attempted += len(entries)
            failed += sum(not e.get("holds", False) for e in entries)
            reports.append(json.dumps(entries, sort_keys=True).encode())
        return attempted, failed, reports


def make_workload(name: str, threads: int, workdir: Path):
    if name == "sweep-large":
        return SweepWorkload(name, SWEEP_LARGE, threads, workdir, vectorized_reference)
    if name == "sweep-small":
        return SweepWorkload(name, SWEEP_SMALL, 1, workdir, interpreter_reference)
    return VerifyWorkload(workdir)


def execute(workload, unit, threads: int) -> dict:
    """Run the steps of one unit in order; returns their results by key."""
    return {key: call() for key, call in workload.steps(unit, threads)}


def digest(reports: list[bytes]) -> str:
    h = hashlib.sha256()
    for data in reports:
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def warm_up(name: str, workload, tally: Tally) -> str:
    """Warm up the reference computation, then run the warm-up unit at the
    default seed and gate it on its reference digest."""
    for _ in range(3):
        reference_cpu_s(workload)
    unit = workload.prepare("warmup", DEFAULT_SEED, warmup=True)
    attempted, failed, reports = workload.check(unit, execute(workload, unit, workload.threads))
    got = digest(reports)
    expected = json.loads(REFERENCE.read_text()).get(name)
    if got != expected:
        print(f"perfbench: {name} warm-up digest {got} != reference {expected}", file=sys.stderr)
        failed = attempted
    tally.add(attempted, failed)
    return got


@dataclass
class UnitTime:
    traced: bool
    wall_s: float
    cpu_s: float
    # Sum over the unit's steps of the step's CPU time divided by the mean
    # reference_cpu_s() of the runs just before and just after it; 0 on a
    # traced unit, which does not run the reference computation.
    cost_ref: float
    references_s: list[float]


def run_units(workload, seed: int, seconds: float, tally: Tally, tracer: Tracer | None = None):
    """Run whole units until ``seconds`` have passed (at least one of each kind).

    With a tracer, units alternate untraced and traced, so that both kinds
    run under the same machine load. In an untraced unit the reference
    computation runs before the first step and after every step. Returns a
    UnitTime per unit (CPU time summed over the threads of the process) and
    the reports of the first unit.
    """
    times = []
    done = {False: 0, True: 0}
    first_reports = None
    deadline = time.perf_counter() + seconds
    index = 0
    while not done[False] or (tracer and not done[True]) or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        unit = workload.prepare("unit", unit_seed(seed, index))
        outcome = {}
        wall = cpu = cost = 0.0
        references = [] if traced else [reference_cpu_s(workload)]
        if traced:
            tracer.install()
        try:
            with tracer.span("perfbench.unit") if traced else nullcontext():
                for key, call in workload.steps(unit, workload.threads):
                    c0, t0 = time.process_time(), time.perf_counter()
                    outcome[key] = call()
                    wall += time.perf_counter() - t0
                    step_cpu = time.process_time() - c0
                    cpu += step_cpu
                    if not traced:
                        references.append(reference_cpu_s(workload))
                        cost += step_cpu / ((references[-2] + references[-1]) / 2)
        finally:
            if traced:
                tracer.uninstall()
        done[traced] += 1
        times.append(UnitTime(traced, wall, cpu, cost, references))
        attempted, failed, reports = workload.check(unit, outcome)
        tally.add(attempted, failed)
        if first_reports is None:
            first_reports = reports
        index += 1
    return times, first_reports


def check_threads(workload, seed: int, reports: list[bytes], tally: Tally) -> None:
    """Re-run the run's first unit at the other harness thread count; rows must not change."""
    if not isinstance(workload, SweepWorkload):
        return
    other = 1 if workload.threads > 1 else 2
    unit = workload.prepare("threads", unit_seed(seed, 0))
    attempted, failed, again = workload.check(unit, execute(workload, unit, other))
    tally.add(attempted, min(attempted, max(failed, differing_rows(reports, again))))


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mixbench": mixbench.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
    }


def emit(kind: str, record: dict) -> None:
    print(PROTOCOL + kind + " " + json.dumps(record), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one mixbench benchmark workload")
    parser.add_argument("--workload", required=True, choices=("sweep-large", "sweep-small", "verify"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--threads", required=True, type=int, help="harness threads of sweep-large")
    parser.add_argument("--role", required=True, choices=("probe", "main"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced run's spans here")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.threads, workdir)
    tally = Tally()
    warm_digest = warm_up(args.workload, workload, tally)
    emit("ready", {"attempted": tally.attempted, "failed": tally.failed, "digest": warm_digest})
    if args.role == "probe":
        return 0

    report = []
    tracer = Tracer() if args.trace else None
    times, first_reports = run_units(workload, args.seed, args.seconds, tally, tracer)
    plain = [t for t in times if not t.traced]
    wall = statistics.median(t.wall_s for t in plain)
    if tracer:
        traced = [t.wall_s for t in times if t.traced]
        metrics = layer_metrics(tracer.spans, len(traced), statistics.median(traced) - wall)
        report.append(f"traced run: {len(traced)} units traced, {len(plain)} untraced, alternating")
        report += span_report(tracer.spans, len(traced))
        if args.spans:
            tracer.write(args.spans)
    else:
        # A unit's wall time holds the time its threads wait for a processor,
        # and its CPU time moves with the speed the shared host gives the
        # process; other tenants set both. The declared cost is the unit's
        # CPU time in units of the reference computation (see UnitTime).
        cost = statistics.median(t.cost_ref for t in plain)
        metrics = {
            "unit_cpu_ref": {"value": cost, "unit": "ref"},
            "replicates_per_ref": {"value": workload.replicates_per_unit / cost, "unit": "1/ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "unit": "MB"},
        }
        for label, values in (
            ("wall per unit", [t.wall_s for t in plain]),
            ("cpu per unit", [t.cpu_s for t in plain]),
            ("cpu per reference computation", [r for t in plain for r in t.references_s]),
        ):
            report.append(
                f"{label}: median {statistics.median(values):.4f} s, "
                f"min {min(values):.4f} s, max {max(values):.4f} s, {len(values)} samples"
            )
        report.append(f"{'wall_s':<48} {wall:.6g} s")
        report.append(f"{'replicates_per_s':<48} {workload.replicates_per_unit / wall:.6g} 1/s")
    check_threads(workload, args.seed, first_reports, tally)
    emit(
        "result",
        {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
            "report": report,
            "environment": environment(),
        },
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
