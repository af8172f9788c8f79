"""Benchmark entry point for mixbench.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-large --seed 1 --seconds 20 --trace 0

Each workload runs in its own Python process (``perfbench/workload.py``)
with BLAS and OpenMP pinned to one thread and mixbench imported from
``src/``. With ``--trace 0`` run.py first starts two set-up probes,
processes that only import mixbench, write their inputs and run the
warm-up unit, so that ``setup_s`` is the median of three set-ups. It then
starts the workload process and prints the end-to-end metrics. With
``--trace 1`` it starts only the workload process, which times a traced
run beside an untraced one and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. It exits
with a nonzero code, and prints no result, when the checkout has no
mixbench source or a workload process does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("sweep-large", "sweep-small", "verify")
SETUP_PROBES = 2
RUN_DIR = ".perfbench-run"
TIMEOUT_S = 170.0
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
PROTOCOL = "PERFBENCH "


class WorkloadFailed(Exception):
    """A workload process crashed, timed out or printed no result."""


def pinned_env(root: Path) -> dict:
    """Environment of a workload process: one BLAS thread, mixbench from src/."""
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env.pop("MIXBENCH_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_process(cmd: list[str], env: dict, deadline: float) -> tuple[float, dict, dict | None]:
    """Run one workload process to completion.

    Returns the set-up time (from start until its ``ready`` line is read),
    the ``ready`` record and the ``result`` record (None for a probe).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    setup_s = None
    records = {}
    try:
        for line in proc.stdout:
            if not line.startswith(PROTOCOL):
                sys.stdout.write(line)
                continue
            kind, _, payload = line[len(PROTOCOL) :].partition(" ")
            if kind == "ready" and setup_s is None:
                setup_s = time.perf_counter() - t0
            records[kind] = json.loads(payload)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None:
        raise WorkloadFailed(f"{' '.join(cmd)} exited with code {code}")
    return setup_s, records["ready"], records.get("result")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "mixbench" / "__init__.py").is_file():
        print("error: no mixbench source under ./src; run from the root of a checkout", file=sys.stderr)
        return 2
    run_dir = root / RUN_DIR
    work = run_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    threads = min(2, len(os.sched_getaffinity(0)))
    env = pinned_env(root)
    base = [
        sys.executable,
        str(Path(__file__).resolve().parent / "workload.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--workdir",
        str(work),
        "--threads",
        str(threads),
    ]
    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    attempted = failed = 0
    try:
        for _ in range(SETUP_PROBES if args.trace == 0 else 0):
            setup_s, ready, _ = run_process(base + ["--role", "probe"], env, deadline)
            setups.append(setup_s)
            attempted += ready["attempted"]
            failed += ready["failed"]
        main_cmd = base + ["--role", "main", "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            main_cmd += ["--spans", str(run_dir / f"spans-{args.workload}.jsonl")]
        setup_s, ready, result = run_process(main_cmd, env, deadline)
    except WorkloadFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        print("error: the workload process printed no result", file=sys.stderr)
        return 1
    setups.append(setup_s)
    attempted += result["attempted"]
    failed += result["failed"]

    metrics = dict(result["metrics"])
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    environment = dict(result["environment"])
    environment.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "harness_threads": threads,
            "thread_pins": PINNED_THREADS,
            "git_commit": git_commit(root),
            "setup_samples_s": setups,
        }
    )
    print("environment: " + json.dumps(environment, sort_keys=True))
    for line in result.get("report", []):
        print(line)
    print(f"{'error_rate':<48} {failed / attempted:.6g}  ({failed} failed of {attempted} operations)")
    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
