"""Tests of the benchmark runner. They are not part of the package's test
suite; run them from the repository root with

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


def _declared(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def _workload(*args: str, tmp_path: Path) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "workload.py"), "--seed", "3", "--workdir", str(tmp_path), "--threads", "2"]
    return subprocess.run(cmd + list(args), capture_output=True, text=True, env=run.pinned_env(ROOT), timeout=300)


def _records(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if line.startswith(run.PROTOCOL):
            kind, _, payload = line[len(run.PROTOCOL) :].partition(" ")
            out[kind] = json.loads(payload)
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_warmup_unit_matches_reference(workload, tmp_path):
    # The warm-up unit is a small unit of the workload at the default seed.
    proc = _workload("--workload", workload, "--role", "probe", tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    ready = _records(proc.stdout)["ready"]
    assert ready["attempted"] > 0
    assert ready["failed"] == 0
    assert ready["digest"] == json.loads((BENCH / "reference.json").read_text())[workload]


def test_traced_unit_reports_every_per_layer_metric(tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = _workload(
        "--workload", "sweep-small", "--role", "main", "--seconds", "0", "--trace", "1", "--spans", str(spans),
        tmp_path=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    result = _records(proc.stdout)["result"]
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == _declared("per_layer")
    assert metrics["model.sample.calls"]["value"] == 900
    assert metrics["loss.loss_exact_linear.calls"]["value"] == 900
    assert 0.5 < metrics["harness.coverage"]["value"] <= 1.0
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {"id", "name", "start", "end", "parent", "thread", "replicate"} <= set(lines[0])


def test_untraced_unit_reports_every_end_to_end_metric(tmp_path):
    proc = _workload("--workload", "verify", "--role", "main", "--seconds", "0", "--trace", "0", tmp_path=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = _records(proc.stdout)["result"]
    assert result["failed"] == 0
    # run.py adds setup_s, which it measures from outside the workload process.
    assert ["setup_s"] + list(result["metrics"]) == _declared("end_to_end")
    assert result["metrics"]["unit_cpu_ref"]["value"] > 0


def test_layer_metrics_of_no_spans_match_declaration():
    assert list(tracing.layer_metrics([], 1, 0.0)) == _declared("per_layer")


def test_self_time_subtracts_overlapping_children():
    spans = [
        tracing.Span(1, "harness.run_experiment", 0.0, 10.0, 0, 1, None, {"threads": 2}),
        tracing.Span(2, "model.sample", 1.0, 5.0, 1, 2, 7, None),
        tracing.Span(3, "model.sample", 2.0, 6.0, 1, 3, 8, None),
        tracing.Span(4, "loss.loss_exact_linear", 6.0, 9.0, 1, 3, 8, None),
    ]
    ix = tracing.SpanIndex(spans)
    assert ix.self_time(spans[0]) == pytest.approx(10.0 - 8.0)
    metrics = tracing.layer_metrics(spans, 1, 0.0)
    assert metrics["harness.coverage"]["value"] == pytest.approx(11.0 / 20.0)
    assert metrics["harness.parallel_efficiency"]["value"] == pytest.approx(11.0 / 20.0)
    assert metrics["harness.replicate.p95_ms"]["value"] == pytest.approx(7000.0)


def test_wrong_loss_counts_as_failed():
    sys.path.insert(0, str(ROOT / "src"))
    import workload

    header = ",".join(["axis", "axis_value", "loss"])
    rows = workload.sweep_rows("\n".join([header, "n,1.0,0.25", "n,1.0,0.75", "n,1.0,nan", "n,1.0,-0.0", "# summary"]))
    assert len(rows) == 4
    assert workload.bad_rows(rows) == 2
    assert workload.differing_rows([b"h\na\n# s"], [b"h\nb\n# t"]) == 1


def test_no_source_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workload.py", "tracing.py", "reference.json"):
        (tmp_path / "perfbench" / name).write_bytes((BENCH / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    cmd = [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
