"""The benchmark's own tests: tiny runs through the real code path.

Run from the repository root with ``python -m pytest perfbench/tests``.
Each tiny run starts real server processes and drives them over TCP,
exactly as a full run does, at sizes that finish in seconds.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

import metrics
import run
import workloads
from repro.serve import transport

ROOT = Path(__file__).resolve().parents[2]


def _run(capsys, *argv: str) -> tuple[int, dict, str]:
    code = run.main(["--seed", "3", "--seconds", "2", "--tiny", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def test_benchmark_json_matches_metric_definitions():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json()


def test_every_layer_names_metrics_that_exist():
    known = set(metrics.END_TO_END) | set(metrics.REPORTED)
    for name, (_, _, moves, _) in metrics.PER_LAYER.items():
        for target, workload in moves:
            assert target in known, name
            assert workload in workloads.WORKLOADS, name


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_end_to_end_run(capsys, workload):
    code, result, out = _run(capsys, "--workload", workload, "--trace", "0")
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    printed = {line.split()[0] for line in out.splitlines() if line.strip()}
    assert set(metrics.REPORTED) <= printed
    for name, value in result["metrics"].items():
        assert value["unit"] == metrics.END_TO_END[name][0]
        assert value["value"] > 0, name


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_traced_run(capsys, workload):
    code, result, _ = _run(capsys, "--workload", workload, "--trace", "1")
    assert code == 0
    assert result["correct"] is True
    assert set(result["metrics"]) == set(metrics.PER_LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(v is not None for v in values.values())
    assert values["trace.requests"] > 0
    if workload == "segment-match":
        assert values["segments.match_ms"] > 0
        assert values["ir_batch.mask_share"] > 0
    else:
        assert values["database.query_rows_ms"] > 0
        assert values["trace.attributed_share"] >= 0.8


def _drop_one_row(decode):
    def faulty(payload):
        result = decode(payload)
        if getattr(result, "rows", None):
            return replace(result, rows=result.rows[1:])
        return result

    return faulty


def _flip_one_membership(decode):
    def faulty(payload):
        result = decode(payload)
        memberships = getattr(result, "memberships", None)
        if memberships:
            first = memberships[0]
            flipped = first[1:] if first else result.segment_names[:1]
            return replace(result, memberships=(flipped,) + memberships[1:])
        return result

    return faulty


@pytest.mark.parametrize(
    "workload, fault",
    [("wide-results", _drop_one_row), ("segment-match", _flip_one_membership)],
)
def test_oracle_catches_injected_fault(capsys, monkeypatch, workload, fault):
    monkeypatch.setattr(
        transport, "decode_response", fault(transport.decode_response)
    )
    code, result, _ = _run(capsys, "--workload", workload, "--trace", "0")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0


def test_missing_program_exits_nonzero_without_result(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-results",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
