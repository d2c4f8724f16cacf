"""Smoke checks of the benchmark at tiny sizes (a few seconds per run).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
CHECKS = {"inputs_identical", "exit_code", "closed_form", "metric_oracle",
          "report_means", "topn_oracle", "outputs_identical"}


def tiny(w):
    return replace(w, name=f"tiny-{w.name}", n_users=500, n_items=60, n_events=9_000,
                   embedding_dim=min(w.embedding_dim, 12), foldin_users=40)


@pytest.fixture
def tiny_workloads(monkeypatch):
    workloads = {f"tiny-{name}": tiny(w) for name, w in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", workloads)
    return workloads


def run_and_parse(capsys, workload: str, trace: int) -> tuple[dict, str]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out.strip().splitlines()[-1]), out


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name,trace", [("tall-log", 0), ("wide-catalog", 0),
                                        ("rank-heavy", 0), ("wide-catalog", 1)])
def test_every_metric_printed_and_every_check_run(tiny_workloads, capsys, name, trace):
    result, out = run_and_parse(capsys, f"tiny-{name}", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"metric {m['name']} = " in out
        assert out.split(f"metric {m['name']} = ", 1)[1].split("\n", 1)[0].endswith(f" {m['unit']}")
    ran = {line.split()[1].rstrip(":") for line in out.splitlines() if line.startswith("check ")}
    assert ran == CHECKS
    kinds = tiny_workloads[f"tiny-{name}"].kinds
    assert f"check closed_form: {len(kinds)}/{len(kinds)} passed" in out


def test_refuses_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "tall-log", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_refuses_blas_cap_above_nproc(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0)) + 1))
    assert run.main(["--workload", "tall-log", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
