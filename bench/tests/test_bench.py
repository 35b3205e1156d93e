"""Tests of the benchmark itself: python -m pytest bench/tests -q (about a minute)."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(seed: int):
    reqs = workloads.request_stream(random.Random(f"request-mix:{seed}"), workloads.RequestMix.MIX)
    ladder = workloads.PosetLadder(SimpleNamespace(modules=[], strata=None), seed)
    return [(r.argv, r.stdin, r.expect, r.text) for r in reqs], ladder.pairs


def test_same_seed_generates_same_inputs():
    assert _inputs(11) == _inputs(11)
    assert _inputs(11) != _inputs(12)


def test_request_mix_has_fixed_shape():
    reqs, _ = _inputs(5)
    expects = [e for _, _, e, _ in reqs]
    assert len(reqs) == 396
    assert expects.count(workloads.DEFECT) == 8
    assert expects.count("reject") >= 42


def test_oracle_facts():
    assert [oracle.siegel_count(g) for g in range(1, 8)] == [2, 3, 5, 8, 13, 20, 31]
    half = Fraction(1, 2)
    for g in range(1, 6):
        ordinary = {Fraction(0): g, Fraction(1): g}
        assert oracle.oort_rank({half: 2 * g}, g) == 0
        assert oracle.oort_rank(ordinary, g) == (g + 1) ** 2 // 4
    assert oracle.mu_ordinary(4, [3, 0]) == {Fraction(0): 1, half: 3}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            *_, report, result = proc.stdout.splitlines()
            out[workload, trace] = json.loads(report), json.loads(result)
    return out


def test_every_metric_is_printed_with_its_unit(runs):
    for (workload, trace), (_, result) in runs.items():
        spec = SPEC["per_layer" if trace else "end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {m["name"]: m["unit"] for m in spec} == {
            name: m["unit"] for name, m in result["metrics"].items()
        }, (workload, trace)
        assert result["correct"] and result["failed"] == 0, (workload, trace)


def test_traced_run_has_the_untraced_digest(runs):
    for workload in {w for w, _ in runs}:
        plain, traced = runs[workload, 0][0], runs[workload, 1][0]
        assert isinstance(plain["digest"], str)
        assert plain["digest"] == traced["digest"], workload


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("request-mix", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
