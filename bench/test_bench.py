"""Smoke tests of the benchmark itself: ``python3 -m pytest bench``.

Each workload runs in its seconds-long ``--size smoke`` form, in both trace
modes, and its output must follow the contract that ``BENCHMARK.json``
declares.
"""

from __future__ import annotations

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import spans  # noqa: E402
from folkrel import grounding  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_meets_the_output_contract(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads(lines[-2])["record"]
    assert result["correct"] is True, record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["seed"] == 3 and record["workload"] == workload


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_seeded(tmp_path, workload):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen.generate(workload, seed, tmp_path / name, "smoke")
    same = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
    assert not same.diff_files and not same.left_only and not same.right_only
    assert (tmp_path / "a" / "posts.tsv").read_bytes() != (
        tmp_path / "c" / "posts.tsv").read_bytes()


def test_instrument_restores_every_wrapped_call():
    before = (grounding.cosine_relatedness, grounding.rank,
              grounding.GroundingEvaluator.report)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert grounding.cosine_relatedness is not before[0]
    assert (grounding.cosine_relatedness, grounding.rank,
            grounding.GroundingEvaluator.report) == before


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10_000))
    inclusive, own, calls = tracer.totals()
    assert calls == {"outer": 1, "inner": 1}
    assert own["outer"] == pytest.approx(inclusive["outer"] - inclusive["inner"])
