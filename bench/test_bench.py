"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def one_pass(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "one_pass.py"), *args],
                          cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_and_units():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in PER_LAYER]
    declared = spec["end_to_end"] + spec["per_layer"]
    for name, unit in run.END_TO_END + PER_LAYER:
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)
    assert all(m["unit"] == dict(run.END_TO_END + PER_LAYER)[m["name"]]
               for m in declared)
    assert len({m["name"] for m in declared}) == len(declared)


@pytest.mark.parametrize("workload", ["certify", "check", "pipeline"])
def test_workload_runs_end_to_end_tiny(workload):
    result, _ = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                      "--tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result, out = bench("--workload", "pipeline", "--seed", "3", "--seconds", "0",
                        "--tiny", "--trace", "1")
    assert result["correct"], out
    assert set(result["metrics"]) == {n for n, _ in PER_LAYER}
    assert result["metrics"]["zmaps.pipeline_dh.self_s"]["value"] > 0
    assert result["metrics"]["subdivide.supports.calls"]["value"] > 0


def test_corrupted_golden_fails(tmp_path):
    golden = json.loads((BENCH / "data" / "golden.json").read_text())
    op_id = "corpus/half_interval"
    golden["certify"][op_id] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    result, out = bench("--workload", "certify", "--seed", "3", "--seconds", "0",
                        "--tiny", "--golden", str(path))
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert f"{op_id}: output differs from the golden digest" in out


def test_self_time_within_pass_wall_time(tmp_path):
    rec = one_pass("--workload", "check", "--seed", "3", "--tiny",
                   "--trace", str(tmp_path / "spans.json"))
    assert 0 < rec["trace"]["self_total_s"] <= rec["pass_wall_s"]
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert len(spans["start"]) == rec["trace"]["spans"]
    assert all(p < i for i, p in enumerate(spans["parent"]))


def test_high_percentile_keeps_ten_samples_beyond():
    assert run.high_percentile([float(i) for i in range(1000)]) == (899.0, 0.9)
    value, q = run.high_percentile([float(i) for i in range(30)])
    assert value == 19.0 and round(q, 3) == round(20 / 30, 3)
    assert run.high_percentile([1.0, 2.0, 3.0, 4.0])[0] == 3.0
