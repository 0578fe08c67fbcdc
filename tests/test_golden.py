"""Every op any seed of the benchmark can draw prints the bytes whose
SHA-256 ``bench/data/golden.json`` records, and its witnesses re-check.
The ops are built in memory, as ``test_zmaps`` builds the pipeline cases;
only files under ``bench/`` are read."""

import hashlib
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["certify", "check", "pipeline"])
def test_every_benchmark_op_prints_its_golden_bytes(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    golden = json.loads((BENCH / "data" / "golden.json").read_text(encoding="utf-8"))
    ops = workloads.build(workload, None)
    assert sorted(op.id for op in ops) == sorted(golden[workload])
    for op in ops:
        text, result = op.run()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == golden[workload][op.id], op.id
        assert op.recheck(text, result) is None, op.id
