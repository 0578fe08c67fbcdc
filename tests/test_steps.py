import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from zrk import pipeline_dh
from zrk.scx import ScxDocument, print_scx

from rfold import rfold

ROOT = Path(__file__).resolve().parent.parent


def test_steps_times_each_step_and_prints_the_unwrapped_digest():
    # tools/steps.py runs pipeline_dh on rfold(n, k) with its steps wrapped
    # and prints one JSON line.  On rfold(2, 2) the map it prints hashes as
    # a run without the wrappers does, every step C-H is timed and sized,
    # and the step times fit in the total.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "steps.py"), "2", "2"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    (line,) = proc.stdout.splitlines()
    report = json.loads(line)
    eta, part = rfold(2, 2)
    result = pipeline_dh(eta, part)
    text = print_scx(ScxDocument("plmap", result.map))
    assert report["map_sha256"] == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert report["status"] == result.status == "ok"
    seconds, maximal = report["seconds"], report["maximal"]
    assert list(seconds) == ["checks", "C", "D", "E", "F", "G", "H", "collapse", "total"]
    assert list(maximal) == ["C", "D", "E", "F", "G", "H"]
    assert all(value >= 0 for value in seconds.values())
    assert sum(seconds.values()) - seconds["total"] <= seconds["total"]
    assert maximal["C"] == 2 and maximal["H"] == len(result.triangulation.maximal_simplexes())
    assert report["locate_calls"] > 0
