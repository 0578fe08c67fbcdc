import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from zrk import exactnum

ROOT = Path(__file__).resolve().parent.parent


def test_linemap_lists_the_function_lines_a_run_leaves_unreached(tmp_path):
    # tools/linemap.py maps the function-body lines that a pytest run never
    # reaches.  On exactnum under one test of lcd, which never passes an
    # empty list: lcd's raise is listed and its return is not, every body
    # line of a function the test never calls is listed, and no line that
    # runs at import (an import, a def) is.
    source = Path(exactnum.__file__)
    out = tmp_path / "map.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "linemap.py"), "--out", str(out),
         "--source", str(source), "--", "-q", "-p", "no:cacheprovider",
         "tests/test_exactnum.py::test_lcd_golden"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["pytest_exit"] == 0 and list(report["files"]) == ["src/zrk/exactnum.py"]
    missed = {int(line): text for line, text in report["files"]["src/zrk/exactnum.py"].items()}
    assert report["unreached"] == len(missed)

    def numbered(fn):
        lines, start = inspect.getsourcelines(fn)
        return {text.strip(): start + i for i, text in enumerate(lines)}

    lcd = numbered(exactnum.lcd)
    assert missed[lcd['raise ValueError("empty input")']] == 'raise ValueError("empty input")'
    assert lcd["return math.lcm(*(x.denominator for x in xs))"] not in missed
    assert lcd["def lcd(xs: Sequence[Rat]) -> int:"] not in missed
    factors = numbered(exactnum.invariant_factors)
    body = [line for text, line in factors.items() if text.startswith("return ")]
    assert body and all(line in missed for line in body)
    imports = source.read_text(encoding="utf-8").splitlines().index("import math") + 1
    assert imports not in missed
