"""The function-body lines of ``src/zrk`` that a pytest run never reaches.

    PYTHONPATH=src python tools/linemap.py [--out MAP.json] [--source FILE ...]
                                           [-- PYTEST_ARGS ...]

It uses the standard library alone, as the ``coverage`` package is not a
dependency.  A ``sys.settrace`` tracer is installed first, and pytest is
then run in this process with the given arguments (tier-1's ``tests`` and
``bench`` when none are given), so the package is imported under the
tracer.  The tracer follows only frames whose code comes from a source
file, every ``.py`` file of ``src/zrk`` unless ``--source`` names some, and
records each line they run.

A file's executable lines are those its compiled code objects list in
``co_lines()``.  Only function bodies are mapped: a code object with the
``CO_OPTIMIZED`` flag (a function, lambda or comprehension), without its
first line, the ``def`` or decorator line that runs at import.  Module and
class bodies run at import, and a line a subprocess runs is not seen.

The map is written as JSON, by default to standard output:
``{"pytest_exit": code, "unreached": count, "files": {path: {line: text}}}``
with each path relative to the working directory and each unreached
line's stripped source text.  The exit status is pytest's.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def function_lines(path: Path, text: str) -> set[int]:
    """The executable lines of the function bodies compiled from ``text``,
    the source of ``path``."""
    found: set[int] = set()
    todo = [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if inspect.iscode(c)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            found.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return found


def traced(sources: list[Path], run) -> tuple[object, dict[str, set[int]]]:
    """``run()`` under a line tracer of the frames of ``sources``: its result
    and the lines run, per file name as the compiler records it."""
    names = {str(p) for p in sources}
    hits: dict[str, set[int]] = {name: set() for name in names}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename in names:
            hits[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the map here, not to standard output")
    parser.add_argument("--source", nargs="+", type=Path,
                        help="the source files to map (default: src/zrk/*.py)")
    parser.add_argument("pytest_args", nargs="*", help="after --: pytest's arguments")
    args = parser.parse_args(argv)
    sources = [p.resolve() for p in args.source or sorted((ROOT / "src" / "zrk").glob("*.py"))]
    import pytest

    # The sources are read before the run, so the map is of the code that ran.
    texts = {path: path.read_text(encoding="utf-8") for path in sources}
    code, hits = traced(sources, lambda: pytest.main(
        args.pytest_args or ["-q", "-p", "no:cacheprovider", "tests", "bench"]))
    files = {}
    for path, text in texts.items():
        missed = sorted(function_lines(path, text) - hits[str(path)])
        if missed:
            lines = text.splitlines()
            name = str(path.relative_to(Path.cwd()) if path.is_relative_to(Path.cwd()) else path)
            files[name] = {str(line): lines[line - 1].strip() for line in missed}
    report = json.dumps({"pytest_exit": int(code), "files": files,
                         "unreached": sum(map(len, files.values()))}, indent=2)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
