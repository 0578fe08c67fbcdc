"""Locate the zrk source tree the benchmark measures: ``src/`` next to this
directory.  The benchmark never falls back to an installed zrk."""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


class MissingSource(SystemExit):
    def __init__(self):
        super().__init__(f"error: no zrk source tree at {SRC / 'zrk'}; run the "
                         "benchmark from a checkout of the repository")


def use_source_tree() -> None:
    """Put ``src/`` first on sys.path, or exit non-zero when it is absent."""
    if not (SRC / "zrk" / "__init__.py").is_file():
        raise MissingSource()
    sys.path.insert(0, str(SRC))


def source_digest() -> str:
    """SHA-256 over the package files, naming the measured code even where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "zrk").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
