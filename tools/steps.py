"""The wall time and size of each step of ``zmaps.pipeline_dh`` on rfold(n, k).

    PYTHONPATH=src python tools/steps.py N K

rfold(n, k) is the seeded fold family of ``tests/rfold.py``.  The script
builds it, runs ``pipeline_dh`` once and prints one JSON line:

    {"n": N, "k": K, "status": "ok" | "unknown",
     "seconds": {"checks": ..., "C": ..., ..., "H": ..., "collapse": ...,
                 "total": ...},
     "maximal": {"C": ..., ..., "H": ...}, "locate_calls": ...,
     "map_sha256": ...}

"checks" is the time of conditions (i)-(iii), from the call of
``pipeline_dh`` to step C.  Steps C-G are the calls ``pipeline_dh`` makes
in turn after the checks: ``standard_cube``, ``subdivide.common_refinement``,
``subdivide.restrict``, ``desingularize_relative`` and
``subdivide.refine_for_map``.  Step H runs from the end of step G to the
collapse search (``find_collapse_sequence``), whose time is "collapse".
"maximal" counts the maximal simplexes each step outputs, step H's being
the complex the search is given.  "locate_calls" counts every
``GeoComplex._locate`` call of the run, and "map_sha256" is the SHA-256
of the printed map (``scx.print_scx``), the digest the golden tests read.

The steps are timed by wrapping those module attributes (and
``GeoComplex._locate``) for the one run and putting them back after it;
no source file changes.  Only a call made while no other wrapped step is
running counts, and the script exits with an error unless, from step C
on, the steps ran once each, in order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from zrk import complexes, subdivide, zmaps
from zrk.scx import ScxDocument, print_scx

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from rfold import rfold  # noqa: E402

# The step each wrapped attribute makes, in the order pipeline_dh calls them.
STEPS = [("C", zmaps, "standard_cube"), ("D", subdivide, "common_refinement"),
         ("E", subdivide, "restrict"), ("F", zmaps, "desingularize_relative"),
         ("G", subdivide, "refine_for_map"), ("collapse", zmaps, "find_collapse_sequence")]


def _maximal(step: str, args: tuple, result) -> int:
    """The number of maximal simplexes a step outputs; for the collapse
    search, the complex it is given, which step H built."""
    cx = {"F": lambda: result[0], "G": lambda: result.domain,
          "collapse": lambda: args[0]}.get(step, lambda: result)()
    return len(cx.maximal_simplexes())


@contextmanager
def _wrapped(calls: list, locate: list):
    """Record (step, start, end, maximal simplexes) for each outermost call
    of a step, and count ``_locate`` calls in ``locate[0]``, while the
    block runs."""
    saved = [(module, name, getattr(module, name)) for _, module, name in STEPS]
    saved.append((complexes.GeoComplex, "_locate", complexes.GeoComplex._locate))
    depth = [0]

    def timed(step, fn):
        def run(*args, **kwargs):
            depth[0] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            end = time.perf_counter()
            if not depth[0]:
                calls.append((step, start, end, _maximal(step, args, result)))
            return result
        return run

    def counted(self, p):
        locate[0] += 1
        return saved[-1][2](self, p)

    try:
        for (step, module, name), (_, _, fn) in zip(STEPS, saved):
            setattr(module, name, timed(step, fn))
        complexes.GeoComplex._locate = counted
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def measure(n: int, k: int) -> dict:
    """Run ``pipeline_dh`` on rfold(n, k) with the steps timed."""
    eta, part = rfold(n, k)
    calls, locate = [], [0]
    with _wrapped(calls, locate):
        start = time.perf_counter()
        result = zmaps.pipeline_dh(eta, part)
        end = time.perf_counter()
    # A check may call a step's function too (fixes_pointwise refines P
    # against the domain), so the steps are the calls from step C on.
    order = [step for step, *_ in calls]
    calls = calls[order.index("C"):] if "C" in order else calls
    if [step for step, *_ in calls] != [step for step, _, _ in STEPS]:
        raise SystemExit(f"the steps ran as {order}, not once each in order")
    span = {step: (t0, t1, size) for step, t0, t1, size in calls}
    seconds = {"checks": span["C"][0] - start}
    seconds.update((step, t1 - t0) for step, (t0, t1, _) in span.items() if step != "collapse")
    seconds["H"] = span["collapse"][0] - span["G"][1]
    seconds["collapse"] = span["collapse"][1] - span["collapse"][0]
    seconds["total"] = end - start
    maximal = {step: size for step, (_, _, size) in span.items() if step != "collapse"}
    maximal["H"] = span["collapse"][2]
    text = print_scx(ScxDocument("plmap", result.map))
    return {"n": n, "k": k, "status": result.status,
            "seconds": {key: round(value, 6) for key, value in seconds.items()},
            "maximal": maximal, "locate_calls": locate[0],
            "map_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="the dimension of the fold")
    parser.add_argument("k", type=int, help="the number of stellar points")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.n, args.k)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
