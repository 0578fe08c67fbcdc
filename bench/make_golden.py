"""Regenerate the benchmark's data files.  Run from the repository root:

    python3 bench/make_golden.py pools    # data/pools.json  (about 15 min)
    python3 bench/make_golden.py golden   # data/golden.json (about 5 min)

``pools`` builds every candidate input, times the op that uses it once in
this process (caches cleared before each), and keeps candidates that finish
under the family's cap; slower ones are recorded as excluded cliffs with
their time.  ``golden`` runs every op any seed can draw and records the
SHA-256 of its printed text.  Regenerate the golden file only at a commit
whose outputs are known to be right: it is the correctness gate.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import sys
import time
from fractions import Fraction

from source import BENCH, ROOT, use_source_tree

use_source_tree()

import zrk  # noqa: E402
from zrk import GeoComplex, GeoSimplex, RPoint, standard_cube, stellar  # noqa: E402
from zrk.exactnum import format_rat  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 20141405
RANDOM_CANDIDATES = 300
GOLDEN_PATH = workloads.DATA / "golden.json"


class Capped(Exception):
    pass


def _alarm(signum, frame):
    raise Capped()


def clear_caches() -> None:
    zrk.complexes.simplex_hrep.cache_clear()
    zrk.complexes._bbox.cache_clear()
    zrk.regular.is_regular.cache_clear()


def timed(ops, cap: float) -> float | None:
    """Seconds to run ``ops`` once, or None past ``cap``."""
    clear_caches()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    start = time.perf_counter()
    try:
        for op in ops:
            op.run()
    except Capped:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start


def strs(p: RPoint) -> list[str]:
    return [format_rat(c) for c in p.coords]


def random_rational(rng: random.Random, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def random_simplex(rng: random.Random, ambient: int, dim: int, max_den: int):
    while True:
        pts = [RPoint(tuple(random_rational(rng, max_den) for _ in range(ambient)))
               for _ in range(dim + 1)]
        try:
            return GeoSimplex(tuple(pts))
        except ValueError:
            continue


def seed23_set() -> list[GeoSimplex]:
    """The simplexes of tests/test_regular.py::test_desingularize_random_corpus."""
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import random_simplex as test_random_simplex

    rng = random.Random(23)
    out = []
    while len(out) < 15:
        s = test_random_simplex(rng, rng.randint(1, 2), 6)
        if s.dim > 0:
            out.append(s)
    return out


def make_pools() -> dict:
    kept: dict[str, list] = {}
    excluded: dict[str, list] = {}

    def consider(family, entry, ops, cap):
        cost = timed(ops, cap)
        if cost is None or cost > cap:
            entry["cost_s"] = None if cost is None else round(cost, 4)
            entry["cap_s"] = cap
            excluded.setdefault(family, []).append(entry)
        else:
            entry["cost_s"] = round(cost, 4)
            kept.setdefault(family, []).append(entry)
        print(family, entry, flush=True)

    cube4 = standard_cube(4)
    for s in cube4.maximal_simplexes():
        p = s.barycenter()
        consider("stellar_cube4", {"point": strs(p)},
                 [workloads.certify_op("x", stellar(cube4, p))], 10.0)

    rng = random.Random(POOL_SEED)
    for _ in range(RANDOM_CANDIDATES):
        ambient = rng.randint(1, 3)
        s = random_simplex(rng, ambient, rng.randint(1, ambient), 6)
        consider("random_simplex", {"vertices": [strs(v) for v in s.vertices]},
                 [workloads.certify_op("x", GeoComplex([s], validate=False))], 1.5)

    cube3 = standard_cube(3)
    for s in sorted(t for t in cube3.simplexes if t.dim > 0):
        p = s.barycenter()
        consider("stellar_cube3", {"point": strs(p)},
                 workloads._witness_ops("x", stellar(cube3, p)), 10.0)

    cases = workloads.pipeline_cases()
    grid = sorted({RPoint((Fraction(a, d), Fraction(b, d)))
                   for d in (2, 3, 4) for a in range(d + 1) for b in range(d + 1)})
    for case in ("proj2", "fold"):
        eta = cases[case][0]
        for p in grid:
            if p.coords[0].denominator == p.coords[1].denominator == 1 \
                    or p in eta.domain.vertices():
                continue
            variant = workloads.stellar_variant(cases[case], p)
            consider(f"pipeline_{case}", {"point": strs(p)},
                     [workloads.pipeline_op("x", *variant)], 15.0)

    for index, s in enumerate(seed23_set()):
        coarse = GeoComplex([s], validate=False)
        entry = {"index": index, "vertices": [strs(v) for v in s.vertices]}
        op = workloads.check_op(
            "x", (workloads._text("complex", coarse),
                  workloads._text("complex", zrk.desingularize(coarse))),
            workloads._regular_subdivision, "regular subdivision")
        consider("seed23", entry, [op], 5.0)

    kept["excluded"] = excluded
    kept["note"] = (f"cost_s: one run of the op, caches cleared, measured by "
                    f"bench/make_golden.py pools; random_simplex candidates from "
                    f"random.Random({POOL_SEED}).")
    return kept


def make_golden() -> dict:
    pools = workloads.load_pools()
    golden = {}
    for name in workloads.WORKLOADS:
        golden[name] = {}
        for op in workloads.build(name, None, pools=pools):
            text, result = op.run()
            problem = op.recheck(text, result)
            if problem:
                raise SystemExit(f"{name} {op.id}: {problem}")
            golden[name][op.id] = hashlib.sha256(text.encode("utf-8")).hexdigest()
            print(name, op.id, golden[name][op.id][:12], flush=True)
    return golden


def main(argv: list[str]) -> int:
    if argv == ["pools"]:
        data, path = make_pools(), workloads.POOLS_PATH
    elif argv == ["golden"]:
        data, path = make_golden(), GOLDEN_PATH
    else:
        print(__doc__, file=sys.stderr)
        return 64
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
