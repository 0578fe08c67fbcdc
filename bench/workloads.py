"""The three benchmark workloads, built from a seed.

Each workload is a fixed list of ops run back to back in one process:

certify   finding a verdict.  ``certify_main`` on polyhedra built in memory
          (no common-face validation), printing the verdict and witness
          documents.  Collapse search dominates; ``supports`` and validation
          are absent.
check     checking witnesses, as a third party would.  Each op parses
          canonical ``.scx`` text, which runs the common-face validation, and
          re-checks one certificate: ``replay``, ``is_strongly_regular``,
          ``verify_zretract``, ``verify_section_retraction`` or
          ``is_subdivision``.  Search is absent.
pipeline  the constructive reduction.  ``pipeline_dh``, ``part2_reduce`` and
          ``verify_section_retraction``, printing the witness documents.
          ``supports`` of a simplex against a cover dominates.

Seeded ops come after the fixed ones, so that the fixed ops meet the same
cache state whatever the seed.  They are drawn from the pools in
``data/pools.json``, where each entry records the op's cost measured when
the pool was made; ``PICKS`` draws a fixed number of entries from fixed cost
bands, so every seed gets the same mix of cheap and dear ops.  Because the
pools are finite, ``data/golden.json`` holds a digest for every op any seed
can draw.  Candidates over their family's time cap (cliffs) are listed under
``excluded`` in the pools file and never drawn.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import zrk
from zrk import (GeoComplex, GeoSimplex, PLMap, RPoint, desingularize,
                 from_maximal, standard_cube, stellar)
from zrk import scx
from zrk.exactnum import parse_rat
from zrk.scx import ScxDocument

# Timed code calls zrk through module attributes (``zrk.certify_main``,
# ``scx.print_scx``), never through names bound here at import, so that the
# tracer's rebinding of those attributes reaches the outermost call.

WORKLOADS = ("certify", "check", "pipeline")
DATA = Path(__file__).resolve().parent / "data"
POOLS_PATH = DATA / "pools.json"

# family -> [(lowest cost, highest cost, entries drawn)], costs in seconds as
# recorded in the pools file.  The bands keep the ops that the percentiles
# land on fixed: op_p50_s and op_p90_s fall on cube3/cube4 ops (certify),
# seed-23 and cube3 checks (check), and the square case (pipeline) for
# every seed.
PICKS = {
    "stellar_cube4": [(1.35, 1.5, 3)],
    "random_simplex": [(0.1, 0.3, 3), (0.6, 0.8, 1)],
    "stellar_cube3": [(0.55, 0.72, 3)],
    "pipeline_proj2": [(0.15, 0.22, 2)],
    "pipeline_fold": [(2.5, 2.9, 2)],
}


@dataclass
class Op:
    """One timed operation.  ``run`` returns the text it prints and the
    objects ``recheck`` needs; ``recheck`` runs untimed and returns a failure
    message or None."""

    id: str
    run: Callable[[], tuple[str, object]]
    recheck: Callable[[str, object], Optional[str]]


# -- inputs -------------------------------------------------------------------


def rat_point(coords) -> RPoint:
    return RPoint(tuple(parse_rat(c) for c in coords))


def corpus_text(name: str) -> str:
    return (resources.files("zrk.corpus") / name).read_text(encoding="utf-8")


def corpus_names() -> list[str]:
    """Polyhedra of the bundled corpus that ship an expected verdict."""
    files = resources.files("zrk.corpus")
    return sorted(p.name[:-len(".verdict.scx")] for p in files.iterdir()
                  if p.name.endswith(".verdict.scx"))


def face_projection(n: int) -> tuple[PLMap, GeoComplex]:
    """[0,1]^n onto its face x_n = 0, on the standard triangulation."""
    cube = standard_cube(n)
    face = GeoComplex([s for s in cube.simplexes
                       if all(v.coords[-1] == 0 for v in s.vertices)])
    eta = PLMap(cube, {v: RPoint(v.coords[:-1] + (Fraction(0),))
                       for v in cube.vertices()})
    return eta, face


def fold() -> tuple[PLMap, GeoComplex]:
    """The fold of [0,1]^2 onto [0,1] x [0,1/2]: (x, y) -> (x, min(y, 1-y))."""
    h = Fraction(1, 2)

    def tri(*pts):
        return GeoSimplex(tuple(RPoint(tuple(Fraction(c) for c in p)) for p in pts))

    lower = [tri((0, 0), (1, 0), (1, h)), tri((0, 0), (0, h), (1, h))]
    upper = [tri((0, h), (1, h), (1, 1)), tri((0, h), (0, 1), (1, 1))]
    dom = from_maximal(lower + upper)
    eta = PLMap(dom, {v: RPoint((v.coords[0], min(v.coords[1], 1 - v.coords[1])))
                      for v in dom.vertices()})
    return eta, from_maximal(lower)


def pipeline_cases() -> dict[str, tuple[PLMap, GeoComplex]]:
    """The fixed (eta, P) pairs of the pipeline workload."""
    def corpus_doc(name):
        return scx.parse_scx(corpus_text(name + ".scx")).payload

    return {
        "tent": (corpus_doc("tent_retraction"), corpus_doc("half_interval")),
        "square": (corpus_doc("square_to_half_diagonal"), corpus_doc("half_diagonal")),
        "proj2": face_projection(2),
        "proj3": face_projection(3),
        "fold": fold(),
    }


def stellar_variant(case: tuple[PLMap, GeoComplex], point: RPoint):
    """The same retraction with its domain subdivided at ``point``."""
    eta, part = case
    return eta.rebase(stellar(eta.domain, point)), part


def load_pools() -> dict:
    return json.loads(POOLS_PATH.read_text(encoding="utf-8"))


def draw(pools: dict, family: str, rng: Optional[random.Random],
         tiny: bool = False) -> list[int]:
    """Pool indices drawn for ``family``: every entry when rng is None."""
    entries = pools[family]
    if rng is None:
        return list(range(len(entries)))
    if tiny:
        return [min(range(len(entries)), key=lambda i: entries[i]["cost_s"])]
    chosen = []
    for lo, hi, count in PICKS[family]:
        band = [i for i, e in enumerate(entries) if lo <= e["cost_s"] < hi]
        chosen += sorted(rng.sample(band, count))
    return chosen


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"zrk-bench/{workload}/{seed}")


# -- certify ------------------------------------------------------------------


def _docs_text(docs) -> str:
    return "".join(scx.print_scx(d) for d in docs)


def recheck_verdict(part: GeoComplex, verdict) -> Optional[str]:
    """Re-check a certified verdict's witnesses independently."""
    if verdict.status == "refuted":
        return None if verdict.refutation_reason else "refutation without a reason"
    if verdict.status != "certified":
        return None
    wit = verdict.witnesses
    if not zrk.replay(wit.collapse_complex, wit.collapse_sequence):
        return "the collapse witness does not replay"
    if not zrk.is_strongly_regular(wit.strongly_regular):
        return "the regular witness is not strongly regular"
    lv = wit.lattice_vertex
    if any(c not in (0, 1) for c in lv.coords) or not part.contains_point(lv):
        return "the lattice witness is not a cube vertex of |P|"
    return None


def certify_op(op_id: str, part: GeoComplex, expected: Optional[str] = None) -> Op:
    def run():
        verdict = zrk.certify_main(part)
        docs = [ScxDocument("verdict", verdict)]
        if verdict.witnesses:
            wit = verdict.witnesses
            docs += [ScxDocument("complex", wit.collapse_complex),
                     ScxDocument("sequence", wit.collapse_sequence),
                     ScxDocument("complex", wit.strongly_regular)]
        return _docs_text(docs), verdict

    def recheck(text, verdict):
        if expected is not None and not text.startswith(expected):
            return "the verdict differs from the shipped .verdict.scx"
        return recheck_verdict(part, verdict)

    return Op(op_id, run, recheck)


def build_certify(pools: dict, rng: Optional[random.Random], tiny: bool) -> list[Op]:
    ops = []
    for name in corpus_names():
        part = scx.parse_scx(corpus_text(name + ".scx")).payload
        ops.append(certify_op(f"corpus/{name}", part,
                              corpus_text(name + ".verdict.scx")))
    if not tiny:
        ops += [certify_op(f"cube/{n}", standard_cube(n)) for n in (3, 4)]
        cube4 = standard_cube(4)
        entries = pools["stellar_cube4"]
        for i in draw(pools, "stellar_cube4", rng):
            point = rat_point(entries[i]["point"])
            ops.append(certify_op(f"stellar-cube4/{i}", stellar(cube4, point)))
    entries = pools["random_simplex"]
    for i in draw(pools, "random_simplex", rng, tiny):
        simplex = GeoSimplex(tuple(rat_point(v) for v in entries[i]["vertices"]))
        ops.append(certify_op(f"random/{i}", GeoComplex([simplex], validate=False)))
    return ops


# -- check --------------------------------------------------------------------


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
    return h.hexdigest()[:16]


def check_op(op_id: str, texts: tuple[str, ...], check: Callable[..., bool],
             label: str, expect: bool = True) -> Op:
    """Parse every text, then run ``check`` on the payloads; its answer must
    be ``expect``.  The printed line carries a digest of the inputs, so
    changed witnesses show too."""
    head = f"inputs {_digest(*texts)}\n"

    def run():
        ok = check(*(scx.parse_scx(t).payload for t in texts))
        return head + f"{label}: {'yes' if ok else 'no'}\n", ok

    def recheck(text, ok):
        return None if ok == expect else f"{label}: expected {'yes' if expect else 'no'}"

    return Op(op_id, run, recheck)


def _witness_ops(tag: str, part: GeoComplex) -> list[Op]:
    """Replay and strong-regularity checks of a certify verdict's witnesses."""
    wit = zrk.certify_main(part).witnesses
    return [check_op(f"replay/{tag}", (_text("complex", wit.collapse_complex),
                                       _text("sequence", wit.collapse_sequence)),
                     _replay, "replay"),
            check_op(f"strongly-regular/{tag}",
                     (_text("complex", wit.strongly_regular),),
                     _strongly_regular, "strongly regular")]


def _text(kind: str, payload) -> str:
    return scx.print_scx(ScxDocument(kind, payload))


def _replay(cx, seq) -> bool:
    return zrk.replay(cx, seq)


def _strongly_regular(cx) -> bool:
    return zrk.is_strongly_regular(cx)


def _zretract(part, eta) -> bool:
    return zrk.verify_zretract(part, eta)


def _pipeline_witnesses(part, triangulation, seq, mu, xi) -> bool:
    return (zrk.replay(triangulation, seq)
            and zrk.verify_section_retraction(part, mu, xi))


def _regular_subdivision(coarse, fine) -> bool:
    return (zrk.is_subdivision(fine, coarse)
            and all(zrk.is_regular(s) for s in fine.simplexes))


def build_check(pools: dict, rng: Optional[random.Random], tiny: bool) -> list[Op]:
    ops = []
    cube3 = standard_cube(3)
    ops += _witness_ops("cube3", cube3)
    if not tiny:
        # Only the replay: the strongly regular witness of cube4 is cube4
        # itself, and a second validation of it would double the pass.
        ops += _witness_ops("cube4", standard_cube(4))[:1]
    # square_to_half_diagonal is a rational retraction with slope 1/2, the
    # pipeline's input, not a Z-map: the right answer for it is no.
    for eta_name, part_name, expect in (
            ("tent_retraction", "half_interval", True),
            ("square_to_half_diagonal", "half_diagonal", False)):
        ops.append(check_op(f"retract/{eta_name}",
                            (corpus_text(part_name + ".scx"),
                             corpus_text(eta_name + ".scx")),
                            _zretract, "Z-retraction", expect))
    cases = pipeline_cases()
    for name in ("tent",) if tiny else ("tent", "square", "proj2"):
        eta, part = cases[name]
        result = zrk.pipeline_dh(eta, part)
        red = zrk.part2_reduce(result.map, result.triangulation, part)
        ops.append(check_op(f"pipeline-witnesses/{name}",
                            (_text("complex", part),
                             _text("complex", result.triangulation),
                             _text("sequence", result.collapse_sequence),
                             _text("plmap", red.retraction),
                             _text("plmap", red.section)),
                            _pipeline_witnesses, "replay and section-retraction"))
    for i, entry in enumerate(pools["seed23"]):
        if tiny and i > 3:
            break
        coarse = GeoComplex([GeoSimplex(tuple(rat_point(v) for v in entry["vertices"]))],
                            validate=False)
        ops.append(check_op(
            f"desingularized/seed23-{entry['index']}",
            (_text("complex", coarse), _text("complex", desingularize(coarse))),
            _regular_subdivision, "regular subdivision"))
    if not tiny:
        entries = pools["stellar_cube3"]
        for i in draw(pools, "stellar_cube3", rng):
            point = rat_point(entries[i]["point"])
            ops += _witness_ops(f"stellar-cube3/{i}", stellar(cube3, point))
    return ops


# -- pipeline -----------------------------------------------------------------


def pipeline_op(op_id: str, eta: PLMap, part: GeoComplex) -> Op:
    def run():
        result = zrk.pipeline_dh(eta, part)
        red = zrk.part2_reduce(result.map, result.triangulation, part)
        ok = zrk.verify_section_retraction(part, red.retraction, red.section)
        docs = [ScxDocument("plmap", result.map),
                ScxDocument("complex", result.triangulation)]
        if result.collapse_sequence is not None:
            docs.append(ScxDocument("sequence", result.collapse_sequence))
        docs += [ScxDocument("weighted", red.weighted),
                 ScxDocument("complex", red.realization),
                 ScxDocument("plmap", red.section),
                 ScxDocument("plmap", red.retraction)]
        tail = (f"status {result.status}\n"
                f"section-retraction: {'valid' if ok else 'INVALID'}\n")
        return _docs_text(docs) + tail, (result, ok)

    def recheck(text, outcome):
        result, ok = outcome
        if not ok:
            return "the section/retraction pair does not verify"
        if result.status != "ok":
            return f"pipeline status {result.status}"
        if not zrk.replay(result.triangulation, result.collapse_sequence):
            return "the collapse witness does not replay"
        return None

    return Op(op_id, run, recheck)


def build_pipeline(pools: dict, rng: Optional[random.Random], tiny: bool) -> list[Op]:
    cases = pipeline_cases()
    fixed = ("tent", "proj2") if tiny else ("tent", "square", "proj2", "proj3", "fold")
    ops = [pipeline_op(name, *cases[name]) for name in fixed]
    for case in ("proj2",) if tiny else ("proj2", "fold"):
        family = f"pipeline_{case}"
        entries = pools[family]
        for i in draw(pools, family, rng, tiny):
            point = rat_point(entries[i]["point"])
            ops.append(pipeline_op(f"{case}-stellar/{i}",
                                   *stellar_variant(cases[case], point)))
    return ops


BUILDERS = {"certify": build_certify, "check": build_check,
            "pipeline": build_pipeline}


def build(workload: str, seed: Optional[int], tiny: bool = False,
          pools: Optional[dict] = None) -> list[Op]:
    """The ops of one pass.  ``seed=None`` builds every op any seed can draw."""
    pools = load_pools() if pools is None else pools
    rng = None if seed is None else workload_rng(workload, seed)
    return BUILDERS[workload](pools, rng, tiny)
