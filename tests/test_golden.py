"""Every op any seed of the benchmark can draw prints the bytes whose
SHA-256 ``bench/data/golden.json`` records, and its witnesses re-check.
The ops are built in memory, as ``test_zmaps`` builds the pipeline cases;
only files under ``bench/`` are read.  The seeded folds of
``tests/rfold.py`` print the bytes recorded in ``RFOLD_GOLDEN``.  A subset
of both prints the same bytes when points hash otherwise, so no output
depends on the order in which a set iterates."""

import hashlib
import json
from pathlib import Path

import pytest

from zrk import RPoint, part2_reduce, pipeline_dh, rpoint
from zrk.regular import is_regular
from zrk.scx import ScxDocument, print_scx

from rfold import rfold, rfold_points

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _golden() -> dict:
    return json.loads((BENCH / "data" / "golden.json").read_text(encoding="utf-8"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", ["certify", "check", "pipeline"])
def test_every_benchmark_op_prints_its_golden_bytes(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    golden = _golden()
    ops = workloads.build(workload, None)
    assert sorted(op.id for op in ops) == sorted(golden[workload])
    for op in ops:
        text, result = op.run()
        assert _digest(text) == golden[workload][op.id], op.id
        assert op.recheck(text, result) is None, op.id


# SHA-256 of the printed pipeline_dh map and collapse sequence, and of
# part 2's weighted complex, realization, section and retraction, on two
# seeded folds (tests/rfold.py), recorded before step G returned its map
# and step F its inside subcomplex.
RFOLD_GOLDEN = {
    (2, 15): ["0cc27e5807f6939ab643104329eb439fad4ae232ddf4754dbee7a486ac23d909",
              "74522509f9785c657ca041723178904db3f2750704f14af05d7cc636575cc2cc",
              "5823c2c3fcec356eb807fee21cf9ac7d5c61595418fc8fcbe51a187991cf8362",
              "6be19947354ba98ecda1f3e495fd6c2673679a25208a87d98e302f97251244ba",
              "a75dec875ecf8e14d1244143933b6050ca8e352838c7d0ef3e08cdd8d3273132",
              "e63f887c05079c2fa026fb75886d69c10a22f2fb832de6f44b7c11066d1647aa"],
    (3, 2): ["aa6486471c53f48a714a3d47906ade1fc353c4e17e7636000339e133a262bedb",
             "c2ada9ea25b3cec8ad217b65378b1e768660025d3a591a8ef49ae05a5296bf0e",
             "e840c39ff3227e126454d59ef5b622f674862945dd79237d96df212d70862c87",
             "57e98aaf968cfcee306a71bade4e7b99ff9e1f17b674e1c123e016d3418cf7f1",
             "966f143336cbb3561d21d34921a53b25c7b7497f3ab526a4bc3d92cc1c406181",
             "db0992f8f6c3ac166f04150a03671eca00d22eda7e19af06cd627f283e52ee32"],
}


def test_rfold_starts_at_its_recorded_points():
    points = rfold_points(3, 5)[:3]
    assert points == [rpoint("1/2", "3/7", "6/7"), rpoint("5/7", "1/2", "1/3"),
                      rpoint("1/3", "1/2", "2/3")]


def _rfold_digests(n: int, k: int) -> tuple[list[str], object]:
    """The digests of the six documents of rfold(n, k), and the complex
    that pipeline_dh triangulated."""
    eta, part = rfold(n, k)
    result = pipeline_dh(eta, part)
    assert result.status == "ok"
    reduced = part2_reduce(result.map, result.triangulation, part)
    docs = [("plmap", result.map), ("sequence", result.collapse_sequence),
            ("weighted", reduced.weighted), ("complex", reduced.realization),
            ("plmap", reduced.section), ("plmap", reduced.retraction)]
    digests = [_digest(print_scx(ScxDocument(kind, payload))) for kind, payload in docs]
    return digests, result.triangulation


@pytest.mark.parametrize("n, k", sorted(RFOLD_GOLDEN))
def test_the_pipeline_and_part2_print_their_golden_bytes_on_rfold(n, k):
    assert _rfold_digests(n, k)[0] == RFOLD_GOLDEN[n, k]


def test_no_output_depends_on_the_order_a_set_iterates(monkeypatch):
    # Points hash as their vectors, and sets of them iterate in an order
    # that follows the hash.  Under two salted point hashes, the tiny ops
    # of each workload and rfold(2, 15) print their golden bytes, while a
    # set of the triangulation's vertices iterates in two orders.  The
    # salted hash is not cached, so points built before and inside the
    # patch agree; every input is built inside it, and is_regular's cache,
    # keyed by simplexes, is emptied on both sides.
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    golden = _golden()
    orders = []
    for salt in (7, 12345):
        is_regular.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(RPoint, "__hash__", lambda p, salt=salt: hash((salt, p._homog)))
            for workload in ("certify", "check", "pipeline"):
                for op in workloads.build(workload, 1, tiny=True):
                    text, _ = op.run()
                    assert _digest(text) == golden[workload][op.id], (salt, op.id)
            digests, triangulation = _rfold_digests(2, 15)
            assert digests == RFOLD_GOLDEN[2, 15], salt
            orders.append(list(set(triangulation.vertices())))
        is_regular.cache_clear()
    assert len(orders[0]) >= 8 and orders[0] != orders[1]
