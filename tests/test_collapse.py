import hashlib
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from zrk import (CollapseSequence, CollapseStep, GeoComplex, GeoSimplex, RPoint,
                 certify_main, desingularize, find_collapse_sequence, free_faces,
                 from_maximal, replay, rpoint, standard_cube, stellar)
from zrk import collapse, scx
from zrk.complexes import _closure
from zrk.scx import ScxDocument, parse_scx, print_scx

from conftest import random_rational, random_simplex, seg, tri
from oracles import (NotAnElementaryCollapse, dfs_collapse_sequence,
                     elementary_collapse, id_walk_sequence, point_lookup_replay,
                     scan_replay)


def test_free_faces_segment():
    cx = from_maximal([seg(0, 1)])
    pairs = free_faces(cx)
    edge = seg(0, 1)
    assert pairs == sorted([(edge, GeoSimplex((rpoint(0),))),
                            (edge, GeoSimplex((rpoint(1),)))])


def test_free_faces_square():
    cx = standard_cube(2)
    pairs = free_faces(cx)
    assert len(pairs) == 4
    for t, f in pairs:
        assert t.dim == 2 and f.dim == 1
        # the free facets are the boundary edges, never the diagonal
        assert f != seg2d((0, 0), (1, 1))


def seg2d(a, b):
    return GeoSimplex((rpoint(*a), rpoint(*b)))


def test_free_faces_hollow_triangle():
    cx = from_maximal([seg2d((0, 0), (1, 0)), seg2d((1, 0), (0, 1)),
                       seg2d((0, 0), (0, 1))])
    assert free_faces(cx) == []


def test_elementary_collapse_segment():
    cx = from_maximal([seg(0, 1)])
    out = elementary_collapse(cx, seg(0, 1), GeoSimplex((rpoint(1),)))
    assert set(out.simplexes) == {GeoSimplex((rpoint(0),))}


def test_elementary_collapse_square_count():
    cx = standard_cube(2)
    t, f = free_faces(cx)[0]
    out = elementary_collapse(cx, t, f)
    assert len(out.simplexes) == 9


def test_elementary_collapse_rejects_shared_edge():
    cx = standard_cube(2)
    diag = seg2d((0, 0), (1, 1))
    t = tri((0, 0), (1, 0), (1, 1))
    with pytest.raises(NotAnElementaryCollapse, match="not an elementary collapse"):
        elementary_collapse(cx, t, diag)


def test_collapse_counts_down_by_two():
    cx = standard_cube(2)
    while True:
        pairs = free_faces(cx)
        if not pairs or len(cx.simplexes) == 1:
            break
        before = len(cx.simplexes)
        cx = elementary_collapse(cx, *pairs[0])
        assert len(cx.simplexes) == before - 2


def test_find_collapse_sequence_cubes():
    for n, expected_steps in ((1, 1), (2, 5)):
        cx = standard_cube(n)
        seq = find_collapse_sequence(cx)
        assert seq is not None
        assert len(seq.steps) == expected_steps
        assert replay(cx, seq)
    c3 = standard_cube(3)
    seq3 = find_collapse_sequence(c3)
    assert seq3 is not None and replay(c3, seq3)
    assert len(seq3.steps) == (len(c3.simplexes) - 1) // 2


def test_find_collapse_sequence_single_vertex():
    cx = from_maximal([GeoSimplex((rpoint(0),))])
    seq = find_collapse_sequence(cx)
    assert seq is not None and seq.steps == ()
    assert replay(cx, seq)


def test_replay_rejects_bad_order():
    cx = standard_cube(2)
    seq = find_collapse_sequence(cx)
    twisted = CollapseSequence(tuple(reversed(seq.steps)), seq.terminal)
    assert not replay(cx, twisted)


def test_replay_rejects_wrong_terminal():
    cx = from_maximal([tri((0, 0), (1, 0), (0, 1))])
    assert not replay(cx, CollapseSequence((), GeoSimplex((rpoint(0, 0),))))


def test_stellar_subdivision_stays_collapsible():
    rng = random.Random(17)
    for cx in (standard_cube(1), standard_cube(2),
               from_maximal([tri((0, 0), (1, 0), (0, 1))])):
        assert find_collapse_sequence(cx) is not None
        for _ in range(4):
            s = rng.choice(cx.maximal_simplexes())
            sub = stellar(cx, s.barycenter())
            seq = find_collapse_sequence(sub)
            assert seq is not None and replay(sub, seq)


def test_collapse_step_validation():
    with pytest.raises(ValueError):
        CollapseStep(seg(0, 1), GeoSimplex((rpoint("1/2"),)))


def _differential_complexes():
    rng = random.Random(29)
    out = []
    for n in (1, 2, 3):
        cx = standard_cube(n)
        for _ in range(3):
            s = rng.choice(cx.maximal_simplexes())
            cx = stellar(cx, s.barycenter())
            out.append(cx)
    hollow = [seg2d((0, 0), (1, 0)), seg2d((1, 0), (0, 1)), seg2d((0, 0), (0, 1))]
    out.append(from_maximal(hollow))
    # two tails: the search backtracks and meets memoized states
    out.append(from_maximal(hollow + [seg2d((1, 0), (1, 1)),
                                      seg2d((0, 1), ("1/2", 1))]))
    out.append(standard_cube(4))
    return out


def _foreign(s: GeoSimplex) -> GeoSimplex:
    return GeoSimplex(tuple(rpoint(*(c + 2 for c in v.coords))
                            for v in s.vertices))


def _mutations(seq: CollapseSequence, rng: random.Random):
    steps = list(seq.steps)
    yield seq
    yield CollapseSequence(tuple(reversed(steps)), seq.terminal)
    yield CollapseSequence(seq.steps, _foreign(seq.terminal))
    if not steps:
        return
    k = rng.randrange(len(steps))
    yield CollapseSequence(tuple(steps[:k] + steps[k + 1:]), seq.terminal)
    yield CollapseSequence(seq.steps[:-1], seq.terminal)
    last = steps[-1]
    yield CollapseSequence(seq.steps, last.free_facet)
    yield CollapseSequence(
        tuple(steps[:k] + [CollapseStep(_foreign(steps[k].maximal),
                                        _foreign(steps[k].free_facet))]
              + steps[k + 1:]), seq.terminal)
    foreign_edge = GeoSimplex(last.free_facet.vertices
                              + _foreign(last.free_facet).vertices)
    yield CollapseSequence(
        tuple(steps[:-1] + [CollapseStep(foreign_edge, last.free_facet)]),
        seq.terminal)
    if len(steps) > 1:
        k = rng.randrange(len(steps) - 1)
        swapped = steps[:k] + [steps[k + 1], steps[k]] + steps[k + 2:]
        yield CollapseSequence(tuple(swapped), seq.terminal)
        k = rng.randrange(len(steps) - 1)
        swapped = steps[:k] + [steps[-1]] + steps[k + 1:-1] + [steps[k]]
        yield CollapseSequence(tuple(swapped), seq.terminal)


def test_search_and_replay_match_scanning_oracles():
    rng = random.Random(31)
    for cx in _differential_complexes():
        for budget in (0, 1, 3, 10, 50, 100_000):
            seq = find_collapse_sequence(cx, budget=budget)
            assert seq == dfs_collapse_sequence(cx, budget=budget), (cx, budget)
        if seq is None:
            continue
        for mutated in _mutations(seq, rng):
            assert replay(cx, mutated) == scan_replay(cx, mutated)


def test_replay_files_no_free_pairs(monkeypatch):
    # Replay reads no free list, so it builds none, and a step only updates
    # its two faces' facets; re-filing their pairs in the sorted list, as
    # the search's toggle does, shifted that list at every step.  A parsed
    # cube4 witness has a table equal to the complex's, so it is compared,
    # not looked up: replay hashes no point (16, one per distinct vertex
    # object, when each step's vertices were looked up).
    cx = standard_cube(4)
    seq = find_collapse_sequence(cx)
    parsed = parse_scx(print_scx(ScxDocument("sequence", seq))).payload
    calls = []
    for name in ("insort", "bisect_left", "bisect_right"):
        real = getattr(collapse, name)
        monkeypatch.setattr(collapse, name, lambda *a, real=real, name=name:
                            calls.append(name) or real(*a))
    file_free = collapse._FaceTable.file_free
    monkeypatch.setattr(collapse._FaceTable, "file_free",
                        lambda table: calls.append("file_free") or file_free(table))
    hashed = []
    real_hash = RPoint.__hash__
    monkeypatch.setattr(RPoint, "__hash__", lambda p: hashed.append(p) or real_hash(p))
    assert replay(cx, parsed)
    assert not calls
    assert not hashed
    monkeypatch.undo()
    assert replay(cx, seq)
    rng = random.Random(39)
    for mutated in _mutations(parsed, rng):
        assert replay(cx, mutated) == scan_replay(cx, mutated)


def _hollow_with_tails(k: int) -> GeoComplex:
    hollow = [seg2d((0, 0), (1, 0)), seg2d((1, 0), (0, 1)), seg2d((0, 0), (0, 1))]
    tails = [seg2d((0, 0), (-1, Fraction(j, k))) for j in range(k)]
    return from_maximal(hollow + tails)


def _count_flips(monkeypatch) -> list:
    flips = []
    toggle = collapse._FaceTable.toggle
    monkeypatch.setattr(collapse._FaceTable, "toggle",
                        lambda table, pair: flips.append(pair) or toggle(table, pair))
    return flips


def test_search_expands_each_failed_state_once(monkeypatch):
    # A hollow triangle with k tails does not collapse.  Its states are the
    # 2^k sets of tails left; with failed states remembered, each is
    # expanded once and tries each of its tails, so the search removes and
    # restores k 2^(k-1) pairs.  Without the memo it walks all k! orders.
    flips = _count_flips(monkeypatch)
    k = 10
    assert find_collapse_sequence(_hollow_with_tails(k)) is None
    assert len(flips) == 2 * k * 2 ** (k - 1)


def test_colliding_state_keys_change_no_result(monkeypatch):
    # With every Zobrist word 0, every state has key 0, so each failed
    # state is told apart by its live flags alone: the search finds what
    # it finds with distinct words, at every budget, and still expands
    # each failed state of the hollow triangle with tails once.
    monkeypatch.setattr(collapse, "_zobrist", lambda i: 0)
    for cx in _differential_complexes():
        for budget in (0, 1, 3, 10, 50, 100_000):
            assert (find_collapse_sequence(cx, budget=budget)
                    == dfs_collapse_sequence(cx, budget=budget)), (cx, budget)
    flips = _count_flips(monkeypatch)
    k = 8
    assert find_collapse_sequence(_hollow_with_tails(k)) is None
    assert len(flips) == 2 * k * 2 ** (k - 1)


def test_search_makes_zobrist_words_only_once_a_state_fails(monkeypatch):
    # A state's key is read only once some state is filed as failed, so a
    # search that never backs out of a failed state makes no word; one that
    # does makes each face's word once, at its first filing.
    made = []
    zobrist = collapse._zobrist
    monkeypatch.setattr(collapse, "_zobrist", lambda i: made.append(i) or zobrist(i))
    for cx in (standard_cube(2), standard_cube(3), standard_cube(4)):
        seq = find_collapse_sequence(cx)
        assert seq is not None and replay(cx, seq)
    assert made == []
    cx = _hollow_with_tails(4)
    assert find_collapse_sequence(cx) is None
    assert sorted(made) == list(range(len(_closure(cx._ranks))))


def test_search_leaves_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("the collapse search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    cube3 = standard_cube(3)
    seq = find_collapse_sequence(cube3)
    assert seq is not None and replay(cube3, seq)
    n = 1200
    path = GeoComplex([seg(Fraction(k, n), Fraction(k + 1, n))
                       for k in range(n)], validate=False)
    seq = find_collapse_sequence(path)
    assert seq is not None and len(seq.steps) == n
    assert replay(path, seq)


# SHA-256 of the canonical text of the cube5 sequence found at full budget,
# recorded before the search kept one sorted free list and a bitmask memo.
CUBE5_SEQUENCE_SHA256 = "6a6918ab5b0c5fb4a8b169e7d75bcb6e552c7b82951ce2e132ef99d583172e4d"


def test_cube5_sequence_is_unchanged():
    cube5 = standard_cube(5)
    text = print_scx(ScxDocument("sequence", find_collapse_sequence(cube5)))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CUBE5_SEQUENCE_SHA256
    # The scanning oracle needs minutes at full budget on cube5.
    for budget in (0, 1):
        assert (find_collapse_sequence(cube5, budget=budget)
                == dfs_collapse_sequence(cube5, budget=budget))


def test_search_memory_holds_no_state_per_node():
    # A whole-state memo key at every node peaked at 64 MB on cube5; the
    # bitmasks of failed states and the face table stay under 2 MB.
    cube5 = standard_cube(5)
    tracemalloc.start()
    try:
        seq = find_collapse_sequence(cube5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq is not None
    assert peak < 16_000_000, f"search peak {peak / 1e6:.1f} MB"


def test_face_table_hashes_no_point(monkeypatch):
    # The face table takes the complex's vertex table and reads its ids off
    # the complex's rank tuples; building it looked every vertex of every
    # maximal simplex up by point (616 hashes on cube4).
    cx = standard_cube(4)
    hashed = []
    real = RPoint.__hash__
    monkeypatch.setattr(RPoint, "__hash__", lambda p: hashed.append(p) or real(p))
    table = collapse._FaceTable(cx, _closure(cx._ranks))
    assert not hashed
    monkeypatch.undo()
    assert table.index is cx._rank and table.verts is cx.vertices()
    faces = [table.geo(i) for i in range(table.n)]
    assert len(faces) == len(cx.simplexes) and set(faces) == cx.simplexes
    assert faces == sorted(faces)  # face-id order is simplex order


def test_collapse_step_checks_its_facet_without_hashing(monkeypatch):
    # Both vertex tuples are sorted, so the facet test compares tuples; it
    # built two point sets per step, also for the steps the search builds
    # from its own free pairs.
    seq = find_collapse_sequence(standard_cube(4))
    assert len(seq.steps) == 149
    hashed = []
    real = RPoint.__hash__
    monkeypatch.setattr(RPoint, "__hash__", lambda p: hashed.append(p) or real(p))
    rebuilt = [CollapseStep(s.maximal, s.free_facet) for s in seq.steps]
    assert not hashed
    monkeypatch.undo()
    assert rebuilt == list(seq.steps)
    # Every pair of simplexes of cube2, with equal points as distinct
    # objects, and a foreign point: a step is made iff the point sets say
    # F is a facet of T.
    simplexes = sorted(standard_cube(2).simplexes) + [
        seg2d((0, 0), ("1/2", 0)), tri((0, 0), (1, 0), ("1/2", "1/2"))]
    for t in simplexes:
        for f in simplexes:
            f = GeoSimplex(tuple(RPoint(v.coords) for v in f.vertices))
            mv, fv = set(t.vertices), set(f.vertices)
            if fv < mv and len(fv) == len(mv) - 1:
                CollapseStep(t, f)
            else:
                with pytest.raises(ValueError, match="must be a facet of maximal"):
                    CollapseStep(t, f)


def _boundary(cx: GeoComplex) -> list[GeoSimplex]:
    """The facets of cx's maximal simplexes that lie in only one of them."""
    held: dict[GeoSimplex, int] = {}
    for m in cx.maximal_simplexes():
        for i in range(len(m.vertices)):
            f = GeoSimplex._raw(m.vertices[:i] + m.vertices[i + 1:])
            held[f] = held.get(f, 0) + 1
    return sorted(f for f, count in held.items() if count == 1)


def _backtracking_complexes() -> list[GeoComplex]:
    """Seeded 2-spheres, the boundaries of cube3 made stellar at points on
    its faces, with hairs (edges to points off the cube, each its own) or
    with a triangle taken out (a disk) and hairs.  A sphere with hairs does
    not collapse, so the search tries every order of removing the hairs;
    the complexes are built unvalidated, as the search is combinatorial."""
    rng = random.Random(2046)
    out = []
    for _ in range(6):
        cx = standard_cube(3)
        for _ in range(rng.randint(1, 2)):
            x = [Fraction(rng.randint(1, 4), 5) for _ in range(3)]
            x[rng.randrange(3)] = Fraction(rng.randint(0, 1))
            cx = stellar(cx, RPoint(tuple(x)))
        sphere = _boundary(cx)
        verts = sorted({v for f in sphere for v in f.vertices})
        for cut in (False, True):
            faces = list(sphere)
            if cut:
                faces.remove(rng.choice(faces))
            faces += [GeoSimplex((rng.choice(verts), rpoint(2 + j, 2, 2)))
                      for j in range(rng.randint(0, 3))]
            out.append(GeoComplex(faces, validate=False))
    return out + [_hollow_with_tails(4)]


def test_search_matches_the_oracle_at_the_descent_bound():
    # A sequence of a complex with f faces has (f - 1)/2 steps, so no
    # budget below that succeeds, and the search gives None as soon as it
    # knows f.  At every budget around the bound, and past it, it finds
    # what the recursive oracle finds.
    found = {True: 0, False: 0}
    for cx in _backtracking_complexes():
        half = (len(cx.simplexes) - 1) // 2
        for budget in (0, 1, half - 1, half, half + 1, 2 * half, 100_000):
            seq = find_collapse_sequence(cx, budget=budget)
            assert seq == dfs_collapse_sequence(cx, budget=budget), (cx, budget)
            found[seq is not None] += 1
            if seq is not None:
                assert replay(cx, seq)
    assert found[True] >= 10 and found[False] >= 10, found


def test_a_budget_below_the_descent_builds_no_face_table(monkeypatch):
    # The test 2 budget < f - 1 reads only the face count f, so it runs on
    # the closure of the rank tuples before the table is built from it.  On
    # a 676,207-face complex the table took 4.07 s and the closure 0.76 s
    # (2 cores, Python 3.11.7).
    built = []
    init = collapse._FaceTable.__init__
    monkeypatch.setattr(collapse._FaceTable, "__init__",
                        lambda table, *a: built.append(1) or init(table, *a))
    cx = standard_cube(4)
    half = (len(cx.simplexes) - 1) // 2
    for budget in (0, 1, half - 1):
        assert find_collapse_sequence(cx, budget=budget) is None
    assert built == []
    assert find_collapse_sequence(cx, budget=half) is not None and built == [1]


def test_an_exhausted_budget_stops_the_search(monkeypatch):
    # A hollow triangle with 90 tails does not collapse.  At budget 100
    # the search descends 90 tails deep, backs out of a few failed states
    # and passes the budget with 88 states open on its path, and then it
    # stops.  Had the open states tried their remaining pairs, that would
    # have taken 8,224 toggles, about the depth times the pairs, and filed
    # every open state as failed, though no filed state is read once no
    # state is expanded.
    k, budget = 90, 100
    flips = []
    toggle = collapse._FaceTable.toggle
    monkeypatch.setattr(collapse._FaceTable, "toggle", lambda table, pair: flips.append(
        table.live[pair // table.n]) or toggle(table, pair))
    filed = []

    class Filed(set):
        def add(self, state):
            filed.append(state)
            super().add(state)

    monkeypatch.setattr(collapse, "set", Filed, raising=False)
    assert find_collapse_sequence(_hollow_with_tails(k), budget=budget) is None
    open_states = sum(flips) - (len(flips) - sum(flips))  # removals less restores
    assert open_states > k // 2
    assert len(flips) <= 2 * k
    # Every expanded state is filed or open, and the budget expands 100.
    assert filed and len(filed) == budget - open_states


def _sequence_cases(rng: random.Random) -> list:
    """(complex, document) pairs whose document holds a collapse sequence
    of the complex: the sequences found on seeded stellar squares and
    cube3s and on desingularized random simplexes, the certified verdicts
    of those complexes, and each sequence and verdict parsed back from its
    text, whose point objects are not the complex's."""
    cxs = []
    for n in (2, 2, 3, 3):
        cx = standard_cube(n)
        for _ in range(rng.randint(1, 3)):
            cx = stellar(cx, RPoint(tuple(random_rational(rng, 7) for _ in range(n))))
        cxs.append(cx)
    cxs += [desingularize(from_maximal([random_simplex(rng, d, 5)])) for d in (1, 2, 2, 3)]
    cases = []
    for cx in cxs:
        seq = find_collapse_sequence(cx)
        verdict = certify_main(cx)
        docs = [ScxDocument("sequence", seq)]
        if verdict.status == "certified" and verdict.witnesses.collapse_complex is cx:
            docs.append(ScxDocument("verdict", verdict))
        cases += [(cx, doc) for doc in docs] + [(cx, parse_scx(print_scx(doc))) for doc in docs]
    assert sum(doc.kind == "verdict" for _, doc in cases) >= 8, cases
    return cases


def _payload_sequence(doc: ScxDocument) -> CollapseSequence:
    return doc.payload if doc.kind == "sequence" else doc.payload.witnesses.collapse_sequence


def test_printing_and_replay_match_the_step_walking_oracles(monkeypatch):
    # The printer joins the blocks of a sequence's vertex table at its rank
    # pairs, and replay reads face ids off those pairs; the oracles walk
    # the step objects, by vertex id and by point.  On found, certified and
    # parsed sequences, and on their mutations, the bytes and the answers
    # are the same.
    rng = random.Random(5011)
    parsed = 0
    for cx, doc in _sequence_cases(rng):
        text = print_scx(doc)
        with monkeypatch.context() as m:
            m.setattr(scx, "_sequence", id_walk_sequence)
            assert print_scx(doc) == text
        seq = _payload_sequence(doc)
        assert seq.vertices == cx.vertices()
        if doc.kind == "sequence" and seq.pairs and seq.vertices is not cx.vertices():
            assert not {id(v) for v in seq.vertices} & {id(v) for v in cx.vertices()}
            parsed += 1
        for mutated in _mutations(seq, rng):
            want = scan_replay(cx, mutated)
            assert replay(cx, mutated) == want == point_lookup_replay(cx, mutated)
            with monkeypatch.context() as m:
                m.setattr(scx, "_sequence", id_walk_sequence)
                oracle_text = print_scx(ScxDocument("sequence", mutated))
            assert print_scx(ScxDocument("sequence", mutated)) == oracle_text
    assert parsed >= 6, parsed


def test_replay_answers_no_off_its_complex():
    # A sequence replayed on another complex, a sequence with a vertex
    # outside the complex, and a truncated sequence: each is no, as the
    # oracles say.
    rng = random.Random(5023)
    cases, checked = _sequence_cases(rng), 0
    for (cx, doc), (other, _) in zip(cases, cases[3:] + cases[:3]):
        seq = _payload_sequence(doc)
        if not seq.pairs or other.maximal_simplexes() == cx.maximal_simplexes():
            continue
        checked += 1
        outside = GeoSimplex((rpoint(*[2] * cx.ambient_dim),))
        edge = GeoSimplex(seq.terminal.vertices + outside.vertices)
        for bad, on in ((seq, other), (seq, stellar(cx, cx.maximal_simplexes()[0].barycenter())),
                        (CollapseSequence(seq.steps + (CollapseStep(edge, outside),),
                                          seq.terminal), cx),
                        (CollapseSequence(seq.steps, outside), cx),
                        (CollapseSequence(seq.steps[:-1], seq.terminal), cx)):
            assert not replay(on, bad)
            assert not scan_replay(on, bad) and not point_lookup_replay(on, bad)
    assert checked >= 12, checked
    # Two stellar squares whose new vertices differ but take the same place
    # in the vertex order have the same rank pairs; only the tables say
    # that one's sequence is not the other's.
    cx, other = (stellar(standard_cube(2), rpoint("1/3", y)) for y in ("1/5", "1/4"))
    seq = find_collapse_sequence(other)
    assert seq.pairs == find_collapse_sequence(cx).pairs
    assert seq.terminal.vertices[0] in cx.vertices()
    assert not replay(cx, seq) and not scan_replay(cx, seq)


def test_a_single_vertex_has_the_zero_step_sequence():
    vertex = GeoSimplex((rpoint("1/3", -2),))
    cx = from_maximal([vertex])
    seq = find_collapse_sequence(cx)
    assert seq == CollapseSequence((), vertex)
    assert seq.vertices is cx.vertices() and seq.pairs == () and seq.steps == ()
    text = print_scx(ScxDocument("sequence", seq))
    assert '"steps": []' in text and parse_scx(text).payload == seq
    assert replay(cx, seq) and replay(cx, parse_scx(text).payload)
    assert not replay(cx, CollapseSequence((), GeoSimplex((rpoint(0, 0),))))


def test_the_search_and_the_printer_build_no_step_objects(monkeypatch):
    # The search hands over its rank pairs and the printer joins blocks at
    # them, so finding cube4's 149-step sequence and printing it, alone and
    # in a verdict, builds one simplex, the terminal, and no step.  Before,
    # the search built two simplexes and a step per step.
    cube4 = standard_cube(4)
    verdict = certify_main(cube4)
    built = []
    simplex, step = GeoSimplex._raw, CollapseStep._raw
    monkeypatch.setattr(GeoSimplex, "_raw", classmethod(
        lambda cls, vs: built.append("simplex") or simplex(vs)))
    monkeypatch.setattr(CollapseStep, "_raw", classmethod(
        lambda cls, t, f: built.append("step") or step(t, f)))
    monkeypatch.setattr(CollapseStep, "__post_init__", lambda self: built.append("step"))
    seq = find_collapse_sequence(cube4)
    print_scx(ScxDocument("sequence", seq))
    print_scx(ScxDocument("verdict", verdict))
    assert built == ["simplex"]
    assert len(seq.pairs) == 149
