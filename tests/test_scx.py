import collections
import gc
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from zrk import (CollapseSequence, CollapseStep, GeoComplex, GeoSimplex, PLMap, RPoint,
                 certify_main, complexes, find_collapse_sequence, from_maximal, linalg,
                 part2_reduce, pipeline_dh, replay, rpoint, scx, standard_cube, stellar)
from zrk.complexes import AbsComplex, WeightedComplex
from zrk.exactnum import format_rat
from zrk.scx import KINDS, ScxDocument, ScxError, parse_scx, print_scx
from zrk.zmaps import RetractVerdict, RetractWitnesses

from conftest import random_simplex, seg, tri
from oracles import (json_print_scx, point_lookup_replay, read_off_parse_sequence,
                     validating_parse_sequence, walk_print_scx)
from test_collapse import _differential_complexes, _mutations


def roundtrip(doc: ScxDocument) -> ScxDocument:
    text = print_scx(doc)
    again = parse_scx(text)
    assert print_scx(again) == text  # canonical form is a fixed point
    return again


def test_complex_roundtrip():
    cx = standard_cube(2)
    again = roundtrip(ScxDocument("complex", cx))
    assert again.payload == cx


def test_plmap_roundtrip(tent):
    again = roundtrip(ScxDocument("plmap", tent))
    assert again.payload.domain == tent.domain
    assert again.payload.images == tent.images


def test_equal_vertices_of_a_parsed_document_are_one_object():
    doc = parse_scx(print_scx(ScxDocument("complex", standard_cube(3))))
    cx = doc.payload
    objects = {id(v) for s in cx.simplexes for v in s.vertices}
    assert objects == {id(v) for v in cx.vertices()} and len(objects) == 8
    # Across the parts of one document too: a verdict's two witness
    # complexes and its collapse sequence share their points.
    verdict = certify_main(standard_cube(2))
    wit = parse_scx(print_scx(ScxDocument("verdict", verdict))).payload.witnesses
    ids = {id(v) for v in wit.collapse_complex.vertices()}
    assert ids == {id(v) for v in wit.strongly_regular.vertices()}
    assert id(wit.collapse_sequence.terminal.vertices[0]) in ids


def test_weighted_roundtrip():
    base = AbsComplex(["a", "b", "c"], [(0, 1), (1, 2)])
    w = WeightedComplex(base, (1, 2, 3))
    again = roundtrip(ScxDocument("weighted", w)).payload
    assert list(again.base.vertices) == ["a", "b", "c"]
    assert again.weights == w.weights == (1, 2, 3)
    assert again.base.faces == base.faces == {(0,), (1,), (2,), (0, 1), (1, 2)}
    assert again.base == base


def test_sequence_roundtrip():
    cx = standard_cube(2)
    seq = find_collapse_sequence(cx)
    again = roundtrip(ScxDocument("sequence", seq)).payload
    assert again == seq


def test_malformed_free_facets_keep_their_errors():
    # A free facet spelled by distinct vertices of its step's maximal
    # simplex, one fewer, is read off that simplex; every other facet is
    # parsed as any simplex, with the same error text and location.
    body = json.loads(print_scx(ScxDocument(
        "sequence", find_collapse_sequence(standard_cube(2)))))
    t, f = body["steps"][0]
    assert t == [["0", "0"], ["0", "1"], ["1", "1"]] and f == t[:2]
    cases = [
        ([t[0], t[0]], "steps[0][1]", "a simplex lists a vertex twice"),
        ([t[0], ["1/2", "1/2"]], "steps[0]", "free_facet must be a facet of maximal"),
        (t, "steps[0]", "free_facet must be a facet of maximal"),
        ([t[0]], "steps[0]", "free_facet must be a facet of maximal"),
        ([t[0], ["0", "0", "0"]], "steps[0][1]", "points must have dimension 2"),
        ([t[0], ["01", "1"]], "steps[0][1][1][0]", "'01' is not canonical: write '1'"),
        ([t[0], "0"], "steps[0][1][1]", "a point must be a nonempty array of rationals"),
        ([], "steps[0][1]", "a simplex must be a nonempty array of points"),
    ]
    for facet, where, message in cases:
        body["steps"][0][1] = facet
        with pytest.raises(ScxError) as err:
            parse_scx(json.dumps(body))
        assert (err.value.where, str(err.value)) == (where, f"{where}: {message}"), facet
    # A vertex has no facet to read off.
    body["steps"][0] = [[t[0]], []]
    with pytest.raises(ScxError) as err:
        parse_scx(json.dumps(body))
    assert str(err.value) == "steps[0][1]: a simplex must be a nonempty array of points"
    body["steps"][0] = [t, f[::-1]]
    step = parse_scx(json.dumps(body)).payload.steps[0]
    assert step.free_facet == GeoSimplex(step.maximal.vertices[:2])
    assert all(v is w for v, w in zip(step.free_facet.vertices, step.maximal.vertices))
    # Step 2 removes the diagonal, an edge of step 0's triangle, so its
    # maximal simplex is read off that triangle; tampered, it is parsed as
    # any simplex, with the same error text and location.
    assert body["steps"][2] == [[t[0], t[2]], [t[0]]]
    corners = [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
    cases = [
        ([t[0], t[0]], "steps[2][0]", "a simplex lists a vertex twice"),
        (corners, "steps[2][0]", "vertices are not affinely independent"),
        ([t[0], ["0", "0", "0"]], "steps[2][0]", "points must have dimension 2"),
        ([t[0], ["01", "1"]], "steps[2][0][1][0]", "'01' is not canonical: write '1'"),
        ([t[2], ["1/2", "1/2"]], "steps[2]", "free_facet must be a facet of maximal"),
    ]
    for maximal, where, message in cases:
        body["steps"][2][0] = maximal
        with pytest.raises(ScxError) as err:
            parse_scx(json.dumps(body))
        assert (err.value.where, str(err.value)) == (
            where, f"{where}: {message}"), maximal
    body["steps"][2][0] = [t[2], t[0]]
    step = parse_scx(json.dumps(body)).payload.steps[2]
    assert step.maximal == GeoSimplex((rpoint(0, 0), rpoint(1, 1)))


def test_sequences_parse_as_when_every_simplex_is_checked():
    rng = random.Random(1405)
    cxs = [standard_cube(n) for n in (3, 4, 5)]
    cxs += [stellar(cxs[0], rpoint(*[Fraction(rng.randint(1, 5), 6) for _ in range(3)]))
            for _ in range(4)]
    seqs = [find_collapse_sequence(cx) for cx in cxs]
    # Steps out of order, dropped, swapped or foreign: what a sequence
    # file that does not replay can hold.
    for cx in _differential_complexes():
        seq = find_collapse_sequence(cx)
        seqs += list(_mutations(seq, rng)) if seq is not None else []
    for seq in seqs:
        text = _same_as_json(ScxDocument("sequence", seq))
        assert parse_scx(text).payload == validating_parse_sequence(text)


def _witness_documents(rng: random.Random) -> list[str]:
    """Sequence and certified verdict texts: every witness ``certify_main``
    gives for the corpus complexes, cube1-4, 20 seeded stellar cube3s and
    random simplexes."""
    from importlib import resources

    parts = [doc.payload for doc in (
        parse_scx(entry.read_text(encoding="utf-8"))
        for entry in sorted(resources.files("zrk.corpus").iterdir(), key=lambda e: e.name)
        if entry.name.endswith(".scx")) if doc.kind == "complex"]
    parts += [standard_cube(n) for n in (1, 2, 3, 4)]
    parts += [stellar(standard_cube(3), rpoint(*[Fraction(rng.randint(1, 8), 9)
                                                 for _ in range(3)]))
              for _ in range(20)]
    parts += [from_maximal([random_simplex(rng, rng.randint(1, 3), 6)]) for _ in range(12)]
    texts = []
    for part in parts:
        verdict = certify_main(part)
        if verdict.witnesses and verdict.witnesses.collapse_sequence is not None:
            texts.append(print_scx(ScxDocument("verdict", verdict)))
        texts.append(print_scx(ScxDocument("sequence", find_collapse_sequence(part))))
    return texts


def _mutated_sequence(body: dict, rng: random.Random) -> str:
    """The document with one fault in one step of its sequence: a dropped or
    doubled step, T and F swapped, an F that is not a facet, a repeated or
    unsorted vertex, a dependent T, a non-canonical coordinate, a point of
    the wrong dimension or an array inside a point."""
    body = json.loads(json.dumps(body))
    seq = body["witnesses"]["collapse_sequence"] if body["kind"] == "verdict" else body
    steps = seq["steps"]
    k = rng.randrange(len(steps))
    side = rng.randrange(2)
    simplex = steps[k][side]
    kind = rng.choice(("drop", "double", "swap", "foreign facet", "repeat", "unsort",
                       "dependent", "noncanonical", "dimension", "array"))
    if kind == "drop":
        del steps[k]
    elif kind == "double":
        steps.insert(k, json.loads(json.dumps(steps[k])))
    elif kind == "swap":
        steps[k].reverse()
    elif kind == "foreign facet":
        steps[k][1] = json.loads(json.dumps(rng.choice(steps)[1]))
    elif kind == "repeat":
        simplex.append(list(rng.choice(simplex)))
        rng.shuffle(simplex)
    elif kind == "unsort":
        simplex.reverse()
    elif kind == "dependent":
        t = steps[k][0]  # a maximal simplex has two vertices or more
        a, b = (rpoint(*p) for p in rng.sample(t, 2))
        t.append([format_rat((x + y) / 2) for x, y in zip(a.coords, b.coords)])
    else:
        point = rng.choice(simplex)
        i = rng.randrange(len(point))
        if kind == "noncanonical":
            num, _, den = point[i].partition("/")
            point[i] = f"{2 * int(num)}/{2 * int(den)}" if den else num + "/1"
        elif kind == "dimension":
            point.append("0")
        else:
            point[i] = [point[i]]
    return json.dumps(body)


def _sequence_outcome(text: str):
    """The collapse sequence a document parses to, or its error's location
    and text."""
    try:
        doc = parse_scx(text)
    except ScxError as exc:
        return exc.where, str(exc)
    return doc.payload if doc.kind == "sequence" else doc.payload.witnesses.collapse_sequence


def test_sequence_parser_matches_the_read_off_oracle(monkeypatch):
    # Resolving each step entry once and building a read-off pair unchecked
    # parses every witness, standalone and inside its verdict, to the
    # sequence that reading simplexes off and checking every pair gives;
    # each mutated document raises the same error at the same location, or
    # parses to the same sequence.
    rng = random.Random(39)
    texts = _witness_documents(rng)
    assert sum('"kind": "verdict"' in t for t in texts) >= 30, len(texts)
    for text in texts:
        got = _sequence_outcome(text)
        with monkeypatch.context() as m:
            m.setattr(scx, "_parse_sequence", read_off_parse_sequence)
            assert _sequence_outcome(text) == got
        assert isinstance(got, CollapseSequence), got
    bodies = [json.loads(t) for t in texts]
    bodies = [b for b in bodies
              if (b["witnesses"]["collapse_sequence"] if b["kind"] == "verdict" else b)["steps"]]
    raised = 0
    for _ in range(200):
        text = _mutated_sequence(rng.choice(bodies), rng)
        got = _sequence_outcome(text)
        with monkeypatch.context() as m:
            m.setattr(scx, "_parse_sequence", read_off_parse_sequence)
            assert _sequence_outcome(text) == got, text
        raised += isinstance(got, tuple)
    assert 100 <= raised < 200, raised


def test_sequence_parse_work_per_step_does_not_grow(monkeypatch):
    # Each step looks up a fixed number of facet keys, so the point hashes
    # per step do not grow with the sequence.  They grew when each step
    # was found by intersecting per-vertex sets of earlier step indices:
    # about 34 per step on cube5, against 2.7 for parsing the complex.
    per_step = []
    for n in (4, 5, 6):
        text = print_scx(ScxDocument("sequence", find_collapse_sequence(standard_cube(n))))
        hashed = []
        real = RPoint.__hash__
        monkeypatch.setattr(RPoint, "__hash__", lambda p: hashed.append(1) or real(p))
        seq = parse_scx(text).payload
        monkeypatch.undo()
        per_step.append(len(hashed) / len(seq.steps))
    assert len(seq.steps) == 9365
    assert per_step[2] <= per_step[1] <= per_step[0] <= 2, per_step


def test_sequence_steps_are_read_off_earlier_steps(monkeypatch):
    # Only the 24 maximal simplexes of cube4 and the terminal vertex are
    # built and checked; the 126 other simplexes were before.  Every one
    # of the 149 free facets is read off its maximal simplex, so no pair
    # is checked again.
    text = print_scx(ScxDocument("sequence", find_collapse_sequence(standard_cube(4))))
    calls, steps = [], []
    check, step_check = GeoSimplex.__post_init__, CollapseStep.__post_init__
    monkeypatch.setattr(GeoSimplex, "__post_init__",
                        lambda self: calls.append(1) or check(self))
    monkeypatch.setattr(CollapseStep, "__post_init__",
                        lambda self: steps.append(1) or step_check(self))
    assert len(parse_scx(text).payload.steps) == 149
    assert len(calls) <= 25
    assert not steps


def test_verdict_roundtrip(half_interval, antidiagonal):
    certified = certify_main(half_interval)
    again = roundtrip(ScxDocument("verdict", certified)).payload
    assert again.status == "certified"
    assert again.witnesses.collapse_sequence == certified.witnesses.collapse_sequence
    refuted = certify_main(antidiagonal)
    again = roundtrip(ScxDocument("verdict", refuted)).payload
    assert again.status == "refuted"
    assert again.refutation_reason == "(ii),(iii)"


def test_a_verdict_checks_its_repeated_complex_once(monkeypatch):
    # A certified cube verdict holds the same complex as both witnesses.
    # The second copy is the first, already checked, object; a second copy
    # whose text differs is parsed and checked on its own, with its own
    # error locations.
    text = print_scx(ScxDocument("verdict", certify_main(standard_cube(4))))
    cube_tests = []
    real = complexes._triangulates_cube
    monkeypatch.setattr(complexes, "_triangulates_cube",
                        lambda cx: cube_tests.append(cx) or real(cx))
    wit = parse_scx(text).payload.witnesses
    assert wit.strongly_regular is wit.collapse_complex
    assert len(cube_tests) == 1
    body = json.loads(text)
    simplexes = body["witnesses"]["strongly_regular"]["maximal_simplexes"]
    simplexes[5][2] = ["01" if c == "1" else c for c in simplexes[5][2]]
    assert "01" in simplexes[5][2]
    with pytest.raises(ScxError) as err:
        parse_scx(json.dumps(body))
    assert err.value.where.startswith("witnesses.strongly_regular.maximal_simplexes[5][2][")
    assert "'01' is not canonical: write '1'" in str(err.value)


def test_a_verdict_reads_maximal_steps_off_its_collapse_complex(monkeypatch):
    # Work bound: parsing the cube5 verdict eliminates once per maximal
    # simplex of the collapse complex and once for the terminal, 121
    # times; checking each maximal step's T again made it 241.  The
    # sequence is the one a standalone document parses to.
    verdict = certify_main(standard_cube(5))
    text = print_scx(ScxDocument("verdict", verdict))
    calls = []
    bareiss = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss",
                        lambda m, reduced=False: calls.append(1) or bareiss(m, reduced))
    wit = parse_scx(text).payload.witnesses
    assert len(calls) == 121
    monkeypatch.undo()
    seq = verdict.witnesses.collapse_sequence
    assert wit.collapse_sequence == seq
    assert parse_scx(print_scx(ScxDocument("sequence", seq))).payload == seq
    # A terminal of another dimension seeds nothing: the first T fails the
    # dimension check where a standalone sequence fails it.
    body = json.loads(text)
    body["witnesses"]["collapse_sequence"]["terminal"].append("0")
    with pytest.raises(ScxError) as err:
        parse_scx(json.dumps(body))
    assert err.value.where == "witnesses.collapse_sequence.steps[0][0]"
    assert "points must have dimension 6" in str(err.value)


def _verdict_outcome(text: str, replay=replay):
    """A verdict's collapse sequence and whether it replays on the collapse
    complex, or the error's location and text."""
    try:
        wit = parse_scx(text).payload.witnesses
    except ScxError as exc:
        return exc.where, str(exc)
    return wit.collapse_sequence, replay(wit.collapse_complex, wit.collapse_sequence)


def test_a_parsed_verdict_shares_its_collapse_complex_table(monkeypatch):
    # A certified verdict's steps and terminal name exactly its collapse
    # complex's vertices, so its sequence is parsed onto that complex's
    # table, and replay reads the pairs as they are.  Tampered so that the
    # terminal or a step names a point outside the complex, a verdict parses
    # to a sequence with a table of its own that does not replay, or fails
    # with the error the step-object parser gives.
    from importlib import resources

    certified, kept = 0, collections.Counter()
    for entry in sorted(resources.files("zrk.corpus").iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".verdict.scx"):
            continue
        text = entry.read_text(encoding="utf-8")
        wit = parse_scx(text).payload.witnesses
        if wit is None or wit.collapse_sequence is None:
            continue
        certified += 1
        seq, ccx = wit.collapse_sequence, wit.collapse_complex
        assert seq.vertices is ccx.vertices(), entry.name
        assert replay(ccx, seq)
        outside = [f"{2 * k + 5}/{k + 2}" for k in range(ccx.ambient_dim)]
        tampered = []
        for where in ("terminal", "maximal", "free_facet"):
            tamper = json.loads(text)
            wseq = tamper["witnesses"]["collapse_sequence"]
            if where == "terminal":
                wseq["terminal"] = outside
            elif not wseq["steps"]:
                continue
            else:
                t, f = wseq["steps"][-1]
                (f if where == "free_facet" else t)[-1] = outside
            tampered.append(json.dumps(tamper, indent=2, sort_keys=True) + "\n")
        for tamper in tampered:
            got = _verdict_outcome(tamper)
            with monkeypatch.context() as m:
                m.setattr(scx, "_parse_sequence", read_off_parse_sequence)
                assert _verdict_outcome(tamper, point_lookup_replay) == got, tamper
            if isinstance(got[0], CollapseSequence):
                assert got[0].vertices != ccx.vertices() and got[1] is False
            kept[type(got[0]).__name__] += 1
    assert certified >= 7, certified
    assert kept["CollapseSequence"] >= 10 and kept["str"] >= 5, kept


def test_rejects_unreduced_fraction():
    text = """{"version": "1", "kind": "complex", "dim": 1,
               "maximal_simplexes": [[["0"], ["2/4"]]]}"""
    with pytest.raises(ScxError, match="not in lowest terms"):
        parse_scx(text)


def test_coordinates_are_parsed_once_per_document(monkeypatch):
    # Each distinct coordinate text is parsed once per document.  A text is
    # kept only once it has passed the canonical check, so a non-canonical
    # text is reported where it first appears, even after canonical texts
    # of the same rational and when it appears again later.
    cube = standard_cube(3)
    text = print_scx(ScxDocument("complex", cube))
    calls = collections.Counter()
    real = scx._rat_pair
    monkeypatch.setattr(scx, "_rat_pair", lambda t: calls.update([t]) or real(t))
    for _ in range(2):  # the memo lives for one document
        calls.clear()
        assert parse_scx(text).payload == cube
        assert calls == {"0": 1, "1": 1}, calls
    monkeypatch.undo()
    head = '{"version": "1", "kind": "complex", "dim": 2, "maximal_simplexes": '
    cases = [
        ('[[["0", "1/2"], ["1", "0"], ["1/2", "01/2"]], [["01/2", "1"], ["1", "1"], '
         '["0", "1"]]]', "maximal_simplexes[0][2][1]: '01/2' is not canonical: write '1/2'"),
        ('[[["0", "1/2"], ["1", "0"], ["1", "1"]], [["1/2", "2/4"], ["0", "2/4"], '
         '["1", "0"]]]', "maximal_simplexes[1][0][1]: '2/4': not in lowest terms"),
        ('[[["0", "1"], ["1", "0"], ["1", "1"]], [["0", 1], ["1", 1], ["0", "0"]]]',
         "maximal_simplexes[1][0][1]: rationals are strings like '2/3'"),
    ]
    for body, message in cases:
        with pytest.raises(ScxError) as err:
            parse_scx(head + body + "}")
        assert str(err.value) == message


def test_parsing_builds_no_fraction(monkeypatch):
    # A coordinate text is read into a (numerator, denominator) pair of ints
    # and a point is built from its vector, so parsing builds no Fraction:
    # not for any corpus document, verdicts included, nor for seeded
    # stellar cube3s and their collapse sequences.  Each distinct
    # coordinate text of a document made one when points were built from
    # Fraction coordinates.
    from importlib import resources

    rng = random.Random(45)
    texts = [entry.read_text(encoding="utf-8")
             for entry in sorted(resources.files("zrk.corpus").iterdir(), key=lambda e: e.name)
             if entry.name.endswith(".scx")]
    for _ in range(6):
        cx = stellar(standard_cube(3), rpoint(*[Fraction(rng.randint(1, 8), 9) for _ in range(3)]))
        texts += [print_scx(ScxDocument("complex", cx)),
                  print_scx(ScxDocument("sequence", find_collapse_sequence(cx)))]
    made = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: made.append(args) or real(cls, *args, **kw))
    assert Fraction(1, 2) and made == [(1, 2)]
    made.clear()
    docs = [parse_scx(text) for text in texts]
    assert not made, made[:5]
    monkeypatch.undo()
    assert {doc.kind for doc in docs} == {"complex", "plmap", "sequence", "verdict"}
    assert [print_scx(doc) for doc in docs] == texts


def test_rejects_overlapping_simplexes():
    text = """{"version": "1", "kind": "complex", "dim": 1,
               "maximal_simplexes": [[["0"], ["1"]], [["1/2"], ["3/2"]]]}"""
    with pytest.raises(ScxError, match="not a simplicial complex"):
        parse_scx(text)


def test_json_error_position():
    with pytest.raises(ScxError, match="line 2"):
        parse_scx('{"version": "1",\n  "kind": }')


def test_unknown_kind_and_version():
    with pytest.raises(ScxError, match="version"):
        parse_scx('{"version": "9", "kind": "complex"}')
    with pytest.raises(ScxError, match="kind"):
        parse_scx('{"version": "1", "kind": "mystery"}')


def test_error_location_in_message():
    text = """{"version": "1", "kind": "complex", "dim": 2,
               "maximal_simplexes": [[["0", "0"], ["1", "0"], ["1/2", "xx"]]]}"""
    with pytest.raises(ScxError, match=r"maximal_simplexes\[0\]"):
        parse_scx(text)


def test_corpus_files_are_canonical():
    from importlib import resources

    count = 0
    for entry in resources.files("zrk.corpus").iterdir():
        if not entry.name.endswith(".scx"):
            continue
        text = entry.read_text(encoding="utf-8")
        doc = parse_scx(text)
        assert print_scx(doc) == text, f"{entry.name} not canonical"
        count += 1
    assert count >= 10


def test_plmap_codomain_consistency_checked():
    text = """{"version": "1", "kind": "plmap", "dim": 1, "codomain_dim": 2,
               "maximal_simplexes": [[["0"], ["1"]]],
               "vertex_images": [[["0"], ["0"]], [["1"], ["0"]]]}"""
    with pytest.raises(ScxError, match="codomain_dim"):
        parse_scx(text)


# -- fuzzing ---------------------------------------------------------------
#
# Every malformed document must raise ScxError with a location, never another
# exception.  Fixed example counts, derandomized and without a database, so
# the suite stays deterministic.

FUZZ = settings(max_examples=40, database=None, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def _valid_documents() -> list[str]:
    half = from_maximal([seg(0, "1/2")])
    tent_domain = from_maximal([seg(0, "1/2"), seg("1/2", 1)])
    tent = PLMap(tent_domain, {rpoint(0): rpoint(0), rpoint("1/2"): rpoint("1/2"),
                               rpoint(1): rpoint(0)})
    base = AbsComplex(["a", "b", "c"], [(0, 1), (1, 2)])
    docs = [ScxDocument("complex", standard_cube(2)),
            ScxDocument("plmap", tent),
            ScxDocument("weighted", WeightedComplex(base, (1, 2, 3))),
            ScxDocument("sequence", find_collapse_sequence(standard_cube(2))),
            ScxDocument("verdict", certify_main(half))]
    return [print_scx(doc) for doc in docs]


VALID = _valid_documents()


def _rejects(text: str) -> None:
    with pytest.raises(ScxError) as err:
        parse_scx(text)
    assert err.value.where, str(err.value)


@FUZZ
@given(st.text(max_size=60))
@example("[" * 100_000)
@example('{"version": "1", "kind": "complex", "dim": ' + "9" * 5000 + "}")
def test_fuzz_malformed_json(text):
    _rejects(text)


@FUZZ
@given(st.sampled_from(VALID), st.data())
def test_fuzz_truncated_documents(text, data):
    _rejects(text[:data.draw(st.integers(0, text.rindex("}") - 1))])


@FUZZ
@given(st.integers(4301, 6000), st.sampled_from(["dim", "coordinate", "weight"]))
def test_fuzz_huge_integers(digits, place):
    huge = "9" * digits
    if place == "dim":
        text = VALID[0].replace('"dim": 2', '"dim": ' + huge)
    elif place == "coordinate":
        text = VALID[0].replace('"1"', '"' + huge + '"', 1)
    else:
        text = VALID[2].replace('"weights": [\n    1', '"weights": [\n    ' + huge)
    assert text not in VALID
    _rejects(text)


@FUZZ
@given(st.sampled_from(["point", "dim", "image", "codomain"]), st.data())
def test_fuzz_mismatched_dimensions(case, data):
    # complex, plmap and sequence documents carry points.
    text = data.draw(st.sampled_from([VALID[0], VALID[1], VALID[3]] if case == "point"
                                     else VALID[:2] if case == "dim" else VALID[1:2]))
    body = json.loads(text)
    if case == "point":
        # One point gains a coordinate: in a simplex, an image, a step or
        # the terminal vertex.
        p = data.draw(st.sampled_from(list(_points(body))))
        p.append(format_rat(data.draw(st.fractions(0, 1, max_denominator=5))))
    elif case == "dim":
        body["dim"] = data.draw(st.integers(-3, 0) | st.integers(3, 10**30))
    elif case == "image":
        pairs = body["vertex_images"]
        data.draw(st.sampled_from(pairs))[1].append("0")
    else:
        body["codomain_dim"] = data.draw(st.integers(2, 5))
    _rejects(json.dumps(body))


def _points(node):
    """Every innermost list of strings in a parsed document."""
    if isinstance(node, dict):
        for v in node.values():
            yield from _points(v)
    elif isinstance(node, list):
        if node and all(isinstance(x, str) for x in node):
            yield node
        else:
            for v in node:
                yield from _points(v)


@FUZZ
@given(st.data())
def test_fuzz_repeated_vertices(data):
    text = data.draw(st.sampled_from(VALID[:4]))
    body = json.loads(text)
    kind = body["kind"]
    if kind == "complex":
        s = data.draw(st.sampled_from(body["maximal_simplexes"]))
        s.insert(data.draw(st.integers(0, len(s))), list(data.draw(st.sampled_from(s))))
    elif kind == "plmap":
        pairs = body["vertex_images"]
        pairs.append(json.loads(json.dumps(data.draw(st.sampled_from(pairs)))))
    elif kind == "weighted":
        if data.draw(st.booleans()):
            body["vertices"].append(data.draw(st.sampled_from(body["vertices"])))
            body["weights"].append(1)
        else:
            f = data.draw(st.sampled_from(body["faces"]))
            f.append(data.draw(st.sampled_from(f)))
    else:
        step = data.draw(st.sampled_from(body["steps"]))
        s = step[data.draw(st.integers(0, 1))]
        s.append(list(data.draw(st.sampled_from(s))))
    _rejects(json.dumps(body))


def _noncanonical(x: Fraction, how: str) -> str:
    t = format_rat(x)
    sign, digits = ("-", t[1:]) if t.startswith("-") else ("", t)
    return {"plus": "+" + t,
            "space": " " + t,
            "trailing": t + " ",
            "zero": sign + "0" + digits,
            "unit": f"{2 * x.numerator}/{2 * x.denominator}" if x.denominator > 1
                    else f"{t}/1",
            "underscore": f"{sign}1_{digits}",
            "negzero": "-0"}[how]


@FUZZ
@given(st.fractions(-3, 3, max_denominator=7),
       st.sampled_from(["plus", "space", "trailing", "zero", "unit",
                        "underscore", "negzero"]),
       st.sampled_from(VALID[:2] + VALID[3:]), st.data())
def test_fuzz_noncanonical_rationals(x, how, text, data):
    body = json.loads(text)
    p = data.draw(st.sampled_from(list(_points(body))))
    p[data.draw(st.integers(0, len(p) - 1))] = _noncanonical(x, how)
    _rejects(json.dumps(body))


@st.composite
def improper_complexes(draw):
    """A full-dimensional simplex T and a segment through its barycentre c,
    from c outward or from a vertex of T: the pair never meets in a common
    face."""
    d = draw(st.integers(1, 3))
    origin = [draw(st.integers(-3, 3)) for _ in range(d)]
    # Lower-triangular edge vectors with a positive diagonal keep T full
    # dimensional.
    edges = [[draw(st.integers(-2, 2)) if j < i else draw(st.integers(1, 3)) if j == i
              else 0 for j in range(d)] for i in range(d)]
    verts = [origin] + [[o + e for o, e in zip(origin, edge)] for edge in edges]
    c = [Fraction(sum(col), d + 1) for col in zip(*verts)]
    if draw(st.booleans()):
        start = [Fraction(x) for x in draw(st.sampled_from(verts))]
    else:
        offset = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)
                      .filter(any))
        start = [a + b for a, b in zip(c, offset)]
    sims = [[[format_rat(x) for x in v] for v in verts],
            [[format_rat(x) for x in start], [format_rat(x) for x in c]]]
    return json.dumps({"version": "1", "kind": "complex", "dim": d,
                       "maximal_simplexes": draw(st.permutations(sims))})


@FUZZ
@given(improper_complexes())
def test_fuzz_improper_complexes(text):
    with pytest.raises(ScxError, match="not a simplicial complex") as err:
        parse_scx(text)
    assert err.value.where == "maximal_simplexes"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**20) | st.text(max_size=5)
    | st.sampled_from(["0", "1", "1/2", "-1", "2/4", "complex"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _slots(node, out):
    """(container, key) for every value in a parsed document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


@FUZZ
@given(st.sampled_from(VALID), st.data())
def test_fuzz_mutated_documents(text, data):
    # One value replaced or deleted anywhere: the result may still be a
    # valid document, but a failure is always a located ScxError.
    body = json.loads(text)
    container, key = data.draw(st.sampled_from(_slots(body, [])))
    if data.draw(st.booleans()):
        container[key] = data.draw(JSON_VALUES)
    else:
        del container[key]
    try:
        parse_scx(json.dumps(body))
    except ScxError as exc:
        assert exc.where, str(exc)


def test_nested_witnesses_must_be_objects():
    body = json.loads(VALID[4])
    for key in ("collapse_complex", "collapse_sequence"):
        broken = json.loads(VALID[4])
        broken["witnesses"][key] = [1]
        with pytest.raises(ScxError) as err:
            parse_scx(json.dumps(broken))
        assert err.value.where == f"witnesses.{key}"
    body["witnesses"] = "none"
    with pytest.raises(ScxError, match="JSON object"):
        parse_scx(json.dumps(body))


_SEGMENT = {"version": "1", "dim": 1, "maximal_simplexes": [[["0"], ["1"]]]}
_SEQUENCE = {"version": "1", "kind": "sequence", "terminal": ["1"],
             "steps": [[[["0"], ["1"]], [["0"]]]]}
_WEIGHTED = {"version": "1", "kind": "weighted", "vertices": ["a", "b"],
             "faces": [[0, 1]], "weights": [1, 2]}


@pytest.mark.parametrize("body, where, message", [
    ([], "document", "the document must be a JSON object"),
    (dict(_SEGMENT, kind="plmap", vertex_images={}), "vertex_images",
     "'vertex_images' must be an array of pairs"),
    (dict(_SEGMENT, kind="plmap", vertex_images=[], codomain_dim=0), "codomain_dim",
     "'codomain_dim' must be a positive integer"),
    (dict(_WEIGHTED, weights=[1]), "weights",
     "'weights' must be positive integers, one per vertex"),
    (dict(_WEIGHTED, weights=[1, 0]), "weights",
     "'weights' must be positive integers, one per vertex"),
    (dict(_SEQUENCE, steps={}), "steps", "'steps' must be an array"),
    (dict(_SEQUENCE, steps=[1]), "steps[0]",
     "each step is [maximal, free_facet]"),
    (dict(_SEQUENCE, steps=[[[["0"], ["1"]]]]), "steps[0]",
     "each step is [maximal, free_facet]"),
    (dict(_SEQUENCE, steps=[[1, [["0"]]]]), "steps[0][0]",
     "a simplex must be a nonempty array of points"),
    ({"version": "1", "kind": "verdict", "status": "maybe"}, "status",
     "'status' must be certified/refuted/unknown"),
    ({"version": "1", "kind": "verdict", "status": "refuted", "refutation_reason": 3},
     "refutation_reason", "'refutation_reason' must be a string"),
    ({"version": "1", "kind": "verdict", "status": "certified",
      "witnesses": {"collapse_sequence": dict(_SEQUENCE, steps=None)}},
     "witnesses.collapse_sequence.steps", "'steps' must be an array"),
])
def test_each_parse_error_has_its_text_and_location(body, where, message):
    # Each of these raise sites ran in no test: a document that is not an
    # object, a map's images and declared dimension, a weighted complex's
    # weights, a sequence's steps and their shape, and a verdict's status
    # and reason; nor did a step whose maximal simplex is no array.  Each
    # names its place in the document.
    with pytest.raises(ScxError) as err:
        parse_scx(json.dumps(body))
    assert err.value.where == where
    assert str(err.value) == f"{where}: {message}"


def test_a_verdict_may_leave_out_the_strongly_regular_witness():
    body = {"version": "1", "kind": "verdict", "status": "refuted",
            "witnesses": {"lattice_vertex": ["1/2"]}}
    wit = parse_scx(json.dumps(body)).payload.witnesses
    assert wit.strongly_regular is None and wit.lattice_vertex == rpoint("1/2")


def test_the_printer_refuses_an_unknown_kind():
    with pytest.raises(ScxError) as err:
        print_scx(ScxDocument("collapse", standard_cube(1)))
    assert err.value.where == "" and str(err.value) == "unknown kind 'collapse'"


# -- the emitter against json.dumps ---------------------------------------------


def _same_as_json(doc: ScxDocument) -> str:
    text = print_scx(doc)
    assert text == json_print_scx(doc)
    return text


def test_printer_matches_json_on_corpus():
    from importlib import resources

    verdicts = 0
    for entry in resources.files("zrk.corpus").iterdir():
        if entry.name.endswith(".scx"):
            text = entry.read_text(encoding="utf-8")
            assert _same_as_json(parse_scx(text)) == text, entry.name
            verdicts += entry.name.endswith(".verdict.scx")
    assert verdicts >= 9


def test_printing_a_complex_hashes_each_vertex_at_most_twice(monkeypatch):
    # A complex is printed off its vertex table: each vertex is formatted
    # once and every simplex is read off its rank tuple, so a vertex is
    # hashed at most twice (a memo miss and its store) however many
    # simplexes share it.  The cube4 origin lies in all 24 simplexes.
    rng = random.Random(2317)
    cube = standard_cube(4)
    complexes = [cube, stellar(cube, rpoint("1/3", "1/4", "1/2", "1/5")),
                 stellar(standard_cube(3), rng.choice(
                     standard_cube(3).maximal_simplexes()).barycenter()),
                 from_maximal([tri((0, 0), (1, 0), (0, 1)), seg((1, 0), (2, 1)),
                               GeoSimplex((rpoint(3, 3),))])]
    for cx in complexes:
        doc = ScxDocument("complex", cx)
        expected = json_print_scx(doc)
        hashed = collections.Counter()
        real = RPoint.__hash__
        monkeypatch.setattr(RPoint, "__hash__", lambda p: hashed.update([id(p)]) or real(p))
        text = print_scx(doc)
        monkeypatch.undo()
        assert text == expected
        assert set(hashed) <= {id(v) for v in cx.vertices()}
        assert max(hashed.values(), default=0) <= 2
    assert max(sum(v in s.vertices for s in cube.maximal_simplexes())
               for v in cube.vertices()) == 24
    # A sequence's steps are printed off the ids of their vertex objects:
    # a vertex is hashed at most twice over all the steps holding it, and
    # the terminal, formatted before the steps, once more when they meet it.
    for cx in complexes[:3]:
        seq = find_collapse_sequence(cx)
        doc = ScxDocument("sequence", seq)
        expected = json_print_scx(doc)
        hashed = collections.Counter()
        monkeypatch.setattr(RPoint, "__hash__", lambda p: hashed.update([id(p)]) or real(p))
        text = print_scx(doc)
        monkeypatch.undo()
        assert text == expected
        assert set(hashed) <= {id(v) for v in cx.vertices()}
        terminal = id(seq.terminal.vertices[0])
        assert hashed[terminal] <= 3
        assert max((c for v, c in hashed.items() if v != terminal), default=0) <= 2


def test_printing_holds_no_pieces_after_it_returns():
    # The emitter's closures form a cycle; with the collector off, what
    # they hold stays allocated.  The pieces of the text must not.
    doc = ScxDocument("sequence", find_collapse_sequence(standard_cube(5)))
    print_scx(doc)  # builds the points' cached hashes and vertex rows
    gc.disable()
    tracemalloc.start()
    try:
        text = print_scx(doc)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(text) > 800_000 and held < 1.2 * len(text), (held, len(text))


def test_printer_matches_json_on_verdicts(antidiagonal):
    rng = random.Random(1515)
    parts = [standard_cube(n) for n in (1, 2, 3, 4)]
    for n in (3, 3, 4, 4):
        cube = standard_cube(n)
        s = rng.choice(cube.maximal_simplexes())
        face = rng.sample(s.vertices, rng.randint(2, len(s.vertices)))
        parts.append(stellar(cube, GeoSimplex(tuple(face)).barycenter()))
    verdicts = [certify_main(part) for part in parts + [antidiagonal]]
    assert [v.status for v in verdicts] == ["certified"] * 8 + ["refuted"]
    for verdict in verdicts:
        _same_as_json(ScxDocument("verdict", verdict))


def test_printer_matches_json_on_every_kind(tent, half_interval):
    from importlib import resources

    corpus = resources.files("zrk.corpus")
    square = parse_scx((corpus / "square_to_half_diagonal.scx").read_text()).payload
    diagonal = parse_scx((corpus / "half_diagonal.scx").read_text()).payload
    docs = [ScxDocument("verdict", certify_main(half_interval))]
    for eta, part in ((tent, half_interval), (square, diagonal)):
        result = pipeline_dh(eta, part)
        reduced = part2_reduce(result.map, result.triangulation, part)
        docs += [ScxDocument("plmap", result.map),
                 ScxDocument("complex", result.triangulation),
                 ScxDocument("sequence", result.collapse_sequence),
                 ScxDocument("weighted", reduced.weighted),
                 ScxDocument("complex", reduced.realization),
                 ScxDocument("plmap", reduced.section),
                 ScxDocument("plmap", reduced.retraction)]
    # A single vertex: a complex of one point, its empty collapse sequence
    # and its verdict.  Then a plmap onto a line, and a sequence whose
    # steps hold equal points as distinct objects.
    point = from_maximal([GeoSimplex((rpoint("1/2", 0),))])
    single = certify_main(from_maximal([GeoSimplex((rpoint(0, 1),))]))
    assert single.status == "certified"
    cube = standard_cube(2)
    seq = find_collapse_sequence(cube)
    copies = type(seq)(tuple(
        type(st)(GeoSimplex(tuple(RPoint(v.coords) for v in st.maximal.vertices)),
                 GeoSimplex(tuple(RPoint(v.coords) for v in st.free_facet.vertices)))
        for st in seq.steps), seq.terminal)
    fold = PLMap(cube, {v: RPoint((v.coords[0],)) for v in cube.vertices()})
    docs += [ScxDocument("complex", point), ScxDocument("verdict", single),
             ScxDocument("sequence", find_collapse_sequence(point)),
             ScxDocument("plmap", fold), ScxDocument("sequence", copies)]
    assert '"steps": []' in print_scx(docs[-3])
    assert sorted({doc.kind for doc in docs}) == sorted(KINDS)
    for doc in docs:
        _same_as_json(doc)
        roundtrip(doc)


def test_printer_escapes_strings_like_json():
    names = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "café",
             "π/2 ≤ θ", "😀", "\u2028", "a/b"]
    base = AbsComplex(names, [range(3), range(2, len(names))])
    weighted = WeightedComplex(base, range(1, len(names) + 1))
    doc = ScxDocument("weighted", weighted)
    assert _same_as_json(doc).isascii()
    assert list(roundtrip(doc).payload.base.vertices) == names
    reason = "(ii): no lattice vertex — |P| ∩ ℤ³ = ∅"
    doc = ScxDocument("verdict", RetractVerdict("refuted", refutation_reason=reason))
    assert _same_as_json(doc).isascii()
    assert roundtrip(doc).payload.refutation_reason == reason


def _far(cx: GeoComplex, rng: random.Random) -> GeoComplex:
    """cx under an integer affine map x -> a x + b with a large and of
    either sign, and b large and negative: big and negative coordinates."""
    a = rng.choice((-1, 1)) * rng.randint(10**12, 10**30)
    b = [Fraction(-rng.randint(10**18, 10**40), rng.randint(1, 7))
         for _ in range(cx.ambient_dim)]
    far = {v: RPoint(tuple(a * c + t for c, t in zip(v.coords, b))) for v in cx.vertices()}
    return GeoComplex([GeoSimplex(tuple(far[v] for v in s.vertices))
                       for s in cx.maximal_simplexes()], validate=False)


def _three_printers(doc: ScxDocument) -> str:
    text = print_scx(doc)
    assert text == walk_print_scx(doc) == json_print_scx(doc), doc.kind
    return text


def test_printers_agree_on_every_kind():
    # print_scx against the body-dict walker and json.dumps on seeded
    # complexes, their collapse sequences, PL maps into other dimensions,
    # weighted complexes, and verdicts with every subset of witnesses.
    rng = random.Random(4242)
    cube3 = standard_cube(3)
    vertex = from_maximal([GeoSimplex((rpoint("-7/3", 10**25),))])
    parts = [vertex, standard_cube(2), cube3]
    for _ in range(3):
        parts.append(stellar(cube3, rng.choice(cube3.maximal_simplexes()).barycenter()))
    parts += [_far(cx, rng) for cx in parts[1:]]
    texts = []
    for cx in parts:
        seq = find_collapse_sequence(cx)
        assert seq is not None
        texts.append(_three_printers(ScxDocument("complex", cx)))
        texts.append(_three_printers(ScxDocument("sequence", seq)))
        for dim in (1, cx.ambient_dim + 1):
            images = {v: RPoint(tuple(rng.randint(-10**20, 10**20) * c + rng.randint(-5, 5)
                                      for c in v.coords[:1] * dim))
                      for v in cx.vertices()}
            texts.append(_three_printers(ScxDocument("plmap", PLMap(cx, images))))
    assert '"steps": []' in print_scx(ScxDocument("sequence", find_collapse_sequence(vertex)))
    cx = parts[4]
    witnesses = {"collapse_complex": cx, "collapse_sequence": find_collapse_sequence(cx),
                 "lattice_vertex": rpoint(-(10**30), "1/3", 0),
                 "strongly_regular": parts[-1]}
    reasons = [None, "", "(ii),(iii)", "(ii): no lattice vertex, |P| ∩ ℤ³ = ∅ — 😀"]
    for k in range(len(witnesses) + 1):
        for chosen in itertools.combinations(witnesses, k):
            wit = RetractWitnesses(**{key: witnesses[key] for key in chosen})
            for status, reason in zip(("certified", "refuted", "unknown"),
                                      rng.sample(reasons, 3)):
                texts.append(_three_printers(
                    ScxDocument("verdict", RetractVerdict(status, wit, reason))))
    assert any('"witnesses": {}' in t for t in texts)
    names = ['say "hi"', "back\\slash", "\x00\x1f\x7f", "ℤ³", 7, rpoint("1/2", -3)]
    base = AbsComplex(names, [range(4), range(3, len(names))])
    weighted = WeightedComplex(base, [10**k for k in range(len(names))])
    texts.append(_three_printers(ScxDocument("weighted", weighted)))
    assert {json.loads(t)["kind"] for t in texts} == set(KINDS)
    assert len(texts) == 93


@settings(max_examples=100, database=None, deadline=None, derandomize=True)
@given(st.text(), st.lists(st.text(), min_size=1, max_size=5, unique=True),
       st.integers(min_value=1, max_value=10**40))
@example("", [""], 1)
@example("(i), (ii)", ['"', "\\", "\u2028", "é,\n"], 10**40)
def test_printers_agree_on_any_text(reason, names, weight):
    verdict = RetractVerdict("refuted", refutation_reason=reason)
    assert _three_printers(ScxDocument("verdict", verdict)).isascii()
    indices = range(len(names))
    base = AbsComplex(names, [indices[:2], indices[1:]])
    weighted = WeightedComplex(base, [weight + k for k in range(len(names))])
    assert _three_printers(ScxDocument("weighted", weighted)).isascii()


_EMITTER_TEXT = st.text(max_size=6) | st.text(
    alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€\u2028\ud7ff😀 a1', max_size=6)
_EMITTER_POINTS = st.lists(st.fractions(), min_size=1, max_size=3).map(
    lambda cs: RPoint(tuple(cs)))
_EMITTER_VALUES = st.recursive(
    st.integers() | _EMITTER_TEXT | _EMITTER_POINTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_EMITTER_TEXT, inner, max_size=4),
    max_leaves=20)
_SHARED = rpoint("-1/2", 0)


def _helper_pieces(x, depth: int, memo: dict) -> list[str]:
    """x printed by scx's helpers: objects by ``_object``, arrays by
    ``_array`` and points by ``_blocks``; scalars as the printer writes them."""
    if type(x) is dict:
        return scx._object([(encode_basestring_ascii(k)[1:-1],
                             _helper_pieces(x[k], depth + 1, memo)) for k in sorted(x)], depth)
    if type(x) is list:
        return scx._array(["".join(_helper_pieces(v, depth + 1, memo)) for v in x], depth)
    if type(x) is RPoint:
        return scx._blocks((x,), depth, memo)
    return [encode_basestring_ascii(x) if type(x) is str else str(x)]


def _as_json(x):
    if type(x) is dict:
        return {k: _as_json(v) for k, v in x.items()}
    if type(x) is list:
        return list(map(_as_json, x))
    return list(map(format_rat, x.coords)) if type(x) is RPoint else x


@settings(max_examples=300, database=None, deadline=None, derandomize=True)
@given(_EMITTER_VALUES)
@example({})
@example([])
@example({"a": [[], {}, _SHARED], "b": [_SHARED, [_SHARED, rpoint("-1/2", 0)]]})
def test_emitter_matches_json_dumps(body):
    # The helpers print_scx builds every document from, on any JSON value
    # with points in it.  A point's block is reused wherever its object
    # appears at one depth, and its texts wherever an equal point appears.
    text = "".join(_helper_pieces(body, 0, {}))
    assert text == json.dumps(_as_json(body), sort_keys=True, indent=2)
