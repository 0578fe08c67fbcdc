"""The .scx exchange format: UTF-8 JSON with exact 'p/q' rationals.

Five document kinds: complex, plmap, weighted, sequence, verdict.  Parsing
validates both syntax (rationals must be written canonically, 'p' or 'p/q'
in lowest terms; no vertex is listed twice) and semantics (complexes must
satisfy the simplicial-complex condition); printing is canonical, so
parse . print is the identity on canonical text.  Every failure is a
``ScxError`` whose ``where`` locates it in the document.  A collapse step's
simplexes are read off earlier simplexes of the sequence when they are
faces of them, with no sort and no rank check: its free facet off its
maximal simplex, and its maximal simplex, unless it is maximal in the
complex, off an earlier step's.  Every other entry is built and checked.

The canonical text is what ``json.dumps`` prints with sorted keys and an
indent of 2, plus a newline.  An indent makes ``json`` run its pure-Python
encoder, so ``_emit`` writes the same bytes itself: sorted keys, a
two-space indent, ``","`` between items and ``": "`` after keys, ``[]``
and ``{}`` when empty, ``int.__repr__`` for integers and ``json``'s C
``encode_basestring_ascii`` for strings.  In a body, a point is a tuple of
coordinate texts.  A per-document memo (``_point_out``) formats each
distinct point once and hands every occurrence the same tuple, and the
emitter renders a point's bracketed block once per indent level at which
it appears, so a vertex repeated in many simplexes or collapse steps is
one dict lookup each time.  A complex is printed off its vertex table: each
vertex of ``GeoComplex.vertices()`` is looked up in the memo once, and a
maximal simplex is the texts at its rank tuple (``GeoComplex._ranks``), so
no vertex occurrence is hashed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from .collapse import CollapseSequence, CollapseStep
from .complexes import (AbsComplex, GeoComplex, GeoSimplex, RPoint,
                        WeightedComplex)
from .exactnum import format_rat, parse_rat
from .zmaps import PLMap, RetractVerdict, RetractWitnesses

FORMAT_VERSION = "1"
KINDS = ("complex", "plmap", "weighted", "sequence", "verdict")


class ScxError(ValueError):
    """Parse or validation error with a document location."""

    def __init__(self, message: str, where: str = ""):
        super().__init__(f"{where}: {message}" if where else message)
        self.where = where


@dataclass
class ScxDocument:
    kind: str
    payload: Any
    version: str = FORMAT_VERSION


# -- encoding ----------------------------------------------------------------


def _point_out(p: RPoint, memo: dict) -> tuple[str, ...]:
    """The coordinate texts of p, formatted once per document: ``memo``
    maps each point printed so far to its tuple."""
    text = memo.get(p)
    if text is None:
        text = memo[p] = tuple(map(format_rat, p.coords))
    return text


def _simplex_out(s: GeoSimplex, memo: dict) -> list[tuple[str, ...]]:
    return [_point_out(v, memo) for v in s.vertices]


def _complex_body(cx: GeoComplex, memo: dict) -> dict:
    texts = [_point_out(v, memo) for v in cx.vertices()]
    return {
        "dim": cx.ambient_dim,
        "maximal_simplexes": [[texts[k] for k in r] for r in cx._ranks],
    }


def _payload_body(kind: str, payload, memo: dict) -> dict:
    if kind == "complex":
        return _complex_body(payload, memo)
    if kind == "plmap":
        body = _complex_body(payload.domain, memo)
        body["codomain_dim"] = payload.codomain_dim
        body["vertex_images"] = [
            [_point_out(v, memo), _point_out(payload.images[v], memo)]
            for v in payload.domain.vertices()]
        return body
    if kind == "weighted":
        w: WeightedComplex = payload
        order = list(w.base.vertices)
        index = {v: i for i, v in enumerate(order)}
        return {
            "vertices": [str(v) for v in order],
            "faces": sorted(sorted(index[v] for v in f) for f in w.base.faces),
            "weights": [w.weights[v] for v in order],
        }
    if kind == "sequence":
        seq: CollapseSequence = payload
        return {
            "steps": [[_simplex_out(st.maximal, memo),
                       _simplex_out(st.free_facet, memo)] for st in seq.steps],
            "terminal": _point_out(seq.terminal.vertices[0], memo),
        }
    if kind == "verdict":
        verdict: RetractVerdict = payload
        body: dict = {"status": verdict.status}
        if verdict.refutation_reason:
            body["refutation_reason"] = verdict.refutation_reason
        if verdict.witnesses:
            wit = verdict.witnesses
            wbody = {}
            if wit.lattice_vertex is not None:
                wbody["lattice_vertex"] = _point_out(wit.lattice_vertex, memo)
            if wit.collapse_complex is not None:
                wbody["collapse_complex"] = _complex_body(wit.collapse_complex, memo)
            if wit.collapse_sequence is not None:
                wbody["collapse_sequence"] = _payload_body(
                    "sequence", wit.collapse_sequence, memo)
            if wit.strongly_regular is not None:
                wbody["strongly_regular"] = _complex_body(wit.strongly_regular, memo)
            body["witnesses"] = wbody
        return body
    raise ScxError(f"unknown kind {kind!r}")


def _document_body(doc: ScxDocument) -> dict:
    """The JSON value of a document.  Points are tuples of coordinate
    texts, one tuple object per distinct point of the document."""
    body = {"version": doc.version, "kind": doc.kind}
    body.update(_payload_body(doc.kind, doc.payload, {}))
    return body


def _emit(body: dict) -> str:
    """The text ``json.dumps`` prints for ``body`` with sorted keys and an
    indent of 2, for a body of dicts with string keys, lists, tuples of
    strings, strings and ints.

    A tuple is a point: its block is rendered once for each depth at which
    it appears and reused at every later occurrence, which is what lets
    one dict lookup stand for a vertex repeated in many simplexes.
    """
    out: list[str] = []
    put = out.append
    blocks: dict = {}  # (point, depth) -> its rendered block

    def value(x, depth: int) -> None:
        kind = type(x)
        if kind is str:
            put(encode_basestring_ascii(x))
        elif kind is tuple:
            block = blocks.get((x, depth))
            if block is None:
                inner = "\n" + "  " * (depth + 1)
                block = blocks[x, depth] = (
                    "[" + inner + ("," + inner).join(map(encode_basestring_ascii, x))
                    + "\n" + "  " * depth + "]")
            put(block)
        elif kind is list:
            if not x:
                put("[]")
                return
            inner = "\n" + "  " * (depth + 1)
            put("[" + inner)
            for i, item in enumerate(x):
                if i:
                    put("," + inner)
                value(item, depth + 1)
            put("\n" + "  " * depth + "]")
        elif kind is dict:
            if not x:
                put("{}")
                return
            inner = "\n" + "  " * (depth + 1)
            put("{" + inner)
            for i, key in enumerate(sorted(x)):
                if i:
                    put("," + inner)
                put(encode_basestring_ascii(key) + ": ")
                value(x[key], depth + 1)
            put("\n" + "  " * depth + "}")
        elif kind is int:
            put(int.__repr__(x))
        else:
            raise TypeError(f"cannot print a {kind.__name__} in .scx")

    value(body, 0)
    return "".join(out)


def print_scx(doc: ScxDocument) -> str:
    return _emit(_document_body(doc)) + "\n"


# -- decoding ----------------------------------------------------------------


def _positive_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _parse_point(entry, where: str, points: dict) -> RPoint:
    """The point an entry spells.  ``points`` maps the text of every point
    parsed so far in the document to its RPoint, so equal points of one
    document are one object and set lookups of them hit by identity."""
    if not isinstance(entry, list) or not entry:
        raise ScxError("a point must be a nonempty array of rationals", where)
    key = tuple(entry)
    known = points.get(key) if all(isinstance(t, str) for t in key) else None
    if known is not None:
        return known
    coords = []
    for i, txt in enumerate(entry):
        if not isinstance(txt, str):
            raise ScxError("rationals are strings like '2/3'", f"{where}[{i}]")
        try:
            x = parse_rat(txt)
        except ValueError as exc:
            raise ScxError(str(exc), f"{where}[{i}]") from None
        if format_rat(x) != txt:
            raise ScxError(f"{txt!r} is not canonical: write {format_rat(x)!r}",
                           f"{where}[{i}]")
        coords.append(x)
    p = points[key] = RPoint(tuple(coords))
    return p


def _parse_simplex(entry, dim: int, where: str, points: dict) -> GeoSimplex:
    if not isinstance(entry, list) or not entry:
        raise ScxError("a simplex must be a nonempty array of points", where)
    vertices = [_parse_point(p, f"{where}[{i}]", points) for i, p in enumerate(entry)]
    if any(p.dim != dim for p in vertices):
        raise ScxError(f"points must have dimension {dim}", where)
    try:
        s = GeoSimplex(tuple(vertices))
    except ValueError as exc:
        raise ScxError(str(exc), where) from None
    if len(s.vertices) != len(vertices):  # GeoSimplex drops repeats
        raise ScxError("a simplex lists a vertex twice", where)
    return s


def _parse_complex(body: dict, points: dict, where: str = "") -> GeoComplex:
    if not isinstance(body, dict):
        raise ScxError("a complex must be a JSON object", where.rstrip("."))
    dim = body.get("dim")
    if not _positive_int(dim):
        raise ScxError("'dim' must be a positive integer", where + "dim")
    sims = body.get("maximal_simplexes")
    if not isinstance(sims, list) or not sims:
        raise ScxError("'maximal_simplexes' must be a nonempty array",
                       where + "maximal_simplexes")
    parsed = [_parse_simplex(s, dim, f"{where}maximal_simplexes[{i}]", points)
              for i, s in enumerate(sims)]
    try:
        return GeoComplex(parsed, validate=True)
    except ValueError as exc:
        raise ScxError(str(exc), where + "maximal_simplexes") from None


def _parse_plmap(body: dict, points: dict) -> PLMap:
    domain = _parse_complex(body, points)
    vertices = set(domain.vertices())
    images = {}
    pairs = body.get("vertex_images")
    if not isinstance(pairs, list):
        raise ScxError("'vertex_images' must be an array of pairs",
                       "vertex_images")
    declared = body.get("codomain_dim")
    if declared is not None and not _positive_int(declared):
        raise ScxError("'codomain_dim' must be a positive integer", "codomain_dim")
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScxError("each entry is [vertex, image]", f"vertex_images[{i}]")
        v = _parse_point(pair[0], f"vertex_images[{i}][0]", points)
        if v not in vertices:
            raise ScxError(f"{v} is not a vertex of the domain",
                           f"vertex_images[{i}][0]")
        if v in images:
            raise ScxError(f"{v} is listed twice", f"vertex_images[{i}][0]")
        img = _parse_point(pair[1], f"vertex_images[{i}][1]", points)
        if declared is not None and img.dim != declared:
            raise ScxError(f"image dimension {img.dim} contradicts "
                           f"codomain_dim {declared}", f"vertex_images[{i}][1]")
        images[v] = img
    try:
        return PLMap(domain, images)
    except ValueError as exc:
        raise ScxError(str(exc), "vertex_images") from None


def _parse_weighted(body: dict) -> WeightedComplex:
    names = body.get("vertices")
    faces = body.get("faces")
    weights = body.get("weights")
    if (not isinstance(names, list) or not names
            or any(not isinstance(v, str) for v in names)
            or len(set(names)) != len(names)):
        raise ScxError("'vertices' must be a nonempty array of distinct strings",
                       "vertices")
    if not isinstance(faces, list):
        raise ScxError("'faces' must be an array of index arrays", "faces")
    if (not isinstance(weights, list) or len(weights) != len(names)
            or not all(map(_positive_int, weights))):
        raise ScxError("'weights' must be positive integers, one per vertex",
                       "weights")
    fsets = []
    for i, f in enumerate(faces):
        if (not isinstance(f, list)
                or any(isinstance(j, bool) or not isinstance(j, int)
                       or not 0 <= j < len(names) for j in f)
                or len(set(f)) != len(f)):
            raise ScxError(f"a face is an array of distinct vertex indices "
                           f"0..{len(names) - 1}", f"faces[{i}]")
        fsets.append(frozenset(names[j] for j in f))
    try:
        base = AbsComplex(names, fsets)
    except ValueError as exc:
        raise ScxError(str(exc), "faces") from None
    return WeightedComplex(base, dict(zip(names, weights)))


def _listed(entry, points: dict) -> Optional[set]:
    """The points ``entry`` lists, when they are distinct points already
    parsed in this document; otherwise None."""
    if (not isinstance(entry, list) or not entry
            or not all(isinstance(e, list) for e in entry)):
        return None
    try:
        found = {points.get(tuple(e)) for e in entry}
    except TypeError:  # an array in a point: the parser reports it
        return None
    return found if len(found) == len(entry) and None not in found else None


def _face_of(mine: set, t: GeoSimplex) -> Optional[GeoSimplex]:
    """The face of t spanned by the points ``mine``, read off t without
    sorting or a rank check, or None when one is not a vertex of t.  A face
    of a simplex is one, with its vertices in t's order."""
    vertices = tuple(v for v in t.vertices if v in mine)
    return GeoSimplex._raw(vertices) if len(vertices) == len(mine) else None


def _parse_sequence(body: dict, points: dict, where: str = "") -> CollapseSequence:
    """A collapse sequence.  When a step removes (T, F), every proper
    coface of T in the complex has gone already, as an earlier step's T' or
    as its free facet, a facet of T'.  So in a sequence that replays, each
    T is a maximal simplex of the complex or a face of an earlier T', and
    is then read off T' (``_face_of``), found by intersecting the
    ``stars`` of its points: the earlier steps whose T' has them.  F is
    read off T.  Every other entry, a bad one included, is parsed and
    checked as any simplex; a face of T that is not a facet fails as a
    free facet either way."""
    if not isinstance(body, dict):
        raise ScxError("a collapse sequence must be a JSON object", where.rstrip("."))
    steps_in = body.get("steps")
    terminal_in = body.get("terminal")
    if not isinstance(steps_in, list):
        raise ScxError("'steps' must be an array", where + "steps")
    terminal = _parse_point(terminal_in, where + "terminal", points)
    steps = []
    stars: dict[RPoint, set[int]] = {}
    for i, pair in enumerate(steps_in):
        at = f"{where}steps[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScxError("each step is [maximal, free_facet]", at)
        mine = _listed(pair[0], points)
        earlier = mine and set.intersection(*(stars.get(p, set()) for p in mine))
        t = ((earlier and _face_of(mine, steps[min(earlier)].maximal))
             or _parse_simplex(pair[0], terminal.dim, at + "[0]", points))
        mine = _listed(pair[1], points)
        f = ((mine and _face_of(mine, t))
             or _parse_simplex(pair[1], terminal.dim, at + "[1]", points))
        try:
            steps.append(CollapseStep(t, f))
        except ValueError as exc:
            raise ScxError(str(exc), at) from None
        for v in t.vertices:
            stars.setdefault(v, set()).add(i)
    return CollapseSequence(tuple(steps), GeoSimplex((terminal,)))


def _parse_verdict(body: dict, points: dict) -> RetractVerdict:
    status = body.get("status")
    if status not in ("certified", "refuted", "unknown"):
        raise ScxError("'status' must be certified/refuted/unknown", "status")
    reason = body.get("refutation_reason")
    if reason is not None and not isinstance(reason, str):
        raise ScxError("'refutation_reason' must be a string", "refutation_reason")
    witnesses = None
    wbody = body.get("witnesses")
    if wbody is not None:
        if not isinstance(wbody, dict):
            raise ScxError("'witnesses' must be a JSON object", "witnesses")
        lattice = (_parse_point(wbody["lattice_vertex"], "witnesses.lattice_vertex",
                                points)
                   if "lattice_vertex" in wbody else None)
        ccx = (_parse_complex(wbody["collapse_complex"], points,
                              "witnesses.collapse_complex.")
               if "collapse_complex" in wbody else None)
        seq = (_parse_sequence(wbody["collapse_sequence"], points,
                               "witnesses.collapse_sequence.")
               if "collapse_sequence" in wbody else None)
        srt = (_parse_complex(wbody["strongly_regular"], points,
                              "witnesses.strongly_regular.")
               if "strongly_regular" in wbody else None)
        witnesses = RetractWitnesses(collapse_complex=ccx, collapse_sequence=seq,
                                     lattice_vertex=lattice, strongly_regular=srt)
    return RetractVerdict(status, witnesses=witnesses, refutation_reason=reason)


def parse_scx(text: str) -> ScxDocument:
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScxError(f"invalid JSON: {exc.msg}",
                       f"line {exc.lineno}, column {exc.colno}") from None
    except (ValueError, RecursionError) as exc:
        # Integer literals past Python's digit limit, or nesting past the
        # recursion limit.
        raise ScxError(f"invalid JSON: {exc}", "document") from None
    if not isinstance(body, dict):
        raise ScxError("the document must be a JSON object", "document")
    version = body.get("version")
    if version != FORMAT_VERSION:
        raise ScxError(f"unsupported format version {version!r}", "version")
    kind = body.get("kind")
    if kind not in KINDS:
        raise ScxError(f"unknown kind {kind!r}", "kind")
    points: dict = {}  # one RPoint per distinct point of the document
    if kind == "complex":
        payload = _parse_complex(body, points)
    elif kind == "plmap":
        payload = _parse_plmap(body, points)
    elif kind == "weighted":
        payload = _parse_weighted(body)
    elif kind == "sequence":
        payload = _parse_sequence(body, points)
    else:
        payload = _parse_verdict(body, points)
    return ScxDocument(kind, payload, version)


def load(path) -> ScxDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scx(fh.read())


def dump(doc: ScxDocument, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_scx(doc))
