"""The .scx exchange format: UTF-8 JSON with exact 'p/q' rationals.

Five document kinds: complex, plmap, weighted, sequence, verdict.  Parsing
validates both syntax (rationals must be written canonically, 'p' or 'p/q'
in lowest terms; no vertex is listed twice) and semantics (complexes must
satisfy the simplicial-complex condition); printing is canonical, so
parse . print is the identity on canonical text.  Every failure is a
``ScxError`` whose ``where`` locates it in the document.  Each point of a
document is parsed once and then found by one memo lookup of its text; it
is built from its integer vector, read off (numerator, denominator) pairs
of ints, so parsing builds no ``Fraction``.
A collapse step's simplexes are read off earlier simplexes of the
sequence when they are facets of them, with no sort, no rank check and
no facet check of the pair: its free facet off its maximal simplex, and
its maximal simplex, unless it is maximal in the complex, off an earlier
step's maximal simplex or free facet.  Each step entry is resolved once
to its points and their ids.  The facets of the earlier steps are keyed
by those ids, a fixed number of keys per step, dropped once the step
removing that facet is read, so the parse is linear in the steps.  Every
other entry is built and checked, and so is its pair.  No step object is
built: the sequence holds each step as a pair of rank tuples into its
vertex table (``CollapseSequence``).

The canonical text is what ``json.dumps`` prints with sorted keys and an
indent of 2, plus a newline.  An indent makes ``json`` run its pure-Python
encoder, so ``print_scx`` writes the same bytes itself, kind by kind: each
kind puts its members in their fixed sorted key order, with a two-space
indent, ``","`` between items and ``": "`` after keys, ``[]`` and ``{}``
when empty, ``str`` of integers and ``json``'s C
``encode_basestring_ascii`` for strings.  A document is a list of pieces
joined once at the end: ``_object`` puts members, each a key and the
pieces of its value, into an object, and ``_array`` and ``_close`` put
items into an array, so no value is joined into its parent.  A point's
bracketed block is rendered once per depth at which its object appears,
and its coordinate texts once per document (``_blocks``).  A maximal
simplex is one join of the blocks at its rank tuple
(``GeoComplex._ranks``), and a collapse step two joins of the blocks of
the sequence's vertex table at its rank pairs (``CollapseSequence.pairs``),
so no vertex occurrence is hashed.
A verdict whose two complex witnesses are one object renders it once.  A
weighted complex holds its faces as vertex-index tuples, as the document
does: its ``faces`` are written as the closure (``complexes._closure``)
of its given faces, sorted index tuples whose faces come out sorted, and
its weights as they stand, in vertex order.  The parser hands the index
arrays it has checked to the abstract complex as they are.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from .collapse import CollapseSequence
from .complexes import (AbsComplex, GeoComplex, GeoSimplex, RPoint,
                        WeightedComplex, _closure, _quotient_text)
from .exactnum import _rat_pair
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


def _blocks(points, depth: int, memo: dict) -> list[str]:
    """The blocks of the points at depth.  ``memo`` maps each point
    formatted so far in the document to its coordinate texts, so equal
    points held as distinct objects are formatted once, and each depth to
    a dict from the id of each point object rendered there to its block,
    so a point object is hashed only where its block at a depth is first
    rendered.  Coordinate texts hold only digits, '-' and '/', which JSON
    writes as they are."""
    at = memo.get(depth)
    if at is None:
        at = memo[depth] = {}
    inner = "\n" + "  " * (depth + 1)
    sep, closing = '",' + inner + '"', '"\n' + "  " * depth + "]"
    out = []
    for p in points:
        text = at.get(id(p))
        if text is None:
            texts = memo.get(p)
            if texts is None:
                texts = memo[p] = p._texts()
            text = at[id(p)] = "[" + inner + '"' + sep.join(texts) + closing
        out.append(text)
    return out


def _close(pieces: list[str], depth: int) -> list[str]:
    """The array at depth whose items are ``pieces``, each item led by a
    piece that starts with its separator ","; the first separator becomes
    the opening bracket, and no item is joined."""
    if not pieces:
        return ["[]"]
    pieces[0] = "[" + pieces[0][1:]
    pieces.append("\n" + "  " * depth + "]")
    return pieces


def _array(items: list[str], depth: int) -> list[str]:
    """The array at depth of ``items``, each rendered at depth + 1."""
    pieces = [",\n" + "  " * (depth + 1)] * (2 * len(items))
    pieces[1::2] = items
    return _close(pieces, depth)


def _object(members: list[tuple[str, list[str]]], depth: int) -> list[str]:
    """The object at depth whose members are (key, pieces) pairs in sorted
    key order, each value rendered at depth + 1."""
    if not members:
        return ["{}"]
    inner = "\n" + "  " * (depth + 1)
    pieces = []
    for key, value in members:
        pieces.append(f',{inner}"{key}": ')
        pieces += value
    pieces[0] = "{" + pieces[0][1:]
    pieces.append("\n" + "  " * depth + "}")
    return pieces


def _complex(cx: GeoComplex, depth: int, memo: dict) -> list:
    """The members "dim" and "maximal_simplexes" of cx in an object at
    depth.  A simplex is one join of its vertices' blocks, read off its
    rank tuple (``GeoComplex._ranks``)."""
    i2, i3 = "\n" + "  " * (depth + 2), "\n" + "  " * (depth + 3)
    block = _blocks(cx.vertices(), depth + 3, memo).__getitem__
    lead, sep, closing = "," + i2 + "[" + i3, "," + i3, i2 + "]"
    pieces = []
    for r in cx._ranks:
        pieces += (lead, sep.join(map(block, r)), closing)
    return [("dim", [str(cx.ambient_dim)]), ("maximal_simplexes", _close(pieces, depth + 1))]


def _sequence(seq: CollapseSequence, depth: int, memo: dict) -> list:
    """The members "steps" and "terminal" of seq in an object at depth.  A
    step is two joins of the blocks of the sequence's vertex table, read off
    its rank tuples (``CollapseSequence.pairs``), as a complex's simplexes
    are."""
    i2, i3, i4 = ("\n" + "  " * (depth + k) for k in (2, 3, 4))
    terminal = _blocks(seq.terminal.vertices, depth + 1, memo)
    block = _blocks(seq.vertices, depth + 4, memo).__getitem__
    sep, lead = "," + i4, "," + i2 + "[" + i3 + "[" + i4
    middle, closing = i3 + "]," + i3 + "[" + i4, i3 + "]" + i2 + "]"
    pieces = []
    for t, f in seq.pairs:
        pieces += (lead, sep.join(map(block, t)), middle, sep.join(map(block, f)), closing)
    return [("steps", _close(pieces, depth + 1)), ("terminal", terminal)]


def print_scx(doc: ScxDocument) -> str:
    kind, payload, memo = doc.kind, doc.payload, {}
    head = ("kind", [encode_basestring_ascii(kind)])
    version = ("version", [encode_basestring_ascii(doc.version)])
    if kind == "complex":
        dim, simplexes = _complex(payload, 0, memo)
        members = [dim, head, simplexes, version]
    elif kind == "plmap":
        dim, simplexes = _complex(payload.domain, 0, memo)
        vertices = _blocks(payload.domain.vertices(), 3, memo)
        # ``PLMap.images`` lists the images in the domain's vertex order.
        images = _blocks(payload.images.values(), 3, memo)
        pairs = [f"[\n      {v},\n      {img}\n    ]" for v, img in zip(vertices, images)]
        members = [("codomain_dim", [str(payload.codomain_dim)]), dim, head, simplexes,
                   version, ("vertex_images", _array(pairs, 1))]
    elif kind == "weighted":
        faces = ["".join(_array(list(map(str, f)), 2))
                 for f in sorted(_closure(payload.base.given))]
        members = [("faces", _array(faces, 1)), head, version,
                   ("vertices", _array([encode_basestring_ascii(str(v))
                                        for v in payload.base.vertices], 1)),
                   ("weights", _array(list(map(str, payload.weights)), 1))]
    elif kind == "sequence":
        steps, terminal = _sequence(payload, 0, memo)
        members = [head, steps, terminal, version]
    elif kind == "verdict":
        members = [head]
        if payload.refutation_reason:
            members.append(("refutation_reason",
                            [encode_basestring_ascii(payload.refutation_reason)]))
        members += [("status", [encode_basestring_ascii(payload.status)]), version]
        wit = payload.witnesses
        if wit:
            ccx, srt, found = wit.collapse_complex, wit.strongly_regular, []
            if ccx is not None:
                found.append(("collapse_complex", _object(_complex(ccx, 2, memo), 2)))
            if wit.collapse_sequence is not None:
                found.append(("collapse_sequence",
                              _object(_sequence(wit.collapse_sequence, 2, memo), 2)))
            if wit.lattice_vertex is not None:
                found.append(("lattice_vertex", _blocks((wit.lattice_vertex,), 2, memo)))
            if srt is not None:
                # A certified cube verdict holds one complex twice.
                found.append(("strongly_regular", found[0][1] if srt is ccx
                              else _object(_complex(srt, 2, memo), 2)))
            members.append(("witnesses", _object(found, 1)))
    else:
        raise ScxError(f"unknown kind {kind!r}")
    pieces = _object(members, 0)
    pieces.append("\n")
    return "".join(pieces)


# -- decoding ----------------------------------------------------------------


def _positive_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _parse_point(entry, where: str, points: dict) -> RPoint:
    """The point an entry spells, built from its vector d(p, 1)
    (``RPoint._from_homog``), so parsing builds no ``Fraction``.
    ``points`` maps the text of every point parsed so far in the document
    to its RPoint, so equal points of one document are one object and set
    lookups of them hit by identity, and each coordinate text that has
    passed the canonical check to its (numerator, denominator) pair of
    ints, so a coordinate is parsed once per document.  A text is canonical
    when it is ``complexes._quotient_text`` of its pair, the text that
    printing gives."""
    if not isinstance(entry, list) or not entry:
        raise ScxError("a point must be a nonempty array of rationals", where)
    key = tuple(entry)
    try:
        known = points.get(key)
    except TypeError:  # an array in the point: reported below
        known = None
    if known is not None:
        return known
    pairs = []
    for i, txt in enumerate(entry):
        x = points.get(txt) if isinstance(txt, str) else None
        if x is None:
            if not isinstance(txt, str):
                raise ScxError("rationals are strings like '2/3'", f"{where}[{i}]")
            try:
                x = _rat_pair(txt)
            except ValueError as exc:
                raise ScxError(str(exc), f"{where}[{i}]") from None
            canonical = _quotient_text(*x)
            if canonical != txt:
                raise ScxError(f"{txt!r} is not canonical: write {canonical!r}",
                               f"{where}[{i}]")
            points[txt] = x
        pairs.append(x)
    d = math.lcm(*[q for _, q in pairs])
    p = points[key] = RPoint._from_homog(tuple([e * (d // q) for e, q in pairs] + [d]))
    return p


def _parse_simplex(entry, dim: int, where: str, points: dict) -> GeoSimplex:
    if not isinstance(entry, list) or not entry:
        raise ScxError("a simplex must be a nonempty array of points", where)
    vertices = [v if v is not None else _parse_point(p, f"{where}[{i}]", points)
                for i, (p, v) in enumerate(zip(entry, _resolve(entry, points)))]
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
        if v not in domain._rank:
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
    for i, f in enumerate(faces):
        if (not isinstance(f, list)
                or any(isinstance(j, bool) or not isinstance(j, int)
                       or not 0 <= j < len(names) for j in f)
                or len(set(f)) != len(f)):
            raise ScxError(f"a face is an array of distinct vertex indices "
                           f"0..{len(names) - 1}", f"faces[{i}]")
    try:
        base = AbsComplex(names, faces)
    except ValueError as exc:
        raise ScxError(str(exc), "faces") from None
    return WeightedComplex(base, weights)


def _resolve(entry, points: dict) -> tuple:
    """The points of this document that the items of a simplex entry
    spell, one memo lookup each, with None for any other item; () when the
    entry is not an array.  A document's equal points are one object
    (``_parse_point``), alive while it parses, so their ids name them."""
    if type(entry) is not list:
        return ()
    try:
        return tuple([points.get(tuple(e)) if type(e) is list else None for e in entry])
    except TypeError:  # an array in a point: the parser reports it
        return (None,) * len(entry)


def _facets(ids: tuple) -> list[tuple]:
    """The facets of a simplex given as a tuple of ids; a vertex has none."""
    return [ids[:j] + ids[j + 1:] for j in range(len(ids))] if len(ids) > 1 else []


def _parse_sequence(body: dict, points: dict, where: str = "",
                    ccx: Optional[GeoComplex] = None) -> CollapseSequence:
    """A collapse sequence.  When a step removes (T, F), every coface of T
    one dimension up in the complex has gone already, as an earlier step's
    T' or F', so T is a facet of one of them unless it is maximal in the
    complex.  ``faces`` holds the id tuples of the facets of every earlier
    T' and F' not yet removed themselves, a fixed number of keys per step.
    Each step entry is resolved once, to its points and their ids
    (``_resolve``): a T whose ids are in ``faces`` is read off as it is
    listed, and an F whose ids are a facet of T's, with the pair, so
    neither is sorted nor checked again.  In a verdict, ``ccx`` is the
    collapse complex parsed from the same document, and ``faces`` starts
    with the id tuples of its maximal simplexes, so a maximal T is read off
    too; only a complex of the terminal's dimension seeds it, as any other
    T fails the dimension check.  Every other entry, a bad one included, is
    parsed and checked as any simplex, which builds an equal simplex when
    the entry is good, and its pair is checked; an F that is not a facet of
    T fails as a free facet either way.  The sequence is returned on its
    sorted vertex table, the points of its steps and terminal, with each
    step's id tuples turned into rank tuples; when those points are the
    vertices of ``ccx``, the table is ``ccx.vertices()`` itself, so replay
    on ccx reads the pairs as they are."""
    if not isinstance(body, dict):
        raise ScxError("a collapse sequence must be a JSON object", where.rstrip("."))
    steps_in = body.get("steps")
    terminal_in = body.get("terminal")
    if not isinstance(steps_in, list):
        raise ScxError("'steps' must be an array", where + "steps")
    terminal = _parse_point(terminal_in, where + "terminal", points)
    steps, byid = [], {id(terminal): terminal}  # each step's id tuples; each point
    seeds = ccx.maximal_simplexes() if ccx is not None and ccx.ambient_dim == terminal.dim else ()
    faces = {tuple(map(id, m.vertices)) for m in seeds}
    for i, pair in enumerate(steps_in):
        # A step's location is formatted only for an entry that is parsed.
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScxError("each step is [maximal, free_facet]", f"{where}steps[{i}]")
        t = _resolve(pair[0], points)
        tids = tuple(map(id, t))
        if tids not in faces:
            t = _parse_simplex(pair[0], terminal.dim, f"{where}steps[{i}][0]", points).vertices
            tids = tuple(map(id, t))
        tfacets = _facets(tids)
        fids = tuple(map(id, _resolve(pair[1], points)))
        if fids not in tfacets:
            f = _parse_simplex(pair[1], terminal.dim, f"{where}steps[{i}][1]", points)
            fids = tuple(map(id, f.vertices))
            if fids not in tfacets:
                raise ScxError("free_facet must be a facet of maximal", f"{where}steps[{i}]")
        steps.append((tids, fids))
        byid.update(zip(tids, t))
        faces.update(tfacets, _facets(fids))
        faces.difference_update((tids, fids))
    # The table is the sorted points of the steps and the terminal; when
    # they are the collapse complex's vertices, it is that complex's table.
    table = (ccx.vertices() if ccx is not None and byid.keys() == set(map(id, ccx.vertices()))
             else tuple(sorted(byid.values())))
    rank = dict(zip(map(id, table), range(len(table)))).__getitem__
    pairs = tuple([(tuple(map(rank, t)), tuple(map(rank, f))) for t, f in steps])
    return CollapseSequence._raw(table, pairs, GeoSimplex((terminal,)))


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
                               "witnesses.collapse_sequence.", ccx)
               if "collapse_sequence" in wbody else None)
        # A certified cube verdict holds one complex twice: an equal text
        # parses to an equal complex, so the first, already checked, serves.
        if "strongly_regular" not in wbody:
            srt = None
        elif ccx is not None and wbody["strongly_regular"] == wbody["collapse_complex"]:
            srt = ccx
        else:
            srt = _parse_complex(wbody["strongly_regular"], points,
                                 "witnesses.strongly_regular.")
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
