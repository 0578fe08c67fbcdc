"""Free faces, elementary collapses, and collapsibility search.

Collapsibility is the checkable certificate used in place of
contractibility: a found collapse sequence replays independently, while a
failed search means only "not found within budget", never "not
collapsible".  Search, replay and free faces read one face table of
integer face ids.  Each face keeps its facets' ids, the number of its live
cofaces and the XOR of their ids, so a free face names its one coface, and
the free pairs are ints in one sorted list.  In the search, removing or
restoring a pair updates its two faces' facets and re-files their pairs in
that list, whose shifts are linear in its length; replay builds no free
list, so a step only updates the facets.  The search remembers failed
states by a 64-bit Zobrist word of the live set (Zobrist 1970), checked
against the exact live flags, so a collision costs time and never changes
a result.
A simplex is the tuple of its vertices' ranks in the complex's vertex
table, the sorted ``GeoComplex.vertices()``, so the face table is built
from the complex's rank tuples.  A collapse sequence is held the same way:
a sorted vertex table and one pair of rank tuples into it per step
(``CollapseSequence``).  The search hands over the complex's own table and
the face table's rank tuples of the pairs on its path, so it builds no
object per step, and replay reads the face ids of a sequence on that
table straight off its pairs.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Optional

from .complexes import GeoComplex, GeoSimplex, _cached, _closure


@dataclass(frozen=True)
class CollapseStep:
    maximal: GeoSimplex
    free_facet: GeoSimplex

    def __post_init__(self):
        # Both vertex tuples are sorted, so F is a facet of T iff it is T
        # without the vertex where the two first differ.
        t, f = self.maximal.vertices, self.free_facet.vertices
        i = next((i for i, (u, v) in enumerate(zip(f, t)) if u is not v and u != v), len(f))
        if len(f) != len(t) - 1 or f != t[:i] + t[i + 1:]:
            raise ValueError("free_facet must be a facet of maximal")

    @classmethod
    def _raw(cls, maximal: GeoSimplex, free_facet: GeoSimplex) -> "CollapseStep":
        """Skip the facet check for a free facet known to be a facet of
        ``maximal``, as a face table's pairs are."""
        step = object.__new__(cls)
        step.__dict__.update(maximal=maximal, free_facet=free_facet)
        return step


@dataclass(frozen=True, init=False)
class CollapseSequence:
    """A collapse sequence on a sorted vertex table: ``vertices``, the
    table; ``pairs``, the rank tuples (T, F) into it of each step; and the
    ``terminal`` vertex.  ``steps``, the ``CollapseStep`` of each pair, is
    built on first read.  The table is the sorted distinct vertices of the
    steps and the terminal, so equal sequences have equal tables and pairs
    however they were made.  ``CollapseSequence(steps, terminal)`` ranks
    given steps on that table.

    The search's table is its complex's, ``cx.vertices()``, and it is this
    set.  Each vertex of a step is a vertex of cx.  Each vertex of cx but
    the terminal is removed by some step, as the search ends on the
    terminal alone; a vertex has no facet, so it is removed as the free
    face F of a step, never as its T.  So the vertices of the steps and the
    terminal are all of cx's."""

    vertices: tuple
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    terminal: GeoSimplex

    def __init__(self, steps, terminal: GeoSimplex):
        if terminal.dim != 0:
            raise ValueError("terminal must be a vertex")
        self.__dict__["steps"] = steps = tuple(steps)
        # A free facet's vertices are its maximal simplex's.
        table = sorted({v for st in steps for v in st.maximal.vertices}.union(terminal.vertices))
        rank = dict(zip(table, range(len(table)))).__getitem__
        pairs = [tuple(map(rank, s.vertices)) for st in steps for s in (st.maximal, st.free_facet)]
        self.__dict__.update(vertices=tuple(table), pairs=tuple(zip(pairs[::2], pairs[1::2])),
                             terminal=terminal)

    @classmethod
    def _raw(cls, vertices: tuple, pairs: tuple, terminal: GeoSimplex) -> "CollapseSequence":
        """The sequence with this table, known to be the sorted distinct
        vertices of the pairs and the terminal, and these pairs, whose F
        is a facet of T."""
        seq = object.__new__(cls)
        seq.__dict__.update(vertices=vertices, pairs=pairs, terminal=terminal)
        return seq

    @_cached
    def steps(self) -> tuple[CollapseStep, ...]:
        simplex = [GeoSimplex._raw(tuple(map(self.vertices.__getitem__, r)))
                   for pair in self.pairs for r in pair]
        return tuple(map(CollapseStep._raw, simplex[::2], simplex[1::2]))


class _FaceTable:
    """Every face of every maximal simplex, numbered in the order of its
    vertex-id tuple.  The vertex ids are the complex's vertex ranks
    (``GeoComplex._rank``), read off its rank tuples (``GeoComplex._ranks``):
    they follow vertex order, so face-id order is ``GeoSimplex`` order, and
    building the table hashes no point.  Face i keeps ``facets[i]``, its
    facets' ids; ``count[i]``, the number of its live cofaces one dimension
    up; and ``xor[i]``, the XOR of their ids, which is that coface when
    there is one.  ``live`` flags the live faces and ``size`` counts them.
    Removing only free pairs keeps every face of a live face live.
    ``faces`` is the closure of cx's rank tuples (``complexes._closure``),
    which a caller may have counted already."""

    def __init__(self, cx: GeoComplex, faces: set[tuple]):
        self.verts, self.index = cx.vertices(), cx._rank
        self.faces = sorted(faces)
        self.id = {s: i for i, s in enumerate(self.faces)}
        n = self.n = self.size = len(self.faces)
        self.facets = [tuple(map(self.id.__getitem__, itertools.combinations(s, len(s) - 1)))
                       if len(s) > 1 else () for s in self.faces]
        count, xor = self.count, self.xor = [0] * n, [0] * n
        for i, facets in enumerate(self.facets):
            for g in facets:
                count[g] += 1
                xor[g] ^= i
        self.live = bytearray(b"\1") * n

    def file_free(self) -> list[int]:
        """Build ``free``, the sorted list of the ints T·n + F, n faces,
        over the pairs where T is F's only live coface, so int order is
        (T, F) order.  The search and ``free_faces`` read it; replay does
        not, so the table is built without it."""
        count, xor, n = self.count, self.xor, self.n
        self.free = sorted(xor[g] * n + g for g in range(n) if count[g] == 1)
        return self.free

    def toggle(self, pair: int) -> None:
        """Remove the free pair T·n + F, or put it back: flip T and F in
        ``live`` and in their facets' counts and XORs, re-filing the facets'
        pairs."""
        n, free, count, xor, live = self.n, self.free, self.count, self.xor, self.live
        t, f = divmod(pair, n)
        step = -1 if live[t] else 1
        self.size += 2 * step
        for s in (t, f):
            live[s] ^= 1
            for g in self.facets[s]:
                if count[g] == 1:
                    del free[bisect_left(free, xor[g] * n + g)]
                count[g] += step
                xor[g] ^= s
                if count[g] == 1:
                    insort(free, xor[g] * n + g)

    def geo(self, i: int) -> GeoSimplex:
        return GeoSimplex._raw(tuple(map(self.verts.__getitem__, self.faces[i])))


def _zobrist(i: int) -> int:
    """The 64-bit word of face id i: a fixed integer mix (the first
    multiplier of splitmix64, a xor-shift, its second multiplier), so the
    words need no random state."""
    z = (i + 1) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
    return (z ^ z >> 29) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF


def free_faces(cx: GeoComplex) -> list[tuple[GeoSimplex, GeoSimplex]]:
    """All pairs (T, F) where F is a facet of exactly one simplex T."""
    table = _FaceTable(cx, _closure(cx._ranks))
    return [(table.geo(p // table.n), table.geo(p % table.n)) for p in table.file_free()]


def find_collapse_sequence(cx: GeoComplex,
                           budget: int = 100_000) -> Optional[CollapseSequence]:
    """Depth-first search for a collapse down to a single vertex.

    Greedy on the lexicographically least free pair.  A state on the path
    keeps only the pair it tried; a backtrack restores the free list
    exactly, so its next pair is that pair's successor.  The budget counts
    nodes: each state that is not a single vertex and not known to fail
    costs one, and is expanded unless the count then passes the budget.
    An expanded state is remembered once all its pairs fail, filed under
    ``key``, the XOR of the Zobrist words of the faces whose live flags
    differ from those of the first state filed; its live flags are copied
    only then, or when the key of a state is already filed.  Before the
    first filing every state is fresh and no key is read, so the words are
    made then and the key is kept from there on.  Path states strictly
    shrink, so an open state is never met again.  A budget of 0 finds
    nothing unless cx is a single vertex.  None means "not found within
    budget".

    The search stops with None as soon as the count passes the budget,
    which is the answer that trying on would give.  Past the budget no
    state is expanded, so a child ends the search only by being a single
    vertex, and only a parent of size 3, an edge and its two vertices, has
    one.  An expanded state of size 3 has no pair or reaches a single
    vertex with its first, so none is left open on the path: the open
    states would try their remaining pairs in vain, and a state filed from
    then on would never be read, as ``failed`` only decides whether a
    state is counted.  A table of f faces with 2 budget < f - 1 gives None
    before any search: a sequence removes two faces a step, so it has
    (f - 1)/2 steps, and each state on it but the last, a single vertex,
    is counted and expanded, so it needs (f - 1)/2 nodes within budget.
    That test reads only f, so it runs on the closure before the table is
    built from it.
    """
    faces = _closure(cx._ranks)
    if 2 * budget < len(faces) - 1:
        return None
    table = _FaceTable(cx, faces)
    del faces  # the table holds the faces sorted; the set is not kept for the search
    pairs, n, live = table.file_free(), table.n, table.live  # updated in place
    words: list[int] = []  # each face's Zobrist word, made at the first filing
    failed: dict[int, set[bytes]] = {}
    key = nodes = 0
    path: list[int] = []
    while table.size > 1:
        expanded = key not in failed or bytes(live) not in failed[key]
        nodes += expanded
        if nodes > budget:
            return None
        k = 0 if expanded else len(pairs)
        while k == len(pairs):
            if expanded:
                if not words:
                    words = list(map(_zobrist, range(n)))
                failed.setdefault(key, set()).add(bytes(live))
            if not path:
                return None
            last = path.pop()
            table.toggle(last)
            if words:
                key ^= words[last // n] ^ words[last % n]
            k, expanded = bisect_right(pairs, last), True
        pair = pairs[k]
        path.append(pair)
        table.toggle(pair)
        if words:
            key ^= words[pair // n] ^ words[pair % n]
    pairs = tuple([(table.faces[p // n], table.faces[p % n]) for p in path])
    return CollapseSequence._raw(table.verts, pairs, table.geo(live.index(1)))


def replay(cx: GeoComplex, seq: CollapseSequence) -> bool:
    """Check that every step is a valid elementary collapse in order and the
    end state is the single terminal vertex.  A sequence on cx's own table
    (``cx.vertices()``, or a table equal to it) names cx's faces by its
    pairs, so a step costs two face-id lookups and one removal, which flips
    ``live``, ``count`` and ``xor``; replay builds no free list
    (``_FaceTable.file_free``).  Any other table is translated once, each
    vertex to its rank in cx; both tables are sorted, so the translated
    tuples are too.  A vertex outside cx answers False: each vertex of a
    sequence's table is in a step or is its terminal."""
    table = _FaceTable(cx, _closure(cx._ranks))
    ids, facets, count, xor, live = table.id, table.facets, table.count, table.xor, table.live
    pairs = seq.pairs
    if seq.vertices != table.verts:
        rank = list(map(table.index.get, seq.vertices)).__getitem__
        pairs = [(tuple(map(rank, t)), tuple(map(rank, f))) for t, f in pairs]
    for t, f in pairs:
        t, f = ids.get(t), ids.get(f)
        if f is None or count[f] != 1 or xor[f] != t:
            return False
        for s in (t, f):
            live[s] = 0
            for g in facets[s]:
                count[g] -= 1
                xor[g] ^= s
    # Each step removed two live faces.
    return table.n - 2 * len(pairs) == 1 and table.geo(live.index(1)) == seq.terminal
