"""Free faces, elementary collapses, and collapsibility search.

Collapsibility is the checkable certificate used in place of
contractibility: a found collapse sequence replays independently, while a
failed search means only "not found within budget", never "not
collapsible".  Search, replay and free faces read one sorted list of free
pairs; the search remembers failed states by a bitmask of live simplexes.
A simplex is the tuple of its vertices' ranks in the complex's vertex
table, the sorted ``GeoComplex.vertices()``, so the face table is built
from the complex's rank tuples; only a pair handed in as simplexes, a
replay step or an elementary collapse, is looked up by point.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Optional

from .complexes import GeoComplex, GeoSimplex


class NotAnElementaryCollapse(ValueError):
    pass


@dataclass(frozen=True)
class CollapseStep:
    maximal: GeoSimplex
    free_facet: GeoSimplex

    def __post_init__(self):
        # Both vertex tuples are sorted, so F is a facet of T iff it is T
        # without the vertex where the two first differ.
        t, f = self.maximal.vertices, self.free_facet.vertices
        i = next((i for i, (u, v) in enumerate(zip(f, t)) if u is not v and u != v),
                 len(f))
        if len(f) != len(t) - 1 or f != t[:i] + t[i + 1:]:
            raise ValueError("free_facet must be a facet of maximal")


@dataclass(frozen=True)
class CollapseSequence:
    steps: tuple[CollapseStep, ...]
    terminal: GeoSimplex

    def __post_init__(self):
        if self.terminal.dim != 0:
            raise ValueError("terminal must be a vertex")


class _FaceTable:
    """Live simplexes as vertex-id tuples, at first every face of every
    maximal simplex, with each face's live cofaces one dimension up.  The
    ids are the complex's vertex ranks (``GeoComplex._rank``), read off its
    rank tuples (``GeoComplex._ranks``): they follow vertex order, so tuple
    order is ``GeoSimplex`` order, and building the table hashes no point.
    ``free`` is the sorted list of pairs (T, F) where T is F's only live
    coface; bit ``bit[s]`` of ``mask`` is set while s is live.  Removing
    only free pairs keeps every face of a live simplex live."""

    def __init__(self, cx: GeoComplex):
        self.verts, self.index = cx.vertices(), cx._rank
        ids = {f for r in cx._ranks for k in range(1, len(r) + 1)
               for f in itertools.combinations(r, k)}
        self.faces = list(ids)
        self.bit = {s: i for i, s in enumerate(self.faces)}
        self.mask = (1 << len(self.faces)) - 1
        self.cofaces: dict[tuple[int, ...], set] = {s: set() for s in self.faces}
        for s in self.faces:
            for i in range(len(s) if len(s) > 1 else 0):
                self.cofaces[s[:i] + s[i + 1:]].add(s)
        self.free = sorted((next(iter(c)), g) for g, c in self.cofaces.items() if len(c) == 1)

    def toggle(self, pair) -> None:
        """Remove the free pair (T, F), or put it back: flip each simplex in
        ``mask`` and in its facets' cofaces, re-filing the facets' pairs."""
        free = self.free
        for s in pair:
            self.mask ^= 1 << self.bit[s]
            for i in range(len(s) if len(s) > 1 else 0):
                g = s[:i] + s[i + 1:]
                c = self.cofaces[g]
                if len(c) == 1:
                    del free[bisect_left(free, (next(iter(c)), g))]
                c ^= {s}
                if len(c) == 1:
                    insort(free, (next(iter(c)), g))

    def free_pair(self, t: GeoSimplex, f: GeoSimplex):
        """(T, F) as id tuples if F is now free with coface T, else None."""
        pair = tuple(tuple(map(self.index.get, s.vertices)) for s in (t, f))
        if None in pair[0] + pair[1]:
            return None
        k = bisect_left(self.free, pair)
        return pair if self.free[k:k + 1] == [pair] else None

    def geo(self, s: tuple[int, ...]) -> GeoSimplex:
        return GeoSimplex._raw(tuple(self.verts[i] for i in s))


def free_faces(cx: GeoComplex) -> list[tuple[GeoSimplex, GeoSimplex]]:
    """All pairs (T, F) where F is a facet of exactly one simplex T."""
    table = _FaceTable(cx)
    return [(table.geo(t), table.geo(f)) for t, f in table.free]


def elementary_collapse(cx: GeoComplex, t: GeoSimplex, f: GeoSimplex) -> GeoComplex:
    """Remove exactly {T, F}; errors unless (T, F) is a free pair."""
    if _FaceTable(cx).free_pair(t, f) is None:
        raise NotAnElementaryCollapse("not an elementary collapse")
    return GeoComplex(cx.simplexes - {t, f}, validate=False)


def find_collapse_sequence(cx: GeoComplex,
                           budget: int = 100_000) -> Optional[CollapseSequence]:
    """Depth-first search for a collapse down to a single vertex.

    Greedy on the lexicographically least free pair.  A state on the path
    keeps only the pair it tried; a backtrack restores the free list
    exactly, so its next pair is that pair's successor.  The budget counts
    nodes: each state that is not a single vertex and not known to fail
    costs one, and is expanded only while the count is within budget.  An
    expanded state's live bitmask is remembered once all its pairs fail;
    path states strictly shrink, so an open state is never met again.  Past
    the budget open states still try their remaining pairs, so a single
    vertex reached that way succeeds.  A budget of 0 finds nothing unless
    cx is a single vertex.  None means "not found within budget".
    """
    table = _FaceTable(cx)
    pairs = table.free  # updated in place
    failed: set[int] = set()
    nodes = 0
    path: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    while table.mask & (table.mask - 1):
        fresh = not failed or table.mask not in failed
        nodes += fresh
        expanded = fresh and nodes <= budget
        k = 0 if expanded else len(pairs)
        while k == len(pairs):
            if expanded:
                failed.add(table.mask)
            if not path:
                return None
            last = path.pop()
            table.toggle(last)
            k, expanded = bisect_right(pairs, last), True
        path.append(pairs[k])
        table.toggle(pairs[k])
    steps = tuple(CollapseStep(table.geo(t), table.geo(f)) for t, f in path)
    return CollapseSequence(steps, table.geo(table.faces[table.mask.bit_length() - 1]))


def replay(cx: GeoComplex, seq: CollapseSequence) -> bool:
    """Check that every step is a valid elementary collapse in order and the
    end state is the single terminal vertex.  Each step costs O(log n)
    comparisons per facet plus list shifts linear in the free list."""
    table = _FaceTable(cx)
    for step in seq.steps:
        pair = table.free_pair(step.maximal, step.free_facet)
        if pair is None:
            return False
        table.toggle(pair)
    i = table.bit.get(tuple(map(table.index.get, seq.terminal.vertices)))
    return i is not None and table.mask == 1 << i
