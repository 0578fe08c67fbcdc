"""Free faces, elementary collapses, and collapsibility search.

Collapsibility is the checkable certificate used in place of
contractibility: a found collapse sequence replays independently, while a
failed search means only "not found within budget", never "not
collapsible".
"""

from __future__ import annotations

import itertools
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
        mv, fv = set(self.maximal.vertices), set(self.free_facet.vertices)
        if not (fv < mv and len(fv) == len(mv) - 1):
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
    maximal simplex (ids follow vertex order, so tuple order is
    ``GeoSimplex`` order), with each face's live cofaces one dimension up;
    ``free`` maps a face with one live coface to it.  Removing only free
    pairs keeps every face of a live simplex live."""

    def __init__(self, cx: GeoComplex):
        self.verts = cx.vertices()
        self.index = {v: i for i, v in enumerate(self.verts)}
        ids = {f for s in cx.maximal_simplexes() for k in range(1, len(s.vertices) + 1)
               for f in itertools.combinations([self.index[v] for v in s.vertices], k)}
        self.cofaces: dict[tuple[int, ...], set] = {s: set() for s in ids}
        self.live: set[tuple[int, ...]] = set()
        self.free: dict[tuple[int, ...], tuple[int, ...]] = {}
        for s in ids:
            self._link(s, True)

    def _link(self, s: tuple[int, ...], add: bool) -> None:
        """Add s to, or remove it from, the live set and its facets' cofaces."""
        (self.live.add if add else self.live.remove)(s)
        for i in range(len(s) if len(s) > 1 else 0):
            g = s[:i] + s[i + 1:]
            c = self.cofaces[g]
            (c.add if add else c.remove)(s)
            self.free.pop(g, None)
            if len(c) == 1:
                self.free[g] = next(iter(c))

    def collapse(self, t, f) -> None:
        self._link(t, False)
        self._link(f, False)

    def uncollapse(self, t, f) -> None:
        self._link(f, True)
        self._link(t, True)

    def free_pair(self, t: GeoSimplex, f: GeoSimplex):
        """(T, F) as id tuples if F is now free with coface T, else None."""
        tid, fid = (tuple(self.index.get(v) for v in s.vertices) for s in (t, f))
        if None in fid or self.free.get(fid) != tid:
            return None
        return tid, fid

    def geo(self, s: tuple[int, ...]) -> GeoSimplex:
        return GeoSimplex._raw(tuple(self.verts[i] for i in s))

    def sorted_pairs(self) -> list:
        return sorted((t, f) for f, t in self.free.items())


def free_faces(cx: GeoComplex) -> list[tuple[GeoSimplex, GeoSimplex]]:
    """All pairs (T, F) where F is a facet of exactly one simplex T."""
    table = _FaceTable(cx)
    return [(table.geo(t), table.geo(f)) for t, f in table.sorted_pairs()]


def elementary_collapse(cx: GeoComplex, t: GeoSimplex, f: GeoSimplex) -> GeoComplex:
    """Remove exactly {T, F}; errors unless (T, F) is a free pair."""
    if _FaceTable(cx).free_pair(t, f) is None:
        raise NotAnElementaryCollapse("not an elementary collapse")
    return GeoComplex(cx.simplexes - {t, f}, validate=False)


def find_collapse_sequence(cx: GeoComplex,
                           budget: int = 100_000) -> Optional[CollapseSequence]:
    """Depth-first search for a collapse down to a single vertex.

    Greedy on the lexicographically least free pair, backtracking on an
    explicit stack.  The budget counts nodes: each state that is not a
    single vertex and not yet visited costs one, and is memoized (by its
    exact set of live simplexes) only while the count is within budget.
    Past the budget no state is expanded, but open states still try their
    remaining free pairs, so a single vertex reached that way succeeds.  A
    budget of 0 finds nothing unless cx is a single vertex.  None means
    "not found within budget".
    """
    table = _FaceTable(cx)
    visited: set[frozenset] = set()
    nodes = 0
    path: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    stack: list = []  # per state on the path: iterator over its untried pairs
    while len(table.live) > 1:
        key = frozenset(table.live)
        pairs = []
        if key not in visited:
            nodes += 1
            if nodes <= budget:
                visited.add(key)
                pairs = table.sorted_pairs()
        stack.append(iter(pairs))
        while (pair := next(stack[-1], None)) is None:
            stack.pop()
            if not stack:
                return None
            table.uncollapse(*path.pop())
        path.append(pair)
        table.collapse(*pair)
    steps = tuple(CollapseStep(table.geo(t), table.geo(f)) for t, f in path)
    return CollapseSequence(steps, table.geo(table.live.pop()))


def replay(cx: GeoComplex, seq: CollapseSequence) -> bool:
    """Check, in linear time, that every step is a valid elementary collapse
    in order and the end state is the single terminal vertex."""
    table = _FaceTable(cx)
    for step in seq.steps:
        pair = table.free_pair(step.maximal, step.free_facet)
        if pair is None:
            return False
        table.collapse(*pair)
    return [table.geo(s) for s in table.live] == [seq.terminal]
