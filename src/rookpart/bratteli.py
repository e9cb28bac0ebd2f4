"""Graded branching graphs and path counting.

One constructor, ``GradedGraph(kind, levels, vertices, step)``, builds every
graph from its vertex lists and a per-kind edge rule ``step(i, shape)``, which
lists the (upper shape, label) pairs leaving a shape at level index i.  Three
families are built here:

* ``rook_tower(n)``: levels 0..n, level m holding all shapes of size <= m;
  a shape steps up to itself and to its one-box additions;
* ``rhat(n, kmax)``: levels 1..kmax of nonempty shapes of size <= min(k, n);
  an upward step either adds a box or moves a box (remove one corner, add one
  box).  Move steps carry one parallel edge per removable corner, labelled by
  the intermediate shape, since each corner contributes its own multiplicity;
* ``ihat(tmax)``: half-integer levels 1/2, 1, 3/2, ... for the propagating
  tower, with the single starting vertex at level 1/2.

Paths record the traversed edge labels, so parallel edges stay distinguishable.
``as_level`` and ``levels_upto`` are the one home of the half-integer levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .combinat import (
    Partition,
    corner_set,
    move_steps,
    partitions_upto,
    shape_key,
    tableau_shape,
)
from .limits import check

HALF = Fraction(1, 2)


def as_level(t) -> Fraction:
    try:
        t = Fraction(t)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a positive half-integer level: {t}") from None
    if t <= 0 or t % HALF != 0:
        raise ValueError(f"not a positive half-integer level: {t}")
    return t


def levels_upto(t) -> list[Fraction]:
    """The tower levels 1/2, 1, 3/2, ... up to and including t."""
    return [HALF * i for i in range(1, int(2 * as_level(t)) + 1)]


@dataclass(frozen=True)
class GraphPath:
    levels: tuple[Fraction, ...]
    shapes: tuple[Partition, ...]
    vias: tuple[Partition | None, ...]  # one entry per step

    def __post_init__(self):
        if len(self.levels) != len(self.shapes) or len(self.vias) != max(
            len(self.shapes) - 1, 0
        ):
            raise ValueError("malformed path")


class GradedGraph:
    """Levels of shape lists plus labelled edges between consecutive levels.

    ``step(i, shape)`` lists the (upper shape, label) pairs of the edges from
    a shape at level index i; upper shapes missing from level i+1 are dropped.
    """

    def __init__(self, kind: str, levels, vertices, step):
        self.kind = kind
        self.levels = tuple(Fraction(l) for l in levels)
        self.vertices = tuple(tuple(sorted(vs, key=shape_key)) for vs in vertices)
        self._index = [
            {shape: i for i, shape in enumerate(vs)} for vs in self.vertices
        ]
        self._level_index = {level: i for i, level in enumerate(self.levels)}
        # edges[i]: dict (u_idx at level i, v_idx at level i+1) -> tuple of labels
        edges = []
        for i in range(len(self.levels) - 1):
            upper = self._index[i + 1]
            e: dict[tuple[int, int], tuple] = {}
            for u, shape in enumerate(self.vertices[i]):
                for high, label in step(i, shape):
                    if high in upper:
                        key = (u, upper[high])
                        e[key] = e.get(key, ()) + (label,)
            edges.append(e)
        self.edges = tuple(edges)
        # _out[i][u]: the (v_idx, labels) pairs leaving u, sorted by v_idx
        self._out = [[[] for _ in self.vertices[i]] for i in range(len(edges))]
        for i, e in enumerate(edges):
            for (u, v), labels in sorted(e.items()):
                self._out[i][u].append((v, labels))

    def level_index(self, level) -> int:
        """The index of a level given as an int, a Fraction or text that
        ``fractions.Fraction`` reads.  An int or a Fraction hashes as its
        value, so only text is read into a Fraction first."""
        li = self._level_index.get(level)
        if li is None:
            level = Fraction(level)
            li = self._level_index.get(level)
            if li is None:
                raise ValueError(f"no level {level} in graph")
        return li

    def vertex_index(self, level, shape: Partition) -> int:
        li = self.level_index(level)
        try:
            return self._index[li][tuple(shape)]
        except KeyError:
            raise ValueError(f"no vertex {shape} at level {level}") from None

    def multiplicity(self, level, shape_low, shape_high) -> int:
        li = self.level_index(level)
        u = self.vertex_index(level, shape_low)
        v = self.vertex_index(self.levels[li + 1], shape_high)
        return len(self.edges[li].get((u, v), ()))

    def is_simple(self) -> bool:
        return all(len(labels) == 1 for e in self.edges for labels in e.values())

    def count_paths(self, src, dst) -> int:
        """Number of paths, counting parallel edges separately."""
        (src_level, src_shape), (dst_level, dst_shape) = src, dst
        li = self.level_index(src_level)
        lj = self.level_index(dst_level)
        if lj < li:
            return 0
        counts = {self.vertex_index(src_level, src_shape): 1}
        for step in range(li, lj):
            nxt: dict[int, int] = {}
            for (u, v), labels in self.edges[step].items():
                if u in counts:
                    nxt[v] = nxt.get(v, 0) + counts[u] * len(labels)
            counts = nxt
        return counts.get(self.vertex_index(dst_level, dst_shape), 0)

    def enumerate_paths(self, src, dst) -> list[GraphPath]:
        """All labelled paths from src to dst, counted first against the "path
        enumeration" limit."""
        check("path enumeration", self.count_paths(src, dst))
        (src_level, src_shape), (dst_level, dst_shape) = src, dst
        li = self.level_index(src_level)
        lj = self.level_index(dst_level)
        start = self.vertex_index(src_level, src_shape)
        goal = self.vertex_index(dst_level, dst_shape)
        out: list[GraphPath] = []

        def walk(step, u, shapes, vias):
            if step == lj:
                if u == goal:
                    out.append(
                        GraphPath(
                            tuple(self.levels[li : lj + 1]), tuple(shapes), tuple(vias)
                        )
                    )
                return
            for v, labels in self._out[step][u]:
                for label in labels:
                    walk(
                        step + 1,
                        v,
                        shapes + [self.vertices[step + 1][v]],
                        vias + [label],
                    )

        walk(li, start, [self.vertices[li][start]], [])
        return out

    def to_dot(self) -> str:
        lines = [f"graph {self.kind} {{", "  rankdir=TB;"]

        def node_id(li, shape):
            label = ",".join(map(str, shape)) if shape else "empty"
            return f'"L{self.levels[li]}|{label}"'

        for li, vs in enumerate(self.vertices):
            ordered = sorted(vs, key=shape_key)
            names = " ".join(node_id(li, s) for s in ordered)
            lines.append(f"  {{ rank=same; {names} }}")
        for li, e in enumerate(self.edges):
            for (u, v), labels in sorted(e.items()):
                attr = f" [label={len(labels)}]" if len(labels) > 1 else ""
                lines.append(
                    f"  {node_id(li, self.vertices[li][u])} -- "
                    f"{node_id(li + 1, self.vertices[li + 1][v])}{attr};"
                )
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "levels": [str(l) for l in self.levels],
            "vertices": [
                [",".join(map(str, s)) for s in vs] for vs in self.vertices
            ],
            "edges": [
                sorted([u, v, len(labels)] for (u, v), labels in e.items())
                for e in self.edges
            ],
        }


def rook_tower(n: int) -> GradedGraph:
    """Branching graph of the rook-monoid tower: level m holds all shapes of
    size <= m; a shape at level m+1 joins itself and its one-box removals."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    check("rook tower", n)

    def step(m, nu):
        return [(lam, None) for lam in corner_set(nu, "plus_eq", m + 1)]

    return GradedGraph("rook", range(n + 1), [partitions_upto(m) for m in range(n + 1)], step)


def rhat(n: int, kmax: int) -> GradedGraph:
    """Tensor-step graph: level k holds the nonempty shapes of size up to
    min(k, n); a step adds a box (label None) or moves a box (one labelled
    edge per removable corner)."""
    if n < 1 or kmax < 1:
        raise ValueError("n and kmax must be positive")
    check("tensor-step shapes", min(n, kmax))
    check("tensor-step graph", _rhat_vertices(n, kmax))
    vertices = [[s for s in partitions_upto(min(k, n)) if s] for k in range(1, kmax + 1)]

    def step(i, lam):
        moves = [(mu, omega) for omega, mu in move_steps(lam)]
        return moves + [(mu, None) for mu in corner_set(lam, "plus_n", n)]

    return GradedGraph("rhat", range(1, kmax + 1), vertices, step)


def _rhat_vertices(n: int, kmax: int) -> int:
    """The vertices of ``rhat(n, kmax)``, counted from partition numbers
    without listing a shape."""
    m = min(n, kmax)
    counts = [1] + [0] * m  # partitions of 0..m, built up part by part
    for part in range(1, m + 1):
        for r in range(part, m + 1):
            counts[r] += counts[r - part]
    upto = list(accumulate(counts[1:]))  # nonempty shapes of size <= 1..m
    return sum(upto) + (kmax - m) * upto[-1]


def ihat(tmax) -> GradedGraph:
    """Branching graph of the totally propagating tower, on half-integer levels.

    Level 1/2 is the single vertex (); an integer level k holds the nonempty
    shapes of size <= k and level k+1/2 holds all shapes of size <= k.  Going
    from k to k+1/2 keeps the shape or removes a box; going from k+1/2 to k+1
    adds a box.
    """
    check("propagating tower", as_level(tmax))
    levels = levels_upto(tmax)
    vertices = [
        [s for s in partitions_upto(int(lv)) if s or lv.denominator == 2] for lv in levels
    ]

    def step(i, shape):
        if levels[i].denominator == 1:
            return [(nu, None) for nu in corner_set(shape, "minus_eq")]
        return [(lam, None) for lam in corner_set(shape, "plus_n", int(levels[i + 1]))]

    return GradedGraph("ihat", levels, vertices, step)


def tableau_to_path(tab, n: int) -> GraphPath:
    """The rook_tower path of an n-standard tableau: the shape at level m
    holds the entries <= m."""
    shapes = []
    for m in range(n + 1):
        sub = tuple(
            count for count in (sum(1 for e in row if e <= m) for row in tab) if count
        )
        shapes.append(sub)
    if shapes[-1] != tableau_shape(tab):
        raise ValueError("entries exceed n")
    return GraphPath(
        tuple(Fraction(m) for m in range(n + 1)),
        tuple(shapes),
        (None,) * n,
    )
