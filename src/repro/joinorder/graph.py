"""Join graphs: the input to join-order enumeration.

A :class:`JoinGraph` records base relations (with cardinalities and row
widths) and join edges (with selectivities).  The cardinality of joining
two relation sets follows the classic independence model:

``|A |><| B| = |A| * |B| * prod(selectivity of every edge between A and B)``

which is what both the DP optimizer and the exhaustive enumerator use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List

from ..core.summation import left_sum


@dataclass(frozen=True)
class Relation:
    """A base relation of the join graph."""

    name: str
    rows: float
    width: float = 16.0     #: bytes per row of this relation's contribution

    def __post_init__(self) -> None:
        if self.rows < 0:
            raise ValueError(f"{self.name}: negative cardinality")
        if self.width <= 0:
            raise ValueError(f"{self.name}: width must be > 0")


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join predicate between two relations."""

    left: str
    right: str
    selectivity: float

    def __post_init__(self) -> None:
        if not 0 < self.selectivity <= 1:
            raise ValueError("selectivity must be in (0, 1]")
        if self.left == self.right:
            raise ValueError("self-join edges are not supported")

    @property
    def key(self) -> FrozenSet[str]:
        return frozenset((self.left, self.right))


@dataclass
class JoinGraph:
    """Relations + join edges, with cardinality estimation helpers."""

    relations: Dict[str, Relation] = field(default_factory=dict)
    edges: List[JoinEdge] = field(default_factory=list)

    def add_relation(self, name: str, rows: float,
                     width: float = 16.0) -> Relation:
        if name in self.relations:
            raise ValueError(f"duplicate relation {name!r}")
        relation = Relation(name=name, rows=rows, width=width)
        self.relations[name] = relation
        return relation

    def add_edge(self, left: str, right: str, selectivity: float) -> JoinEdge:
        for name in (left, right):
            if name not in self.relations:
                raise ValueError(f"unknown relation {name!r}")
        edge = JoinEdge(left=left, right=right, selectivity=selectivity)
        if any(existing.key == edge.key for existing in self.edges):
            raise ValueError(f"duplicate edge {left}-{right}")
        self.edges.append(edge)
        return edge

    # ------------------------------------------------------------------
    @property
    def relation_names(self) -> List[str]:
        return sorted(self.relations)

    def neighbors(self, name: str) -> List[str]:
        result = []
        for edge in self.edges:
            if edge.left == name:
                result.append(edge.right)
            elif edge.right == name:
                result.append(edge.left)
        return sorted(result)

    def connected(self, names: Iterable[str]) -> bool:
        """Is the induced subgraph on ``names`` connected?"""
        names = set(names)
        if not names:
            return False
        start = next(iter(names))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for neighbor in self.neighbors(current):
                if neighbor in names and neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return seen == names

    def crossing_edges(
        self, left: Iterable[str], right: Iterable[str]
    ) -> List[JoinEdge]:
        """Edges with one endpoint in each set."""
        left_set, right_set = set(left), set(right)
        return [
            edge for edge in self.edges
            if (edge.left in left_set and edge.right in right_set)
            or (edge.right in left_set and edge.left in right_set)
        ]

    # ------------------------------------------------------------------
    # cardinality model
    # ------------------------------------------------------------------
    def set_cardinality(self, names: Iterable[str]) -> float:
        """Estimated cardinality of joining all relations in ``names``.

        Applies every internal edge's selectivity once (independence).
        """
        names = set(names)
        rows = 1.0
        # sorted(): float multiplication is order-sensitive, and string
        # set order varies across processes under hash randomization
        for name in sorted(names):
            rows *= self.relations[name].rows
        for edge in self.edges:
            if edge.left in names and edge.right in names:
                rows *= edge.selectivity
        return rows

    def set_width(self, names: Iterable[str]) -> float:
        """Output row width of the joined set (sum of member widths)."""
        # sorted(): callers pass sets; keep the float sum order-stable
        return left_sum(self.relations[name].width for name in sorted(names))
