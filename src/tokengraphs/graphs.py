"""Simple undirected graphs with dense 0-based vertex ids, plus the standard families.

A graph stores one adjacency, a sorted neighbour tuple per vertex; its edge
tuple and bitmasks are derived when first asked for. The one breadth-first
search that finds components and 2-colours them lives here: it gives
:func:`bipartition_of`, and the independence solver reads its components.
Vertex ids are 0-based everywhere in the API; the text interchange format
(edge lists, DOT labels) is 1-based.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterable, Iterator, Sequence

#: Order cap for base graphs built through :func:`make_graph` / :func:`family`.
#: Derived (token) graphs are not subject to it.
MAX_BASE_ORDER = 64

#: Cap on the vertex count plus the edge count of a token graph, checked
#: before it is built. F_8(P_16), 64,350, is the largest the catalog uses.
MAX_TOKEN_GRAPH_SIZE = 1 << 22

#: Sorted neighbour tuples, one per vertex: ``Graph.adj``.
Rows = tuple[tuple[int, ...], ...]


class GraphError(ValueError):
    """Raised for malformed graph inputs."""


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    The one stored adjacency is ``adj``: for each vertex, the sorted tuple of
    its neighbours, duplicate edges collapsed. Everything else is derived on
    first use and cached: ``edges``, the sorted ``(u, v)`` pairs with
    ``u < v``, and ``adjacency_masks``. The solvers read ``adj`` directly, so
    a token graph that is only matched never builds the others. Instances
    are safe to share across threads; a cache filled twice holds equal
    values. ``_freeze`` sorts and stores neighbour lists: ``__init__`` runs
    it after checking its edges and collapsing duplicates, and
    ``tokens.token_graph`` on the lists it fills, which hold none.
    """

    __slots__ = ("n", "adj", "edge_count", "_edges", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for order {n}")
            rows[u].append(v)
            rows[v].append(u)
        for i, row in enumerate(rows):
            if len(set(row)) != len(row):
                rows[i] = list(set(row))
        self._freeze(rows)

    @classmethod
    def _from_rows(cls, rows: list[list[int]]) -> Graph:
        """Unchecked: each edge must be in the lists of both of its ends,
        once."""
        g = cls.__new__(cls)
        g._freeze(rows)
        return g

    def _freeze(self, rows: list[list[int]]) -> None:
        for row in rows:
            row.sort()
        self.n = len(rows)
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, rows))
        self.edge_count: int = sum(map(len, self.adj)) // 2
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._masks: tuple[int, ...] | None = None

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as sorted ``(u, v)`` pairs with ``u < v`` (cached)."""
        if self._edges is None:
            self._edges = tuple(
                (u, v) for u, row in enumerate(self.adj) for v in row[bisect_right(row, u):]
            )
        return self._edges

    def degree(self, v: int) -> int:
        """The number of neighbours of v. Raises :class:`GraphError` if v
        is not a vertex."""
        self._check_vertex(v)
        return len(self.adj[v])

    def adjacent(self, u: int, v: int) -> bool:
        """Whether uv is an edge, by bisection of u's sorted neighbours.
        Raises :class:`GraphError` if u or v is not a vertex."""
        self._check_vertex(u)
        self._check_vertex(v)
        row = self.adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        """N[v]: the vertex together with its neighbors. Raises
        :class:`GraphError` if v is not a vertex."""
        self._check_vertex(v)
        return frozenset(self.adj[v]) | {v}

    def _check_vertex(self, v: int) -> None:
        # a negative id would index the rows from the end
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} outside 0..{self.n - 1}")

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(map(len, self.adj))

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighborhoods as bitmasks (cached)."""
        if self._masks is None:
            masks = []
            for row in self.adj:
                mask = 0
                for v in row:
                    mask |= 1 << v
                masks.append(mask)
            self._masks = tuple(masks)
        return self._masks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class Bipartition:
    """A 2-coloring of a graph's vertex set into classes ``part_b`` and ``part_r``."""

    part_b: frozenset[int]
    part_r: frozenset[int]

    def validate(self, g: Graph) -> None:
        """Raise GraphError unless this is a valid bipartition of ``g``.

        Reads ``g.adj``, so no edge tuple is built; rows are scanned in id
        order, so the edge named is the first in ``g.edges`` that fails."""
        if self.part_b & self.part_r:
            raise GraphError("bipartition classes overlap")
        if self.part_b | self.part_r != frozenset(range(g.n)):
            raise GraphError("bipartition does not cover the vertex set")
        for u, row in enumerate(g.adj):
            in_b = u in self.part_b
            for v in row:
                if (v in self.part_b) == in_b:
                    raise GraphError(f"edge ({u}, {v}) does not cross the bipartition")


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a base graph, collapsing duplicate edges and rejecting self-loops."""
    if n > MAX_BASE_ORDER:
        raise GraphError(f"base graphs are capped at {MAX_BASE_ORDER} vertices")
    return Graph(n, edges)


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least 1 vertex")
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs at least 1 vertex")
    return make_graph(n, combinations(range(n), 2))


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """K_{m,n} with the m-vertex class first (ids 0..m-1), then the n-vertex class."""
    if m < 1 or n < 1:
        raise GraphError("complete bipartite graph needs both parts nonempty")
    return make_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def star_graph(n: int) -> Graph:
    """K_{1,n}: center vertex 0 plus n leaves."""
    return complete_bipartite_graph(1, n)


def matching_graph(m: int, s: int) -> Graph:
    """m independent edges (2i, 2i+1) plus s isolated vertices, s in {0, 1}."""
    if m < 1:
        raise GraphError("matching graph needs at least 1 edge")
    if s not in (0, 1):
        raise GraphError("isolated-vertex count s must be 0 or 1")
    return make_graph(2 * m + s, [(2 * i, 2 * i + 1) for i in range(m)])


_FAMILIES = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 1),
    "complete": (complete_graph, 1),
    "complete_bipartite": (complete_bipartite_graph, 2),
    "star": (star_graph, 1),
    "matching_graph": (matching_graph, 2),
}


def family(kind: str, params: Sequence[int]) -> Graph:
    """Canonical generator dispatch: path, cycle, complete, complete_bipartite,
    star, matching_graph."""
    try:
        builder, arity = _FAMILIES[kind]
    except KeyError:
        raise GraphError(f"unknown graph family {kind!r}") from None
    if len(params) != arity:
        raise GraphError(f"family {kind!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)


def delete_vertices(g: Graph, remove: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the surviving vertices, densely relabeled.

    Returns ``(subgraph, kept)`` where ``kept[new_id] == old_id``.
    """
    removed = set(remove)
    if not removed <= set(range(g.n)):
        raise GraphError("vertices to delete must belong to the graph")
    kept = tuple(v for v in range(g.n) if v not in removed)
    new_id = {old: i for i, old in enumerate(kept)}
    edges = [
        (new_id[u], new_id[v])
        for u, v in g.edges
        if u not in removed and v not in removed
    ]
    return Graph(len(kept), edges), kept


def _component_masks(adj: Rows) -> tuple[list[tuple[list[int], bool]], list[int]]:
    """Components and 2-colouring from one BFS over ``adj``: each component
    in order of its lowest vertex, as its vertex list in BFS order from that
    vertex with a flag set when some edge joins two vertices of one BFS
    parity (an odd cycle), and ``side``, the BFS depth parity of every
    vertex, 0 at each component's lowest vertex."""
    side = [-1] * len(adj)
    comps = []
    for root in range(len(adj)):
        if side[root] >= 0:
            continue
        side[root] = 0
        comp = [root]
        odd = False
        for u in comp:
            s = side[u] ^ 1
            for w in adj[u]:
                t = side[w]
                if t < 0:
                    side[w] = s
                    comp.append(w)
                elif t != s:
                    odd = True
        comps.append((comp, odd))
    return comps, side


def bipartition_of(g: Graph) -> Bipartition | None:
    """A 2-coloring if one exists, else None.

    Deterministic: the lowest-id vertex of each component goes to part_b.
    """
    comps, side = _component_masks(g.adj)
    if any(odd for _, odd in comps):
        return None
    return Bipartition(
        part_b=frozenset(v for v, s in enumerate(side) if not s),
        part_r=frozenset(compress(range(g.n), side)),
    )


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with a fixed seed; each pair becomes an edge independently."""
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return make_graph(n, edges)


def to_edge_list_text(g: Graph) -> str:
    """Serialize as ``"n m"`` then one ``"u v"`` line per edge, 1-based."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _int_pair(row: list[str], what: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in row)
    except ValueError:  # not two fields, or not integers
        raise GraphError(f"bad {what}: {' '.join(row)!r}") from None
    return a, b


def parse_edge_list_text(text: str) -> Graph:
    """Inverse of :func:`to_edge_list_text`; blank lines are ignored."""
    rows: Iterator[list[str]] = (line.split() for line in text.splitlines() if line.strip())
    try:
        header = next(rows)
    except StopIteration:
        raise GraphError("empty edge-list input") from None
    n, m = _int_pair(header, "edge-list header 'n m'")
    edges = []
    for row in rows:
        u, v = _int_pair(row, "edge line")
        edges.append((u - 1, v - 1))
    if len(edges) != m:
        raise GraphError(f"header promised {m} edges, found {len(edges)}")
    return make_graph(n, edges)


def to_dot(g: Graph, labels: dict[int, str] | None = None, name: str = "G") -> str:
    """DOT text for visual inspection; default labels are 1-based ids."""
    label = labels.__getitem__ if labels is not None else (lambda v: str(v + 1))
    lines = [f"graph {name} {{"]
    lines.extend(f'  "{label(v)}";' for v in range(g.n))
    lines.extend(f'  "{label(u)}" -- "{label(v)}";' for u, v in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
