"""Simple undirected graphs with dense 0-based vertex ids, plus the standard families.

Vertex ids are 0-based everywhere in the API; the text interchange format
(edge lists, DOT labels) is 1-based.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

#: Order cap for base graphs built through :func:`make_graph` / :func:`family`.
#: Derived (token) graphs are not subject to it.
MAX_BASE_ORDER = 64

#: Cap on the vertex count plus the edge count of a token graph, checked
#: before it is built. F_8(P_16), 64,350, is the largest the catalog uses.
MAX_TOKEN_GRAPH_SIZE = 1 << 22


class GraphError(ValueError):
    """Raised for malformed graph inputs."""


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    Edges are canonicalised to sorted ``(u, v)`` pairs with ``u < v``,
    duplicates collapsed. Adjacency is queryable in O(1). Instances are
    safe to share across threads; nothing mutates after construction.
    """

    __slots__ = ("n", "edges", "_adj", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        canon = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for order {n}")
            canon.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canon))
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(s) for s in adj)
        self._masks: tuple[int, ...] | None = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        """N[v]: the vertex together with its neighbors."""
        return self._adj[v] | {v}

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(len(self._adj[v]) for v in range(self.n))

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighborhoods as bitmasks (cached)."""
        if self._masks is None:
            masks = [0] * self.n
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._masks = tuple(masks)
        return self._masks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


@dataclass(frozen=True)
class Bipartition:
    """A 2-coloring of a graph's vertex set into classes ``part_b`` and ``part_r``.

    The convention that ``|part_b| <= |part_r|`` is recorded by
    :attr:`follows_convention`, never enforced.
    """

    part_b: frozenset[int]
    part_r: frozenset[int]

    @property
    def follows_convention(self) -> bool:
        return len(self.part_b) <= len(self.part_r)

    def side(self, name: str) -> frozenset[int]:
        if name == "b":
            return self.part_b
        if name == "r":
            return self.part_r
        raise ValueError(f"unknown side {name!r}; expected 'b' or 'r'")

    @staticmethod
    def other_side(name: str) -> str:
        if name not in ("b", "r"):
            raise ValueError(f"unknown side {name!r}; expected 'b' or 'r'")
        return "r" if name == "b" else "b"

    def validate(self, g: Graph) -> None:
        """Raise GraphError unless this is a valid bipartition of ``g``."""
        if self.part_b & self.part_r:
            raise GraphError("bipartition classes overlap")
        if self.part_b | self.part_r != frozenset(range(g.n)):
            raise GraphError("bipartition does not cover the vertex set")
        for u, v in g.edges:
            if (u in self.part_b) == (v in self.part_b):
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


def bipartition_of(g: Graph) -> Bipartition | None:
    """A 2-coloring if one exists, else None.

    Deterministic: the lowest-id vertex of each component goes to part_b.
    """
    color = [-1] * g.n  # 0 -> b, 1 -> r
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(g.neighbors(u)):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    part_b = frozenset(v for v in range(g.n) if color[v] == 0)
    part_r = frozenset(v for v in range(g.n) if color[v] == 1)
    return Bipartition(part_b=part_b, part_r=part_r)


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
