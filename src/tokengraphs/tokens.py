"""Token graphs: the derived graph on all k-subsets of a base graph's vertices.

Two k-subsets are adjacent exactly when their symmetric difference is an edge
of the base graph. Subsets are identified with dense vertex ids through a
colexicographic combinadic codec, so derived graphs plug into every solver
that works on plain graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .graphs import MAX_TOKEN_GRAPH_SIZE, Bipartition, Graph, GraphError


class SubsetCodec:
    """Bijection between k-subsets of ``{0..n-1}`` and ranks ``0..C(n,k)-1``.

    Ranking is strictly monotone in colexicographic subset order, so vertex
    ids of derived graphs are stable across runs.
    """

    __slots__ = ("n", "k", "size")

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise GraphError(f"subset size {k} out of range for ground set of {n}")
        self.n = n
        self.k = k
        self.size = comb(n, k)

    def rank(self, subset: Iterable[int]) -> int:
        elems = sorted(subset)
        if len(elems) != self.k or len(set(elems)) != self.k:
            raise GraphError(f"expected {self.k} distinct elements, got {elems}")
        if elems and not (0 <= elems[0] and elems[-1] < self.n):
            raise GraphError(f"subset {elems} out of range for ground set of {self.n}")
        return sum(comb(c, i + 1) for i, c in enumerate(elems))

    def unrank(self, r: int) -> tuple[int, ...]:
        if not 0 <= r < self.size:
            raise GraphError(f"rank {r} out of range 0..{self.size - 1}")
        out = []
        nn, kk = self.n, self.k
        while kk > 0:
            nn -= 1
            c = comb(nn, kk)
            if r >= c:
                r -= c
                out.append(nn)
                kk -= 1
        return tuple(reversed(out))

    def __repr__(self) -> str:
        return f"SubsetCodec(n={self.n}, k={self.k})"


@dataclass(frozen=True)
class TokenGraph:
    """The k-token graph of ``base``: derived graph plus its subset codec."""

    base: Graph
    k: int
    graph: Graph
    codec: SubsetCodec

    def __repr__(self) -> str:
        return f"TokenGraph(base_n={self.base.n}, k={self.k}, n={self.graph.n}, m={self.graph.edge_count})"


def token_graph(g: Graph, k: int) -> TokenGraph:
    """Build the k-token graph of ``g``.

    Edges are generated by combining each base edge [u, v] with every
    (k-1)-subset R avoiding u and v, never by comparing all subset pairs.
    One sweep over x per R gives the colex rank of R + {x} for every x
    outside R: a prefix sum over the elements of R below x and a suffix sum
    over those above it, each element that x passes moving its term from
    one to the other. Each base edge outside R then costs one lookup per
    endpoint, so the cost is C(n, k-1) * n plus the output size. Isolated
    derived vertices are kept. Raises :class:`GraphError` before building
    anything when the vertex plus edge count exceeds
    :data:`MAX_TOKEN_GRAPH_SIZE`.
    """
    n = g.n
    if not 1 <= k <= n - 1:
        raise GraphError(f"token count k={k} must satisfy 1 <= k <= {n - 1}")
    size = comb(n, k) + g.edge_count * comb(n - 2, k - 1)
    if size > MAX_TOKEN_GRAPH_SIZE:
        raise GraphError(f"{size} token vertices and edges, over the cap of {MAX_TOKEN_GRAPH_SIZE}")
    codec = SubsetCodec(n, k)
    # binom[j][x] = C(x, j): an element x at position j - 1 of a sorted
    # subset contributes C(x, j) to its colex rank
    binom = [[comb(x, j) for x in range(n)] for j in range(k + 1)]
    below = [[u for u in g.adj[x] if u < x] for x in range(n)]
    rank = [0] * n  # rank of R + {x}, or -1 for x in R
    edges = []
    for rest in combinations(range(n), k - 1):
        stops = rest + (n,)
        low, high = 0, sum(binom[i + 2][r] for i, r in enumerate(rest))
        p, stop = 0, stops[0]
        for x in range(n):
            if x == stop:
                low += binom[p + 1][x]
                high -= binom[p + 2][x]
                p += 1
                stop = stops[p]
                rank[x] = -1
                continue
            b = rank[x] = low + binom[p + 1][x] + high
            # colex rank grows with x, so a lower neighbor ranks lower
            for u in below[x]:
                a = rank[u]
                if a >= 0:
                    edges.append((a, b))
    derived = Graph(codec.size, edges)
    # Each derived edge arises from exactly one base edge, so none collapse.
    assert derived.edge_count == g.edge_count * comb(n - 2, k - 1)
    return TokenGraph(base=g, k=k, graph=derived, codec=codec)


@dataclass(frozen=True)
class ComplementMap:
    """Rank-to-rank bijection ``A -> V \\ A`` between k- and (n-k)-token graphs,
    certified edge-preserving in both directions."""

    source: TokenGraph
    target: TokenGraph
    table: tuple[int, ...]


def complement_map(t: TokenGraph) -> ComplementMap:
    """The set-complement isomorphism from ``t`` onto the (n-k)-token graph.

    When k == n-k the map is an automorphism of the same derived graph.
    """
    n = t.base.n
    target = token_graph(t.base, n - t.k) if t.k != n - t.k else t
    full = frozenset(range(n))
    table = tuple(
        target.codec.rank(full - set(t.codec.unrank(r))) for r in range(t.codec.size)
    )
    for a, b in t.graph.edges:
        if not target.graph.adjacent(table[a], table[b]):
            raise AssertionError("complement map failed to preserve an edge")
    if t.graph.edge_count != target.graph.edge_count:
        raise AssertionError("complement map is not onto the target edge set")
    return ComplementMap(source=t, target=target, table=table)


def token_bipartition(t: TokenGraph, base: Bipartition) -> Bipartition:
    """Parity classes of a token graph over a bipartite base.

    A token vertex A goes to part_r when it meets the base's part_r an odd
    number of times, else to part_b. For a valid base bipartition this
    2-colors the token graph.
    """
    base.validate(t.base)
    r_side = base.part_r
    odd, even = [], []
    for rank in range(t.codec.size):
        subset = t.codec.unrank(rank)
        hits = sum(1 for x in subset if x in r_side)
        (odd if hits % 2 else even).append(rank)
    return Bipartition(part_b=frozenset(even), part_r=frozenset(odd))


def validate_token_matching(base: Graph, k: int, edges: Iterable[tuple[int, int]]) -> None:
    """Check that rank pairs form a matching of the k-token graph of ``base``.

    Works straight off the codec (symmetric differences must be base edges),
    so no derived graph needs to be materialised.
    """
    codec = SubsetCodec(base.n, k)
    seen: set[int] = set()
    for a, b in edges:
        if a == b:
            raise GraphError(f"degenerate matching edge ({a}, {b})")
        aa, bb = set(codec.unrank(a)), set(codec.unrank(b))
        diff = sorted(aa ^ bb)
        if len(diff) != 2 or not base.adjacent(diff[0], diff[1]):
            raise GraphError(f"ranks ({a}, {b}) are not adjacent in the token graph")
        if a in seen or b in seen:
            raise GraphError(f"matching edge ({a}, {b}) reuses a vertex")
        seen.add(a)
        seen.add(b)


def token_graph_to_json(t: TokenGraph) -> dict:
    """JSON-able export: subsets are sorted and 1-based, edges are rank pairs."""
    return {
        "n": t.base.n,
        "k": t.k,
        "vertices": [[x + 1 for x in t.codec.unrank(r)] for r in range(t.codec.size)],
        "edges": [[a, b] for a, b in t.graph.edges],
    }


def subset_label(subset: Sequence[int]) -> str:
    """Human-readable 1-based label like ``{1,3,4}``."""
    return "{" + ",".join(str(x + 1) for x in sorted(subset)) + "}"


def token_graph_to_dot(t: TokenGraph, name: str = "F") -> str:
    """DOT export with subset labels on the derived vertices."""
    from .graphs import to_dot

    labels = {r: subset_label(t.codec.unrank(r)) for r in range(t.codec.size)}
    return to_dot(t.graph, labels=labels, name=name)
