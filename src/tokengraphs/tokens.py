"""Token graphs: the derived graph on all k-subsets of a base graph's vertices.

Two k-subsets are adjacent exactly when their symmetric difference is an edge
of the base graph. Subsets are identified with dense vertex ids through a
colexicographic combinadic codec, so derived graphs plug into every solver
that works on plain graphs. Token edges and parity classes come from bitwise
operations on membership lanes, one int per base vertex with a 0/1 byte per
token rank, built and combined with no Python work per token. A process
builds the lanes of each (n, k) once and keeps the 64 pairs used last.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import comb
from typing import Iterable, Sequence

from .graphs import MAX_TOKEN_GRAPH_SIZE, Bipartition, Graph, GraphError, to_dot


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


@lru_cache(maxsize=64)
def _membership_lanes(n: int, k: int) -> tuple[int, ...]:
    """One lane per base vertex x: byte r is 1 when the token of colex rank r
    holds x. In colex order the j-subsets with largest element t are the first
    C(t, j-1) (j-1)-subsets plus t, so lane x over the j-subsets is C(x, j)
    zeros, C(x, j-1) ones, then for each t > x the first C(t, j-1) bytes of
    lane x over the (j-1)-subsets. Level j needs only the j-subsets of
    {0..n-k+j-1}: n * C(n+1, k) bytes in all.

    Cached, one immutable entry per (n, k) shared by every caller, of
    n * C(n, k) bytes: 2.5 KB at the catalog's largest, 206 KB for F_8(P_16).
    The catalog's checks ask for lanes 1,637 times over 46 pairs."""
    lanes = [bytes(x) + b"\1" + bytes(n - k - x) for x in range(n - k + 1)]
    for j in range(2, k + 1):
        prefix = [comb(t, j - 1) for t in range(n - k + j)]
        lanes = [
            bytes(comb(x, j)) + b"\1" * prefix[x] + b"".join([lanes[x][:p] for p in prefix[x + 1:]])
            for x in range(len(prefix))
        ]
    return tuple(int.from_bytes(lane, "little") for lane in lanes)


def token_graph(g: Graph, k: int) -> TokenGraph:
    """Build the k-token graph of ``g``.

    Each base edge uw with u < w pairs the tokens that hold u but not w
    with those that hold w but not u. Both lists come out in rank order
    from one mask of two membership lanes each, and the i-th of one is
    joined to the i-th of the other; every pair goes straight into the
    neighbour lists of its two ends. Besides the lanes and the output, the
    cost is O(m * C(n, k)) bytes of C-level work, with no edge list and no
    per-subset Python loop. Every row holds the same int object for a rank.
    Isolated derived vertices are kept. Raises :class:`GraphError` before
    building anything when the vertex plus edge count exceeds
    :data:`MAX_TOKEN_GRAPH_SIZE`.
    """
    n = g.n
    if n < 2:
        raise GraphError(f"a base of order {n} has no token graph: it needs 1 <= k <= n - 1")
    if not 1 <= k <= n - 1:
        raise GraphError(f"token count k={k} must satisfy 1 <= k <= {n - 1}")
    size = comb(n, k) + g.edge_count * comb(n - 2, k - 1)
    if size > MAX_TOKEN_GRAPH_SIZE:
        raise GraphError(f"{size} token vertices and edges, over the cap of {MAX_TOKEN_GRAPH_SIZE}")
    codec = SubsetCodec(n, k)
    lanes = _membership_lanes(n, k)
    ids = list(range(codec.size))
    rows: list[list[int]] = [[] for _ in ids]
    for u, w in g.edges:
        lu, lw = lanes[u], lanes[w]
        # A -> A - u + w keeps colex order on the tokens holding u but not w
        # (two of them differ only outside {u, w}), and it raises the rank.
        for a, b in zip(compress(ids, (lu & ~lw).to_bytes(codec.size, "little")),
                        compress(ids, (lw & ~lu).to_bytes(codec.size, "little"))):
            rows[a].append(b)
            rows[b].append(a)
    # Each derived edge arises from exactly one base edge, so no row holds
    # a duplicate.
    return TokenGraph(base=g, k=k, graph=Graph._from_rows(rows), codec=codec)


def token_bipartition(t: TokenGraph, base: Bipartition) -> Bipartition:
    """Parity classes of a token graph over a bipartite base.

    A token vertex A goes to part_r when it meets the base's part_r an odd
    number of times, else to part_b. For a valid base bipartition this
    2-colors the token graph.
    """
    base.validate(t.base)
    parity, size = 0, t.codec.size
    for x, lane in enumerate(_membership_lanes(t.base.n, t.k)):
        if x in base.part_r:
            parity ^= lane
    odd = frozenset(compress(range(size), parity.to_bytes(size, "little")))
    return Bipartition(part_b=frozenset(range(size)) - odd, part_r=odd)


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
    labels = {r: subset_label(t.codec.unrank(r)) for r in range(t.codec.size)}
    return to_dot(t.graph, labels=labels, name=name)
