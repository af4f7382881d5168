"""Exact maximum matchings: one engine for each kind of graph.

General graphs go through breadth-first augmenting-path search with blossom
contraction (O(V^3)), one flag test per neighbour scanned, and Edmonds'
Hungarian-tree deletion: later searches skip a failed search's vertices.
Bipartite graphs go through Hopcroft-Karp (SIAM J. Comput. 1973) on the
sorted neighbour tuples, with one side a list of ids and the matching kept
in lists indexed by vertex. Its last search also yields the side's vertices
reached by alternating paths from its unmatched ones: the Hall deficiency
set, and the König cover of the independence solver. The same engine, with
both sides the same candidate set, gives the LP bound of that solver.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .budget import Budget, _BudgetClock
from .graphs import Bipartition, Graph, GraphError, Rows


class MatchingError(ValueError):
    """Raised when a matching fails validation against its host graph."""


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges of some host graph."""

    edges: frozenset[tuple[int, int]]

    @staticmethod
    def of(pairs: Iterable[tuple[int, int]]) -> "Matching":
        return Matching(frozenset((u, v) if u < v else (v, u) for u, v in pairs))

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(x for e in self.edges for x in e)

    def validate(self, host: Graph) -> None:
        n, adj = host.n, host.adj
        seen: set[int] = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                x = v if 0 <= u < n else u
                raise MatchingError(f"vertex {x} outside the host graph")
            row = adj[u]  # sorted, so bisect it as Graph.adjacent does
            i = bisect_left(row, v)
            if i == len(row) or row[i] != v:
                raise MatchingError(f"edge ({u}, {v}) is not in the host graph")
            if u in seen or v in seen:
                raise MatchingError(f"edge ({u}, {v}) reuses a matched vertex")
            seen.add(u)
            seen.add(v)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def max_matching(g: Graph, budget: Budget | None = None) -> Matching:
    """A maximum matching of ``g`` via blossom contraction.

    A search that fails leaves a Hungarian tree, and by Edmonds' lemma
    (*Paths, trees, and flowers*, 1965) none of its vertices lies on a later
    augmenting path, so they are deleted for the rest of the run: every
    later search skips them. A later search that entered the tree could only
    regrow part of it, without labelling anything outside it, so skipping it
    leaves every augmenting path found, and the matching, unchanged.
    Contracting a blossom walks only the vertices of the blossoms it merges,
    kept per blossom base for the current search, never the whole graph.
    A neighbour costs one flag test: it is outer just when it is in the
    tree (the root, the mates of inner vertices and what blossoms absorb),
    and only then compares bases, as any other vertex is its own base.

    Deterministic: greedy seeding and augmenting-path scans run in vertex-id
    order, so identical inputs yield identical matchings. Each exposed root
    searched from is one node of the ``budget``; running out raises
    :class:`BudgetExceededError`.
    """
    n, adj = g.n, g.adj
    mate = [-1] * n
    clock = _BudgetClock(budget)

    for v in range(n):
        if mate[v] == -1:
            for w in adj[v]:
                if mate[w] == -1:
                    mate[v] = w
                    mate[w] = v
                    break

    # search state, reset after each search only where that search labelled
    parent = [-1] * n
    base = list(range(n))
    in_tree = [False] * n
    dead = [False] * n

    def lowest_common_base(a: int, b: int) -> int:
        on_path = set()
        while True:
            a = base[a]
            on_path.add(a)
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if b in on_path:
                return b
            b = parent[mate[b]]

    def find_augmenting_from(root: int) -> tuple[int, list[int], list[int]]:
        """The exposed end of an augmenting path from ``root``, or -1 once its
        Hungarian tree is deleted; then the tree's and the inner vertices."""
        in_tree[root] = True
        queue, inner = [root], []
        members: dict[int, list[int]] = {}  # blossom base -> its vertices

        def contract(v: int, w: int) -> None:
            anchor = lowest_common_base(v, w)
            shrink = set()

            def mark_path(x: int, child: int) -> None:
                while base[x] != anchor:
                    shrink.add(base[x])
                    shrink.add(base[mate[x]])
                    parent[x] = child
                    child = mate[x]
                    x = parent[mate[x]]

            mark_path(v, w)
            mark_path(w, v)
            shrink.discard(anchor)  # its members are the list that grows
            # a vertex that is no blossom's base is the only one with itself
            # as base; the ones new to the queue join it in id order
            blossom = members.setdefault(anchor, [anchor])
            grown = []
            for b in shrink:
                for i in members.pop(b, (b,)):
                    base[i] = anchor
                    blossom.append(i)
                    if not in_tree[i]:
                        in_tree[i] = True
                        grown.append(i)
            grown.sort()
            queue.extend(grown)

        for v in queue:  # contract extends the queue as it grows
            for w in adj[v]:
                if in_tree[w]:
                    if base[w] != base[v]:
                        contract(v, w)
                elif parent[w] == -1 and not dead[w]:
                    parent[w] = v
                    inner.append(w)
                    x = mate[w]
                    if x == -1:
                        return w, queue, inner
                    in_tree[x] = True
                    queue.append(x)
        for v in queue + inner:
            dead[v] = True
        return -1, queue, inner

    for root in range(n):
        if mate[root] != -1:
            continue
        clock.tick()
        end, queue, inner = find_augmenting_from(root)
        while end != -1:
            prev = parent[end]
            next_start = mate[prev]
            mate[end] = prev
            mate[prev] = end
            end = next_start
        for v in queue:  # the only ones whose base or in_tree changed
            parent[v] = -1
            base[v] = v
            in_tree[v] = False
        for v in inner:
            parent[v] = -1

    return Matching(frozenset((v, w) for v, w in enumerate(mate) if w > v))


def brute_force_nu(g: Graph) -> int:
    """Exact matching number by exhaustive recursion; oracle for small graphs."""
    if g.n > 16:
        raise GraphError("brute-force matching is limited to 16 vertices")
    masks = g.adjacency_masks()

    @lru_cache(maxsize=None)
    def best(remaining: int) -> int:
        if remaining == 0:
            return 0
        low = remaining & (-remaining)
        v = low.bit_length() - 1
        value = best(remaining & ~low)  # v stays unmatched
        partners = masks[v] & remaining
        while partners:
            wbit = partners & (-partners)
            partners ^= wbit
            value = max(value, 1 + best(remaining & ~low & ~wbit))
        return value

    return best((1 << g.n) - 1)


def _hopcroft_karp(
    left: list[int], right: Iterable[int], rows: Rows, target: int | None = None
) -> tuple[int, list[int] | None]:
    """Maximum matching size between ``left`` and ``right`` along ``rows``
    (Hopcroft-Karp), and ``reach``, the left vertices that alternating
    paths reach from unmatched ones. ``reach`` is the part of the side that
    some maximum matching misses, so it does not depend on which maximum
    matching was found.

    ``rows`` is ``Graph.adj``, and a row may name vertices off the right
    side: ``mate_r[w]`` is -2 for those, -1 for a free right vertex and
    otherwise its left mate, so no dict is looked up. The two sides may
    share ids, as in the bipartite double cover, since left mates live in
    ``mate_l``. The greedy start matches each left vertex, in ``left``
    order, to its lowest free neighbour. Given a ``target``, the search
    stops once the matching reaches it, so the size is between
    ``min(target, nu)`` and nu, and ``reach`` is None."""
    n = len(rows)
    mate_r = [-2] * n
    for w in right:
        mate_r[w] = -1
    mate_l = [-1] * n
    size = 0
    for u in left:
        for w in rows[u]:
            if mate_r[w] == -1:
                mate_r[w] = u
                mate_l[u] = w
                size += 1
                break
    if target is not None and size >= target:
        return size, None

    while True:
        roots = [u for u in left if mate_l[u] == -1]
        dist = [-1] * n
        for u in roots:
            dist[u] = 0
        queue = roots[:]
        free_reachable = False
        for u in queue:
            d = dist[u] + 1
            for w in rows[u]:
                x = mate_r[w]
                if x == -1:
                    free_reachable = True
                elif x >= 0 and dist[x] < 0:
                    dist[x] = d
                    queue.append(x)
        if not free_reachable:
            return size, (queue if target is None else None)

        # one augmenting path per root along the BFS layers, by depth-first
        # search on an explicit stack, so no recursion limit bounds its
        # length. ``via`` holds the right vertex taken out of each stacked
        # left vertex but the last; a left vertex with no way on leaves the
        # layers for the phase
        for root in roots:
            if dist[root]:
                continue
            stack, via = [(root, iter(rows[root]))], []
            while stack:
                u, scan = stack[-1]
                for w in scan:
                    x = mate_r[w]
                    if x == -1 or (x >= 0 and dist[x] == dist[u] + 1):
                        via.append(w)
                        break
                else:
                    dist[u] = -1
                    stack.pop()
                    if via:
                        via.pop()
                    continue
                if x >= 0:
                    stack.append((x, iter(rows[x])))
                    continue
                for (a, _), b in zip(stack, via):
                    mate_l[a] = b
                    mate_r[b] = a
                size += 1
                if target is not None and size >= target:
                    return size, None
                break


def hall_witness(g: Graph, part: Bipartition) -> frozenset[int] | None:
    """A set S within the smaller class of ``part``, ``part_b`` on a tie,
    with |N(S)| < |S|, or None when that class saturates into the other.
    A strictly larger class never saturates, so this is the one Hall
    question a 2-colouring asks; :func:`_hopcroft_karp` takes either side.

    The witness is the canonical deficiency set: all vertices of the class
    that alternating paths reach from its unmatched ones under a maximum
    matching.
    """
    part.validate(g)
    small, big = sorted((part.part_b, part.part_r), key=len)  # stable: part_b on a tie
    _, reach = _hopcroft_karp(sorted(small), big, g.adj)
    if not reach:
        return None
    assert len(set().union(*(g.adj[u] for u in reach))) < len(reach)
    return frozenset(reach)
