"""Exact maximum matchings: one engine for each kind of graph.

General graphs go through breadth-first augmenting-path search with blossom
contraction (O(V^3)) and Edmonds' Hungarian-tree deletion: every later
search skips the vertices of a search that failed. Bipartite graphs, as
bitmasks with one side marked, go through Hopcroft-Karp (SIAM J. Comput.
1973), whose last search also yields the side's vertices reached by
alternating paths from its unmatched ones: the Hall deficiency set, and the
König cover of the independence solver.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .budget import Budget, _BudgetClock
from .graphs import Bipartition, Graph, GraphError

#: Sorted neighbour tuples, one per vertex: ``Graph.adj``.
Rows = tuple[tuple[int, ...], ...]


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
        seen: set[int] = set()
        for u, v in self.edges:
            if not host.adjacent(u, v):
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

    Deterministic: greedy seeding and augmenting-path scans run in vertex-id
    order, so identical inputs yield identical matchings. Each exposed root
    searched from is one node of the ``budget``; running out raises
    :class:`BudgetExceededError`.
    """
    n = g.n
    adj = g.adj
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

    def find_augmenting_from(root: int, queue: list[int]) -> int:
        """Grow an alternating tree from ``root``; return an exposed endpoint
        of an augmenting path, or -1. ``queue`` keeps every vertex put in
        the tree; the others it labelled are their mates and the endpoint."""
        in_tree[root] = True
        queue.append(root)
        head = 0
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

        while head < len(queue):
            v = queue[head]
            head += 1
            for w in adj[v]:
                if dead[w] or base[v] == base[w] or mate[v] == w:
                    continue
                if w == root or (mate[w] != -1 and parent[mate[w]] != -1):
                    contract(v, w)
                elif parent[w] == -1:
                    parent[w] = v
                    if mate[w] == -1:
                        return w
                    in_tree[mate[w]] = True
                    queue.append(mate[w])
        return -1

    for root in range(n):
        if mate[root] != -1:
            continue
        clock.tick()
        queue: list[int] = []
        end = find_augmenting_from(root, queue)
        labelled = queue + [mate[v] for v in queue if mate[v] != -1]
        if end == -1:
            for v in labelled:
                dead[v] = True
        else:
            labelled.append(end)
        while end != -1:
            prev = parent[end]
            next_start = mate[prev]
            mate[end] = prev
            mate[prev] = end
            end = next_start
        for v in labelled:
            parent[v] = -1
            base[v] = v
            in_tree[v] = False

    return Matching.of((v, mate[v]) for v in range(n) if mate[v] > v)


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


def _bit_list(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & (-mask)
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _neighborhood(mask: int, masks: tuple[int, ...]) -> int:
    """The union of the neighborhoods of the vertices in ``mask``."""
    out = 0
    while mask:
        low = mask & (-mask)
        mask ^= low
        out |= masks[low.bit_length() - 1]
    return out


def _hopcroft_karp(
    cand: int,
    masks: tuple[int, ...],
    left_mask: int,
    target: int | None = None,
    rows: Rows | None = None,
) -> tuple[int, int | None]:
    """Maximum matching size of the bipartite subgraph induced on ``cand``,
    left side ``cand & left_mask`` (Hopcroft-Karp), and ``reach``, the mask
    of left vertices that alternating paths reach from unmatched ones.
    ``reach`` is the part of the side that some maximum matching misses, so
    it does not depend on which maximum matching was found.

    The greedy start matches each left vertex to its lowest free neighbor
    from the masks. The BFS phases read sorted neighbour lists: a caller
    whose ``cand`` is closed under adjacency passes the graph's own ``adj``
    as ``rows``; otherwise the lists are decoded from the masks, and only
    once a BFS phase follows. Given a ``target``, the search stops once the
    matching reaches it, so the size is between ``min(target, nu)`` and nu,
    and ``reach`` is None."""
    left = _bit_list(cand & left_mask)
    free = cand & ~left_mask
    pair: dict[int, int] = {}
    for u in left:
        m = masks[u] & free
        if m:
            wbit = m & (-m)
            free ^= wbit
            w = wbit.bit_length() - 1
            pair[u] = w
            pair[w] = u
    size = len(pair) // 2
    if target is not None and size >= target:
        return size, None
    adj = rows if rows is not None else {u: _bit_list(masks[u] & cand) for u in left}

    while True:
        dist = {u: 0 for u in left if u not in pair}
        queue = deque(dist)
        free_reachable = False
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                x = pair.get(w)
                if x is None:
                    free_reachable = True
                elif x not in dist:
                    dist[x] = dist[u] + 1
                    queue.append(x)
        if not free_reachable:
            return size, (sum(1 << u for u in dist) if target is None else None)

        for u in [u for u in left if u not in pair]:
            if u in dist and _augment(u, adj, pair, dist):
                size += 1
                if target is not None and size >= target:
                    return size, None


def _augment(
    root: int, adj: Rows | dict[int, list[int]], pair: dict[int, int], dist: dict[int, int]
) -> bool:
    """One augmenting path from ``root`` along the BFS layers, by depth-first
    search on an explicit stack, so no recursion limit bounds its length.
    ``via`` holds the right vertex taken out of each stacked left vertex but
    the last; a left vertex with no way on leaves ``dist`` for the phase."""
    stack, via = [(root, iter(adj[root]))], []
    while stack:
        u, scan = stack[-1]
        for w in scan:
            x = pair.get(w)
            if x is None:
                via.append(w)
                for (a, _), b in zip(stack, via):
                    pair[a] = b
                    pair[b] = a
                return True
            if dist.get(x) == dist[u] + 1:
                via.append(w)
                stack.append((x, iter(adj[x])))
                break
        else:
            del dist[u]
            stack.pop()
            if via:
                via.pop()
    return False


def hall_witness(g: Graph, part: Bipartition, side: str) -> frozenset[int] | None:
    """A set S within ``side`` with |N(S)| < |S|, or None when the side saturates.

    The witness is the canonical deficiency set: all side vertices reachable
    by alternating paths from the unmatched ones under a maximum matching.
    """
    part.validate(g)
    masks = g.adjacency_masks()
    side_mask = sum(1 << v for v in part.side(side))
    _, reach = _hopcroft_karp((1 << g.n) - 1, masks, side_mask, rows=g.adj)
    if not reach:
        return None
    assert _neighborhood(reach, masks).bit_count() < reach.bit_count()
    return frozenset(_bit_list(reach))

