"""Exact maximum independent sets.

One breadth-first search over the sorted neighbour tuples, the one
``graphs._component_masks`` that :func:`.graphs.bipartition_of` runs too,
finds the connected components and 2-colours them. Components are solved
independently, each from a greedy seed (least remaining degree first) that
runs on the same tuples with one min-heap of ids per remaining degree:
O((n + m) log n) list and heap operations, no bitmask work per edge. On a tree
component the seed is maximum and is returned as it is. Any other
2-colorable component is closed by König's theorem: the bipartite matching
engine of :mod:`.matching`, run between its two classes on the same tuples,
gives its matching number nu, so beta = |V| - nu, and the complement of the
König cover is a maximum independent set; the seed or the larger color
class is returned when it already has that size. The classes go to the
engine in id order, not BFS order: on F_7(C_14) and F_7(K_{7,7}) over ten
random labellings its greedy start then leaves a median of 124 and 43 left
vertices free instead of 208 and 190. So a bipartite solve
builds no bitmask. Every other component goes to a bitmask branch-and-bound
on the graph's adjacency masks, on an explicit stack, so no recursion limit
bounds its depth: degree-0/degree-1 vertices are taken greedily (exact
reductions, found in the same scan that picks the branching vertex),
branching picks the busiest candidate vertex with the include branch first,
and each node is pruned by one bound, picked by the component. With a
triangle it is a greedy clique cover, and a node that misses the prune by
exactly one tests the cover's cliques for inconsistency by failed literals
and unit propagation, MaxSAT-style inference (Li & Quan, 2010).
Triangle-free, it is the LP bound: |cand| minus half the matching number of
the bipartite double cover of cand, the LP vertex-cover optimum (Nemhauser
& Trotter, 1975), from the same matching engine with cand on both sides.
Either prunes only subtrees that cannot beat the best set so far, so the
search returns the set the cover alone finds. A regular component with a
triangle also gets a bound on the whole component from its maximum cliques
(Johnson, 1962), and the search stops once its best set meets it: J(9,3),
J(8,4) and J(13,3) close at their first node, with the same sets. The
matchings of one solve share one scratch, so each costs time in its own
sides, not the graph's. The helpers are module functions, not closures, so
a solve leaves no reference cycles behind. A brute-force enumerator backs
the solver as an independent oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress

from .budget import Budget, BudgetExceededError, _BudgetClock  # noqa: F401 (the error is re-exported)
from .graphs import Bipartition, Graph, GraphError, Rows
from .graphs import _component_masks  # traced by bench/layers.py
from .matching import _Scratch, _hopcroft_karp_scratch, hall_witness
from .matching import _hopcroft_karp as _bipartite_matching_size  # traced by bench/layers.py
from .tokens import TokenGraph, token_graph


@dataclass(frozen=True)
class IndependentSet:
    """A set of pairwise nonadjacent vertices of some host graph."""

    vertices: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def validate(self, host: Graph) -> None:
        for v in self.vertices:
            if not 0 <= v < host.n:
                raise GraphError(f"vertex {v} outside the host graph")
            if not self.vertices.isdisjoint(host.adj[v]):
                raise GraphError(f"vertex {v} has a neighbor inside the set")

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)


#: Binary digits to the bytes 0 and 1, to select ids with.
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bit_list(mask: int) -> list[int]:
    """The ids of the set bits of ``mask``, ascending."""
    digits = bin(mask)[:1:-1].encode().translate(_DIGITS)
    return list(compress(range(len(digits)), digits))


def _two_color(
    comp: list[int], odd: bool, side: list[int]
) -> tuple[list[int], list[int]] | None:
    """The two color classes of a component, the class of its lowest vertex
    first, or None if it has an odd cycle."""
    if odd:
        return None
    return [v for v in comp if not side[v]], [v for v in comp if side[v]]


def _greedy_seed(comp: list[int], adj: Rows, deg: list[int]) -> tuple[list[int], int]:
    """Deterministic maximal independent set: repeatedly take the vertex of
    least remaining degree (ties to the lowest id). ``comp`` must be
    ascending and closed under adjacency. Returns the set, in the order
    taken, and the degree sum of ``comp``.

    ``heaps[d]`` is a min-heap of ids pushed when their live degree became
    d; ``deg[v]`` is that degree, -1 once v is removed, so an entry is stale
    unless ``deg`` still matches its heap, and stale entries are dropped as
    they surface. Each edge pushes at most one entry: O((n + m) log n) on
    ``adj``, no bitmask work per edge. ``deg`` is scratch of ``len(adj)``
    entries touched only at ``comp``, allocated once per solve.
    """
    heaps: list[list[int]] = [[] for _ in comp]
    degree_sum = 0
    for v in comp:  # ids ascend, so each list is already a heap
        d = len(adj[v])
        deg[v] = d
        degree_sum += d
        heaps[d].append(v)
    chosen = []
    low = 0
    live = len(comp)
    while live:
        heap = heaps[low]
        if not heap:
            low += 1
            continue
        v = heappop(heap)
        if deg[v] != low:
            continue
        chosen.append(v)
        deg[v] = -1
        gone = []
        for u in adj[v]:
            if deg[u] >= 0:
                deg[u] = -1
                gone.append(u)
        live -= len(gone) + 1
        for u in gone:
            for x in adj[u]:
                d = deg[x]
                if d > 0:
                    d -= 1
                    deg[x] = d
                    heappush(heaps[d], x)
                    if d < low:
                        low = d
    return chosen, degree_sum


def _clique_cover_bound(cand: int, masks: tuple[int, ...], room: int) -> int:
    """Number of cliques in a greedy clique cover of ``cand``, less one when
    that is ``room + 1`` and failed literals show the cliques inconsistent.

    The cliques are built one at a time: a clique opens at the lowest
    remaining vertex, and ``grow``, the remaining vertices adjacent to every
    member so far, shrinks by one mask intersection per vertex that joins.
    That is the partition first-fit builds in id order (a vertex joins the
    first clique whose members it all sees), at O(1) mask operations per
    vertex instead of one subset test per open clique.

    An independent set of ``cand`` meets each clique at most once, so the
    count bounds it. ``room`` is the size a set must exceed to matter: when
    the count misses it by exactly one, :func:`_inconsistent` tests whether
    some set can meet every clique, and if none can the bound is ``room``.
    The test is made only there, where it decides a prune.
    """
    cliques = []
    while cand:
        rest = cand
        low = cand & (-cand)
        cand ^= low
        grow = masks[low.bit_length() - 1] & cand
        while grow:
            low = grow & (-grow)
            cand ^= low
            grow &= masks[low.bit_length() - 1]
        cliques.append(rest ^ cand)
    count = len(cliques)
    if count == room + 1 and _inconsistent(cliques, masks):
        return room
    return count


def _inconsistent(cliques: list[int], masks: tuple[int, ...]) -> bool:
    """Whether no independent set meets every one of the disjoint
    ``cliques``, shown by failed literals (Li & Quan, AAAI 2010).

    A vertex v of a clique K fails when taking it forces, by unit
    propagation, a clique with no vertex left: every other clique loses
    N(v), and a clique left with one vertex forces that vertex, whose
    neighbours leave the rest in turn. A set meeting every clique meets K
    at some v and keeps each forced vertex, so if every vertex of some K
    fails there is no such set. The cliques are tried last-built first.
    """
    for i in range(len(cliques) - 1, -1, -1):
        others = cliques[:i] + cliques[i + 1:]
        m = cliques[i]
        while m:
            low = m & (-m)
            m ^= low
            if not _propagation_fails(masks[low.bit_length() - 1], others, masks):
                break
        else:
            return True
    return False


def _propagation_fails(out: int, cliques: list[int], masks: tuple[int, ...]) -> bool:
    """Whether excluding ``out`` from ``cliques`` and unit propagation then
    empty a clique. The single vertices left in a round are forced together,
    so two of them that are adjacent fail too."""
    while True:
        live = []
        units = 0
        for c in cliques:
            c &= ~out
            if c & (c - 1):
                live.append(c)
            elif c:
                units |= c
            else:
                return True
        if not units:
            return False
        out = 0
        m = units
        while m:
            low = m & (-m)
            m ^= low
            out |= masks[low.bit_length() - 1]
        if out & units:
            return True
        cliques = live


def _solve_component(
    comp: list[int], odd: bool, side: list[int], g: Graph, deg: list[int], scratch: _Scratch,
    clock: _BudgetClock,
) -> list[int]:
    if len(comp) == 1:
        return comp
    # in id order, the König engine's greedy start leaves few vertices free
    comp.sort()
    adj = g.adj
    best, degree_sum = _greedy_seed(comp, adj, deg)
    if degree_sum == 2 * (len(comp) - 1):
        # a tree: a leaf lies in some maximum independent set and what
        # remains is a forest, so the least-degree greedy is maximum
        clock.tick()
        return best
    classes = _two_color(comp, odd, side)
    if classes is None:
        masks = g.adjacency_masks()
        bits = _branch(
            sum(1 << v for v in comp), sum(1 << v for v in best), masks, adj, scratch, clock
        )
        return _bit_list(bits)
    # König: beta = |comp| - nu. When neither the seed nor the larger class
    # has that size, the complement of the König cover does: the reached
    # left vertices and the right vertices none of them sees
    clock.tick()
    one, two = classes
    cls = one if len(one) >= len(two) else two
    if len(cls) > len(best):
        best = cls
    nu, reach = _bipartite_matching_size(one, two, adj, None, scratch)
    if len(best) == len(comp) - nu:
        return best
    seen = set().union(*(adj[u] for u in reach))
    return reach + [w for w in two if w not in seen]


#: The clique enumeration of :func:`_clique_family_bound` gives up after this
#: many nodes per edge of the component. J(7,3) to J(12,4) take 1.9 to 2.9
#: at the paper's labels, and at most 3.2 relabelled.
_FAMILY_NODES_PER_EDGE = 4


def _clique_family_bound(comp: int, masks: tuple[int, ...]) -> int | None:
    """|F| // r for F the maximum cliques of the regular ``comp`` and r the
    fewest of them any vertex lies in; None if ``comp`` is not regular, if
    some vertex lies in none, or if the enumeration passes its node limit.

    An independent set meets each clique of F at most once, and each of its
    vertices lies in at least r of them, so r times its size is at most |F|
    (Johnson, 1962). On J(n,k) with n >= 2k this is tight wherever a Steiner
    system S(k-1,k,n) exists. Each clique is enumerated once, as the
    ascending sequence of its ids: a node is a clique with the later
    vertices that see all of it, dropped once it cannot reach the largest
    size found. The enumeration stops after ``_FAMILY_NODES_PER_EDGE`` nodes
    per edge, so a graph with exponentially many maximum cliques, such as a
    cocktail-party graph, costs time in its edges only.
    """
    verts = _bit_list(comp)
    degree = masks[verts[0]].bit_count()
    if any(masks[v].bit_count() != degree for v in verts):
        return None
    budget = _FAMILY_NODES_PER_EDGE * len(verts) * degree // 2
    size, cliques = 0, []
    stack = [(0, 0, comp)]
    while stack:
        budget -= 1
        if budget < 0:
            return None
        clique, count, later = stack.pop()
        if not later:
            if count > size:
                size, cliques = count, [clique]
            elif count == size:
                cliques.append(clique)
            continue
        if count + later.bit_count() < size:
            continue
        for v in reversed(_bit_list(later)):  # the lowest is popped first
            stack.append((clique | 1 << v, count + 1, masks[v] & later >> v + 1 << v + 1))
    times = Counter(v for clique in cliques for v in _bit_list(clique))
    fewest = min(times[v] for v in verts)
    return len(cliques) // fewest if fewest else None


def _triangle_free(comp: int, masks: tuple[int, ...]) -> bool:
    """Whether ``comp`` induces no triangle: no edge uv of it has a common
    neighbor inside it."""
    for v in _bit_list(comp):
        nb = masks[v] & comp
        for u in _bit_list(nb):
            if masks[u] & nb:
                return False
    return True


def _branch(
    cand: int, best_mask: int, masks: tuple[int, ...], adj: Rows, scratch: _Scratch,
    clock: _BudgetClock,
) -> int:
    """The best of ``best_mask`` and every independent set inside ``cand``.

    Depth-first on an explicit stack of ``(cand, cur_mask, cur_size)``
    nodes: a node pushes its exclude continuation before its include child,
    so the include branch is searched first. With a triangle, each node's
    bound is the clique cover, told the room left to prune, so a cover that
    misses it by one is tested for inconsistency. Triangle-free, which every
    node then is, it is the LP bound, |cand| minus the LP vertex-cover
    optimum, which prunes every node a cover of vertices and edges would.
    As nu <= |cand|, that is at least cur_size + |cand| // 2: a node where
    this beats ``best_size`` skips the matching, which is asked only to
    reach the size that prunes. The reductions and the branching vertex
    depend on ``cand`` alone, and a valid bound prunes only nodes that
    cannot beat ``best_mask``, so the search returns the set the cover
    alone finds. Profiled, an F_4(C_11) solve is about 65 % matching engine
    and 27 % this loop, mostly its reduction walk; the ``_bit_list`` decodes
    are not in its top eight entries, so the candidate sets stay bitmasks.

    With a triangle, the first node the cover does not prune asks
    :func:`_clique_family_bound` for a bound on the whole component, once,
    and the search returns as soon as ``best_size`` meets it: at once if
    the seed does, else at the improvement that does. No strictly larger
    set exists then, and the search replaces its set only on strict
    improvement, so it returns the set the full search returns."""
    best_size = best_mask.bit_count()
    free = _triangle_free(cand, masks)
    # the component, until its root bound is asked for; no set reaches stop
    # until that bound replaces it
    root, stop = cand, cand.bit_count() + 1
    stack = [(cand, 0, 0)]
    while stack:
        cand, cur_mask, cur_size = stack.pop()
        clock.tick()
        # exact reductions: isolated vertices join, degree-1 vertices join
        # and evict their single neighbor. A pass that reduces nothing saw
        # every degree of the final ``cand``, so it picks the branching
        # vertex: the busiest, ties to the lowest id
        progressed = True
        while progressed:
            progressed = False
            pick, pick_deg = 0, 1
            m = cand
            while m:
                low = m & (-m)
                m ^= low
                if not cand & low:
                    continue
                nb = masks[low.bit_length() - 1] & cand
                if nb & (nb - 1) == 0:
                    cand &= ~(low | nb)
                    cur_mask |= low
                    cur_size += 1
                    progressed = True
                elif not progressed:
                    d = nb.bit_count()
                    if d > pick_deg:
                        pick, pick_deg = low, d
        if cand == 0:
            if cur_size > best_size:
                best_mask, best_size = cur_mask, cur_size
                if best_size >= stop:
                    return best_mask
            continue
        room = best_size - cur_size
        if not free:
            if _clique_cover_bound(cand, masks, room) <= room:
                continue
            if root:
                stop = _clique_family_bound(root, masks) or stop
                root = 0
                if best_size >= stop:
                    return best_mask
        elif cand.bit_count() // 2 <= room:
            # prunes iff (nu + 1) // 2 >= |cand| - room
            live = _bit_list(cand)
            target = 2 * (len(live) - room) - 1
            if _bipartite_matching_size(live, live, adj, target, scratch)[0] >= target:
                continue
        stack.append((cand & ~pick, cur_mask, cur_size))
        inside = cand & ~(masks[pick.bit_length() - 1] | pick)
        stack.append((inside, cur_mask | pick, cur_size + 1))
    return best_mask


def max_independent_set(g: Graph, budget: Budget | None = None) -> IndependentSet:
    """A maximum independent set, exactly.

    Deterministic: the branching rule, reductions and seeding are all fixed,
    so the reported set (not just its size) is stable across runs. Raises
    :class:`BudgetExceededError` rather than ever returning a suboptimal set.
    """
    if g.n == 0:
        return IndependentSet(frozenset())
    clock = _BudgetClock(budget)
    deg = [-1] * g.n
    scratch = _hopcroft_karp_scratch(g.n)
    comps, side = _component_masks(g.adj)
    chosen: list[int] = []
    for comp, odd in comps:
        chosen += _solve_component(comp, odd, side, g, deg, scratch, clock)
    result = IndependentSet(frozenset(chosen))
    result.validate(g)
    return result


def independence_number(g: Graph, budget: Budget | None = None) -> int:
    return max_independent_set(g, budget).size


def brute_force_mis(g: Graph) -> int:
    """Exact independence number by exhaustive enumeration with mask pruning.

    Oracle for cross-checking the branch-and-bound solver; limited to 26
    vertices.
    """
    if g.n > 26:
        raise GraphError("brute-force independent set is limited to 26 vertices")
    return _brute_force_rec((1 << g.n) - 1, g.adjacency_masks())


def _brute_force_rec(cand: int, masks: tuple[int, ...]) -> int:
    if cand == 0:
        return 0
    low = cand & (-cand)
    rest = cand ^ low
    nb = masks[low.bit_length() - 1] & cand
    if nb == 0:
        return 1 + _brute_force_rec(rest, masks)
    return max(_brute_force_rec(rest, masks), 1 + _brute_force_rec(rest & ~nb, masks))


def beta_via_saturation(t: TokenGraph, classes: Bipartition) -> int | None:
    """Independence number of a token graph through the saturation shortcut.

    If the smaller parity class saturates into the larger one, the larger
    class size is the exact answer; otherwise no conclusion (None).
    """
    if hall_witness(t.graph, classes) is None:
        return max(len(classes.part_b), len(classes.part_r))
    return None


def token_independence_number(g: Graph, k: int, budget: Budget | None = None) -> int:
    """Exact independence number of the k-token graph of ``g``."""
    return max_independent_set(token_graph(g, k).graph, budget).size

