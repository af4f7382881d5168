"""Exact maximum independent sets and the recursive token-graph bounds.

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
class is returned when it already has that size. So a bipartite solve
builds no bitmask. Every other component goes to a bitmask branch-and-bound
on the graph's adjacency masks, on an explicit stack, so no recursion limit
bounds its depth: degree-0/degree-1 vertices are taken greedily (exact
reductions, found in the same scan that picks the branching vertex),
branching picks the busiest candidate vertex with the include branch first,
and a greedy clique cover bounds the search. The cover grows one clique at
a time by intersecting neighborhood masks, the partition first-fit would
build at O(1) mask operations per vertex. On a triangle-free component,
where each cover clique is a vertex or an edge, a node the cover cannot
prune also tries the LP bound: |cand| minus half the matching number of the
bipartite double cover of cand, the LP vertex-cover optimum (Nemhauser &
Trotter, 1975), from the same matching engine with cand on both sides. A
node whose size alone shows that neither bound can prune calls neither, and
the matching stops once it is large enough to prune. A stronger bound
prunes only subtrees that cannot beat the best set so far, so the search
returns the same set. The helpers are module functions, not closures, so a
solve leaves no reference cycles behind. A brute-force enumerator backs the
solver as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import compress
from typing import Callable

from .budget import Budget, BudgetExceededError, _BudgetClock  # noqa: F401 (the error is re-exported)
from .graphs import Bipartition, Graph, GraphError, Rows, delete_vertices
from .graphs import _component_masks  # traced by bench/layers.py
from .matching import hall_witness
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


@dataclass(frozen=True)
class BoundsPair:
    """Lower and upper bounds bracketing an independence number."""

    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"bounds crossed: {self.lower} > {self.upper}")



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
    least remaining degree (ties to the lowest id). ``comp`` must be closed
    under adjacency. Returns the set, in the order taken, and the degree
    sum of ``comp``.

    ``heaps[d]`` is a min-heap of ids pushed when their live degree became
    d; ``deg[v]`` is that degree, -1 once v is removed, so an entry is stale
    unless ``deg`` still matches its heap, and stale entries are dropped as
    they surface. Each edge pushes at most one entry: O((n + m) log n) on
    ``adj``, no bitmask work per edge. ``deg`` is scratch of ``len(adj)``
    entries touched only at ``comp``, allocated once per solve.
    """
    verts = sorted(comp)
    heaps: list[list[int]] = [[] for _ in verts]
    degree_sum = 0
    for v in verts:  # ids ascend, so each list is already a heap
        d = len(adj[v])
        deg[v] = d
        degree_sum += d
        heaps[d].append(v)
    chosen = []
    low = 0
    live = len(verts)
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


def _clique_cover_bound(cand: int, masks: tuple[int, ...]) -> int:
    """Number of cliques in a greedy clique cover of ``cand``.

    The cliques are built one at a time: a clique opens at the lowest
    remaining vertex, and ``grow``, the remaining vertices adjacent to every
    member so far, shrinks by one mask intersection per vertex that joins.
    That is the partition first-fit builds in id order (a vertex joins the
    first clique whose members it all sees), at O(1) mask operations per
    vertex instead of one subset test per open clique.
    """
    count = 0
    while cand:
        low = cand & (-cand)
        cand ^= low
        grow = masks[low.bit_length() - 1] & cand
        while grow:
            low = grow & (-grow)
            cand ^= low
            grow &= masks[low.bit_length() - 1]
        count += 1
    return count


def _solve_component(
    comp: list[int], odd: bool, side: list[int], g: Graph, deg: list[int], clock: _BudgetClock
) -> list[int]:
    if len(comp) == 1:
        return comp
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
        bits = _branch(sum(1 << v for v in comp), sum(1 << v for v in best), masks, adj, clock)
        return _bit_list(bits)
    # König: beta = |comp| - nu. When neither the seed nor the larger class
    # has that size, the complement of the König cover does: the reached
    # left vertices and the right vertices none of them sees
    clock.tick()
    one, two = classes
    cls = one if len(one) >= len(two) else two
    if len(cls) > len(best):
        best = cls
    nu, reach = _bipartite_matching_size(one, two, adj)
    if len(best) == len(comp) - nu:
        return best
    seen = set().union(*(adj[u] for u in reach))
    return reach + [w for w in two if w not in seen]


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
    cand: int, best_mask: int, masks: tuple[int, ...], adj: Rows, clock: _BudgetClock
) -> int:
    """The best of ``best_mask`` and every independent set inside ``cand``.

    Depth-first on an explicit stack of ``(cand, cur_mask, cur_size)``
    nodes: a node pushes its exclude continuation before its include child,
    so the include branch is searched first. A node the clique cover cannot
    prune tries the LP bound, |cand| minus the LP vertex-cover optimum, when
    ``cand`` is triangle-free, which every node then is. There each cover
    clique is a vertex or an edge, so the LP bound is never weaker; it
    prunes only nodes that cannot beat ``best_mask``, so the search returns
    the same set either way. As nu <= |cand| and cover cliques have at most
    2 vertices, both bounds are at least cur_size + |cand| // 2 there: a
    node where that beats ``best_size`` calls neither, and the matching is
    asked only to reach the size that prunes."""
    best_size = best_mask.bit_count()
    free = _triangle_free(cand, masks)
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
            continue
        if not free or cur_size + cand.bit_count() // 2 <= best_size:
            if cur_size + _clique_cover_bound(cand, masks) <= best_size:
                continue
            if free:
                # prunes iff (nu + 1) // 2 >= cur_size + |cand| - best_size
                target = 2 * (cur_size + cand.bit_count() - best_size) - 1
                live = _bit_list(cand)
                nu, _ = _bipartite_matching_size(live, live, adj, target)
                if nu >= target:
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
    comps, side = _component_masks(g.adj)
    chosen: list[int] = []
    for comp, odd in comps:
        chosen += _solve_component(comp, odd, side, g, deg, clock)
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


BetaOracle = Callable[[Graph, int], int]


def _beta_with_conventions(oracle: BetaOracle, h: Graph, j: int) -> int:
    # Degenerate token counts: the empty token set is a single vertex (j == 0),
    # oversized token sets give an empty graph, the full set gives one vertex.
    if j == 0:
        return 1
    if h.n == 0 or j > h.n:
        return 0
    if j == h.n:
        return 1
    return oracle(h, j)


def recursive_bounds(
    g: Graph,
    k: int,
    beta_oracle: BetaOracle = token_independence_number,
) -> BoundsPair:
    """Bracket the independence number of the k-token graph by recursion on
    vertex deletion.

    Lower: the best single-vertex split, beta over tokens containing v plus
    beta over tokens avoiding N[v]. Upper: the floor of the averaged
    one-smaller-token bound, sum over v of beta(F_{k-1}(G - v)) divided by k.
    """
    n = g.n
    if not 2 <= k <= n - 1:
        raise GraphError(f"k={k} out of range for recursion on order {n}")
    lower = 0
    total = 0
    for v in range(n):
        g_minus_v, _ = delete_vertices(g, (v,))
        g_minus_nv, _ = delete_vertices(g, g.closed_neighborhood(v))
        with_v = _beta_with_conventions(beta_oracle, g_minus_v, k - 1)
        without_nv = _beta_with_conventions(beta_oracle, g_minus_nv, k)
        lower = max(lower, with_v + without_nv)
        total += with_v
    return BoundsPair(lower=lower, upper=total // k)


def vertex_transitive_bound(
    g: Graph,
    k: int,
    w: int,
    beta_oracle: BetaOracle = token_independence_number,
) -> int:
    """Upper bound on the k-token independence number of a vertex-transitive
    graph, from a single vertex deletion.

    Only regularity is checked here; full vertex-transitivity is the
    caller's assertion (it holds for the cycles and complete graphs this is
    used on).
    """
    n = g.n
    if not 2 <= k <= n - 2:
        raise GraphError(f"k={k} out of range for order {n}")
    if not 0 <= w < n:
        raise GraphError(f"vertex {w} outside the graph")
    degs = set(g.degree_sequence())
    if len(degs) > 1:
        raise GraphError("graph is not regular, hence not vertex-transitive")
    g_minus_w, _ = delete_vertices(g, (w,))
    smaller = _beta_with_conventions(beta_oracle, g_minus_w, k - 1)
    same = _beta_with_conventions(beta_oracle, g_minus_w, k)
    return min((n * smaller) // k, (n * same) // (n - k))
