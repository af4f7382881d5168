"""Constructive witnesses: theorem 1's matching by one swap rule, the
isolated tokens of a matching base, the alternating-layer independent set
of a 2-token odd cycle, and the extremal bipartite witness graphs of
lemmas 5 and 6, from one builder for both.

Each constructor takes the token graph it certifies, reads the base and k
from it, validates its output on it and raises unless the size is the one
``formulas`` gives, so a successful return is itself a certificate.
"""

from __future__ import annotations

from itertools import combinations, compress

from .formulas import beta_cycle_f2, class_order_predicate, isolated_token_count, nu_token_formula
from .graphs import Bipartition, Graph, GraphError, cycle_graph, make_graph, matching_graph
from .independence import IndependentSet
from .matching import Matching
from .tokens import TokenGraph, _membership_lanes


# ---------------------------------------------------------------------------
# matchings


def theorem1_matching(t: TokenGraph, base_matching: Matching) -> Matching:
    """A matching of the token graph ``t`` achieving the guaranteed size,
    from a perfect or almost perfect matching of its base.

    Each token is paired with its swap along the first matched edge, in
    sorted order, that it meets exactly once. The swap keeps the token's
    relation to every earlier edge, so the rule is an involution, and the
    tokens it leaves unpaired meet every matched edge twice or not at all.
    It is the proof's recursion unrolled: the swap family along one matched
    edge, then the same rule on the tokens that meet that edge evenly.
    """
    n, k = t.base.n, t.k
    base_matching.validate(t.base)
    if 2 * base_matching.size not in (n, n - 1):
        raise GraphError("base matching must be perfect or almost perfect")
    lanes, size = _membership_lanes(n, k), t.codec.size
    ids = range(size)
    pairs: list[tuple[int, int]] = []
    seen = 0  # lane mask of the tokens an earlier matched edge paired
    for u, w in sorted(base_matching.edges):
        lu, lw = lanes[u], lanes[w]
        # as in token_graph, A -> A - u + w keeps rank order, and it keeps
        # membership of the earlier edges, so seen cuts both lists alike
        pairs += zip(compress(ids, (lu & ~lw & ~seen).to_bytes(size, "little")),
                     compress(ids, (lw & ~lu & ~seen).to_bytes(size, "little")))
        seen |= lu ^ lw
    result = Matching.of(pairs)
    if result.size != nu_token_formula(n, k):
        raise AssertionError("theorem 1 matching is not of the bound's size")
    result.validate(t.graph)
    return result


def isolated_tokens(t: TokenGraph) -> frozenset[frozenset[int]]:
    """All isolated vertices of the token graph ``t`` of ``matching_graph(m, s)``.

    Even k: the endpoints of each k/2-subset of the matched pairs. Odd k
    with an uncovered vertex: those endpoint sets plus the uncovered vertex.
    Odd k with none: empty. The enumeration is checked against the actual
    degree-0 vertices, so it certifies the count is exact.
    """
    m, s = divmod(t.base.n, 2)
    if t.base != matching_graph(m, s):
        raise GraphError("isolated tokens need the token graph of a matching graph")
    k = t.k
    pairs = [(2 * i, 2 * i + 1) for i in range(m)]
    out: list[frozenset[int]] = []
    if k % 2 == 0:
        for chosen in combinations(range(m), k // 2):
            out.append(frozenset(x for i in chosen for x in pairs[i]))
    elif s == 1:
        uncovered = 2 * m
        for chosen in combinations(range(m), k // 2):
            out.append(frozenset([uncovered] + [x for i in chosen for x in pairs[i]]))
    if len(out) != isolated_token_count(m, s, k):
        raise AssertionError("isolated-token enumeration is not of the predicted count")
    degree_zero = {frozenset(t.codec.unrank(r)) for r, row in enumerate(t.graph.adj) if not row}
    result = frozenset(out)
    if result != degree_zero:
        raise AssertionError("isolated-token enumeration disagrees with the token graph")
    return result


# ---------------------------------------------------------------------------
# cycle layers and the 2-token independent set


def cycle_layer(p: int, i: int) -> frozenset[frozenset[int]]:
    """Layer i of the 2-token graph of an odd cycle C_p: the i 1-based pairs
    {j, p-(i-j)} for 1 <= j <= i."""
    if p < 3 or p % 2 == 0:
        raise GraphError("layers are defined over odd cycles of length >= 3")
    if not 1 <= i <= p - 1:
        raise GraphError(f"layer index {i} out of range 1..{p - 1}")
    pairs = frozenset(frozenset((j, p - (i - j))) for j in range(1, i + 1))
    assert len(pairs) == i
    return pairs


def cycle_independent_set(t: TokenGraph) -> IndependentSet:
    """The alternating-layer independent set of the 2-token graph ``t`` of
    an odd cycle C_p, p >= 5, of size ``beta_cycle_f2(p)``."""
    p = t.base.n
    if t.k != 2 or p < 5 or p % 2 == 0 or t.base != cycle_graph(p):
        raise GraphError("construction needs the 2-token graph of an odd cycle of length >= 5")
    t_half = p // 2
    if t_half % 2 == 1:
        indices = list(range(1, t_half + 1, 2)) + list(range(t_half + 3, p, 2))
    else:
        indices = list(range(1, t_half, 2)) + list(range(t_half + 2, p, 2))
    rank = t.codec.rank
    result = IndependentSet(
        frozenset(rank([x - 1 for x in pair]) for i in indices for pair in cycle_layer(p, i))
    )
    result.validate(t.graph)
    if result.size != beta_cycle_f2(p):
        raise AssertionError("alternating-layer set is not of the claimed size")
    return result


# ---------------------------------------------------------------------------
# extremal bipartite witness graphs


def witness_graph(m: int, s: int) -> tuple[Graph, Bipartition, tuple[tuple[object, object], ...]]:
    """The extremal bipartite witness with parts m and m+s, and its
    injection phi: a perfect matching on the first m pairs (rungs i, m+i)
    plus, for each left vertex h < min(m, C(s,2)), spokes to the two
    surplus vertices of the h-th 2-subset of [s] in colexicographic order.

    Lemma 5 (m > C(s,2)) injects every 2-subset of [s] into [m], entries
    ``((i, j), h)``; lemma 6 (m <= C(s,2)) injects [m] into the 2-subsets,
    entries ``(h, (i, j))``. Entries are 1-based. Either way the 2-token
    independence number is the larger parity class, ``class_bound(m, m+s, 2)``.
    """
    if m < 1 or s < 0:
        raise GraphError("part sizes must be positive")
    pairs = [(i, j) for j in range(2, s + 1) for i in range(1, j)][:m]
    edges = [(i, m + i) for i in range(m)]
    for h, (i, j) in enumerate(pairs):
        edges += [(h, 2 * m + i - 1), (h, 2 * m + j - 1)]
    g = make_graph(2 * m + s, edges)
    bip = Bipartition(part_b=frozenset(range(m)), part_r=frozenset(range(m, 2 * m + s)))
    bip.validate(g)
    if class_order_predicate(m, m + s):
        return g, bip, tuple((h, pair) for h, pair in enumerate(pairs, 1))
    return g, bip, tuple((pair, h) for h, pair in enumerate(pairs, 1))
