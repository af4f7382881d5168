"""Constructive witnesses: explicit matchings and independent sets that
achieve the guaranteed sizes, plus the extremal bipartite witness graphs.

Every constructor validates its output against the host token graph and
asserts the claimed size, so a successful return is itself a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .formulas import nu_token_formula
from .graphs import Bipartition, Graph, GraphError, delete_vertices, make_graph, matching_graph
from .independence import IndependentSet
from .matching import Matching
from .tokens import SubsetCodec, TokenGraph, token_graph, validate_token_matching


# ---------------------------------------------------------------------------
# matchings


def lemma_times_combine(
    g: Graph,
    e: tuple[int, int],
    n_matching: Matching,
    l_matching: Matching,
    k: int,
) -> Matching:
    """Combine matchings of the k- and (k-2)-token graphs of ``g - {v, w}``
    into a matching of the k-token graph of ``g``.

    Three disjoint families: the lifted ``n_matching``; the ``l_matching``
    edges pushed onto supersets containing both v and w; and one edge
    [{v} u A, {w} u A] per (k-1)-subset A avoiding v and w. The result has
    exactly ``|N| + |L| + C(n-2, k-1)`` edges.
    """
    v, w = e
    n = g.n
    if not g.adjacent(v, w):
        raise GraphError(f"({v}, {w}) is not an edge of the base graph")
    if n < 6 or not 3 <= k <= n - 3:
        raise GraphError(f"combination step needs n >= 6 and 3 <= k <= n-3, got n={n}, k={k}")
    h, kept = delete_vertices(g, (v, w))
    validate_token_matching(h, k, n_matching.edges)
    validate_token_matching(h, k - 2, l_matching.edges)

    codec = SubsetCodec(n, k)
    codec_h_k = SubsetCodec(h.n, k)
    codec_h_l = SubsetCodec(h.n, k - 2)

    out: list[tuple[int, int]] = []
    for a, b in n_matching.edges:
        lifted_a = [kept[x] for x in codec_h_k.unrank(a)]
        lifted_b = [kept[x] for x in codec_h_k.unrank(b)]
        out.append((codec.rank(lifted_a), codec.rank(lifted_b)))
    for a, b in l_matching.edges:
        lifted_a = [kept[x] for x in codec_h_l.unrank(a)] + [v, w]
        lifted_b = [kept[x] for x in codec_h_l.unrank(b)] + [v, w]
        out.append((codec.rank(lifted_a), codec.rank(lifted_b)))
    others = tuple(x for x in range(n) if x != v and x != w)
    for rest in combinations(others, k - 1):
        out.append((codec.rank(rest + (v,)), codec.rank(rest + (w,))))

    combined = Matching.of(out)
    assert combined.size == n_matching.size + l_matching.size + comb(n - 2, k - 1)
    validate_token_matching(g, k, combined.edges)
    return combined


def _f2_from_matching(g: Graph, base_matching: Matching) -> Matching:
    """The two-family pair matching of the 2-token graph spanned by a
    perfect or almost perfect matching of ``g``.

    With matched pairs (a_i, b_i) (and the possibly uncovered vertex joining
    the b side), the families are [{a_i,a_j}, {a_j,b_i}] for i < j and
    [{b_i,b_j}, {a_i,b_j}] for i < j; together they miss only the matched
    pairs themselves.
    """
    pairs = sorted(base_matching.edges)
    a_side = [p[0] for p in pairs]
    b_side = [p[1] for p in pairs]
    covered = base_matching.vertices
    b_side += [x for x in range(g.n) if x not in covered]
    codec = SubsetCodec(g.n, 2)
    out: list[tuple[int, int]] = []
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            out.append((codec.rank((a_side[i], a_side[j])), codec.rank((a_side[j], b_side[i]))))
    for i in range(len(b_side)):
        for j in range(i + 1, len(b_side)):
            out.append((codec.rank((b_side[i], b_side[j])), codec.rank((a_side[i], b_side[j]))))
    return Matching.of(out)


def f2_matching_construction(m: int, s: int) -> Matching:
    """Explicit maximum matching of the 2-token graph of ``matching_graph(m, s)``.

    Size is exactly ``C(m,2) + C(m+s,2)``, i.e. half of everything except
    the matched-pair tokens, which are isolated.
    """
    g = matching_graph(m, s)
    if g.n < 3:
        raise GraphError("construction needs base order at least 3")
    result = _f2_from_matching(g, Matching.of(g.edges))
    assert result.size == comb(m, 2) + comb(m + s, 2)
    validate_token_matching(g, 2, result.edges)
    return result


def theorem1_matching(g: Graph, base_matching: Matching, k: int) -> Matching:
    """A matching of the k-token graph achieving the guaranteed size, built
    recursively from a perfect or almost perfect matching of the base.

    Base cases lift the matching to singleton or cosingleton tokens; k = 2
    uses the two-family construction; token counts above n/2 are mirrored
    through set complements; everything else recurses on the base minus one
    matched edge and combines via :func:`lemma_times_combine`.
    """
    n = g.n
    base_matching.validate(g)
    if 2 * base_matching.size not in (n, n - 1):
        raise GraphError("base matching must be perfect or almost perfect")
    if not 1 <= k <= n - 1:
        raise GraphError(f"token count k={k} out of range")

    result = _theorem1_recurse(g, base_matching, k)
    assert result.size == nu_token_formula(n, k).value
    validate_token_matching(g, k, result.edges)
    return result


def _theorem1_recurse(g: Graph, base_matching: Matching, k: int) -> Matching:
    n = g.n
    if k == 1:
        return base_matching  # the colex rank of {u} is u
    if 2 * k > n:
        # complementing reverses colex rank (see complement_image in tests/conftest.py)
        last, mirrored = comb(n, k) - 1, _theorem1_recurse(g, base_matching, n - k)
        return Matching.of((last - a, last - b) for a, b in mirrored.edges)
    if k == 2:
        return _f2_from_matching(g, base_matching)
    edge = min(base_matching.edges)
    h, kept = delete_vertices(g, edge)
    new_id = {old: i for i, old in enumerate(kept)}
    reduced = Matching.of(
        (new_id[u], new_id[v]) for u, v in base_matching.edges if (u, v) != edge
    )
    inner_n = _theorem1_recurse(h, reduced, k)
    inner_l = _theorem1_recurse(h, reduced, k - 2)
    return lemma_times_combine(g, edge, inner_n, inner_l, k)


def isolated_tokens(m: int, s: int, k: int) -> frozenset[frozenset[int]]:
    """All isolated vertices of the k-token graph of ``matching_graph(m, s)``.

    Even k: the endpoints of each k/2-subset of the matched pairs. Odd k
    with an uncovered vertex: those endpoint sets plus the uncovered vertex.
    Odd k with none: empty. The enumeration is checked against the actual
    degree-0 vertices, so it certifies the count is exact.
    """
    g = matching_graph(m, s)
    if not 1 <= k <= g.n - 1:
        raise GraphError(f"token count k={k} out of range")
    pairs = [(2 * i, 2 * i + 1) for i in range(m)]
    out: list[frozenset[int]] = []
    if k % 2 == 0:
        for chosen in combinations(range(m), k // 2):
            out.append(frozenset(x for i in chosen for x in pairs[i]))
    elif s == 1:
        uncovered = 2 * m
        for chosen in combinations(range(m), k // 2):
            out.append(frozenset([uncovered] + [x for i in chosen for x in pairs[i]]))
    expected = comb(m, k // 2) if (k % 2 == 0 or s == 1) else 0
    assert len(out) == expected
    t = token_graph(g, k)
    degree_zero = {
        frozenset(t.codec.unrank(r))
        for r in range(t.graph.n)
        if t.graph.degree(r) == 0
    }
    result = frozenset(out)
    if result != degree_zero:
        raise AssertionError("isolated-token enumeration disagrees with the token graph")
    return result


# ---------------------------------------------------------------------------
# cycle layers and the 2-token independent set


@dataclass(frozen=True)
class LayerSet:
    """Layer i of the 2-token graph of an odd cycle: the 1-based pairs
    {j, p-(i-j)} for 1 <= j <= i."""

    p: int
    index: int
    pairs: frozenset[frozenset[int]]

    @property
    def size(self) -> int:
        return len(self.pairs)

    def ranks(self, t: TokenGraph) -> frozenset[int]:
        """The layer as vertex ids of a 2-token graph over the same cycle."""
        return frozenset(t.codec.rank([x - 1 for x in pair]) for pair in self.pairs)


def cycle_layer(p: int, i: int) -> LayerSet:
    if p < 3 or p % 2 == 0:
        raise GraphError("layers are defined over odd cycles of length >= 3")
    if not 1 <= i <= p - 1:
        raise GraphError(f"layer index {i} out of range 1..{p - 1}")
    pairs = frozenset(frozenset((j, p - (i - j))) for j in range(1, i + 1))
    assert len(pairs) == i
    return LayerSet(p=p, index=i, pairs=pairs)


def cycle_independent_set(p: int) -> IndependentSet:
    """The alternating-layer independent set of the 2-token graph of an odd
    cycle, of size floor(p * floor(p/2) / 2)."""
    if p < 5 or p % 2 == 0:
        raise GraphError("construction needs an odd cycle of length >= 5")
    from .graphs import cycle_graph

    t_half = p // 2
    if t_half % 2 == 1:
        indices = list(range(1, t_half + 1, 2)) + list(range(t_half + 3, p, 2))
    else:
        indices = list(range(1, t_half, 2)) + list(range(t_half + 2, p, 2))
    t = token_graph(cycle_graph(p), 2)
    chosen: set[int] = set()
    for i in indices:
        chosen |= cycle_layer(p, i).ranks(t)
    result = IndependentSet(frozenset(chosen))
    result.validate(t.graph)
    assert result.size == (p * t_half) // 2
    return result


# ---------------------------------------------------------------------------
# extremal bipartite witness graphs


@dataclass(frozen=True)
class InjectionPhi:
    """An explicit injection, fixed to the colexicographic enumeration so
    witness graphs are reproducible: 2-subsets of [s] into [m] for the
    small-s witness, [m] into ordered pairs over [s] for the large-s one.
    Entries are 1-based.
    """

    entries: tuple[tuple[object, object], ...]



def _colex_pairs(s: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(2, s + 1) for i in range(1, j)]


def witness_graph_small_s(m: int, s: int) -> tuple[Graph, Bipartition, InjectionPhi]:
    """Bipartite witness with parts m and m+s, for m > C(s,2): a perfect
    matching on the first m pairs plus two spokes per 2-subset of the
    surplus, injected into distinct left vertices.

    Its 2-token independence number equals the mixed-class size m(m+s).
    """
    if m < 1 or s < 0:
        raise GraphError("part sizes must be positive")
    if comb(s, 2) >= m:
        raise GraphError(f"requires m > C(s,2); got m={m}, s={s}")
    edges = [(i, m + i) for i in range(m)]
    entries: list[tuple[object, object]] = []
    for idx, (i, j) in enumerate(_colex_pairs(s), start=1):
        entries.append(((i, j), idx))
        hub = idx - 1
        edges.append((hub, 2 * m + i - 1))
        edges.append((hub, 2 * m + j - 1))
    g = make_graph(2 * m + s, edges)
    bip = Bipartition(
        part_b=frozenset(range(m)), part_r=frozenset(range(m, 2 * m + s))
    )
    bip.validate(g)
    phi = InjectionPhi(tuple(entries))
    return g, bip, phi


def witness_graph_large_s(m: int, s: int) -> tuple[Graph, Bipartition, InjectionPhi]:
    """Bipartite witness with parts m and m+s, for m <= C(s,2): a perfect
    matching on the first m pairs plus, per left vertex i, spokes to the two
    surplus vertices of its injected pair.

    Its 2-token independence number equals the same-side-class size
    C(2m+s, 2) - m(m+s).
    """
    if m < 1 or s < 0:
        raise GraphError("part sizes must be positive")
    if comb(s, 2) < m:
        raise GraphError(f"requires m <= C(s,2); got m={m}, s={s}")
    pairs = _colex_pairs(s)
    edges = [(i, m + i) for i in range(m)]
    entries: list[tuple[object, object]] = []
    for i in range(1, m + 1):
        i1, i2 = pairs[i - 1]
        entries.append((i, (i1, i2)))
        edges.append((i - 1, 2 * m + i1 - 1))
        edges.append((i - 1, 2 * m + i2 - 1))
    g = make_graph(2 * m + s, edges)
    bip = Bipartition(
        part_b=frozenset(range(m)), part_r=frozenset(range(m, 2 * m + s))
    )
    bip.validate(g)
    phi = InjectionPhi(tuple(entries))
    return g, bip, phi
