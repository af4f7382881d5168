import hashlib
import random
import sys
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengraphs.budget import Budget, BudgetExceededError
from tokengraphs.graphs import (
    Bipartition,
    Graph,
    _component_masks,
    bipartition_of,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    delete_vertices,
    erdos_renyi,
    make_graph,
    matching_graph,
    path_graph,
    star_graph,
)
from tokengraphs.matching import (
    Matching,
    MatchingError,
    _hopcroft_karp,
    brute_force_nu,
    hall_witness,
    max_matching,
)
from tokengraphs.tokens import token_bipartition, token_graph
from conftest import bipartite_components, relabelled

PETERSEN = make_graph(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


# -- solver vs oracle -------------------------------------------------------


def test_blossom_equals_brute_on_structured_graphs():
    for g in [cycle_graph(5), cycle_graph(7), PETERSEN, star_graph(6),
              matching_graph(4, 1), complete_bipartite_graph(3, 4)]:
        assert max_matching(g).size == brute_force_nu(g)


def test_blossom_equals_brute_on_random_graphs():
    for seed in range(60):
        g = erdos_renyi(6 + seed % 9, (0.15, 0.3, 0.55)[seed % 3], seed)
        assert max_matching(g).size == brute_force_nu(g), f"seed={seed}"


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_blossom_equals_brute_property(seed):
    g = erdos_renyi(4 + seed % 8, 0.4, seed)
    m = max_matching(g)
    m.validate(g)
    assert m.size == brute_force_nu(g)


def test_blossom_needs_blossoms():
    # two triangles joined by a bridge defeat plain alternating BFS
    g = make_graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    assert max_matching(g).size == 3


def test_max_matching_deterministic():
    g = erdos_renyi(12, 0.4, 7)
    assert max_matching(g) == max_matching(g)


def test_max_matching_budget_counts_searched_roots():
    # the greedy seed matches all of a perfect matching graph, so no root
    # is searched and no node is spent
    g = matching_graph(3, 0)
    assert max_matching(g, Budget(node_limit=0)).size == 3
    # an odd path leaves an exposed vertex: one search, one node
    g = path_graph(3)
    with pytest.raises(BudgetExceededError, match="after 1 nodes"):
        max_matching(g, Budget(node_limit=0))
    assert max_matching(g, Budget(node_limit=1)) == max_matching(g)
    g = token_graph(cycle_graph(11), 4).graph
    assert max_matching(g, Budget(node_limit=g.n, seconds=60)) == max_matching(g)
    with pytest.raises(BudgetExceededError, match="time budget"):
        max_matching(g, Budget(seconds=0))
    with pytest.raises(BudgetExceededError, match="time budget after 1 nodes$"):
        max_matching(g, Budget(seconds=0))


def test_matching_examples_from_token_graphs():
    assert max_matching(token_graph(matching_graph(2, 0), 2).graph).size == 2
    t = token_graph(star_graph(5), 3)
    m = max_matching(t.graph)
    m.validate(t.graph)
    assert m.size == 10 == t.graph.n // 2
    t2 = token_graph(path_graph(5), 3)
    assert max_matching(t2.graph).size == 4


# -- Hungarian-tree deletion: same matchings as the engine without it --------


def _reference_max_matching(g: Graph) -> Matching:
    """The blossom engine without Hungarian-tree deletion, kept verbatim
    as the reference for the deleting one: a maximum matching of ``g`` via
    blossom contraction.

    Deterministic: greedy seeding and augmenting-path scans run in vertex-id
    order, so identical inputs yield identical matchings.
    """
    n = g.n
    adj = [list(g.adj[v]) for v in range(n)]
    mate = [-1] * n

    for v in range(n):
        if mate[v] == -1:
            for w in adj[v]:
                if mate[w] == -1:
                    mate[v] = w
                    mate[w] = v
                    break

    parent = [-1] * n
    base = list(range(n))

    def lowest_common_base(a: int, b: int) -> int:
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if on_path[b]:
                return b
            b = parent[mate[b]]

    def find_augmenting_from(root: int) -> int:
        """Grow an alternating tree from ``root``; return an exposed endpoint
        of an augmenting path, or -1."""
        nonlocal parent, base
        parent = [-1] * n
        base = list(range(n))
        in_tree = [False] * n
        in_tree[root] = True
        queue = deque([root])

        def contract(v: int, w: int) -> None:
            anchor = lowest_common_base(v, w)
            shrink = [False] * n

            def mark_path(x: int, child: int) -> None:
                while base[x] != anchor:
                    shrink[base[x]] = True
                    shrink[base[mate[x]]] = True
                    parent[x] = child
                    child = mate[x]
                    x = parent[mate[x]]

            mark_path(v, w)
            mark_path(w, v)
            for i in range(n):
                if shrink[base[i]]:
                    base[i] = anchor
                    if not in_tree[i]:
                        in_tree[i] = True
                        queue.append(i)

        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if base[v] == base[w] or mate[v] == w:
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
        end = find_augmenting_from(root)
        while end != -1:
            prev = parent[end]
            next_start = mate[prev]
            mate[end] = prev
            mate[prev] = end
            end = next_start

    return Matching.of((v, mate[v]) for v in range(n) if mate[v] > v)


def _random_bipartite(m, n, p, seed):
    rng = random.Random(seed)
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n) if rng.random() < p])


@given(st.integers(1, 30), st.sampled_from((0.05, 0.1, 0.2, 0.4)), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_blossom_matches_reference_on_random_graphs(n, p, seed):
    g = erdos_renyi(n, p, seed)
    assert max_matching(g).edges == _reference_max_matching(g).edges
    h = relabelled(_random_bipartite(n // 2, n - n // 2, p, seed), seed)
    assert max_matching(h).edges == _reference_max_matching(h).edges


def test_blossom_matches_reference_on_relabelled_token_graphs():
    bases = [cycle_graph(n) for n in range(3, 12)]
    bases += [path_graph(n) for n in range(2, 12)]
    bases += [complete_graph(n) for n in range(2, 8)]
    bases += [star_graph(n) for n in range(2, 8)]
    checked = 0
    for i, base in enumerate(bases):
        for k in range(1, base.n):
            t = token_graph(base, k).graph
            for g in (t, relabelled(t, i * 100 + k)):
                assert max_matching(g).edges == _reference_max_matching(g).edges, (base, k)
                checked += 1
    assert checked == 2 * sum(b.n - 1 for b in bases)


@pytest.mark.parametrize(
    "base, k",
    [(path_graph(12), 6), (complete_bipartite_graph(5, 5), 5), (cycle_graph(12), 6),
     (cycle_graph(9), 4), (cycle_graph(11), 4)],
    ids=["F6(P12)", "F5(K55)", "F6(C12)", "F4(C9)", "F4(C11)"],
)
def test_blossom_matches_reference_on_large_token_graphs(base, k):
    # bipartite ones with long successful searches, and general ones whose
    # blossoms absorb inner vertices, at three labellings each
    t = token_graph(base, k).graph
    for seed in (1, 2, 3):
        g = relabelled(t, seed)
        assert max_matching(g).edges == _reference_max_matching(g).edges, seed


def test_blossom_matches_reference_where_an_absorbed_inner_vertex_augments():
    # greedy matches 0-1 and 2-3; the search from 4 labels 0 and 3 inner,
    # contracts the blossom 4-0-1-2-3, and reaches 5 only from the absorbed 0
    g = make_graph(6, [(0, 1), (2, 3), (1, 2), (0, 4), (3, 4), (0, 5)])
    assert max_matching(g).edges == _reference_max_matching(g).edges
    assert max_matching(g).sorted_edges() == [(0, 5), (1, 2), (3, 4)]


@pytest.mark.parametrize("seed", range(12))
def test_blossom_matches_reference_on_sparse_general_graphs(seed):
    # past the random test's 30 vertices, at average degree about 3, where
    # searches run long and contract nested blossoms
    rng = random.Random(seed)
    n = 40 + 10 * seed
    g = Graph(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 3 / n])
    for h in (g, relabelled(g, seed)):
        assert max_matching(h).edges == _reference_max_matching(h).edges


def test_blossom_agrees_with_networkx_on_general_token_graphs():
    nx = pytest.importorskip("networkx")
    for base, k in [(cycle_graph(9), 3), (cycle_graph(11), 3), (cycle_graph(11), 4)]:
        g = token_graph(base, k).graph
        assert bipartition_of(g) is None
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        theirs = nx.max_weight_matching(h, maxcardinality=True)
        assert max_matching(g).size == len(theirs), (base, k)


def test_blossom_reaches_the_frontier_matching_numbers():
    # F_8(P_16) past the brute-force limit: blossom's 6400 against the
    # bipartite engine on the parity classes
    t = token_graph(path_graph(16), 8)
    m = max_matching(t.graph)
    m.validate(t.graph)
    assert m.size == 6400
    classes = token_bipartition(t, bipartition_of(t.base))
    nu, _ = _hopcroft_karp(sorted(classes.part_b), classes.part_r, t.graph.adj)
    assert nu == 6400
    t = token_graph(complete_bipartite_graph(7, 7), 7)
    m = max_matching(t.graph)
    m.validate(t.graph)
    assert m.size == 1716 == t.graph.n // 2


def test_blossom_matching_of_f8_p16_is_pinned():
    # sha256 of the sorted edges at the paper's labels: a search that moves
    # one edge of the frontier matching fails here
    m = max_matching(token_graph(path_graph(16), 8).graph)
    digest = hashlib.sha256(repr(m.sorted_edges()).encode()).hexdigest()
    assert digest == "f9ea730acfa061f63c6b3a6ee8cb83f7ce4b00c741928850f23797800e9e7589"


# -- Matching type ----------------------------------------------------------


def test_matching_validate_rejects_foreign_edge():
    with pytest.raises(MatchingError):
        Matching.of([(0, 2)]).validate(path_graph(3))


def test_matching_validate_rejects_vertices_outside_the_host():
    # -1 would read the row of vertex 4, and 5 past the last row; the lower
    # end is named first
    for pair, vertex in (((-1, 0), -1), ((5, 6), 5), ((0, 7), 7), ((-1, 5), -1)):
        with pytest.raises(MatchingError, match=f"vertex {vertex} outside"):
            Matching.of([pair]).validate(cycle_graph(5))


def test_matching_validate_rejects_shared_vertex():
    g = path_graph(3)
    with pytest.raises(MatchingError):
        Matching.of([(0, 1), (1, 2)]).validate(g)


# -- saturation and Hall witnesses -----------------------------------------


def _swapped(part):
    return Bipartition(part_b=part.part_r, part_r=part.part_b)


def _neighbours(g, vertices):
    return set().union(*(g.adj[v] for v in vertices))


def test_saturates_star_leaves_fail():
    g = star_graph(3)
    part = bipartition_of(g)
    assert part.part_b == {0} and hall_witness(g, part) is None  # the centre saturates
    _, reach = _hopcroft_karp(sorted(part.part_r), part.part_b, g.adj)
    assert reach  # the leaves, the larger side, do not


def test_saturates_star_token_classes():
    t = token_graph(star_graph(4), 2)
    classes = token_bipartition(t, bipartition_of(t.base))
    assert min(len(classes.part_b), len(classes.part_r)) == 4
    assert hall_witness(t.graph, classes) is None


def test_saturates_matching_graph_both_sides():
    g = matching_graph(3, 0)
    part = bipartition_of(g)
    assert hall_witness(g, part) is None and hall_witness(g, _swapped(part)) is None


def _hall_min_slack(g, side):
    side_list = sorted(side)
    worst = None
    for size in range(1, len(side_list) + 1):
        for sub in combinations(side_list, size):
            slack = len(_neighbours(g, sub)) - len(sub)
            worst = slack if worst is None else min(worst, slack)
    return worst


def test_saturates_agrees_with_exhaustive_hall():
    import random

    rng = random.Random(5)
    for trial in range(35):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        edges = [
            (i, m + j) for i in range(m) for j in range(n) if rng.random() < 0.5
        ]
        g = make_graph(m + n, edges)
        part = Bipartition(
            part_b=frozenset(range(m)), part_r=frozenset(range(m, m + n))
        )
        part.validate(g)
        for side, other in ((part.part_b, part.part_r), (part.part_r, part.part_b)):
            exhaustive = _hall_min_slack(g, side)
            exhaustive_ok = exhaustive is None or exhaustive >= 0
            _, reach = _hopcroft_karp(sorted(side), other, g.adj)
            assert (not reach) == exhaustive_ok, (trial, sorted(side))
            if side is min(part.part_b, part.part_r, key=len):
                assert (hall_witness(g, part) is None) == exhaustive_ok, trial


def test_hall_witness_star():
    # K_{1,3} with three isolated vertices on the centre's side: the leaves
    # are now the smaller class, and all three need the centre
    g = Graph(7, star_graph(3).edges)
    part = Bipartition(part_b=frozenset({0, 4, 5, 6}), part_r=frozenset({1, 2, 3}))
    witness = hall_witness(g, part)
    assert witness == part.part_r
    assert len(_neighbours(g, witness)) < len(witness)
    # on K_{1,3} itself the leaves are the larger side, which the engine takes
    g = star_graph(3)
    part = bipartition_of(g)
    _, reach = _hopcroft_karp(sorted(part.part_r), part.part_b, g.adj)
    assert frozenset(reach) == part.part_r


def test_hall_witness_absent_when_saturated():
    g = matching_graph(3, 0)
    part = bipartition_of(g)
    assert hall_witness(g, part) is None
    assert hall_witness(g, _swapped(part)) is None


def test_hall_witness_tests_the_smaller_class_and_part_b_on_a_tie():
    # path 0-1-2-3 plus vertex 4 beside 2: part_b {0, 2}, part_r {1, 3, 4};
    # the smaller class saturates under either name
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    part = bipartition_of(g)
    assert part.part_b == {0, 2} and hall_witness(g, part) is None
    assert hall_witness(g, _swapped(part)) is None
    # a tie: K_{1,2} plus an isolated vertex split 2/2, tested on part_b
    g = make_graph(4, [(0, 1), (0, 2)])
    part = Bipartition(part_b=frozenset({1, 2}), part_r=frozenset({0, 3}))
    assert hall_witness(g, part) == {1, 2}
    assert hall_witness(g, _swapped(part)) == {3}


def test_hall_witness_is_violating_set_on_random_bipartite():
    import random

    rng = random.Random(11)
    for trial in range(30):
        m, n = rng.randint(2, 4), rng.randint(2, 5)
        edges = [(i, m + j) for i in range(m) for j in range(n) if rng.random() < 0.4]
        g = make_graph(m + n, edges)
        part = Bipartition(part_b=frozenset(range(m)), part_r=frozenset(range(m, m + n)))
        nu = max_matching(g).size
        small = min(part.part_b, part.part_r, key=len)
        witness = hall_witness(g, part)
        assert (witness is None) == (nu == len(small))
        if witness is not None:
            assert witness <= small and len(_neighbours(g, witness)) < len(witness)
        for side, other in ((part.part_b, part.part_r), (part.part_r, part.part_b)):
            _, reach = _hopcroft_karp(sorted(side), other, g.adj)
            assert (not reach) == (nu == len(side))
            if reach:
                assert len(_neighbours(g, reach)) < len(reach)


def test_hall_witness_is_the_side_some_maximum_matching_misses():
    rng = random.Random(17)
    for trial in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        edges = [(i, m + j) for i in range(m) for j in range(n) if rng.random() < 0.35]
        g = make_graph(m + n, edges)
        part = Bipartition(part_b=frozenset(range(m)), part_r=frozenset(range(m, m + n)))
        nu = max_matching(g).size
        for side, other in ((part.part_b, part.part_r), (part.part_r, part.part_b)):
            missed = frozenset(
                v for v in side
                if max_matching(delete_vertices(g, (v,))[0]).size == nu
            )
            _, reach = _hopcroft_karp(sorted(side), other, g.adj)
            assert frozenset(reach) == missed, (trial, sorted(side))
            if side is min(part.part_b, part.part_r, key=len):
                assert (hall_witness(g, part) or frozenset()) == missed, trial


def test_hall_queries_follow_a_4000_vertex_augmenting_path():
    # ladder u_i - w_{i-1}, u_i - w_i with u_0 last in id order: the greedy
    # start leaves u_0 free, and its one augmenting path runs through all
    # 4,000 vertices
    m = 2000
    u = [m - 1] + list(range(m - 1))
    edges = [(u[i], m + i) for i in range(m)] + [(u[i], m + i - 1) for i in range(1, m)]
    g = Graph(2 * m, edges)
    part = Bipartition(part_b=frozenset(range(m)), part_r=frozenset(range(m, 2 * m)))
    limit = sys.getrecursionlimit()
    assert hall_witness(g, part) is None
    assert hall_witness(g, _swapped(part)) is None
    assert sys.getrecursionlimit() == limit


def _missed_side(g, side, nu):
    """Side vertices that some maximum matching of ``g`` leaves unmatched."""
    return {v for v in side if max_matching(delete_vertices(g, (v,))[0]).size == nu}


def _assert_engine_targets(left, right, rows, nu, reach=None):
    """Without a target the engine returns (nu, reach); with target e it
    returns a size s with min(e, nu) <= s <= nu, and None for reach."""
    found, found_reach = _hopcroft_karp(left, right, rows)
    assert found == nu
    if reach is not None:
        assert len(found_reach) == len(reach) and set(found_reach) == reach
    for target in range(nu + 3):
        size, no_reach = _hopcroft_karp(left, right, rows, target)
        assert min(target, nu) <= size <= nu and no_reach is None, target


def test_hopcroft_karp_stops_at_its_target_on_random_bipartite_graphs():
    rng = random.Random(23)
    for trial in range(60):
        m, n, p = rng.randint(0, 7), rng.randint(0, 7), rng.choice((0.15, 0.3, 0.5))
        g = relabelled(_random_bipartite(m, n, p, trial), trial)
        part = bipartition_of(g)
        left = sorted(part.part_b)
        nu = max_matching(g).size
        _assert_engine_targets(left, part.part_r, g.adj, nu, _missed_side(g, left, nu))


def test_hopcroft_karp_stops_at_its_target_on_token_graph_double_covers():
    # the LP bound's graph, both sides one random subset of the token graph;
    # nu comes from blossom on the same double cover built as a Graph
    rng = random.Random(29)
    for n, k in [(5, 2), (7, 2), (7, 3), (9, 3), (9, 4)]:
        g = token_graph(cycle_graph(n), k).graph
        cover = Graph(2 * g.n, [(u, w + g.n) for u in range(g.n) for w in g.adj[u]])
        for _ in range(4):
            live = [v for v in range(g.n) if rng.random() < 0.7]
            kept = set(live) | {v + g.n for v in live}
            sub, _ = delete_vertices(cover, [v for v in range(2 * g.n) if v not in kept])
            _assert_engine_targets(live, live, g.adj, max_matching(sub).size)


def test_hopcroft_karp_target_cuts_the_augmenting_phases():
    # the ladder below leaves u_0 free after the greedy start: target m - 1
    # stops there, short of nu = m, and target m runs the augmenting path
    m = 40
    u = [m - 1] + list(range(m - 1))
    edges = [(u[i], m + i) for i in range(m)] + [(u[i], m + i - 1) for i in range(1, m)]
    adj = Graph(2 * m, edges).adj
    left, right = range(m), range(m, 2 * m)
    assert _hopcroft_karp(left, right, adj) == (m, [])
    assert _hopcroft_karp(left, right, adj, m - 1) == (m - 1, None)
    assert _hopcroft_karp(left, right, adj, m) == (m, None)


def test_bipartite_engine_agrees_with_networkx_on_token_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    sparse = make_graph(10, [(i, 5 + j) for i in range(5) for j in range(5) if rng.random() < 0.4])
    bases = [(cycle_graph(10), 4), (path_graph(10), 5), (complete_bipartite_graph(4, 5), 4),
             (sparse, 4)]
    for base, k in bases:
        t = token_graph(base, k)
        classes = token_bipartition(t, bipartition_of(base))
        nu, _ = _hopcroft_karp(sorted(classes.part_b), classes.part_r, t.graph.adj)
        h = nx.Graph()
        h.add_nodes_from(range(t.graph.n))
        h.add_edges_from(t.graph.edges)
        theirs = nx.bipartite.hopcroft_karp_matching(h, top_nodes=classes.part_b)
        assert nu == len(theirs) // 2, (base, k)


def test_hopcroft_karp_on_the_whole_graph_matches_its_components():
    # the engine on the whole graph and on each component, either side:
    # the sizes add up, the reached sets partition, and the whole graph's
    # reached set is the Hall witness
    for seed in range(80):
        g = bipartite_components(seed)
        part = bipartition_of(g)
        comps, _ = _component_masks(g.adj)
        for left, right in ((part.part_b, part.part_r), (part.part_r, part.part_b)):
            nu, reach = _hopcroft_karp(sorted(left), right, g.adj)
            total, reached = 0, []
            for comp, _ in comps:
                size, found = _hopcroft_karp([v for v in comp if v in left], right, g.adj)
                total += size
                reached += found
            assert (total, sorted(reached)) == (nu, sorted(reach)), seed
            if left is min(part.part_b, part.part_r, key=len):
                assert hall_witness(g, part) == (frozenset(reach) or None)
