import gc
import random
import sys
import time
from itertools import product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tokengraphs.graphs import (
    Graph,
    GraphError,
    bipartition_of,
    delete_vertices,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    matching_graph,
    path_graph,
    spanning_subgraphs,
    star_graph,
)
import tokengraphs.independence as independence
from tokengraphs.budget import _BudgetClock
from tokengraphs.independence import (
    _branch,
    _bit_list,
    _brute_force_rec,
    _clique_cover_bound,
    _component_masks,
    _greedy_seed,
    _triangle_free,
    _two_color,
    Budget,
    BudgetExceededError,
    beta_via_saturation,
    brute_force_mis,
    independence_number,
    max_independent_set,
    token_independence_number,
)
from tokengraphs.matching import _hopcroft_karp_scratch, brute_force_nu, max_matching
from tokengraphs.tokens import token_bipartition, token_graph
import tokengraphs.verify as verify
from tokengraphs.formulas import beta_balanced_family
from tokengraphs.reports import STATUS_BOUND
from tokengraphs.verify import BoundsPair, recursive_bounds
from conftest import bipartite_components, relabelled


def _mask(vertices):
    return sum(1 << v for v in vertices)


def _components(g):
    """The vertex lists of the components of ``g``, each ascending, as a
    solve hands them to the seed."""
    return [sorted(comp) for comp, _ in _component_masks(g.adj)[0]]


# -- solver vs oracle -------------------------------------------------------


def test_brute_force_examples():
    assert brute_force_mis(cycle_graph(5)) == 2
    assert brute_force_mis(Graph(6, [])) == 6
    assert brute_force_mis(token_graph(path_graph(4), 2).graph) == 4


def test_brute_force_rejects_large():
    with pytest.raises(GraphError):
        brute_force_mis(Graph(27, []))


def test_solver_examples():
    assert token_independence_number(cycle_graph(5), 2) == 5
    assert token_independence_number(complete_graph(7), 3) == 7
    assert token_independence_number(complete_bipartite_graph(3, 3), 2) == 9


def test_solver_equals_brute_on_random_corpus():
    for seed in range(90):
        g = erdos_renyi(5 + seed % 14, (0.1, 0.3, 0.5)[seed % 3], seed)
        assert independence_number(g) == brute_force_mis(g), f"seed={seed}"


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_solver_equals_brute_property(seed):
    g = erdos_renyi(4 + seed % 12, 0.35, seed)
    found = max_independent_set(g)
    found.validate(g)
    assert found.size == brute_force_mis(g)


def test_solver_is_deterministic():
    g = erdos_renyi(18, 0.25, 3)
    assert max_independent_set(g) == max_independent_set(g)
    t = token_graph(cycle_graph(9), 2)
    assert max_independent_set(t.graph) == max_independent_set(t.graph)


def test_koenig_gallai_duality_on_bipartite():
    # on a bipartite graph the independence and matching numbers are
    # complementary through the vertex count
    for seed in range(25):
        import random

        rng = random.Random(seed)
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        edges = [(i, m + j) for i in range(m) for j in range(n) if rng.random() < 0.45]
        g = Graph(m + n, edges)
        assert independence_number(g) + max_matching(g).size == g.n


#: Bipartite, with a 22-vertex component on which the greedy seed and both
#: color classes have 11 vertices while beta is 12, so the König cover's
#: complement is what the solver returns there.
KOENIG_FALLBACK = Graph(24, [
    (0, 12), (0, 13), (0, 21), (1, 12), (2, 15), (2, 22), (3, 11), (3, 21),
    (4, 16), (5, 14), (5, 15), (5, 18), (5, 22), (6, 11), (6, 13), (6, 16),
    (6, 17), (6, 18), (6, 19), (7, 12), (7, 17), (7, 18), (7, 19), (8, 16),
    (8, 17), (9, 15), (10, 16),
])


def test_koenig_cover_closes_a_component_the_seed_misses():
    g = KOENIG_FALLBACK
    comps, side = _component_masks(g.adj)
    comp, odd = max(comps, key=lambda c: len(c[0]))
    comp.sort()
    one, two = _two_color(comp, odd, side)
    assert len(comp) == 22
    assert len(_greedy_seed(comp, g.adj, [-1] * g.n)[0]) == 11
    assert len(one) == len(two) == 11
    outside = [v for v in range(g.n) if v not in comp]
    assert brute_force_mis(delete_vertices(g, outside)[0]) == 12
    found = max_independent_set(g)
    found.validate(g)
    assert found.size == brute_force_mis(g) == 14


def test_koenig_engine_gets_its_classes_in_id_order(monkeypatch):
    # in BFS order the engine's greedy start leaves far more vertices free
    lefts = []
    engine = independence._bipartite_matching_size

    def recorded(left, *args):
        lefts.append(list(left))
        return engine(left, *args)

    monkeypatch.setattr(independence, "_bipartite_matching_size", recorded)
    g = relabelled(token_graph(cycle_graph(14), 7).graph, 7)
    assert max_independent_set(g).size == 1716
    assert len(lefts) == 1 and len(lefts[0]) == 1716
    assert lefts[0] == sorted(lefts[0])


def _prufer_tree(order, rng):
    """A uniform random labelled tree from its Prüfer sequence."""
    if order == 1:
        return []
    seq = [rng.randrange(order) for _ in range(order - 2)]
    degree = [1] * order
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(order) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = [v for v in range(order) if degree[v] == 1]
    return edges + [(u, v)]


def _random_forest(seed):
    rng = random.Random(seed)
    edges, n = [], 0
    for _ in range(rng.randint(1, 4)):
        order = rng.randint(1, 40 if seed % 2 else 12)
        edges += [(n + u, n + v) for u, v in _prufer_tree(order, rng)]
        n += order
    return relabelled(Graph(n, edges), seed)


def test_tree_components_keep_the_seed_without_the_matching_engine(monkeypatch):
    calls = []
    engine = independence._bipartite_matching_size

    def counted(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(independence, "_bipartite_matching_size", counted)
    for seed in range(120):
        g = _random_forest(seed)
        found = max_independent_set(g)
        found.validate(g)
        comps, side = _component_masks(g.adj)
        seeds = set()
        for comp, odd in comps:
            comp.sort()
            chosen, degree_sum = _greedy_seed(comp, g.adj, [-1] * g.n)
            assert degree_sum == 2 * (len(comp) - 1)
            # König's size, which the engine would have certified
            nu, _ = engine(*_two_color(comp, odd, side), g.adj)
            assert len(chosen) == len(comp) - nu
            seeds.update(chosen)
        assert found.vertices == seeds
        if g.n <= 26:
            assert found.size == brute_force_mis(g), seed
    assert calls == []


def _solve_ticks(monkeypatch, g):
    """The solve's set and how many times it ticked its budget clock."""
    clocks = []

    class Recorded(_BudgetClock):
        __slots__ = ()

        def __init__(self, budget):
            super().__init__(budget)
            clocks.append(self)

    monkeypatch.setattr(independence, "_BudgetClock", Recorded)
    found = max_independent_set(g)
    found.validate(g)
    (clock,) = clocks
    return found, clock.nodes


def test_koenig_on_many_small_components_is_linear_in_the_graph():
    # F_4 of 16 disjoint edges: 35,960 tokens, closed by 3,500 König
    # matchings on components of at most 16 vertices; matchings that each
    # allocate in the order of the whole graph take seconds
    g = token_graph(matching_graph(16, 0), 4).graph
    assert max_independent_set(g, Budget(seconds=0.5)).size == 18_040


def test_a_solve_ticks_once_per_bipartite_component(monkeypatch):
    # every component of two or more vertices ticks once, whether the seed,
    # a color class or the König cover closes it; the totals are those of
    # the solver that ran the seed and the König matching on bitmasks
    totals = []
    for make in (bipartite_components, _random_forest):
        total = 0
        for seed in range(40):
            g = make(seed)
            found, nodes = _solve_ticks(monkeypatch, g)
            assert nodes == sum(len(c) > 1 for c in _components(g))
            if g.n <= 26:
                assert found.size == brute_force_mis(g)
            total += nodes
        totals.append(total)
    assert totals == [143, 91]


def test_branching_solves_tick_as_before(monkeypatch):
    # odd cycles and J(6,3), relabelled; the counts are those of the solver
    # that ran the seed on bitmasks, except J(6,3), where the inference on
    # the clique cover took 39 nodes to 11
    cases = [(cycle_graph(7), 2), (cycle_graph(9), 3), (cycle_graph(7), 3), (complete_graph(6), 3)]
    ticks = [
        _solve_ticks(monkeypatch, relabelled(token_graph(base, k).graph, 10 * base.n + k))[1]
        for base, k in cases
    ]
    assert ticks == [1, 27, 9, 11]


def test_perfect_matching_bipartite_bases_odd_k():
    # supergraphs of a disjoint perfect matching, kept bipartite: every odd
    # token count gives independence exactly half the token count
    import random

    for seed in range(8):
        rng = random.Random(seed)
        m = rng.randint(2, 4)
        g = matching_graph(m, 0)
        extra = [
            (2 * i, 2 * j + 1)
            for i in range(m)
            for j in range(m)
            if i != j and rng.random() < 0.4
        ]
        richer = Graph(g.n, list(g.edges) + extra)
        for k in range(1, richer.n, 2):
            assert 2 * token_independence_number(richer, k) == comb(richer.n, k), (
                seed,
                k,
            )


def test_budget_node_limit_aborts():
    # the LP bound closes F_2(C_n) at its root, but not F_4(C_9)
    t = token_graph(cycle_graph(9), 4)
    with pytest.raises(BudgetExceededError):
        max_independent_set(t.graph, Budget(node_limit=1))


def _no_root_bound(monkeypatch):
    """For the rest of the test, ``_branch`` searches with no stop at a root
    bound."""
    monkeypatch.setattr(independence, "_clique_family_bound", lambda comp, masks: None)


@pytest.mark.parametrize(
    "base, k, nodes, beta",
    [(complete_graph(9), 3, 4_093, 12), (cycle_graph(9), 3, 35, 38)],
    ids=["J(9,3)", "F_3(C_9)"],
)
def test_budget_node_limit_pins_the_search_tree(monkeypatch, base, k, nodes, beta):
    # node counts at the paper's labels, with no stop at the root bound,
    # which closes J(9,3) at its first node. The seed of J(9,3) is already
    # maximum, so its count does not depend on the branch order; it took
    # 11,079 nodes before the inference on the clique cover. F_3(C_9),
    # triangle-free, finds a larger set, and would take 49 nodes with the
    # exclude branch first
    _no_root_bound(monkeypatch)
    g = token_graph(base, k).graph
    assert max_independent_set(g, Budget(node_limit=nodes)).size == beta
    with pytest.raises(BudgetExceededError, match=f"after {nodes} nodes"):
        max_independent_set(g, Budget(node_limit=nodes - 1))


@pytest.mark.parametrize(
    "n, k, nodes, beta",
    [(7, 3, 1, 7), (8, 4, 1, 14), (9, 3, 1, 12), (10, 4, 1_000, 30), (13, 3, 1, 26)],
    ids=["J(7,3)", "J(8,4)", "J(9,3)", "J(10,4)", "J(13,3)"],
)
def test_the_root_bound_closes_johnson_graphs(n, k, nodes, beta):
    # the maximum cliques of J(n,k), n >= 2k, bound beta by Johnson's count,
    # tight where a Steiner system S(k-1,k,n) exists. Where the seed meets
    # it, the search stops at its first node; J(10,4) takes 963. With no
    # stop J(10,4) and J(13,3) pass 400,000 nodes
    g = token_graph(complete_graph(n), k).graph
    assert max_independent_set(g, Budget(node_limit=nodes)).size == beta


def test_the_root_bound_returns_the_set_the_search_finds(monkeypatch):
    # a stop fires only where no strictly larger set exists, and the search
    # replaces its set only on strict improvement, so the set is the same
    graphs = [token_graph(complete_graph(n), k).graph for n, k in [(7, 3), (8, 4), (9, 3)]]
    stopped = [max_independent_set(g) for g in graphs]
    _no_root_bound(monkeypatch)
    assert stopped == [max_independent_set(g) for g in graphs]


def _circulant(n, jumps):
    return Graph(n, [(v, (v + j) % n) for v in range(n) for j in jumps])


def _has_triangle(g):
    return not _triangle_free((1 << g.n) - 1, g.adjacency_masks())


def _assert_root_bound_is_sound(g):
    """The root bound, where it is given, is at least beta, and the solver's
    size is beta; both against brute force. Returns the bound."""
    beta = brute_force_mis(g)
    bound = independence._clique_family_bound((1 << g.n) - 1, g.adjacency_masks())
    assert bound is None or bound >= beta
    assert max_independent_set(g).size == beta
    return bound


@pytest.mark.parametrize(
    "g",
    [
        token_graph(complete_graph(6), 3).graph,
        relabelled(token_graph(complete_graph(6), 2).graph, 62),
        relabelled(token_graph(complete_graph(7), 2).graph, 72),
        relabelled(token_graph(complete_graph(6), 3).graph, 63),
        relabelled(token_graph(complete_graph(5), 2).graph, 52),
        _circulant(13, (1, 2)),
        _circulant(20, (1, 2, 5)),
        _circulant(26, (1, 3, 4)),
        _circulant(17, (1, 2, 4, 8)),
    ],
    ids=["J(6,3)", "F_2(K_6) relabelled", "F_2(K_7) relabelled", "J(6,3) relabelled",
         "F_2(K_5) relabelled", "C13(1,2)", "C20(1,2,5)", "C26(1,3,4)", "C17(1,2,4,8)"],
)
def test_the_root_bound_is_sound_on_regular_graphs_with_triangles(g):
    assert _has_triangle(g)
    assert _assert_root_bound_is_sound(g) is not None


@given(st.integers(3, 8), st.integers(6, 26), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_the_root_bound_is_sound_on_random_regular_graphs(d, n, seed):
    nx = pytest.importorskip("networkx")
    assume(d < n and d * n % 2 == 0)
    h = nx.random_regular_graph(d, n, seed)
    g = Graph(n, list(h.edges))
    assume(_has_triangle(g))
    _assert_root_bound_is_sound(g)


def _cocktail_party(h):
    """K_{2 x h}: 2h vertices, each adjacent to all but its antipode."""
    return Graph(2 * h, [(u, v) for u in range(2 * h) for v in range(u + 1, 2 * h) if v - u != h])


def test_the_clique_enumeration_is_bounded(monkeypatch):
    # K_{2 x 20} has 2^20 maximum cliques. Its cover closes its root, so its
    # enumeration runs only when asked directly; in the blow-up of C_5 by
    # it, 5 * 4^20 maximum cliques, the cover does not, and the solve asks
    start = time.perf_counter()
    party = _cocktail_party(20)
    assert independence._clique_family_bound((1 << party.n) - 1, party.adjacency_masks()) is None
    assert max_independent_set(party).size == 2
    blown = Graph(
        200,
        [(40 * i + u, 40 * i + v) for i in range(5) for u, v in party.edges]
        + [(40 * i + u, 40 * ((i + 1) % 5) + v) for i in range(5) for u in range(40) for v in range(40)],
    )
    asked = []
    family_bound = independence._clique_family_bound

    def recorded(comp, masks):
        asked.append(family_bound(comp, masks))
        return asked[-1]

    monkeypatch.setattr(independence, "_clique_family_bound", recorded)
    assert max_independent_set(blown).size == 4
    assert asked == [None]
    assert time.perf_counter() - start < 1.0


def test_budget_generous_limit_succeeds():
    t = token_graph(cycle_graph(9), 2)
    found = max_independent_set(t.graph, Budget(seconds=60, node_limit=10_000_000))
    assert found.size == 18


# -- greedy seed, garbage and recursion limit -------------------------------


def _quadratic_greedy_seed(comp, masks):
    """Reference seed: a popcount scan of every candidate per pick, taking
    the least remaining degree with ties to the lowest id."""
    cand = comp
    chosen = 0
    while cand:
        pick, pick_deg = -1, 1 << 62
        m = cand
        while m:
            low = m & (-m)
            m ^= low
            v = low.bit_length() - 1
            d = (masks[v] & cand).bit_count()
            if d < pick_deg:
                pick, pick_deg = v, d
        chosen |= 1 << pick
        cand &= ~(masks[pick] | (1 << pick))
    return chosen


def _assert_seed_matches_reference(g):
    masks = g.adjacency_masks()
    comps = _components(g)
    for comp in comps:
        chosen = _greedy_seed(comp, g.adj, [-1] * g.n)[0]
        assert _mask(chosen) == _quadratic_greedy_seed(_mask(comp), masks)
    return len(comps)


@given(st.integers(1, 40), st.sampled_from((0.05, 0.15, 0.3, 0.6)), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_greedy_seed_matches_reference_on_random_graphs(n, p, seed):
    _assert_seed_matches_reference(erdos_renyi(n, p, seed))


def test_greedy_seed_matches_reference_on_relabelled_token_graphs():
    bases = [cycle_graph(n) for n in range(3, 10)]
    bases += [path_graph(n) for n in range(2, 10)]
    bases += [complete_graph(n) for n in range(2, 8)]
    bases += [complete_bipartite_graph(m, n) for m in range(1, 5) for n in range(m, 6)]
    bases += [star_graph(n) for n in range(2, 8)]
    checked = 0
    for i, base in enumerate(bases):
        for k in range(1, base.n):
            t = token_graph(base, k).graph
            checked += _assert_seed_matches_reference(t)
            checked += _assert_seed_matches_reference(relabelled(t, i * 100 + k))
    assert checked > 300


def _mask_bucket_greedy_seed(comp, masks):
    """Reference seed: the greedy as it ran on bitmasks, ``buckets[d]`` the
    mask of live vertices with d live neighbours, returning the set and the
    degree sum of ``comp``."""
    deg = {}
    buckets = [0] * comp.bit_count()
    degree_sum = 0
    for v in _bit_list(comp):
        d = (masks[v] & comp).bit_count()
        deg[v] = d
        degree_sum += d
        buckets[d] |= 1 << v
    cand = comp
    chosen = 0
    low = 0
    while cand:
        while not buckets[low]:
            low += 1
        vbit = buckets[low] & (-buckets[low])
        chosen |= vbit
        gone = (masks[vbit.bit_length() - 1] & cand) | vbit
        cand &= ~gone
        while gone:
            ubit = gone & (-gone)
            gone ^= ubit
            u = ubit.bit_length() - 1
            buckets[deg[u]] ^= ubit
            m = masks[u] & cand
            while m:
                xbit = m & (-m)
                m ^= xbit
                x = xbit.bit_length() - 1
                d = deg[x]
                deg[x] = d - 1
                buckets[d] ^= xbit
                buckets[d - 1] |= xbit
                if d - 1 < low:
                    low = d - 1
    return chosen, degree_sum


def _disjoint_union(graphs):
    edges, n = [], 0
    for h in graphs:
        edges += [(n + u, n + v) for u, v in h.edges]
        n += h.n
    return Graph(n, edges)


def test_greedy_seed_matches_the_mask_bucket_seed():
    # the bench graphs and the largest LP-bound instance, relabelled, and a
    # graph of 200 small components that share one scratch list, as in a solve
    many = [token_graph(cycle_graph(5), 2).graph, path_graph(3), Graph(1), complete_graph(4)]
    graphs = [
        relabelled(token_graph(cycle_graph(14), 7).graph, 7),
        relabelled(token_graph(complete_bipartite_graph(7, 7), 7).graph, 7),
        relabelled(token_graph(cycle_graph(11), 4).graph, 11),
        relabelled(_disjoint_union(many * 50), 3),
    ]
    for g in graphs:
        masks = g.adjacency_masks()
        deg = [-1] * g.n
        comps = _components(g)
        for comp in comps:
            expected = _mask_bucket_greedy_seed(_mask(comp), masks)
            for scratch in ([-1] * g.n, deg):
                chosen, degree_sum = _greedy_seed(comp, g.adj, scratch)
                assert (_mask(chosen), degree_sum) == expected
        assert deg == [-1] * g.n
    assert len(comps) == 200


def test_a_solve_is_linear_in_its_component_count():
    # 10,000 two-vertex components: about 0.3 s; scratch lists allocated
    # per component instead of per solve take about 7 s
    g = Graph(20_000, [(2 * i, 2 * i + 1) for i in range(10_000)])
    start = time.perf_counter()
    found = max_independent_set(g)
    assert time.perf_counter() - start < 3
    assert found.vertices == frozenset(range(0, 20_000, 2))


# -- clique-cover bound ----------------------------------------------------


def _first_fit_cliques(order, masks):
    """Each vertex, in ``order``, joins the first open clique whose members
    it all sees, or opens a new one."""
    cliques = []
    for v in order:
        for i, c in enumerate(cliques):
            if c & ~masks[v] == 0:
                cliques[i] = c | 1 << v
                break
        else:
            cliques.append(1 << v)
    return cliques


def _first_fit_clique_cover(cand, masks):
    """Reference bound: the number of first-fit cliques in id order."""
    return len(_first_fit_cliques(_bit_list(cand), masks))


def _cover_count(cand, masks):
    """The clique count alone: a cover of ``cand`` has at most |cand|
    cliques, so that room never triggers the inference."""
    return _clique_cover_bound(cand, masks, cand.bit_count())


def _random_subsets(n, seed, count):
    rng = random.Random(seed)
    full = (1 << n) - 1
    return [full, 0] + [rng.getrandbits(n) for _ in range(count)]


@given(
    st.integers(0, 48),
    st.sampled_from((0.05, 0.2, 0.5, 0.8, 1.0)),
    st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_clique_cover_bound_matches_first_fit_on_random_graphs(n, p, seed):
    masks = erdos_renyi(n, p, seed).adjacency_masks()
    for cand in _random_subsets(n, seed, 12):
        assert _cover_count(cand, masks) == _first_fit_clique_cover(cand, masks)


def test_clique_cover_bound_matches_first_fit_on_relabelled_token_graphs():
    bases = [cycle_graph(n) for n in range(3, 10)]
    bases += [path_graph(n) for n in range(2, 10)]
    bases += [complete_graph(n) for n in range(2, 8)]
    checked = 0
    for i, base in enumerate(bases):
        for k in range(1, base.n):
            t = token_graph(base, k).graph
            for g in (t, relabelled(t, i * 100 + k)):
                masks = g.adjacency_masks()
                for cand in _random_subsets(g.n, i * 100 + k, 8):
                    bound = _cover_count(cand, masks)
                    assert bound == _first_fit_clique_cover(cand, masks)
                    checked += 1
    assert checked > 1500


def _meets_every_clique(cliques, masks):
    """Brute force: some independent set has a vertex in every clique."""
    for pick in product(*map(_bit_list, cliques)):
        chosen = _mask(pick)
        if all(masks[v] & chosen == 0 for v in pick):
            return True
    return False


def test_inconsistent_covers_have_no_independent_set_meeting_every_clique():
    # covers first-fit builds in id order, as the search does, and in a
    # shuffled order; an inconsistent cover also lowers the bound by one
    # exactly where it misses pruning by one, and the bound stays valid
    inconsistent = 0
    for seed in range(400):
        g = erdos_renyi(4 + seed % 11, (0.2, 0.35, 0.5, 0.7)[seed % 4], seed)
        masks = g.adjacency_masks()
        rng = random.Random(seed)
        for cand in _random_subsets(g.n, seed, 3):
            ids = _bit_list(cand)
            for order in (ids, rng.sample(ids, len(ids))):
                cliques = _first_fit_cliques(order, masks)
                if independence._inconsistent(cliques, masks):
                    inconsistent += 1
                    assert not _meets_every_clique(cliques, masks), (seed, cand, order)
            count = _cover_count(cand, masks)
            alpha = _brute_force_rec(cand, masks)
            for room in range(count + 1):
                bound = _clique_cover_bound(cand, masks, room)
                assert bound >= alpha
                assert bound == count or (bound == room == count - 1)
    assert inconsistent > 200


# -- LP bound on triangle-free components ----------------------------------


def _cover_only_branch(cand, best_mask, masks, clock):
    """Reference search: ``_branch`` with the clique-cover bound alone, a
    reduction loop that runs until nothing changes and a separate popcount
    scan for the busiest vertex."""
    best_size = best_mask.bit_count()
    stack = [(cand, 0, 0)]
    while stack:
        cand, cur_mask, cur_size = stack.pop()
        clock.tick()
        progressed = True
        while progressed:
            progressed = False
            m = cand
            while m:
                low = m & (-m)
                m ^= low
                if not cand & low:
                    continue
                nb = masks[low.bit_length() - 1] & cand
                if nb == 0:
                    cand ^= low
                    cur_mask |= low
                    cur_size += 1
                    progressed = True
                elif nb & (nb - 1) == 0:
                    cand &= ~(low | nb)
                    cur_mask |= low
                    cur_size += 1
                    progressed = True
        if cand == 0:
            if cur_size > best_size:
                best_mask, best_size = cur_mask, cur_size
            continue
        if cur_size + _cover_count(cand, masks) <= best_size:
            continue
        pick, pick_deg = -1, -1
        m = cand
        while m:
            low = m & (-m)
            m ^= low
            v = low.bit_length() - 1
            d = (masks[v] & cand).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        vbit = 1 << pick
        stack.append((cand & ~vbit, cur_mask, cur_size))
        stack.append((cand & ~(masks[pick] | vbit), cur_mask | vbit, cur_size + 1))
    return best_mask


def _random_triangle_free(n, p, seed):
    """Edges drawn as in G(n, p), each kept only if it closes no triangle."""
    rng = random.Random(seed)
    masks = [0] * n
    edges = []
    for u in range(n):
        for w in range(u + 1, n):
            if rng.random() < p and not masks[u] & masks[w]:
                masks[u] |= 1 << w
                masks[w] |= 1 << u
                edges.append((u, w))
    return Graph(n, edges)


def _search_nodes(search, *args):
    clock = _BudgetClock(None)
    return search(*args, clock), clock.nodes


def _assert_branch_matches_cover_only(g, from_empty=True):
    """Both searches return the same set from every component's seed and,
    if asked, from the empty set on the whole graph; the LP bound never adds
    a node. Returns the node counts of both."""
    masks = g.adjacency_masks()
    total = [0, 0]
    deg = [-1] * g.n
    scratch = _hopcroft_karp_scratch(g.n)
    starts = [(_mask(comp), _mask(_greedy_seed(comp, g.adj, deg)[0])) for comp in _components(g)]
    if from_empty:
        starts.append(((1 << g.n) - 1, 0))
    for cand, seed in starts:
        found, nodes = _search_nodes(_branch, cand, seed, masks, g.adj, scratch)
        reference, reference_nodes = _search_nodes(_cover_only_branch, cand, seed, masks)
        assert found == reference
        assert nodes <= reference_nodes
        total[0] += nodes
        total[1] += reference_nodes
    return total


@given(st.integers(1, 40), st.sampled_from((0.05, 0.1, 0.2, 0.4)), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_branch_matches_cover_only_on_triangle_free_graphs(n, p, seed):
    _assert_branch_matches_cover_only(_random_triangle_free(n, p, seed))


def test_branch_matches_cover_only_on_relabelled_odd_cycle_token_graphs():
    # relabelled, F_3(C_11) takes the cover-only search 8 s, so it runs at
    # the paper's labels only
    graphs = [token_graph(cycle_graph(11), 3).graph]
    for n, k in [(5, 2), (7, 2), (9, 2), (11, 2), (7, 3), (9, 3), (7, 4), (9, 4)]:
        t = token_graph(cycle_graph(n), k).graph
        graphs += [t, relabelled(t, 10 * n + k)]
    nodes, reference_nodes = 0, 0
    for g in graphs:
        found, reference = _assert_branch_matches_cover_only(g, from_empty=False)
        nodes += found
        reference_nodes += reference
    # the bound does prune here: a fifth of the cover-only nodes or fewer
    assert 5 * nodes < reference_nodes


def _with_a_triangle(n, p, seed):
    """G(n, p) with the triangle 0, 1, 2 added."""
    g = erdos_renyi(n, p, seed)
    return Graph(n, list(g.edges) + [(0, 1), (1, 2), (0, 2)])


@given(st.integers(3, 40), st.sampled_from((0.1, 0.2, 0.35, 0.5, 0.7)), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_branch_matches_cover_only_on_graphs_with_triangles(n, p, seed):
    _assert_branch_matches_cover_only(_with_a_triangle(n, p, seed))


def test_branch_matches_cover_only_on_johnson_and_relabelled_token_graphs():
    # J(n, k) = F_k(K_n) at the paper's labels, and token graphs of a
    # wheel and of K_6, relabelled
    graphs = [token_graph(complete_graph(n), k).graph for n, k in [(6, 3), (7, 3), (8, 3), (8, 4)]]
    wheel = Graph(7, [(0, v) for v in range(1, 7)] + [(v, v % 6 + 1) for v in range(1, 7)])
    for i, (base, k) in enumerate([(wheel, 3), (complete_graph(6), 3)]):
        graphs.append(relabelled(token_graph(base, k).graph, 70 + i))
    nodes, reference_nodes = 0, 0
    for g in graphs:
        found, reference = _assert_branch_matches_cover_only(g, from_empty=g.n <= 35)
        nodes += found
        reference_nodes += reference
    # the inference prunes: under half the cover-only nodes
    assert 2 * nodes < reference_nodes


def _lp_bound(cand, adj):
    """|cand| minus half the matching number of its double cover, rounded
    up: the bound ``_branch`` prunes with."""
    live = _bit_list(cand)
    nu, _ = independence._bipartite_matching_size(live, live, adj)
    return len(live) - (nu + 1) // 2


def _brute_triangle_free(g):
    return not any(
        set(g.adj[u]) & set(g.adj[w]) for u in range(g.n) for w in g.adj[u]
    )


@given(
    st.integers(0, 22),
    st.sampled_from((0.1, 0.2, 0.35, 0.6)),
    st.integers(0, 10_000),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_lp_bound_is_an_upper_bound_on_triangle_free_graphs(n, p, seed, free):
    g = _random_triangle_free(n, p, seed) if free else erdos_renyi(n, p, seed)
    masks = g.adjacency_masks()
    assert _triangle_free((1 << n) - 1, masks) == _brute_triangle_free(g)
    if not free:
        return
    assert _lp_bound((1 << n) - 1, g.adj) >= brute_force_mis(g)
    for cand in _random_subsets(n, seed, 6):
        # on a triangle-free graph the LP bound is never weaker than the cover
        bound = _lp_bound(cand, g.adj)
        assert _brute_force_rec(cand, masks) <= bound <= _cover_count(cand, masks)


def test_lp_bound_is_never_tried_on_graphs_with_triangles(monkeypatch):
    def refuse(*args):
        raise AssertionError("matching engine called on a graph with triangles")

    monkeypatch.setattr(independence, "_bipartite_matching_size", refuse)
    assert max_independent_set(token_graph(complete_graph(9), 3).graph).size == 12
    assert max_independent_set(token_graph(complete_graph(8), 4).graph).size == 14


def test_clique_cover_is_never_tried_on_triangle_free_graphs(monkeypatch):
    # the LP bound prunes every node the cover of vertices and edges would
    def refuse(*args):
        raise AssertionError("clique cover called on a triangle-free graph")

    monkeypatch.setattr(independence, "_clique_cover_bound", refuse)
    assert max_independent_set(token_graph(cycle_graph(9), 3).graph).size == 38
    assert max_independent_set(token_graph(cycle_graph(9), 4).graph).size == 56


@pytest.mark.parametrize(
    "n, k, nodes, lp_calls",
    [(9, 3, 35, 18), (9, 4, 103, 59), (11, 3, 227, 113)],
    ids=["F_3(C_9)", "F_4(C_9)", "F_3(C_11)"],
)
def test_lp_bound_runs_only_where_it_can_prune(monkeypatch, n, k, nodes, lp_calls):
    # at the paper's labels; the LP bound is the only bound on these
    # triangle-free graphs, tried where |cand| // 2 leaves it room to prune
    targets = []
    engine = independence._bipartite_matching_size

    def counted(*args):
        targets.append(args[3])
        return engine(*args)

    monkeypatch.setattr(independence, "_bipartite_matching_size", counted)
    g = token_graph(cycle_graph(n), k).graph
    max_independent_set(g, Budget(node_limit=nodes))
    assert len(targets) == lp_calls and all(t > 0 for t in targets)
    with pytest.raises(BudgetExceededError, match=f"after {nodes} nodes"):
        max_independent_set(g, Budget(node_limit=nodes - 1))


@pytest.mark.parametrize(
    "n, k, beta, nodes, lp_calls",
    [(11, 4, 150, 3_831, 1_969), (13, 3, 132, 1_813, 929)],
    ids=["F_4(C_11)", "F_3(C_13)"],
)
def test_the_search_tree_is_pinned_past_the_catalog(monkeypatch, n, k, beta, nodes, lp_calls):
    # at the paper's labels; scipy's MILP gives the same beta on both. Any
    # change to the seed, the reductions, the branching order or the prune
    # decisions moves these counts
    calls = []
    engine = independence._bipartite_matching_size

    def counted(*args):
        calls.append(args[3])
        return engine(*args)

    monkeypatch.setattr(independence, "_bipartite_matching_size", counted)
    found, ticks = _solve_ticks(monkeypatch, token_graph(cycle_graph(n), k).graph)
    assert (found.size, ticks, len(calls)) == (beta, nodes, lp_calls)


@pytest.mark.parametrize("n, k, beta", [(9, 3, 38), (9, 4, 56), (11, 3, 75)])
def test_solver_agrees_with_a_milp_oracle(n, k, beta):
    # scipy's MILP (HiGHS) on the edge formulation x_u + x_v <= 1, an
    # oracle independent of networkx and of this package's bounds
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    g = token_graph(cycle_graph(n), k).graph
    edges = np.array(g.edges)
    rows = np.repeat(np.arange(len(edges)), 2)
    incidence = csr_array((np.ones(rows.size), (rows, edges.ravel())), shape=(len(edges), g.n))
    result = milp(
        -np.ones(g.n),
        constraints=LinearConstraint(incidence, -np.inf, 1),
        integrality=np.ones(g.n),
        bounds=Bounds(0, 1),
    )
    assert result.status == 0
    assert round(-result.fun) == max_independent_set(g).size == beta


def test_complement_isomorphism_oracle_f3_f8_c11():
    # F_k(G) and F_{n-k}(G) are isomorphic through complementing token sets
    assert token_independence_number(cycle_graph(11), 3) == 75
    assert token_independence_number(cycle_graph(11), 8) == 75


def test_solving_bipartite_graphs_builds_no_masks():
    # the König path, and the König cover's complement on a fresh copy of
    # KOENIG_FALLBACK, read only the neighbour tuples
    cases = [(token_graph(complete_bipartite_graph(4, 4), 3).graph, 28), (Graph(24, KOENIG_FALLBACK.edges), 14)]
    for g, beta in cases:
        assert max_independent_set(g).size == beta
        assert g._masks is None
    g = token_graph(cycle_graph(14), 7).graph
    assert max_independent_set(g).size == comb(14, 7) // 2
    assert g._edges is None and g._masks is None


def test_solve_leaves_no_cyclic_garbage():
    solves = [
        (max_independent_set, token_graph(cycle_graph(8), 4).graph),
        (max_independent_set, token_graph(cycle_graph(9), 3).graph),
        (max_independent_set, token_graph(complete_graph(8), 3).graph),
        (brute_force_mis, token_graph(cycle_graph(7), 2).graph),
        (brute_force_nu, token_graph(cycle_graph(6), 2).graph),
        (max_matching, token_graph(cycle_graph(9), 3).graph),
    ]
    for _, g in solves:
        g.adjacency_masks()
    gc.collect()
    gc.disable()
    try:
        for solve, g in solves:
            solve(g)
            assert gc.collect() == 0, solve.__name__
    finally:
        gc.enable()


def test_solve_restores_the_recursion_limit():
    limit = sys.getrecursionlimit()
    g = token_graph(cycle_graph(12), 5).graph
    assert 2 * g.n + 200 > limit
    assert max_independent_set(g).size == comb(12, 5) // 2
    assert sys.getrecursionlimit() == limit
    with pytest.raises(BudgetExceededError):
        max_independent_set(g, Budget(node_limit=0))
    assert sys.getrecursionlimit() == limit


def _noop():
    pass


def _least_working_limit():
    """The least recursion limit under which a call made here succeeds."""
    limit = 1
    while True:
        try:
            sys.setrecursionlimit(limit)
            _noop()
            return limit
        except RecursionError:
            limit += 1


def test_branching_depth_is_not_bounded_by_the_recursion_limit():
    # F_3(C_9) is not bipartite, so its solve branches. The solve goes three
    # calls deeper than the probe, through the LP bound's matching engine; a
    # search that recursed once per include level would go past the five
    # allowed here
    g = token_graph(cycle_graph(9), 3).graph
    g.adjacency_masks()
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(_least_working_limit() + 5)
        assert max_independent_set(g).size == 38
    finally:
        sys.setrecursionlimit(limit)


# -- saturation shortcut ----------------------------------------------------


def test_saturation_route_k33():
    t = token_graph(complete_bipartite_graph(3, 3), 2)
    classes = token_bipartition(t, bipartition_of(t.base))
    assert beta_via_saturation(t, classes) == 9


def test_saturation_route_matching_graphs():
    for m in range(1, 4):
        for s in (0, 1):
            g = matching_graph(m, s)
            if g.n < 3:
                continue
            base = bipartition_of(g)
            for k in range(1, g.n):
                t = token_graph(g, k)
                classes = token_bipartition(t, base)
                value = beta_via_saturation(t, classes)
                assert value == max(len(classes.part_b), len(classes.part_r))
                assert value == independence_number(t.graph)


def test_saturation_route_inconclusive_on_counterexample():
    # a parts-2/5 graph whose 2-token independence beats both classes
    parts_2_5 = complete_bipartite_graph(2, 5)
    tokens = (token_graph(g, 2) for g in spanning_subgraphs(parts_2_5, covered_only=True))
    t = next(t for t in tokens if independence_number(t.graph) > 11)
    classes = token_bipartition(t, bipartition_of(t.base))
    assert beta_via_saturation(t, classes) is None
    assert independence_number(t.graph) == 12


def test_saturation_matches_solver_wherever_conclusive(small_named):
    for _, g in small_named:
        base = bipartition_of(g)
        if base is None or g.n < 3:
            continue
        for k in range(1, g.n):
            t = token_graph(g, k)
            value = beta_via_saturation(t, token_bipartition(t, base))
            if value is not None:
                assert value == independence_number(t.graph)


# -- recursive bounds -------------------------------------------------------


def test_bounds_pair_validates():
    with pytest.raises(ValueError):
        BoundsPair(lower=3, upper=2)


def test_recursive_bounds_c5():
    bounds = recursive_bounds(cycle_graph(5), 2, token_independence_number)
    assert bounds.lower == 3 and bounds.upper == 5
    assert bounds.lower <= token_independence_number(cycle_graph(5), 2) <= bounds.upper


def test_recursive_bounds_lower_tight_at_claw():
    bounds = recursive_bounds(star_graph(3), 2, token_independence_number)
    assert bounds.lower == 3 == token_independence_number(star_graph(3), 2)


def test_recursive_bounds_upper_tight_at_k4():
    bounds = recursive_bounds(complete_graph(4), 2, token_independence_number)
    assert bounds.upper == 2 == token_independence_number(complete_graph(4), 2)


def test_recursive_bounds_sandwich_small_corpus(small_named):
    cache = {}

    def beta(h, j):
        key = (h, j)
        if key not in cache:
            cache[key] = token_independence_number(h, j)
        return cache[key]

    for name, g in small_named:
        if g.n > 6:
            continue
        for k in range(2, g.n):
            bounds = recursive_bounds(g, k, beta)
            assert bounds.lower <= beta(g, k) <= bounds.upper, (name, k)


def test_recursive_lower_bound_on_k_n_is_the_one_smaller_johnson_value():
    # K_n - N[v] is empty, so the best split is β(F_{k-1}(K_{n-1})), the
    # lower bound of the Johnson sandwich, at every k that check uses
    for n in range(4, 9):
        for k in range(2, min(3, n - 2) + 1):
            bounds = recursive_bounds(complete_graph(n), k, token_independence_number)
            assert bounds.lower == token_independence_number(complete_graph(n - 1), k - 1)


def test_recursive_bounds_rejects_bad_k():
    with pytest.raises(GraphError):
        recursive_bounds(path_graph(4), 1, token_independence_number)


def _one_deletion_bound(g, k, oracle):
    """The eq2/eq3 upper side as it was, frozen here: on a vertex-transitive
    base every G - v is alike, so vertex 0 stands for all of them and the
    bound is the smaller of n·β(F_{k-1}(G - v))/k and n·β(F_k(G - v))/(n - k).
    It is not a bound on other regular bases."""
    g_minus_v = delete_vertices(g, (0,))[0]
    return min(g.n * oracle(g_minus_v, k - 1) // k, g.n * oracle(g_minus_v, k) // (g.n - k))


def _sandwich_rows(bases, oracle, beta):
    """(n, k) -> (upper side, status) of every row the eq2/eq3 sandwich
    yields on ``bases``, one base per order n, for 2 <= k <= n - 2."""
    cap = max(bases)
    found = {}
    for name, compute in verify._sandwich("{n} {k}", bases.get, cap, oracle, beta, cap):
        n, k = map(int, name.split())
        if n in bases:
            interval, _, _, status = compute()
            found[n, k] = int(interval.strip("[]").split(", ")[1]), status
    return found


@pytest.mark.parametrize(
    "base,oracle",
    [
        # eq2's oracle: every deletion of a cycle is a path
        (cycle_graph, lambda h, j: beta_balanced_family(h.n, j)),
        # any oracle invariant under isomorphism and complement will do on
        # K_n, whose deletions are all K_{n-1}; this spares J(10,3)'s solve
        (complete_graph, lambda h, j: comb(h.n, j)),
    ],
    ids=["cycle", "complete"],
)
def test_sandwich_upper_is_the_one_deletion_bound_on_vertex_transitive_bases(base, oracle):
    rows = _sandwich_rows({n: base(n) for n in range(4, 17)}, oracle, oracle)
    assert sorted(rows) == [(n, k) for n in range(4, 17) for k in range(2, n - 1)]
    for (n, k), (upper, _) in rows.items():
        assert upper == _one_deletion_bound(base(n), k, oracle), (n, k)


def test_sandwich_upper_holds_on_a_regular_base_that_is_not_vertex_transitive():
    # C_4 and C_3 side by side, vertex 0 on the 4-cycle: the one-deletion
    # bound read at vertex 0 gives 8 at k = 2 and k = 5, below β = 9
    g = Graph(7, [(0, 1), (0, 3), (1, 4), (3, 4), (2, 5), (2, 6), (5, 6)])
    beta = verify._cached_beta(None)
    rows = _sandwich_rows({7: g}, beta, beta)
    for k in (2, 5):
        assert _one_deletion_bound(g, k, beta) == 8 < 9 == beta(g, k)
        assert rows[7, k] == (10, STATUS_BOUND)


@given(st.integers(4, 7), st.sampled_from((0.2, 0.4, 0.6, 0.8)), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sandwich_brackets_beta_on_random_bases(n, density, seed):
    beta = verify._cached_beta(None)
    rows = _sandwich_rows({n: erdos_renyi(n, density, seed)}, beta, beta)
    assert rows and all(status == STATUS_BOUND for _, status in rows.values())
