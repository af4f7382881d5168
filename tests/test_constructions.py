from math import comb

import pytest

from tokengraphs.constructions import (
    cycle_independent_set,
    cycle_layer,
    f2_matching_construction,
    isolated_tokens,
    lemma_times_combine,
    theorem1_matching,
    witness_graph,
)
from tokengraphs.formulas import beta_cycle_f2, class_bound, class_order_predicate, nu_token_formula
from tokengraphs.graphs import (
    GraphError,
    complete_bipartite_graph,
    cycle_graph,
    make_graph,
    matching_graph,
    path_graph,
)
from tokengraphs.independence import independence_number, token_independence_number
from tokengraphs.matching import Matching, max_matching
from tokengraphs.tokens import token_graph, validate_token_matching


# -- the combination step ---------------------------------------------------


def test_combine_with_empty_inner_matchings():
    g = cycle_graph(6)
    empty = Matching.of([])
    combined = lemma_times_combine(g, (0, 1), empty, empty, 3)
    assert combined.size == comb(4, 2) == 6
    validate_token_matching(g, 3, combined.edges)


def test_combine_families_partition_by_endpoint_count():
    g = cycle_graph(6)
    h_edges = token_graph(make_graph(4, [(0, 1), (1, 2), (2, 3)]), 1).graph.edges
    inner_n = Matching.of([h_edges[0]])
    combined = lemma_times_combine(g, (4, 5), inner_n, Matching.of([]), 3)
    assert combined.size == 1 + comb(4, 2)
    t = token_graph(g, 3)
    # count how many of {4, 5} each covered token contains: the lifted inner
    # matching avoids both, the swap family hits exactly one each
    for a, b in combined.edges:
        ca = len({4, 5} & set(t.codec.unrank(a)))
        cb = len({4, 5} & set(t.codec.unrank(b)))
        assert (ca, cb) in {(0, 0), (1, 1), (2, 2)}


def test_combine_rejects_undersized_base():
    g = cycle_graph(5)
    with pytest.raises(GraphError):
        lemma_times_combine(g, (0, 1), Matching.of([]), Matching.of([]), 3)


def test_combine_rejects_non_edge():
    g = cycle_graph(6)
    with pytest.raises(GraphError):
        lemma_times_combine(g, (0, 2), Matching.of([]), Matching.of([]), 3)


# -- pair-token construction ------------------------------------------------


@pytest.mark.parametrize(
    "m,s,expect",
    [(2, 0, 2), (2, 1, 4), (3, 0, 6), (1, 1, 1), (4, 1, 16)],
)
def test_f2_construction_sizes(m, s, expect):
    built = f2_matching_construction(m, s)
    assert built.size == expect == comb(m, 2) + comb(m + s, 2)
    n = 2 * m + s
    assert 2 * built.size == comb(n, 2) - (n // 2)


def test_f2_construction_rejects_tiny_order():
    with pytest.raises(GraphError):
        f2_matching_construction(1, 0)


def test_f2_construction_is_maximum():
    for m, s in [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0)]:
        t = token_graph(matching_graph(m, s), 2)
        assert f2_matching_construction(m, s).size == max_matching(t.graph).size


# -- the full recursive matching --------------------------------------------


def test_theorem1_perfect_on_even_cycle():
    g = cycle_graph(6)
    built = theorem1_matching(g, max_matching(g), 3)
    assert built.size == 10 == comb(6, 3) // 2


def test_theorem1_tight_on_matching_graph():
    g = matching_graph(3, 0)
    built = theorem1_matching(g, Matching.of(g.edges), 2)
    assert built.size == 6 == (comb(6, 2) - 3) // 2


def test_theorem1_odd_order_bound():
    g = path_graph(5)
    built = theorem1_matching(g, max_matching(g), 3)
    assert built.size == 4 == (comb(5, 3) - comb(2, 1)) // 2


def test_theorem1_all_matching_graphs_tight():
    for m, s in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0)]:
        g = matching_graph(m, s)
        base = Matching.of(g.edges)
        for k in range(1, g.n):
            built = theorem1_matching(g, base, k)
            solved = max_matching(token_graph(g, k).graph).size
            assert built.size == solved == nu_token_formula(g.n, k).value, (m, s, k)


def test_theorem1_achieves_bound_on_richer_bases():
    for g in [cycle_graph(8), complete_bipartite_graph(4, 4), path_graph(6), path_graph(7)]:
        base = max_matching(g)
        for k in range(1, g.n):
            built = theorem1_matching(g, base, k)
            assert built.size == nu_token_formula(g.n, k).value, (g, k)


def test_theorem1_rejects_weak_base_matching():
    g = path_graph(5)
    with pytest.raises(GraphError):
        theorem1_matching(g, Matching.of([(0, 1)]), 2)


# -- isolated tokens ---------------------------------------------------------


def test_isolated_tokens_even_k():
    out = isolated_tokens(2, 0, 2)
    assert out == {frozenset({0, 1}), frozenset({2, 3})}


def test_isolated_tokens_odd_k_with_spare_vertex():
    out = isolated_tokens(3, 1, 3)
    assert len(out) == comb(3, 1) == 3
    assert all(6 in token for token in out)


def test_isolated_tokens_odd_k_perfect_base_empty():
    assert isolated_tokens(3, 0, 3) == frozenset()
    assert isolated_tokens(2, 0, 1) == frozenset()


def test_isolated_tokens_counts_sweep():
    for m, s in [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0)]:
        n = 2 * m + s
        for k in range(1, n):
            expect = comb(m, k // 2) if (k % 2 == 0 or s == 1) else 0
            assert len(isolated_tokens(m, s, k)) == expect, (m, s, k)


# -- cycle layers ------------------------------------------------------------


def test_layer_figure_values():
    assert cycle_layer(5, 4).pairs == {
        frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset({4, 5})
    }
    assert cycle_layer(5, 1).pairs == {frozenset({1, 5})}


def test_layer_sizes():
    for p in (5, 7, 9):
        for i in range(1, p):
            assert cycle_layer(p, i).size == i


def test_layers_linked_matches_rule_set():
    for p in (5, 7, 9, 11, 13):
        t = token_graph(cycle_graph(p), 2)
        half = p // 2
        for i in range(1, p):
            for j in range(1, p):
                expected = (
                    abs(i - j) == 1
                    or (i != j and i + j == p + 1 and min(i, j) >= 2)
                    or (i == j == half + 1)
                )
                ranks_i, ranks_j = cycle_layer(p, i).ranks(t), cycle_layer(p, j).ranks(t)
                linked = any(ranks_j.intersection(t.graph.adj[r]) for r in ranks_i)
                assert linked == expected, (p, i, j)
    # the underlying edge for the 2 / 6 link of C7 is [{1,2}, {2,7}]
    t = token_graph(cycle_graph(7), 2)
    assert t.graph.adjacent(t.codec.rank((0, 1)), t.codec.rank((1, 6)))


def test_layer_independent_unless_middle():
    for p in (5, 7, 9):
        t = token_graph(cycle_graph(p), 2)
        for i in range(1, p):
            ranks = cycle_layer(p, i).ranks(t)
            internal = any(ranks.intersection(t.graph.adj[r]) for r in ranks)
            assert internal == (i == p // 2 + 1)


def test_cycle_independent_set_sizes_and_validity():
    for p in (5, 7, 9, 11):
        built = cycle_independent_set(p)
        assert built.size == beta_cycle_f2(p)
        assert built.size == token_independence_number(cycle_graph(p), 2)


def test_cycle_independent_set_rejects_even_or_tiny():
    with pytest.raises(GraphError):
        cycle_independent_set(6)
    with pytest.raises(GraphError):
        cycle_independent_set(3)


# -- witness graphs -----------------------------------------------------------


def test_witness_small_single_edge():
    g, classes, phi = witness_graph(1, 0)
    assert g.n == 2 and g.edges == ((0, 1),)
    assert phi == ()


def test_witness_small_with_spokes():
    g, classes, phi = witness_graph(3, 2)
    assert phi == (((1, 2), 1),)
    assert g.adjacent(0, 6) and g.adjacent(0, 7)
    assert token_independence_number(g, 2) == 15 == 3 * 5


def test_witness_small_no_spokes_below_two_spare():
    g, classes, phi = witness_graph(2, 1)
    assert g.edge_count == 2 and phi == ()
    assert token_independence_number(g, 2) == 6


def test_witness_large_phi_enumeration():
    g, classes, phi = witness_graph(3, 3)
    assert phi == ((1, (1, 2)), (2, (1, 3)), (3, (2, 3)))
    assert token_independence_number(g, 2) == comb(9, 2) - 18 == 18


def test_witness_large_small_cases():
    g, _, phi = witness_graph(1, 2)
    assert phi == ((1, (1, 2)),)
    assert token_independence_number(g, 2) == 3
    g, _, phi = witness_graph(2, 3)
    assert phi == ((1, (1, 2)), (2, (1, 3)))
    assert token_independence_number(g, 2) == 11


def test_witness_feasibility_guards():
    # every m >= 1 and s >= 0 has a witness; only empty parts are refused
    with pytest.raises(GraphError):
        witness_graph(0, 3)
    with pytest.raises(GraphError):
        witness_graph(2, -1)


def test_witness_edges_are_rungs_plus_two_spokes_per_injected_pair():
    # lemma 5 maps 2-subsets of the surplus to left vertices, lemma 6 the
    # reverse; either way left vertex h has spokes to the pair phi names
    for m in range(1, 6):
        for s in range(0, 7):
            g, classes, phi = witness_graph(m, s)
            spokes = min(m, comb(s, 2))
            assert g.edge_count == m + 2 * spokes, (m, s)
            assert len(phi) == spokes
            assert all(g.adjacent(i, m + i) for i in range(m))
            for entry in phi:
                pair, h = entry if comb(s, 2) < m else entry[::-1]
                assert all(g.adjacent(h - 1, 2 * m + x - 1) for x in pair), (m, s, entry)
            classes.validate(g)
            assert (len(classes.part_b), len(classes.part_r)) == (m, m + s)


def test_witness_class_sizes_and_threshold_agree():
    for m in range(1, 4):
        for s in range(0, 8 - 2 * m + 1):
            g, classes, _ = witness_graph(m, s)
            mixed = m * (m + s)
            same = comb(g.n, 2) - mixed
            if g.n >= 3:
                assert token_independence_number(g, 2) == class_bound(m, m + s, 2), (m, s)
                # lemmas 5 and 6: the mixed class wins exactly when m > C(s,2)
                assert class_bound(m, m + s, 2) == (mixed if comb(s, 2) < m else same)
            assert class_order_predicate(m, m + s) == (same >= mixed)


def test_supergraph_edges_never_change_the_answer():
    # adding any one missing cross edge keeps the class-size answer
    for m, s in [(1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (1, 2), (1, 3), (1, 4), (2, 3)]:
        g, classes, _ = witness_graph(m, s)
        if g.n < 3:
            continue
        answer = class_bound(m, m + s, 2)
        present = set(g.edges)
        for b in sorted(classes.part_b):
            for r in sorted(classes.part_r):
                if (b, r) in present:
                    continue
                richer = make_graph(g.n, list(g.edges) + [(b, r)])
                assert token_independence_number(richer, 2) == answer, (m, s, b, r)
