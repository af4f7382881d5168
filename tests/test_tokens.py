from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengraphs.graphs import (
    Graph,
    GraphError,
    bipartition_of,
    complete_bipartite_graph,
    cycle_graph,
    erdos_renyi,
    matching_graph,
    path_graph,
    star_graph,
)
from tokengraphs import verify
from tokengraphs.formulas import r_value
from tokengraphs.tokens import (
    SubsetCodec,
    _membership_lanes,
    subset_label,
    token_bipartition,
    token_graph,
    token_graph_to_dot,
    token_graph_to_json,
)
from conftest import complement_image, named_graphs, relabelled


# -- codec ------------------------------------------------------------------


def test_codec_colex_extremes():
    c = SubsetCodec(4, 2)
    assert c.rank({0, 1}) == 0
    assert c.rank({2, 3}) == 5 == c.size - 1


def test_codec_bijection_n5_k3():
    c = SubsetCodec(5, 3)
    for subset in combinations(range(5), 3):
        assert c.unrank(c.rank(subset)) == subset


def test_codec_monotone_in_colex_order():
    c = SubsetCodec(7, 3)
    subsets = sorted(combinations(range(7), 3), key=lambda s: tuple(reversed(s)))
    ranks = [c.rank(s) for s in subsets]
    assert ranks == list(range(c.size))


@given(st.integers(2, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))))
@settings(max_examples=40, deadline=None)
def test_codec_roundtrip(nk):
    n, k = nk
    c = SubsetCodec(n, k)
    for r in range(c.size):
        assert c.rank(c.unrank(r)) == r


def test_codec_rejects_bad_input():
    c = SubsetCodec(5, 2)
    with pytest.raises(GraphError):
        c.rank({1})
    with pytest.raises(GraphError):
        c.rank({1, 7})
    with pytest.raises(GraphError):
        c.unrank(10)


# -- construction -----------------------------------------------------------


def test_token_graph_of_triangle_is_triangle():
    t = token_graph(cycle_graph(3), 2)
    assert t.graph.n == 3 and t.graph.edge_count == 3
    assert t.graph.degree_sequence() == (2, 2, 2)


def test_token_graph_p5_k3():
    t = token_graph(path_graph(5), 3)
    assert t.graph.n == 10
    assert t.graph.edge_count == 12 == 4 * comb(3, 2)


def test_token_graph_matching_base_isolated_pairs():
    t = token_graph(matching_graph(2, 0), 2)
    assert t.graph.n == 6 and t.graph.edge_count == 4
    isolated = [r for r in range(6) if t.graph.degree(r) == 0]
    assert [set(t.codec.unrank(r)) for r in isolated] == [{0, 1}, {2, 3}]


def test_token_graph_rejects_bad_k():
    with pytest.raises(GraphError):
        token_graph(path_graph(4), 0)
    with pytest.raises(GraphError):
        token_graph(path_graph(4), 4)


def test_token_graph_refuses_oversized_instances():
    # C(40,20) is about 1.4e11 vertices: refused before anything is built
    with pytest.raises(GraphError, match="cap"):
        token_graph(path_graph(40), 20)


def test_token_graph_brute_force_cross_check():
    g = path_graph(5)
    t = token_graph(g, 3)
    expected = set()
    for a in combinations(range(5), 3):
        for b in combinations(range(5), 3):
            diff = set(a) ^ set(b)
            if len(diff) == 2 and g.adjacent(*sorted(diff)):
                expected.add(tuple(sorted((t.codec.rank(a), t.codec.rank(b)))))
    assert set(t.graph.edges) == expected


def test_every_token_edge_is_a_base_edge_swap(small_named):
    for _, g in small_named:
        for k in range(1, g.n):
            t = token_graph(g, k)
            assert t.graph.edge_count == g.edge_count * comb(g.n - 2, k - 1)
            for a, b in t.graph.edges:
                diff = sorted(set(t.codec.unrank(a)) ^ set(t.codec.unrank(b)))
                assert len(diff) == 2 and g.adjacent(diff[0], diff[1])


def _reference_token_graph(g, k):
    """Token construction by ranking both ends of every token edge with the
    codec, kept as the reference for the one-sweep-per-subset ranking."""
    codec = SubsetCodec(g.n, k)
    rank = codec.rank
    edges = []
    for u, v in g.edges:
        others = [w for w in range(g.n) if w != u and w != v]
        for rest in combinations(others, k - 1):
            a = rank(rest + (u,))
            b = rank(rest + (v,))
            edges.append((a, b) if a < b else (b, a))
    return Graph(codec.size, edges)


@given(st.integers(2, 12), st.integers(0, 3), st.sampled_from((0.0, 0.2, 0.5, 0.9)),
       st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_token_graph_matches_reference_on_random_bases(order, isolated, p, seed):
    # the last ``isolated`` vertices (at most order - 1) have no edges
    live = erdos_renyi(max(1, order - isolated), p, seed)
    g = Graph(order, live.edges)
    for k in range(1, order):
        assert token_graph(g, k).graph == _reference_token_graph(g, k), k


def test_token_graph_matches_reference_on_relabelled_cycles_and_paths():
    for i, base in enumerate([cycle_graph(n) for n in range(3, 11)]
                             + [path_graph(n) for n in range(2, 11)]):
        g = relabelled(base, i)
        for k in range(1, base.n):
            _membership_lanes.cache_clear()
            cold = token_graph(g, k).graph
            assert cold == token_graph(g, k).graph == _reference_token_graph(g, k), (g, k)


def test_token_graph_matches_reference_above_3000_vertices():
    g = cycle_graph(14)
    t = token_graph(g, 7)
    assert t.graph.n == 3432
    assert t.graph == _reference_token_graph(g, 7)


def test_token_rows_share_one_int_per_rank():
    # every row refers to the rank ints of one list, not to fresh copies
    t = token_graph(path_graph(12), 6)
    assert len({id(r) for row in t.graph.adj for r in row}) <= t.graph.n


def test_membership_lanes_match_the_codec():
    for n in range(2, 11):
        for k in range(1, n):
            codec = SubsetCodec(n, k)
            _membership_lanes.cache_clear()
            for lanes in (_membership_lanes(n, k), _membership_lanes(n, k)):  # cold, cached
                assert len(lanes) == n
                for x, lane in enumerate(lanes):
                    flags = lane.to_bytes(codec.size, "little")
                    assert flags == bytes(x in codec.unrank(r) for r in range(codec.size)), (n, k, x)


def test_membership_lanes_are_one_shared_tuple_per_pair():
    lanes = _membership_lanes(9, 4)
    assert type(lanes) is tuple
    assert _membership_lanes(9, 4) is lanes


def test_the_catalog_builds_each_pairs_lanes_once():
    _membership_lanes.cache_clear()
    for check_id in verify.CHECKS:
        verify.run_check(check_id)
    info = _membership_lanes.cache_info()
    assert info.hits > 0
    assert info.misses == info.currsize <= info.maxsize


# -- complement map ---------------------------------------------------------


def test_complement_map_k3():
    t = token_graph(cycle_graph(3), 1)
    target = complement_image(t)
    assert target.k == 2
    assert set(target.codec.unrank(t.codec.size - 1 - t.codec.rank((0,)))) == {1, 2}


def test_complement_map_p5_is_isomorphism():
    t = token_graph(path_graph(5), 2)
    target = complement_image(t)
    assert target.k == 3 and target.codec.size == t.codec.size == 10


def test_complement_map_self_automorphism_c6():
    t = token_graph(cycle_graph(6), 3)
    assert complement_image(t) is t
    assert t.codec.size == 20


def test_complement_reverses_colex_rank():
    for n in range(2, 10):
        for k in range(1, n):
            codec, co = SubsetCodec(n, k), SubsetCodec(n, n - k)
            for r in range(codec.size):
                complement = set(range(n)) - set(codec.unrank(r))
                assert set(co.unrank(codec.size - 1 - r)) == complement, (n, k, r)


def test_complement_map_everywhere_small():
    for _, g in named_graphs(6):
        for k in range(1, g.n):
            complement_image(token_graph(g, k))  # asserts the edges map onto the edges


# -- parity classes ---------------------------------------------------------


def test_token_bipartition_k25():
    t = token_graph(complete_bipartite_graph(2, 5), 2)
    classes = token_bipartition(t, bipartition_of(t.base))
    assert {len(classes.part_r), len(classes.part_b)} == {10, 11}
    assert max(len(classes.part_r), len(classes.part_b)) == 11


def test_token_bipartition_k33():
    t = token_graph(complete_bipartite_graph(3, 3), 2)
    classes = token_bipartition(t, bipartition_of(t.base))
    assert len(classes.part_r) == 9 and len(classes.part_b) == 6


def test_token_bipartition_star():
    t = token_graph(star_graph(4), 2)
    classes = token_bipartition(t, bipartition_of(t.base))
    assert sorted((len(classes.part_r), len(classes.part_b))) == [4, 6]


def test_token_bipartition_proper_at_order_ten():
    for g in [complete_bipartite_graph(4, 6), path_graph(10), complete_bipartite_graph(5, 5)]:
        base = bipartition_of(g)
        for k in (2, 3, 5):
            t = token_graph(g, k)
            token_bipartition(t, base).validate(t.graph)


def test_token_bipartition_proper_and_sized(small_named):
    for _, g in small_named:
        base = bipartition_of(g)
        if base is None:
            continue
        for k in range(1, g.n):
            t = token_graph(g, k)
            classes = token_bipartition(t, base)
            classes.validate(t.graph)
            assert len(classes.part_r) == r_value(len(base.part_b), len(base.part_r), k)


def test_token_bipartition_counts_part_r_hits():
    for name, g in named_graphs(10):
        base = bipartition_of(g)
        if base is None:
            continue
        for k in range(1, g.n):
            t = token_graph(g, k)
            odd = frozenset(
                r for r in range(t.codec.size)
                if sum(x in base.part_r for x in t.codec.unrank(r)) % 2
            )
            classes = token_bipartition(t, base)
            assert classes.part_r == odd, (name, k)
            assert classes.part_b == frozenset(range(t.codec.size)) - odd, (name, k)


# -- exports ----------------------------------------------------------------


def test_json_export_shape():
    t = token_graph(path_graph(4), 2)
    data = token_graph_to_json(t)
    assert data["n"] == 4 and data["k"] == 2
    assert data["vertices"][0] == [1, 2]
    assert len(data["vertices"]) == 6
    assert all(len(e) == 2 for e in data["edges"])


def test_dot_export_subset_labels():
    t = token_graph(path_graph(3), 2)
    dot = token_graph_to_dot(t)
    assert '"{1,2}"' in dot
    assert subset_label((0, 2)) == "{1,3}"
