import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokengraphs.graphs import (
    Bipartition,
    Graph,
    GraphError,
    bipartition_of,
    complete_bipartite_graph,
    cycle_graph,
    delete_vertices,
    family,
    make_graph,
    matching_graph,
    parse_edge_list_text,
    path_graph,
    star_graph,
    to_dot,
    to_edge_list_text,
)


def test_make_graph_complete_triangle():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count == 3
    assert g.degree_sequence() == (2, 2, 2)


def test_make_graph_no_edges():
    g = make_graph(2, [])
    assert g.n == 2 and g.edge_count == 0


def test_make_graph_path_degrees():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert g.degree_sequence() == (1, 2, 2, 2, 1)


def test_make_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        make_graph(3, [(1, 1)])


def test_make_graph_rejects_out_of_range():
    with pytest.raises(GraphError):
        make_graph(3, [(0, 3)])


def test_make_graph_collapses_duplicates():
    g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == ((0, 1),)


def test_base_order_cap():
    with pytest.raises(GraphError):
        make_graph(65, [])
    # derived graphs are allowed to be larger
    assert Graph(100, [(0, 99)]).n == 100


@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=20,
            ),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_make_graph_normalisation(data):
    n, edges = data
    g = make_graph(n, edges)
    assert all(u < v for u, v in g.edges)
    assert len(set(g.edges)) == g.edge_count
    assert sum(g.degree_sequence()) == 2 * g.edge_count
    for u, v in g.edges:
        assert g.adjacent(u, v) and g.adjacent(v, u)


@pytest.mark.parametrize(
    "kind,params,order,size",
    [
        ("path", [6], 6, 5),
        ("cycle", [5], 5, 5),
        ("complete", [5], 5, 10),
        ("complete_bipartite", [2, 5], 7, 10),
        ("star", [4], 5, 4),
        ("matching_graph", [2, 1], 5, 2),
        ("matching_graph", [3, 0], 6, 3),
    ],
)
def test_family_closed_form_sizes(kind, params, order, size):
    g = family(kind, params)
    assert g.n == order and g.edge_count == size


def test_family_matching_graph_has_isolated_vertex():
    g = family("matching_graph", [2, 1])
    assert g.degree(4) == 0
    assert g.edges == ((0, 1), (2, 3))


def test_family_rejects_unknown_and_bad_arity():
    with pytest.raises(GraphError):
        family("wheel", [5])
    with pytest.raises(GraphError):
        family("path", [3, 4])


def test_delete_vertices_cycle_to_path():
    g, kept = delete_vertices(cycle_graph(5), {0})
    assert g == path_graph(4)
    assert kept == (1, 2, 3, 4)


def test_delete_closed_neighborhood_of_cycle_vertex():
    c5 = cycle_graph(5)
    g, kept = delete_vertices(c5, c5.closed_neighborhood(0))
    assert g.n == 2 and g.edges == ((0, 1),)


def test_delete_star_center_isolates_leaves():
    g, _ = delete_vertices(star_graph(3), {0})
    assert g.n == 3 and g.edge_count == 0


def test_delete_nothing_is_identity():
    g = cycle_graph(6)
    h, kept = delete_vertices(g, ())
    assert h == g and kept == tuple(range(6))


def test_delete_rejects_foreign_vertices():
    with pytest.raises(GraphError):
        delete_vertices(path_graph(3), {5})


def _is_two_coloring(g, part):
    return all((u in part.part_b) != (v in part.part_b) for u, v in g.edges)


def test_bipartition_of_even_cycle():
    part = bipartition_of(cycle_graph(6))
    assert part is not None
    assert {len(part.part_b), len(part.part_r)} == {3}
    assert _is_two_coloring(cycle_graph(6), part)


def test_bipartition_of_odd_cycle_absent():
    assert bipartition_of(cycle_graph(5)) is None


def test_bipartition_of_k25_sizes():
    part = bipartition_of(complete_bipartite_graph(2, 5))
    assert sorted((len(part.part_b), len(part.part_r))) == [2, 5]


def test_bipartition_lowest_vertex_goes_to_b():
    part = bipartition_of(matching_graph(3, 1))
    # every component's least vertex, including the isolated one, lands in b
    assert {0, 2, 4, 6} <= part.part_b


def test_bipartition_agrees_with_exhaustive_two_coloring():
    from tokengraphs.graphs import erdos_renyi

    for seed in range(40):
        g = erdos_renyi(3 + seed % 6, (0.2, 0.45, 0.7)[seed % 3], seed)
        found = bipartition_of(g)
        colorable = any(
            all((u in set(sub)) != (v in set(sub)) for u, v in g.edges)
            for bits in range(1 << g.n)
            for sub in [[v for v in range(g.n) if bits >> v & 1]]
        )
        assert (found is not None) == colorable
        if found is not None:
            found.validate(g)


def test_bipartition_validate_rejects_non_crossing():
    g = path_graph(3)
    bad = Bipartition(part_b=frozenset({0, 1}), part_r=frozenset({2}))
    with pytest.raises(GraphError):
        bad.validate(g)


def test_side_selection():
    part = Bipartition(part_b=frozenset({0}), part_r=frozenset({1, 2}))
    assert part.side("b") == {0}
    assert part.side("r") == {1, 2}
    assert Bipartition.other_side("b") == "r"
    assert not part.follows_convention or len(part.part_b) <= len(part.part_r)


def test_edge_list_roundtrip():
    g = complete_bipartite_graph(2, 3)
    text = to_edge_list_text(g)
    assert text.splitlines()[0] == "5 6"
    assert parse_edge_list_text(text) == g


def test_edge_list_is_one_based():
    text = to_edge_list_text(path_graph(2))
    assert text.splitlines()[1] == "1 2"


def test_parse_edge_list_rejects_bad_header():
    with pytest.raises(GraphError):
        parse_edge_list_text("3\n1 2\n")


def test_dot_export_mentions_every_vertex_and_edge():
    g = matching_graph(1, 1)
    dot = to_dot(g)
    assert '"3";' in dot  # the isolated vertex is visible
    assert '"1" -- "2";' in dot
