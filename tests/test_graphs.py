import random
import re

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
from tokengraphs.matching import max_matching
from tokengraphs.tokens import token_graph


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


def test_adjacent_and_closed_neighborhood_reject_ids_outside_the_graph():
    # a negative id would read a row from the end: vertex -1 of C_5 as 4
    c5 = cycle_graph(5)
    for u, v in [(-1, 0), (0, -1), (5, 0), (0, 5)]:
        with pytest.raises(GraphError, match="outside"):
            c5.adjacent(u, v)
    for v in (-1, 5):
        with pytest.raises(GraphError, match="outside"):
            c5.closed_neighborhood(v)
    with pytest.raises(GraphError):
        Graph(0).closed_neighborhood(0)


def test_degree_rejects_ids_outside_the_graph():
    # -1 would read the row of vertex 4, and 5 would raise IndexError
    c5 = cycle_graph(5)
    for v in (-1, 5):
        with pytest.raises(GraphError, match=f"vertex {v} outside 0..4"):
            c5.degree(v)
    assert [c5.degree(v) for v in range(5)] == [2] * 5


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


def test_bipartition_validate_names_the_first_edge_that_does_not_cross():
    # the edge-order scan it replaced, on random splits of random graphs
    from tokengraphs.graphs import erdos_renyi

    rng = random.Random(3)
    for seed in range(60):
        g = erdos_renyi(2 + seed % 9, 0.4, seed)
        part_b = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        bad = [(u, v) for u, v in g.edges if (u in part_b) == (v in part_b)]
        part = Bipartition(part_b=part_b, part_r=frozenset(range(g.n)) - part_b)
        if not bad:
            part.validate(g)
            continue
        with pytest.raises(GraphError, match=re.escape(f"edge {bad[0]} does not cross")):
            part.validate(g)


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


# -- one sorted neighbour tuple per vertex: same graph as the set-based class --


class _ReferenceGraph:
    """The set-based graph class, kept verbatim as the reference for the
    tuple-based one.

    Edges are canonicalised to sorted ``(u, v)`` pairs with ``u < v``,
    duplicates collapsed. Adjacency is queryable in O(1). Instances are
    safe to share across threads; nothing mutates after construction.
    """

    __slots__ = ("n", "edges", "_adj", "_masks")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        canon = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for order {n}")
            canon.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = tuple(sorted(canon))
        adj = [set() for _ in range(n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(s) for s in adj)
        self._masks = None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def closed_neighborhood(self, v: int) -> frozenset:
        """N[v]: the vertex together with its neighbors."""
        return self._adj[v] | {v}

    def degree_sequence(self) -> tuple:
        return tuple(len(self._adj[v]) for v in range(self.n))

    def adjacency_masks(self) -> tuple:
        """Per-vertex neighborhoods as bitmasks (cached)."""
        if self._masks is None:
            masks = [0] * self.n
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._masks = tuple(masks)
        return self._masks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _ReferenceGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _assert_same_graph(g: Graph, ref: _ReferenceGraph) -> None:
    assert g.n == ref.n
    assert g.adj == tuple(tuple(sorted(ref.neighbors(v))) for v in range(ref.n))
    assert g.edges == ref.edges
    assert g.edge_count == ref.edge_count
    assert g.degree_sequence() == ref.degree_sequence()
    assert g.adjacency_masks() == ref.adjacency_masks()
    assert hash(g) == hash(ref)
    assert repr(g) == repr(ref)
    for v in range(g.n):
        assert set(g.adj[v]) == ref.neighbors(v)
        assert g.degree(v) == ref.degree(v)
        assert g.closed_neighborhood(v) == ref.closed_neighborhood(v)
        for w in range(g.n):
            assert g.adjacent(v, w) == ref.adjacent(v, w)


# edge lists with duplicates, reversed pairs and isolated vertices
_edge_lists = st.integers(0, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
            max_size=40,
        ).flatmap(lambda es: st.permutations(es + es[: len(es) // 3] + [(v, u) for u, v in es[::2]]))
        if n > 1
        else st.just([]),
    )
)


@given(_edge_lists, _edge_lists)
@settings(max_examples=200, deadline=None)
def test_graph_matches_the_set_based_reference(first, second):
    (n, edges), (n2, edges2) = first, second
    g, ref = Graph(n, edges), _ReferenceGraph(n, edges)
    _assert_same_graph(g, ref)
    h, ref2 = Graph(n2, edges2), _ReferenceGraph(n2, edges2)
    assert (g == h) == (ref == ref2)
    assert g == Graph(n, reversed(edges)) and g == Graph(n, list(g.edges))


def test_graph_matches_the_set_based_reference_on_relabelled_token_graphs():
    bases = [path_graph(7), cycle_graph(7), complete_bipartite_graph(3, 4), star_graph(6)]
    for i, base in enumerate(bases):
        for k in range(1, base.n):
            t = token_graph(base, k).graph
            _assert_same_graph(t, _ReferenceGraph(t.n, t.edges))
            perm = list(range(t.n))
            random.Random(i * 100 + k).shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in t.edges]
            _assert_same_graph(Graph(t.n, edges), _ReferenceGraph(t.n, edges))


@pytest.mark.parametrize(
    "n, edges",
    [
        (-1, []),
        (3, [(0, 1), (2, 2), (0, 5)]),
        (3, [(0, 1), (0, 3), (1, 1)]),
        (3, [(-1, 2)]),
        (4, [(1, 0), (4, 4)]),
        (0, [(0, 1)]),
    ],
)
def test_graph_errors_match_the_set_based_reference(n, edges):
    with pytest.raises(GraphError) as ours:
        Graph(n, edges)
    with pytest.raises(GraphError) as theirs:
        _ReferenceGraph(n, edges)
    assert str(ours.value) == str(theirs.value)


def test_matching_a_token_graph_builds_no_edges_or_frozensets():
    g = token_graph(path_graph(16), 8).graph
    assert max_matching(g).size == 6400
    assert g._edges is None and g._masks is None
