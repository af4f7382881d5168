import random
from itertools import combinations
from math import comb

import pytest

from tokengraphs.constructions import (
    cycle_independent_set,
    cycle_layer,
    isolated_tokens,
    theorem1_matching,
    witness_graph,
)
from tokengraphs.formulas import beta_cycle_f2, class_bound, class_order_predicate, nu_token_formula
from tokengraphs.graphs import (
    GraphError,
    complete_bipartite_graph,
    cycle_graph,
    delete_vertices,
    make_graph,
    matching_graph,
    path_graph,
)
from tokengraphs.independence import independence_number, token_independence_number
from tokengraphs.matching import Matching, MatchingError, max_matching
from tokengraphs.tokens import SubsetCodec, token_graph

from conftest import relabelled


# -- the recursion of theorem 1's proof, frozen as a reference ------------
#
# The construction as it stood before it became one swap rule, kept verbatim
# but for its per-level validation (theorem1_matching validates its result
# on the token graph itself) and Matching.vertices, written out inline.


def _reference_combine(g, e, n_matching, l_matching, k):
    v, w = e
    n = g.n
    h, kept = delete_vertices(g, (v, w))
    codec = SubsetCodec(n, k)
    codec_h_k = SubsetCodec(h.n, k)
    codec_h_l = SubsetCodec(h.n, k - 2)

    out = []
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
    return combined


def _reference_f2(g, base_matching):
    pairs = sorted(base_matching.edges)
    a_side = [p[0] for p in pairs]
    b_side = [p[1] for p in pairs]
    covered = frozenset(x for e in base_matching.edges for x in e)
    b_side += [x for x in range(g.n) if x not in covered]
    codec = SubsetCodec(g.n, 2)
    out = []
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            out.append((codec.rank((a_side[i], a_side[j])), codec.rank((a_side[j], b_side[i]))))
    for i in range(len(b_side)):
        for j in range(i + 1, len(b_side)):
            out.append((codec.rank((b_side[i], b_side[j])), codec.rank((a_side[i], b_side[j]))))
    return Matching.of(out)


def _reference_recurse(g, base_matching, k):
    n = g.n
    if k == 1:
        return base_matching  # the colex rank of {u} is u
    if 2 * k > n:
        # complementing reverses colex rank (see complement_image in conftest)
        last, mirrored = comb(n, k) - 1, _reference_recurse(g, base_matching, n - k)
        return Matching.of((last - a, last - b) for a, b in mirrored.edges)
    if k == 2:
        return _reference_f2(g, base_matching)
    edge = min(base_matching.edges)
    h, kept = delete_vertices(g, edge)
    new_id = {old: i for i, old in enumerate(kept)}
    reduced = Matching.of(
        (new_id[u], new_id[v]) for u, v in base_matching.edges if (u, v) != edge
    )
    inner_n = _reference_recurse(h, reduced, k)
    inner_l = _reference_recurse(h, reduced, k - 2)
    return _reference_combine(g, edge, inner_n, inner_l, k)


def _planted_base(seed: int):
    """A random base of 2 to 11 vertices with a planted perfect or almost
    perfect matching, relabelled, and a maximum matching of it."""
    rng = random.Random(seed)
    n = rng.randint(2, 11)
    p = rng.choice((0.0, 0.2, 0.5, 0.9))
    edges = [(2 * i, 2 * i + 1) for i in range(n // 2)]
    edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = relabelled(make_graph(n, edges), seed)
    return g, max_matching(g)


def _theorem1(g, base, k):
    return theorem1_matching(token_graph(g, k), base)


def _assert_matches_reference(g, base, k):
    assert _theorem1(g, base, k).edges == _reference_recurse(g, base, k).edges, (g, base, k)


def test_theorem1_matches_reference_on_catalog_and_matching_bases():
    bases = [(g, max_matching(g)) for g in (
        cycle_graph(6), complete_bipartite_graph(3, 3), matching_graph(3, 0), matching_graph(4, 0),
    )]
    bases += [(g, Matching.of(g.edges)) for m in range(1, 7) for s in (0, 1)
              if 2 * m + s <= 12 for g in (matching_graph(m, s),)]
    for g, base in bases:
        for k in range(1, g.n):
            _assert_matches_reference(g, base, k)


def test_theorem1_matches_reference_on_random_relabelled_bases():
    for seed in range(320):
        g, base = _planted_base(seed)
        for k in range(1, g.n):
            _assert_matches_reference(g, base, k)


def test_theorem1_matches_reference_on_f8_p16():
    g = path_graph(16)
    _assert_matches_reference(g, max_matching(g), 8)


def test_theorem1_pairs_differ_by_the_first_edge_their_tokens_meet_once():
    for g, base in [(path_graph(7), max_matching(path_graph(7)))] + [
        _planted_base(seed) for seed in range(20)
    ]:
        order = sorted(base.edges)
        for k in range(1, g.n):
            codec = SubsetCodec(g.n, k)
            for a, b in _theorem1(g, base, k).edges:
                ta, tb = set(codec.unrank(a)), set(codec.unrank(b))
                first = next(e for e in order if len(ta & set(e)) == 1)
                assert next(e for e in order if len(tb & set(e)) == 1) == first
                assert ta ^ tb == set(first), (g, k, a, b)


# -- pair-token construction: theorem 1 at k = 2 ----------------------------


def _f2(m, s):
    g = matching_graph(m, s)
    return _theorem1(g, Matching.of(g.edges), 2)


@pytest.mark.parametrize(
    "m,s,expect",
    [(2, 0, 2), (2, 1, 4), (3, 0, 6), (1, 1, 1), (4, 1, 16)],
)
def test_f2_construction_sizes(m, s, expect):
    built = _f2(m, s)
    assert built.size == expect == comb(m, 2) + comb(m + s, 2)
    n = 2 * m + s
    assert 2 * built.size == comb(n, 2) - (n // 2)


def test_f2_construction_rejects_tiny_order():
    with pytest.raises(GraphError):
        _f2(1, 0)


def test_f2_construction_is_maximum():
    for m, s in [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0)]:
        t = token_graph(matching_graph(m, s), 2)
        assert _f2(m, s).size == max_matching(t.graph).size


# -- the full recursive matching --------------------------------------------


def test_theorem1_perfect_on_even_cycle():
    g = cycle_graph(6)
    built = _theorem1(g, max_matching(g), 3)
    assert built.size == 10 == comb(6, 3) // 2


def test_theorem1_tight_on_matching_graph():
    g = matching_graph(3, 0)
    built = _theorem1(g, Matching.of(g.edges), 2)
    assert built.size == 6 == (comb(6, 2) - 3) // 2


def test_theorem1_odd_order_bound():
    g = path_graph(5)
    built = _theorem1(g, max_matching(g), 3)
    assert built.size == 4 == (comb(5, 3) - comb(2, 1)) // 2


def test_theorem1_all_matching_graphs_tight():
    for m, s in [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0)]:
        g = matching_graph(m, s)
        base = Matching.of(g.edges)
        for k in range(1, g.n):
            t = token_graph(g, k)
            built = theorem1_matching(t, base)
            solved = max_matching(t.graph).size
            assert built.size == solved == nu_token_formula(g.n, k), (m, s, k)


def test_theorem1_achieves_bound_on_richer_bases():
    for g in [cycle_graph(8), complete_bipartite_graph(4, 4), path_graph(6), path_graph(7)]:
        base = max_matching(g)
        for k in range(1, g.n):
            built = _theorem1(g, base, k)
            assert built.size == nu_token_formula(g.n, k), (g, k)


def test_theorem1_rejects_weak_base_matching():
    t = token_graph(path_graph(5), 2)
    with pytest.raises(GraphError):
        theorem1_matching(t, Matching.of([(0, 1)]))
    with pytest.raises(MatchingError):
        theorem1_matching(t, Matching.of([(0, 1), (2, 4)]))  # 24 is no edge of P_5


# -- certificate checks under python -O ---------------------------------------


_FALSIFIED = '''
import sys

import tokengraphs.constructions as c
import tokengraphs.matching as mt
from tokengraphs import complete_bipartite_graph, cycle_graph, matching_graph, path_graph
from tokengraphs import Matching, bipartition_of, hall_witness, max_matching, token_graph

print('optimize', sys.flags.optimize)
real = c.nu_token_formula
c.nu_token_formula = lambda n, k: real(n, k) + 1
c.isolated_token_count = lambda m, s, k: 99
c.cycle_layer = lambda p, i: frozenset()
mt._hopcroft_karp = lambda small, big, adj: (0, small[:1])
g = path_graph(6)
kbip = complete_bipartite_graph(2, 3)
for name, run in [
    ("theorem1_matching", lambda: c.theorem1_matching(token_graph(g, 3), max_matching(g))),
    ("isolated_tokens", lambda: c.isolated_tokens(token_graph(matching_graph(2, 0), 2))),
    ("cycle_independent_set", lambda: c.cycle_independent_set(token_graph(cycle_graph(7), 2))),
    ("hall_witness", lambda: hall_witness(kbip, bipartition_of(kbip))),
]:
    try:
        run()
    except AssertionError as exc:
        print(name, "raised:", exc)
    else:
        print(name, "returned")
'''


def test_certificate_checks_survive_python_dash_o():
    # asserts vanish under -O; a falsified claim must still raise
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tokengraphs

    src = str(Path(tokengraphs.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _FALSIFIED], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[0] == "optimize 1", out
    assert [line.split(" ", 1)[1].startswith("raised:") for line in out[1:]] == [True] * 4, out


# -- isolated tokens ---------------------------------------------------------


def _isolated(m, s, k):
    return isolated_tokens(token_graph(matching_graph(m, s), k))


def test_isolated_tokens_even_k():
    out = _isolated(2, 0, 2)
    assert out == {frozenset({0, 1}), frozenset({2, 3})}


def test_isolated_tokens_odd_k_with_spare_vertex():
    out = _isolated(3, 1, 3)
    assert len(out) == comb(3, 1) == 3
    assert all(6 in token for token in out)


def test_isolated_tokens_odd_k_perfect_base_empty():
    assert _isolated(3, 0, 3) == frozenset()
    assert _isolated(2, 0, 1) == frozenset()


def test_isolated_tokens_rejects_other_bases():
    # a matching in other labels, a path, and a matching with an isolated
    # vertex that is not the last
    for g in (make_graph(4, [(0, 2), (1, 3)]), path_graph(4), make_graph(5, [(0, 1), (3, 4)])):
        with pytest.raises(GraphError, match="matching graph"):
            isolated_tokens(token_graph(g, 2))


def test_isolated_tokens_counts_sweep():
    for m, s in [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0)]:
        n = 2 * m + s
        for k in range(1, n):
            expect = comb(m, k // 2) if (k % 2 == 0 or s == 1) else 0
            assert len(_isolated(m, s, k)) == expect, (m, s, k)


# -- cycle layers ------------------------------------------------------------


def _layer_ranks(t, i):
    """Layer i as vertex ids of the 2-token graph ``t`` of its cycle."""
    return frozenset(t.codec.rank([x - 1 for x in pair]) for pair in cycle_layer(t.base.n, i))


def test_layer_figure_values():
    assert cycle_layer(5, 4) == {
        frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset({4, 5})
    }
    assert cycle_layer(5, 1) == {frozenset({1, 5})}


def test_layer_sizes():
    for p in (5, 7, 9):
        for i in range(1, p):
            assert len(cycle_layer(p, i)) == i


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
                ranks_i, ranks_j = _layer_ranks(t, i), _layer_ranks(t, j)
                linked = any(ranks_j.intersection(t.graph.adj[r]) for r in ranks_i)
                assert linked == expected, (p, i, j)
    # the underlying edge for the 2 / 6 link of C7 is [{1,2}, {2,7}]
    t = token_graph(cycle_graph(7), 2)
    assert t.graph.adjacent(t.codec.rank((0, 1)), t.codec.rank((1, 6)))


def test_layer_independent_unless_middle():
    for p in (5, 7, 9):
        t = token_graph(cycle_graph(p), 2)
        for i in range(1, p):
            ranks = _layer_ranks(t, i)
            internal = any(ranks.intersection(t.graph.adj[r]) for r in ranks)
            assert internal == (i == p // 2 + 1)


def test_cycle_independent_set_sizes_and_validity():
    for p in (5, 7, 9, 11):
        built = cycle_independent_set(token_graph(cycle_graph(p), 2))
        assert built.size == beta_cycle_f2(p)
        assert built.size == token_independence_number(cycle_graph(p), 2)


def test_cycle_independent_set_rejects_even_or_tiny():
    # or anything but the 2-token graph of an odd cycle in its own labels
    for t in (
        token_graph(cycle_graph(6), 2),
        token_graph(cycle_graph(3), 2),
        token_graph(cycle_graph(7), 3),
        token_graph(path_graph(7), 2),
        token_graph(relabelled(cycle_graph(7), 1), 2),
    ):
        with pytest.raises(GraphError, match="odd cycle"):
            cycle_independent_set(t)


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
