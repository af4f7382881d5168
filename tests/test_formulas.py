import time
from math import comb

import pytest

from tokengraphs.formulas import (
    beta_balanced_family,
    beta_cycle_f2,
    class_bound,
    class_order_predicate,
    nu_token_formula,
    r_value,
)
from tokengraphs.graphs import (
    GraphError,
    bipartition_of,
    complete_bipartite_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from tokengraphs.independence import token_independence_number
from tokengraphs.matching import hall_witness, max_matching
from tokengraphs.reports import STATUS_PASS
from tokengraphs.tokens import token_bipartition, token_graph
import tokengraphs.verify as verify
from tokengraphs.verify import (
    conjecture_rows,
    fig3_rows,
    oeis_check,
    run_rows,
    spanning_subgraphs_2x5,
)

from conftest import conjecture_mnk


# -- matching-number formula --------------------------------------------------


def test_nu_formula_cases():
    exact = nu_token_formula(6, 3)
    assert exact.value == 10 and exact.kind == "exact"
    even = nu_token_formula(6, 2)
    assert even.value == 6 and even.kind == "lower-bound"
    odd = nu_token_formula(5, 2)
    assert odd.value == 4 and odd.kind == "lower-bound"
    assert odd.tight_for is not None


def test_nu_formula_rejects_bad_k():
    with pytest.raises(GraphError):
        nu_token_formula(5, 5)


# -- independence formulas ----------------------------------------------------


# The paper's statements, kept as the oracles that ``class_bound`` must match.


def _theorem2(m, n):
    """β(F_2(K_{m,n})): the larger of the mixed and the same-side class."""
    return max(m * n, comb(m, 2) + comb(n, 2))


def _star(n, k):
    """β(F_k(K_{1,n})): C(n,k) while 2k <= n + 1, then C(n,k-1)."""
    return comb(n, k) if 2 * k <= n + 1 else comb(n, k - 1)


def _lemmas_5_and_6(m, s):
    """β(F_2) of the witness graph with parts m and m+s."""
    return m * (m + s) if m > comb(s, 2) else comb(2 * m + s, 2) - m * (m + s)


def test_beta_kmn_examples():
    assert class_bound(3, 3, 2) == 9
    assert class_bound(2, 5, 2) == 11
    # K_{1,1} has one 2-token: outside class_bound's range of k
    with pytest.raises(GraphError):
        class_bound(1, 1, 2)


def test_beta_cycle_examples():
    assert beta_cycle_f2(5) == 5
    assert beta_cycle_f2(3) == 1
    assert beta_cycle_f2(7) == 10
    assert all(beta_cycle_f2(2 * n) == n * n for n in range(2, 7))


def test_beta_star_examples():
    assert class_bound(1, 4, 2) == 6
    assert class_bound(1, 5, 4) == 10
    assert class_bound(1, 6, 1) == 6


def test_class_bound_is_theorem_2_on_every_complete_bipartite_base():
    for m in range(1, 16):
        for n in range(1, 16):
            if m + n >= 3:
                assert class_bound(m, n, 2) == _theorem2(m, n), (m, n)


def test_class_bound_is_the_star_formula():
    for n in range(1, 25):
        for k in range(1, n + 1):
            assert class_bound(1, n, k) == _star(n, k), (n, k)


def test_class_bound_is_lemmas_5_and_6():
    for m in range(1, 16):
        for s in range(0, 16):
            if 2 * m + s >= 3:
                assert class_bound(m, m + s, 2) == _lemmas_5_and_6(m, s), (m, s)


def test_r_value_examples():
    assert r_value(3, 3, 2) == 9
    assert r_value(2, 5, 2) == 10
    assert r_value(4, 7, 1) == 7


def test_r_value_counts_odd_intersections():
    from itertools import combinations

    m, n, k = 3, 4, 3
    r_side = set(range(m, m + n))
    counted = sum(
        1 for sub in combinations(range(m + n), k) if len(r_side & set(sub)) % 2
    )
    assert r_value(m, n, k) == counted


def test_beta_balanced_examples():
    assert beta_balanced_family(4, 2) == 4
    assert beta_balanced_family(5, 2) == 6
    assert beta_balanced_family(6, 3) == 10


def test_threshold_examples():
    assert class_order_predicate(3, 6)
    assert class_order_predicate(2, 5)
    assert not class_order_predicate(5, 6)


def test_threshold_is_integer_version_of_the_root():
    # the least surplus s = n - m at which the same-side class is no smaller,
    # the least s with C(s,2) >= m, must straddle the real root (1+sqrt(1+8m))/2
    for m in range(1, 40):
        s = next(s for s in range(m + 2) if class_order_predicate(m, m + s))
        root = (1 + (1 + 8 * m) ** 0.5) / 2
        assert s - 1 < root <= s + 1e-9 or comb(s, 2) >= m > comb(s - 1, 2)


# -- sequence prefixes ---------------------------------------------------------


def test_oeis_prefixes():
    assert oeis_check("A091044", 6).terms == (1, 2, 2, 3, 10, 3)
    assert oeis_check("A000217", 6).terms == (0, 1, 3, 6, 10, 15)
    assert oeis_check("A002620", 8).terms == (0, 0, 1, 2, 4, 6, 9, 12)
    assert oeis_check("A189889", 5).terms == (1, 4, 5, 9, 10)


def test_oeis_solver_agreement():
    for sid in ("A091044", "A000217", "A002620", "A189889"):
        assert oeis_check(sid, 5).solver_agrees, sid


def test_oeis_guards():
    with pytest.raises(GraphError):
        oeis_check("A000001", 5)
    with pytest.raises(GraphError):
        oeis_check("A000217", 25)


# -- scanners -------------------------------------------------------------------


def _covered_hits_2x5():
    """(graph, β) of every covered parts-2/5 graph above the class bound."""
    solved = ((g, token_independence_number(g, 2))
              for g in spanning_subgraphs_2x5(require_no_isolated=True))
    return [(g, beta) for g, beta in solved if beta > class_bound(2, 5, 2)]


def test_counterexample_scan_filtered():
    hits = _covered_hits_2x5()
    assert hits and class_bound(2, 5, 2) == 11
    assert {beta for _, beta in hits} == {12}
    full = complete_bipartite_graph(2, 5)
    assert list(spanning_subgraphs_2x5(require_no_isolated=True))[-1] == full
    assert all(g != full for g, _ in hits)


def test_counterexample_hits_fail_hall():
    for g, _ in _covered_hits_2x5()[:5]:
        t = token_graph(g, 2)
        classes = token_bipartition(t, bipartition_of(g))
        witness = hall_witness(t.graph, classes)
        assert witness is not None and witness <= min(classes.part_b, classes.part_r, key=len)
        nbrs = set()
        for v in witness:
            nbrs.update(t.graph.adj[v])
        assert len(nbrs) < len(witness)


def test_conjecture_scan_small_all_agree():
    rows = run_rows("conjecture", conjecture_rows(7, 3, None))
    assert rows and all(r.status == STATUS_PASS for r in rows)
    keys = [conjecture_mnk(r.instance) for r in rows]
    assert keys == sorted(keys)
    for (m, n, k), row in zip(keys, rows):
        if k == 2:
            assert row.formula_value == _theorem2(m, n)


def test_conjecture_scan_guard():
    # a size check on the arguments, raised before any row is built
    with pytest.raises(GraphError):
        list(conjecture_rows(11, 4, None))
    with pytest.raises(GraphError):
        list(conjecture_rows(9, 5, None))


def test_conjecture_rows_are_timed():
    rows = run_rows("conjecture", conjecture_rows(10, 4, None))
    assert len(rows) == 63 and all(r.seconds > 0 for r in rows)


def test_fig3_rows_time_their_own_solve(monkeypatch):
    solves = []
    solve = verify.independence_number

    def timed(g, budget):
        start = time.perf_counter()
        beta = solve(g, budget)
        solves.append((beta, time.perf_counter() - start))
        return beta

    monkeypatch.setattr(verify, "independence_number", timed)
    rows = run_rows("fig3-scan", fig3_rows(True, None))
    hits = [seconds for beta, seconds in solves if beta > 11]
    assert len(solves) == 241 and len(rows) == len(hits) > 0
    assert all(r.seconds > 0 for r in rows)
    assert all(r.seconds >= seconds for r, seconds in zip(rows, hits))


# -- formulas vs solver spot grid ----------------------------------------------


def test_nu_formula_is_a_lower_bound_on_rich_bases():
    # bases with maximum matching number but extra edges: the solver value
    # must sit on or above the formula's bound
    from tokengraphs.graphs import complete_graph

    for g in [cycle_graph(6), cycle_graph(7), complete_graph(5),
              complete_bipartite_graph(3, 4), path_graph(6)]:
        for k in range(1, g.n):
            bound = nu_token_formula(g.n, k).value
            solved = max_matching(token_graph(g, k).graph).size
            assert solved >= bound, (g, k)


def test_formula_grid_matches_solver():
    for p in range(3, 9):
        assert token_independence_number(cycle_graph(p), 2) == beta_cycle_f2(p)
    for p in range(3, 7):
        for k in range(1, p):
            assert token_independence_number(path_graph(p), k) == beta_balanced_family(p, k)
    for n in range(2, 6):
        for k in range(1, n + 1):
            assert token_independence_number(star_graph(n), k) == _star(n, k)
    for m in range(2, 4):
        for n in range(m, 5):
            assert token_independence_number(
                complete_bipartite_graph(m, n), 2
            ) == _theorem2(m, n)
