"""Acceptance suite: every headline criterion at its stated runtime ceiling,
one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

from __future__ import annotations

import time
from math import comb

from tokengraphs.formulas import r_value
from tokengraphs.graphs import bipartition_of, erdos_renyi
from tokengraphs.independence import brute_force_mis, max_independent_set
from tokengraphs.matching import brute_force_nu, max_matching
from tokengraphs.reports import exit_code_for
from tokengraphs.tokens import token_bipartition, token_graph
from tokengraphs.verify import conjecture_rows, run_check, run_rows

from conftest import complement_image, conjecture_mnk, named_graphs, random_graphs


def _finish(number: int, label: str, start: float, limit: float, ok: bool) -> None:
    elapsed = time.perf_counter() - start
    verdict = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number:2d} {verdict} ({elapsed:6.1f}s < {limit:.0f}s) {label}")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < limit, f"criterion {number} overran: {elapsed:.1f}s >= {limit}s"


def _bad_rows(reports):
    return [
        (r.instance, r.status, r.formula_value, r.solver_value)
        for r in reports
        if r.status not in ("pass", "bound-holds")
    ]


def test_acceptance_01_exact_perfect_matchings_odd_k():
    start = time.perf_counter()
    reports = [r for r in run_check("thm1") if r.instance.startswith("exact:")]
    ok = exit_code_for(reports) == 0 and len(reports) == 3 + 3 + 3 + 4
    _finish(1, "construction and solver agree on C(n,k)/2 for odd k", start, 10, ok)


def test_acceptance_02_tightness_and_isolated_tokens():
    start = time.perf_counter()
    reports = [r for r in run_check("thm1", max_n=10) if r.instance.startswith("tight:")]
    ok = exit_code_for(reports) == 0 and not _bad_rows(reports)
    _finish(2, "matching bases: bound met exactly, isolated count exact", start, 60, ok)


def test_acceptance_03_complete_bipartite_f2():
    start = time.perf_counter()
    reports = run_check("thm2", max_n=10)
    expected_pairs = sum(1 for m in range(2, 6) for n in range(m, 11 - m))
    ok = exit_code_for(reports) == 0 and len(reports) == expected_pairs
    _finish(3, "beta(F2(K_{m,n})) equals the larger class, m+n <= 10", start, 120, ok)


def test_acceptance_04_cycles_f2():
    start = time.perf_counter()
    reports = run_check("thm3", max_n=11)
    constructions = [r for r in reports if "layer construction" in r.instance]
    ok = exit_code_for(reports) == 0 and len(constructions) == 4
    _finish(4, "beta(F2(C_p)) floor formula and layer construction, p <= 11", start, 120, ok)


def test_acceptance_05_star_and_path_figures():
    start = time.perf_counter()
    reports = run_check("fig1") + run_check("fig2")
    ok = exit_code_for(reports) == 0
    _finish(5, "F3(K_{1,5}) has a perfect matching; F3(P5) stops at 4", start, 1, ok)


def test_acceptance_06_counterexample_scan():
    start = time.perf_counter()
    reports = run_check("fig34")
    ok = exit_code_for(reports) == 0
    _finish(6, "parts-2/5 scan finds beta 12 > 11 with a Hall violator", start, 300, ok)


def test_acceptance_07_johnson_refutation():
    start = time.perf_counter()
    reports = run_check("j73")
    ok = exit_code_for(reports) == 0 and reports[0].solver_value == 7
    _finish(7, "beta(J(7,3)) = 7, refuting the published 6", start, 5, ok)


def test_acceptance_08_balanced_families_and_stars():
    start = time.perf_counter()
    reports = run_check("cor4") + run_check("star")
    ok = exit_code_for(reports) == 0 and not _bad_rows(reports)
    _finish(8, "class-size formula exact on paths, stars, near-balanced", start, 300, ok)


def test_acceptance_09_recursive_bounds_sandwich():
    start = time.perf_counter()
    reports = run_check("eq1", max_n=8) + run_check("eq2", max_n=8) + run_check("eq3", max_n=7)
    tight = [r for r in reports if "tight" in r.instance]
    ok = exit_code_for(reports) == 0 and len(tight) == 2 and all(r.status == "pass" for r in tight)
    _finish(9, "deletion recursion brackets every beta; extremes are tight", start, 120, ok)


def test_acceptance_10_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for i in range(200):
        n = 14 + i % 13  # orders 14..26
        density = (0.1, 0.3, 0.5)[i % 3]
        g = erdos_renyi(n, density, 1000 + i)
        if max_independent_set(g).size != brute_force_mis(g):
            ok = False
            break
    if ok:
        for i in range(60):
            g = erdos_renyi(8 + i % 7, (0.15, 0.35, 0.55)[i % 3], 2000 + i)
            if max_matching(g).size != brute_force_nu(g):
                ok = False
                break
    _finish(10, "solvers equal brute force on the random corpora", start, 120, ok)


def test_acceptance_11_structural_invariants():
    start = time.perf_counter()
    corpus = [g for _, g in named_graphs(8)] + random_graphs(25, 8, seed_base=3000)
    ok = True
    for g in corpus:
        base = bipartition_of(g)
        for k in range(1, g.n):
            t = token_graph(g, k)
            if t.graph.edge_count != g.edge_count * comb(g.n - 2, k - 1):
                ok = False
            complement_image(t)  # asserts that rank reversal maps the edges onto the edges
            if base is not None:
                classes = token_bipartition(t, base)
                classes.validate(t.graph)
                nb, nr = len(base.part_b), len(base.part_r)
                expected_r = r_value(nb, nr, k) if nr >= 1 else 0
                if len(classes.part_r) != expected_r:
                    ok = False
    _finish(11, "edge counts, complement isomorphisms, parity classes", start, 60, ok)


def test_acceptance_12_conjecture_scan():
    start = time.perf_counter()
    rows = run_rows("conjecture", conjecture_rows(9, 4, None))
    violations = [r for r in rows if r.formula_value != r.solver_value]
    keys = [conjecture_mnk(r.instance) for r in rows]
    machinery_ok = keys == sorted(keys) and all(
        (row.witness is None) == (row.formula_value == row.solver_value)
        and row.formula_value == max(r_value(m, n, k), comb(m + n, k) - r_value(m, n, k))
        for (m, n, k), row in zip(keys, rows)
    )
    ok = machinery_ok and not violations and len(rows) == 48
    _finish(12, "no class-bound violation for K_{m,n}, m+n <= 9, k <= 4", start, 600, ok)
