import hashlib
import sys

import pytest

from tokengraphs.budget import Budget, BudgetExceededError
from tokengraphs.graphs import cycle_graph
from tokengraphs.reports import exit_code_for, reports_to_csv, reports_to_json
import tokengraphs.tokens as tokens
import tokengraphs.verify as verify
from tokengraphs.verify import CHECKS, run_check

#: The catalog order of the merged reports below.
CATALOG = (
    "thm1", "thm2", "thm3", "lemma3", "lemma5", "lemma6", "cor3", "cor4", "star",
    "prop3", "eq1", "eq2", "eq3", "fig1", "fig2", "fig34", "j73",
)


@pytest.fixture(scope="module")
def default_reports():
    """Every check at its default caps, run once for this module."""
    return {check_id: run_check(check_id) for check_id in CHECKS}


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_every_check_is_green(check_id, default_reports):
    reports = default_reports[check_id]
    assert reports, check_id
    assert exit_code_for(reports) == 0, [
        (r.instance, r.status, r.formula_value, r.solver_value)
        for r in reports
        if r.status not in ("pass", "bound-holds")
    ]


def test_run_check_rejects_unknown_id():
    with pytest.raises(KeyError):
        run_check("thm99")


def test_reports_byte_identical_across_runs():
    first = reports_to_json(run_check("thm3", max_n=9))
    second = reports_to_json(run_check("thm3", max_n=9))
    assert first == second


def test_max_n_caps_the_sweep():
    small = run_check("thm2", max_n=6)
    full = run_check("thm2")
    assert len(small) < len(full)


@pytest.mark.parametrize("cap", [4, 5])
def test_max_n_bounds_the_base_order_in_every_check(monkeypatch, cap):
    # every base a row builds a token graph of, or solves one over, has at
    # most max_n vertices
    orders = []
    build, solve = verify.token_graph, verify.token_independence_number

    def recorded_build(g, k):
        orders.append(g.n)
        return build(g, k)

    def recorded_solve(h, j, budget=None):
        orders.append(h.n)
        return solve(h, j, budget)

    monkeypatch.setattr(verify, "token_graph", recorded_build)
    monkeypatch.setattr(verify, "token_independence_number", recorded_solve)
    for check_id in CHECKS:
        orders.clear()
        run_check(check_id, max_n=cap)
        assert max(orders, default=0) <= cap, (check_id, max(orders))


def test_max_n_counts_the_star_centre():
    instances = [r.instance for r in run_check("star", max_n=4)]
    assert "K_{1,3}, k=3" in instances
    assert not any(i.startswith("K_{1,4}") for i in instances)
    assert [r.instance for r in run_check("star")][-1] == "K_{1,7}, k=7"


def test_max_n_caps_the_thm1_exact_bases():
    instances = [r.instance for r in run_check("thm1", max_n=7)]
    assert "exact: match(3,0), k=5" in instances
    assert not any(i.startswith("exact: match(4,0)") for i in instances)
    assert any(i.startswith("exact: match(4,0)") for i in (r.instance for r in run_check("thm1")))


@pytest.mark.parametrize("check_id, order", [("fig1", 6), ("fig2", 5), ("fig34", 7), ("j73", 7)])
def test_a_single_instance_check_runs_only_up_from_its_order(check_id, order):
    assert run_check(check_id, max_n=order - 1) == []
    assert len(run_check(check_id, max_n=order)) == 1


def test_max_n_caps_the_eq1_random_graphs():
    rows = run_check("eq1", max_n=5)
    orders = {r.instance.split(",")[0] for r in rows if r.instance.startswith("random(")}
    assert orders == {"random(4", "random(5"}


def test_equality_rows_present_in_eq1():
    rows = run_check("eq1", max_n=4)
    tight = [r for r in rows if "tight" in r.instance]
    assert len(tight) == 2 and all(r.status == "pass" for r in tight)


def test_j73_reports_the_refuted_value():
    row = run_check("j73")[0]
    assert row.witness["refuted_formula_value"] == 6
    assert row.solver_value == 7


def test_catalog_reports_match_the_recorded_digests(default_reports):
    # sha256 and byte length of the catalog's reports as first released; any
    # change to a row, a witness or the row order shows here
    rows = [r for check_id in CATALOG for r in default_reports[check_id]]
    json_text = reports_to_json(rows).encode()
    csv_text = "".join(reports_to_csv(default_reports[c]) for c in CATALOG).encode()
    assert (hashlib.sha256(json_text).hexdigest(), len(json_text)) == (
        "72cefb384a522dd2e0dc30353689a29db13f8fe1107d1cb140b8f1ffdc3f449e", 256863
    )
    assert (hashlib.sha256(csv_text).hexdigest(), len(csv_text)) == (
        "8cc1eb45a4a27f0ff92009f5e9a9cd9a71dd488ed225f146c4051fb8aa0e86c7", 27709
    )


@pytest.mark.parametrize(
    "check_id,cap,json_digest,csv_digest",
    [
        ("eq1", 10,
         ("a8b4f3109003cc2958f5384141f866b08e11f779c37277a195260657a5eb78fa", 77431),
         ("a06f07f83c11318d72d7afe1bd4fed0f371446dca12badd408b7ae3594e1af70", 22577)),
        ("eq2", 10,
         ("1c4236e8114ba8606cb2fb73cbf94cc6a20b53b92c01e4b74c14c28240124563", 4534),
         ("b266b649655fa178aef79fca80e63c7e58d9a7a54d8705a0c018e5e313fc2dbb", 1164)),
        ("eq3", 9,
         ("6bc23f014ab4820cd0129d87494e967eab30a1e96b6d7436a51c5ad8b38dc5b2", 1798),
         ("1fc62164757fa221c5b715208944dad2b688afef5ba5f12e8308466386ce0ab5", 502)),
    ],
)
def test_deletion_bound_reports_past_the_caps_match_the_recorded_digests(
    check_id, cap, json_digest, csv_digest
):
    # sha256 and byte length of the reports of the caps CI runs, recorded
    # while the sandwich still read its upper side from one deleted vertex
    rows = run_check(check_id, max_n=cap)
    json_text, csv_text = reports_to_json(rows).encode(), reports_to_csv(rows).encode()
    assert (hashlib.sha256(json_text).hexdigest(), len(json_text)) == json_digest
    assert (hashlib.sha256(csv_text).hexdigest(), len(csv_text)) == csv_digest


def test_each_construction_row_builds_one_token_graph(monkeypatch):
    # the constructions certify against the row's token graph instead of
    # building their own; at 161 / 16 / 17 builds they built it again
    builds = []
    build = tokens.token_graph

    def counted(g, k):
        builds.append((g, k))
        return build(g, k)

    for name, module in list(sys.modules.items()):
        if name.startswith("tokengraphs"):
            for attr, value in list(vars(module).items()):
                if value is build:
                    monkeypatch.setattr(module, attr, counted)
    counts = {}
    for check_id in ("thm1", "lemma3", "thm3"):
        builds.clear()
        rows = run_check(check_id)
        assert exit_code_for(rows) == 0
        counts[check_id] = (len(rows), len(builds))
    assert counts == {"thm1": (58, 58), "lemma3": (8, 8), "thm3": (13, 13)}


def test_recursive_checks_solve_each_token_graph_once_up_to_complement(monkeypatch):
    # F_j(H) and F_{n-j}(H) are isomorphic, so the bound checks share one
    # solve between them; caching on (H, j) alone took 1,736 / 15 / 13
    solves = []
    solve = verify.token_independence_number

    def counted(h, j, budget=None):
        solves.append((h, j))
        return solve(h, j, budget)

    monkeypatch.setattr(verify, "token_independence_number", counted)
    counts = {}
    for check_id in ("eq1", "eq2", "eq3"):
        solves.clear()
        assert exit_code_for(run_check(check_id)) == 0
        assert len(set(solves)) == len(solves)
        assert all(2 * j <= h.n for h, j in solves)
        counts[check_id] = len(solves)
    assert counts == {"eq1": 997, "eq2": 9, "eq3": 10}


def test_recursive_checks_build_each_vertex_deletion_once_per_base(monkeypatch):
    # G - v and G - N[v] for every vertex of each base, once for all its k;
    # building them for every k took 4,350 / 215 / 87
    built = []
    delete = verify.delete_vertices

    def counted(g, remove):
        built.append((g, frozenset(remove)))
        return delete(g, remove)

    monkeypatch.setattr(verify, "delete_vertices", counted)
    counts = {}
    for check_id in ("eq1", "eq2", "eq3"):
        built.clear()
        assert exit_code_for(run_check(check_id)) == 0
        bases = {g for g, _ in built}
        assert len(built) == 2 * sum(g.n for g in bases)
        counts[check_id] = len(built)
    assert counts == {"eq1": 992, "eq2": 60, "eq3": 44}


def test_cached_beta_keeps_a_budget_failure_for_the_complement(monkeypatch):
    # F_3(C_7) needs more than one search node; its complement F_4(C_7)
    # must raise from the cache instead of spending the budget again
    solves = []
    solve = verify.token_independence_number

    def counted(h, j, budget=None):
        solves.append((h, j))
        return solve(h, j, budget)

    monkeypatch.setattr(verify, "token_independence_number", counted)
    beta = verify._cached_beta(Budget(node_limit=1))
    c7 = cycle_graph(7)
    for j in (3, 4, 3):
        with pytest.raises(BudgetExceededError):
            beta(c7, j)
    assert solves == [(c7, 3)]
