"""The verification catalog: each named check replays one result of the
catalog and emits one report row per instance.

Check ids (see :data:`CHECKS`): thm1, thm2, thm3, lemma3, lemma5, lemma6,
cor3, cor4, star, prop3, eq1, eq2, eq3, fig1, fig2, fig34, j73.

One table, ``_CATALOG``, lists the checks in catalog order, each with a
default cap. A run has one cap, ``max_n`` or else that default, and every
row comes from a base graph with at most cap vertices. A closed form holds
lazy cases and a row kind, :func:`_beta` or :func:`_nu`, and one builder
makes its rows; every other check yields its own ``(instance, compute)``
pairs. :func:`run_rows` times each ``compute`` call as one row, a row out of
budget is reported as such, a construction whose certificate fails is a
failing row with the failure as its witness, and a row's :class:`GraphError`,
such as a size cap, is raised again with its check and instance prefixed.
The scans, one :data:`SCANS` entry each, sit beside :data:`CHECKS` and run
through :func:`run_rows` too. Every cross-check of a
closed form against the exact solvers lives here, :func:`oeis_check`
included, and so does :func:`recursive_bounds`, the vertex-deletion
bounds that eq1–eq3 check, beside the cached solver it is given; eq2 and
eq3 take its upper side at k and at n − k, as F_k(G) ≅ F_{n−k}(G).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, partial
from math import comb
from typing import Any, Callable, Iterable, Iterator

from .budget import Budget, BudgetExceededError
from .constructions import (
    cycle_independent_set,
    isolated_tokens,
    theorem1_matching,
    witness_graph,
)
from .formulas import (
    beta_balanced_family,
    beta_cycle_f2,
    class_bound,
    class_order_predicate,
    nu_token_formula,
)
from .graphs import (
    Graph,
    GraphError,
    bipartition_of,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    delete_vertices,
    erdos_renyi,
    matching_graph,
    path_graph,
    spanning_subgraphs,
    star_graph,
)
from .independence import independence_number, max_independent_set, token_independence_number
from .matching import Matching, hall_witness, max_matching
from .reports import (
    STATUS_BOUND,
    STATUS_BUDGET,
    STATUS_FAIL,
    STATUS_PASS,
    VerificationReport,
)
from .tokens import TokenGraph, token_bipartition, token_graph

#: One row's work: returns (formula value, solver value, witness, status),
#: or None when the instance turns out to need no row.
Compute = Callable[[], tuple[object, object, object, str] | None]
Rows = Iterator[tuple[str, Compute]]


def _subset_witness(t: TokenGraph, chosen: Iterable[int]) -> list[list[int]]:
    return [[x + 1 for x in t.codec.unrank(r)] for r in sorted(chosen)]


def _matching_witness(t: TokenGraph, m: Matching) -> dict:
    return {
        "rank_pairs": [[a, b] for a, b in m.sorted_edges()],
        "subset_pairs": [
            [[x + 1 for x in t.codec.unrank(a)], [x + 1 for x in t.codec.unrank(b)]]
            for a, b in m.sorted_edges()
        ],
    }


def _row(check_id: str, instance: str, compute: Compute) -> VerificationReport | None:
    start = time.perf_counter()
    try:
        result = compute()
    except BudgetExceededError:
        result = None, None, None, STATUS_BUDGET
    except AssertionError as exc:  # a certificate check failed: say which
        result = None, None, str(exc), STATUS_FAIL
    except GraphError as exc:  # such as a size cap: name the row that hit it
        raise GraphError(f"{check_id}: {instance}: {exc}") from None
    if result is None:
        return None
    return VerificationReport(check_id, instance, *result, time.perf_counter() - start)


def _eq_status(formula: object, solver: object) -> str:
    return STATUS_PASS if formula == solver else STATUS_FAIL


def _bracket(lower: int, upper: int, exact: int) -> tuple[str, int, None, str]:
    """A bound row: the interval as the formula value, the exact value as the
    solver value."""
    ok = lower <= exact <= upper
    return f"[{lower}, {upper}]", exact, None, STATUS_BOUND if ok else STATUS_FAIL


def _beta(
    g: Graph,
    k: int,
    target: int,
    budget: Budget | None,
    wrap: Callable[[list[list[int]]], object] | None = None,
) -> Compute:
    """A β row: the independence number of the k-token graph of ``g`` equals
    ``target``. The witness is the solver's set, passed through ``wrap``."""

    def compute():
        t = token_graph(g, k)
        found = max_independent_set(t.graph, budget)
        witness = _subset_witness(t, found.vertices)
        return target, found.size, wrap(witness) if wrap else witness, _eq_status(
            target, found.size
        )

    return compute


def _nu(
    g: Graph,
    k: int,
    target: int,
    budget: Budget | None,
    build: Callable[[TokenGraph], Matching] | None = None,
) -> Compute:
    """A ν row: the solver's maximum matching of the k-token graph of ``g`` is
    valid and has ``target`` edges. The witness is the matching that
    ``build``, if given, constructs on that token graph and size-checks
    itself; else the solved one."""

    def compute():
        t = token_graph(g, k)
        built = build(t) if build else None
        solved = max_matching(t.graph, budget)
        solved.validate(t.graph)
        shown = solved if built is None else built
        return target, solved.size, _matching_witness(t, shown), _eq_status(target, solved.size)

    return compute


def _matching_sweep_pairs(max_order: int, min_order: int = 2) -> list[tuple[int, int]]:
    return [
        (m, s)
        for m in range(1, max_order // 2 + 1)
        for s in (0, 1)
        if min_order <= 2 * m + s <= max_order
    ]


def _thm1_exact(cap: int) -> Iterator[tuple]:
    """Odd token counts over perfect-matching bases, where both the
    construction of theorem 1 and the solver give a perfect matching."""
    for name, g in (
        ("C6", cycle_graph(6)),
        ("K_{3,3}", complete_bipartite_graph(3, 3)),
        ("match(3,0)", matching_graph(3, 0)),
        ("match(4,0)", matching_graph(4, 0)),
    ):
        base_matching = max_matching(g)
        for k in range(1, g.n, 2):
            build = partial(theorem1_matching, base_matching=base_matching)
            yield f"exact: {name}", g, k, nu_token_formula(g.n, k), build


def _thm1_tight(cap: int, budget: Budget | None) -> Rows:
    """Disjoint-matching bases meet the bound exactly and carry exactly the
    predicted number of isolated tokens, for every token count; the two
    constructions check their sizes, the row checks the solver's."""
    for m, s in _matching_sweep_pairs(cap):
        g = matching_graph(m, s)
        base_matching = Matching.of(g.edges)
        for k in range(1, g.n):
            def compute(g=g, base_matching=base_matching, k=k):
                t = token_graph(g, k)
                target = nu_token_formula(g.n, k)
                built = theorem1_matching(t, base_matching)
                solved = max_matching(t.graph, budget).size
                witness = {"matching_size": built.size, "isolated": len(isolated_tokens(t))}
                return target, solved, witness, _eq_status(target, solved)

            yield f"tight: match({m},{s}), k={k}", compute


def _thm3(cap: int, budget: Budget | None) -> Rows:
    """2-token independence of cycles matches the floor formula, and the
    layer construction achieves it for odd lengths."""
    for p in range(3, cap + 1):
        target = beta_cycle_f2(p)
        yield f"C{p}, k=2", _beta(cycle_graph(p), 2, target, budget)
        if p % 2 == 1 and p >= 5:
            def compute(p=p, target=target):
                t = token_graph(cycle_graph(p), 2)
                built = cycle_independent_set(t)
                return target, built.size, _subset_witness(t, built.vertices), _eq_status(
                    target, built.size
                )

            yield f"C{p}, k=2, layer construction", compute


def _prop3(cap: int, budget: Budget | None) -> Rows:
    """The integer threshold test for which parity class dominates agrees
    with direct counting on every complete bipartite base."""
    for m in range(1, cap // 2 + 1):
        for n in range(m, cap - m + 1):
            if m + n < 3:
                continue
            def compute(m=m, n=n):
                t = token_graph(complete_bipartite_graph(m, n), 2)
                classes = token_bipartition(t, bipartition_of(t.base))
                counted = len(classes.part_b) >= len(classes.part_r)
                predicted = class_order_predicate(m, n)
                return predicted, counted, {
                    "mixed": len(classes.part_r),
                    "same_side": len(classes.part_b),
                }, _eq_status(predicted, counted)

            yield f"K_{{{m},{n}}}, k=2", compute


def _witness_family(small: bool, cap: int, budget: Budget | None) -> Rows:
    """Extremal bipartite witnesses with parts m and m+s: independence of
    the 2-token graph equals the larger parity class, the mixed class for
    m > C(s,2) (``small``, lemma5) and otherwise (lemma6) the same-side
    class."""
    for m in range(1, cap // 2 + 1):
        for s in range(0, cap - 2 * m + 1):
            if class_order_predicate(m, m + s) == small:
                continue
            def compute(m=m, s=s):
                g, _, phi = witness_graph(m, s)
                entries = list(phi)
                if g.n < 3:  # one edge: F_2 is one vertex, past class_bound's k < m + n
                    return 1, 1, {"phi": entries}, STATUS_PASS
                target = class_bound(m, m + s, 2)
                return _beta(g, 2, target, budget, lambda w: {"phi": entries, "independent_set": w})()

            yield f"witness_{'small' if small else 'large'}(m={m}, s={s})", compute


def _j73(cap: int, budget: Budget | None) -> Rows:
    """The Johnson graph on 3-subsets of 7 elements has independence number
    7; the previously published closed form predicting 6 is refuted."""
    if cap >= 7:
        yield "J(7,3) = F_3(K7); the refuted closed form gives 6", _beta(
            complete_graph(7), 3, 7, budget,
            lambda found: {"independent_set": found, "refuted_formula_value": 6},
        )


def _hall_violator(t: TokenGraph) -> frozenset[int] | None:
    """A Hall violator of the smaller parity class of the token graph ``t``
    of a bipartite base, if there is one."""
    return hall_witness(t.graph, token_bipartition(t, bipartition_of(t.base)))


def _fig34(cap: int, budget: Budget | None) -> Rows:
    """Parts of sizes 2 and 5 admit bipartite graphs whose 2-token
    independence number (12) beats the parity-class bound (11), and Hall's
    condition fails on their token classes."""

    def compute():
        bound = class_bound(2, 5, 2)
        hits = []  # (token graph, β) of each covered graph above the bound
        for g in spanning_subgraphs(complete_bipartite_graph(2, 5), covered_only=True):
            t = token_graph(g, 2)
            beta = independence_number(t.graph, budget)
            if beta > bound:
                hits.append((t, beta))
        if not hits:
            return ">=1 graph with beta > 11", 0, None, STATUS_FAIL
        twelve = [h for h in hits if h[1] == 12]
        t, beta = twelve[0] if twelve else hits[0]
        deficient = _hall_violator(t)
        all_fail_hall = all(_hall_violator(h) is not None for h, _ in hits)
        ok = bool(twelve) and deficient is not None and all_fail_hall
        witness = {
            "hits": len(hits),
            "sample_edges": [[u + 1, v + 1] for u, v in t.base.edges],
            "sample_beta": beta,
            "hall_violator": _subset_witness(t, deficient) if deficient else None,
        }
        return 12, beta, witness, STATUS_PASS if ok else STATUS_FAIL

    if cap >= 7:
        yield "bipartite scan, parts 2/5", compute


# ---------------------------------------------------------------------------
# recursive-bound checks

#: β(F_j(h)) for a graph h and a token count j.
BetaOracle = Callable[[Graph, int], int]


@dataclass(frozen=True)
class BoundsPair:
    """Lower and upper bounds bracketing an independence number."""

    lower: int
    upper: int

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"bounds crossed: {self.lower} > {self.upper}")


def _beta_with_conventions(oracle: BetaOracle, h: Graph, j: int) -> int:
    # Degenerate token counts: the empty token set (j == 0) and the full set
    # (j == h.n) are single vertices, oversized token sets give an empty graph.
    if j in (0, h.n):
        return 1
    return 0 if j > h.n else oracle(h, j)


#: G - v and G - N[v] for each vertex v of a base G, in vertex order.
Deletions = list[tuple[Graph, Graph]]


def _vertex_deletions(g: Graph) -> Deletions:
    """The graphs the deletion bounds take β of. They depend on the base
    alone, so a check builds them once per base and passes them to every k."""
    return [
        (delete_vertices(g, (v,))[0], delete_vertices(g, g.closed_neighborhood(v))[0])
        for v in range(g.n)
    ]


def recursive_bounds(
    g: Graph, k: int, beta_oracle: BetaOracle, deletions: Deletions | None = None
) -> BoundsPair:
    """Bracket the independence number of the k-token graph by recursion on
    vertex deletion, with ``beta_oracle`` giving β of each deleted graph,
    from ``deletions``, built here if not given.

    Lower: the best single-vertex split, beta over tokens containing v plus
    beta over tokens avoiding N[v]. Upper: the floor of the averaged
    one-smaller-token bound, sum over v of beta(F_{k-1}(G - v)) divided by k.
    """
    n = g.n
    if not 2 <= k <= n - 1:
        raise GraphError(f"k={k} out of range for recursion on order {n}")
    lower = total = 0
    for g_minus_v, g_minus_nv in deletions or _vertex_deletions(g):
        with_v = _beta_with_conventions(beta_oracle, g_minus_v, k - 1)
        without_nv = _beta_with_conventions(beta_oracle, g_minus_nv, k)
        lower = max(lower, with_v + without_nv)
        total += with_v
    return BoundsPair(lower=lower, upper=total // k)


def _cached_beta(budget: Budget | None) -> BetaOracle:
    """β(F_j(h)), each solved once up to complement: taking complements of
    the token sets makes F_j(h) and F_{n-j}(h) isomorphic. A solve that ran
    out of budget is kept too, and its error raised again on every call."""
    @cache
    def solve(h: Graph, j: int) -> int | BudgetExceededError:
        try:
            return token_independence_number(h, j, budget=budget)
        except BudgetExceededError as exc:
            return exc.with_traceback(None)  # keeps none of the solver's frames

    def beta(h: Graph, j: int) -> int:
        found = solve(h, min(j, h.n - j))
        if isinstance(found, BudgetExceededError):
            raise found
        return found

    return beta


def _eq1_corpus(cap: int) -> list[tuple[str, Graph]]:
    corpus: list[tuple[str, Graph]] = []
    corpus.extend((f"P{p}", path_graph(p)) for p in range(3, cap + 1))
    corpus.extend((f"C{p}", cycle_graph(p)) for p in range(3, cap + 1))
    corpus.extend((f"K{p}", complete_graph(p)) for p in range(3, min(6, cap) + 1))
    corpus.extend((f"K_{{1,{n}}}", star_graph(n)) for n in range(2, cap))
    for m in range(2, cap // 2 + 1):
        for n in range(m, cap - m + 1):
            corpus.append((f"K_{{{m},{n}}}", complete_bipartite_graph(m, n)))
    corpus.extend((f"match({m},{s})", matching_graph(m, s)) for m, s in _matching_sweep_pairs(cap, 3))
    for i in range(50):
        n = 4 + i % 5
        if n <= cap:
            density = (0.2, 0.4, 0.6)[i % 3]
            corpus.append((f"random({n}, {density}, seed={i})", erdos_renyi(n, density, i)))
    return corpus


def _eq1(cap: int, budget: Budget | None) -> Rows:
    """The vertex-deletion recursion brackets the exact independence number
    on the whole small corpus, with equality at the two extremal instances."""
    beta = _cached_beta(budget)
    deleted = cache(_vertex_deletions)
    for name, g in _eq1_corpus(cap):
        for k in range(2, g.n):
            def compute(g=g, k=k):
                bounds = recursive_bounds(g, k, beta, deleted(g))
                return _bracket(bounds.lower, bounds.upper, beta(g, k))

            yield f"{name}, k={k}", compute

    tight = [
        ("K_{1,3}, k=2 (lower bound tight)", star_graph(3), "lower"),
        ("K4, k=2 (upper bound tight)", complete_graph(4), "upper"),
    ]
    for instance, g, side in tight:
        def compute(g=g, side=side):
            bound = getattr(recursive_bounds(g, 2, beta, deleted(g)), side)
            exact = beta(g, 2)
            return bound, exact, None, _eq_status(bound, exact)

        if g.n <= cap:
            yield instance, compute


def _sandwich(
    name: str, base: Callable[[int], Graph], max_k: int, oracle: BetaOracle, beta: BetaOracle, cap: int
) -> Rows:
    """On ``base(n)``, the best deletion split and the smaller upper side at
    k and at n - k, with ``oracle`` giving β of every deleted graph, bracket
    the exact β(F_k) from ``beta``, for 2 <= k <= min(max_k, n - 2). F_k and
    F_{n-k} are isomorphic, so both sides bound β(F_k) on every base; on a
    vertex-transitive one their minimum is the bound read from one G - v."""
    deleted = cache(_vertex_deletions)
    for n in range(4, cap + 1):
        for k in range(2, min(max_k, n - 2) + 1):
            def compute(n=n, k=k):
                g = base(n)
                bounds = recursive_bounds(g, k, oracle, deleted(g))
                upper = min(bounds.upper, recursive_bounds(g, n - k, oracle, deleted(g)).upper)
                return _bracket(bounds.lower, upper, beta(g, k))

            yield name.format(n=n, k=k), compute


def _eq2(cap: int, budget: Budget | None) -> Rows:
    """Cycle sandwich: the closed form gives β of every path a deletion leaves."""
    def path_beta(h: Graph, j: int) -> int:
        return beta_balanced_family(h.n, j)

    return _sandwich("C{n}, k={k}", cycle_graph, cap, path_beta, _cached_beta(budget), cap)


def _eq3(cap: int, budget: Budget | None) -> Rows:
    """Johnson-graph sandwich: as K_n - N[v] is empty, the lower bound is
    β(F_{k-1}(K_{n-1})), and the solver gives every β a deletion asks for."""
    beta = _cached_beta(budget)
    return _sandwich("J({n},{k}), k={k}", complete_graph, 3, beta, beta, cap)


# ---------------------------------------------------------------------------
# the catalog


#: Every check in catalog order, as (check id, default cap, cases, row kind);
#: a check with two entries runs them in turn. For a closed form, ``cases(cap)``
#: yields (base name, base graph, k, closed-form value[, construction]) and
#: the row kind is :func:`_beta` or :func:`_nu`; any other entry has no row
#: kind, and ``cases(cap, budget)`` yields its rows.
_CATALOG: tuple[tuple[str, int, Callable[..., Iterable], Callable[..., Compute] | None], ...] = (
    ("thm1", 8, _thm1_exact, _nu),
    ("thm1", 10, _thm1_tight, None),
    # 2-token independence of K_{m,n} equals the larger parity class
    ("thm2", 10, lambda cap: (
        (f"K_{{{m},{n}}}", complete_bipartite_graph(m, n), 2, class_bound(m, n, 2))
        for m in range(2, cap // 2 + 1)
        for n in range(m, cap - m + 1)
    ), _beta),
    ("thm3", 11, _thm3, None),
    # theorem 1's construction is a maximum matching of the 2-token graph of
    # every disjoint (almost) perfect matching base
    ("lemma3", 10, lambda cap: (
        (f"match({m},{s})", g, 2, nu_token_formula(g.n, 2),
         partial(theorem1_matching, base_matching=Matching.of(g.edges)))
        for m, s in _matching_sweep_pairs(cap, 3)
        for g in (matching_graph(m, s),)
    ), _nu),
    ("lemma5", 9, partial(_witness_family, True), None),
    ("lemma6", 9, partial(_witness_family, False), None),
    # perfect-matching bipartite bases, odd k: independence is half of C(n,k)
    ("cor3", 8, lambda cap: (
        (name, g, k, comb(order, k) // 2)
        for order in range(4, cap + 1, 2)
        for name, g in (
            (f"P{order}", path_graph(order)),
            (f"C{order}", cycle_graph(order)),
            (f"K_{{{order // 2},{order // 2}}}", complete_bipartite_graph(order // 2, order // 2)),
        )
        for k in range(1, order, 2)
    ), _beta),
    # paths, K_{h,h} and K_{h,h+1}: independence of every token graph equals
    # the larger parity class
    ("cor4", 8, lambda cap: (
        (f"P{p}", path_graph(p), k, beta_balanced_family(p, k))
        for p in range(2, cap + 1)
        for k in range(1, p)
    ), _beta),
    ("cor4", 9, lambda cap: (
        (f"K_{{{m},{n}}}", complete_bipartite_graph(m, n), k, beta_balanced_family(m + n, k))
        for m in range(1, cap // 2 + 1)
        for n in (m, m + 1)
        for k in range(1, m + n)
    ), _beta),
    # star token graphs: the saturating side flips at half the order
    ("star", 8, lambda cap: (
        (f"K_{{1,{n}}}", star_graph(n), k, class_bound(1, n, k))
        for n in range(2, cap)
        for k in range(1, n + 1)
    ), _beta),
    ("prop3", 9, _prop3, None),
    ("eq1", 8, _eq1, None),
    ("eq2", 8, _eq2, None),
    ("eq3", 7, _eq3, None),
    # F_3(K_{1,5}) has a perfect matching though K_{1,5} has none
    ("fig1", 6, lambda cap: [("K_{1,5}", star_graph(5), 3, 10)], _nu),
    # F_3(P5) has no perfect matching: its matching number is 4, not 5
    ("fig2", 5, lambda cap: [("P5", path_graph(5), 3, 4)], _nu),
    ("fig34", 7, _fig34, None),
    ("j73", 7, _j73, None),
)


def _check_rows(check_id: str, max_order: int | None, budget: Budget | None) -> Rows:
    """The rows of each entry of ``check_id`` in turn, every one from a base
    of order at most ``max_order``, or else at most the entry's default cap."""
    for entry_id, default, cases, row in _CATALOG:
        if entry_id != check_id:
            continue
        cap = default if max_order is None else max_order
        if row is None:
            yield from cases(cap, budget)
            continue
        for name, g, k, value, *build in cases(cap):
            if g.n <= cap:
                yield f"{name}, k={k}", row(g, k, value, budget, *build)


#: Check id -> its rows for ``(max_n, budget)``, in catalog order.
CHECKS: dict[str, Callable[[int | None, Budget | None], Rows]] = {
    entry[0]: partial(_check_rows, entry[0]) for entry in _CATALOG
}


def run_rows(check_id: str, rows: Rows) -> list[VerificationReport]:
    """One timed report row per ``(instance, compute)`` pair, in order; a
    pair whose compute returns None gives no row. Each compute runs before
    the next pair is drawn."""
    reports = (_row(check_id, instance, compute) for instance, compute in rows)
    return [r for r in reports if r is not None]


def run_check(
    check_id: str, max_n: int | None = None, budget: Budget | None = None
) -> list[VerificationReport]:
    """Replay one check: one timed report row per instance, in report order.
    ``max_n`` is the largest base order to run; each entry has a default."""
    if check_id not in CHECKS:
        raise KeyError(f"unknown check id {check_id!r}; known: {', '.join(sorted(CHECKS))}")
    return run_rows(check_id, CHECKS[check_id](max_n, budget))


# ---------------------------------------------------------------------------
# scans


def conjecture_rows(max_order: int, max_k: int, budget: Budget | None) -> Rows:
    """The larger parity class against the exact independence number for
    every complete bipartite base up to ``max_order`` and every token count
    from 2 up to ``max_k``, in (m, n, k) order. A disagreement is a finding,
    not an error: its row fails and carries the solver's set as witness.
    Guarded to desk scale (order 10, k 4)."""
    if max_order > 10 or max_k > 4:
        raise GraphError(
            f"scan conjecture --max-order {max_order} --max-k {max_k} is larger than "
            "the desk-scale guard (order 10, k 4)"
        )
    for m in range(1, max_order // 2 + 1):
        for n in range(m, max_order - m + 1):
            g = complete_bipartite_graph(m, n)
            for k in range(2, min(max_k, m + n - 2) + 1):
                def compute(g=g, m=m, n=n, k=k):
                    bound = class_bound(m, n, k)
                    t = token_graph(g, k)
                    found = max_independent_set(t.graph, budget)
                    status = _eq_status(bound, found.size)
                    witness = None if status == STATUS_PASS else _subset_witness(t, found.vertices)
                    return bound, found.size, witness, status

                yield f"K_{{{m},{n}}}, k={k}", compute


def fig3_rows(covered_only: bool, budget: Budget | None) -> Rows:
    """One row per bipartite graph on parts 2 and 5 whose 2-token
    independence number beats the class bound, which it holds with slack;
    with ``covered_only`` only graphs without isolated vertices. Every graph
    is a pair whose compute solves it, so a row times its own graph's solve;
    a graph within the bound gives no row. A graph whose solve runs out of
    budget is a budget-exceeded row, and the scan goes on. A scan with
    neither gives one failing row."""
    bound = class_bound(2, 5, 2)
    graphs = within = 0

    def compute(g: Graph) -> tuple[int, int, None, str] | None:
        nonlocal within
        beta = independence_number(token_graph(g, 2).graph, budget)
        if beta <= bound:
            within += 1
            return None
        return bound, beta, None, STATUS_BOUND

    for g in spanning_subgraphs(complete_bipartite_graph(2, 5), covered_only):
        graphs += 1
        yield f"edges {[(u + 1, v + 1) for u, v in g.edges]}", partial(compute, g)
    # run_rows has called every compute by the time it asks for more
    if within == graphs:
        yield "no graph beat the class bound", lambda: (None, None, None, STATUS_FAIL)


#: Scan name -> (report check id, help text, options as (flag, argparse
#: keywords), its rows from the parsed options and the budget); the CLI
#: builds one ``scan`` subcommand per entry.
SCANS: dict[str, tuple[str, str, tuple, Callable[[Any, Budget | None], Rows]]] = {
    "conjecture": (
        "conjecture", "class bound against β on every K_{m,n}",
        (("--max-order", dict(type=int, default=9)), ("--max-k", dict(type=int, default=4))),
        lambda opts, budget: conjecture_rows(opts.max_order, opts.max_k, budget),
    ),
    "fig3": (
        "fig3-scan", "parts-2/5 graphs that beat the class bound",
        (("--covered-only", dict(action="store_true",
                                 help="keep only graphs without isolated vertices")),),
        lambda opts, budget: fig3_rows(opts.covered_only, budget),
    ),
}


# ---------------------------------------------------------------------------
# integer-sequence cross-checks (offline: ids are documentation labels)


@dataclass(frozen=True)
class OeisCheck:
    sequence_id: str
    terms: tuple[int, ...]
    solver_agrees: bool


#: Sequence id -> (its first ``count`` terms, the solver cross-check cases
#: ``(graph, k, expected β(F_k(graph)))``).
_OEIS = {
    # half central-free odd binomials, read as a triangle row by row
    "A091044": (
        lambda count: [
            comb(2 * n, 2 * m + 1) // 2 for n in range(1, count + 1) for m in range(n)
        ][:count],
        lambda: [
            (path_graph(2 * n), 2 * m + 1, comb(2 * n, 2 * m + 1) // 2)
            for n in (1, 2, 3)
            for m in range(n)
        ],
    ),
    # triangular numbers match star independence from 3 leaves onward
    "A000217": (
        lambda count: [comb(j + 1, 2) for j in range(count)],
        lambda: [(star_graph(j + 1), 2, comb(j + 1, 2)) for j in range(2, 6)],
    ),
    # the solver meets both the quarter square and the balanced-family form
    "A002620": (
        lambda count: [(t * t) // 4 for t in range(count)],
        lambda: [
            (path_graph(t), 2, value)
            for t in range(3, 7)
            for value in ((t * t) // 4, beta_balanced_family(t, 2))
        ],
    ),
    "A189889": (
        lambda count: [beta_cycle_f2(p) for p in range(3, 3 + count)],
        lambda: [(cycle_graph(p), 2, beta_cycle_f2(p)) for p in range(3, 8)],
    ),
}


def oeis_check(sequence_id: str, count: int) -> OeisCheck:
    """Generate a sequence prefix from the closed forms and cross-check the
    small indices against the exact solver. No network access; the ids are
    labels only."""
    if sequence_id not in _OEIS:
        raise GraphError(f"unknown sequence id {sequence_id!r}")
    if not 1 <= count <= 20:
        raise GraphError("count must be between 1 and 20")
    terms, cases = _OEIS[sequence_id]
    agrees = all(token_independence_number(g, k) == expected for g, k, expected in cases())
    return OeisCheck(sequence_id, tuple(terms(count)), agrees)
