"""Closed-form evaluators for the token-graph matching and independence
numbers, integer-sequence cross-checks, and the desk-scale scanners.

All threshold tests use exact integer arithmetic (binomial comparisons);
no floating point enters any verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graphs import (
    Graph,
    GraphError,
    complete_bipartite_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from .independence import (
    Budget,
    BudgetExceededError,
    independence_number,
    max_independent_set,
    token_independence_number,
)
from .tokens import token_graph


@dataclass(frozen=True)
class FormulaValue:
    """A closed-form value together with how it binds: exactly, or as a
    one-sided bound (optionally tight for a named family)."""

    value: int | Fraction
    kind: str  # "exact" | "lower-bound" | "upper-bound"
    tight_for: str | None = None


def nu_token_formula(n: int, k: int) -> FormulaValue:
    """Matching number of a k-token graph over a base of order n with
    maximum possible matching number.

    Even n, odd k: exact C(n,k)/2. Even n, even k: lower bound, tight when
    the base is a disjoint perfect matching. Odd n: lower bound, tight for
    a disjoint almost perfect matching.
    """
    if not 1 <= k <= n - 1:
        raise GraphError(f"k={k} out of range for n={n}")
    if n % 2 == 0 and k % 2 == 1:
        total = comb(n, k)
        assert total % 2 == 0
        return FormulaValue(total // 2, "exact")
    if n % 2 == 0:
        value = (comb(n, k) - comb(n // 2, k // 2)) // 2
        return FormulaValue(value, "lower-bound", tight_for="disjoint perfect matching")
    value = (comb(n, k) - comb((n - 1) // 2, k // 2)) // 2
    return FormulaValue(value, "lower-bound", tight_for="disjoint almost perfect matching")


def beta_kmn_f2(m: int, n: int) -> int:
    """Independence number of the 2-token graph of the complete bipartite
    graph with parts m and n: the larger of the two parity classes."""
    if m < 1 or n < 1:
        raise GraphError("parts must be nonempty")
    return max(m * n, comb(m + n, 2) - m * n)


def beta_cycle_f2(p: int) -> int:
    """Independence number of the 2-token graph of the p-cycle:
    floor(p * floor(p/2) / 2)."""
    if p < 3:
        raise GraphError("cycle length must be at least 3")
    return (p * (p // 2)) // 2


def beta_star(n: int, k: int) -> int:
    """Independence number of the k-token graph of the star with n leaves:
    C(n,k) while 2k <= n+1, then C(n,k-1)."""
    if not 1 <= k <= n:
        raise GraphError(f"k={k} out of range for a star of order {n + 1}")
    return comb(n, k) if 2 * k <= n + 1 else comb(n, k - 1)


def r_value(m: int, n: int, k: int) -> int:
    """Size of the odd parity class: tokens meeting the n-vertex side an odd
    number of times, summed over odd intersection sizes."""
    if m < 1 or n < 1:
        raise GraphError("parts must be nonempty")
    if not 1 <= k <= m + n - 1:
        raise GraphError(f"k={k} out of range for parts {m}, {n}")
    return sum(
        comb(n, 2 * i - 1) * comb(m, k - 2 * i + 1)
        for i in range(1, (k + 1) // 2 + 1)
    )


def class_bound(m: int, n: int, k: int) -> int:
    """Size of the larger parity class of the k-token graph of a bipartite
    base with parts m and n: max(r, C(m+n,k) - r) with r the odd class."""
    r = r_value(m, n, k)
    return max(r, comb(m + n, k) - r)


def beta_balanced_family(p: int, k: int) -> int:
    """Independence number of the k-token graph for paths and the balanced /
    near-balanced complete bipartite graphs of order p: the larger parity
    class over parts ceil(p/2) and floor(p/2)."""
    if p < 2:
        raise GraphError("order must be at least 2")
    if not 1 <= k <= p - 1:
        raise GraphError(f"k={k} out of range for order {p}")
    return class_bound(p // 2, (p + 1) // 2, k)


def s_threshold(m: int) -> int:
    """Least surplus s for which the same-side token class is no smaller
    than the mixed class, i.e. least s with C(s,2) >= m.

    The underlying real threshold is (1 + sqrt(1+8m))/2; its ceiling is
    returned because only integer comparisons are ever needed.
    """
    if m < 1:
        raise GraphError("part size must be positive")
    s = 0
    while comb(s, 2) < m:
        s += 1
    return s


def class_order_predicate(m: int, n: int) -> bool:
    """For parts m <= n and token count 2: whether the same-side class is at
    least as large as the mixed class. Exact integer test C(n-m, 2) >= m."""
    if m < 1 or n < m:
        raise GraphError("need 1 <= m <= n")
    return comb(n - m, 2) >= m


# ---------------------------------------------------------------------------
# integer-sequence cross-checks (offline: ids are documentation labels)


@dataclass(frozen=True)
class OeisCheck:
    sequence_id: str
    terms: tuple[int, ...]
    solver_agrees: bool


def _a091044_terms(count: int) -> list[int]:
    # half central-free odd binomials, read as a triangle row by row
    out: list[int] = []
    n = 1
    while len(out) < count:
        for m in range(n):
            out.append(comb(2 * n, 2 * m + 1) // 2)
            if len(out) == count:
                break
        n += 1
    return out


def _a091044_check() -> bool:
    for n in (1, 2, 3):
        for m in range(n):
            k = 2 * m + 1
            if k >= 2 * n:
                continue
            got = token_independence_number(path_graph(2 * n), k)
            if got != comb(2 * n, 2 * m + 1) // 2:
                return False
    return True


def _a000217_terms(count: int) -> list[int]:
    return [comb(j + 1, 2) for j in range(count)]


def _a000217_check() -> bool:
    # triangular numbers match star independence from 3 leaves onward
    for j in range(2, 6):
        if token_independence_number(star_graph(j + 1), 2) != comb(j + 1, 2):
            return False
    return True


def _a002620_terms(count: int) -> list[int]:
    return [(t * t) // 4 for t in range(count)]


def _a002620_check() -> bool:
    for t in range(3, 7):
        quarter_square = (t * t) // 4
        if beta_balanced_family(t, 2) != quarter_square:
            return False
        if token_independence_number(path_graph(t), 2) != quarter_square:
            return False
    return True


def _a189889_terms(count: int) -> list[int]:
    return [beta_cycle_f2(p) for p in range(3, 3 + count)]


def _a189889_check() -> bool:
    return all(
        token_independence_number(cycle_graph(p), 2) == beta_cycle_f2(p)
        for p in range(3, 8)
    )


_OEIS = {
    "A091044": (_a091044_terms, _a091044_check),
    "A000217": (_a000217_terms, _a000217_check),
    "A002620": (_a002620_terms, _a002620_check),
    "A189889": (_a189889_terms, _a189889_check),
}


def oeis_check(sequence_id: str, count: int) -> OeisCheck:
    """Generate a sequence prefix from this package's formulas and cross-check
    the small indices against the exact solver. No network access; the ids
    are labels only."""
    if sequence_id not in _OEIS:
        raise GraphError(f"unknown sequence id {sequence_id!r}")
    if not 1 <= count <= 20:
        raise GraphError("count must be between 1 and 20")
    terms_fn, check_fn = _OEIS[sequence_id]
    return OeisCheck(sequence_id, tuple(terms_fn(count)), check_fn())


# ---------------------------------------------------------------------------
# scanners


@dataclass(frozen=True)
class ScanHit:
    """A bipartite graph on parts 2 and 5 whose 2-token independence number
    beats the larger parity class."""

    edge_mask: int
    graph: Graph
    beta: int
    class_bound: int


def counterexample_scan_2x5(
    budget: Budget | None = None, require_no_isolated: bool = False
) -> list[ScanHit]:
    """Scan every spanning subgraph of the complete bipartite graph on parts
    2 and 5 and return those whose 2-token independence number exceeds the
    parity-class bound (11).

    With ``require_no_isolated`` only subgraphs covering every vertex are
    kept, which isolates the structurally interesting hits.
    """
    base = complete_bipartite_graph(2, 5)
    bound = class_bound(2, 5, 2)
    hits: list[ScanHit] = []
    for mask in range(1 << base.edge_count):
        edges = [e for i, e in enumerate(base.edges) if (mask >> i) & 1]
        g = Graph(7, edges)
        if require_no_isolated and any(g.degree(v) == 0 for v in range(7)):
            continue
        beta = independence_number(token_graph(g, 2).graph, budget)
        if beta > bound:
            hits.append(ScanHit(edge_mask=mask, graph=g, beta=beta, class_bound=bound))
    return hits


@dataclass(frozen=True)
class ConjectureRow:
    """One scanned complete-bipartite instance: parity-class bound versus
    exact solver value."""

    m: int
    n: int
    k: int
    class_bound: int
    solver_beta: int
    agrees: bool
    witness: tuple[tuple[int, ...], ...] | None  # 1-based subsets on violation


def conjecture_scan(
    max_order: int, max_k: int, budget: Budget | None = None
) -> list[ConjectureRow]:
    """Compare the parity-class bound against the exact independence number
    for every complete bipartite base up to ``max_order`` and every token
    count up to ``max_k``.

    A disagreement is reported verbatim with a full witness; it is a
    finding, not an error. Guarded to desk scale.
    """
    if max_order > 10 or max_k > 4:
        raise BudgetExceededError("scan larger than the desk-scale guard (order 10, k 4)")
    rows: list[ConjectureRow] = []
    for m in range(1, max_order // 2 + 1):
        for n in range(m, max_order - m + 1):
            for k in range(2, min(max_k, m + n - 2) + 1):
                bound = class_bound(m, n, k)
                t = token_graph(complete_bipartite_graph(m, n), k)
                found = max_independent_set(t.graph, budget)
                agrees = found.size == bound
                witness = None
                if not agrees:
                    witness = tuple(
                        tuple(x + 1 for x in t.codec.unrank(rank))
                        for rank in found.sorted_vertices()
                    )
                rows.append(
                    ConjectureRow(
                        m=m,
                        n=n,
                        k=k,
                        class_bound=bound,
                        solver_beta=found.size,
                        agrees=agrees,
                        witness=witness,
                    )
                )
    rows.sort(key=lambda row: (row.m, row.n, row.k))
    return rows
