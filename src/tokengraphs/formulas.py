"""Closed-form evaluators for the token-graph matching and independence
numbers. Nothing here solves a graph: every check of a closed form against
the exact solvers, the integer-sequence cross-checks and the parts-2/5 scan
included, lives in ``verify``.

All threshold tests use exact integer arithmetic (binomial comparisons);
no floating point enters any verdict.
"""

from __future__ import annotations

from math import comb

from .graphs import GraphError


def isolated_token_count(m: int, s: int, k: int) -> int:
    """Number of isolated vertices of the k-token graph of
    ``matching_graph(m, s)``: the tokens holding both ends or neither of
    every edge, so k // 2 whole edges, and the uncovered vertex when k is
    odd."""
    return comb(m, k // 2) if k % 2 == 0 or s == 1 else 0


def nu_token_formula(n: int, k: int) -> int:
    """Matching number of a k-token graph over a base of order n with
    maximum possible matching number: half the tokens that are not isolated
    in the token graph of the disjoint (almost) perfect matching.

    Even n, odd k: exact C(n,k)/2, as no token is isolated. Even n, even k:
    lower bound, tight when the base is a disjoint perfect matching. Odd n:
    lower bound, tight for a disjoint almost perfect matching.
    """
    if not 1 <= k <= n - 1:
        raise GraphError(f"k={k} out of range for n={n}")
    paired = comb(n, k) - isolated_token_count(n // 2, n % 2, k)
    assert paired % 2 == 0
    return paired // 2


def beta_cycle_f2(p: int) -> int:
    """Independence number of the 2-token graph of the p-cycle:
    floor(p * floor(p/2) / 2)."""
    if p < 3:
        raise GraphError("cycle length must be at least 3")
    return (p * (p // 2)) // 2


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
    base with parts m and n: max(r, C(m+n,k) - r) with r the odd class. It is
    β wherever the smaller class saturates: thm2, star, lemma5/6 and cor4."""
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


def class_order_predicate(m: int, n: int) -> bool:
    """For parts m <= n and token count 2: whether the same-side class is at
    least as large as the mixed class. Exact integer test C(n-m, 2) >= m."""
    if m < 1 or n < m:
        raise GraphError("need 1 <= m <= n")
    return comb(n - m, 2) >= m
