"""Shared corpora for the test suite: named small graphs plus seeded
random graphs, all deterministic."""

from __future__ import annotations

import random
import re

import pytest

from tokengraphs.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    matching_graph,
    path_graph,
    star_graph,
)
from tokengraphs.tokens import TokenGraph, token_graph


def named_graphs(max_order: int) -> list[tuple[str, Graph]]:
    """The standard families up to a given order, labeled for test ids."""
    out: list[tuple[str, Graph]] = []
    out.extend((f"P{p}", path_graph(p)) for p in range(2, max_order + 1))
    out.extend((f"C{p}", cycle_graph(p)) for p in range(3, max_order + 1))
    out.extend((f"K{p}", complete_graph(p)) for p in range(2, min(6, max_order) + 1))
    out.extend((f"K_1_{n}", star_graph(n)) for n in range(2, max_order))
    for m in range(2, max_order // 2 + 1):
        for n in range(m, max_order - m + 1):
            out.append((f"K_{m}_{n}", complete_bipartite_graph(m, n)))
    for m in range(1, max_order // 2 + 1):
        for s in (0, 1):
            if 2 <= 2 * m + s <= max_order:
                out.append((f"M_{m}_{s}", matching_graph(m, s)))
    return out


def random_graphs(count: int, max_n: int, seed_base: int = 0) -> list[Graph]:
    densities = (0.15, 0.3, 0.5)
    out = []
    for i in range(count):
        n = 3 + (seed_base + i) % (max_n - 2)
        out.append(erdos_renyi(n, densities[i % 3], seed_base + i))
    return out


def conjecture_mnk(instance: str) -> tuple[int, int, int]:
    """(m, n, k) of a conjecture-scan row's instance ``K_{m,n}, k=k``."""
    match = re.fullmatch(r"K_\{(\d+),(\d+)\}, k=(\d+)", instance)
    assert match, instance
    return tuple(int(x) for x in match.groups())


def relabelled(g: Graph, seed: int) -> Graph:
    """``g`` with its vertex ids permuted by a seeded shuffle."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@pytest.fixture(scope="session")
def small_named():
    return named_graphs(8)


def bipartite_components(seed: int) -> Graph:
    """A relabelled disjoint union of 2 to 5 random bipartite graphs with up
    to 8 vertices a side, isolated vertices included."""
    rng = random.Random(seed)
    edges, n = [], 0
    for _ in range(rng.randint(2, 5)):
        a, b = rng.randint(1, 8), rng.randint(1, 8)
        p = rng.choice((0.2, 0.4, 0.7))
        edges += [(n + i, n + a + j) for i in range(a) for j in range(b) if rng.random() < p]
        n += a + b
    return relabelled(Graph(n, edges), seed)


def complement_image(t: TokenGraph) -> TokenGraph:
    """The (n-k)-token graph of ``t``'s base, ``t`` itself when 2k = n, after
    asserting that rank reversal r -> C(n,k) - 1 - r maps the edges of ``t``
    onto all of its edges. The reversal is the set complement: A, B and
    their complements differ at the same elements, the largest of which is
    in B just when not in B's complement. ``verify._cached_beta`` relies on
    this."""
    n, k = t.base.n, t.k
    target = t if 2 * k == n else token_graph(t.base, n - k)
    last = t.codec.size - 1
    for a, b in t.graph.edges:
        assert target.graph.adjacent(last - a, last - b), (n, k, a, b)
    assert t.graph.edge_count == target.graph.edge_count, (n, k)
    return target
