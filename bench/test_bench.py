"""Self-tests of the benchmark. From the root of the repository:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

F2_C5 = workloads.Frontier("F_2(C_5)", "cycle", (5,), 2, "beta", 5, "thm3", False)
SMALL = (
    F2_C5,
    workloads.Frontier("F_3(C_6)", "cycle", (6,), 3, "beta", 10, "cor3: C(6,3)/2", True),
    workloads.Frontier("F_3(K_{3,3})", "complete_bipartite", (3, 3), 3, "nu", 10,
                       "thm1 exact case: C(6,3)/2", True),
)


@pytest.fixture(scope="module")
def tg():
    return run.import_package(ROOT / "src")


@pytest.fixture
def outdir(tmp_path):
    return tmp_path / "out"


def test_wrong_expected_value_makes_failed_frac_nonzero(tg):
    good = run.measure(workloads.FrontierWorkload(tg, 0, (F2_C5,)).run_pass, 1e-9, run.Sample())
    assert (good.attempted, good.failed) == (1, 0)
    wrong = dataclasses.replace(F2_C5, expected=6)
    bad = run.measure(workloads.FrontierWorkload(tg, 0, (wrong,)).run_pass, 1e-9, run.Sample())
    assert (bad.attempted, bad.failed) == (1, 1)
    assert "expected 6" in bad.problems[0]


def test_wrong_golden_digest_fails_the_rows_it_covers(tg, outdir, monkeypatch):
    _, size = workloads.GOLDEN["oeis.stdout"]
    monkeypatch.setitem(workloads.GOLDEN, "oeis.stdout", ("0" * 64, size))
    state = workloads.make("catalog", tg, 0, outdir)
    try:
        result = state.run_pass(0)
    finally:
        state.close()
    assert result.failed == len(workloads.OEIS_IDS)
    assert result.attempted == 682


def test_answers_do_not_depend_on_the_seed(tg):
    identity = workloads.FrontierWorkload(tg, 0, SMALL).inputs(0)
    for seed in (0, 1, 2, 7):
        state = workloads.FrontierWorkload(tg, seed, SMALL)
        for index in (0, 1):
            result = state.run_pass(index)
            assert result.failed == 0, result.problems
            if seed:
                assert state.inputs(index) != identity
    for seed in (0, 3):
        result = workloads.make("beta-branching", tg, seed, None).run_pass(0)
        assert result.failed == 0, result.problems


def test_seed_gives_the_same_inputs(tg):
    a = workloads.FrontierWorkload(tg, 5, SMALL)
    b = workloads.FrontierWorkload(tg, 5, SMALL)
    assert a.inputs(3) == b.inputs(3)
    assert a.inputs(3) != a.inputs(4)


@pytest.mark.parametrize("name", ["catalog", "beta-branching"])
def test_traced_self_times_sum_to_at_most_the_traced_wall_time(tg, outdir, name):
    state = workloads.make(name, tg, 1, outdir)
    tracer = layers.Tracer()
    tracer.install()
    try:
        sample = run.measure(tracer.span(layers.ROOT, state.run_pass), 1e-9, run.Sample())
    finally:
        tracer.remove()
        state.close()
    assert sample.failed == 0, sample.problems
    assert tracer.absent == []
    assert 0 < sum(tracer.self_s.values()) <= sum(sample.pass_s)
    values = tracer.metrics(len(sample.pass_s))
    assert set(values) == set(layers.METRICS)
    assert values["independence.calls"] > 0 and values["independence.nodes"] > 0
    assert values["tokens.token_graph.calls"] > 0
    if name == "catalog":
        assert values["cli.main.self_s"] > 0 and values["reports.serialise_s"] > 0


def test_the_benchmark_checks_count_as_its_own_time(tg):
    state = workloads.FrontierWorkload(tg, 0, SMALL)
    tracer = layers.Tracer()
    tracer.install()
    try:
        result = tracer.span(layers.ROOT, state.run_pass)(0)
    finally:
        tracer.remove()
    assert result.failed == 0
    assert tracer.calls["graphs.bipartition_of"] == 0
    # one validation inside each beta solve, none from the checks
    assert tracer.calls["independence.validate"] == tracer.calls["independence.solve"] == 2


def test_tracer_restores_every_name(tg):
    before = (tg.verify.max_independent_set, tg.independence._greedy_seed,
              tg.graphs.Graph.adjacency_masks, tg.independence._BudgetClock, tg.cli.main)
    tracer = layers.Tracer()
    tracer.install()
    assert tg.verify.max_independent_set is not before[0]
    tracer.remove()
    after = (tg.verify.max_independent_set, tg.independence._greedy_seed,
             tg.graphs.Graph.adjacency_masks, tg.independence._BudgetClock, tg.cli.main)
    assert after == before


def test_a_missing_helper_is_reported_absent(tg, monkeypatch):
    monkeypatch.setattr(layers, "SPANS", layers.SPANS + (
        ("independence.gone", "tokengraphs.independence", "_no_such_helper"),
    ))
    tracer = layers.Tracer()
    tracer.install()
    try:
        result = workloads.FrontierWorkload(tg, 0, (F2_C5,)).run_pass(0)
    finally:
        tracer.remove()
    assert result.failed == 0
    assert tracer.absent == ["independence.gone"]


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    value, q = run.tail([float(x) for x in range(100)])
    assert q == pytest.approx(90.0)
    assert sum(1 for x in range(100) if x > value) == 10


def test_expected_values_match_their_sources(tg):
    expected = {(i.label, i.quantity): i.expected for w in workloads.FRONTIER.values() for i in w}
    assert expected["F_7(C_14)", "beta"] == expected["F_7(K_{7,7})", "beta"] == comb(14, 7) // 2
    assert expected["F_7(K_{7,7})", "nu"] == comb(14, 7) // 2
    assert expected["J(9,3) = F_3(K_9)", "beta"] == (9 * (8 // 2)) // 3
    assert expected["F_8(P_16)", "nu"] == comb(16, 8) - tg.formulas.beta_balanced_family(16, 8)


@pytest.mark.parametrize("k, beta", [(3, 38), (4, 56)])
def test_cycle_values_match_networkx(tg, k, beta):
    nx = pytest.importorskip("networkx")
    g = tg.tokens.token_graph(tg.graphs.cycle_graph(9), k).graph
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    _, size = nx.max_weight_clique(nx.complement(h), weight=None)
    assert size == beta == dict(
        ((i.label, i.expected) for i in workloads.FRONTIER["beta-branching"])
    )[f"F_{k}(C_9)"]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_has_every_metric_of_the_spec(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _bench(ROOT, "--workload", "beta-branching", "--seed", "2",
                  "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in spec[key]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "catalog", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
