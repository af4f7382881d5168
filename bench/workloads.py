"""The four benchmark workloads: their inputs, one pass over each, and the
checks on every answer.

A workload object is made by :func:`make` from the imported ``tokengraphs``
package and the run's seed. Its ``run_pass(index)`` does one full pass and
returns a :class:`PassResult`: the latency of each timed instance, how many
instances were attempted, and how many came back wrong, exceeded the budget,
or raised, with a message for each problem.

Every call into the package goes through a module attribute looked up at call
time (``tg.independence.max_independent_set``), so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

#: Per-instance solver budget of the frontier workloads. No instance comes
#: near it; it turns a pathological slowdown into a counted failure.
BUDGET_S = 60.0


@dataclass
class PassResult:
    latencies: dict[object, float]  # instance -> seconds
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# frontier workloads: one exact solve per instance


@dataclass(frozen=True)
class Frontier:
    """One frontier solve: a base graph family, a token count, the quantity
    solved for, and its expected value with the value's source."""

    label: str
    kind: str  # a family name accepted by tokengraphs.graphs.family
    params: tuple[int, ...]
    k: int
    quantity: str  # "beta" | "nu"
    expected: int
    source: str
    bipartite: bool  # the source assumes a bipartite token graph


FRONTIER: dict[str, tuple[Frontier, ...]] = {
    "beta-bipartite": (
        Frontier(
            "F_7(C_14)", "cycle", (14,), 7, "beta", 1716,
            "cor3: perfect-matching bipartite base, odd k, so beta = C(14,7)/2",
            True,
        ),
        Frontier(
            "F_7(K_{7,7})", "complete_bipartite", (7, 7), 7, "beta", 1716,
            "cor3: perfect-matching bipartite base, odd k, so beta = C(14,7)/2",
            True,
        ),
    ),
    "beta-branching": (
        Frontier(
            "J(9,3) = F_3(K_9)", "complete", (9,), 3, "beta", 12,
            "Schoenheim (1966): triple packing number floor(9/3*floor(8/2)) = 12",
            False,
        ),
        Frontier(
            "J(8,4) = F_4(K_8)", "complete", (8,), 4, "beta", 14,
            "constant-weight code table: A(8,4,4) = 14",
            False,
        ),
        Frontier(
            "F_3(C_9)", "cycle", (9,), 3, "beta", 38,
            "networkx max_weight_clique on the complement graph",
            False,
        ),
        Frontier(
            "F_4(C_9)", "cycle", (9,), 4, "beta", 56,
            "networkx max_weight_clique on the complement graph",
            False,
        ),
    ),
    "nu-large": (
        Frontier(
            "F_8(P_16)", "path", (16,), 8, "nu", 6400,
            "Koenig on the bipartite token graph: C(16,8) - beta = 12870 - 6470, "
            "with beta from cor4",
            True,
        ),
        Frontier(
            "F_7(K_{7,7})", "complete_bipartite", (7, 7), 7, "nu", 1716,
            "thm1 exact case: even order, odd k, a perfect matching of C(14,7) vertices",
            True,
        ),
    ),
}


def permutation(seed: int, index: int, label: str, n: int) -> list[int]:
    """The relabelling of one base graph in pass ``index`` of a run.

    Seed 0 keeps the paper's labels. Any other seed draws a fresh permutation
    for every pass and instance, so one run samples many labellings; the
    solvers' running time depends on the labelling, the answers do not.
    """
    order = list(range(n))
    if seed:
        random.Random(f"{seed}:{index}:{label}").shuffle(order)
    return order


class FrontierWorkload:
    def __init__(self, tg, seed: int, instances: tuple[Frontier, ...]):
        self.tg = tg
        self.seed = seed
        self.instances = instances
        self.bases = [tg.graphs.family(inst.kind, list(inst.params)) for inst in instances]
        # The checks hold on to the functions as imported, so a traced run
        # counts them as the benchmark's own time, not as the layers' time.
        self.validate = {
            "beta": tg.independence.IndependentSet.validate,
            "nu": tg.matching.Matching.validate,
        }
        self.bipartition_of = tg.graphs.bipartition_of
        self.inputs(0)

    def close(self) -> None:
        pass

    def inputs(self, index: int) -> list:
        """The relabelled base graphs of pass ``index``."""
        Graph = self.tg.graphs.Graph
        out = []
        for inst, base in zip(self.instances, self.bases):
            p = permutation(self.seed, index, inst.label, base.n)
            out.append(Graph(base.n, [(p[u], p[v]) for u, v in base.edges]))
        return out

    def solve(self, inst: Frontier, base):
        tg = self.tg
        t = tg.tokens.token_graph(base, inst.k)
        if inst.quantity == "beta":
            return t, tg.independence.max_independent_set(
                t.graph, tg.independence.Budget(seconds=BUDGET_S)
            )
        return t, tg.matching.max_matching(t.graph)

    def check(self, inst: Frontier, t, found) -> str | None:
        if found.size != inst.expected:
            return f"{inst.label}: {inst.quantity} = {found.size}, expected {inst.expected} ({inst.source})"
        try:
            self.validate[inst.quantity](found, t.graph)
        except ValueError as exc:  # GraphError and MatchingError
            return f"{inst.label}: witness rejected: {exc}"
        if inst.bipartite and self.bipartition_of(t.graph) is None:
            return f"{inst.label}: token graph is not bipartite, so the source does not apply"
        return None

    def run_pass(self, index: int) -> PassResult:
        result = PassResult({}, len(self.instances))
        for inst, base in zip(self.instances, self.inputs(index)):
            start = perf_counter()
            try:
                t, found = self.solve(inst, base)
            except Exception as exc:  # budget exceeded or a solver fault: count it, go on
                result.failed += 1
                result.problems.append(f"{inst.label}: {type(exc).__name__}: {exc}")
                continue
            result.latencies[inst.label] = perf_counter() - start
            problem = self.check(inst, t, found)
            if problem:
                result.failed += 1
                result.problems.append(problem)
        return result


# ---------------------------------------------------------------------------
# the catalog: the CLI, in-process, as a user runs it

#: ``verify`` ids in catalog order, each with its row count at default caps.
#: The merged report digest depends on this order.
VERIFY_ROWS = {
    "thm1": 58, "thm2": 16, "thm3": 13, "lemma3": 8, "lemma5": 10, "lemma6": 10,
    "cor3": 27, "cor4": 64, "star": 27, "prop3": 19, "eq1": 337, "eq2": 15,
    "eq3": 7, "fig1": 1, "fig2": 1, "fig34": 1, "j73": 1,
}
CONJECTURE_ARGS = ["--max-order", "10", "--max-k", "4"]
CONJECTURE_ROWS = 63
OEIS_IDS = ("A091044", "A000217", "A002620", "A189889")
OEIS_COUNT = "20"

#: sha256 and byte length of each catalog output, recorded from the seed
#: release. ``verify.json`` is the 17 JSON reports merged into one list in
#: catalog order; ``verify.csv`` is the 17 CSV reports concatenated.
GOLDEN = {
    "verify.json": ("72cefb384a522dd2e0dc30353689a29db13f8fe1107d1cb140b8f1ffdc3f449e", 256863),
    "verify.csv": ("8cc1eb45a4a27f0ff92009f5e9a9cd9a71dd488ed225f146c4051fb8aa0e86c7", 27709),
    "conjecture.json": ("9470f4a63cc2a6b8d6bd513025869028de2fdb2825a72b93afd73c64fb0759a8", 10010),
    "conjecture.csv": ("9794af1543a8cb6de7a505bdacd60284dd776b671c2e3195050dfcf86ff29227", 2370),
    "oeis.stdout": ("5bee0a4c2137f46d23d248d175b430d20c2a1cced117ccba989706246d744191", 433),
}

GOOD_STATUSES = ("pass", "bound-holds")


def merge_json_reports(texts: list[str]) -> str:
    """Merge report files, each ``[\\n...\\n]\\n``, into one list, byte for byte
    as one ``reports_to_json`` call over all their rows would write it."""
    return "[\n" + ",\n".join(t[2:-3] for t in texts) + "\n]\n"


def digest(text: str) -> tuple[str, int]:
    data = text.encode()
    return hashlib.sha256(data).hexdigest(), len(data)


class CatalogWorkload:
    """``verify`` for every id with ``--json --csv``, ``scan conjecture`` and
    ``oeis`` for every id, through ``tokengraphs.cli.main``.

    An instance is one report row or one ``oeis`` check. Row latencies are
    the seconds the catalog itself records on each row; the conjecture scan
    and ``oeis`` do not time their rows, so they count toward attempts and
    failures only.
    """

    def __init__(self, tg, seed: int, outdir: Path):
        self.tg = tg
        self.seed = seed  # recorded; the catalog is fixed by the paper's domains
        self.outdir = outdir
        outdir.mkdir(parents=True, exist_ok=True)
        self.rows: list = []
        # keep every report row the package builds during a pass
        cls = self.tg.reports.VerificationReport
        self._post_init = original = cls.__post_init__
        rows = self.rows

        def recorded(report) -> None:
            original(report)
            rows.append(report)

        cls.__post_init__ = recorded

    def close(self) -> None:
        self.tg.reports.VerificationReport.__post_init__ = self._post_init

    def _cli(self, argv: list[str]) -> tuple[int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.tg.cli.main(argv)
            except Exception as exc:  # a CLI traceback fails the command's rows
                print(f"{type(exc).__name__}: {exc}", file=err)
                code = None
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, index: int) -> PassResult:
        del self.rows[:]
        failed: set[tuple] = set()
        problems: list[str] = []

        def fail(keys, message: str) -> None:
            failed.update(keys)
            problems.append(message)

        def report_rows(group: str, name: str, count: int, code, err: str, path: Path) -> str:
            keys = [(group, name, i) for i in range(count)]
            if code != 0:
                fail(keys, f"{group} {name}: exit code {code}: {err.strip()[-200:]}")
                return ""
            text = path.read_text()
            rows = json.loads(text)
            if len(rows) != count:
                fail(keys, f"{group} {name}: {len(rows)} rows, expected {count}")
            bad = [i for i, row in enumerate(rows[:count]) if row["status"] not in GOOD_STATUSES]
            if bad:
                fail([keys[i] for i in bad], f"{group} {name}: {len(bad)} row(s) neither pass nor bound-holds")
            return text

        json_texts, csv_texts = [], []
        for check, count in VERIFY_ROWS.items():
            js, cs = self.outdir / f"{check}.json", self.outdir / f"{check}.csv"
            code, _, err = self._cli(["verify", check, "--json", str(js), "--csv", str(cs)])
            json_texts.append(report_rows("verify", check, count, code, err, js))
            csv_texts.append(cs.read_text() if code == 0 else "")

        js, cs = self.outdir / "conjecture.json", self.outdir / "conjecture.csv"
        code, _, err = self._cli(
            ["scan", "conjecture", *CONJECTURE_ARGS, "--json", str(js), "--csv", str(cs)]
        )
        conj_json = report_rows("conjecture", "scan", CONJECTURE_ROWS, code, err, js)
        conj_csv = cs.read_text() if code == 0 else ""

        oeis_out = []
        for seq in OEIS_IDS:
            code, out, err = self._cli(["oeis", seq, "--count", OEIS_COUNT])
            if code != 0:
                fail([("oeis", seq, 0)], f"oeis {seq}: exit code {code}: {err.strip()[-200:]}")
            oeis_out.append(out)

        verify_keys = [("verify", c, i) for c, n in VERIFY_ROWS.items() for i in range(n)]
        conj_keys = [("conjecture", "scan", i) for i in range(CONJECTURE_ROWS)]
        outputs = {
            "verify.json": (merge_json_reports(json_texts), verify_keys),
            "verify.csv": ("".join(csv_texts), verify_keys),
            "conjecture.json": (conj_json, conj_keys),
            "conjecture.csv": (conj_csv, conj_keys),
            "oeis.stdout": ("".join(oeis_out), [("oeis", s, 0) for s in OEIS_IDS]),
        }
        for name, (text, keys) in outputs.items():
            got = digest(text)
            if got != GOLDEN[name]:
                fail(keys, f"{name}: sha256 {got[0][:12]}, {got[1]} bytes; golden {GOLDEN[name][0][:12]}, {GOLDEN[name][1]} bytes")

        attempted = sum(VERIFY_ROWS.values()) + CONJECTURE_ROWS + len(OEIS_IDS)
        latencies = {(r.check_id, r.instance): r.seconds for r in self.rows if r.seconds > 0}
        return PassResult(latencies, attempted, len(failed), problems)


WORKLOADS = ("catalog", *FRONTIER)


def make(name: str, tg, seed: int, outdir: Path):
    if name == "catalog":
        return CatalogWorkload(tg, seed, outdir)
    return FrontierWorkload(tg, seed, FRONTIER[name])
