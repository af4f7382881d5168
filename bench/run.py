"""Run one workload of the tokengraphs benchmark and print its metrics.

    python3 bench/run.py --workload catalog --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout: the package is imported from ``./src``,
never from an installed copy. One process, one thread, a closed loop with a
single caller: a pass starts when the previous one has been checked. Passes
run until the next one is not expected to end within ``--seconds``.

``--trace 0`` prints the end-to-end metrics. An instance's latency is its
median over the run's passes; ``instance_s`` and ``instance_s_tail`` are taken
across instances, ``pass_s`` and ``pass_s_tail`` across passes. ``--trace 1`` spends the first
third of the time on untraced passes and the rest on traced ones, and prints
the per-layer metrics per traced pass, with ``trace.overhead_s``, the traced
median pass time minus the untraced one.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it say which percentile each
tail metric is and how many samples it has.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import layers
import workloads

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 11


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile. It never goes below the median, so with fewer than twenty
    samples it is the median."""
    xs = sorted(values)
    q = max(0.5, 1 - 10 / len(xs))
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), 100 * q


def import_package(src: Path):
    """Import ``tokengraphs`` afresh from ``src``."""
    for name in [m for m in sys.modules if m == "tokengraphs" or m.startswith("tokengraphs.")]:
        del sys.modules[name]
    tg = importlib.import_module("tokengraphs")
    importlib.import_module("tokengraphs.cli")
    if Path(tg.__file__).resolve().parent != (src / "tokengraphs").resolve():
        raise ImportError(f"tokengraphs was imported from {tg.__file__}, not from {src}")
    return tg


@dataclass
class Sample:
    pass_s: list[float] = field(default_factory=list)
    instance_s: dict[object, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def measure(run_pass, seconds: float, sample: Sample) -> Sample:
    """Run passes 0, 1, ... until the next is not expected to end in time."""
    start = perf_counter()
    index = 0
    while True:
        begin = perf_counter()
        result = run_pass(index)
        sample.pass_s.append(perf_counter() - begin)
        for instance, latency in result.latencies.items():
            sample.instance_s.setdefault(instance, []).append(latency)
        sample.attempted += result.attempted
        sample.failed += result.failed
        sample.problems.extend(f"pass {index}: {p}" for p in result.problems)
        index += 1
        if perf_counter() - start + statistics.median(sample.pass_s) > seconds:
            return sample


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    src = root / "src"
    if not (src / "tokengraphs" / "__init__.py").is_file():
        print(f"error: no tokengraphs package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    outdir = root / ".bench_out" / f"{args.workload}-{os.getpid()}"

    try:
        setup_s = []
        state = None
        for _ in range(SETUP_REPEATS):
            if state is not None:
                state.close()
            begin = perf_counter()
            tg = import_package(src)
            state = workloads.make(args.workload, tg, args.seed, outdir)
            setup_s.append(perf_counter() - begin)
            gc.collect()  # free the purged modules now, not at a random point in a pass

        if args.trace:
            untraced = measure(state.run_pass, args.seconds / 3, Sample())
            tracer = layers.Tracer()
            tracer.install()
            try:
                traced = measure(tracer.span(layers.ROOT, state.run_pass),
                                 args.seconds * 2 / 3, Sample())
            finally:
                tracer.remove()
            runs = (untraced, traced)
        else:
            runs = (measure(state.run_pass, args.seconds, Sample()),)
        state.close()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            outdir.parent.rmdir()

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} instances)")
    for problem in [p for r in runs for p in r.problems][:20]:
        print(f"  FAILED {problem}")

    if args.trace:
        untraced, traced = runs
        values = tracer.metrics(len(traced.pass_s))
        values["trace.pass_s"] = statistics.median(traced.pass_s)
        values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(untraced.pass_s)
        print(f"traced passes {len(traced.pass_s)}, untraced passes {len(untraced.pass_s)}; "
              f"self times sum to {sum(tracer.self_s.values()) / len(traced.pass_s):.6g} s "
              f"of {statistics.mean(traced.pass_s):.6g} s per traced pass")
        if tracer.absent:
            print(f"absent layers (reported as 0): {', '.join(tracer.absent)}")
        for name, spec in layers.MOVES.items():
            print(f"  {name} -> {spec}")
        out = {name: metric(v, "s" if name.endswith("_s") else "count")
               for name, v in values.items()}
    else:
        (run,) = runs
        pass_tail, pass_q = tail(run.pass_s)
        out = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "pass_s": metric(statistics.median(run.pass_s), "s"),
            "pass_s_tail": metric(pass_tail, "s"),
        }
        print(f"pass_s_tail is p{pass_q:.4g} of {len(run.pass_s)} passes")
        if run.instance_s:
            per_instance = [statistics.median(v) for v in run.instance_s.values()]
            inst_tail, inst_q = tail(per_instance)
            out["instance_s"] = metric(statistics.median(per_instance), "s")
            out["instance_s_tail"] = metric(inst_tail, "s")
            print(f"instance_s_tail is p{inst_q:.4g} of {len(per_instance)} instances, "
                  f"each timed in {min(map(len, run.instance_s.values()))} or more passes")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["peak_rss_mb"] = metric(peak_kib / 1024, "MB")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
