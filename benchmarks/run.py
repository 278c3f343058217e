"""Benchmark of avdtotal on four seeded workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src`` directory. With ``--trace 0`` the run sets up the workload's inputs
several times (``setup_s`` is their median), then solves every case in
passes until ``--seconds`` have gone by, and reports the end-to-end metrics
of BENCHMARK.json. With ``--trace 1`` it traces one set-up, then alternates
an untraced pass with a traced one (see tracer.py), and reports the
per-layer metrics. Set-up and solve times are scaled to a reference machine
speed (see reference.py). Every output is checked by oracle.py and every
input against pins.json.

The last line of standard output is the result object; the line before it
holds the version stamps and the input and output digests. Details and the
recorded spans are written under ``benchmarks/out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import SpeedReference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up repeats: at least MIN_SETUPS, then more until SETUP_BUDGET_S of
# set-up time or MAX_SETUPS, so millisecond set-ups still give a steady median
MIN_SETUPS = 3
MAX_SETUPS = 100
SETUP_BUDGET_S = 2.0


def import_program():
    """Import avdtotal from this checkout's ``src``; exit with an error if absent."""
    sys.path.insert(0, str(SRC))
    try:
        import avdtotal
        import avdtotal.cli  # noqa: F401  (the tracer wraps cli.main)
    except ImportError as exc:
        sys.exit(f"error: cannot import avdtotal from {SRC}: {exc}")
    if SRC.resolve() not in Path(avdtotal.__file__).resolve().parents:
        sys.exit(f"error: avdtotal was imported from {avdtotal.__file__}, not {SRC}")
    return avdtotal


@dataclass
class Pass:
    """One solve of every case."""

    solve_s: float = 0.0
    elements: int = 0
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0
    growth: list[int] = field(default_factory=list)
    graph_s: dict[str, float] = field(default_factory=dict)  # scaled, reference.py
    wall_s: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def graph_s_max(self) -> float:
        return max(self.graph_s.values(), default=0.0)


def run_pass(workload, cases, ref, tracer=None, tag="") -> Pass:
    """Solve and check each case; a failing case never stops the others."""
    p = Pass()
    handles = {}
    for case in cases:
        if tracer is not None:
            tracer.trace_id = f"{case.label}/{tag}"
        p.attempted += 1
        start = perf_counter()
        try:
            raw = workload.solve(case)
            p.wall_s[case.label] = perf_counter() - start
            handles[case.label] = ref.record(p.wall_s[case.label])
            outcome = workload.finish(case, raw)
        except Exception:  # the run must go on and report the failure
            p.failed += 1
            p.problems.append(f"{case.label}: {traceback.format_exc()}")
            continue
        p.elements += case.elements
        p.output_bytes += outcome.output_bytes
        p.growth.append(outcome.growth)
        p.digests[case.label] = outcome.digest
        if outcome.problems:
            p.failed += 1
            p.problems.extend(f"{case.label}: {msg}" for msg in outcome.problems)
    ref.close()
    p.graph_s = {label: ref.scaled(h) for label, h in handles.items()}
    p.solve_s = sum(p.graph_s.values())
    return p


def more_passes(passes, start: float, seconds: float) -> bool:
    return not passes or perf_counter() - start < seconds


def check_pins(workload, cases, pins: dict[str, str]) -> list[str]:
    """Input drift: each case's edge-list digest against the recorded one.

    A key outside the table is vouched for by regenerating the case of a
    key inside it, which exercises the same generator.
    """
    problems = []
    for case in cases:
        if str(case.key) in pins:
            key, digest = case.key, case.digest
        else:
            key = case.key % len(pins)
            digest = workload.make_case(key).digest
        if pins.get(str(key)) != digest:
            problems.append(f"input drift: case key {key} has digest {digest}, "
                            f"pinned {pins.get(str(key))}")
    return problems


def plain_run(workload, seed: int, seconds: float, pins):
    ref = SpeedReference()
    setup_wall, handles = [], []
    while True:
        cases = None  # free the previous inputs before building them again
        gc.collect()
        start = perf_counter()
        cases = workload.setup(seed)
        setup_wall.append(perf_counter() - start)
        handles.append(ref.record(setup_wall[-1]))
        if len(setup_wall) >= MAX_SETUPS or (
                len(setup_wall) >= MIN_SETUPS and sum(setup_wall) >= SETUP_BUDGET_S):
            break
    ref.close()
    setup_times = [ref.scaled(h) for h in handles]
    problems = check_pins(workload, cases, pins)

    passes = []
    start = perf_counter()
    while more_passes(passes, start, seconds):
        gc.collect()
        passes.append(run_pass(workload, cases, ref))
    for p in passes[1:]:
        if p.digests != passes[0].digests:
            problems.append("output digests differ between passes of one run")
            break
    growth = [g for p in passes for g in p.growth]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "elements_per_s": statistics.median(p.elements / p.solve_s if p.solve_s else 0.0
                                            for p in passes),
        "graph_s_max": statistics.median(p.graph_s_max for p in passes),
        "palette_growth": statistics.fmean(growth) if growth else 0.0,
        "verified_frac": 1.0 - sum(p.failed for p in passes) / sum(p.attempted for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {"setup_s": setup_times, "setup_wall_s": setup_wall,
               "reference_s": ref.samples,
               "passes": [{"solve_s": p.solve_s, "elements": p.elements,
                           "graph_s": p.graph_s, "wall_s": p.wall_s} for p in passes]}
    return cases, passes, problems, metrics, details


def traced_run(api, workload, seed: int, seconds: float, pins, names):
    """Trace one set-up, then alternate untraced and traced passes.

    Returns the per-layer metrics ``names``: medians over the traced passes,
    each with the traced set-up added.
    """
    from tracer import Tracer

    ref = SpeedReference()
    tracer = Tracer(api)
    tracer.trace_id = "setup"
    mark = tracer.mark()
    tracer.install()
    try:
        cases = workload.setup(seed)
    finally:
        tracer.uninstall()
    setup_layers = tracer.summary(mark)
    setup_spans = len(tracer.spans)
    problems = check_pins(workload, cases, pins)

    plain, traced, summaries = [], [], []
    start = perf_counter()
    while more_passes(traced, start, seconds):
        gc.collect()
        plain.append(run_pass(workload, cases, ref))
        gc.collect()
        mark = tracer.mark()
        tracer.install()
        try:
            traced.append(run_pass(workload, cases, ref, tracer, tag=str(len(traced))))
        finally:
            tracer.uninstall()
        summary = Counter(setup_layers)
        summary.update(tracer.summary(mark))
        summary["cli.output_bytes"] = traced[-1].output_bytes
        summaries.append(summary)
        if traced[-1].digests != plain[-1].digests:
            problems.append("output digests differ between traced and untraced passes")

    def layer(name):
        if name.endswith("_success_per_round"):
            stage = name[len("highdeg."):-len("_success_per_round")]
            return layer(f"highdeg.{stage}_successes") / max(layer(f"highdeg.{stage}_rounds"), 1)
        return statistics.median(s[name] for s in summaries)

    passes = plain + traced
    metrics = {"trace.overhead_frac":
               statistics.median(p.solve_s for p in traced)
               / statistics.median(p.solve_s for p in plain) - 1.0,
               "trace.spans": (len(tracer.spans) - setup_spans) / len(traced),
               "failed_frac": sum(p.failed for p in passes) / sum(p.attempted for p in passes)}
    for name in names:
        if name not in metrics:
            metrics[name] = layer(name)
    details = {"layers": summaries,
               "plain_solve_s": [p.solve_s for p in plain],
               "traced_solve_s": [p.solve_s for p in traced]}
    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT / f"trace-{workload.name}-seed{seed}.jsonl")
    return cases, passes, problems, metrics, details


def stamp(api) -> dict:
    import numpy

    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        sha = ref
    import workloads

    src = "".join(p.read_text() for p in sorted((SRC / "avdtotal").glob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "avdtotal": api.__version__, "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha, "src_digest": workloads.sha(src)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64 - 2 or args.seconds <= 0:
        parser.error("need 0 <= seed < 2**64 - 2 and seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    api = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    pins = json.loads((HERE / "data" / "pins.json").read_text())[workload.name]

    if args.trace:
        declared = spec["per_layer"]
        cases, passes, problems, values, details = traced_run(
            api, workload, args.seed, args.seconds, pins, [m["name"] for m in declared])
    else:
        cases, passes, problems, values, details = plain_run(
            workload, args.seed, args.seconds, pins)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    problems += [msg for p in passes for msg in p.problems]
    for msg in problems[:20]:
        print(msg, file=sys.stderr)
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "stamp": stamp(api),
            "input_digests": {c.label: c.digest for c in cases},
            "output_digests": passes[0].digests}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**info, "problems": problems, "details": details,
                    "metrics": metrics}, indent=1))
    result = {"correct": not problems,
              "attempted": sum(p.attempted for p in passes),
              "failed": sum(p.failed for p in passes),
              "metrics": metrics}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
