"""Record the benchmark's end-to-end metrics as one point of the BENCH trajectory.

    python3 tools/record_bench.py --number N [--seed 2001] [--seconds 8] [--out FILE]

Runs ``benchmarks/run.py --trace 0`` on each of the four workloads, one
process each, and writes ``BENCH_<N>.json`` at the repository root (or
FILE). The file holds run.py's version stamp, and for each workload its
``correct`` flag, the six end-to-end metrics of BENCHMARK.json and the
output digests. Under ``chi_excess`` it carries, for the two small corpora
of connected graphs, how far ``run_pipeline`` at ``PipelineParams(seed=0)``
lands above exact χ_AT (see ``chi_excess``); ``within_floor`` tells
whether those figures keep to the quality floor ``FLOOR``. The stamp's
``git_sha`` is the checked-out HEAD, and ``dirty`` tells whether the
source measured was HEAD's: it is true when the stamp's ``src_digest``
differs from the same digest over HEAD's ``src/avdtotal/*.py``, read
with ``git show``, and null when git cannot read HEAD.

Exits 1 unless every workload is correct with ``verified_frac`` 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from avdtotal import PipelineParams, chi_at_exact, parse_graph6, run_pipeline  # noqa: E402

WORKLOADS = ("dense_gnp", "sparse_cli", "hub_skewed", "exact_small")

# per corpus of ``chi_excess``: the graphs, and the least hits, most total
# excess and most worst excess, as measured when the floor was set
FLOOR = {"connected_up_to_6": (142, 52, 219, 7), "connected_7": (853, 287, 2095, 8)}


def run_workload(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(info, result): the last two stdout lines of one run.py run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    info, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def head_src_digest() -> str | None:
    """run.py's ``src_digest`` over HEAD's ``src/avdtotal/*.py``: the first
    16 hex digits of the sha256 of the files' text, joined in sorted path
    order; None when git cannot read HEAD."""

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout

    try:
        names = sorted(name for name in git("ls-tree", "--name-only", "HEAD",
                                            "src/avdtotal/").splitlines()
                       if name.endswith(".py"))
        text = "".join(git("show", f"HEAD:./{name}") for name in names)
    except (OSError, subprocess.CalledProcessError):
        return None
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def dirty(src_digest: str) -> bool | None:
    """Whether src_digest, run.py's digest of the source it ran, is not
    HEAD's; None when git cannot read HEAD."""
    head = head_src_digest()
    return None if head is None else src_digest != head


def chi_excess() -> dict:
    """Per corpus, how far ``run_pipeline`` (seed 0) lands above χ_AT: the
    graphs, the hits (final k equal to χ_AT), and the total, mean and worst
    excess of final k over χ_AT. ``connected_up_to_6`` is every connected
    graph with an edge on at most 6 vertices, with the χ_AT values recorded
    in ``benchmarks/data/exact_small.json``; ``connected_7`` is the 853
    graphs of ``tests/data/connected_7.g6``, with ``chi_at_exact``'s."""
    atlas = json.loads((ROOT / "benchmarks" / "data" / "exact_small.json").read_text())
    corpus_7 = (ROOT / "tests" / "data" / "connected_7.g6").read_text().splitlines()
    corpora = {
        "connected_up_to_6": [(parse_graph6(line), chi)
                              for line, chi in atlas["connected_up_to_6"]],
        "connected_7": [(g, chi_at_exact(g)) for g in map(parse_graph6, corpus_7)],
    }
    figures = {}
    for name, graphs in corpora.items():
        excess = [run_pipeline(g, params=PipelineParams(seed=0))[1].final_k - chi
                  for g, chi in graphs if g.edges]
        figures[name] = {"graphs": len(excess), "hits": excess.count(0),
                         "total_excess": sum(excess),
                         "mean_excess": round(sum(excess) / len(excess), 4),
                         "worst_excess": max(excess)}
    return figures


def within_floor(figures: dict) -> bool:
    """Whether ``chi_excess`` figures cover exactly the corpora of ``FLOOR``,
    each with its number of graphs, at least its hits, and at most its total
    and its worst excess."""
    return set(figures) == set(FLOOR) and all(
        figures[name]["graphs"] == graphs and figures[name]["hits"] >= hits
        and figures[name]["total_excess"] <= total and figures[name]["worst_excess"] <= worst
        for name, (graphs, hits, total, worst) in FLOOR.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    declared = [m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

    runs, stamp, ok = {}, None, True
    for name in WORKLOADS:
        info, result = run_workload(name, args.seed, args.seconds)
        stamp = stamp or info["stamp"]
        metrics = {m: result["metrics"][m]["value"] for m in declared}
        runs[name] = {"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics,
                      "output_digests": info["output_digests"]}
        ok = ok and result["correct"] is True and metrics["verified_frac"] == 1
        print(f"{name}: correct={result['correct']} "
              f"verified_frac={metrics['verified_frac']} "
              f"elements_per_s={metrics['elements_per_s']:.0f}")

    record = {"number": args.number, "seed": args.seed, "seconds": args.seconds, "trace": 0,
              "stamp": stamp, "dirty": dirty(stamp["src_digest"]), "workloads": runs,
              "chi_excess": chi_excess()}
    out = args.out or ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
