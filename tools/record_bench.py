"""Record the benchmark's end-to-end metrics as one point of the BENCH trajectory.

    python3 tools/record_bench.py --number N [--seed 2001] [--seconds 8] [--out FILE]

Runs ``benchmarks/run.py --trace 0`` on each of the four workloads, one
process each, and writes ``BENCH_<N>.json`` at the repository root (or
FILE). The file holds run.py's version stamp, and for each workload its
``correct`` flag, the six end-to-end metrics of BENCHMARK.json and the
output digests. Under ``chi_excess`` it carries, for the two small corpora
of connected graphs, how far ``run_pipeline`` at ``PipelineParams(seed=0)``
lands above exact χ_AT (see ``chi_excess``). The first point of the
trajectory, the one with no ``BENCH_*.json`` of a smaller number beside
it, also carries the labelled rows of ROADMAP.md's re-anchor tables under
``earlier``. The stamp's ``git_sha`` is the checked-out HEAD, and
``dirty`` tells whether the source measured was HEAD's: it is true when
the stamp's ``src_digest`` differs from the same digest over HEAD's
``src/avdtotal/*.py``, read with ``git show``, and null when git cannot
read HEAD.

Exits 1 unless every workload is correct with ``verified_frac`` 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from avdtotal import PipelineParams, chi_at_exact, parse_graph6, run_pipeline  # noqa: E402

WORKLOADS = ("dense_gnp", "sparse_cli", "hub_skewed", "exact_small")

# the re-anchor tables of ROADMAP.md, `benchmarks/run.py --seed 2001
# --seconds 8 --trace 0` on two cores: the figures at 98ce8cc are the
# bracketed ones of the Baseline table measured at 7a1d34e, which records no
# setup_s for them
REANCHOR_ROWS = [
    {"label": "re-anchor at 98ce8cc", "git_sha": "98ce8cc", "seed": 2001, "seconds": 8,
     "source": "ROADMAP.md Baseline table, bracketed figures",
     "workloads": {
         "dense_gnp": {"elements_per_s": 353100, "graph_s_max": 0.069,
                       "palette_growth": 113.3, "peak_rss_mb": 71},
         "sparse_cli": {"elements_per_s": 182700, "graph_s_max": 0.30,
                        "palette_growth": 41.0, "peak_rss_mb": 92},
         "hub_skewed": {"elements_per_s": 424800, "graph_s_max": 0.027,
                        "palette_growth": 58.7, "peak_rss_mb": 54},
         "exact_small": {"elements_per_s": 112700, "graph_s_max": 0.0016,
                         "palette_growth": 1.51, "peak_rss_mb": 40}}},
    {"label": "re-anchor at 7a1d34e", "git_sha": "7a1d34e", "seed": 2001, "seconds": 8,
     "source": "ROADMAP.md Baseline table; every run correct, verified_frac 1.0",
     "workloads": {
         "dense_gnp": {"elements_per_s": 424100, "graph_s_max": 0.058,
                       "palette_growth": 113.3, "peak_rss_mb": 65, "setup_s": 0.022,
                       "verified_frac": 1.0},
         "sparse_cli": {"elements_per_s": 273400, "graph_s_max": 0.20,
                        "palette_growth": 41.0, "peak_rss_mb": 92, "setup_s": 0.155,
                        "verified_frac": 1.0},
         "hub_skewed": {"elements_per_s": 484400, "graph_s_max": 0.024,
                        "palette_growth": 58.7, "peak_rss_mb": 53, "setup_s": 0.089,
                        "verified_frac": 1.0},
         "exact_small": {"elements_per_s": 135400, "graph_s_max": 0.0015,
                         "palette_growth": 1.51, "peak_rss_mb": 40, "setup_s": 0.003,
                         "verified_frac": 1.0}}},
]


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


def earlier_rows(number: int) -> list[dict]:
    """The re-anchor table rows when no ``BENCH_*.json`` with a smaller
    number exists, so that the first point carries them; else none, as the
    earlier points are their own files."""
    found = [int(m.group(1)) for path in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    return [] if any(other < number for other in found) else REANCHOR_ROWS


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
              "chi_excess": chi_excess(), "earlier": earlier_rows(args.number)}
    out = args.out or ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
