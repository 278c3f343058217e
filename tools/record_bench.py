"""Record the benchmark's end-to-end metrics as one point of the BENCH trajectory.

    python3 tools/record_bench.py --number N [--seed 2001] [--seconds 8] [--out FILE]

Runs ``benchmarks/run.py --trace 0`` on each of the four workloads, one
process each, and writes ``BENCH_<N>.json`` at the repository root (or
FILE). The file holds run.py's version stamp, and for each workload its
``correct`` flag, the six end-to-end metrics of BENCHMARK.json and the
output digests. The first point of the trajectory, the one with no
``BENCH_*.json`` of a smaller number beside it, also carries the labelled
rows of ROADMAP.md's re-anchor tables under ``earlier``. The stamp's
``git_sha`` is the checked-out HEAD, so uncommitted source is told apart
by ``src_digest``.

Exits 1 unless every workload is correct with ``verified_frac`` 1.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
              "stamp": stamp, "workloads": runs, "earlier": earlier_rows(args.number)}
    out = args.out or ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
