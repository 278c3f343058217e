"""Command-line surface.

Subcommands: color, verify, distinguish-low, select-e1, select-e2,
edge-color, seed-color, exact, check-conjecture, bounds, bench.

Exit codes: 0 success, 1 verification or search failure, 2 usage, parse,
or domain errors. With --json all machine output is a single JSON value
per line on stdout, serialized with sorted keys and no timing fields, so
reruns with the same inputs and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .bounds import DomainError, derive_constants
from .coloring import (DocumentError, TotalColoring, _document_body, _proper,
                       from_document, to_document, violations)
from .exact import (CapacityError, check_conjecture, chi_at_exact,
                    chi_prime_exact, chi_total_exact)
from .graphs import DimacsError, Graph, Graph6Error, parse_dimacs, parse_graph6
from .highdeg import (PipelineParams, find_bulk_deletion, find_patch_deletion,
                      light_vertices)
from .lowdeg import distinguish_low_degree
from .pipeline import run_pipeline
from .seeding import greedy_total
from .vizing import vizing_color

SEEDED_COMMANDS = {"color", "select-e1", "select-e2", "bench"}


_SCALARS = (Fraction, np.integer, np.floating)


def _json_default(x):
    """What json cannot encode itself: Fraction as str, numpy scalars as
    numbers, sets as lists sorted once their members are converted."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, (set, frozenset)):
        return sorted(_json_default(v) if isinstance(v, _SCALARS) else v for v in x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, default=_json_default))


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_graph(args) -> Graph:
    text = _read_text(args.infile)
    if args.format == "dimacs":
        return parse_dimacs(text)
    for line in text.splitlines():
        if line.strip():
            return parse_graph6(line.strip())
    raise Graph6Error("no graph6 line found in input", 0)


def _load_document(path: str | None):
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    return from_document(doc)


def _require_proper(g: Graph, phi: TotalColoring) -> TotalColoring:
    """Reject an improper colouring document before a phase that trusts it."""
    found = violations(g, phi)
    if not _proper(found):
        raise DocumentError(f"colouring document is not proper: "
                            f"{found[0].kind} at {found[0].witness}")
    return phi


def _params_from(args) -> PipelineParams:
    kwargs = {"seed": args.seed if args.seed is not None else 0}
    for name in ("eps", "alpha", "m", "d", "B", "lam", "M", "max_rounds",
                 "stall_rounds"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    return PipelineParams(**kwargs)


def _selection_json(result) -> dict:
    return {
        "edges": [list(e) for e in sorted(result.selection.edges)],
        "per_vertex_count": list(result.selection.per_vertex_count),
        "success": result.success,
        "rounds": result.rounds,
        "violations": [{"kind": ev.kind, "witness": list(ev.witness)}
                       for ev in result.violations],
        "infeasible_vertex": result.infeasible_vertex,
    }


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_color(args) -> int:
    g = _load_graph(args)
    phi = _seed_document(args, g)  # run_pipeline checks it is proper
    colored, report = run_pipeline(g, phi, _params_from(args))
    doc = _document_body(g, colored, report.verified)  # verified at exit
    doc["report"] = report.to_json()
    if args.json:
        _emit(doc)
    else:
        print(f"graph: n={g.n} edges={len(g.edges)} max_degree={g.max_degree}")
        print(f"palette: input k={report.input_k}, final k={report.final_k} "
              f"(+{report.fresh_palette_size} fresh, +{report.fallback_repairs} repairs)")
        print(f"stage rounds: bulk={report.e1_rounds} patch={report.e2_rounds}; "
              f"success: bulk={report.e1_success} patch={report.e2_success}")
        print(f"verified: proper={report.verified['proper']} "
              f"avd={report.verified['avd']}")
    return 0


def cmd_verify(args) -> int:
    g, phi = _load_document(args.infile)
    found = violations(g, phi)
    out = {
        "verified": {"proper": _proper(found), "avd": not found},
        "violations": [{"kind": v.kind, "witness": v.witness} for v in found],
        "k": phi.k,
        "n": g.n,
    }
    if args.json:
        _emit(out)
    else:
        print(f"proper: {_proper(found)}  avd: {not found}")
        for v in found:
            print(f"  {v.kind}: {v.witness}")
    return 0 if not found else 1


def cmd_distinguish_low(args) -> int:
    g, phi = _load_document(args.infile)
    result = distinguish_low_degree(g, _require_proper(g, phi))
    doc = to_document(g, result)
    if args.json:
        _emit(doc)
    else:
        changed = sum(1 for a, b in zip(phi.vertex_colors, result.vertex_colors)
                      if a != b)
        print(f"recoloured {changed} low-degree vertices; "
              f"verified: {doc['verified']}")
    return 0


def _seed_document(args, g: Graph) -> TotalColoring | None:
    """The colouring in --seed-coloring, or None without that option."""
    if not args.seed_coloring:
        return None
    g_doc, phi = _load_document(args.seed_coloring)
    if g_doc != g:
        raise DocumentError("seed colouring document does not match the input graph")
    return phi


def _seed_or_greedy(args, g: Graph) -> TotalColoring:
    """A proper starting colouring: the checked seed document's, else greedy."""
    phi = _seed_document(args, g)
    return greedy_total(g) if phi is None else _require_proper(g, phi)


def cmd_select_e1(args) -> int:
    g = _load_graph(args)
    phi = _seed_or_greedy(args, g)
    params = _params_from(args)
    resolved = params.resolve(g)
    result = find_bulk_deletion(g, phi, params)
    out = _selection_json(result)
    out.update({"lam": resolved.lam, "M": resolved.M, "p": resolved.p})
    if args.json:
        _emit(out)
    else:
        print(f"bulk selection: {len(result.selection.edges)} edges, "
              f"success={result.success}, rounds={result.rounds}, "
              f"violations={len(result.violations)}")
    return 0 if result.success else 1


def cmd_select_e2(args) -> int:
    g = _load_graph(args)
    phi = _seed_or_greedy(args, g)
    params = _params_from(args)
    bulk = find_bulk_deletion(g, phi, params)
    light = light_vertices(g, bulk.selection, params.m)
    patch = find_patch_deletion(g, phi, bulk.selection, light, params)
    out = {
        "bulk": _selection_json(bulk),
        "light": sorted(light),
        "patch": _selection_json(patch),
    }
    if args.json:
        _emit(out)
    else:
        print(f"bulk: {len(bulk.selection.edges)} edges success={bulk.success}; "
              f"light vertices: {len(light)}")
        print(f"patch: {len(patch.selection.edges)} edges, "
              f"success={patch.success}, rounds={patch.rounds}, "
              f"infeasible_vertex={patch.infeasible_vertex}")
    return 0 if patch.success else 1


def cmd_edge_color(args) -> int:
    g = _load_graph(args)
    ec = vizing_color(g)
    out = {
        "edge_colors": [{"u": u, "v": v, "c": ec.colors[(u, v)]} for u, v in g.edges],
        "palette_bound": ec.k,
        "used": len(ec.used_colors()),
    }
    if args.json:
        _emit(out)
    else:
        print(f"edge colouring with {out['used']} colours (bound {ec.k})")
        for rec in out["edge_colors"]:
            print(f"  ({rec['u']}, {rec['v']}) -> {rec['c']}")
    return 0


def cmd_seed_color(args) -> int:
    g = _load_graph(args)
    phi = greedy_total(g)
    doc = to_document(g, phi)
    if args.json:
        _emit(doc)
    else:
        print(f"greedy proper total colouring with k={phi.k} "
              f"(bound {2 * g.max_degree + 1}); verified: {doc['verified']}")
    return 0


def cmd_exact(args) -> int:
    g = _load_graph(args)
    fn = {"chi_at": chi_at_exact, "chi_total": chi_total_exact,
          "chi_prime": chi_prime_exact}[args.stat]
    value = fn(g)
    out = {"stat": args.stat, "value": value, "n": g.n,
           "edges": len(g.edges), "max_degree": g.max_degree}
    if args.json:
        _emit(out)
    else:
        print(f"{args.stat} = {value}")
    return 0


def cmd_check_conjecture(args) -> int:
    lines = _read_text(args.corpus).splitlines()
    report = check_conjecture(lines)
    if args.json:
        for r in report.records:
            _emit({"graph6": r.graph6, "n": r.n, "delta": r.delta,
                         "chi_at": r.chi_at, "slack": r.slack})
        _emit({
            "graphs": len(report.records),
            "violations": [r.graph6 for r in report.violations],
            "tight": [r.graph6 for r in report.tight],
        })
    else:
        for r in report.records:
            marker = " TIGHT" if r.slack == 0 else ""
            print(f"{r.graph6}: n={r.n} delta={r.delta} chi_at={r.chi_at} "
                  f"slack={r.slack}{marker}")
        print(f"{len(report.records)} graphs, {len(report.violations)} violations, "
              f"{len(report.tight)} tight")
    return 0 if not report.violations else 1


def cmd_bounds(args) -> int:
    if args.cmd == "tail":
        for name in ("n", "p", "m"):
            if getattr(args, name) is None:
                raise DomainError(f"tail bound requires --{name}")
        if args.tail == "upper":
            log_bound = bounds_mod.binom_upper_tail_log(args.n, args.p, args.m)
        else:
            log_bound = bounds_mod.binom_lower_tail_log(args.n, args.p, args.m)
        out = {"tail": args.tail, "n": args.n, "p": str(args.p), "m": args.m,
               "bound": math.exp(log_bound), "log_bound": log_bound}
        if args.json:
            _emit(out)
        else:
            print(f"{args.tail} tail bound: {out['bound']:.12g} "
                  f"(log {log_bound:.6f})")
        return 0

    eps = args.eps if args.eps is not None else Fraction(1, 3)
    m = args.m if args.m is not None else 8
    d = args.d if args.d is not None else 4

    if args.cmd == "constants":
        delta = args.delta if args.delta is not None else 1
        if not float(delta).is_integer():
            raise DomainError(f"constants needs an integral --delta, got {delta}")
        derived = derive_constants(m, d, eps, int(delta))
        out = {"lam": derived.lam, "M": derived.M, "p": derived.p,
               "m": m, "d": d, "eps": str(eps), "delta": int(delta)}
        if args.json:
            _emit(out)
        else:
            print(f"lam={derived.lam:.6f} M={derived.M} p={derived.p:.6f}")
        return 0

    lam = args.lam
    big_m = args.M
    if lam is None or big_m is None:
        derived = derive_constants(m, d, eps, 1)
        lam = lam if lam is not None else derived.lam
        big_m = big_m if big_m is not None else derived.M

    if args.cmd == "c0":
        report = bounds_mod.compute_c0(m, eps, lam, big_m)
    elif args.search_lo is not None or args.search_hi is not None:
        if args.search_lo is None or args.search_hi is None:
            raise DomainError("searching requires both --search-lo and --search-hi")
        report = bounds_mod.find_feasible_delta(m, d, eps, lam, big_m,
                                                args.search_lo, args.search_hi)
    else:
        if args.delta is None and args.ln_delta is None:
            raise DomainError("lll requires --delta or --ln-delta (or a search range)")
        report = bounds_mod.lll_asymmetric_check(m, d, eps, lam, big_m,
                                                 delta=args.delta,
                                                 ln_delta=args.ln_delta)
    out = {
        "inputs": report.inputs,
        "value": report.value,
        "log_value": report.log_value,
        "feasible": report.feasible,
        "notes": list(report.notes),
        "details": report.details,
    }
    if args.json:
        _emit(out)
    else:
        print(f"feasible: {report.feasible}  value: {report.value}  "
              f"log_value: {report.log_value}")
        for note in report.notes:
            print(f"  note: {note}")
    return 0


def cmd_bench(args) -> int:
    if args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    g = _load_graph(args)
    params = _params_from(args)
    rows = []
    all_ok = True
    for i in range(args.runs):
        _, report = run_pipeline(g, None, replace(params, seed=params.seed + i))
        ok = report.verified["proper"] and report.verified["avd"]
        all_ok = all_ok and ok
        rows.append({
            "seed": params.seed + i,
            "input_k": report.input_k,
            "final_k": report.final_k,
            "fresh_palette_size": report.fresh_palette_size,
            "fallback_repairs": report.fallback_repairs,
            "e1_success": report.e1_success,
            "e2_success": report.e2_success,
            "e1_rounds": report.e1_rounds,
            "e2_rounds": report.e2_rounds,
            "verified": ok,
            "wall_seconds": sum(report.phase_timings.values()),
        })
    growth = [r["final_k"] - r["input_k"] for r in rows]
    summary = {
        "runs": args.runs,
        "all_verified": all_ok,
        "e1_success_rate": sum(1 for r in rows if r["e1_success"]) / args.runs,
        "e2_success_rate": sum(1 for r in rows if r["e2_success"]) / args.runs,
        "mean_palette_growth": sum(growth) / args.runs,
        "max_palette_growth": max(growth),
    }
    if args.json:
        for row in rows:
            trimmed = {k: v for k, v in row.items() if k != "wall_seconds"}
            _emit(trimmed)
        _emit(summary)
    else:
        for row in rows:
            print(f"seed={row['seed']} final_k={row['final_k']} "
                  f"growth={row['final_k'] - row['input_k']} "
                  f"bulk={row['e1_success']} patch={row['e2_success']} "
                  f"time={row['wall_seconds']:.3f}s")
        print(f"{args.runs} runs, all verified: {all_ok}, "
              f"mean growth {summary['mean_palette_growth']:.1f}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avdtotal",
        description="Construct, verify, and exactly compute "
                    "adjacent-vertex-distinguishing total colourings.")
    sub = parser.add_subparsers(dest="cmd_name")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON on stdout")
    common.add_argument("--seed", type=int, default=None,
                        help="unsigned 64-bit seed for randomized phases")

    graph_in = argparse.ArgumentParser(add_help=False)
    graph_in.add_argument("--in", dest="infile", default=None,
                          help="input file (default: stdin)")
    graph_in.add_argument("--format", choices=("graph6", "dimacs"),
                          default="graph6", help="graph input format")

    doc_in = argparse.ArgumentParser(add_help=False)
    doc_in.add_argument("--in", dest="infile", default=None,
                        help="colouring document JSON (default: stdin)")

    tunables = argparse.ArgumentParser(add_help=False)
    tunables.add_argument("--eps", type=Fraction, default=None)
    tunables.add_argument("--m", type=int, default=None)
    tunables.add_argument("--d", type=int, default=None)
    tunables.add_argument("--alpha", type=Fraction, default=None)
    tunables.add_argument("--B", type=int, default=None)
    tunables.add_argument("--lambda", dest="lam", type=float, default=None)
    tunables.add_argument("--M", type=int, default=None)
    tunables.add_argument("--max-rounds", dest="max_rounds", type=int, default=None)
    tunables.add_argument("--stall-rounds", dest="stall_rounds", type=int, default=None)

    p = sub.add_parser("color", parents=[common, graph_in, tunables],
                       help="run the full recolouring pipeline")
    p.add_argument("--seed-coloring", default=None,
                   help="JSON colouring document to start from")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", parents=[common, doc_in],
                       help="verify a colouring document")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("distinguish-low", parents=[common, doc_in],
                       help="run the deterministic low-degree phase")
    p.set_defaults(func=cmd_distinguish_low)

    p = sub.add_parser("select-e1", parents=[common, graph_in, tunables],
                       help="run the bulk edge-deletion stage")
    p.add_argument("--seed-coloring", default=None)
    p.set_defaults(func=cmd_select_e1)

    p = sub.add_parser("select-e2", parents=[common, graph_in, tunables],
                       help="run both deletion stages, report the patch stage")
    p.add_argument("--seed-coloring", default=None)
    p.set_defaults(func=cmd_select_e2)

    p = sub.add_parser("edge-color", parents=[common, graph_in],
                       help="proper edge colouring with at most max_degree+1 colours")
    p.set_defaults(func=cmd_edge_color)

    p = sub.add_parser("seed-color", parents=[common, graph_in],
                       help="greedy proper total colouring")
    p.set_defaults(func=cmd_seed_color)

    p = sub.add_parser("exact", parents=[common, graph_in],
                       help="exact chromatic statistics on small graphs")
    p.add_argument("--stat", choices=("chi_at", "chi_total", "chi_prime"),
                   required=True)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("check-conjecture", parents=[common],
                       help="scan a graph6 corpus for chi_at <= max_degree + 3")
    p.add_argument("--corpus", required=True, help="file of graph6 lines")
    p.set_defaults(func=cmd_check_conjecture)

    p = sub.add_parser("bounds", parents=[common],
                       help="evaluate tail bounds and local-lemma conditions")
    p.add_argument("--cmd", choices=("tail", "constants", "c0", "lll"),
                   required=True)
    p.add_argument("--tail", choices=("upper", "lower"), default="upper")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=Fraction, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--eps", type=Fraction, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--ln-delta", dest="ln_delta", type=float, default=None)
    p.add_argument("--search-lo", dest="search_lo", type=float, default=None)
    p.add_argument("--search-hi", dest="search_hi", type=float, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("bench", parents=[common, graph_in, tunables],
                       help="repeated pipeline runs with consecutive seeds")
    p.add_argument("--runs", type=int, default=5)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "cmd_name", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.seed is not None and args.cmd_name not in SEEDED_COMMANDS:
        print(f"warning: --seed has no effect for {args.cmd_name}", file=sys.stderr)
    try:
        return args.func(args)
    except (Graph6Error, DimacsError, DocumentError, DomainError,
            CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
