"""Command-line surface.

Subcommands: color, verify, distinguish-low, select-e1, select-e2,
edge-color, seed-color, exact, check-conjecture, bounds, bench.

Exit codes: 0 success, 1 verification or search failure, 2 usage, parse,
domain or I/O errors, a stdout closed by its reader, or running out of
memory. With --json all machine output is a single JSON value
per line on stdout, serialized as strict JSON (no NaN or Infinity) with
sorted keys and no timing fields, so reruns with the same inputs and seed
are byte-identical.

Each ``cmd_*`` handler computes its whole result first and returns it as
``(exit code, JSON records, text lines)``; ``main`` alone writes stdout,
the records under --json and the lines otherwise. An error therefore never
leaves partial output on stdout, only one ``error:`` line on stderr. A
record is a JSON value, or a string already encoded as one line, which
``main`` prints as it is: the commands that print a colouring encode it
with ``coloring._document_json``, and only under --json.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from .bounds import DomainError
from .coloring import (DocumentError, TotalColoring, _document_json, _emit, _proper,
                       _require_proper, from_document, verdict, violations)
from .exact import check_conjecture, chi_at_exact, chi_prime_exact, chi_total_exact
from .graphs import Graph, Graph6Error, _collector_paused, parse_dimacs, parse_graph6
from .highdeg import (PipelineParams, find_bulk_deletion, find_patch_deletion,
                      light_vertices)
from .lowdeg import distinguish_low_degree
from .pipeline import run_pipeline
from .seeding import greedy_total
from .vizing import vizing_color

Output = tuple[int, list, list[str]]  # exit code, JSON records, text lines


def _fraction(text: str) -> Fraction:
    """Fraction(text), with a zero denominator an argparse invalid value."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


_fraction.__name__ = "Fraction"  # argparse names the type in its message


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


def _params_from(args) -> PipelineParams:
    """PipelineParams from the flags given, each flag's dest named after its
    field; the fields without a flag given keep their defaults."""
    given = {f.name: getattr(args, f.name, None) for f in fields(PipelineParams)}
    return PipelineParams(**{k: v for k, v in given.items() if v is not None})


def _selection_json(g: Graph, result) -> dict:
    return {
        "edges": [list(g.edges[r]) for r in result.selection.rows],
        "per_vertex_count": list(result.selection.per_vertex_count),
        "success": result.success,
        "rounds": result.rounds,
        "violations": [{"kind": ev.kind, "witness": list(ev.witness)}
                       for ev in result.violations],
        "infeasible_vertex": result.infeasible_vertex,
        "forced": list(result.forced),
    }


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_color(args) -> Output:
    g = _load_graph(args)
    phi = _seed_document(args, g)  # run_pipeline checks it is proper
    colored, report = run_pipeline(g, phi, _params_from(args))
    # verified at exit
    records = ([_document_json(g, colored, report.verified, report.to_json())]
               if args.json else [])
    return 0, records, [
        f"graph: n={g.n} edges={len(g.edges)} max_degree={g.max_degree}",
        f"palette: input k={report.input_k}, final k={report.final_k} "
        f"(+{report.fresh_palette_size} fresh, +{report.fallback_repairs} repairs)",
        f"stage rounds: bulk={report.e1_rounds} patch={report.e2_rounds}; "
        f"success: bulk={report.e1_success} patch={report.e2_success}",
        f"verified: proper={report.verified['proper']} "
        f"avd={report.verified['avd']}"]


def cmd_verify(args) -> Output:
    g, phi = _load_document(args.infile)
    found = violations(g, phi)
    out = {
        "verified": {"proper": _proper(found), "avd": not found},
        "violations": [{"kind": v.kind, "witness": v.witness} for v in found],
        "k": phi.k,
        "n": g.n,
    }
    lines = [f"proper: {_proper(found)}  avd: {not found}",
             *(f"  {v.kind}: {v.witness}" for v in found)]
    return 0 if not found else 1, [out], lines


def cmd_distinguish_low(args) -> Output:
    g, phi = _load_document(args.infile)
    result = distinguish_low_degree(g, _require_proper(g, phi))
    verified = verdict(g, result)
    changed = sum(1 for a, b in zip(phi.vertex_colors, result.vertex_colors)
                  if a != b)
    records = [_document_json(g, result, verified)] if args.json else []
    return 0, records, [f"recoloured {changed} low-degree vertices; "
                        f"verified: {verified}"]


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


def cmd_select_e1(args) -> Output:
    g = _load_graph(args)
    phi = _seed_or_greedy(args, g)
    params = _params_from(args)
    resolved = params.resolve(g)
    result = find_bulk_deletion(g, phi, params)
    out = _selection_json(g, result)
    out.update({"lam": resolved.lam, "M": resolved.M, "p": resolved.p})
    return 0 if result.success else 1, [out], [
        f"bulk selection: {len(result.selection.rows)} edges, "
        f"success={result.success}, rounds={result.rounds}, "
        f"violations={len(result.violations)}"]


def cmd_select_e2(args) -> Output:
    g = _load_graph(args)
    phi = _seed_or_greedy(args, g)
    params = _params_from(args)
    bulk = find_bulk_deletion(g, phi, params)
    light = light_vertices(g, bulk.selection, params.m)
    patch = find_patch_deletion(g, phi, bulk.selection, light, params)
    out = {
        "bulk": _selection_json(g, bulk),
        "light": sorted(light),
        "patch": _selection_json(g, patch),
    }
    return 0 if patch.success else 1, [out], [
        f"bulk: {len(bulk.selection.rows)} edges success={bulk.success}; "
        f"light vertices: {len(light)}",
        f"patch: {len(patch.selection.rows)} edges, "
        f"success={patch.success}, rounds={patch.rounds}, "
        f"infeasible_vertex={patch.infeasible_vertex}"]


def cmd_edge_color(args) -> Output:
    g = _load_graph(args)
    ec = vizing_color(g)
    used = len(set(ec.colors.values()))
    out = {"edge_colors": [{"u": u, "v": v, "c": ec.colors[(u, v)]} for u, v in g.edges],
           "palette_bound": ec.k, "used": used}
    return 0, [out], [f"edge colouring with {used} colours (bound {ec.k})",
                      *(f"  ({u}, {v}) -> {ec.colors[(u, v)]}" for u, v in g.edges)]


def cmd_seed_color(args) -> Output:
    g = _load_graph(args)
    phi = greedy_total(g)
    verified = verdict(g, phi)
    records = [_document_json(g, phi, verified)] if args.json else []
    return 0, records, [f"greedy proper total colouring with k={phi.k} "
                        f"(bound {2 * g.max_degree + 1}); verified: {verified}"]


def cmd_exact(args) -> Output:
    g = _load_graph(args)
    fn = {"chi_at": chi_at_exact, "chi_total": chi_total_exact,
          "chi_prime": chi_prime_exact}[args.stat]
    value = fn(g)
    out = {"stat": args.stat, "value": value, "n": g.n,
           "edges": len(g.edges), "max_degree": g.max_degree}
    return 0, [out], [f"{args.stat} = {value}"]


def cmd_check_conjecture(args) -> Output:
    report = check_conjecture(_read_text(args.corpus).splitlines())
    records = [{"graph6": r.graph6, "n": r.n, "delta": r.delta,
                "chi_at": r.chi_at, "slack": r.slack} for r in report.records]
    records.append({
        "graphs": len(report.records),
        "violations": [r.graph6 for r in report.violations],
        "tight": [r.graph6 for r in report.tight],
    })
    lines = [f"{r.graph6}: n={r.n} delta={r.delta} chi_at={r.chi_at} "
             f"slack={r.slack}{' TIGHT' if r.slack == 0 else ''}"
             for r in report.records]
    lines.append(f"{len(report.records)} graphs, {len(report.violations)} violations, "
                 f"{len(report.tight)} tight")
    return 0 if not report.violations else 1, records, lines


def _finite_or_null(x):
    """x with, in dicts at any depth, every Fraction as its string and every
    non-finite float (a margin once delta overflows a float) as None."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, Fraction):
        return str(x)
    return None if isinstance(x, float) and not math.isfinite(x) else x


def cmd_bounds(args) -> Output:
    if args.cmd == "tail":
        for name in ("n", "p", "m"):
            if getattr(args, name) is None:
                raise DomainError(f"tail bound requires --{name}")
        tail_log = (bounds_mod.binom_upper_tail_log if args.tail == "upper"
                    else bounds_mod.binom_lower_tail_log)
        log_bound = tail_log(args.n, args.p, args.m)
        out = {"tail": args.tail, "n": args.n, "p": str(args.p), "m": args.m,
               "bound": math.exp(log_bound), "log_bound": log_bound}
        return 0, [out], [f"{args.tail} tail bound: {out['bound']:.12g} "
                          f"(log {log_bound:.6f})"]

    params = _params_from(args)
    m, d, eps = params.m, params.d, params.eps
    # lam and M do not depend on delta, which only constants reports
    delta = args.delta if args.cmd == "constants" and args.delta is not None else 1
    if not (float(delta).is_integer() and delta >= 1):
        raise DomainError(f"constants needs an integral --delta >= 1, got {delta}")
    derived = bounds_mod.derive_constants(m, d, eps, int(delta), params.lam, params.M)
    if args.cmd == "constants":
        out = {"lam": derived.lam, "M": derived.M, "p": derived.p,
               "m": m, "d": d, "eps": str(eps), "delta": int(delta)}
        return 0, [out], [f"lam={derived.lam:.6f} M={derived.M} p={derived.p:.6f}"]
    if params.M is None and derived.M ** 3 > sys.float_info.max:
        raise DomainError("M is too large: M**3 must be a finite float; without "
                          "--M, M = ceil(2e*lam) follows lam (--lambda, or m and eps)")
    if args.cmd == "c0":
        report = bounds_mod.compute_c0(m, eps, derived.lam, derived.M)
    elif args.search_lo is not None or args.search_hi is not None:
        if args.search_lo is None or args.search_hi is None:
            raise DomainError("searching requires both --search-lo and --search-hi")
        report = bounds_mod.find_feasible_delta(m, d, eps, derived.lam, derived.M,
                                                args.search_lo, args.search_hi)
    else:
        if args.delta is None and args.ln_delta is None:
            raise DomainError("lll requires --delta or --ln-delta (or a search range)")
        report = bounds_mod.lll_asymmetric_check(m, d, eps, derived.lam, derived.M,
                                                 delta=args.delta,
                                                 ln_delta=args.ln_delta)
    out = _finite_or_null({
        "inputs": report.inputs,
        "value": report.value,
        "log_value": report.log_value,
        "feasible": report.feasible,
        "notes": list(report.notes),
        "details": report.details,
    })
    return 0, [out], [f"feasible: {report.feasible}  value: {report.value}  "
                      f"log_value: {report.log_value}",
                      *(f"  note: {note}" for note in report.notes)]


def cmd_bench(args) -> Output:
    if args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    g = _load_graph(args)
    params = _params_from(args)
    if params.seed + args.runs > 2 ** 64:
        raise ValueError(f"--seed {params.seed} with --runs {args.runs} reaches seed "
                         f"{params.seed + args.runs - 1}, which does not fit in an "
                         f"unsigned 64-bit integer")
    fields = ("input_k", "final_k", "fresh_palette_size", "fallback_repairs",
              "e1_success", "e2_success", "e1_rounds", "e2_rounds")
    rows, lines = [], []
    for i in range(args.runs):
        # run_pipeline raises unless its result is proper and AVD
        _, report = run_pipeline(g, None, replace(params, seed=params.seed + i))
        rows.append({"seed": params.seed + i, "verified": True,
                     **{name: getattr(report, name) for name in fields}})
        lines.append(f"seed={params.seed + i} final_k={report.final_k} "
                     f"growth={report.final_k - report.input_k} "
                     f"bulk={report.e1_success} patch={report.e2_success} "
                     f"time={sum(report.phase_timings.values()):.3f}s")
    growth = [r["final_k"] - r["input_k"] for r in rows]
    summary = {
        "runs": args.runs,
        "all_verified": True,
        "e1_success_rate": sum(1 for r in rows if r["e1_success"]) / args.runs,
        "e2_success_rate": sum(1 for r in rows if r["e2_success"]) / args.runs,
        "mean_palette_growth": sum(growth) / args.runs,
        "max_palette_growth": max(growth),
    }
    lines.append(f"{args.runs} runs, all verified: True, "
                 f"mean growth {summary['mean_palette_growth']:.1f}")
    return 0, [*rows, summary], lines


# ---------------------------------------------------------------------------
# parser assembly

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, built on the first call and shared by later ones;
    parsing reads it and never changes it."""
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

    # the inputs of derive_constants, for bounds and the pipeline alike
    constants = argparse.ArgumentParser(add_help=False)
    constants.add_argument("--eps", type=_fraction, default=None)
    constants.add_argument("--m", type=int, default=None)
    constants.add_argument("--d", type=int, default=None)
    constants.add_argument("--lambda", dest="lam", type=float, default=None)
    constants.add_argument("--M", type=int, default=None)

    # the subcommands that take these flags are the randomized ones, so
    # they are the ones --seed applies to
    tunables = argparse.ArgumentParser(add_help=False, parents=[constants])
    tunables.set_defaults(seeded=True)
    tunables.add_argument("--alpha", type=_fraction, default=None)
    tunables.add_argument("--B", type=int, default=None)
    tunables.add_argument("--max-rounds", dest="max_rounds", type=int, default=None)
    tunables.add_argument("--stall-rounds", dest="stall_rounds", type=int, default=None)

    seeded_in = argparse.ArgumentParser(add_help=False)
    seeded_in.add_argument("--seed-coloring", default=None,
                           help="JSON colouring document to start from")

    def command(name, func, parents, help):
        p = sub.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(func=func)
        return p

    command("color", cmd_color, [graph_in, tunables, seeded_in],
            "run the full recolouring pipeline")
    command("verify", cmd_verify, [doc_in], "verify a colouring document")
    command("distinguish-low", cmd_distinguish_low, [doc_in],
            "run the deterministic low-degree phase")
    command("select-e1", cmd_select_e1, [graph_in, tunables, seeded_in],
            "run the bulk edge-deletion stage")
    command("select-e2", cmd_select_e2, [graph_in, tunables, seeded_in],
            "run both deletion stages, report the patch stage")
    command("edge-color", cmd_edge_color, [graph_in],
            "proper edge colouring with at most max_degree+1 colours")
    command("seed-color", cmd_seed_color, [graph_in], "greedy proper total colouring")
    p = command("exact", cmd_exact, [graph_in],
                "exact chromatic statistics on small graphs")
    p.add_argument("--stat", choices=("chi_at", "chi_total", "chi_prime"),
                   required=True)
    p = command("check-conjecture", cmd_check_conjecture, [],
                "scan a graph6 corpus for chi_at <= max_degree + 3")
    p.add_argument("--corpus", required=True, help="file of graph6 lines")

    p = command("bounds", cmd_bounds, [constants],
                "evaluate tail bounds and local-lemma conditions")
    p.add_argument("--cmd", choices=("tail", "constants", "c0", "lll"),
                   required=True)
    p.add_argument("--tail", choices=("upper", "lower"), default="upper")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=_fraction, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--ln-delta", dest="ln_delta", type=float, default=None)
    p.add_argument("--search-lo", dest="search_lo", type=float, default=None)
    p.add_argument("--search-hi", dest="search_hi", type=float, default=None)

    p = command("bench", cmd_bench, [graph_in, tunables],
                "repeated pipeline runs with consecutive seeds")
    p.add_argument("--runs", type=int, default=5)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0, a usage error 2
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "cmd_name", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.seed is not None and not getattr(args, "seeded", False):
        print(f"warning: --seed has no effect for {args.cmd_name}", file=sys.stderr)
        args.seed = None
    try:
        with _collector_paused():
            code, records, lines = args.func(args)
            if args.json:
                lines = [record if isinstance(record, str) else _emit(record)
                         for record in records]
        for line in lines:
            print(line)
        sys.stdout.flush()
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # nobody reads stdout: send what is still buffered to devnull, so
            # the interpreter's flush at exit neither fails nor reports
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    sys.exit(main())
