"""End-to-end construction of distinguishing proper total colourings.

Order of phases: seed (or adopt) a proper total colouring, run both
randomized deletion stages, recolour the union of deleted edges with a
fresh disjoint palette, recolour low-degree vertices deterministically,
then repair any surviving undistinguished pair with one brand-new colour
each. The repair step makes the distinguishing guarantee unconditional;
palette accounting in the report is exact by construction.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from .coloring import (TotalColoring, _closed_stars, _judge, _proper,
                       _with_stars, check_total, violations)
from .graphs import Edge, Graph, normalize_edge
from .highdeg import (PipelineParams, find_bulk_deletion,
                      find_patch_deletion, light_vertices)
from .lowdeg import distinguish_low_degree
from .seeding import greedy_total
from .vizing import vizing_color


class RepairError(RuntimeError):
    """The repaired colouring fails the verifier; indicates a defect."""


def _exit_check(g: Graph, phi: TotalColoring) -> dict[str, bool]:
    """Verdict on a pipeline result; RuntimeError names its first violation
    unless it is proper and AVD. The phases trust their input, so this pass
    is what stands behind the guarantee."""
    found = violations(g, phi)
    if found:
        raise RuntimeError(f"pipeline output is not a proper AVD colouring: "
                           f"{found[0].kind} at {found[0].witness}")
    return {"proper": True, "avd": True}


@dataclass(frozen=True)
class PipelineReport:
    """Phase-by-phase record of one run.

    final_k - input_k always equals fresh_palette_size + fallback_repairs.
    The success flags are None when the stage never ran (short-circuit).
    """

    input_k: int
    e1_rounds: int
    e2_rounds: int
    e1_success: bool | None
    e2_success: bool | None
    e2_infeasible_vertex: int | None
    fresh_palette_size: int
    fallback_repairs: int
    final_k: int
    lam: float
    M: int
    p: float
    short_circuit: bool
    verified: dict
    phase_timings: dict

    def to_json(self) -> dict:
        """Every field but the wall-clock ``phase_timings``, in field order."""
        out = asdict(self)
        del out["phase_timings"]
        return out


def recolor_union(g: Graph, phi: TotalColoring, bulk_edges,
                  patch_edges) -> TotalColoring:
    """Recolour the selected edges with a fresh palette above phi's budget.

    The selected union is recoloured as its own subgraph with at most
    max_degree(union) + 1 new colours, so the budget grows by at most that
    much and the result stays proper: fresh colours clash with nothing old,
    and clashes within the union are excluded by edge-properness there.
    phi must be a proper total colouring of g. A selected edge outside g
    raises ValueError naming the smallest such edge.

    The result's ``stars`` are a copy of ``phi.stars`` with the old and new
    colour bits of each union edge swapped at both ends.
    """
    chosen = {normalize_edge(u, v) for u, v in bulk_edges}
    chosen.update(normalize_edge(u, v) for u, v in patch_edges)
    stray = chosen - g.edge_set
    if stray:
        raise ValueError(f"selected edge {min(stray)} is not in the graph")
    if not chosen:
        return phi
    # g.edges is sorted, so the union comes out sorted too
    union = [e for e in g.edges if e in chosen]
    sub_colors = vizing_color(Graph.build(g.n, union)).colors
    fresh = {e: phi.k + c for e, c in sub_colors.items()}
    k = phi.k + max(sub_colors.values())
    # phi is proper and the new colours are above its palette, so each old
    # bit is set once at each end and each new bit not at all; the bits are
    # shifted once per colour, not twice per edge
    stars = list(phi.stars)
    bits = [1 << c for c in range(k + 1)]
    for (u, v), c in fresh.items():
        flip = bits[phi.edge_colors[(u, v)]] | bits[c]
        stars[u] ^= flip
        stars[v] ^= flip
    return _with_stars(stars, phi.vertex_colors, {**phi.edge_colors, **fresh}, k)


def repair_fallback(g: Graph, phi: TotalColoring) -> TotalColoring:
    """Force the distinguishing property with one brand-new colour per pair.

    One scan of the edges in order: each undistinguished pair recolours one
    edge at its first endpoint (or the endpoint vertex itself when both
    endpoints have degree one) with a colour nobody else holds. That fixes
    the pair for good and makes no new equal pair: a colour set containing
    a globally fresh colour can only collide with the other endpoint of the
    recoloured edge, and that pair's status never changes. So the scan
    repairs, in order, the pairs a rescan after every repair would find
    first. phi must be a proper total colouring of g.

    The scan updates a copy of ``phi.stars``, two bits per repair, which
    the result carries. A repaired result gets its own full ``violations``
    pass, and RepairError names its first violation.
    """
    masks = list(phi.stars)
    vertex_colors = list(phi.vertex_colors)
    recoloured: dict[Edge, int] = {}
    k = phi.k
    for u, v in g.edges:
        if masks[u] != masks[v]:
            continue
        k += 1
        end, other = next(((x, w) for x, y in ((u, v), (v, u))
                           for w in g.adjacency[x] if w != y), (u, None))
        if other is None:
            # both endpoints have degree one; unreachable for proper inputs
            # since their colour sets then differ in the vertex colours
            masks[u] ^= 1 << vertex_colors[u] | 1 << k
            vertex_colors[u] = k
            continue
        edge = normalize_edge(end, other)
        flip = 1 << recoloured.get(edge, phi.edge_colors[edge]) | 1 << k
        masks[end] ^= flip
        masks[other] ^= flip
        recoloured[edge] = k
    if k == phi.k:
        return phi
    out = _with_stars(masks, tuple(vertex_colors), {**phi.edge_colors, **recoloured}, k)
    found = violations(g, out)
    if found:
        raise RepairError(f"violations persist after {k - phi.k} repairs: "
                          f"{found[0].kind} at {found[0].witness}")
    return out


def run_pipeline(g: Graph, phi: TotalColoring | None = None,
                 params: PipelineParams | None = None
                 ) -> tuple[TotalColoring, PipelineReport]:
    """Produce a distinguishing proper total colouring of g, with a report.

    The seed, supplied or greedy, gets one verifier pass here: after
    ``check_total``, its closed stars are built afresh, never read from
    ``phi.stars``, and judged as ``violations`` would judge them. It must
    be proper total, and if it is already distinguishing it is returned
    unchanged with that pass as its verdict. Otherwise a copy of it carries
    those masks as its ``stars``, and each phase hands its result the masks
    it has kept current. The phases trust their input; the result gets a
    fresh, full ``violations`` pass on the way out (see ``_exit_check``).
    """
    params = params or PipelineParams()
    timings: dict[str, float] = {}

    start = time.perf_counter()
    if phi is None:
        phi = greedy_total(g)
    timings["seed"] = time.perf_counter() - start

    start = time.perf_counter()
    check_total(g, phi)
    stars = _closed_stars(phi)
    found = _judge(g, phi, stars)
    timings["verify_input"] = time.perf_counter() - start
    if not _proper(found):
        raise ValueError(f"seed colouring must be proper: "
                         f"{found[0].kind} at {found[0].witness}")
    input_k = phi.k
    resolved = params.resolve(g)
    if not found:
        report = PipelineReport(
            input_k=input_k, e1_rounds=0, e2_rounds=0,
            e1_success=None, e2_success=None, e2_infeasible_vertex=None,
            fresh_palette_size=0, fallback_repairs=0, final_k=input_k,
            lam=resolved.lam, M=resolved.M, p=resolved.p,
            short_circuit=True, verified={"proper": True, "avd": True},
            phase_timings=timings)
        return phi, report
    phi = _with_stars(stars, phi.vertex_colors, phi.edge_colors, phi.k)

    start = time.perf_counter()
    bulk = find_bulk_deletion(g, phi, params)
    timings["bulk"] = time.perf_counter() - start

    start = time.perf_counter()
    light = light_vertices(g, bulk.selection, params.m)
    patch = find_patch_deletion(g, phi, bulk.selection, light, params)
    timings["patch"] = time.perf_counter() - start

    start = time.perf_counter()
    recolored = recolor_union(g, phi, bulk.selection.edges, patch.selection.edges)
    fresh = recolored.k - input_k
    timings["recolor"] = time.perf_counter() - start

    start = time.perf_counter()
    lowered = distinguish_low_degree(g, recolored)
    timings["low_degree"] = time.perf_counter() - start

    start = time.perf_counter()
    repaired = repair_fallback(g, lowered)
    repairs = repaired.k - lowered.k
    timings["repair"] = time.perf_counter() - start

    report = PipelineReport(
        input_k=input_k, e1_rounds=bulk.rounds, e2_rounds=patch.rounds,
        e1_success=bulk.success, e2_success=patch.success,
        e2_infeasible_vertex=patch.infeasible_vertex,
        fresh_palette_size=fresh, fallback_repairs=repairs,
        final_k=repaired.k, lam=resolved.lam, M=resolved.M, p=resolved.p,
        short_circuit=False, verified=_exit_check(g, repaired),
        phase_timings=timings)
    return repaired, report
