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
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from types import SimpleNamespace

from .coloring import TotalColoring, _checked, _proper, _with_stars, violations
from .graphs import Edge, Graph, normalize_edge
from .highdeg import (PipelineParams, find_bulk_deletion,
                      find_patch_deletion, light_vertices)
from .lowdeg import distinguish_low_degree
from .seeding import greedy_total
from .vizing import vizing_color

# a deletion stage as the report records it when the stage never ran
_NOT_RUN = SimpleNamespace(rounds=0, success=None, infeasible_vertex=None)


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
    edge at its first endpoint (or at its second, when the first has no
    other edge) with a colour nobody else holds. That fixes the pair for
    good and makes no new equal pair: a colour set containing a globally
    fresh colour can only collide with the other endpoint of the
    recoloured edge, and that pair's status never changes. So the scan
    repairs, in order, the pairs a rescan after every repair would find
    first. phi must be a proper total colouring of g; then no equal pair
    has two endpoints of degree one, as their vertex colours differ.

    The scan updates a copy of ``phi.stars``, two bits per repair, which
    the result carries. The result is not verified here; ``run_pipeline``
    verifies what the phases return.
    """
    masks = list(phi.stars)
    recoloured: dict[Edge, int] = {}
    k = phi.k
    for u, v in g.edges:
        if masks[u] != masks[v]:
            continue
        k += 1
        # an improper input may isolate the pair; recolouring uv itself then
        # leaves it equal, for the caller's verifier to report
        end, other = next(((x, w) for x, y in ((u, v), (v, u))
                           for w in g.adjacency[x] if w != y), (u, v))
        edge = normalize_edge(end, other)
        flip = 1 << recoloured.get(edge, phi.edge_colors[edge]) | 1 << k
        masks[end] ^= flip
        masks[other] ^= flip
        recoloured[edge] = k
    if k == phi.k:
        return phi
    return _with_stars(masks, phi.vertex_colors, {**phi.edge_colors, **recoloured}, k)


def run_pipeline(g: Graph, phi: TotalColoring | None = None,
                 params: PipelineParams | None = None
                 ) -> tuple[TotalColoring, PipelineReport]:
    """Produce a distinguishing proper total colouring of g, with a report.

    The seed, supplied or greedy, gets one verifier pass here, with its
    closed stars built afresh, never read from ``phi.stars``. It must be
    proper total, and if it is already distinguishing it is returned
    unchanged with that pass as its verdict. Otherwise the phases run on a
    copy carrying those masks as its ``stars``, and each phase hands its
    result the masks it has kept current. The phases trust their input;
    their result gets one fresh, full ``violations`` pass on the way out,
    and RuntimeError names its first violation unless it is proper and AVD.
    """
    params = params or PipelineParams()
    timings: dict[str, float] = {}

    @contextmanager
    def timed(phase: str):
        start = time.perf_counter()
        yield
        timings[phase] = time.perf_counter() - start

    with timed("seed"):
        if phi is None:
            phi = greedy_total(g)
    with timed("verify_input"):
        found, checked = _checked(g, phi)
    if not _proper(found):
        raise ValueError(f"seed colouring must be proper: "
                         f"{found[0].kind} at {found[0].witness}")
    resolved = params.resolve(g)
    out = recolored = lowered = phi
    bulk = patch = _NOT_RUN
    if found:
        with timed("bulk"):
            bulk = find_bulk_deletion(g, checked, params)
        with timed("patch"):
            light = light_vertices(g, bulk.selection, params.m)
            patch = find_patch_deletion(g, checked, bulk.selection, light, params)
        with timed("recolor"):
            recolored = recolor_union(g, checked, bulk.selection.edges,
                                      patch.selection.edges)
        with timed("low_degree"):
            lowered = distinguish_low_degree(g, recolored)
        with timed("repair"):
            out = repair_fallback(g, lowered)
        # the one full pass after the phases, which the guarantee rests on
        left = violations(g, out)
        if left:
            raise RuntimeError(f"pipeline output is not a proper AVD colouring: "
                               f"{left[0].kind} at {left[0].witness}")

    return out, PipelineReport(
        input_k=phi.k, e1_rounds=bulk.rounds, e2_rounds=patch.rounds,
        e1_success=bulk.success, e2_success=patch.success,
        e2_infeasible_vertex=patch.infeasible_vertex,
        fresh_palette_size=recolored.k - phi.k,
        fallback_repairs=out.k - lowered.k, final_k=out.k,
        lam=resolved.lam, M=resolved.M, p=resolved.p,
        short_circuit=not found, verified={"proper": True, "avd": True},
        phase_timings=timings)
