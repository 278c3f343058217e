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

import numpy as np

from .coloring import (TotalColoring, _collector_paused, _equal_mask_rows,
                       _mark_accepted, _require_proper, _with_stars, violations)
from .graphs import Graph, _edge_rows, normalize_edge
from .highdeg import (EdgeSelection, PipelineParams, _require_on,
                      find_bulk_deletion, find_patch_deletion, light_vertices)
from .lowdeg import distinguish_low_degree
from .seeding import greedy_total
from .vizing import _color_edges

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


def recolor_union(g: Graph, phi: TotalColoring, bulk: EdgeSelection,
                  patch: EdgeSelection) -> TotalColoring:
    """Recolour the selected edges with a fresh palette above phi's budget.

    The selected union is recoloured as its own subgraph with at most
    max_degree(union) + 1 new colours, so the budget grows by at most that
    much and the result stays proper: fresh colours clash with nothing old,
    and clashes within the union are excluded by edge-properness there.
    phi must be a proper total colouring of g.

    bulk and patch must each be an EdgeSelection made on a graph equal to
    g, else ValueError; pairs become one through
    ``EdgeSelection.from_edges(g, pairs)``, and its constructor has checked
    its rows. The union is a mask over the selections' rows of ``g.edges``,
    so it is sorted, and goes to the edge colourer as a list with its
    maximum degree, counted over the matching rows of ``g._ends``; no Graph
    of it is built. The colourer's list gives item i to the union's edge i,
    so one loop over the rows, the union and that list writes the fresh
    colours into a list copy of ``phi.edge_colors`` and swaps the old and
    new colour bits of each union edge at both ends in a copy of
    ``phi.stars``; the result carries both.
    """
    inside = np.zeros(len(g.edges), dtype=bool)
    for selection in (bulk, patch):
        _require_on(g, selection)
        inside[np.fromiter(selection.rows, dtype=np.int64, count=len(selection.rows))] = True
    rows = np.flatnonzero(inside).tolist()
    if not rows:
        return phi
    union = list(map(g.edges.__getitem__, rows))
    union_degree = int(np.bincount(g._ends[inside].ravel()).max())
    sub_colors = _color_edges(g.n, union, union_degree)
    k = phi.k + max(sub_colors)
    # phi is proper and the new colours are above its palette, so each old
    # bit is set once at each end and each new bit not at all; the fresh
    # bits are shifted once per colour, not twice per edge, into a table
    # indexed by the union's own colours, so its size never depends on phi.k
    edge_colors = list(phi.edge_colors)
    stars = list(phi.stars)
    fresh = [1 << c for c in range(phi.k, k + 1)]  # fresh[c]: colour phi.k + c
    for r, (u, v), c in zip(rows, union, sub_colors):
        flip = 1 << edge_colors[r] | fresh[c]
        edge_colors[r] = c + phi.k
        stars[u] ^= flip
        stars[v] ^= flip
    return _with_stars(stars, phi.vertex_colors, tuple(edge_colors), k, g)


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

    Since no repair makes an equal pair, the scan visits only the edges
    whose endpoints' masks were equal on entry, the rows
    ``coloring._equal_mask_rows`` finds, and rechecks each; the first is
    always repaired. The edge each would recolour depends on g alone, so
    one ``graphs._edge_rows`` lookup finds all their rows up front. Repairs
    are written by row into a list copy of ``phi.edge_colors`` and update
    a copy of ``phi.stars``, two bits per repair; the result carries both.
    It is not verified here; ``run_pipeline`` verifies what the phases
    return.
    """
    pairs = list(map(g.edges.__getitem__, _equal_mask_rows(g, phi.stars)))
    if not pairs:
        return phi
    # an improper input may isolate a pair; recolouring uv itself then
    # leaves it equal, for the caller's verifier to report
    ends = [next(((x, w) for x, y in ((u, v), (v, u)) for w in g.adjacency[x] if w != y),
                 (u, v)) for u, v in pairs]
    rows = _edge_rows(g, [normalize_edge(x, w) for x, w in ends]).tolist()
    masks, edge_colors, k = list(phi.stars), list(phi.edge_colors), phi.k
    for (u, v), r in zip(pairs, rows):
        if masks[u] != masks[v]:
            continue
        k += 1
        flip = 1 << edge_colors[r] | 1 << k
        a, b = g.edges[r]
        masks[a] ^= flip
        masks[b] ^= flip
        edge_colors[r] = k
    return _with_stars(masks, phi.vertex_colors, tuple(edge_colors), k, g)


@_collector_paused()
def run_pipeline(g: Graph, phi: TotalColoring | None = None,
                 params: PipelineParams | None = None
                 ) -> tuple[TotalColoring, PipelineReport]:
    """Produce a distinguishing proper total colouring of g, with a report.

    Without phi the run seeds itself with ``greedy_total``, which is proper
    by construction and carries its masks as its ``stars``. A supplied phi
    goes through ``coloring._require_proper`` instead, the one entry check:
    its palette must be within 2(n + |E|) + 1, and it must be proper total.
    The phases then run on the fresh copy that check returns, whose masks
    are built from phi's colours on first read, never taken from
    ``phi.stars``. On both paths those masks decide whether the phases are
    needed: a colouring with no edge whose endpoints have equal masks is
    returned unchanged, a supplied one with its entry check as its verdict.

    Each phase hands its result the masks it has kept current and trusts
    its input. The result, and a self-built seed that needed no phase, gets
    one fresh, full ``violations`` pass on the way out, and RuntimeError
    names its first violation unless it is proper and AVD. A result that
    pass accepts is marked as accepted on g, so ``to_document(g, result)``
    does not verify it again; a supplied colouring returned unchanged is
    never marked. The run keeps the cyclic garbage collector paused and
    hands it back as it found it.
    """
    params = params or PipelineParams()
    timings: dict[str, float] = {}

    @contextmanager
    def timed(phase: str):
        start = time.perf_counter()
        yield
        timings[phase] = time.perf_counter() - start

    with timed("seed"):
        built = phi is None
        if built:
            phi = greedy_total(g)
    checked = phi
    if not built:
        with timed("verify_input"):
            checked = _require_proper(g, phi)
    stars = checked.stars
    clash = any(stars[u] == stars[v] for u, v in g.edges)
    resolved = params.resolve(g)
    out = recolored = lowered = phi
    bulk = patch = _NOT_RUN
    if clash:
        with timed("bulk"):
            bulk = find_bulk_deletion(g, checked, params)
        with timed("patch"):
            light = light_vertices(g, bulk.selection, params.m)
            patch = find_patch_deletion(g, checked, bulk.selection, light, params)
        with timed("recolor"):
            recolored = recolor_union(g, checked, bulk.selection,
                                      patch.selection)
        with timed("low_degree"):
            lowered = distinguish_low_degree(g, recolored)
        with timed("repair"):
            out = repair_fallback(g, lowered)
    if clash or built:
        # the one full pass on the way out, which the guarantee rests on
        with timed("verify_output"):
            left = violations(g, out)
        if left:
            raise RuntimeError(f"pipeline output is not a proper AVD colouring: "
                               f"{left[0].kind} at {left[0].witness}")
        _mark_accepted(g, out)

    return out, PipelineReport(
        input_k=phi.k, e1_rounds=bulk.rounds, e2_rounds=patch.rounds,
        e1_success=bulk.success, e2_success=patch.success,
        e2_infeasible_vertex=patch.infeasible_vertex,
        fresh_palette_size=recolored.k - phi.k,
        fallback_repairs=out.k - lowered.k, final_k=out.k,
        lam=resolved.lam, M=resolved.M, p=resolved.p,
        short_circuit=not clash, verified={"proper": True, "avd": True},
        phase_timings=timings)
