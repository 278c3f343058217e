"""Randomized edge deletion for distinguishing high-degree vertices.

Two stages. The bulk stage samples each edge with a high-degree endpoint
independently with probability p = min(1, lam/max_degree), then drops edges
at vertices whose raw count exceeds the cap M; the surviving set must leave
adjacent equal-degree high vertices with colour sets differing in at least
d places, and must leave few under-selected neighbours anywhere. The patch
stage draws, for every high vertex left with fewer than m selected edges, a
uniform B-subset of its remaining edges to untroubled neighbours.

Both stages check their bad events explicitly and resample only the random
variables within distance one of a violated witness, in witness order. A
round cap and a stall cap make failure a returned value, never an error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Container

import numpy as np

from .bounds import derive_constants
from .coloring import TotalColoring, properness_violations
from .graphs import Edge, Graph, degree_split, normalize_edge
from .rng import substream

BULK_STREAM = "bulk-deletion"
PATCH_STREAM = "patch-deletion"

EVENT_KINDS = ("A_pair", "B_vertex", "A2_overload", "B2_pair")


class InfeasibleSelectionError(ValueError):
    """A patch vertex has fewer available edges than the draw size."""

    def __init__(self, vertex: int, needed: int, available: int):
        super().__init__(
            f"vertex {vertex} has only {available} available edges, needs {needed}")
        self.vertex = vertex
        self.needed = needed
        self.available = available


def _fraction(value) -> Fraction:
    if isinstance(value, (Fraction, int, float, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a fraction")


@dataclass(frozen=True)
class PipelineParams:
    """Tunable knobs for both deletion stages.

    eps, alpha, beta are exact fractions so threshold comparisons like
    count > eps * max_degree never hit floating-point ties. lam and M
    default to the values derived from m and eps; overriding one leaves the
    other consistent (M follows an overridden lam unless also overridden).
    """

    eps: Fraction = Fraction(1, 3)
    m: int = 8
    d: int = 4
    alpha: Fraction = Fraction(1, 2)
    beta: Fraction = Fraction(1, 3)
    B: int = 2
    lam: float | None = None
    M: int | None = None
    seed: int = 0
    max_rounds: int = 10_000
    stall_rounds: int = 200

    def __post_init__(self):
        object.__setattr__(self, "eps", _fraction(self.eps))
        object.__setattr__(self, "alpha", _fraction(self.alpha))
        object.__setattr__(self, "beta", _fraction(self.beta))
        if not (isinstance(self.m, int) and isinstance(self.d, int)):
            raise ValueError("m and d must be integers")
        if self.d < 1 or self.m < self.d + 4:
            raise ValueError(f"need d >= 1 and m >= d+4, got m={self.m}, d={self.d}")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie strictly between 0 and 1")
        if not self.alpha > self.beta > 0:
            raise ValueError("need alpha > beta > 0")
        if self.B < 2:
            raise ValueError("B must be at least 2")
        if self.lam is not None and not self.lam > 0:
            raise ValueError("lam override must be positive")
        if self.M is not None and self.M < 1:
            raise ValueError("M override must be a positive integer")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.max_rounds < 1 or self.stall_rounds < 1:
            raise ValueError("round caps must be positive")

    def resolve(self, g: Graph) -> "ResolvedParams":
        """Fix lam, M, and the sampling probability for one graph."""
        delta = g.max_degree
        if self.lam is not None:
            lam = float(self.lam)
        else:
            lam = derive_constants(self.m, self.d, self.eps, max(delta, 1)).lam
        big_m = self.M if self.M is not None else math.ceil(2.0 * math.e * lam)
        p = 1.0 if delta == 0 else min(1.0, lam / delta)
        return ResolvedParams(delta=delta, lam=lam, M=int(big_m), p=p)


@dataclass(frozen=True)
class ResolvedParams:
    delta: int
    lam: float
    M: int
    p: float


@dataclass(frozen=True)
class EdgeSelection:
    """An edge subset with per-vertex incidence counts."""

    edges: frozenset[Edge]
    per_vertex_count: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "EdgeSelection":
        normalized = frozenset(normalize_edge(u, v) for u, v in edges)
        counts = [0] * n
        for u, v in normalized:
            if not 0 <= u < v < n:
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            counts[u] += 1
            counts[v] += 1
        return cls(edges=normalized, per_vertex_count=tuple(counts))

    def degree(self, v: int) -> int:
        return self.per_vertex_count[v]


@dataclass(frozen=True)
class BadEvent:
    """A violated selection condition; witness lists the vertices involved."""

    kind: str
    witness: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection search; failure is a value, not an error."""

    selection: EdgeSelection
    success: bool
    rounds: int
    violations: tuple[BadEvent, ...]
    infeasible_vertex: int | None = None


# ---------------------------------------------------------------------------
# bulk stage

def candidate_edges(g: Graph) -> list[Edge]:
    """Edges with at least one high-degree endpoint, in sorted order."""
    high = degree_split(g).high
    return [e for e in g.edges if e[0] in high or e[1] in high]


def sample_candidates(g: Graph, p: float, rng: np.random.Generator) -> EdgeSelection:
    """Include each candidate edge independently with probability p."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    cands = candidate_edges(g)
    if not cands:
        return EdgeSelection.from_edges(g.n, [])
    mask = rng.random(len(cands)) < p
    return EdgeSelection.from_edges(g.n, [e for e, keep in zip(cands, mask) if keep])


def cap_overloaded(g: Graph, selection: EdgeSelection, cap: int) -> EdgeSelection:
    """Drop every edge with an endpoint whose selection count exceeds cap.

    Applying the cap at both endpoints guarantees every vertex ends up in at
    most cap surviving edges.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    counts = selection.per_vertex_count
    kept = [e for e in sorted(selection.edges)
            if counts[e[0]] <= cap and counts[e[1]] <= cap]
    return EdgeSelection.from_edges(g.n, kept)


class _RestrictedSets:
    """Colour sets after deleted edges stop contributing, computed on demand.

    A vertex's incident (edge, colour) pairs are gathered on its first use
    and kept for the whole search; its restricted set under one deleted-edge
    set is computed on its first request in that check. A check thus pays
    only for the vertices its events compare.
    """

    def __init__(self, g: Graph, phi: TotalColoring):
        self.g, self.phi = g, phi
        self.incident: dict[int, list[tuple[Edge, int]]] = {}

    def under(self, deleted: Container[Edge]) -> Callable[[int], frozenset[int]]:
        cache: dict[int, frozenset[int]] = {}

        def restricted(v: int) -> frozenset[int]:
            cols = cache.get(v)
            if cols is None:
                pairs = self.incident.get(v)
                if pairs is None:
                    colors = self.phi.edge_colors
                    ends = [(v, w) if v < w else (w, v) for w in self.g.adjacency[v]]
                    pairs = self.incident[v] = [(e, colors[e]) for e in ends]
                seen = {c for e, c in pairs if e not in deleted}
                seen.add(self.phi.vertex_colors[v])
                cols = cache[v] = frozenset(seen)
            return cols

        return restricted


class _BulkCheck:
    """The bulk stage's bad events, with the per-graph work done once.

    A_pair can only fire at an edge joining equal-degree high vertices, so
    those edges are listed up front and restricted colour sets are computed
    only at their endpoints, and only when a selection count lets the event
    fire. B_vertex counts under-selected neighbours of every high vertex
    with one bincount over their concatenated adjacency lists.
    """

    def __init__(self, g: Graph, phi: TotalColoring, high: frozenset[int],
                 m: int, d: int, eps: Fraction):
        self.m, self.d = m, d
        self.sets = _RestrictedSets(g, phi)
        degree = [len(a) for a in g.adjacency]
        self.pairs = [(u, v) for u, v in g.edges
                      if degree[u] == degree[v] and u in high and v in high]
        self.pair_ends = np.array(self.pairs, dtype=np.int64).reshape(-1, 2)
        self.high = sorted(high)
        self.neighbours = np.fromiter(
            itertools.chain.from_iterable(g.adjacency[v] for v in self.high),
            dtype=np.int64, count=sum(degree[v] for v in self.high))
        self.owner = np.repeat(np.arange(len(self.high)),
                               [degree[v] for v in self.high])
        # counts are integers, so count > eps*max_degree iff count > floor
        self.limit = math.floor(eps * g.max_degree)

    def events(self, selected: frozenset[Edge], deg_sel: np.ndarray) -> list[BadEvent]:
        events: list[BadEvent] = []
        hot = np.flatnonzero((deg_sel[self.pair_ends] >= self.m).any(axis=1))
        if hot.size:
            restricted = self.sets.under(selected)
            for j in hot.tolist():
                u, v = self.pairs[j]
                if len(restricted(u) ^ restricted(v)) < self.d:
                    events.append(BadEvent("A_pair", (u, v)))
        under = np.bincount(self.owner[deg_sel[self.neighbours] < self.m],
                            minlength=len(self.high))
        for j in np.flatnonzero(under > self.limit).tolist():
            events.append(BadEvent("B_vertex", (self.high[j],)))
        return events


def bulk_violations(g: Graph, phi: TotalColoring, selection: EdgeSelection,
                    params: PipelineParams | None = None) -> list[BadEvent]:
    """Bad events left by a bulk selection.

    A_pair: adjacent equal-degree high vertices, at least one holding m or
    more selected edges, whose restricted colour sets differ in fewer than d
    elements. B_vertex: a high vertex more than eps*max_degree of whose
    neighbours hold fewer than m selected edges.
    """
    params = params or PipelineParams()
    if properness_violations(g, phi):
        raise ValueError("colouring must be proper")
    resolved = params.resolve(g)
    high = degree_split(g).high
    for u, v in selection.edges:
        if u not in high and v not in high:
            raise ValueError(f"edge ({u}, {v}) has no high-degree endpoint")
    if selection.per_vertex_count and max(selection.per_vertex_count) > resolved.M:
        raise ValueError(f"selection exceeds the per-vertex cap {resolved.M}")
    check = _BulkCheck(g, phi, high, params.m, params.d, params.eps)
    return check.events(selection.edges,
                        np.array(selection.per_vertex_count, dtype=np.int64))


def find_bulk_deletion(g: Graph, phi: TotalColoring,
                       params: PipelineParams | None = None) -> SelectionResult:
    """Search for a bulk selection with no bad events by resampling.

    Each round rechecks; a violated round resamples only the candidate-edge
    indicators within distance one of the witnesses. On failure the best
    selection seen (fewest events) is returned.
    """
    params = params or PipelineParams()
    if properness_violations(g, phi):
        raise ValueError("colouring must be proper")
    resolved = params.resolve(g)
    high = degree_split(g).high
    cands = candidate_edges(g)
    ends = np.array(cands, dtype=np.int64).reshape(-1, 2)
    cu, cv = ends[:, 0], ends[:, 1]
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(cands):
        incident[u].append(i)
        incident[v].append(i)
    near: dict[int, np.ndarray] = {}

    def indicators_near(w: int) -> np.ndarray:
        """Candidate indices at w's closed neighbourhood, first-seen order."""
        if w not in near:
            seen = dict.fromkeys(i for x in (w, *g.adjacency[w]) for i in incident[x])
            near[w] = np.fromiter(seen, dtype=np.int64, count=len(seen))
        return near[w]

    def endpoint_counts(idx: np.ndarray) -> np.ndarray:
        return (np.bincount(cu[idx], minlength=g.n)
                + np.bincount(cv[idx], minlength=g.n))

    check = _BulkCheck(g, phi, high, params.m, params.d, params.eps)
    rng = substream(params.seed, BULK_STREAM)
    mask = rng.random(len(cands)) < resolved.p if cands else np.zeros(0, dtype=bool)

    best: tuple[int, EdgeSelection, tuple[BadEvent, ...]] | None = None
    rounds = 0
    stall = 0
    while True:
        chosen = np.flatnonzero(mask)
        counts = endpoint_counts(chosen)
        kept = chosen[(counts[cu[chosen]] <= resolved.M)
                      & (counts[cv[chosen]] <= resolved.M)]
        deg_sel = endpoint_counts(kept)
        selection = EdgeSelection(frozenset(map(cands.__getitem__, kept.tolist())),
                                  tuple(deg_sel.tolist()))
        violations = check.events(selection.edges, deg_sel)
        rounds += 1
        if not violations:
            return SelectionResult(selection, True, rounds, ())
        if best is None or len(violations) < best[0]:
            best = (len(violations), selection, tuple(violations))
            stall = 0
        else:
            stall += 1
        if rounds >= params.max_rounds or stall >= params.stall_rounds:
            break
        if resolved.p >= 1.0 or resolved.p <= 0.0:
            break  # the draw is deterministic; resampling cannot change it
        # witness order, then first occurrence, decides which draw each
        # indicator gets
        taken = np.zeros(len(cands), dtype=bool)
        parts = []
        for event in violations:
            for w in event.witness:
                fresh = indicators_near(w)
                fresh = fresh[~taken[fresh]]
                taken[fresh] = True
                parts.append(fresh)
        idx = np.concatenate(parts)
        if idx.size:
            mask[idx] = rng.random(idx.size) < resolved.p
    _, selection, violations = best
    return SelectionResult(selection, False, rounds, violations)


# ---------------------------------------------------------------------------
# patch stage

def light_vertices(g: Graph, selection: EdgeSelection, m: int) -> frozenset[int]:
    """High vertices holding fewer than m selected edges."""
    high = degree_split(g).high
    return frozenset(v for v in high if selection.per_vertex_count[v] < m)


def _available_edges(g: Graph, taken: frozenset[Edge],
                     light: frozenset[int]) -> dict[int, list[Edge]]:
    out: dict[int, list[Edge]] = {}
    for u in sorted(light):
        out[u] = [normalize_edge(u, w) for w in g.adjacency[u]
                  if w not in light and normalize_edge(u, w) not in taken]
    return out


def sample_patch(g: Graph, bulk: EdgeSelection, light: frozenset[int], B: int,
                 rng: np.random.Generator) -> EdgeSelection:
    """Draw, per light vertex, a uniform B-subset of its available edges.

    Available means: not already selected by the bulk stage, and leading to
    a neighbour outside the light set. Raises InfeasibleSelectionError
    naming the first vertex without enough available edges.
    """
    if B < 1:
        raise ValueError("B must be positive")
    avail = _available_edges(g, bulk.edges, light)
    picked: list[Edge] = []
    for u in sorted(light):
        pool = avail[u]
        if len(pool) < B:
            raise InfeasibleSelectionError(u, B, len(pool))
        idx = rng.choice(len(pool), size=B, replace=False)
        picked.extend(pool[i] for i in sorted(idx))
    return EdgeSelection.from_edges(g.n, picked)


class _PatchCheck:
    """The patch stage's bad events, with the per-graph work done once.

    A2_overload can only fire at the heavy non-light vertices and B2_pair
    only at light-light edges, so both are listed up front.
    """

    def __init__(self, g: Graph, phi: TotalColoring, bulk_edges: frozenset[Edge],
                 light: frozenset[int], alpha: Fraction, B: int):
        self.bulk_edges, self.B = bulk_edges, B
        threshold = alpha * g.max_degree
        self.heavy = [v for v in range(g.n)
                      if v not in light and g.degree(v) > threshold]
        self.light_pairs = [(u, v) for u, v in g.edges if u in light and v in light]
        self.sets = _RestrictedSets(g, phi)

    def events(self, patch: EdgeSelection) -> list[BadEvent]:
        events = [BadEvent("A2_overload", (v,)) for v in self.heavy
                  if patch.per_vertex_count[v] >= self.B]
        restricted = self.sets.under(self.bulk_edges | patch.edges)
        events.extend(BadEvent("B2_pair", (u, v)) for u, v in self.light_pairs
                      if restricted(u) == restricted(v))
        return events


def patch_violations(g: Graph, phi: TotalColoring, bulk: EdgeSelection,
                     patch: EdgeSelection, light: frozenset[int],
                     params: PipelineParams | None = None) -> list[BadEvent]:
    """Bad events left by a patch selection.

    A2_overload: a vertex outside the light set, of degree above
    alpha*max_degree, incident to B or more patch edges. B2_pair: adjacent
    light vertices whose colour sets coincide once both stages' edges stop
    contributing. The selection must have the constructed shape: disjoint
    from the bulk set, exactly B edges per light vertex, every patch edge
    joining a light vertex to a non-light one.
    """
    params = params or PipelineParams()
    if properness_violations(g, phi):
        raise ValueError("colouring must be proper")
    if patch.edges & bulk.edges:
        raise ValueError("patch edges must avoid the bulk selection")
    for u, v in patch.edges:
        if (u in light) == (v in light):
            raise ValueError(f"patch edge ({u}, {v}) must join light to non-light")
    for u in sorted(light):
        if patch.per_vertex_count[u] != params.B:
            raise ValueError(f"light vertex {u} must hold exactly B={params.B} patch edges")
    return _PatchCheck(g, phi, bulk.edges, light, params.alpha, params.B).events(patch)


def find_patch_deletion(g: Graph, phi: TotalColoring, bulk: EdgeSelection,
                        light: frozenset[int],
                        params: PipelineParams | None = None) -> SelectionResult:
    """Search for a patch selection with no bad events by resampling.

    Structural infeasibility (a light vertex with fewer than B available
    edges) is detected up front and reported in the result. A violated round
    redraws the B-subsets of light vertices in the witnesses' closed
    neighbourhoods, in witness order.
    """
    params = params or PipelineParams()
    if properness_violations(g, phi):
        raise ValueError("colouring must be proper")
    threshold = params.alpha * g.max_degree
    for u in sorted(light):
        if not g.degree(u) > threshold:
            raise ValueError(f"light vertex {u} is not above the alpha threshold")
    empty = EdgeSelection.from_edges(g.n, [])
    avail = _available_edges(g, bulk.edges, light)
    for u in sorted(light):
        if len(avail[u]) < params.B:
            return SelectionResult(empty, False, 0, (), infeasible_vertex=u)

    rng = substream(params.seed, PATCH_STREAM)
    order = sorted(light)

    def draw(u: int) -> tuple[Edge, ...]:
        pool = avail[u]
        idx = rng.choice(len(pool), size=params.B, replace=False)
        return tuple(pool[i] for i in sorted(idx))

    draws = {u: draw(u) for u in order}
    check = _PatchCheck(g, phi, bulk.edges, light, params.alpha, params.B)
    all_forced = all(len(avail[u]) == params.B for u in order)
    best: tuple[int, EdgeSelection, tuple[BadEvent, ...]] | None = None
    rounds = 0
    stall = 0
    while True:
        selection = EdgeSelection.from_edges(
            g.n, [e for u in order for e in draws[u]])
        violations = check.events(selection)
        rounds += 1
        if not violations:
            return SelectionResult(selection, True, rounds, ())
        if best is None or len(violations) < best[0]:
            best = (len(violations), selection, tuple(violations))
            stall = 0
        else:
            stall += 1
        if rounds >= params.max_rounds or stall >= params.stall_rounds:
            break
        if all_forced:
            break  # every draw is the unique B-subset; nothing can change
        resample: dict[int, None] = {}
        for event in violations:
            for w in event.witness:
                if w in light:
                    resample[w] = None
                for x in g.adjacency[w]:
                    if x in light:
                        resample[x] = None
        for u in resample:
            draws[u] = draw(u)
    _, selection, violations = best
    return SelectionResult(selection, False, rounds, violations)
