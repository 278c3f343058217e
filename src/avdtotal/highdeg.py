"""Randomized edge deletion for distinguishing high-degree vertices.

Two stages. The bulk stage samples each edge with a high-degree endpoint
independently with probability p = min(1, lam/max_degree), then drops edges
at vertices whose raw count exceeds the cap M; the surviving set must leave
adjacent equal-degree high vertices with colour sets differing in at least
d places, and must leave few under-selected neighbours anywhere. The patch
stage draws, for every high vertex left with fewer than m selected edges, a
uniform B-subset of its remaining edges to untroubled neighbours.

Both stages run one round loop, ``_resample``: check the bad events
explicitly and resample only the random variables within distance one of a
violated witness, in witness order. A round cap and a stall cap make
failure a returned value, never an error. Rounds hold their draws as edge
indices; only the returned round becomes an EdgeSelection.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from numbers import Real
from typing import Callable

import numpy as np

from .bounds import derive_constants
from .coloring import TotalColoring, star_masks
from .graphs import Edge, Graph, degree_split, normalize_edge
from .rng import substream

BULK_STREAM = "bulk-deletion"
PATCH_STREAM = "patch-deletion"

EVENT_KINDS = ("A_pair", "B_vertex", "A2_overload", "B2_pair")


def _fraction(name: str, value) -> Fraction:
    """value as an exact Fraction; ValueError naming the field for anything
    else, bools and non-finite floats included."""
    if isinstance(value, (Fraction, int, float, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ValueError(f"{name} must be a fraction, got {value!r}")


def _integer(name: str, value) -> int:
    """value as an int when it is an integer (anything ``operator.index``
    takes, bool excluded); ValueError naming the field otherwise."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class PipelineParams:
    """Tunable knobs for both deletion stages.

    eps and alpha are exact fractions so threshold comparisons like
    count > eps * max_degree never hit floating-point ties. lam and M
    default to the values derived from m and eps; overriding one leaves the
    other consistent (M follows an overridden lam unless also overridden).
    """

    eps: Fraction = Fraction(1, 3)
    m: int = 8
    d: int = 4
    alpha: Fraction = Fraction(1, 2)
    B: int = 2
    lam: float | None = None
    M: int | None = None
    seed: int = 0
    max_rounds: int = 10_000
    stall_rounds: int = 200

    def __post_init__(self):
        object.__setattr__(self, "eps", _fraction("eps", self.eps))
        object.__setattr__(self, "alpha", _fraction("alpha", self.alpha))
        for name in ("m", "d", "B", "seed", "max_rounds", "stall_rounds"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.M is not None:
            object.__setattr__(self, "M", _integer("M", self.M))
        if self.d < 1 or self.m < self.d + 4:
            raise ValueError(f"need d >= 1 and m >= d+4, got m={self.m}, d={self.d}")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie strictly between 0 and 1")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.B < 2:
            raise ValueError("B must be at least 2")
        if self.lam is not None:
            if isinstance(self.lam, bool) or not isinstance(self.lam, Real):
                raise ValueError(f"lam override must be a real number, got {self.lam!r}")
            # resolve takes M = ceil(2e*lam), which must be a finite integer
            try:
                cap = 2.0 * math.e * float(self.lam)
            except OverflowError:
                cap = math.inf
            if not (cap > 0 and math.isfinite(cap)):
                raise ValueError(f"lam override must be positive with 2e*lam "
                                 f"finite, got {self.lam!r}")
        if self.M is not None and self.M < 1:
            raise ValueError("M override must be a positive integer")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        for name in ("max_rounds", "stall_rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    def resolve(self, g: Graph) -> "ResolvedParams":
        """Fix lam, M, and the sampling probability for one graph."""
        delta = g.max_degree
        if self.lam is not None:
            lam = float(self.lam)
        else:
            lam = derive_constants(self.m, self.d, self.eps, max(delta, 1)).lam
        big_m = self.M if self.M is not None else math.ceil(2.0 * math.e * lam)
        p = 1.0 if delta == 0 else min(1.0, lam / delta)
        return ResolvedParams(delta=delta, lam=lam, M=big_m, p=p)


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


def _selection(edges: list[Edge], idx: np.ndarray, counts: np.ndarray) -> EdgeSelection:
    return EdgeSelection(frozenset(map(edges.__getitem__, idx.tolist())),
                         tuple(counts.tolist()))


def _resample(evaluate: Callable[[], tuple[Callable[[], EdgeSelection], list]],
              resample: Callable[[list[BadEvent]], None],
              params: PipelineParams, fixed: bool) -> SelectionResult:
    """The round loop of both stages.

    evaluate() checks the current draw: it returns the draw's bad events
    and a function building its EdgeSelection, called only for the round
    returned. The first round without events is returned; otherwise the
    earliest round with the fewest events is, once the round cap or the
    stall cap is reached or at once when the draw is fixed. Every other
    round ends with resample(events).
    """
    best: tuple[Callable[[], EdgeSelection], tuple[BadEvent, ...]] | None = None
    rounds = 0
    stall = 0
    while True:
        selection, violations = evaluate()
        rounds += 1
        if not violations:
            return SelectionResult(selection(), True, rounds, ())
        if best is None or len(violations) < len(best[1]):
            best = (selection, tuple(violations))
            stall = 0
        else:
            stall += 1
        if rounds >= params.max_rounds or stall >= params.stall_rounds or fixed:
            return SelectionResult(best[0](), False, rounds, best[1])
        resample(violations)


# ---------------------------------------------------------------------------
# bulk stage

def candidate_edges(g: Graph) -> list[Edge]:
    """Edges with at least one high-degree endpoint, in sorted order."""
    return _edges_at(g, degree_split(g).high)


def _edges_at(g: Graph, high: frozenset[int]) -> list[Edge]:
    return [e for e in g.edges if e[0] in high or e[1] in high]


class _StarSets:
    """Restricted colour sets over one indexed edge list.

    A vertex's restricted set is its ``star_masks`` closed-star mask with
    the colours of its deleted edges cleared. phi is proper, so the colours
    of a closed star are distinct and each deleted edge's colour is set
    there exactly once: clearing them is one XOR with their OR. ``deleted``
    is a boolean array over ``edges``; the set is exact at every vertex all
    of whose edges are listed.
    """

    def __init__(self, g: Graph, phi: TotalColoring, edges: list[Edge]):
        self.g, self.phi = g, phi
        self.bits = [1 << c for c in map(phi.edge_colors.__getitem__, edges)]
        self.incident: list[list[int]] = [[] for _ in range(g.n)]
        for i, (u, v) in enumerate(edges):
            self.incident[u].append(i)
            self.incident[v].append(i)
        self.stars: list[int] | None = None
        self.arrays: dict[int, np.ndarray] = {}

    def under(self, deleted: np.ndarray) -> Callable[[int], int]:
        """Restricted sets under one deleted-edge array, each computed on
        its first request."""
        if self.stars is None:
            self.stars = star_masks(self.g, self.phi)
        stars, bits, arrays = self.stars, self.bits, self.arrays
        cache: dict[int, int] = {}

        def restricted(v: int) -> int:
            mask = cache.get(v)
            if mask is None:
                idx = arrays.get(v)
                if idx is None:
                    idx = arrays[v] = np.array(self.incident[v], dtype=np.int64)
                mask = cache[v] = reduce(
                    operator.or_, map(bits.__getitem__, idx[deleted[idx]].tolist()),
                    0) ^ stars[v]
            return mask

        return restricted


class _BulkCheck:
    """The bulk stage's bad events, with the per-graph work done once.

    A_pair: adjacent equal-degree high vertices, at least one holding m or
    more selected edges, whose restricted colour sets differ in fewer than d
    colours. B_vertex: a high vertex more than eps*max_degree of whose
    neighbours hold fewer than m selected edges.

    A selection is a boolean array over the candidate edges ``cands`` with
    its per-vertex counts. A_pair can only fire at an edge joining
    equal-degree high vertices, so those edges are listed up front and
    restricted colour sets are computed only at their endpoints, and only
    when a selection count lets the event fire; every edge at a high vertex
    is a candidate, so the candidate indices cover those stars. B_vertex
    counts under-selected neighbours of every high vertex with one bincount
    over their concatenated adjacency lists.
    """

    def __init__(self, g: Graph, phi: TotalColoring, high: frozenset[int],
                 cands: list[Edge], m: int, d: int, eps: Fraction):
        self.m, self.d = m, d
        self.sets = _StarSets(g, phi, cands)
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

    def events(self, selected: np.ndarray, deg_sel: np.ndarray) -> list[BadEvent]:
        events: list[BadEvent] = []
        hot = np.flatnonzero((deg_sel[self.pair_ends] >= self.m).any(axis=1))
        if hot.size:
            restricted = self.sets.under(selected)
            for j in hot.tolist():
                u, v = self.pairs[j]
                if (restricted(u) ^ restricted(v)).bit_count() < self.d:
                    events.append(BadEvent("A_pair", (u, v)))
        under = np.bincount(self.owner[deg_sel[self.neighbours] < self.m],
                            minlength=len(self.high))
        for j in np.flatnonzero(under > self.limit).tolist():
            events.append(BadEvent("B_vertex", (self.high[j],)))
        return events


def find_bulk_deletion(g: Graph, phi: TotalColoring,
                       params: PipelineParams | None = None) -> SelectionResult:
    """Search for a bulk selection with no bad events by resampling.

    Each round rechecks; a violated round resamples only the candidate-edge
    indicators within distance one of the witnesses. On failure the best
    selection seen (fewest events) is returned. Rounds hold their selection
    as a boolean array over the candidate edges; only the returned one
    becomes an EdgeSelection. phi must be a proper total colouring of g.
    """
    params = params or PipelineParams()
    resolved = params.resolve(g)
    high = degree_split(g).high
    cands = _edges_at(g, high)
    check = _BulkCheck(g, phi, high, cands,
                       params.m, params.d, params.eps)
    ends = np.array(cands, dtype=np.int64).reshape(-1, 2)
    cu, cv = ends[:, 0], ends[:, 1]
    incident = check.sets.incident
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

    rng = substream(params.seed, BULK_STREAM)
    mask = rng.random(len(cands)) < resolved.p if cands else np.zeros(0, dtype=bool)

    def evaluate():
        counts = endpoint_counts(np.flatnonzero(mask))
        keep = mask & (counts[cu] <= resolved.M) & (counts[cv] <= resolved.M)
        kept = np.flatnonzero(keep)
        deg_sel = endpoint_counts(kept)
        return partial(_selection, cands, kept, deg_sel), check.events(keep, deg_sel)

    # witness order, then first occurrence, decides which draw each
    # indicator gets; a stalled search tends to meet the same witnesses
    # round after round, so their index list is kept until they change
    last: tuple[list[int], np.ndarray | None] = ([], None)

    def resample(violations: list[BadEvent]) -> None:
        nonlocal last
        witnesses = [w for event in violations for w in event.witness]
        if witnesses != last[0]:
            taken = np.zeros(len(cands), dtype=bool)
            parts = []
            for w in witnesses:
                fresh = indicators_near(w)
                fresh = fresh[~taken[fresh]]
                taken[fresh] = True
                parts.append(fresh)
            last = (witnesses, np.concatenate(parts))
        idx = last[1]
        if idx.size:
            mask[idx] = rng.random(idx.size) < resolved.p

    # at p = 0 or 1 the draw is deterministic; resampling cannot change it
    return _resample(evaluate, resample, params,
                     fixed=resolved.p >= 1.0 or resolved.p <= 0.0)


# ---------------------------------------------------------------------------
# patch stage

def light_vertices(g: Graph, selection: EdgeSelection, m: int) -> frozenset[int]:
    """High vertices holding fewer than m selected edges."""
    high = degree_split(g).high
    return frozenset(v for v in high if selection.per_vertex_count[v] < m)


class _PatchCheck:
    """The patch stage's bad events, with the per-graph work done once.

    A2_overload: a vertex outside the light set, of degree above
    alpha*max_degree, incident to B or more patch edges. B2_pair: adjacent
    light vertices whose colour sets coincide once both stages' edges stop
    contributing.

    A2_overload can only fire at the heavy non-light vertices and B2_pair
    only at light-light edges, so both are listed up front. A patch
    selection is an index array over ``edges``, the edges at light
    vertices, with its per-vertex counts. Restricted colour sets index the
    same list; the bulk edges among them are marked once, and each check
    adds its patch edges.
    """

    def __init__(self, g: Graph, phi: TotalColoring, bulk_edges: frozenset[Edge],
                 light: frozenset[int], alpha: Fraction, B: int):
        self.B = B
        threshold = alpha * g.max_degree
        self.heavy = np.array([v for v in range(g.n)
                               if v not in light and g.degree(v) > threshold],
                              dtype=np.int64)
        self.light_pairs = [(u, v) for u, v in g.edges if u in light and v in light]
        self.edges = list(dict.fromkeys(normalize_edge(u, w) for u in sorted(light)
                                        for w in g.adjacency[u]))
        self.sets = _StarSets(g, phi, self.edges)
        self.bulk = np.array([e in bulk_edges for e in self.edges], dtype=bool)

    def events(self, chosen: np.ndarray, counts: np.ndarray) -> list[BadEvent]:
        heavy = self.heavy
        events = [BadEvent("A2_overload", (v,))
                  for v in heavy[counts[heavy] >= self.B].tolist()]
        if self.light_pairs:
            deleted = self.bulk.copy()
            deleted[chosen] = True
            restricted = self.sets.under(deleted)
            events.extend(BadEvent("B2_pair", (u, v)) for u, v in self.light_pairs
                          if restricted(u) == restricted(v))
        return events


def find_patch_deletion(g: Graph, phi: TotalColoring, bulk: EdgeSelection,
                        light: frozenset[int],
                        params: PipelineParams | None = None) -> SelectionResult:
    """Search for a patch selection with no bad events by resampling.

    Each light vertex draws B of its available edges: those to non-light
    neighbours outside the bulk selection. Structural infeasibility (a
    light vertex with fewer than B available edges) is detected up front
    and reported in the result. A violated round redraws the B-subsets of
    light vertices in the witnesses' closed neighbourhoods, in witness
    order. Rounds hold their draws as indices into ``_PatchCheck.edges``;
    only the returned one becomes an EdgeSelection. phi must be a proper
    total colouring of g.
    """
    params = params or PipelineParams()
    threshold = params.alpha * g.max_degree
    order = sorted(light)
    for u in order:
        if not g.degree(u) > threshold:
            raise ValueError(f"light vertex {u} is not above the alpha threshold")
    check = _PatchCheck(g, phi, bulk.edges, light, params.alpha, params.B)
    edges, incident = check.edges, check.sets.incident
    # by ascending neighbour: the edges at u are listed in adjacency order,
    # and those to non-light neighbours are all listed from u
    pools = [np.array([i for i in incident[u]
                       if not (check.bulk[i] or light.issuperset(edges[i]))],
                      dtype=np.int64) for u in order]
    for u, pool in zip(order, pools):
        if pool.size < params.B:
            return SelectionResult(EdgeSelection.from_edges(g.n, []), False, 0, (),
                                   infeasible_vertex=u)

    rng = substream(params.seed, PATCH_STREAM)
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    row = {u: r for r, u in enumerate(order)}

    def draw(r: int) -> np.ndarray:
        pool = pools[r]
        return pool[np.sort(rng.choice(pool.size, size=params.B, replace=False))]

    picks = np.array([draw(r) for r in range(len(order))], dtype=np.int64)

    def evaluate():
        chosen = picks.ravel().copy()
        counts = np.bincount(ends[chosen].ravel(), minlength=g.n)
        return partial(_selection, edges, chosen, counts), check.events(chosen, counts)

    def resample(violations: list[BadEvent]) -> None:
        redraw = dict.fromkeys(row[x] for event in violations for w in event.witness
                               for x in (w, *g.adjacency[w]) if x in row)
        for r in redraw:
            picks[r] = draw(r)

    # when every pool holds exactly B edges each draw is forced
    return _resample(evaluate, resample, params,
                     fixed=all(pool.size == params.B for pool in pools))
