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
violated witness, in witness order. It stops at the round cap, the stall
cap, a fixed draw, or the forced floor, a lower bound on every round's
event count; failure is a returned value, never an error. Rounds hold
their draws as edge indices; only the returned round becomes an
EdgeSelection, which holds the ascending rows of ``g.edges`` it selects and
names g, and derives its per-vertex counts from those rows, so
``pipeline.recolor_union`` reads the union from rows and no edge tuple is
looked up.

A_pair and B2_pair are one test, ``_close``: whether two restricted
colour sets, the colour sets left once the removed edges stop counting,
differ in fewer than d colours; B2_pair is d = 1. It reads only the pairs'
vertices, their masks held as rows of 64-bit words. A_pair removes the
selected candidate edges; B2_pair removes the bulk edges at light
vertices, fixed for the search, and the round's patch edges.

The bulk stage runs on arrays from start to finish, with no Python loop
over edges: its candidates, pairs and neighbour lists are columns of
``g._ends``, and its redraw orders the indicators by where their ends
first occur among the witnesses' closed neighbourhoods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .bounds import DerivedConstants, derive_constants
from .coloring import TotalColoring
from .graphs import Edge, Graph, _edge_rows, _integer, degree_split, normalize_edge
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


@dataclass(frozen=True)
class PipelineParams:
    """Tunable knobs for both deletion stages.

    eps and alpha are exact fractions so threshold comparisons like
    count > eps * max_degree never hit floating-point ties; alpha <= 1/2
    keeps every high vertex above alpha * max_degree. lam and M default
    to the values derived from m and eps; ``bounds.derive_constants``
    applies the overrides and checks m, d, eps, lam and M.
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
        derive_constants(self.m, self.d, self.eps, 1, self.lam, self.M)
        if not 0 < self.alpha <= Fraction(1, 2):
            raise ValueError(f"alpha must lie in (0, 1/2], got {self.alpha}")
        if self.B < 2:
            raise ValueError("B must be at least 2")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        for name in ("max_rounds", "stall_rounds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    def resolve(self, g: Graph) -> DerivedConstants:
        """Fix lam, M, and the sampling probability for one graph; an
        edgeless graph samples nothing, and gets p = 1."""
        derived = derive_constants(self.m, self.d, self.eps, max(g.max_degree, 1),
                                   self.lam, self.M)
        return derived if g.max_degree else replace(derived, p=1.0)


@dataclass(frozen=True)
class EdgeSelection:
    """A subset of a graph's edges, held as rows of its edge list.

    ``rows`` are the rows of ``graph.edges`` it holds; ``graph`` is the
    graph it was made on, left out of equality and repr. The constructor
    takes the rows as a sequence or array of integers, stores them as a
    tuple, and raises ValueError unless they ascend strictly within
    ``0..len(graph.edges) - 1``, so every reader takes them as they are;
    TypeError unless graph is a Graph. Everything else is derived from the
    rows on its first read: ``edges``, the set of those edge tuples, and
    ``per_vertex_count``, the number of them at each vertex of the graph.
    """

    rows: tuple[int, ...]
    graph: Graph = field(compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.graph, Graph):
            raise TypeError(f"a selection is made on a Graph, not {self.graph!r}")
        rows, m = np.asarray(self.rows), len(self.graph.edges)
        if rows.size and (rows.ndim != 1 or rows.dtype.kind not in "iu" or rows[0] < 0
                          or rows[-1] >= m or (rows[1:] <= rows[:-1]).any()):
            raise ValueError(f"selection rows must ascend strictly within 0..{m - 1}")
        object.__setattr__(self, "rows", tuple(rows.tolist()))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(map(self.graph.edges.__getitem__, self.rows))

    @cached_property
    def per_vertex_count(self) -> tuple[int, ...]:
        ends = self.graph._ends[np.fromiter(self.rows, dtype=np.int64, count=len(self.rows))]
        return tuple(np.bincount(ends.ravel(), minlength=self.graph.n).tolist())

    @classmethod
    def from_edges(cls, g: Graph, edges) -> "EdgeSelection":
        """The selection of the pairs in edges, each normalised, from g;
        ValueError naming the smallest pair that is not an edge of g."""
        if not isinstance(g, Graph):
            raise TypeError(f"from_edges takes the Graph, not {g!r}")
        pairs = sorted({normalize_edge(_integer("edge endpoint", u),
                                       _integer("edge endpoint", v)) for u, v in edges})
        rows = _edge_rows(g, pairs)
        if (rows < 0).any():
            raise ValueError(f"selected edge {pairs[int(np.argmin(rows))]} is not in the graph")
        return cls(rows, g)


def _require_on(g: Graph, selection: EdgeSelection) -> None:
    """ValueError unless selection is an EdgeSelection made on a graph
    equal to g."""
    if getattr(selection, "graph", None) != g:
        raise ValueError("the selection was not made on this graph")


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
    forced: tuple[int, ...] = ()


def _resample(g: Graph, rows: np.ndarray,
              evaluate: Callable[[], tuple[np.ndarray, list[BadEvent]]],
              resample: Callable[[list[BadEvent]], None],
              params: PipelineParams, fixed: bool, floor: int) -> SelectionResult:
    """The round loop of both stages.

    evaluate() checks the current draw: it returns the draw's indices into
    the stage's edges and its bad events; rows[i] is the row of ``g.edges``
    holding the stage's edge i. The first round without events is
    returned; otherwise the earliest round with the fewest events is, once
    the search stops: at the round cap, the stall cap, a fixed draw, or the
    forced floor. floor is a lower bound on every round's event count, so a
    best round that reaches it can never be replaced. Every other round
    ends with resample(events). Only the returned round becomes an
    EdgeSelection, of its rows sorted; its counts are derived from them.
    """
    best: tuple[np.ndarray, tuple[BadEvent, ...]] | None = None
    rounds = stall = 0
    while True:
        indices, violations = evaluate()
        rounds += 1
        if best is None or len(violations) < len(best[1]):
            best = (indices, tuple(violations))
            stall = 0
        else:
            stall += 1
        if (not violations or rounds >= params.max_rounds
                or stall >= params.stall_rounds or fixed or len(best[1]) <= floor):
            indices, violations = best
            return SelectionResult(EdgeSelection(np.sort(rows[indices]), g),
                                   not violations, rounds, violations)
        resample(violations)


# ---------------------------------------------------------------------------
# bulk stage

# the number of set bits in each byte value
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _close(stars: Sequence[int], pairs: np.ndarray, ends: np.ndarray,
           colours: np.ndarray, removed: np.ndarray, d: int) -> list[tuple[int, int]]:
    """The pairs, rows of pairs and at least one, whose restricted colour
    sets differ in fewer than d colours, in row order. The removed edges
    are the distinct edges with endpoints the rows of ends and colours
    colours at which the boolean array removed is True.

    stars are the closed-star masks of a proper total colouring, which sets
    each colour of a closed star exactly once, so one XOR per end clears a
    removed edge's colour. Only the pairs' vertices are read: their masks
    become rows of 64-bit words, the removed colours are cleared from them
    with one ``bitwise_xor.at`` per endpoint column, and a byte popcount
    table counts the colours each pair's rows differ in.
    """
    slot = np.full(len(stars), -1, dtype=np.int32)
    slot[pairs] = 0
    hot = np.flatnonzero(slot == 0)
    slot[hot] = np.arange(hot.size)
    masks = list(map(stars.__getitem__, hot.tolist()))
    size = 8 * ((max(masks).bit_length() + 63) // 64)
    bits = np.frombuffer(bytearray(b"".join(x.to_bytes(size, "little") for x in masks)),
                         dtype="<u8").reshape(hot.size, -1)
    for column in ends.T:
        at = slot[column]
        take = removed & (at >= 0)
        c = colours[take]
        np.bitwise_xor.at(bits, (at[take], c >> 6),
                          np.uint64(1) << (c & 63).astype(np.uint64))
    at = slot[pairs]
    differ = bits[at[:, 0]] ^ bits[at[:, 1]]
    close = _POPCOUNT[differ.view(np.uint8)].sum(axis=1) < d
    return list(zip(*pairs[close].T.tolist()))


class _BulkCheck:
    """The bulk stage's bad events, with the per-graph work done once.

    A_pair: adjacent equal-degree high vertices, at least one holding m or
    more selected edges, whose restricted colour sets differ in fewer than d
    colours. B_vertex: a high vertex more than eps*max_degree of whose
    neighbours hold fewer than m selected edges.

    The candidate edges are the rows ``rows`` of ``g.edges`` with a high
    endpoint, in that order; their endpoints ``ends`` are the matching rows
    of ``g._ends``. A selection is a boolean array over them with its
    per-vertex counts. A_pair can only fire at an edge joining
    equal-degree high vertices, so those edges' endpoints, ``pair_ends``,
    are sliced up front. Only the pairs a selection count makes hot are
    tested, by ``_close`` with the selected edges removed. B_vertex counts
    under-selected neighbours of every high vertex with one bincount over
    the (``owner``, ``neighbours``) pairs, one per edge end at a high
    vertex.

    A vertex holds at most its candidate edges, so B_vertex fires in every
    round at the high vertices in ``forced``: those it fires at when every
    candidate edge is kept.
    """

    def __init__(self, g: Graph, phi: TotalColoring, m: int, d: int, eps: Fraction):
        self.m, self.d = m, d
        self.g, self.phi = g, phi
        self.high = np.array(sorted(degree_split(g).high), dtype=np.int64)
        ends = g._ends
        u, v = ends[:, 0], ends[:, 1]
        inside = np.zeros(g.n, dtype=bool)
        inside[self.high] = True
        high_u, high_v = inside[u], inside[v]
        degree = np.bincount(ends.ravel(), minlength=g.n)
        self.rows = np.flatnonzero(high_u | high_v)
        self.ends = ends[self.rows]
        self.pair_ends = ends[high_u & high_v & (degree[u] == degree[v])]
        self.owner = np.concatenate((u[high_u], v[high_v]))
        self.neighbours = np.concatenate((v[high_u], u[high_v]))
        # counts are integers, so count > eps*max_degree iff count > floor
        self.limit = math.floor(eps * g.max_degree)
        self.forced = tuple(self._starved(np.bincount(self.ends.ravel(), minlength=g.n)))
        self._colours: np.ndarray | None = None

    def _starved(self, deg_sel: np.ndarray) -> list[int]:
        """High vertices with more than eps*max_degree neighbours holding
        fewer than m of the counted edges, in ascending order."""
        under = np.bincount(self.owner[deg_sel[self.neighbours] < self.m],
                            minlength=self.g.n)
        return self.high[under[self.high] > self.limit].tolist()

    def events(self, selected: np.ndarray, deg_sel: np.ndarray) -> list[BadEvent]:
        events: list[BadEvent] = []
        hot = (deg_sel[self.pair_ends] >= self.m).any(axis=1)
        if hot.any():
            if self._colours is None:
                self._colours = np.fromiter(self.phi.edge_colors, dtype=np.int64,
                                            count=len(self.g.edges))[self.rows]
            events = [BadEvent("A_pair", pair) for pair in _close(
                self.phi.stars, self.pair_ends[hot], self.ends, self._colours, selected,
                self.d)]
        events.extend(BadEvent("B_vertex", (v,)) for v in self._starved(deg_sel))
        return events


def find_bulk_deletion(g: Graph, phi: TotalColoring,
                       params: PipelineParams | None = None) -> SelectionResult:
    """Search for a bulk selection with no bad events by resampling.

    Each round rechecks; a violated round resamples only the candidate-edge
    indicators within distance one of the witnesses. On failure the best
    selection seen (fewest events) is returned. The result's ``forced``
    lists the high vertices whose B_vertex event no draw can avoid; the
    search stops once the best round has no other event. Rounds hold their
    selection as a boolean array over the candidate edges; only the
    returned one becomes an EdgeSelection. phi must be a proper total
    colouring of g.
    """
    params = params or PipelineParams()
    resolved = params.resolve(g)
    check = _BulkCheck(g, phi, params.m, params.d, params.eps)
    cu, cv = check.ends[:, 0], check.ends[:, 1]

    def endpoint_counts(idx: np.ndarray) -> np.ndarray:
        return (np.bincount(cu[idx], minlength=g.n)
                + np.bincount(cv[idx], minlength=g.n))

    rng = substream(params.seed, BULK_STREAM)
    mask = rng.random(cu.size) < resolved.p if cu.size else np.zeros(0, dtype=bool)

    def evaluate():
        counts = endpoint_counts(np.flatnonzero(mask))
        keep = mask & (counts[cu] <= resolved.M) & (counts[cv] <= resolved.M)
        kept = np.flatnonzero(keep)
        return kept, check.events(keep, endpoint_counts(kept))

    closed: list[np.ndarray] = []

    def resample(violations: list[BadEvent]) -> None:
        if not closed:  # every closed neighbourhood, on the first resample
            ends = g._ends
            owner = np.concatenate((np.arange(g.n), ends[:, 1], ends[:, 0]))
            member = np.concatenate((np.arange(g.n), ends[:, 0], ends[:, 1]))
            # x lists itself, then its smaller neighbours, then its larger
            # ones, each part in row order: so x, then g.adjacency[x]
            closed.append(member[np.argsort(owner, kind="stable")])
            closed.append(np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=g.n)))))
        members, offset = closed
        witnesses = np.array([w for event in violations for w in event.witness],
                             dtype=np.int64)
        sizes = offset[witnesses + 1] - offset[witnesses]
        stops = np.cumsum(sizes)
        # the witnesses' closed neighbourhoods, in witness order; a vertex's
        # rank is its first position there. Each indicator is drawn in the
        # order of its better-ranked end, then of its index, so by the vertex
        # that first reaches it
        sequence = members[np.arange(stops[-1])
                           + np.repeat(offset[witnesses] - (stops - sizes), sizes)]
        rank = np.full(g.n, sequence.size, dtype=np.int64)
        np.minimum.at(rank, sequence, np.arange(sequence.size))
        first = np.minimum(rank[cu], rank[cv])
        idx = np.flatnonzero(first < sequence.size)
        idx = idx[np.argsort(first[idx], kind="stable")]
        mask[idx] = rng.random(idx.size) < resolved.p

    # at p = 1, or at a lam/max_degree that underflows to p = 0, the draw
    # is deterministic; resampling cannot change it
    result = _resample(g, check.rows, evaluate, resample, params,
                       fixed=resolved.p >= 1.0 or resolved.p <= 0.0,
                       floor=len(check.forced))
    return replace(result, forced=check.forced)


# ---------------------------------------------------------------------------
# patch stage

def light_vertices(g: Graph, selection: EdgeSelection, m: int) -> frozenset[int]:
    """High vertices holding fewer than m selected edges; ValueError unless
    selection was made on a graph equal to g and m is an integer of at
    least 1."""
    _require_on(g, selection)
    m = _integer("m", m)
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    return frozenset(v for v in degree_split(g).high
                     if selection.per_vertex_count[v] < m)


class _PatchCheck:
    """The patch stage's pools and bad events, built from the light
    vertices' adjacency alone.

    A2_overload: a vertex outside the light set, of degree above
    alpha*max_degree, incident to B or more patch edges. B2_pair: adjacent
    light vertices whose colour sets coincide once both stages' edges stop
    contributing.

    Light vertex ``order[r]`` draws from ``pools[r]``: indices into
    ``rows``, the concatenated pools, of the rows of ``g.edges`` holding
    its edges to non-light neighbours outside the bulk selection, by
    ascending neighbour. So a light vertex holds exactly B patch edges, and
    A2_overload can fire only at the ``heavy`` pool endpoints. The rows of
    every edge at a light vertex come from one ``graphs._edge_rows``
    lookup. B2_pair is ``_close`` at d = 1 on ``light_pairs``. Its
    ``removable`` edges, as endpoints and colours, are the bulk edges at
    light vertices, the first ``cleared`` of them and removed in every
    round, then the pools' edges in ``rows`` order, removed when chosen.
    """

    def __init__(self, g: Graph, phi: TotalColoring, bulk: EdgeSelection,
                 light: frozenset[int], alpha: Fraction, B: int):
        self.B, self.phi = B, phi
        # degrees are integers, so degree > alpha*max_degree iff degree > floor
        limit = math.floor(alpha * g.max_degree)
        self.order = sorted(light)
        self.light_pairs = np.array([(u, w) for u in self.order for w in g.adjacency[u]
                                     if u < w and w in light], dtype=np.int64).reshape(-1, 2)
        # the row of each edge at a light vertex, in the order visited below
        at = iter(_edge_rows(g, [(u, w) if u < w else (w, u) for u in self.order
                                 for w in g.adjacency[u]]).tolist())
        in_bulk = set(bulk.rows) if light else set()
        cleared: set[int] = set()
        rows: list[int] = []
        self.pools: list[np.ndarray] = []
        heavy: set[int] = set()
        for u in self.order:
            if not len(g.adjacency[u]) > limit:
                raise ValueError(f"light vertex {u} is not above the alpha threshold")
            start = len(rows)
            for w in g.adjacency[u]:
                row = next(at)
                if row in in_bulk:
                    cleared.add(row)
                elif w not in light:
                    rows.append(row)
                    if len(g.adjacency[w]) > limit:
                        heavy.add(w)
            self.pools.append(np.arange(start, len(rows), dtype=np.int64))
        self.rows = np.array(rows, dtype=np.int64)
        self.heavy = np.array(sorted(heavy), dtype=np.int64)
        removable = sorted(cleared) + rows
        self.cleared = len(cleared)
        self.removable = (g._ends[removable], np.array(
            [phi.edge_colors[r] for r in removable], dtype=np.int64))

    def events(self, chosen: np.ndarray, counts: np.ndarray) -> list[BadEvent]:
        heavy = self.heavy
        events = [BadEvent("A2_overload", (v,))
                  for v in heavy[counts[heavy] >= self.B].tolist()]
        if self.light_pairs.size:
            removed = np.arange(len(self.removable[1])) < self.cleared
            removed[self.cleared + chosen] = True
            events.extend(BadEvent("B2_pair", pair) for pair in _close(
                self.phi.stars, self.light_pairs, *self.removable, removed, 1))
        return events


def find_patch_deletion(g: Graph, phi: TotalColoring, bulk: EdgeSelection,
                        light: frozenset[int],
                        params: PipelineParams | None = None) -> SelectionResult:
    """Search for a patch selection with no bad events by resampling.

    Each light vertex draws B of its available edges: those to non-light
    neighbours outside the bulk selection. bulk must be made on a graph
    equal to g, and every member of light must be an int vertex of g at
    or above alpha*max_degree; anything else is a ValueError, raised
    before any pool is built. Structural infeasibility (a light vertex
    with fewer than B available edges) is detected up front and reported
    in the result, whose selection is then empty. A violated round
    redraws the B-subsets of light vertices in the witnesses' closed
    neighbourhoods, in witness order. Rounds hold their draws as indices
    into ``_PatchCheck.rows``; only the returned one becomes an
    EdgeSelection, of the rows they index. phi must be a proper total
    colouring of g.
    """
    params = params or PipelineParams()
    _require_on(g, bulk)
    light = frozenset(_integer("light vertex", x) for x in light)
    outside = [x for x in light if not 0 <= x < g.n]
    if outside:
        raise ValueError(f"light vertex {min(outside)} is not a vertex of the graph")
    check = _PatchCheck(g, phi, bulk, light, params.alpha, params.B)
    pools = check.pools
    for u, pool in zip(check.order, pools):
        if pool.size < params.B:
            return SelectionResult(EdgeSelection.from_edges(g, []), False, 0, (),
                                   infeasible_vertex=u)

    rng = substream(params.seed, PATCH_STREAM)
    ends = g._ends[check.rows]
    row = {u: r for r, u in enumerate(check.order)}

    def draw(r: int) -> np.ndarray:
        pool = pools[r]
        return pool[np.sort(rng.choice(pool.size, size=params.B, replace=False))]

    picks = np.array([draw(r) for r in range(len(pools))], dtype=np.int64)

    def evaluate():
        chosen = picks.ravel().copy()
        counts = np.bincount(ends[chosen].ravel(), minlength=g.n)
        return chosen, check.events(chosen, counts)

    def resample(violations: list[BadEvent]) -> None:
        redraw = dict.fromkeys(row[x] for event in violations for w in event.witness
                               for x in (w, *g.adjacency[w]) if x in row)
        for r in redraw:
            picks[r] = draw(r)

    # when every pool holds exactly B edges each draw is forced
    return _resample(g, check.rows, evaluate, resample, params,
                     fixed=all(pool.size == params.B for pool in pools), floor=0)
