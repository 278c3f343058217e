"""Graph container, text formats, generators, and the low/high degree split."""

from __future__ import annotations

import gc
import itertools
import math
import numbers
import operator
import os
import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

Edge = tuple[int, int]

_G6_LOW = 63
# the graph6 size headers: a marker, then n in this many six-bit bytes,
# for n up to the bound
_G6_SIZES = (("", 1, 62), ("~", 3, 258047), ("~~", 6, (1 << 36) - 1))
_G6_OUTSIDE = re.compile("[^?-~]")  # the alphabet is chr(63) .. chr(126)
# each graph6 character's set bits, as offsets from its most significant
# bit; and a str.translate table that turns every character but "?", the
# zero value, into "1", which lies outside the alphabet, so that
# str.find("1") finds exactly the characters that set a bit
_G6_BITS = {chr(v + _G6_LOW): tuple(b for b in range(6) if v >> 5 - b & 1)
            for v in range(64)}
_G6_MARKS = dict.fromkeys(range(_G6_LOW + 1, _G6_LOW + 64), "1")
# each value's graph6 character
_G6_CHARS = bytes(b + _G6_LOW & 255 for b in range(256))


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class DimacsError(ValueError):
    """Malformed DIMACS colouring input."""


class CapacityError(ValueError):
    """Input exceeds a hard size guard."""


def _integer(name: str, value, error: type[ValueError] = ValueError) -> int:
    """value as an int when it is an integer (anything ``operator.index``
    takes, bool excluded); error, naming the argument, otherwise."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0 .. n-1``.

    ``edges`` is a sorted tuple of sorted pairs and the one copy of the
    edge list; adjacency lists and the maximum degree are built once at
    construction, the degree split and the endpoint array ``_ends`` on
    their first request. Instances are immutable.
    """

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)
    max_degree: int = field(compare=False)

    @classmethod
    def build(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        n = _integer("n", n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        # one C-level scan of the endpoint types: bools, numpy integers and
        # non-integers take the slow path, which converts or rejects them
        if not {int}.issuperset(map(type, itertools.chain.from_iterable(edges))):
            edges = [(_integer("edge endpoint", u), _integer("edge endpoint", v))
                     for u, v in edges]
        # an insertion-ordered dict, not a set, dedupes: sorting its keys
        # is linear when the edges arrive sorted, as from most generators
        seen: dict[Edge, None] = {}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            seen[(u, v) if u < v else (v, u)] = None
        return _assemble(n, tuple(sorted(seen)))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def _split(self) -> DegreeSplit:
        degrees = np.fromiter(map(len, self.adjacency), dtype=np.int64, count=self.n)
        low = 2 * degrees <= self.max_degree
        return DegreeSplit(low=frozenset(np.flatnonzero(low).tolist()),
                           high=frozenset(np.flatnonzero(~low).tolist()))

    @cached_property
    def _ends(self) -> np.ndarray:
        """The edges as a read-only (m, 2) int64 array, row i holding
        ``edges[i]``; built on first read, or set by the generator or
        DIMACS reader that made the graph."""
        ends = np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.int64,
                           count=2 * len(self.edges)).reshape(-1, 2)
        ends.flags.writeable = False
        return ends


def _assemble(n: int, ordered: tuple[Edge, ...]) -> Graph:
    """The graph on n vertices with edge tuple ordered, which must hold
    distinct pairs (u, v) of ints, 0 <= u < v < n, in sorted order; nothing
    is checked. ``Graph.build`` calls it once it has validated its input,
    and generators call it directly on output that is valid by construction.
    Only the adjacency lists are built here; ordered is kept as it is.
    """
    # in lexicographic edge order each vertex meets its smaller neighbours
    # first, then its larger ones, each ascending, so every adjacency list
    # comes out sorted
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in ordered:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n=n, edges=ordered, adjacency=tuple(map(tuple, adj)),
                 max_degree=max(map(len, adj), default=0))


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off, then restore its
    state; as a decorator, ``@_collector_paused()``, around each call. The
    one copy lives here, in the module every other module imports. Its
    users build large containers but no reference cycles, so reference
    counting frees them, and collector passes would only walk them:
    ``_from_ends``, which assembles the graphs of ``random_gnp`` and
    ``parse_dimacs``'s array reader; ``coloring.to_document``;
    ``pipeline.run_pipeline``; and ``cli.main``, around each command.
    ``TestCollectorPause`` in ``tests/test_graphs.py``, ``tests/test_cli.py``
    and ``tests/test_pipeline.py`` pins both facts."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def _from_ends(n: int, ends: np.ndarray) -> Graph:
    """``_assemble`` of the edges in the (m, 2) int64 array ends, which must
    meet its conditions row by row, with ``_ends`` set to ends, made
    read-only; with the cyclic collector paused, since its edge tuples and
    adjacency lists, one container per edge and per vertex, would otherwise
    set off collector passes that find nothing to free."""
    g = _assemble(n, tuple(zip(ends[:, 0].tolist(), ends[:, 1].tolist())))
    ends.flags.writeable = False
    object.__setattr__(g, "_ends", ends)
    return g


def _edge_rows(g: Graph, pairs: Sequence[Edge]) -> np.ndarray:
    """The one lookup from pairs to rows: the row of ``g.edges`` holding
    each pair of ints in pairs, as an int64 array, or -1 where the pair is
    not an edge of g named as ``g.edges`` names it, (u, v) with u < v.

    g.edges is sorted, so the keys u * n + v of its rows ascend, and one
    searchsorted finds every pair. A pair outside 0 <= u < v < n is never
    looked up, so its ints may be of any size."""
    inside = np.array([0 <= u < v < g.n for u, v in pairs], dtype=bool)
    ends = np.array(list(itertools.compress(pairs, inside)), dtype=np.int64).reshape(-1, 2)
    keys = g._ends[:, 0] * g.n + g._ends[:, 1]
    wanted = ends[:, 0] * g.n + ends[:, 1]
    found = np.searchsorted(keys, wanted)
    rows = np.full(inside.size, -1, dtype=np.int64)
    rows[inside] = np.where(np.append(keys, -1)[found] == wanted, found, -1)
    return rows


@dataclass(frozen=True)
class DegreeSplit:
    """Partition of the vertex set into low and high degree classes."""

    low: frozenset[int]
    high: frozenset[int]


def degree_split(g: Graph) -> DegreeSplit:
    """Split by the exact integer test: v is low iff 2*deg(v) <= max degree.

    An edgeless graph has every vertex low; any vertex of maximum degree
    at least one is high. Each graph computes its split once; later calls
    return the same object.
    """
    return g._split


# ---------------------------------------------------------------------------
# graph6

def _g6_header(n: int) -> str:
    """The shortest graph6 size header that holds n: its marker, then n in
    six-bit bytes, most significant first."""
    for marker, count, largest in _G6_SIZES:
        if n <= largest:
            return marker + "".join(chr((n >> shift & 63) + _G6_LOW)
                                    for shift in range(6 * count - 6, -1, -6))
    raise CapacityError(f"graph6 encodes at most {_G6_SIZES[-1][2]} vertices")


def parse_graph6(text: str) -> Graph:
    """Decode a single graph6 string, with the one-byte size header for
    n <= 62 or an extended one above; error offsets count from the start
    of the stripped text, header included."""
    s = text.strip()
    start = len(">>graph6<<") if s.startswith(">>graph6<<") else 0
    s = s[start:]
    if not s:
        raise Graph6Error("empty graph6 string", start)
    bad = _G6_OUTSIDE.search(s)
    if bad:
        raise Graph6Error(f"character {bad.group()!r} outside graph6 alphabet",
                          start + bad.start())
    # "~" opens an extended header, "~~" the longer one; n is read from
    # the six-bit bytes after it
    marker = "~~" if s.startswith("~~") else "~" if s[0] == "~" else ""
    _, count, _ = _G6_SIZES[len(marker)]
    offset = len(marker) + count
    size = s[len(marker):offset]
    if len(size) < count:
        raise Graph6Error(f"truncated extended size header: expected {count} "
                          f"bytes after {marker!r}, found {len(size)}", start)
    n = 0
    for ch in size:
        n = n << 6 | ord(ch) - _G6_LOW
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[offset:]
    if len(body) < nbytes:
        raise Graph6Error(
            f"truncated bit vector: expected {nbytes} bytes, found {len(body)}",
            start + offset + len(body))
    if len(body) > nbytes:
        raise Graph6Error("stray characters after bit vector", start + offset + nbytes)
    # bit j(j - 1)/2 + i stands for the pair i < j, so the set bits, read
    # in order, walk the columns j upwards; padding bits past nbits are
    # ignored. Each row i collects its j ascending, so the rows read in
    # order give the edges sorted. One translate marks the body's nonzero
    # characters, and str.find steps from one to the next.
    rows: list[list[int]] = [[] for _ in range(n)]
    j, column = 1, 0  # column j holds the bits column .. column + j - 1
    marks = body.translate(_G6_MARKS)
    at = marks.find("1")
    while at >= 0:
        for bit in _G6_BITS[body[at]]:
            index = 6 * at + bit
            if index >= nbits:
                break
            while index >= column + j:
                column += j
                j += 1
            rows[index - column].append(j)
        at = marks.find("1", at + 1)
    return _assemble(n, tuple([(i, j) for i, row in enumerate(rows) for j in row]))


def write_graph6(g: Graph) -> str:
    """Encode with the shortest size header that holds n: one byte for
    n <= 62, then "~" plus three bytes, then "~~" plus six, up to
    n = 2**36 - 1."""
    header = _g6_header(g.n)
    body = bytearray((g.n * (g.n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        index = j * (j - 1) // 2 + i
        body[index // 6] |= 32 >> index % 6
    return header + body.translate(_G6_CHARS).decode("ascii")


# ---------------------------------------------------------------------------
# DIMACS .col

# the largest vertex count a DIMACS problem line may declare. The count
# alone, not the text, sets how many adjacency lists are built, so a larger
# one is refused before any is
DIMACS_MAX_VERTICES = 1_000_000

# a DIMACS text the array reader takes, its lines joined by "\n": comment or
# empty lines, the problem line spaced by single blanks, then only edge
# records whose endpoints are at most 18 ASCII digits, which int64 holds
_DIMACS_PLAIN = re.compile(
    r"(?:c[^\n]*\n|\n)*p edge ([0-9]+) [0-9]+((?:\ne [0-9]{1,18} [0-9]{1,18})*)")


def parse_dimacs(text: str) -> Graph:
    """Read DIMACS colouring format: one ``p edge n m`` line, ``e u v`` lines
    with 1-based endpoints. Comments are skipped, duplicate edges collapse,
    self-loops are rejected. Every number is a run of ASCII digits, and n
    is at most ``DIMACS_MAX_VERTICES``; a larger n is a DimacsError naming
    n and the cap, raised once no line has a fault of its own and before
    any adjacency list is built.

    Two readers share the work, and give the same graph or error on every
    text. The array reader takes a text of comment or empty lines, the
    problem line and then only edge records, each single-spaced, with
    endpoints of at most 18 digits, in range and never equal: it reads
    every endpoint in one numpy call, with no Python step per line, and
    assembles the graph with the cyclic collector paused. Every
    other text, and every text that breaks a rule, goes to the line reader
    ``_parse_dimacs_lines``, the one place that names a fault and its line.
    """
    plain = _DIMACS_PLAIN.fullmatch("\n".join(text.splitlines()))
    if plain is not None and (n := _vertex_count(plain[1])) <= DIMACS_MAX_VERTICES:
        ends = np.fromstring(plain[2].replace("e", " "), np.int64, sep=" ").reshape(-1, 2) - 1
        u, v = ends[:, 0], ends[:, 1]
        # n is at most the cap, so every key lo * n + hi fits in int64
        if (not ends.size or 0 <= ends.min() <= ends.max() < n) and (u != v).all():
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            keys = lo * n + hi
            if (keys[1:] <= keys[:-1]).any():
                # sorted, each key kept where it differs from the one before:
                # np.unique's answer, without the numpy.ma import it makes
                keys = np.sort(keys)
                lo, hi = np.divmod(keys[np.append(True, keys[1:] != keys[:-1])], n)
            return _from_ends(n, np.column_stack((lo, hi)))
    return _parse_dimacs_lines(text)


def _vertex_count(digits: str) -> int | float:
    """The vertex count a run of ASCII digits declares, or math.inf for a
    run of over 4300 significant digits, which ``int`` refuses to read and
    which is above every endpoint ``int`` reads and above every cap."""
    try:
        return int(digits.lstrip("0") or "0")
    except ValueError:
        return math.inf


def _parse_dimacs_lines(text: str) -> Graph:
    """``parse_dimacs`` one line at a time, for any text. Every number is
    checked to be a run of ASCII digits before ``int`` reads it, since
    ``int`` also takes signs, underscores and other scripts' digits."""
    n: int | float | None = None
    edges: list[Edge] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        # one split per line; edge records, the bulk of a file, test first
        parts = line.split()
        if not parts:
            continue
        head = parts[0]
        if head == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise DimacsError(f"line {lineno}: expected 'e <u> <v>'")
            _, a, b = parts
            # two non-empty tokens are both digit runs when their
            # concatenation is one
            ab = a + b
            if not (ab.isdigit() and ab.isascii()):
                raise DimacsError(f"line {lineno}: non-integer endpoints")
            try:
                u, v = int(a) - 1, int(b) - 1
            except ValueError:  # int refuses runs of over 4300 digits
                raise DimacsError(f"line {lineno}: endpoint out of range") from None
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop at vertex {u + 1}")
            if not (0 <= u < n and 0 <= v < n):
                raise DimacsError(f"line {lineno}: endpoint out of range")
            edges.append((u, v))
        elif head[0] == "c":
            # the first token starts with c exactly when the stripped line does
            continue
        elif head == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise DimacsError(f"line {lineno}: expected 'p edge <n> <m>'")
            ab = parts[2] + parts[3]
            if not (ab.isdigit() and ab.isascii()):
                raise DimacsError(f"line {lineno}: non-integer problem sizes")
            n = _vertex_count(parts[2])
            declared = f"line {lineno}: vertex count {parts[2]}"
        else:
            raise DimacsError(f"line {lineno}: unrecognised record {head!r}")
    if n is None:
        raise DimacsError("missing problem line 'p edge <n> <m>'")
    if n > DIMACS_MAX_VERTICES:
        # checked once every line is, so a line's own fault is named first
        raise DimacsError(f"{declared} is above the cap of {DIMACS_MAX_VERTICES}")
    return Graph.build(n, edges)


# ---------------------------------------------------------------------------
# generators

def path_graph(n: int) -> Graph:
    n = _integer("n", n)
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    n = _integer("n", n)
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    n = _integer("n", n)
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph.build(n, itertools.combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    a, b = _integer("a", a), _integer("b", b)
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    return Graph.build(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the centre at vertex 0."""
    leaves = _integer("leaves", leaves)
    if leaves < 0:
        raise ValueError("leaf count must be non-negative")
    return Graph.build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


# random_gnp compares raw Philox words with its threshold in chunks of this
# many, and draws runs of this many chunks from one stream each. Philox is
# counter-based, so each run opens its own stream at its offset and the
# runs are drawn concurrently, while the output matches one single draw.
# Small chunks keep what each drawing thread allocates, and its malloc
# arena keeps after it ends, small
_GNP_CHUNK = 1 << 15
_GNP_RUN = 16


def _seed(seed) -> int:
    """A generator's seed as an int; ValueError naming it unless it is a
    non-negative integer, refused before any draw."""
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _generator_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi draw; deterministic for a fixed (n, p, seed). p is any
    real number in [0, 1] (an int, float or Fraction, say), bool excluded;
    seed is a non-negative integer, at every p.

    Pair k of the lexicographic order gets the k-th double of
    ``_generator_rng(seed).random``, and is an edge when that double is
    below p. The doubles are never formed: each raw Philox word is compared
    with an exact integer threshold, in chunks whose runs are drawn
    concurrently on the usable cores. The output depends on neither chunk
    size nor core count. p = 0 and p = 1 draw nothing. The graph is
    assembled from the drawn endpoint arrays with the cyclic collector
    paused (``_from_ends``).
    """
    n, seed = _integer("n", n), _seed(seed)
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if isinstance(p, bool) or not isinstance(p, numbers.Real):
        raise ValueError(f"edge probability p must be a real number, got {p!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    # the draws are doubles, so x < p holds exactly when x < t for the
    # least double t >= p. A draw is (raw >> 11) * 2**-53, so it is below t
    # exactly when raw is below K << 11, K = ceil(t * 2**53): one integer
    # compare per raw word, even for a Fraction. t = 1 takes every pair,
    # and K << 11 stays below 2**64 for every t < 1
    t = float(p)
    if t < p:
        t = math.nextafter(t, math.inf)
    bound = math.ceil(Fraction(t) * 2 ** 53) << 11
    # pair k of the lexicographic order (0,1), (0,2), .., (n-2,n-1) gets the
    # k-th draw; row i holds (i, i+1) .. (i, n-1) and starts at offsets[i]
    total = n * (n - 1) // 2
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * (n - 1) - rows * (rows - 1) // 2
    span = _GNP_RUN * _GNP_CHUNK
    limit = np.uint64(bound) if t < 1.0 else None

    def pairs(start: int) -> np.ndarray:
        """The edges among pairs start .. start + span - 1, as (i, j) rows."""
        stop = min(start + span, total)
        if limit is None:
            hits = np.arange(start, stop, dtype=np.int64)
        else:
            # Philox yields four words per counter step, so advance(d)
            # skips 4 * d words
            bits = np.random.Philox(np.random.SeedSequence(seed))
            bits.advance(start // 4)
            bits.random_raw(start % 4)
            hits = np.concatenate([
                at + np.flatnonzero(bits.random_raw(min(_GNP_CHUNK, stop - at)) < limit)
                for at in range(start, stop, _GNP_CHUNK)])
        i = np.searchsorted(offsets, hits, side="right") - 1
        return np.column_stack((i, hits - offsets[i] + i + 1))

    starts = range(0, total if bound else 0, span)
    workers = min(_usable_cores(), len(starts))
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            runs = list(pool.map(pairs, starts))
    else:
        runs = list(map(pairs, starts))
    # the pairs come out distinct, in range and in lexicographic order, so
    # the graph is assembled without Graph.build's checks
    return _from_ends(n, np.concatenate([np.zeros((0, 2), dtype=np.int64), *runs]))


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph by incremental pairing (Steger and Wormald,
    *Generating random regular graphs quickly*, CPC 8, 1999); deterministic
    for a fixed (n, d, seed).

    Requires 0 <= d < n, even n*d and a non-negative seed. Each step joins
    two free stubs drawn uniformly, rejecting a loop or a repeated edge, and
    the pairing restarts only when no two free stubs can be joined. Above
    d = (n-1)/2 it draws the complement's (n-1-d)-regular graph instead.
    K_n is the only (n-1)-regular graph on n labelled vertices, so d = n-1
    returns complete_graph(n).

    The pairing costs one Python step per stub pair, n*min(d, n-1-d)/2 of
    them plus the rejected draws, so it takes seconds near d = (n-1)/2: on
    one 2-core Xeon core with Python 3.11, (1000, 12, 0) took 0.015 s,
    (1000, 250, 0) 0.56 s, and (1000, 499, 0) and (1000, 500, 0) 1.8-2.0 s.
    """
    n, d, seed = _integer("n", n), _integer("d", d), _seed(seed)
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    if (n * d) % 2:
        raise ValueError("n*d must be even")
    if d == n - 1:
        return complete_graph(n)
    rng = _generator_rng(seed)
    if 2 * d > n - 1:
        missing = _regular_pairing(n, n - 1 - d, rng)
        return _assemble(n, tuple(e for e in itertools.combinations(range(n), 2)
                                  if e not in missing))
    return _assemble(n, tuple(sorted(_regular_pairing(n, d, rng))))


def _regular_pairing(n: int, d: int, rng: np.random.Generator) -> set[Edge]:
    """The edges, as sorted pairs, of a d-regular graph on n vertices drawn
    by incremental pairing; n*d must be even and 2d at most n - 1."""

    def uniforms() -> Iterator[float]:
        while True:
            yield from rng.random(1024).tolist()

    draw = uniforms().__next__
    while True:
        adj: list[set[int]] = [set() for _ in range(n)]
        free = [v for v in range(n) for _ in range(d)]  # one entry per free stub
        misses = 0
        while free:
            m = len(free)
            i, j = int(draw() * m), int(draw() * (m - 1))
            j += j >= i
            u, v = free[i], free[j]
            if u != v and v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                for k in (max(i, j), min(i, j)):
                    free[k] = free[-1]
                    free.pop()
                misses = 0
                continue
            misses += 1
            if misses == m:
                # m straight rejections: go on while some two free vertices
                # are distinct and not yet adjacent, restart otherwise
                left = set(free)
                if not any(len(left - adj[w]) > 1 for w in left):
                    break
                misses = 0
        else:
            return {(u, v) for u in range(n) for v in adj[u] if u < v}
