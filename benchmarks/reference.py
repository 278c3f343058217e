"""Scale timings to a fixed machine speed, measured by a reference kernel.

On a shared machine the speed of this kind of code drifts by up to 2x over
seconds to minutes, for the same input, so raw wall times of one workload
spread far more across runs than any change worth measuring. The
benchmark therefore times a fixed pure-Python kernel, a greedy total
colouring of a fixed random graph that shares no code with avdtotal, between
the timed calls. A timing is scaled by ``REFERENCE_S`` over the mean kernel
time just before and just after it. The result reads as seconds on a machine
where the kernel takes ``REFERENCE_S``. The kernel runs outside every timed
region, and raw wall times stay in the run's details.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

# kernel time on the test machine when it was quiet (2-core Xeon VM)
REFERENCE_S = 0.1
# take a kernel sample whenever this much timed work has gone by
SEGMENT_S = 0.5


def _reference_graph(n: int = 130, seed: int = 11):
    rnd = random.Random(seed)
    edges = [(u, v) for v in range(n) for u in range(v) if rnd.random() < 0.5]
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return n, edges, adj


def _kernel(graph) -> int:
    """First-fit total colouring: vertices, then edges, smallest free colour."""
    n, edges, adj = graph
    vcol: dict[int, int] = {}
    ecol: dict[tuple[int, int], int] = {}
    for v in range(n):
        bad = set()
        for w in adj[v]:
            if w in vcol:
                bad.add(vcol[w])
        c = 1
        while c in bad:
            c += 1
        vcol[v] = c
    for u, v in edges:
        bad = {vcol[u], vcol[v]}
        for x in (u, v):
            for w in adj[x]:
                e = (x, w) if x < w else (w, x)
                if e in ecol:
                    bad.add(ecol[e])
        c = 1
        while c in bad:
            c += 1
        ecol[(u, v)] = c
    return max(ecol.values())


class SpeedReference:
    """Raw timings recorded in order, scaled once their segment is closed.

    ``record`` files a raw time in the open segment and closes it when the
    segment holds ``SEGMENT_S`` of work; ``close`` closes it early. A
    segment is bracketed by the kernel samples taken before and after it.
    """

    def __init__(self):
        self._graph = _reference_graph()
        self.samples: list[float] = []
        self._raw: list[float] = []
        self._segment: list[int] = []
        self._open_s = 0.0
        self._sample()

    def _sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not kernel time
        try:
            start = perf_counter()
            _kernel(self._graph)
            self.samples.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def record(self, raw_s: float) -> int:
        """File a raw timing; returns its handle for ``scaled``."""
        self._raw.append(raw_s)
        self._segment.append(len(self.samples))
        self._open_s += raw_s
        if self._open_s >= SEGMENT_S:
            self.close()
        return len(self._raw) - 1

    def close(self) -> None:
        if self._segment and self._segment[-1] == len(self.samples):
            self._sample()
            self._open_s = 0.0

    def scaled(self, handle: int) -> float:
        k = self._segment[handle]
        if k >= len(self.samples):
            raise RuntimeError("segment still open; call close() first")
        return self._raw[handle] * REFERENCE_S * 2 / (self.samples[k - 1] + self.samples[k])
