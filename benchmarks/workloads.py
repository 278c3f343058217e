"""The benchmark's workloads: seeded inputs, the call under test, and its check.

A workload turns the run's seed into cases (``setup``), hands each case to
the program (``solve``, the timed part) and checks what came back
(``finish``, untimed). Every case carries the edge list the benchmark
generated, which the oracle checks the output against, and a digest of that
list, which ``pins.json`` fixes per case key. See NOTES.md for why each
workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

import avdtotal
import avdtotal.cli
import oracle

DATA = Path(__file__).resolve().parent / "data"


def sha(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class Case:
    """One graph: what the program is given and what the oracle checks."""

    label: str
    key: int  # pin key: the graph's generator seed, or its corpus index
    n: int
    edges: list[tuple[int, int]]
    payload: object  # a Graph, DIMACS text or a graph6 line
    expected: int | None = None  # exact_small: chi_at recorded earlier

    @cached_property
    def digest(self) -> str:
        """Digest of the generated edge list; computed after set-up is timed."""
        return sha(f"{self.n}\n" + "".join(f"{u} {v}\n" for u, v in self.edges))

    @property
    def elements(self) -> int:
        return self.n + len(self.edges)


@dataclass
class Outcome:
    problems: list[str]
    growth: int  # colours above the maximum degree
    digest: str  # digest of the program's output document
    output_bytes: int = 0  # bytes the CLI wrote; 0 for library calls


def _check_pipeline_doc(case: Case, doc: dict, digest: str,
                        output_bytes: int = 0) -> Outcome:
    growth = doc.get("report", {}).get("final_k", 0) - oracle.max_degree(case.n, case.edges)
    return Outcome(oracle.check_document(case.n, case.edges, doc), growth,
                   digest, output_bytes)


class PipelineWorkload:
    """``run_pipeline`` on each case's Graph, pipeline seed = case key.

    A run solves the graphs of three consecutive seeds, so palette growth is
    averaged over more than one graph.
    """

    name = ""

    def keys(self, seed: int) -> list[int]:
        return [seed, seed + 1, seed + 2]

    def setup(self, seed: int) -> list[Case]:
        return [self.make_case(key) for key in self.keys(seed)]

    def make_case(self, key: int) -> Case:
        raise NotImplementedError

    def solve(self, case: Case):
        colored, report = avdtotal.run_pipeline(
            case.payload, params=avdtotal.PipelineParams(seed=case.key))
        doc = avdtotal.to_document(case.payload, colored)
        doc["report"] = report.to_json()
        return doc

    def finish(self, case: Case, doc) -> Outcome:
        return _check_pipeline_doc(case, doc, sha(json.dumps(doc, sort_keys=True)))


class DenseGnp(PipelineWorkload):
    name = "dense_gnp"

    def make_case(self, key):
        g = avdtotal.random_gnp(300, 0.5, seed=key)
        return Case(f"gnp300-{key}", key, g.n, list(g.edges), g)


def hub_edges(seed: int, n: int = 2000, background_degree: int = 6,
              hubs: int = 10, hub_degree: int = 300) -> list[tuple[int, int]]:
    """Random background of the given average degree plus a few big hubs.

    Each hub joins ``hub_degree`` distinct random vertices. Most hub
    neighbours are low-degree, which the bulk stage cannot satisfy.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([0x4855, seed])))
    m = n * background_degree // 2
    ends = rng.integers(0, n, size=(m, 2))
    edges = {(int(min(u, v)), int(max(u, v))) for u, v in ends if u != v}
    for h in rng.choice(n, size=hubs, replace=False):
        others = rng.choice(n - 1, size=hub_degree, replace=False)
        for w in others + (others >= h):
            edges.add((int(min(h, w)), int(max(h, w))))
    return sorted(edges)


class HubSkewed(PipelineWorkload):
    name = "hub_skewed"

    def make_case(self, key):
        edges = hub_edges(key)
        return Case(f"hub2000-{key}", key, 2000, edges,
                    avdtotal.Graph.build(2000, edges))


def to_dimacs(n: int, edges) -> str:
    return f"p edge {n} {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)


class SparseCli(PipelineWorkload):
    """``avdtotal color --format dimacs --json`` in-process, stdin to stdout."""

    name = "sparse_cli"

    def keys(self, seed):
        return [seed]  # one graph: its set-up alone takes seconds

    def make_case(self, key):
        g = avdtotal.random_gnp(5000, 0.004, seed=key)
        edges = list(g.edges)
        return Case(f"gnp5000-{key}", key, g.n, edges, to_dimacs(g.n, edges))

    def solve(self, case):
        out = io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(case.payload)
        try:
            with contextlib.redirect_stdout(out):
                code = avdtotal.cli.main(["color", "--format", "dimacs", "--json",
                                          "--seed", str(case.key)])
        finally:
            sys.stdin = stdin
        return code, out.getvalue()

    def finish(self, case, raw):
        code, text = raw
        data = text.encode()
        if code != 0:
            return Outcome([f"avdtotal color exited with {code}"], 0, sha(data), len(data))
        return _check_pipeline_doc(case, json.loads(text), sha(data), len(data))


class ExactSmall:
    """``check_conjecture`` on one graph6 line at a time, in a seeded order.

    The corpus is fixed: every connected graph on at most 6 vertices, then
    ``random_gnp(12, 0.35)`` at seeds 0-11. The seed only permutes it.
    """

    name = "exact_small"

    def __init__(self):
        recorded = json.loads((DATA / "exact_small.json").read_text())
        self.atlas = recorded["connected_up_to_6"]
        self.gnp12 = recorded["gnp12_p035_seeds_0_to_11"]
        k5 = avdtotal.write_graph6(avdtotal.complete_graph(5))
        if dict(self.atlas).get(k5) != 7:
            raise ValueError("recorded corpus must hold chi_at(K5) = 7")

    def keys(self, seed):
        order = list(range(len(self.atlas) + len(self.gnp12)))
        random.Random(seed).shuffle(order)
        return order

    def setup(self, seed):
        return [self.make_case(key) for key in self.keys(seed)]

    def make_case(self, key):
        if key < len(self.atlas):
            line, expected = self.atlas[key]
            label = f"atlas-{key}"
        else:
            s = key - len(self.atlas)
            line = avdtotal.write_graph6(avdtotal.random_gnp(12, 0.35, seed=s))
            expected = self.gnp12[s][1]
            label = f"gnp12-{s}"
        n, edges = oracle.decode_graph6(line)
        return Case(label, key, n, edges, line, expected)

    def solve(self, case):
        return avdtotal.check_conjecture([case.payload])

    def finish(self, case, report) -> Outcome:
        delta = oracle.max_degree(case.n, case.edges)
        recs = [(r.graph6, r.n, r.delta, r.chi_at, r.slack) for r in report.records]
        digest = sha(json.dumps(recs))
        if len(recs) != 1:
            return Outcome([f"{len(recs)} records for one graph6 line"], 0, digest)
        _, n, rec_delta, chi_at, slack = recs[0]
        problems = []
        if chi_at != case.expected:
            problems.append(f"chi_at={chi_at}, recorded {case.expected}")
        if (n, rec_delta, slack) != (case.n, delta, delta + 3 - chi_at):
            problems.append(f"record (n, delta, slack)={(n, rec_delta, slack)} "
                            f"disagrees with the graph")
        return Outcome(problems, chi_at - delta, digest)


WORKLOADS = {w.name: w for w in (DenseGnp, SparseCli, HubSkewed, ExactSmall)}
