"""Colour quality on graph families whose chi_at is known.

Paths, cycles, cliques and complete bipartite graphs have closed-form
distinguishing total chromatic numbers (Zhang et al., Sci. China Ser. A
48, 2005). Each formula is first confirmed by ``chi_at_exact`` on the
family's small members. The pipeline's colour count on large members,
far beyond the exact solver's guard, is then held between that floor and
the count it reaches now, so a change that spends more colours shows.
"""

import pytest

from avdtotal import (PipelineParams, chi_at_exact, complete_bipartite_graph,
                      complete_graph, cycle_graph, exact, path_graph,
                      run_pipeline, violations)


def chi_at_path(n):
    return 1 if n == 1 else 3 if n <= 3 else 4


def chi_at_cycle(n):
    return 5 if n == 3 else 4


def chi_at_complete(n):
    """n + 1 for even n, n + 2 for odd n >= 3."""
    return 1 if n == 1 else n + 1 + n % 2


def chi_at_complete_bipartite(a, b):
    """K_{a,b} with a <= b: b + 1, or b + 2 when a = b."""
    return b + 1 + (a == b)


@pytest.mark.parametrize("n", range(1, 21))
def test_path_formula(n):
    assert chi_at_exact(path_graph(n)) == chi_at_path(n)


@pytest.mark.parametrize("n", range(3, 21))
def test_cycle_formula(n):
    assert chi_at_exact(cycle_graph(n)) == chi_at_cycle(n)


@pytest.mark.parametrize("n", range(1, 8))
def test_complete_formula(n):
    # K8 is past the guard
    assert chi_at_exact(complete_graph(n)) == chi_at_complete(n)


@pytest.mark.parametrize("a, b", [
    (a, b) for a in range(1, exact.ELEMENT_GUARD) for b in range(a, exact.ELEMENT_GUARD)
    if a + b + a * b <= exact.ELEMENT_GUARD])
def test_complete_bipartite_formula(a, b):
    assert chi_at_exact(complete_bipartite_graph(a, b)) == chi_at_complete_bipartite(a, b)


# large members: the graph, its chi_at, and the pipeline's final_k at
# seeds 0-2 when this test was written
LARGE = {
    "K20": (complete_graph(20), chi_at_complete(20), 31),
    "K21": (complete_graph(21), chi_at_complete(21), 52),
    "K10,10": (complete_bipartite_graph(10, 10), chi_at_complete_bipartite(10, 10), 18),
    "K10,30": (complete_bipartite_graph(10, 30), chi_at_complete_bipartite(10, 30), 34),
    "K50,50": (complete_bipartite_graph(50, 50), chi_at_complete_bipartite(50, 50), 66),
    "C999": (cycle_graph(999), chi_at_cycle(999), 7),
    "C1001": (cycle_graph(1001), chi_at_cycle(1001), 7),
    "P1000": (path_graph(1000), chi_at_path(1000), 4),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", LARGE)
def test_pipeline_between_chi_at_and_todays_count(name, seed):
    g, chi_at, ceiling = LARGE[name]
    out, report = run_pipeline(g, params=PipelineParams(seed=seed))
    assert violations(g, out) == []
    assert chi_at <= report.final_k <= ceiling
