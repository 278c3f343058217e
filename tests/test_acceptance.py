"""Release checks: nine binding criteria, one test per criterion.

Each test asserts its criterion outright and prints one PASS line with
the measured numbers (visible with -s, or in captured output otherwise).
Budgets, tolerances, and expected constants are pinned in the asserts.
"""

import json
import math
import time
from fractions import Fraction

import pytest

from avdtotal import (PipelineParams, check_conjecture, chi_at_exact,
                      chi_prime_exact, cli, complete_graph, degree_split,
                      derive_constants, distinguish_low_degree,
                      binom_lower_tail_log, binom_upper_tail_log,
                      greedy_total, lll_asymmetric_check, random_gnp,
                      run_pipeline, verdict, violations, vizing_color,
                      write_graph6, Graph)

from helpers import (connected_graphs, exact_lower_tail, exact_upper_tail,
                     from_edge_dict, with_private_vertex_colours)


@pytest.fixture(scope="module")
def dense_runs():
    """100 seeded pipeline runs on random graphs with max degree in [20, 64]."""
    configs = [(40, Fraction(3, 5)), (50, Fraction(1, 2)),
               (60, Fraction(2, 5)), (64, Fraction(4, 5))]
    runs = []
    seed = 0
    while len(runs) < 100:
        n, p = configs[len(runs) % 4]
        g = random_gnp(n, p, seed)
        if 20 <= g.max_degree <= 64:
            out, report = run_pipeline(g, params=PipelineParams(seed=seed))
            runs.append((g, out, report))
        seed += 1
    return runs


def test_criterion_1_exact_odd_clique_values():
    t0 = time.perf_counter()
    k3 = chi_at_exact(complete_graph(3))
    k5 = chi_at_exact(complete_graph(5))
    elapsed = time.perf_counter() - t0
    assert k3 == 5
    assert k5 == 7
    assert elapsed < 120.0
    print(f"criterion 1: PASS: chi_at(K_3)={k3}, chi_at(K_5)={k5}, "
          f"{elapsed:.1f}s (< 120s)")


def test_criterion_2_conjecture_scan_small_connected_graphs():
    t0 = time.perf_counter()
    corpus = [write_graph6(g) for n in range(1, 6) for g in connected_graphs(n)]
    assert len(corpus) == 31
    report = check_conjecture(corpus)
    elapsed = time.perf_counter() - t0
    assert len(report.records) == 31
    assert not report.violations
    tight = [r.graph6 for r in report.tight]
    assert "D~{" in tight  # K_5 attains max_degree + 3
    assert all(r.slack >= 0 for r in report.records)
    assert elapsed < 600.0
    print(f"criterion 2: PASS: 31 connected graphs on <=5 vertices, "
          f"0 violations, tight: {tight}, {elapsed:.1f}s (< 600s)")


def test_criterion_3_low_degree_phase_property_suite():
    t0 = time.perf_counter()
    probs = (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2))
    for seed in range(200):
        n = 2 + (seed * 7) % 49
        g = random_gnp(n, probs[seed % 3], seed)
        phi = greedy_total(g)
        out = distinguish_low_degree(g, phi)
        split = degree_split(g)
        assert verdict(g, out)["proper"]
        assert out.edge_colors == phi.edge_colors
        assert out.k == phi.k
        assert all(1 <= c <= out.k for c in out.vertex_colors)
        for v in split.high:
            assert out.vertex_colors[v] == phi.vertex_colors[v]
        for viol in violations(g, out):
            u, v = viol.witness
            assert u not in split.low and v not in split.low
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 3: PASS: 200 seeded graphs (n<=50), edge colours and "
          f"high vertex colours preserved, no low-degree clash, "
          f"{elapsed:.1f}s (< 60s)")


def test_criterion_4_pipeline_unconditional_guarantee(dense_runs):
    t0 = time.perf_counter()
    for g, out, report in dense_runs:
        assert violations(g, out) == []
        assert report.verified == {"proper": True, "avd": True}
        assert (report.final_k - report.input_k
                == report.fresh_palette_size + report.fallback_repairs)
    degs = [g.max_degree for g, _, _ in dense_runs]
    assert len(dense_runs) == 100
    assert min(degs) >= 20 and max(degs) <= 64
    elapsed = time.perf_counter() - t0
    print(f"criterion 4: PASS: 100 runs, max degree {min(degs)}..{max(degs)}, "
          f"all verified, palette accounting exact, checks {elapsed:.1f}s")


def test_criterion_5_palette_bound_on_successful_runs(dense_runs):
    # guaranteed both-stage successes to quantify over
    hub_edges = ([(0, 1)] + [(0, a) for a in range(2, 8)]
                 + [(1, b) for b in range(8, 14)])
    hub = Graph.build(14, hub_edges)
    hub_phi = from_edge_dict(
        hub, (1, 2, 4, 2, 2, 2, 2, 2, 3, 1, 1, 1, 1, 1),
        {(0, 1): 3, (0, 2): 2, (0, 3): 4, (0, 4): 5, (0, 5): 6, (0, 6): 7,
         (0, 7): 8, (1, 8): 1, (1, 9): 4, (1, 10): 5, (1, 11): 6, (1, 12): 7,
         (1, 13): 8}, 8)
    reports = [r for _, _, r in dense_runs]
    for seed in range(20):
        params = PipelineParams(m=5, d=1, eps=Fraction(9, 10), seed=seed)
        reports.append(run_pipeline(hub, hub_phi, params)[1])

    successes = [r for r in reports
                 if r.e1_success and r.e2_success and r.fallback_repairs == 0]
    assert successes, "need at least one run with both stages succeeding"
    for r in successes:
        assert r.final_k <= r.input_k + r.M + 3

    # with the override constants the additive budget is exactly 81 + 3
    override = PipelineParams(lam=34.0, M=81).resolve(complete_graph(12))
    assert override.M + 3 == 84

    rate = len(successes) / len(reports)
    print(f"criterion 5: PASS: {len(successes)}/{len(reports)} runs had both "
          f"stages succeed (frequency {rate:.2f}, reported not asserted); "
          f"final_k <= input_k + M + 3 on all of them; override budget "
          f"M + 3 = {override.M + 3}")


def test_criterion_6_tail_bounds_dominate_exact_binomials():
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 31):
        for num in range(1, 10):
            p = Fraction(num, 10)
            mean = n * p
            for m in range(1, n):
                if mean < m:
                    bound = math.exp(binom_upper_tail_log(n, p, m))
                    assert bound + 1e-12 >= float(exact_upper_tail(n, p, m))
                    checked += 1
                elif m < mean:
                    bound = math.exp(binom_lower_tail_log(n, p, m))
                    assert bound + 1e-12 >= float(exact_lower_tail(n, p, m))
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 6: PASS: {checked} grid points (n in 2..30, p in "
          f"0.1..0.9, all valid m), both bounds dominate with 1e-12 slack, "
          f"{elapsed:.1f}s (< 30s)")


def test_criterion_7_edge_coloring_budget_and_near_optimality():
    t0 = time.perf_counter()
    for seed in range(500):
        n = 2 + (seed * 11) % 59
        g = random_gnp(n, Fraction(1 + seed % 8, 10), seed)
        ec = vizing_color(g)
        assert violations(g, with_private_vertex_colours(g, ec)) == []
        assert set(ec.colors) == set(g.edges)
        assert all(1 <= c <= g.max_degree + 1 for c in ec.colors.values())
    mid = time.perf_counter()
    worst_gap = 0
    count = 0
    for n in range(2, 7):
        for g in connected_graphs(n):
            used = len(set(vizing_color(g).colors.values()))
            exact = chi_prime_exact(g)
            assert exact <= used <= exact + 1
            worst_gap = max(worst_gap, used - exact)
            count += 1
    elapsed = time.perf_counter() - t0
    print(f"criterion 7: PASS: 500 seeded graphs within max_degree+1 "
          f"({mid - t0:.1f}s); {count} connected graphs on <=6 vertices "
          f"within optimal+1 (worst gap {worst_gap}), total {elapsed:.1f}s")


def test_criterion_8_constants_formula_and_override_paths():
    dc = derive_constants(8, 4, Fraction(1, 3), 100)
    assert dc.lam == pytest.approx(49.2365, abs=1e-3)
    assert dc.M == 268

    override = PipelineParams(lam=34.0, M=81).resolve(complete_graph(12))
    assert override.lam == 34.0 and override.M == 81

    rep = lll_asymmetric_check(8, 4, Fraction(1, 3), dc.lam, dc.M, delta=10)
    assert rep.feasible is False
    assert len(rep.notes) >= 1
    print(f"criterion 8: PASS: lam={dc.lam:.4f} (49.2365 +- 0.001), M={dc.M}; "
          f"override lam=34 M=81 accepted; delta=10 check infeasible with "
          f"notes {list(rep.notes)}")


def test_criterion_9_byte_identical_reruns(tmp_path, capsys):
    k5 = tmp_path / "k5.g6"
    k5.write_text("D~{\n")
    k12 = tmp_path / "k12.g6"
    k12.write_text(write_graph6(complete_graph(12)) + "\n")

    combos = []
    for seed in range(5):
        s = str(seed)
        combos.extend([
            ["color", "--in", str(k5), "--json", "--seed", s],
            ["select-e1", "--in", str(k12), "--m", "6", "--d", "1",
             "--eps", "1/3", "--lambda", "6.0", "--json", "--seed", s],
            ["select-e2", "--in", str(k5), "--json", "--seed", s],
            ["bench", "--in", str(k5), "--runs", "2", "--json", "--seed", s],
        ])
    assert len(combos) == 20

    for i, argv in enumerate(combos):
        code_first = cli.main(argv)
        golden = tmp_path / f"golden-{i}.jsonl"
        golden.write_text(capsys.readouterr().out)
        code_second = cli.main(argv)
        rerun = capsys.readouterr().out
        assert code_second == code_first
        assert rerun == golden.read_text()
        for line in rerun.strip().split("\n"):
            json.loads(line)
    print("criterion 9: PASS: 20 subcommand/seed combinations, reruns "
          "byte-identical against golden files, every line valid JSON")
