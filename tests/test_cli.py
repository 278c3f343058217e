"""Command-line interface: exit codes, JSON output, error handling.

Every invocation goes through cli.main(argv) in process so stdout and
stderr can be captured byte for byte.
"""

import argparse
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from avdtotal import (Graph, PipelineParams, TotalColoring, cli, complete_graph,
                      cycle_graph, greedy_total, path_graph, random_gnp,
                      run_pipeline, star_graph, to_document, write_graph6)
from avdtotal import bounds as bounds_mod
from avdtotal import coloring as coloring_mod
from avdtotal import pipeline as pipeline_mod

from helpers import from_edge_dict
from test_golden import CASES as GOLDEN_CASES


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.g6"
    p.write_text("C~\n")
    return str(p)


@pytest.fixture
def k5_file(tmp_path):
    p = tmp_path / "k5.g6"
    p.write_text("D~{\n")
    return str(p)


@pytest.fixture
def clean_doc(tmp_path):
    g = complete_graph(4)
    p = tmp_path / "k4-doc.json"
    p.write_text(json.dumps(to_document(g, greedy_total(g))))
    return str(p)


@pytest.fixture
def clashing_doc(tmp_path):
    # proper on C_4, single undistinguished pair (0, 1)
    g = cycle_graph(4)
    phi = from_edge_dict(g, (1, 2, 4, 3),
                         {(0, 1): 3, (1, 2): 1, (2, 3): 5, (0, 3): 2}, 5)
    p = tmp_path / "c4-clash.json"
    p.write_text(json.dumps(to_document(g, phi)))
    return str(p)


@pytest.fixture
def improper_k4_doc(tmp_path):
    # vertices 0 and 1 share colour 1 across the edge (0, 1); the palette is
    # wide enough that only properness can be at fault
    g = complete_graph(4)
    phi = greedy_total(g)
    phi = TotalColoring((1, 1) + phi.vertex_colors[2:], phi.edge_colors, 10, g)
    p = tmp_path / "k4-improper.json"
    p.write_text(json.dumps(to_document(g, phi)))
    return str(p)


def count_verifier_calls(monkeypatch) -> Counter:
    """Count the verifier and its building blocks in every module that binds
    them, so calls across modules are seen too. ``_judge`` is the one
    verifier pass: ``violations`` and the entry check ``_require_proper``,
    which the pipeline and the CLI share, each call it once.
    ``_closed_stars`` is the one mask builder: only the copy that the entry
    check returns calls it, once, when a phase first reads its masks.
    ``_colour_arrays`` is the one colour reader: ``check_total`` (which
    ``from_document`` calls), ``violations`` and the entry check each call
    it once."""
    calls = Counter()
    for name in ("violations", "_colour_arrays", "_judge", "_closed_stars"):
        def counting(*args, _name=name, _original=getattr(coloring_mod, name)):
            calls[_name] += 1
            return _original(*args)

        for module in (coloring_mod, pipeline_mod, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls


def strict_loads(text):
    """json.loads that rejects the NaN and Infinity tokens strict JSON lacks."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = run([], capsys)
        assert code == 2
        assert "usage" in err

    def test_help_exits_clean(self, capsys):
        assert run(["--help"], capsys)[0] == 0

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"], capsys)[0] == 2

    def test_seed_warning_on_seedless_command(self, clean_doc, capsys):
        code, _, err = run(["verify", "--in", clean_doc, "--seed", "5"], capsys)
        assert code == 0
        assert "warning: --seed has no effect for verify" in err

    def test_no_warning_where_seed_applies(self, k4_file, capsys):
        _, _, err = run(["color", "--in", k4_file, "--seed", "5"], capsys)
        assert "warning" not in err

    def test_parser_built_once_serves_every_call(self, tmp_path, capsys):
        # each command's output from a freshly built parser, then from the
        # one the previous call left: color on K_5, verify of its document
        graph, doc = tmp_path / "k5.g6", tmp_path / "k5.json"
        graph.write_text("D~{\n")
        firsts = []
        for argv in (["color", "--json", "--in", str(graph)],
                     ["verify", "--json", "--in", str(doc)]):
            cli.build_parser.cache_clear()
            firsts.append(run(argv, capsys))
            if argv[0] == "color":
                doc.write_text(firsts[-1][1])
        cli.build_parser.cache_clear()
        parser = cli.build_parser()
        again = [run(["color", "--json", "--in", str(graph)], capsys),
                 run(["verify", "--json", "--in", str(doc)], capsys)]
        assert cli.build_parser() is parser
        assert again == firsts and [code for code, _, _ in again] == [0, 0]


class TestColor:
    def test_json_document(self, k4_file, capsys):
        code, out, _ = run(["color", "--in", k4_file, "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 4 and doc["verified"] == {"avd": True, "proper": True}
        report = doc["report"]
        assert report["final_k"] - report["input_k"] == (
            report["fresh_palette_size"] + report["fallback_repairs"])
        assert "phase_timings" not in report

    def test_single_sorted_json_line(self, k4_file, capsys):
        _, out, _ = run(["color", "--in", k4_file, "--json"], capsys)
        assert out.count("\n") == 1
        keys = list(json.loads(out))
        assert keys == sorted(keys)

    def test_reruns_are_byte_identical(self, k5_file, capsys):
        a = run(["color", "--in", k5_file, "--json", "--seed", "3"], capsys)
        b = run(["color", "--in", k5_file, "--json", "--seed", "3"], capsys)
        assert a == b

    def test_human_output_mentions_palette(self, k4_file, capsys):
        code, out, _ = run(["color", "--in", k4_file], capsys)
        assert code == 0
        assert "palette" in out and "verified" in out

    def test_seed_coloring_must_match_graph(self, k5_file, clean_doc, capsys):
        code, _, err = run(["color", "--in", k5_file,
                            "--seed-coloring", clean_doc], capsys)
        assert code == 2
        assert "does not match" in err

    def test_seed_coloring_accepted(self, k4_file, clean_doc, capsys):
        code, out, _ = run(["color", "--in", k4_file, "--json",
                            "--seed-coloring", clean_doc], capsys)
        assert code == 0
        assert json.loads(out)["verified"] == {"avd": True, "proper": True}

    def test_alpha_above_half_rejected_up_front(self, tmp_path, capsys):
        # the paw, a triangle with a pendant edge (max degree 3): at alpha
        # 3/4 its light vertex of degree 2 is not above alpha * 3, which
        # aborted the patch stage mid-pipeline
        paw = tmp_path / "paw.g6"
        paw.write_text("Cx\n")
        code, out, err = run(["color", "--in", str(paw), "--alpha", "3/4",
                              "--json"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: alpha ")
        code, out, _ = run(["color", "--in", str(paw), "--alpha", "1/2",
                            "--json"], capsys)
        assert code == 0
        doc = tmp_path / "paw.json"
        doc.write_text(out)
        assert run(["verify", "--in", str(doc), "--json"], capsys)[0] == 0

    def test_reads_stdin_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("C~\n"))
        code, out, _ = run(["color", "--json"], capsys)
        assert code == 0 and json.loads(out)["n"] == 4

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_input_is_parse_error(self, text, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, _, err = run(["color", "--json"], capsys)
        assert code == 2
        assert err == "error: no graph6 line found in input (byte 0)\n"

    def test_header_only_input_is_parse_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(">>graph6<<\n"))
        code, out, err = run(["color", "--json"], capsys)
        assert code == 2 and out == ""
        assert err == "error: empty graph6 string (byte 10)\n"

    def test_infinite_lambda_is_domain_error(self, k4_file, capsys):
        code, _, err = run(["color", "--in", k4_file, "--lambda", "inf"], capsys)
        assert code == 2
        assert err.startswith("error: lam override")

    def test_one_properness_pass(self, k5_file, capsys, monkeypatch):
        # the greedy seed carries its masks, so the one verifier pass is at
        # the exit; the document reuses its verdict instead of verifying
        # again, and no witness lister runs on a proper colouring
        calls = count_verifier_calls(monkeypatch)
        code, out, _ = run(["color", "--in", k5_file, "--json"], capsys)
        assert code == 0 and json.loads(out)["report"]["short_circuit"] is False
        assert calls == {"_judge": 1, "violations": 1, "_colour_arrays": 1}

    def test_short_circuit_reuses_entry_pass(self, k4_file, clean_doc, capsys,
                                             monkeypatch):
        calls = count_verifier_calls(monkeypatch)
        code, out, _ = run(["color", "--in", k4_file, "--json",
                            "--seed-coloring", clean_doc], capsys)
        assert code == 0 and json.loads(out)["report"]["short_circuit"] is True
        # from_document checks the seed document once more on loading
        assert calls == {"_judge": 1, "_closed_stars": 1, "_colour_arrays": 2}


class TestVerify:
    def test_clean_document(self, clean_doc, capsys):
        code, out, _ = run(["verify", "--in", clean_doc, "--json"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["verified"] == {"avd": True, "proper": True}
        assert got["violations"] == []

    def test_clashing_document_exits_one(self, clashing_doc, capsys):
        code, out, _ = run(["verify", "--in", clashing_doc, "--json"], capsys)
        assert code == 1
        got = json.loads(out)
        assert got["verified"] == {"avd": False, "proper": True}
        assert got["violations"] == [
            {"kind": "undistinguished-pair", "witness": [0, 1]}]

    def test_human_output_lists_witnesses(self, clashing_doc, capsys):
        code, out, _ = run(["verify", "--in", clashing_doc], capsys)
        assert code == 1
        assert "undistinguished-pair" in out

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "junk.json"
        p.write_text("{nope")
        code, _, err = run(["verify", "--in", str(p)], capsys)
        assert code == 2
        assert err.startswith("error: invalid JSON")

    def test_missing_file(self, capsys):
        code, _, err = run(["verify", "--in", "/no/such/file.json"], capsys)
        assert code == 2
        assert err.startswith("error:")


class TestDistinguishLow:
    def test_recolors_and_reports(self, tmp_path, capsys):
        g = Graph.build(8, [(0, 1), (0, 2), (1, 7), (2, 3), (2, 4), (2, 5), (2, 6)])
        phi = from_edge_dict(
            g, (2, 3, 4, 2, 1, 1, 1, 1),
            {(0, 1): 1, (0, 2): 3, (1, 7): 2, (2, 3): 1, (2, 4): 2,
             (2, 5): 5, (2, 6): 6}, 6)
        p = tmp_path / "low.json"
        p.write_text(json.dumps(to_document(g, phi)))
        code, out, _ = run(["distinguish-low", "--in", str(p), "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["vertex_colors"][0] == 5
        assert doc["verified"]["proper"] is True

    def test_one_verifier_pass_each_side(self, clean_doc, capsys, monkeypatch):
        # the input check and the output flags are one verifier pass each,
        # and the third colour read is from_document's, on loading; K4 has
        # no low vertex, so the phase returns before it reads any mask
        calls = count_verifier_calls(monkeypatch)
        code, _, _ = run(["distinguish-low", "--in", clean_doc, "--json"], capsys)
        assert code == 0
        assert calls == {"_judge": 2, "violations": 1, "_colour_arrays": 3}

    def test_one_mask_build_with_low_vertices(self, tmp_path, capsys, monkeypatch):
        # with low vertices the phase reads the masks the input check built,
        # once
        g = star_graph(4)
        p = tmp_path / "star.json"
        p.write_text(json.dumps(to_document(g, greedy_total(g))))
        calls = count_verifier_calls(monkeypatch)
        code, _, _ = run(["distinguish-low", "--in", str(p), "--json"], capsys)
        assert code == 0
        assert calls == {"_judge": 2, "_closed_stars": 1, "violations": 1,
                         "_colour_arrays": 3}


class TestSelections:
    def test_bulk_success_exit_zero(self, tmp_path, capsys):
        p = tmp_path / "k12.g6"
        p.write_text(write_graph6(complete_graph(12)) + "\n")
        code, out, _ = run(["select-e1", "--in", str(p), "--m", "6", "--d", "1",
                            "--eps", "1/3", "--lambda", "6.0", "--seed", "7",
                            "--json"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["success"] is True and got["rounds"] == 5
        assert got["M"] == 33 and got["violations"] == [] and got["forced"] == []

    def test_bulk_failure_exit_one(self, k4_file, capsys):
        # K_4 is too sparse for the deletion thresholds, so the stage
        # reports its best attempt and fails
        code, out, _ = run(["select-e1", "--in", k4_file, "--json"], capsys)
        assert code == 1
        got = json.loads(out)
        assert got["success"] is False
        assert all(v["kind"] in ("A_pair", "B_vertex") for v in got["violations"])
        # each vertex lies on 3 < m = 8 edges, so B_vertex is forced everywhere
        assert got["forced"] == [0, 1, 2, 3]

    def test_both_stages_reported(self, k5_file, capsys):
        code, out, _ = run(["select-e2", "--in", k5_file, "--seed", "0",
                            "--json"], capsys)
        assert code == 1
        got = json.loads(out)
        assert set(got) == {"bulk", "light", "patch"}
        assert got["light"] == [0, 1, 2, 3, 4]
        assert got["bulk"]["forced"] == [0, 1, 2, 3, 4]
        assert got["patch"]["success"] is False and got["patch"]["forced"] == []
        assert got["patch"]["infeasible_vertex"] == 0

    def test_patch_draws_B_edges_at_each_light_vertex(self, tmp_path, capsys):
        # at lambda 6 the bulk stage leaves light vertices with room to draw
        p = tmp_path / "gnp20.g6"
        p.write_text(write_graph6(random_gnp(20, 0.5, 2)) + "\n")
        code, out, _ = run(["select-e2", "--in", str(p), "--m", "5", "--d", "1",
                            "--lambda", "6", "--seed", "2", "--json"], capsys)
        got = strict_loads(out)
        patch, light = got["patch"], got["light"]
        assert code == 0 and patch["success"] is True
        assert light and patch["infeasible_vertex"] is None and patch["rounds"] > 1
        assert all(patch["per_vertex_count"][v] == 2 for v in light)
        assert len(patch["edges"]) == 2 * len(light)
        assert not {tuple(e) for e in patch["edges"]} & {tuple(e) for e in got["bulk"]["edges"]}

    @pytest.mark.parametrize("cmd", ["select-e1", "select-e2"])
    def test_seed_coloring_checked_once(self, cmd, k4_file, clean_doc, capsys,
                                        monkeypatch):
        # the stages read the masks the input check built, and only when
        # they need them: no pair of K4 is hot (no vertex holds m = 8
        # selected edges), so the bulk stage reads none, and every K4
        # vertex is light with no edge to draw, so the patch stage stops
        # before its first check and reads none either; the second colour
        # read is from_document's, on loading
        calls = count_verifier_calls(monkeypatch)
        code, _, _ = run([cmd, "--in", k4_file, "--json",
                          "--seed-coloring", clean_doc], capsys)
        assert code in (0, 1)
        assert calls == {"_judge": 1, "_colour_arrays": 2}

    def test_one_mask_build_with_hot_pairs(self, tmp_path, capsys, monkeypatch):
        # at m = 6 the pairs of K12 are hot, so the bulk stage reads the
        # masks the input check built: once, over all its rounds
        g = complete_graph(12)
        graph = tmp_path / "k12.g6"
        graph.write_text(write_graph6(g) + "\n")
        doc = tmp_path / "k12-doc.json"
        doc.write_text(json.dumps(to_document(g, greedy_total(g))))
        calls = count_verifier_calls(monkeypatch)
        code, out, _ = run(["select-e1", "--in", str(graph), "--m", "6", "--d", "1",
                            "--lambda", "6.0", "--seed", "7", "--json",
                            "--seed-coloring", str(doc)], capsys)
        assert code in (0, 1) and json.loads(out)["rounds"] > 1
        assert calls == {"_judge": 1, "_closed_stars": 1, "_colour_arrays": 2}


class TestRepairingRun:
    def test_one_violations_pass_after_the_phases(self, monkeypatch):
        # the repair step leaves its result to the pipeline's exit pass,
        # the only pass of a self-seeded run
        calls = count_verifier_calls(monkeypatch)
        _, report = pipeline_mod.run_pipeline(random_gnp(200, 0.05, 0),
                                              params=PipelineParams(seed=0, lam=1.0))
        assert report.fallback_repairs == 2
        assert calls == {"_judge": 1, "violations": 1, "_colour_arrays": 1}
        # a supplied seed keeps its entry pass
        calls.clear()
        g = random_gnp(200, 0.05, 0)
        _, report = pipeline_mod.run_pipeline(g, greedy_total(g),
                                              PipelineParams(seed=0, lam=1.0))
        assert report.fallback_repairs == 2
        assert calls == {"_judge": 2, "_closed_stars": 1, "violations": 1,
                         "_colour_arrays": 2}


class TestImproperInput:
    """Every command that feeds a document to a phase rejects an improper one."""

    @pytest.mark.parametrize("cmd", ["color", "select-e1", "select-e2"])
    def test_seed_coloring_rejected(self, cmd, k4_file, improper_k4_doc, capsys):
        code, out, err = run([cmd, "--in", k4_file, "--json",
                              "--seed-coloring", improper_k4_doc], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "proper" in err

    def test_distinguish_low_rejects(self, improper_k4_doc, capsys):
        code, out, err = run(["distinguish-low", "--in", improper_k4_doc,
                              "--json"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "proper" in err

    def test_verify_still_reports(self, improper_k4_doc, capsys):
        code, out, _ = run(["verify", "--in", improper_k4_doc, "--json"], capsys)
        assert code == 1
        assert json.loads(out)["verified"] == {"avd": False, "proper": False}

    def test_one_error_line(self, k4_file, improper_k4_doc, capsys):
        # the one entry check words the refusal the same for every command,
        # and for run_pipeline given the colouring itself
        line = "colouring is not proper: vertex-vertex at (0, 1)"
        errs = [run([cmd, "--in", k4_file, "--seed-coloring", improper_k4_doc,
                     "--json"], capsys)[2] for cmd in ("color", "select-e1", "select-e2")]
        errs.append(run(["distinguish-low", "--in", improper_k4_doc, "--json"],
                        capsys)[2])
        assert errs == [f"error: {line}\n"] * 4
        g, phi = cli._load_document(improper_k4_doc)
        with pytest.raises(ValueError, match=re.escape(line)):
            run_pipeline(g, phi)


def shifted_k5_doc(tmp_path, k5_file, capsys, shift):
    """K_5's own ``color --json`` document with every colour and k raised by
    shift, written to a file; returns its path and its k."""
    code, out, _ = run(["color", "--in", k5_file, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    doc["k"] += shift
    doc["vertex_colors"] = [c + shift for c in doc["vertex_colors"]]
    doc["edge_colors"] = [{**r, "c": r["c"] + shift} for r in doc["edge_colors"]]
    path = tmp_path / f"k5-shifted-{shift}.json"
    path.write_text(json.dumps(doc))
    return str(path), doc["k"]


def phase_argv(cmd, k5_file, doc):
    """cmd handing the colouring document doc to a phase, on K_5."""
    if cmd == "distinguish-low":
        return [cmd, "--in", doc, "--json"]
    return [cmd, "--in", k5_file, "--seed-coloring", doc, "--json"]


class TestPaletteBound:
    """The entry check refuses k > 2(n + |E|) + 1 before any mask is built:
    colours beyond 64 bits once ended in an OverflowError, and colours near
    2**30 took seconds of mask arithmetic."""

    PHASE_COMMANDS = ["distinguish-low", "color", "select-e1", "select-e2"]

    @pytest.mark.parametrize("shift", [2 ** 70, 2 ** 30], ids=["2**70", "2**30"])
    @pytest.mark.parametrize("cmd", PHASE_COMMANDS)
    def test_huge_palette_refused(self, cmd, shift, k5_file, tmp_path, capsys):
        doc, k = shifted_k5_doc(tmp_path, k5_file, capsys, shift)
        code, out, err = run(phase_argv(cmd, k5_file, doc), capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"k={k}" in err and "Traceback" not in err

    @pytest.mark.parametrize("shift", [2 ** 70, 2 ** 30], ids=["2**70", "2**30"])
    def test_verify_still_accepts(self, shift, k5_file, tmp_path, capsys):
        doc, _ = shifted_k5_doc(tmp_path, k5_file, capsys, shift)
        code, out, _ = run(["verify", "--in", doc, "--json"], capsys)
        assert code == 0
        assert json.loads(out)["verified"] == {"avd": True, "proper": True}

    @pytest.mark.parametrize("cmd", ["distinguish-low", "color"])
    def test_own_document_accepted(self, cmd, k5_file, tmp_path, capsys):
        doc, _ = shifted_k5_doc(tmp_path, k5_file, capsys, 0)
        code, out, _ = run(phase_argv(cmd, k5_file, doc), capsys)
        assert code == 0
        assert json.loads(out)["verified"] == {"avd": True, "proper": True}


class TestSmallTools:
    def test_edge_color(self, k4_file, capsys):
        code, out, _ = run(["edge-color", "--in", k4_file, "--json"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["palette_bound"] == 4 and got["used"] <= 4
        assert len(got["edge_colors"]) == 6

    def test_seed_color(self, k4_file, capsys):
        code, out, _ = run(["seed-color", "--in", k4_file, "--json"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["k"] == 7
        assert got["verified"]["proper"] is True

    def test_exact_stat(self, k4_file, capsys):
        code, out, _ = run(["exact", "--in", k4_file, "--stat", "chi_at",
                            "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {"stat": "chi_at", "value": 5, "n": 4,
                                   "edges": 6, "max_degree": 3}

    def test_exact_requires_stat(self, k4_file, capsys):
        assert run(["exact", "--in", k4_file], capsys)[0] == 2

    def test_dimacs_input(self, tmp_path, capsys):
        p = tmp_path / "k4.col"
        p.write_text("p edge 4 6\n" + "".join(
            f"e {u + 1} {v + 1}\n" for u in range(4) for v in range(u + 1, 4)))
        code, out, _ = run(["exact", "--in", str(p), "--format", "dimacs",
                            "--stat", "chi_prime", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 3

    def test_exact_chi_prime_k9(self, tmp_path, capsys):
        # 36 edges, inside the search guard; answered by the counting exit
        p = tmp_path / "k9.g6"
        p.write_text(write_graph6(complete_graph(9)) + "\n")
        code, out, _ = run(["exact", "--in", str(p), "--stat", "chi_prime",
                            "--json"], capsys)
        assert code == 0
        assert json.loads(out) == {"stat": "chi_prime", "value": 9, "n": 9,
                                   "edges": 36, "max_degree": 8}

    def test_bad_graph6(self, tmp_path, capsys):
        p = tmp_path / "bad.g6"
        p.write_text("C~!!!\n")
        code, _, err = run(["exact", "--in", str(p), "--stat", "chi_at"], capsys)
        assert code == 2
        assert err.startswith("error:")


class TestConjectureScan:
    def test_corpus_scan(self, tmp_path, capsys):
        p = tmp_path / "corpus.g6"
        p.write_text("Bw\nC~\nD~{\n")
        code, out, _ = run(["check-conjecture", "--corpus", str(p), "--json"],
                           capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert json.loads(lines[-1]) == {
            "graphs": 3, "tight": ["Bw", "D~{"], "violations": []}
        first = json.loads(lines[0])
        assert first == {"graph6": "Bw", "n": 3, "delta": 2, "chi_at": 5,
                         "slack": 0}

    def test_text_mode_marks_tight_graphs(self, tmp_path, capsys):
        p = tmp_path / "corpus.g6"
        p.write_text("Bw\nC~\n")
        code, out, _ = run(["check-conjecture", "--corpus", str(p)], capsys)
        assert code == 0
        assert "TIGHT" in out

    def test_parse_error_names_line(self, tmp_path, capsys):
        p = tmp_path / "corpus.g6"
        p.write_text("Bw\n!!!\n")
        code, _, err = run(["check-conjecture", "--corpus", str(p)], capsys)
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_parse_error_names_offset_once(self, mode, tmp_path, capsys):
        p = tmp_path / "corpus.g6"
        p.write_text("Bw\nD~\n")
        code, out, err = run(["check-conjecture", "--corpus", str(p), *mode],
                             capsys)
        assert (code, out) == (2, "")
        assert err == ("error: line 2: truncated bit vector: expected 2 bytes, "
                       "found 1 (byte 2)\n")

    def test_header_only_line_is_parse_error(self, tmp_path, capsys):
        p = tmp_path / "corpus.g6"
        p.write_text("Bw\n>>graph6<<\n")
        code, _, err = run(["check-conjecture", "--corpus", str(p)], capsys)
        assert code == 2 and "Traceback" not in err
        assert err.startswith("error: line 2: empty graph6 string (byte 10)")


class TestBounds:
    def test_upper_tail(self, capsys):
        code, out, _ = run(["bounds", "--cmd", "tail", "--tail", "upper",
                            "--n", "100", "--p", "1/10", "--m", "20",
                            "--json"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["bound"] == pytest.approx(0.021006074709708094, rel=1e-12)
        assert got["p"] == "1/10"

    def test_lower_tail(self, capsys):
        code, out, _ = run(["bounds", "--cmd", "tail", "--tail", "lower",
                            "--n", "100", "--p", "1/2", "--m", "40",
                            "--json"], capsys)
        assert code == 0
        assert json.loads(out)["log_bound"] == pytest.approx(-1.0)

    def test_tail_requires_inputs(self, capsys):
        code, _, err = run(["bounds", "--cmd", "tail", "--n", "100"], capsys)
        assert code == 2
        assert "requires" in err

    def test_constants(self, capsys):
        code, out, _ = run(["bounds", "--cmd", "constants", "--delta", "100",
                            "--json"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["M"] == 268
        assert got["lam"] == pytest.approx(49.23655574633871)
        assert got["p"] == pytest.approx(0.4923655574633871)

    def test_c0_with_overrides(self, capsys):
        code, out, _ = run(["bounds", "--cmd", "c0", "--lambda", "34",
                            "--M", "81", "--json"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["feasible"] is True
        assert got["value"] == pytest.approx(5.211508759264291e-09, rel=1e-9)
        assert got["details"]["dominant"] == "neighbour-cap-loss"

    def test_lll_at_small_delta(self, capsys):
        code, out, _ = run(["bounds", "--cmd", "lll", "--delta", "10",
                            "--json"], capsys)
        assert code == 0
        got = strict_loads(out)
        assert got["feasible"] is False
        assert any("pair-event" in note for note in got["notes"])

    def test_lll_needs_some_delta(self, capsys):
        code, _, err = run(["bounds", "--cmd", "lll"], capsys)
        assert code == 2
        assert "requires" in err

    def test_search_needs_both_ends(self, capsys):
        code, _, err = run(["bounds", "--cmd", "lll", "--search-lo", "1.0"],
                           capsys)
        assert code == 2
        assert "search" in err

    def test_search_finds_threshold(self, capsys):
        code, out, _ = run(["bounds", "--cmd", "lll", "--lambda", "34.0",
                            "--M", "81", "--search-lo", "0.6931471805599453",
                            "--search-hi", "1e60", "--json"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["feasible"] is True
        assert got["details"]["ln_delta_star"] == pytest.approx(
            4.24985258040472e57, rel=1e-6)  # test_bounds.THRESHOLD_34_81


    @pytest.mark.parametrize("args", [
        ["lll", "--delta", "inf"], ["lll", "--delta", "nan"],
        ["lll", "--ln-delta", "nan"], ["lll", "--ln-delta", "inf"],
        ["lll", "--search-lo", "1", "--search-hi", "inf"],
        ["c0", "--lambda", "inf"],
        ["constants", "--delta", "inf"], ["constants", "--delta", "2.7"]])
    def test_rejects_non_finite_and_fractional_input(self, args, capsys):
        # each printed NaN or Infinity, truncated 2.7 to 2, or died with
        # an OverflowError traceback
        code, out, err = run(["bounds", "--cmd", *args, "--json"], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_c0_eps_fraction_as_string(self, capsys):
        code, out, _ = run(["bounds", "--cmd", "c0", "--eps", "1/7", "--json"],
                           capsys)
        assert code == 0
        assert strict_loads(out)["inputs"]["eps"] == "1/7"

    def test_c0_lambda_override_moves_M(self, capsys):
        # M follows an overridden lam as in color, not the default lam's 268
        code, out, _ = run(["bounds", "--cmd", "c0", "--lambda", "34", "--json"],
                           capsys)
        assert code == 0
        expected = PipelineParams(lam=34.0).resolve(complete_graph(5)).M
        assert strict_loads(out)["inputs"]["M"] == expected == 185

    def test_constants_honours_lambda(self, capsys):
        code, out, _ = run(["bounds", "--cmd", "constants", "--delta", "100",
                            "--lambda", "34", "--json"], capsys)
        assert code == 0
        got = strict_loads(out)
        assert (got["lam"], got["M"], got["p"]) == (34.0, 185, 0.34)

    @pytest.mark.parametrize("delta", [1, 5, 60])
    @pytest.mark.parametrize("flags", [
        [], ["--lambda", "2"], ["--M", "30"], ["--lambda", "25", "--M", "30"],
        ["--m", "9", "--eps", "1/4"]], ids=["derived", "lambda", "M", "both", "m-eps"])
    def test_constants_match_color_report(self, delta, flags, tmp_path, capsys):
        # bounds and the pipeline derive lam, M and p by the same rule
        path = tmp_path / "star.g6"
        path.write_text(write_graph6(star_graph(delta)) + "\n")
        code, out, _ = run(["bounds", "--cmd", "constants", "--delta", str(delta),
                            *flags, "--json"], capsys)
        assert code == 0
        constants = strict_loads(out)
        code, out, _ = run(["color", "--in", str(path), *flags, "--json"], capsys)
        assert code == 0
        report = strict_loads(out)["report"]
        assert ({k: constants[k] for k in ("lam", "M", "p")}
                == {k: report[k] for k in ("lam", "M", "p")})

    @pytest.mark.parametrize("ln_delta", ["710", "3e17"])
    def test_overflowing_margin_prints_null(self, ln_delta, capsys):
        # delta = exp(ln_delta) overflows a float, so the vertex margin is
        # +inf, for which JSON has no token
        assert math.isinf(bounds_mod.lll_asymmetric_check(
            8, 4, Fraction(1, 3), 49.0, 268,
            ln_delta=float(ln_delta)).details["margin_vertex"])
        code, out, _ = run(["bounds", "--cmd", "lll", "--ln-delta", ln_delta,
                            "--json"], capsys)
        assert code == 0
        got = strict_loads(out)
        assert got["details"]["margin_vertex"] is None
        assert math.isfinite(got["log_value"])


HUGE = str(10 ** 400)


class TestExtremeFiniteInput:
    """Finite numbers beyond float range are evaluated or rejected by name."""

    @pytest.mark.parametrize("args", [
        ["bounds", "--cmd", "c0", "--lambda", "1e300"],
        ["bounds", "--cmd", "c0", "--M", HUGE],
        ["bounds", "--cmd", "lll", "--lambda", "1e300", "--delta", "100"],
        ["bounds", "--cmd", "lll", "--M", HUGE, "--delta", "100"],
        ["bounds", "--cmd", "constants", "--m", HUGE],
        ["select-e1", "--m", HUGE],
        ["color", "--eps", "1/" + HUGE],
        ["bounds", "--cmd", "c0", "--eps", "1e-200"],
        ["bounds", "--cmd", "constants", "--delta", HUGE],
    ], ids=["c0-lambda", "c0-M", "lll-lambda", "lll-M", "constants-m",
            "select-e1-m", "color-eps", "c0-eps", "constants-delta"])
    def test_exit_code_and_strict_json(self, args, k5_file, capsys):
        # each of these died with an OverflowError or ZeroDivisionError
        # traceback
        if args[0] != "bounds":
            args = [*args, "--in", k5_file]
        code, out, err = run([*args, "--json"], capsys)
        assert code in (0, 2)
        if code == 0:
            strict_loads(out)
        else:
            assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("args,field", [
        *[pytest.param([cmd, flag, "1/0"], flag, id=f"{cmd}{flag}")
          for flag in ("--eps", "--alpha")
          for cmd in ("color", "select-e1", "select-e2", "bench")],
        pytest.param(["bounds", "--cmd", "c0", "--eps", "1/0"], "--eps",
                     id="bounds--eps"),
        pytest.param(["bounds", "--cmd", "tail", "--n", "5", "--p", "1/0", "--m", "3"],
                     "--p", id="tail--p"),
        *[pytest.param(["bounds", "--cmd", "tail", "--tail", tail, "--n", HUGE,
                        "--p", "1/2", "--m", "5"], "n*p", id=f"{tail}-tail-huge-n")
          for tail in ("upper", "lower")],
        pytest.param(["bounds", "--cmd", "tail", "--tail", "lower", "--n", "100",
                      "--p", "1/" + HUGE, "--m", "5"], "n*p", id="lower-tail-tiny-p"),
        pytest.param(["bounds", "--cmd", "c0", "--eps", "1e-200"], "eps",
                     id="c0-tiny-eps"),
        pytest.param(["bounds", "--cmd", "c0", "--lambda", "1e300"], "M",
                     id="c0-lambda"),
        pytest.param(["bounds", "--cmd", "lll", "--lambda", "1e300", "--delta", "100"],
                     "M", id="lll-lambda"),
    ])
    def test_rejected_naming_field(self, args, field, k5_file, capsys):
        # a zero denominator died with a ZeroDivisionError traceback, the
        # huge n with an OverflowError one
        if args[0] != "bounds":
            args = [*args, "--in", k5_file]
        code, out, err = run([*args, "--json"], capsys)
        assert code == 2 and out == "" and "Traceback" not in err
        assert any("error: " in line and field in line for line in err.splitlines())

    def test_tiny_mean_printed_nonzero(self, capsys):
        # the message read n*p=0.0 for n*p = 1e-398
        code, _, err = run(["bounds", "--cmd", "tail", "--tail", "lower", "--n", "100",
                            "--p", "1/" + HUGE, "--m", "5"], capsys)
        assert code == 2
        assert err.rstrip().endswith("got m=5 with n*p=1e-398")

    def test_derived_M_says_it_follows_lambda(self, capsys):
        # the message named "m or M" although only --lambda was given
        code, _, err = run(["bounds", "--cmd", "c0", "--lambda", "1e300"], capsys)
        assert code == 2
        assert err.startswith("error: M is too large")
        assert "M = ceil(2e*lam) follows lam (--lambda" in err

    def test_tail_below_float_range_evaluates(self, capsys):
        # n*p = 1e-398 is 0.0 as a float; the log bound is about -4585
        code, out, _ = run(["bounds", "--cmd", "tail", "--n", "100",
                            "--p", "1/" + HUGE, "--m", "5", "--json"], capsys)
        assert code == 0
        got = strict_loads(out)
        assert got["bound"] == 0.0
        assert got["log_bound"] == bounds_mod.binom_upper_tail_log(
            100, Fraction(1, 10 ** 400), 5)
        assert -4586 < got["log_bound"] < -4585


class TestBench:
    def test_rows_and_summary(self, tmp_path, capsys):
        p = tmp_path / "s6.g6"
        p.write_text(write_graph6(star_graph(6)) + "\n")
        code, out, _ = run(["bench", "--in", str(p), "--runs", "2",
                            "--seed", "5", "--json"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        rows = [json.loads(line) for line in lines[:2]]
        assert [r["seed"] for r in rows] == [5, 6]
        assert all("wall_seconds" not in r for r in rows)
        summary = json.loads(lines[-1])
        assert summary["runs"] == 2 and summary["all_verified"] is True

    def test_reruns_identical(self, tmp_path, capsys):
        p = tmp_path / "k5.g6"
        p.write_text("D~{\n")
        argv = ["bench", "--in", str(p), "--runs", "3", "--seed", "1", "--json"]
        assert run(argv, capsys) == run(argv, capsys)

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_rejects_fewer_than_one_run(self, k5_file, runs, capsys):
        code, out, err = run(["bench", "--in", k5_file, "--runs", runs], capsys)
        assert code == 2 and out == ""
        assert err == f"error: --runs must be at least 1, got {runs}\n"

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_seed_range_checked_before_any_run(self, k5_file, mode, capsys,
                                               monkeypatch):
        # the last seed, 2**64, is out of range: this ran the pipeline for
        # seed 2**64 - 1 before it failed
        def never(*args):
            raise AssertionError("run_pipeline called")

        monkeypatch.setattr(cli, "run_pipeline", never)
        code, out, err = run(["bench", "--in", k5_file, "--runs", "2",
                              "--seed", str(2 ** 64 - 1), *mode], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: --seed") and "--runs" in err
        assert err.count("\n") == 1

    def test_human_mode_reports_timing(self, tmp_path, capsys):
        p = tmp_path / "k5.g6"
        p.write_text("D~{\n")
        code, out, _ = run(["bench", "--in", str(p), "--runs", "1"], capsys)
        assert code == 0
        assert "all verified: True" in out


TEXT_CASES = {
    "color": (["--in", "k4.g6"], 0,
              "graph: n=4 edges=6 max_degree=3\n"
              "palette: input k=7, final k=7 (+0 fresh, +0 repairs)\n"
              "stage rounds: bulk=0 patch=0; success: bulk=None patch=None\n"
              "verified: proper=True avd=True\n"),
    "verify": (["--in", "k4.json"], 0, "proper: True  avd: True\n"),
    "distinguish-low": (["--in", "k4.json"], 0,
                        "recoloured 0 low-degree vertices; "
                        "verified: {'proper': True, 'avd': True}\n"),
    "select-e1": (["--in", "gnp12.g6"], 1,
                  "bulk selection: 37 edges, success=False, rounds=1, violations=12\n"),
    "select-e2": (["--in", "gnp12.g6"], 1,
                  "bulk: 37 edges success=False; light vertices: 9\n"
                  "patch: 0 edges, success=False, rounds=0, infeasible_vertex=2\n"),
    "edge-color": (["--in", "k4.g6"], 0,
                   "edge colouring with 3 colours (bound 4)\n"
                   "  (0, 1) -> 1\n  (0, 2) -> 2\n  (0, 3) -> 3\n"
                   "  (1, 2) -> 3\n  (1, 3) -> 2\n  (2, 3) -> 1\n"),
    "seed-color": (["--in", "k4.g6"], 0,
                   "greedy proper total colouring with k=7 (bound 7); "
                   "verified: {'proper': True, 'avd': True}\n"),
    "exact": (["--in", "k4.g6", "--stat", "chi_at"], 0, "chi_at = 5\n"),
    "check-conjecture": (["--corpus", "corpus.g6"], 0,
                         "C~: n=4 delta=3 chi_at=5 slack=1\n"
                         "D~{: n=5 delta=4 chi_at=7 slack=0 TIGHT\n"
                         "2 graphs, 0 violations, 1 tight\n"),
    "bounds": (["--cmd", "lll", "--delta", "10"], 0,
               "feasible: False  value: None  log_value: -393.27888847032784\n"
               "  note: pair-event inequality fails at this delta\n"
               "  note: vertex-event inequality fails at this delta\n"),
    "bench": (["--in", "k5.g6", "--runs", "2", "--seed", "1"], 0,
              "seed=1 final_k=12 growth=5 bulk=False patch=False time=<t>s\n"
              "seed=2 final_k=12 growth=5 bulk=False patch=False time=<t>s\n"
              "2 runs, all verified: True, mean growth 5.0\n"),
}


@pytest.fixture
def inputs(tmp_path):
    """Small fixed inputs, named as the argv lists above name them."""
    g = complete_graph(4)
    (tmp_path / "k4.g6").write_text("C~\n")
    (tmp_path / "k5.g6").write_text("D~{\n")
    (tmp_path / "gnp12.g6").write_text(write_graph6(random_gnp(12, 0.5, 0)) + "\n")
    (tmp_path / "corpus.g6").write_text("C~\nD~{\n")
    (tmp_path / "eoqo.g6").write_text("Eoqo\n")
    (tmp_path / "k4.json").write_text(json.dumps(to_document(g, greedy_total(g))))
    return tmp_path


class TestTextOutput:
    """Text mode is pinned whole, not by substrings, for every subcommand."""

    def test_covers_every_subcommand(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(TEXT_CASES) == set(sub.choices)

    @pytest.mark.parametrize("cmd", sorted(TEXT_CASES))
    def test_whole_stdout(self, cmd, inputs, capsys):
        args, want_code, want_out = TEXT_CASES[cmd]
        args = [str(inputs / a) if a.endswith((".g6", ".json")) else a for a in args]
        code, out, err = run([cmd, *args], capsys)
        assert (code, err) == (want_code, "")
        assert re.sub(r"time=\d+\.\d{3}s", "time=<t>s", out) == want_out

    @pytest.mark.parametrize("cmd", sorted(TEXT_CASES))
    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_error_prints_nothing_to_stdout(self, cmd, mode, capsys):
        if cmd == "bounds":
            args = ["--cmd", "lll"]  # a domain error: no delta to check at
        elif cmd == "check-conjecture":
            args = ["--corpus", "/no/such/corpus.g6"]
        elif cmd == "exact":
            args = ["--in", "/no/such/graph.g6", "--stat", "chi_at"]
        else:
            args = ["--in", "/no/such/input"]
        code, out, err = run([cmd, *args, *mode], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n")


def proper_edge_colouring(got):
    """edge-color's record: no colour twice at a vertex, none above the bound."""
    ends = [(r[e], r["c"]) for r in got["edge_colors"] for e in "uv"]
    return (len(set(ends)) == len(ends)
            and max(r["c"] for r in got["edge_colors"]) <= got["palette_bound"])


BOTH = {"proper": True, "avd": True}
NOT_AVD = {"proper": True, "avd": False}
# K_5, C_5 and P_6 as the graph6 writer writes them
CORPUS = "".join(write_graph6(g) + "\n"
                 for g in (complete_graph(5), cycle_graph(5), path_graph(6)))

# The command-line contract beyond the tests above, one row per check. A
# row holds a pipe of commands, the first reading the row's stdin and each
# later one the stdout of the one before, which must exit 0 with nothing on
# stderr; the last command's exit code; a predicate on its stdout lines,
# each parsed by strict_loads, or None where stdout stays empty; and a
# pattern its whole stderr must match. An argv item ending in .g6 names a
# file of the inputs fixture. D~{ is K_5, Esa? the star K_{1,5}, and the
# greedy seed of Eoqo is proper but not AVD.
CONTRACT = {
    "k5-seed-color|verify": (
        [["seed-color", "--json"], ["verify", "--json"]], "D~{\n", 1,
        lambda got: got["verified"] == NOT_AVD, ""),
    "k5-select-e1": (
        [["select-e1", "--json"]], "D~{\n", 1,
        lambda got: got["success"] is False and got["forced"] == [0, 1, 2, 3, 4], ""),
    "bounds-c0": (
        [["bounds", "--cmd", "c0", "--json"]], "", 0,
        lambda got: got["feasible"] is True and got["inputs"]["M"] == 268, ""),
    "bounds-lll-1e100": (
        [["bounds", "--cmd", "lll", "--ln-delta", "1e100", "--json"]], "", 0,
        lambda got: got["feasible"] is False, ""),
    "bounds-lll-1e308": (
        [["bounds", "--cmd", "lll", "--ln-delta", "1e308", "--json"]], "", 0,
        lambda got: got["feasible"] is True, ""),
    "bounds-lll-search-to-1e308": (
        [["bounds", "--cmd", "lll", "--search-lo", "0.7", "--search-hi", "1e308",
          "--json"]], "", 0,
        # test_bounds.THRESHOLD_DERIVED
        lambda got: got["details"]["ln_delta_star"] == pytest.approx(1.0414441e171,
                                                                     rel=1e-6), ""),
    "star-color-lambda-2": (
        [["color", "--lambda", "2", "--json"]], "Esa?\n", 0,
        lambda got: [got["report"][k] for k in ("lam", "M", "p")] == [2.0, 11, 0.4], ""),
    "bounds-constants-lambda-2": (
        [["bounds", "--cmd", "constants", "--delta", "5", "--lambda", "2", "--json"]],
        "", 0, lambda got: [got[k] for k in ("lam", "M", "p")] == [2.0, 11, 0.4], ""),
    "k5-edge-color": (
        [["edge-color", "--json"]], "D~{\n", 0, proper_edge_colouring, ""),
    "star-edge-color": (
        [["edge-color", "--json"]], "Esa?\n", 0,
        lambda got: proper_edge_colouring(got) and got["used"] == 5, ""),
    "header-then-truncated-line": (
        [["color"]], ">>graph6<<D~\n", 2, None,
        r"error: truncated bit vector: expected 2 bytes, found 1 \(byte 12\)\n"),
    "dimacs-underscore-size": (
        [["color", "--format", "dimacs"]], "p edge 1_0 1\ne 1 2\n", 2, None,
        r"error: line 1: non-integer problem sizes\n"),
    "eoqo-seed-color|verify": (
        [["seed-color", "--json"], ["verify", "--json"]], "Eoqo\n", 1,
        lambda got: got["verified"] == NOT_AVD, ""),
    "eoqo-seed-color|distinguish-low|verify": (
        [["seed-color", "--json"], ["distinguish-low", "--json"], ["verify", "--json"]],
        "Eoqo\n", 0, lambda got: got["verified"] == BOTH, ""),
    "eoqo-seed-color|select-e1": (
        [["seed-color", "--json"],
         ["select-e1", "--in", "eoqo.g6", "--seed-coloring", "-", "--json"]],
        "Eoqo\n", 1, lambda got: got["success"] is False, ""),
    "k5-bench-one-run": (
        [["bench", "--runs", "1", "--json"]], "D~{\n", 0,
        lambda row, summary: row["verified"] is True and summary["runs"] == 1
        and summary["all_verified"] is True, ""),
    "k5-exact-chi-total": (
        [["exact", "--stat", "chi_total", "--json"]], "D~{\n", 0,
        lambda got: got["value"] == 5, ""),
    "k5-exact-chi-at": (
        [["exact", "--stat", "chi_at", "--json"]], "D~{\n", 0,
        lambda got: got["value"] == 7, ""),
    "written-corpus-conjecture": (
        [["check-conjecture", "--corpus", "-", "--json"]], CORPUS, 0,
        lambda *lines: len(lines) == 4 and lines[-1]["graphs"] == 3
        and lines[-1]["violations"] == [], ""),
    "star-color-short-circuits": (
        [["color", "--json"]], "Esa?\n", 0,
        lambda got: got["report"]["short_circuit"] is True and got["verified"] == BOTH, ""),
    "huge-n-document-verify": (
        [["verify", "--json"]],
        '{"n": 1000000000000, "edges": [], "k": 1, "vertex_colors": [1], '
        '"edge_colors": []}', 2, None,
        r"error: vertex_colors must list one integer per vertex\n"),
    "star-color|verify": (
        [["color", "--json"], ["verify", "--json"]], "Esa?\n", 0,
        lambda got: got["verified"] == BOTH and got["violations"] == [], ""),
    # k = 0 is proper on no vertex, so the low-degree phase takes it too
    "empty-document-distinguish-low|verify": (
        [["distinguish-low", "--json"], ["verify", "--json"]],
        '{"n": 0, "edges": [], "k": 0, "vertex_colors": [], "edge_colors": []}', 0,
        lambda got: got["k"] == 0 and got["verified"] == BOTH, ""),
}


class TestContract:
    @pytest.mark.parametrize("name", list(CONTRACT))
    def test_row(self, name, inputs, capsys, monkeypatch):
        pipe, out, want_code, holds, want_err = CONTRACT[name]
        for i, argv in enumerate(pipe):
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            code, out, err = run([str(inputs / a) if a.endswith(".g6") else a
                                  for a in argv], capsys)
            if i < len(pipe) - 1:
                assert (code, err) == (0, "")
        assert code == want_code
        assert re.fullmatch(want_err, err)
        if holds is None:
            assert out == ""
        else:
            assert holds(*map(strict_loads, out.splitlines()))

    def test_entry_exits_with_main_code(self, inputs, clashing_doc, capsys, monkeypatch):
        # the console script is entry(), which hands main's code to sys.exit
        for doc, want in ((str(inputs / "k4.json"), 0), (clashing_doc, 1),
                          ("/no/such/file.json", 2)):
            monkeypatch.setattr(sys, "argv", ["avdtotal", "verify", "--in", doc])
            with pytest.raises(SystemExit) as exc:
                cli.entry()
            assert exc.value.code == want
        capsys.readouterr()


class TestOutputFailures:
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_closed_stdout_pipe_is_one_error_line(self, flags):
        # the read end is closed before the run, so the write at main's
        # flush fails every time; stdin carries K_5
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "from avdtotal.cli import entry; entry()",
                 "seed-color", *flags],
                input=b"D~{\n", stdout=write, stderr=subprocess.PIPE, env=env,
                timeout=120)
        finally:
            os.close(write)
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_load_graph", exhausted)
        assert run(["seed-color"], capsys) == (2, "", "error: out of memory\n")

    def test_dimacs_count_above_the_cap_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("p edge 100000000 0\n"))
        assert run(["color", "--format", "dimacs"], capsys) == (
            2, "", "error: line 1: vertex count 100000000 is above the cap of 1000000\n")


class TestSharedFlags:
    """Flags that several subcommands take are declared once, in a parent."""

    def test_seed_coloring_help_everywhere(self):
        # only color gave --seed-coloring help text
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        helps = {a.help for cmd in ("color", "select-e1", "select-e2")
                 for a in sub.choices[cmd]._actions if "--seed-coloring" in a.option_strings}
        assert helps == {"JSON colouring document to start from"}


class TestEmit:
    """_emit returns one line of strict JSON with sorted keys."""

    def test_non_finite_float_raises(self):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                cli._emit({"a": [x]})

    def test_bounds_conversion_nested(self):
        out = cli._finite_or_null({"a": {"b": {"eps": Fraction(1, 7),
                                                "margin": math.inf}},
                                   "x": 1.5, "n": None})
        assert out == {"a": {"b": {"eps": "1/7", "margin": None}},
                       "x": 1.5, "n": None}

    def test_unencodable_value_raises(self):
        with pytest.raises(TypeError, match="object"):
            cli._emit({"a": [object()]})


class TestCollectorPause:
    """``main`` runs each command with the cyclic collector paused. That is
    sound because a command's work leaves no reference cycles, so reference
    counting frees it all; and ``main`` hands the collector back as it
    found it, on every exit path."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_commands_leave_no_cycles(self, name, tmp_path):
        # the paused part of main: the color handler, whose run_pipeline
        # resamples on hub_resampling, and the JSON emission
        text, flags, _ = GOLDEN_CASES[name]
        path = tmp_path / "graph.in"
        path.write_text(text())
        args = cli.build_parser().parse_args(["color", "--json", "--in", str(path), *flags])
        gc.disable()
        gc.collect()
        code, records, _ = args.func(args)
        assert code == 0 and [cli._emit(record) for record in records]
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("text,want", [("D~{\n", 0), ("", 2)], ids=["ok", "error"])
    def test_state_restored(self, enabled, text, want, tmp_path, capsys, monkeypatch):
        (gc.enable if enabled else gc.disable)()
        during = []

        def recording(*args):
            during.append(gc.isenabled())
            return run_pipeline(*args)

        monkeypatch.setattr(cli, "run_pipeline", recording)
        path = tmp_path / "graph.g6"
        path.write_text(text)
        code, _, err = run(["color", "--in", str(path)], capsys)
        assert code == want
        if want:
            assert err.startswith("error: ") and during == []
        else:
            assert err == "" and during == [False]
        assert gc.isenabled() is enabled
