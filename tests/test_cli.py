"""Command-line interface: exit codes, JSON output, error handling.

Every invocation goes through cli.main(argv) in process so stdout and
stderr can be captured byte for byte.
"""

import io
import json
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdtotal import (Graph, TotalColoring, cli, complete_graph, cycle_graph,
                      greedy_total, star_graph, to_document, write_graph6)
from avdtotal import coloring as coloring_mod
from avdtotal import pipeline as pipeline_mod


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
    phi = TotalColoring((1, 2, 4, 3),
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
    phi = TotalColoring((1, 1) + phi.vertex_colors[2:], phi.edge_colors, 10)
    p = tmp_path / "k4-improper.json"
    p.write_text(json.dumps(to_document(g, phi)))
    return str(p)


def count_verifier_calls(monkeypatch) -> Counter:
    """Count the verifier and its building blocks in every module that binds
    them, so calls across modules are seen too."""
    calls = Counter()
    for name in ("violations", "check_total", "properness_violations",
                 "avd_violations"):
        def counting(*args, _name=name, _original=getattr(coloring_mod, name)):
            calls[_name] += 1
            return _original(*args)

        for module in (coloring_mod, pipeline_mod, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls


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

    def test_infinite_lambda_is_domain_error(self, k4_file, capsys):
        code, _, err = run(["color", "--in", k4_file, "--lambda", "inf"], capsys)
        assert code == 2
        assert err.startswith("error: lam override")

    def test_one_properness_pass(self, k5_file, capsys, monkeypatch):
        # one verifier pass on the seed and one at the exit; the document
        # reuses the exit verdict instead of verifying again, and no
        # witness lister runs on a proper colouring
        calls = count_verifier_calls(monkeypatch)
        code, out, _ = run(["color", "--in", k5_file, "--json"], capsys)
        assert code == 0 and json.loads(out)["report"]["short_circuit"] is False
        assert calls == {"violations": 2, "check_total": 2}

    def test_short_circuit_reuses_entry_pass(self, k4_file, clean_doc, capsys,
                                             monkeypatch):
        calls = count_verifier_calls(monkeypatch)
        code, out, _ = run(["color", "--in", k4_file, "--json",
                            "--seed-coloring", clean_doc], capsys)
        assert code == 0 and json.loads(out)["report"]["short_circuit"] is True
        # from_document checks the seed document once more on loading
        assert calls == {"violations": 1, "check_total": 2}


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
        phi = TotalColoring(
            (2, 3, 4, 2, 1, 1, 1, 1),
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
        # the input check and the output flags are one violations call each;
        # the third check_total is from_document's, on loading
        calls = count_verifier_calls(monkeypatch)
        code, _, _ = run(["distinguish-low", "--in", clean_doc, "--json"], capsys)
        assert code == 0
        assert calls == {"violations": 2, "check_total": 3}


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
        assert got["M"] == 33 and got["violations"] == []

    def test_bulk_failure_exit_one(self, k4_file, capsys):
        # K_4 is too sparse for the deletion thresholds, so the stage
        # reports its best attempt and fails
        code, out, _ = run(["select-e1", "--in", k4_file, "--json"], capsys)
        assert code == 1
        got = json.loads(out)
        assert got["success"] is False
        assert all(v["kind"] in ("A_pair", "B_vertex") for v in got["violations"])

    def test_both_stages_reported(self, k5_file, capsys):
        code, out, _ = run(["select-e2", "--in", k5_file, "--seed", "0",
                            "--json"], capsys)
        assert code == 1
        got = json.loads(out)
        assert set(got) == {"bulk", "light", "patch"}
        assert got["light"] == [0, 1, 2, 3, 4]
        assert got["patch"]["success"] is False
        assert got["patch"]["infeasible_vertex"] == 0


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
        got = json.loads(out)
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
            2.3058441495519104e+17, rel=1e-4)


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

    def test_human_mode_reports_timing(self, tmp_path, capsys):
        p = tmp_path / "k5.g6"
        p.write_text("D~{\n")
        code, out, _ = run(["bench", "--in", str(p), "--runs", "1"], capsys)
        assert code == 0
        assert "all verified: True" in out


_leaves = st.one_of(
    st.integers(-10**6, 10**6), st.text(max_size=4), st.booleans(), st.none(),
    st.floats(allow_nan=False), st.fractions(max_denominator=9),
    st.integers(-99, 99).map(np.int64), st.floats(-9, 9).map(np.float32),
    st.frozensets(st.fractions(max_denominator=9), max_size=4),
    st.sets(st.integers(-99, 99).map(np.int64), max_size=4))
_documents = st.recursive(_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.tuples(inner, inner),
    st.dictionaries(st.text(max_size=3), inner, max_size=4)), max_leaves=20)


def _converted(x):
    """A copy of x that json encodes as is, converted up front the way
    _emit's default hook converts it on demand."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, dict):
        return {k: _converted(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_converted(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_converted(v) for v in x)
    return x


class TestEmit:
    """_emit writes the bytes of json.dumps over a fully converted copy."""

    @given(_documents)
    @settings(max_examples=100, deadline=None)
    def test_same_bytes_as_full_copy(self, doc):
        expected = json.dumps(_converted(doc), sort_keys=True) + "\n"
        out = io.StringIO()
        sys_stdout, sys.stdout = sys.stdout, out
        try:
            cli._emit(doc)
        finally:
            sys.stdout = sys_stdout
        assert out.getvalue() == expected

    def test_set_members_sorted_after_conversion(self, capsys):
        cli._emit({"s": frozenset({Fraction(2), Fraction(10)}),
                   "n": {np.int64(7), np.int64(-1)}})
        assert capsys.readouterr().out == '{"n": [-1, 7], "s": ["10", "2"]}\n'

    def test_unencodable_value_raises(self):
        with pytest.raises(TypeError, match="object"):
            cli._emit({"a": [object()]})
