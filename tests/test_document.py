"""The colouring-document writer: byte-identical to ``json.dumps`` of the dict.

``coloring._document_json`` writes a document as text in one pass, from
token tables over the vertices and colours present;
``coloring._document_body`` builds the same document as a dict, and
``cli._emit`` of that dict is the oracle the writer is held to. The
stdout digests pin whole ``--json`` outputs of the four commands that
write colourings, recorded before the writer existed.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdtotal import (Graph, PipelineParams, TotalColoring, cli, complete_graph,
                      greedy_total, path_graph, random_gnp, run_pipeline, star_graph,
                      to_document, write_graph6)
from avdtotal import coloring as coloring_mod

from helpers import edge_dict, from_edge_dict
from test_cli import run
from test_golden import CASES as GOLDEN_CASES
from test_golden import dimacs, sparse_edges


# ---------------------------------------------------------------------------
# whole stdout under --json, pinned

INPUTS = {
    "empty": ("?\n", []),
    "edgeless": ("B?\n", []),
    "k5": ("D~{\n", []),
    "star": ("Esa?\n", []),  # K_{1,5}: its greedy seed is already AVD
    "eoqo": ("Eoqo\n", []),  # its greedy seed is not AVD
    "gnp30": (write_graph6(random_gnp(30, 0.3, 4)) + "\n", []),
    "sparse": (dimacs(*sparse_edges(n=120, m=240, seed=2)), ["--format", "dimacs"]),
}

# SHA-256 of stdout, recorded before the colouring-document writer
STDOUT_DIGESTS = {
    "color": {
        "edgeless": "cf5a7f38b783fa7fc918c0c39a587867768bbf7e91e214625e201e8a6de93f07",
        "empty": "a44a784c0f2453aca33e7d42ebce9a4cc934e1083d9c2736f3f2e00583190afb",
        "eoqo": "4455f0ab243eec7598309228dc7ec461620eaab609e6648ce39c7cdb6f446514",
        "gnp30": "9427b709f8cb1432f751f41a1c71d7f14289e764b4439a10478ce236fe086fd1",
        "k5": "2f2e438f2879a4b452ef2c2a4d4aa10adfde0882280916af79e13f7d361460f8",
        "sparse": "bb4d73a686b9dc5f84a72d662be52e93cccdb90af7688fb5b5ba1d37b493bd6e",
        "star": "65830237238d6f8fd2e12a55917b94111f99713416c5fd882c8cec01bab96a39",
    },
    "seed-color": {
        "edgeless": "0675262d99e3977da634b2ca3fe1ed3b9be033686182670990f12385c7a023e6",
        "empty": "6be315d47eb12e064a93d4ca4ebcdae8a135cfbfa2fed1cf60ee71b3cdff78d1",
        "eoqo": "89af871d17997c4d3fe651b67f704718566cf46d0e54d5c80737180440bd4289",
        "gnp30": "29ea3a7be998e080548ab12964575a7cb6a9b575c369dd34965b2d15026cff67",
        "k5": "145048adf5c14c8e1c4cdf4a6a96bdd9b8a4149ba3d4a77ec119fe01fa5c1b1f",
        "sparse": "3c08fa633316d64a38a7d41b35d58753697571892b348b56e9805b727a61666a",
        "star": "21022ed993e832f9c0714e2ecd1d226fd45d123cf501c5ea950c1362375244a8",
    },
    "distinguish-low": {
        # the greedy seed of eoqo is the only one here the phase changes
        "eoqo": "b7c0b0c48da8427267d900f2db6abca03c3395e3943a6993f559e15de98c1f21",
    },
    "edge-color": {
        "edgeless": "19b4fdf07b90a2beb87528cb9ee5c8bff865a054ce6b120682f62e26944088f4",
        "empty": "19b4fdf07b90a2beb87528cb9ee5c8bff865a054ce6b120682f62e26944088f4",
        "eoqo": "57d514244aa43fc80f860d8780b464b9014272a5ed5d11d12b1a6b87b9579be9",
        "gnp30": "ae928f8cd20cae9af2c2f4020e1aed57a87f51d7306bc4b23d8aaafe8c7dff5e",
        "k5": "3f1743c2e4566d8cf0df1876093defe17e5574bbdb71e6bb2218b265a848f99b",
        "sparse": "e5174b3f508197a00bfad0957641127f9b19279bb63d703a164a6b07b17ae797",
        "star": "eb0e07feb6c68c2f599c39af100f407ac42c88da81a7a5944b943ef000a16bda",
    },
}
# from the greedy seed document the pipeline runs as from its own greedy
# seed, so color-seeded prints color's bytes; distinguish-low leaves every
# other seed document here as it is
STDOUT_DIGESTS["color-seeded"] = STDOUT_DIGESTS["color"]
STDOUT_DIGESTS["distinguish-low"] = {**STDOUT_DIGESTS["seed-color"],
                                     **STDOUT_DIGESTS["distinguish-low"]}


def command_stdout(cmd, name, tmp_path, capsys):
    """(exit code, stdout) of one pinned command on the input called name;
    color-seeded is color from the input's greedy seed document, and
    distinguish-low runs on that document too."""
    text, fmt = INPUTS[name]
    graph = tmp_path / "graph.in"
    graph.write_text(text)
    seed_doc = tmp_path / "seed.json"
    code, out, err = run(["seed-color", "--json", "--in", str(graph), *fmt], capsys)
    assert (code, err) == (0, "")
    seed_doc.write_text(out)
    argv = {
        "color": ["color", "--in", str(graph), *fmt, "--seed", "5"],
        "color-seeded": ["color", "--in", str(graph), *fmt, "--seed", "5",
                         "--seed-coloring", str(seed_doc)],
        "seed-color": ["seed-color", "--in", str(graph), *fmt],
        "distinguish-low": ["distinguish-low", "--in", str(seed_doc)],
        "edge-color": ["edge-color", "--in", str(graph), *fmt],
    }[cmd]
    code, out, err = run([*argv, "--json"], capsys)
    assert err == ""
    return code, out


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("cmd", sorted(STDOUT_DIGESTS))
def test_stdout_digest(cmd, name, tmp_path, capsys):
    code, out = command_stdout(cmd, name, tmp_path, capsys)
    assert code == 0 and out.count("\n") == 1
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[cmd][name]


# ---------------------------------------------------------------------------
# the writer against the dict oracle

def oracle(g, phi, verified, report=None):
    doc = coloring_mod._document_body(g, phi, verified)
    if report is not None:
        doc["report"] = report
    return cli._emit(doc)


def assert_writes_oracle(g, phi, verified, report=None):
    line = coloring_mod._document_json(g, phi, verified, report)
    assert line == oracle(g, phi, verified, report)
    assert "\n" not in line


@given(n=st.integers(0, 30), p=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
       seed=st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_pipeline_documents(n, p, seed):
    g = random_gnp(n, p, seed)
    phi, report = run_pipeline(g, None, PipelineParams(seed=seed))
    assert_writes_oracle(g, phi, report.verified, report.to_json())
    assert_writes_oracle(g, phi, report.verified)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_documents(name, tmp_path):
    text, flags, _ = GOLDEN_CASES[name]
    path = tmp_path / "graph.in"
    path.write_text(text())
    args = cli.build_parser().parse_args(["color", "--in", str(path), *flags])
    g = cli._load_graph(args)
    phi, report = run_pipeline(g, None, cli._params_from(args))
    assert_writes_oracle(g, phi, report.verified, report.to_json())


def test_short_circuit_from_supplied_seed():
    g = star_graph(5)
    phi, report = run_pipeline(g, greedy_total(g), PipelineParams(seed=1))
    assert report.short_circuit
    assert_writes_oracle(g, phi, report.verified, report.to_json())


@pytest.mark.parametrize("cmd", ["seed-color", "distinguish-low"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_command_documents(cmd, name, tmp_path, capsys):
    # the printed line against the oracle of the document it decodes to
    code, out = command_stdout(cmd, name, tmp_path, capsys)
    assert code == 0
    g, phi = coloring_mod.from_document(json.loads(out))
    line = out.rstrip("\n")
    assert line == oracle(g, phi, coloring_mod.verdict(g, phi))
    assert line == cli._emit(to_document(g, phi))


def test_improper_flags_and_wide_palette():
    g = complete_graph(4)
    phi = greedy_total(g)
    phi = coloring_mod.TotalColoring((1, 1, 1000, 7), phi.edge_colors, 1000, g)
    assert_writes_oracle(g, phi, coloring_mod.verdict(g, phi))
    assert_writes_oracle(g, phi, {"proper": False, "avd": False}, {"note": "ü\n\"x\""})


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_report_raises(x):
    g = complete_graph(3)
    phi = greedy_total(g)
    with pytest.raises(ValueError):
        coloring_mod._document_json(g, phi, {"proper": True, "avd": True}, {"lam": x})


# ---------------------------------------------------------------------------
# the token tables: colours of any size, any key order, sparse vertex ids

def shifted(phi, shift):
    """phi with shift added to every colour and to k."""
    return TotalColoring(tuple(c + shift for c in phi.vertex_colors),
                         tuple(c + shift for c in phi.edge_colors),
                         phi.k + shift, phi.graph)


@pytest.mark.parametrize("shift", [2 ** 63 - 2, 2 ** 63, 2 ** 64, 2 ** 70])
def test_colours_at_and_beyond_int64(shift):
    g = random_gnp(30, 0.3, 5)
    phi, _ = run_pipeline(g, None, PipelineParams(seed=5))
    wide = shifted(phi, shift)
    assert max(wide.edge_colors) >= 2 ** 63 - 1
    assert_writes_oracle(g, wide, coloring_mod.verdict(g, wide))


def test_three_colours_in_a_huge_palette():
    # the tables follow the colours present, never range(k)
    g = path_graph(4)
    phi = TotalColoring((1, 2, 3, 1), (3, 1, 2), 10 ** 30, g)
    assert coloring_mod.verdict(g, phi) == {"proper": True, "avd": False}
    assert_writes_oracle(g, phi, coloring_mod.verdict(g, phi))
    top = TotalColoring((1, 2, 10 ** 30, 1), (10 ** 30, 1, 2), 10 ** 30, g)
    assert_writes_oracle(g, top, coloring_mod.verdict(g, top))


def test_keys_out_of_edge_order():
    # the dict form, keys reversed, converts to the rows the writer reads
    g = random_gnp(40, 0.2, 3)
    phi, _ = run_pipeline(g, None, PipelineParams(seed=3))
    reordered = from_edge_dict(g, phi.vertex_colors,
                               dict(reversed(edge_dict(phi).items())), phi.k)
    assert reordered.edge_colors == phi.edge_colors
    assert_writes_oracle(g, reordered, coloring_mod.verdict(g, reordered))
    assert coloring_mod._document_json(g, reordered, {}) == coloring_mod._document_json(g, phi, {})


def test_no_vertex():
    g = Graph.build(0, [])
    assert_writes_oracle(g, TotalColoring((), (), 0, g), {"proper": True, "avd": True})


@pytest.mark.parametrize("n, edges", [
    (50, [(0, 1), (1, 2)]),
    (1000, [(997, 998), (998, 999)]),
    (1000, [(3, 990), (500, 990)]),
    (10 ** 6, [(0, 999_999), (12, 999_999), (12, 500_000)]),
])
def test_vertices_numbered_above_every_colour(n, edges):
    g = Graph.build(n, edges)
    phi = greedy_total(g)
    top = max(*phi.vertex_colors, *phi.edge_colors)
    assert any(not g.adjacency[v] for v in range(top + 1, n))
    assert_writes_oracle(g, phi, coloring_mod.verdict(g, phi))


def test_mixed_number_types_written_as_json_writes_them():
    # outside the documented domain, but still written exactly: a float
    # equal to an int keeps its own text
    g = path_graph(4)
    phi = TotalColoring((1.0, 2, 1, 2 ** 64), (3, 1.0, 2.5), 2 ** 64, g)
    assert_writes_oracle(g, phi, {"proper": False, "avd": False})


@given(n=st.integers(1, 25), p=st.sampled_from([0.1, 0.3, 0.7]),
       seed=st.integers(0, 2 ** 32), data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_colours_any_order(n, p, seed, data):
    # the writer verifies nothing: any ints, from the dict form in any key
    # order, are written exactly as the dict oracle writes them
    g = random_gnp(n, p, seed)
    colour = st.one_of(st.integers(-5, 40), st.integers(2 ** 62, 2 ** 66),
                       st.just(10 ** 30))
    vertex_colors = tuple(data.draw(st.lists(colour, min_size=n, max_size=n)))
    keys = data.draw(st.permutations(g.edges))
    edge_colors = {e: data.draw(colour) for e in keys}
    phi = from_edge_dict(g, vertex_colors, edge_colors, data.draw(colour))
    assert edge_dict(phi) == edge_colors
    assert_writes_oracle(g, phi, {"proper": False, "avd": False})


# a fresh interpreter: the DIMACS reader on an unsorted edge list, then the
# writer on a colouring whose colours span over twice their count, so both
# take their sorting paths
FIRST_CALLS = """
import json, sys
from avdtotal import TotalColoring, parse_dimacs
from avdtotal.coloring import _document_json
g = parse_dimacs("p edge 3 2\\ne 2 3\\ne 1 2\\n")
phi = TotalColoring((1, 3, 1), (2, 100), 100, g)
doc = json.loads(_document_json(g, phi, {}))
print(json.dumps([g.edges, doc["edge_colors"], "numpy.ma" in sys.modules]))
"""


def test_sorting_paths_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call in a process: about
    # 10 ms, and a few hundred objects left for the cyclic collector
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", FIRST_CALLS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    edges, colours, imported = json.loads(proc.stdout)
    assert edges == [[0, 1], [1, 2]]
    assert colours == [{"c": 2, "u": 0, "v": 1}, {"c": 100, "u": 1, "v": 2}]
    assert imported is False
