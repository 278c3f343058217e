"""Properties of the library source itself."""

import ast
import hashlib
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

import avdtotal
import avdtotal.cli  # the tracer looks cli.main up in sys.modules
from avdtotal import (find_bulk_deletion, find_patch_deletion, greedy_total,
                      light_vertices)

from helpers import hub_graph

SOURCES = sorted(Path(avdtotal.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# per-layer metrics whose functions are gone from the package; each reads 0
# until the benchmark drops it
STALE_METRICS = {"coloring.properness_violations", "coloring.avd_violations"}


def test_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements;
    # pytest rewrites the asserts of test modules so that they survive it,
    # but not those of helpers.py, whose oracles must raise instead
    found = []
    for path in SOURCES + [Path(__file__).parent / "helpers.py"]:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read; ``__all__`` entries count
    as reads, so re-exports are used."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_no_unused_imports():
    found = {}
    for path in SOURCES + TESTS:
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            found[path.name] = unused
    assert found == {}


def test_unused_import_scan_sees_a_dead_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nx = pi\n")
    assert _unused_imports(tree) == ["os (line 1)", "tau (line 2)"]


# the oldest Python the package supports (pyproject's requires-python)
OLDEST = (3, 10)


@pytest.mark.parametrize("tree", ["src", "tests", "benchmarks", "demos"])
def test_sources_parse_on_the_oldest_python(tree):
    # ast checks the grammar of an older minor version, so syntax newer
    # than the CI matrix's oldest leg fails here on any interpreter
    failed = []
    for path in sorted((ROOT / tree).rglob("*.py")):
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failed == []


def test_oldest_python_check_rejects_newer_syntax():
    text = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(text)
    with pytest.raises(SyntaxError):
        ast.parse(text, feature_version=OLDEST)


def test_all_is_sorted_unique_and_resolves():
    names = avdtotal.__all__
    assert names == sorted(set(names))
    assert [n for n in names if not hasattr(avdtotal, n)] == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_per_layer_timings_name_traced_spans():
    # a timing or call-count metric reads a span of benchmarks/tracer.py;
    # pruning the function behind it would zero the metric without a sound
    spans = {name for name, _ in _load_tracer().Tracer(avdtotal)._targets()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"].rsplit("_", 1)[0] for m in declared
              if m["name"].endswith(("_s", "_calls"))}
    assert wanted - spans == STALE_METRICS


def test_tracer_probes_read_real_results():
    # the probes of benchmarks/tracer.py read the stages' results; a change
    # to what those results hold must not break them silently
    trace = _load_tracer().Tracer(avdtotal)
    hub = hub_graph(0, 200, 3, 3)
    hub_params = avdtotal.PipelineParams(lam=3.0, m=5, d=1, seed=0)
    gnp = avdtotal.random_gnp(120, 0.7, 5)
    trace.install()
    try:
        # called through the package, whose names the tracer rebinds
        phi = avdtotal.greedy_total(hub)
        bulk = avdtotal.find_bulk_deletion(hub, phi, hub_params)
        light = avdtotal.light_vertices(hub, bulk.selection, hub_params.m)
        patch = avdtotal.find_patch_deletion(hub, phi, bulk.selection, light, hub_params)
        before = trace.mark()
        avdtotal.run_pipeline(gnp)
        in_pipeline = trace.summary(before)
        # the vizing probe reads the edge colouring's dict of colours
        before = trace.mark()
        edge_coloring = avdtotal.vizing_color(gnp)
        in_vizing = trace.summary(before)
    finally:
        trace.uninstall()
    assert light and bulk.selection.rows and patch.selection.rows
    assert trace.counts["trace.probe_errors"] == 0
    assert in_vizing["vizing.vizing_color_calls"] == 1
    assert in_vizing["vizing.edges"] == len(gnp.edges)
    assert in_vizing["vizing.fresh_colors"] == max(edge_coloring.colors.values())
    assert trace.counts["highdeg.bulk_rounds"] > 0 and trace.counts["highdeg.patch_rounds"] > 0
    # the same run untraced: the stages' selections inside run_pipeline
    params = avdtotal.PipelineParams()
    inner = find_bulk_deletion(gnp, greedy_total(gnp), params)
    inner_patch = find_patch_deletion(
        gnp, greedy_total(gnp), inner.selection,
        light_vertices(gnp, inner.selection, params.m), params)
    expected = len(inner.selection.rows) + len(inner_patch.selection.rows)
    assert expected and in_pipeline["highdeg.selected_edges"] == expected
    assert trace.counts["highdeg.selected_edges"] == (
        len(bulk.selection.rows) + len(patch.selection.rows) + expected)


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "record_bench", ROOT / "tools" / "record_bench.py")
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    return recorder


def test_bench_quality_floor():
    # within_floor holds chi_excess figures to FLOOR: the floor itself
    # passes; a graph more or fewer, a hit fewer, a colour more in total or
    # at worst, or a corpus missing, fails
    recorder = _load_recorder()
    at_floor = {name: {"graphs": graphs, "hits": hits, "total_excess": total,
                       "worst_excess": worst}
                for name, (graphs, hits, total, worst) in recorder.FLOOR.items()}
    assert recorder.within_floor(at_floor)
    for name in at_floor:
        for key, step in (("graphs", 1), ("graphs", -1), ("hits", -1),
                          ("total_excess", 1), ("worst_excess", 1)):
            worse = {other: dict(figures) for other, figures in at_floor.items()}
            worse[name][key] += step
            assert not recorder.within_floor(worse), (name, key, step)
        assert not recorder.within_floor({other: figures for other, figures
                                          in at_floor.items() if other != name})


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_record_dirty_flag(tmp_path, monkeypatch):
    # dirty compares run.py's src_digest, the sha256 of src/avdtotal/*.py
    # joined in sorted path order, with the same digest over HEAD's files
    recorder = _load_recorder()
    monkeypatch.setattr(recorder, "ROOT", tmp_path)
    # git must not find a repository above tmp_path
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    src = tmp_path / "src" / "avdtotal"
    src.mkdir(parents=True)
    (src / "graphs.py").write_text("x = 1\n")
    (src / "__init__.py").write_text('"""package"""\n')
    (src / "notes.txt").write_text("not source\n")

    def src_digest():
        text = "".join(p.read_text() for p in sorted(src.glob("*.py")))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    assert recorder.dirty(src_digest()) is None
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "source"]):
        subprocess.run(git + args, cwd=tmp_path, check=True)
    assert recorder.dirty(src_digest()) is False
    (src / "graphs.py").write_text("x = 2\n")
    assert recorder.dirty(src_digest()) is True
    (src / "graphs.py").write_text("x = 1\n")
    (src / "notes.txt").write_text("edited, but not source\n")
    assert recorder.dirty(src_digest()) is False
