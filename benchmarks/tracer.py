"""In-place span tracing of the avdtotal public API, from outside the package.

``Tracer.install`` replaces every public function of the package (the names
in ``avdtotal.__all__``, the classmethods of its exported classes, and
``cli.main``) with a wrapper that records a span: name, start, end, parent
span and trace id. Each function is rebound in every avdtotal module whose
namespace holds it, so calls from one module into another are caught too.
``uninstall`` puts the originals back. Spans stay in memory until
``write_jsonl`` is called at exit.

Counts that the program already returns (stage rounds, selected edges,
fresh colours, repairs) are read by probes at the same boundaries, from the
wrapped function's arguments and result. A probe that fails is counted in
``trace.probe_errors`` and never disturbs the traced call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# normalize_edge runs millions of times per graph; a span per call would
# cost more than the work it measures and drown every other layer.
UNTRACED = frozenset({"normalize_edge"})


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _selection_probe(stage):
    def probe(counts, args, kwargs, result):
        counts[f"highdeg.{stage}_rounds"] += result.rounds
        counts[f"highdeg.{stage}_successes"] += int(result.success)
        counts["highdeg.selected_edges"] += len(result.selection.edges)
        for event in result.violations:
            counts[f"highdeg.{stage}_events.{event.kind}"] += 1
    return probe


def _greedy_probe(counts, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    counts["seeding.elements"] += g.n + len(g.edges)


def _vizing_probe(counts, args, kwargs, result):
    counts["vizing.edges"] += len(_arg(args, kwargs, 0, "g").edges)
    counts["vizing.fresh_colors"] += max(result.colors.values(), default=0)


def _lowdeg_probe(counts, args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    phi = _arg(args, kwargs, 1, "phi")
    counts["lowdeg.low_vertices"] += sum(
        1 for nbrs in g.adjacency if 2 * len(nbrs) <= g.max_degree)
    counts["lowdeg.recolours"] += sum(
        1 for a, b in zip(phi.vertex_colors, result.vertex_colors) if a != b)


def _pipeline_probe(counts, args, kwargs, result):
    counts["pipeline.fallback_repairs"] += result[1].fallback_repairs


PROBES = {
    "seeding.greedy_total": _greedy_probe,
    "highdeg.find_bulk_deletion": _selection_probe("bulk"),
    "highdeg.find_patch_deletion": _selection_probe("patch"),
    "vizing.vizing_color": _vizing_probe,
    "lowdeg.distinguish_low_degree": _lowdeg_probe,
    "pipeline.run_pipeline": _pipeline_probe,
}


class Tracer:
    """Span recorder for one benchmark process.

    A span is ``[name, start, end, parent_index, trace_id]``; its id is its
    index in ``spans``. ``trace_id`` is set by the caller before each graph.
    """

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trace_id = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(span name, target) for every traced callable.

        A target is a function, or ``(class, attribute, classmethod)``.
        """
        pkg = self.package
        out = []
        for name in pkg.__all__:
            obj = getattr(pkg, name)
            layer = getattr(obj, "__module__", "").rsplit(".", 1)[-1]
            if inspect.isfunction(obj) and name not in UNTRACED:
                out.append((f"{layer}.{name}", obj))
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    if isinstance(raw, classmethod):
                        out.append((f"{layer}.{attr}", (obj, attr, raw)))
        cli = sys.modules[pkg.__name__ + ".cli"]
        out.append(("cli.main", cli.main))
        return out

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == self.package.__name__
                                         or k.startswith(self.package.__name__ + "."))]
        for span_name, target in self._targets():
            if isinstance(target, tuple):
                cls, attr, raw = target
                wrapped = classmethod(self._wrap(span_name, raw.__func__))
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            wrapped = self._wrap(span_name, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0,
                    stack[-1] if stack else None, tracer.trace_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                try:
                    probe(tracer.counts, args, kwargs, result)
                except Exception:  # a probe must never change the traced call
                    tracer.counts["trace.probe_errors"] += 1
            return result

        return traced

    # -- results -----------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to pass to ``summary`` for the spans and counts after it."""
        return len(self.spans), Counter(self.counts)

    def summary(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Self time ``<name>_s``, ``<name>_calls`` and probe counts since a mark.

        Self time is a span's duration minus its direct children's; spans
        nest because the traced program is single-threaded.
        """
        first, counts_before = since
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i in range(first, len(self.spans)):
            name, start, end, parent, _ = self.spans[i]
            dur = end - start
            self_s[name] += dur
            calls[name] += 1
            if parent is not None and parent >= first:
                self_s[self.spans[parent][0]] -= dur
        out: dict[str, float] = {}
        for name in self_s:
            out[f"{name}_s"] = self_s[name]
            out[f"{name}_calls"] = calls[name]
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        out.update(counts)
        return out

    def write_jsonl(self, path) -> None:
        epoch = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, trace) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "trace": trace,
                                     "name": name, "start": start - epoch,
                                     "end": end - epoch}) + "\n")
