"""Checks on the program's outputs that share no code with avdtotal.

The graph under test is always the edge list the benchmark generated, never
the program's own parse of it, so a parser or generator fault shows as a
mismatch rather than being checked against itself.
"""

from __future__ import annotations


def max_degree(n: int, edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


def check_document(n: int, edges: list[tuple[int, int]], doc: dict) -> list[str]:
    """Problems with a colouring document plus pipeline report; [] when sound.

    Checks that the document covers exactly the generated graph, that every
    colour lies in 1..k, that the colouring is proper total and
    adjacent-vertex-distinguishing, and that the report's palette
    accounting and verdict hold.
    """
    if doc.get("n") != n:
        return [f"document n={doc.get('n')} but the graph has {n} vertices"]
    if doc.get("edges") != [[u, v] for u, v in edges]:
        return ["document edge list differs from the generated graph"]
    k = doc.get("k")
    vc = doc.get("vertex_colors")
    if not isinstance(k, int) or not isinstance(vc, list) or len(vc) != n:
        return ["document lacks k or one vertex colour per vertex"]
    records = doc.get("edge_colors", [])
    ec = {(rec["u"], rec["v"]): rec["c"] for rec in records}
    if len(records) != len(edges) or len(ec) != len(edges) or any(e not in ec for e in edges):
        return ["edge colours do not cover the edge set exactly once"]

    problems = []
    if any(not (isinstance(c, int) and 1 <= c <= k) for c in vc) or \
            any(not (isinstance(c, int) and 1 <= c <= k) for c in ec.values()):
        problems.append(f"a colour lies outside 1..{k}")

    # a vertex and its incident edges must all differ, so its colour set
    # has exactly deg + 1 members; adjacent vertices must differ as well
    sets: list[set[int]] = [{c} for c in vc]
    size = [1] * n
    for (u, v), c in ec.items():
        sets[u].add(c)
        sets[v].add(c)
        size[u] += 1
        size[v] += 1
    proper = all(len(s) == d for s, d in zip(sets, size)) and \
        all(vc[u] != vc[v] for u, v in edges)
    if not proper:
        problems.append("colouring is not a proper total colouring")
    elif any(sets[u] == sets[v] for u, v in edges):
        problems.append("adjacent vertices share a colour set")

    report = doc.get("report", {})
    if report.get("final_k") != k:
        problems.append(f"report final_k={report.get('final_k')} but document k={k}")
    if report.get("final_k", 0) - report.get("input_k", 0) != \
            report.get("fresh_palette_size", 0) + report.get("fallback_repairs", 0):
        problems.append("final_k - input_k != fresh_palette_size + fallback_repairs")
    for where, verdict in (("report", report.get("verified")),
                           ("document", doc.get("verified"))):
        if verdict != {"proper": True, "avd": True}:
            problems.append(f"{where} verdict is {verdict}")
    return problems


def decode_graph6(line: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, sorted edge list) of a graph6 line with the one-byte size header."""
    data = [ord(ch) - 63 for ch in line.strip()]
    n = data[0]
    if not 0 <= n <= 62 or any(not 0 <= x < 64 for x in data):
        raise ValueError(f"not a small graph6 line: {line!r}")
    bits = [(x >> shift) & 1 for x in data[1:] for shift in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs):
        raise ValueError(f"truncated graph6 line: {line!r}")
    return n, sorted(p for p, bit in zip(pairs, bits) if bit)
