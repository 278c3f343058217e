"""Byte identity of ``avdtotal color --json`` on three fixed inputs.

The digests are SHA-256 of the exact stdout bytes, recorded before the
seeding and deletion-stage fast paths replaced the set-based code. Any
change to first-fit order, to which random draw each resampled indicator
gets, or to the output format shows up here.
"""

import hashlib
import json
import random

import pytest

from avdtotal import cli, random_gnp, write_graph6


def sparse_edges(n=400, m=800, seed=11):
    """Uniform random edges: maximum degree far below lambda, so p = 1."""
    rnd = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def hub_edges(n=300, hubs=4, hub_degree=80, m=600, seed=5):
    """A sparse background plus a clique of equal-degree hubs.

    Hub neighbours are mostly low, so B_vertex keeps firing and the bulk
    stage resamples until its stall cap; the hub clique gives A_pair live
    edges to check.
    """
    rnd = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rnd.randrange(hubs, n), rnd.randrange(hubs, n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    for h in range(hubs):
        edges.update((a, h) for a in range(h))
        for w in rnd.sample(range(hubs, n), hub_degree - (hubs - 1)):
            edges.add((h, w))
    return n, sorted(edges)


def dimacs(n, edges):
    return f"p edge {n} {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)


CASES = {
    # Delta ~ 60 > lambda, so both stages really sample
    "dense_graph6": (
        lambda: write_graph6(random_gnp(62, 0.9, 0)) + "\n",
        ["--seed", "0"],
        "59bdddaeea8c2ac19f67bcc3e6fc199cee14902261c34545943797bd5d8c8609"),
    "sparse_dimacs": (
        lambda: dimacs(*sparse_edges()),
        ["--format", "dimacs", "--seed", "3"],
        "6b82fef5c8cff11ee3de07929d52ad1fb00aa59933cce1820e696bdfbd7f05d4"),
    "hub_dimacs": (
        lambda: dimacs(*hub_edges()),
        ["--format", "dimacs", "--seed", "1", "--stall-rounds", "6"],
        "621b9a391bd3ff122fb9a792c510b11d22ac9f4d24fb0c7b5e78e91bd1fffde8"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_color_json_bytes(name, tmp_path, capsys):
    text, flags, digest = CASES[name]
    path = tmp_path / "graph.in"
    path.write_text(text())
    code = cli.main(["color", "--json", "--in", str(path), *flags])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    report = json.loads(out)["report"]
    if name == "hub_dimacs":
        assert report["e1_rounds"] > 1
    if name == "sparse_dimacs":
        assert report["p"] == 1.0
