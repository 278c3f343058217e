"""Byte identity of ``avdtotal color --json`` on four fixed inputs.

The digests are SHA-256 of the exact stdout bytes, recorded before the
seeding and deletion-stage fast paths replaced the set-based code. Any
change to first-fit order, to which random draw each resampled indicator
gets, or to the output format shows up here. ``hub_dimacs`` was recorded
again when the bulk search began stopping at its forced floor, which
changed only its ``e1_rounds`` (7 to 1); ``hub_resampling`` was recorded
before that change and still resamples for 23 rounds.
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

    Hub neighbours are mostly low, so with the default m B_vertex fires at
    every hub whatever is drawn and the bulk stage stops in round 1; the
    hub clique gives A_pair live edges to check.
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
        "d5ea4a27c2812769d1b5a1e3886af1cea084c8684f79e63580626fb969b2128d"),
    # a larger m and lam close to the hub degree: A_pair fires at the hub
    # clique on top of the forced B_vertex events, so the bulk stage
    # resamples until its stall cap
    "hub_resampling": (
        lambda: dimacs(*hub_edges(n=80, hubs=4, hub_degree=30, m=160, seed=1)),
        ["--format", "dimacs", "--m", "10", "--d", "6", "--lambda", "28.5",
         "--seed", "1", "--stall-rounds", "10"],
        "18c2963b5e02f4f2c622c740d1aab17f095dd3885852b11fe84a70caff138479"),
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
        assert report["e1_rounds"] == 1
    if name == "hub_resampling":
        assert report["e1_rounds"] > 1
    if name == "sparse_dimacs":
        assert report["p"] == 1.0
