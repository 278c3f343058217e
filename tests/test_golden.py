"""Byte identity of ``avdtotal color --json`` on four fixed inputs.

The digests are SHA-256 of the exact stdout bytes, recorded before the
seeding and deletion-stage fast paths replaced the set-based code. Any
change to first-fit order, to which random draw each resampled indicator
gets, or to the output format shows up here. ``hub_dimacs`` was recorded
again when the bulk search began stopping at its forced floor, which
changed only its ``e1_rounds`` (7 to 1); ``hub_resampling`` was recorded
before that change and still resamples for 23 rounds.

All four were recorded again when ``vizing_color`` began giving each
union edge the lowest colour free at both its ends before building a
Misra-Gries fan, a deliberate output change that moves the fresh-palette
colours of every case. Both hub cases spend one fresh colour fewer
(``final_k`` 134 to 133 and 61 to 60); the dense and sparse cases keep
their ``final_k``. Every recorded output passes ``violations``.

The ``select-e1 --json`` and ``select-e2 --json`` stdout digests and exit
codes on the same inputs, with the same flags, are pinned beside them;
they were recorded before deletion-stage selections became rows of
``g.edges`` with their edge set built on demand.

``gnp_dimacs`` pins a graph at the benchmark's scale, ``random_gnp(2000,
0.01, 0)`` with 19 675 edges, written as DIMACS; it was recorded before the
colouring-document writer, the verifier's colour reader and the equal-mask
scans became array passes.

``edge-color --json`` digests pin the edge colourer's own output on two of
the same inputs, recorded before its colours became a list by edge
position: ``dense_graph6``'s colouring builds 117 Misra-Gries fans and
inverts 100 paths, and first-fit alone colours ``gnp_dimacs``.
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
        "216c88fad3e82bc5e308a8259329c8479787d6afc32970c8bbf265065171d64a"),
    "sparse_dimacs": (
        lambda: dimacs(*sparse_edges()),
        ["--format", "dimacs", "--seed", "3"],
        "37838c38f1d8bd3f1f58710e23442b4e81fe1b5ac250a9d31605ae68bccbc2e0"),
    "hub_dimacs": (
        lambda: dimacs(*hub_edges()),
        ["--format", "dimacs", "--seed", "1", "--stall-rounds", "6"],
        "465822b7cc7dcf1bd819241bfb3af61c288cd8ae92e24b7cd93c7c9a8185a92f"),
    # a larger m and lam close to the hub degree: A_pair fires at the hub
    # clique on top of the forced B_vertex events, so the bulk stage
    # resamples until its stall cap
    "hub_resampling": (
        lambda: dimacs(*hub_edges(n=80, hubs=4, hub_degree=30, m=160, seed=1)),
        ["--format", "dimacs", "--m", "10", "--d", "6", "--lambda", "28.5",
         "--seed", "1", "--stall-rounds", "10"],
        "30a06781a1a1897335ddc8d5a89c0c9cbd85a94ce43c4c7d2bdcc0d3888fe60e"),
    "gnp_dimacs": (
        lambda: dimacs(2000, random_gnp(2000, 0.01, 0).edges),
        ["--format", "dimacs", "--seed", "0"],
        "75beea3adf42ef2861fedeeea08b64a71b2a7a4b26baa53c48814bef6b22d075"),
}


# (command, case): (exit code, SHA-256 of stdout); a stage that ends with
# bad events exits 1
SELECT_DIGESTS = {
    ("select-e1", "dense_graph6"):
        (0, "dd05466d02cbee8438bcd30f534469c8f376610c5dd149d06d1d89600e1fd070"),
    ("select-e2", "dense_graph6"):
        (0, "659522e8100cef6fe7f8e873ae934b2234da748a4a5c4cec47f4debff06be353"),
    ("select-e1", "hub_dimacs"):
        (1, "0564a7eae913dd55213eb3294291a171476c05a164f2f185b64c7a8e15cb6785"),
    ("select-e2", "hub_dimacs"):
        (0, "ef311494b91748800195780cf6bc650d606c3a4d4adb1878d5c870a6e8bcd01a"),
    ("select-e1", "hub_resampling"):
        (1, "a6468bcad2c48ccecca3933c27efb373dd1d9836e4c8faa4263e980af9e30b72"),
    ("select-e2", "hub_resampling"):
        (0, "3d3ac5e70af861b6722aa3f2ccc7d2d2df3f0c81de9acdeb795de5209b849a62"),
    ("select-e1", "sparse_dimacs"):
        (1, "d0eb450580bf59827e161c9cd0138734d3d068c57d582f8f03eddf06a80996b5"),
    ("select-e2", "sparse_dimacs"):
        (1, "23b79c0ee6710aeb0e25fd2e01efa52bd9fb647bd480aeb38d93b99d4a72401b"),
}

# case: (flags, SHA-256 of stdout); edge-color takes the input format alone
EDGE_COLOR_DIGESTS = {
    "dense_graph6":
        ([], "e502de08f7a636858b0fccd6280c92b00dc89f1b508a77db38aa3891c2d982d2"),
    "gnp_dimacs":
        (["--format", "dimacs"],
         "260ddacd4ad84c48edf9addd51b9bcf16094626c33e32f3156fd5e7306211fe1"),
}

# the color cases keep their bare case names as ids
PINNED = ([pytest.param("color", name, id=name) for name in sorted(CASES)]
          + [pytest.param(command, name, id=f"{command}-{name}")
             for command, name in sorted(SELECT_DIGESTS)])


@pytest.mark.parametrize("command, name", PINNED)
def test_color_json_bytes(command, name, tmp_path, capsys):
    text, flags, digest = CASES[name]
    code, digest = SELECT_DIGESTS.get((command, name), (0, digest))
    path = tmp_path / "graph.in"
    path.write_text(text())
    assert cli.main([command, "--json", "--in", str(path), *flags]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if command != "color":
        return
    report = json.loads(out)["report"]
    if name == "hub_dimacs":
        assert report["e1_rounds"] == 1
    if name == "hub_resampling":
        assert report["e1_rounds"] > 1
    if name == "sparse_dimacs":
        assert report["p"] == 1.0


@pytest.mark.parametrize("name", sorted(EDGE_COLOR_DIGESTS))
def test_edge_color_json_bytes(name, tmp_path, capsys):
    flags, digest = EDGE_COLOR_DIGESTS[name]
    path = tmp_path / "graph.in"
    path.write_text(CASES[name][0]())
    assert cli.main(["edge-color", "--json", "--in", str(path), *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
