"""Walk through colour sets, a clash, and the low-degree fix on one graph.

Run: python3 demos/coloring_walkthrough.py
"""

from avdtotal import (Graph, TotalColoring, degree_split,
                      distinguish_low_degree, greedy_total, verdict,
                      violations)


def show(g, phi, label):
    # bit c of a closed-star mask is set when v or an edge at v has colour c
    masks = phi.stars
    print(f"{label}: k={phi.k}")
    for v in range(g.n):
        colours = [c for c in range(1, phi.k + 1) if masks[v] >> c & 1]
        print(f"  vertex {v} (deg {g.degree(v)}): colour {phi.vertex_colors[v]}, "
              f"set {colours} (mask {masks[v]:#b})")


def main():
    # two low-degree vertices (0 and 3..7) around a high hub (vertex 2)
    g = Graph.build(8, [(0, 1), (0, 2), (1, 7), (2, 3), (2, 4), (2, 5), (2, 6)])
    split = degree_split(g)
    print("low vertices:", sorted(split.low), " high vertices:", sorted(split.high))

    # a colouring holds one edge colour per row of g.edges, and its graph
    c_of = {(0, 1): 1, (0, 2): 3, (1, 7): 2, (2, 3): 1, (2, 4): 2,
            (2, 5): 5, (2, 6): 6}
    phi = TotalColoring((2, 3, 4, 2, 1, 1, 1, 1),
                        tuple(c_of[e] for e in g.edges), 6, g)
    assert verdict(g, phi)["proper"]  # so violations lists only clashes
    show(g, phi, "hand-built proper colouring")
    print("clashes:", [v.witness for v in violations(g, phi)])

    fixed = distinguish_low_degree(g, phi)
    show(g, fixed, "after recolouring low-degree vertices")
    print("clashes:", [v.witness for v in violations(g, fixed)])

    print("\ngreedy seed on the same graph needs no fix:")
    seed = greedy_total(g)
    print("  k =", seed.k, " clashes:", len(violations(g, seed)))


if __name__ == "__main__":
    main()
