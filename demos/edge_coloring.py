"""Edge colouring within max degree + 1, compared to the exact optimum.

Run: python3 demos/edge_coloring.py
"""

from fractions import Fraction

from avdtotal import (chi_prime_exact, complete_graph, cycle_graph,
                      complete_bipartite_graph, random_gnp, star_graph,
                      vizing_color)


def main():
    cases = [
        ("C_5", cycle_graph(5)),
        ("K_4", complete_graph(4)),
        ("K_5", complete_graph(5)),
        ("K_3,3", complete_bipartite_graph(3, 3)),
        ("star_7", star_graph(7)),
        ("gnp(12, 1/2)", random_gnp(12, Fraction(1, 2), 0)),
    ]
    print(f"{'graph':>13} {'Delta':>5} {'used':>4} {'optimum':>7}")
    for name, g in cases:
        ec = vizing_color(g)
        used = len(set(ec.colors.values()))
        print(f"{name:>13} {g.max_degree:>5} {used:>4} {chi_prime_exact(g):>7}")
    print("\nevery colouring stays within Delta + 1 colours; class-two graphs "
          "(odd cliques, odd cycles) need the extra one")


if __name__ == "__main__":
    main()
