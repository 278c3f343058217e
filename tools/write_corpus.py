"""Write the connected graphs on 7 vertices as a graph6 corpus.

    python3 tools/write_corpus.py

Writes ``tests/data/connected_7.g6``: one line per isomorphism class, 853
in all, the first member of each class in the edge-subset scan of
``tests/helpers.connected_graphs(7)``, in scan order, written with
``write_graph6``. The scan takes several seconds, so the tests and the CI
corpus scan read the file instead; the tests pin its count, that no two of
its graphs are isomorphic, and its conjecture scan.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from avdtotal import write_graph6  # noqa: E402
from helpers import connected_graphs  # noqa: E402

OUT = ROOT / "tests" / "data" / "connected_7.g6"


def main() -> int:
    lines = [write_graph6(g) for g in connected_graphs(7)]
    OUT.write_text("".join(line + "\n" for line in lines))
    print(f"wrote {len(lines)} graphs to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
