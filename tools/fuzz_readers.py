"""Fuzz the three text readers with small random edits of valid inputs.

    python3 tools/fuzz_readers.py [--edits 20000] [--seed 0]

Each reader starts from one valid input: a graph6 line for
``parse_graph6``, a DIMACS text for ``parse_dimacs``, and a colouring
document for ``from_document``, which reads the ``json.loads`` of the
edited text (an edit that breaks the JSON itself is skipped). Every trial
makes 1 to 4 character edits (an insertion, deletion, replacement or swap
of neighbours) and feeds the result to the reader. A reader may accept
the text, or refuse it with its documented error: ``Graph6Error``,
``DimacsError`` or ``DocumentError``. Any other exception escapes, and is
printed with the text that raised it. The edits are drawn from the
standard library's ``random`` with a fixed seed, so a run repeats exactly.

Exits 1 when any exception escaped, else 0.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from avdtotal import (DimacsError, DocumentError, Graph6Error,  # noqa: E402
                      from_document, parse_dimacs, parse_graph6, random_gnp,
                      run_pipeline, to_document, write_graph6)

# characters an edit may bring in besides the input's own: whitespace, JSON
# and DIMACS punctuation, signs, digits of other scripts, a NUL and the
# ends of the graph6 alphabet
EXTRA = " \n\t\r-+.eE0123456789{}[]:,\"~?@_xpc\x00é٣"


def _document_text() -> str:
    g = random_gnp(8, 0.5, 3)
    return json.dumps(to_document(g, run_pipeline(g)[0]), sort_keys=True)


def _read_document(text: str) -> None:
    try:
        doc = json.loads(text)
    except ValueError:  # not JSON at all: the reader is never reached
        return
    from_document(doc)


# reader name: (valid input, reader, its documented error)
READERS = {
    "graph6": (write_graph6(random_gnp(12, 0.4, 1)) + "\n", parse_graph6, Graph6Error),
    "dimacs": ("c a small graph\np edge 6 7\ne 1 2\ne 2 3\ne 3 1\ne 4 5\ne 5 6\n"
               "e 6 4\ne 1 4\n", parse_dimacs, DimacsError),
    "document": (_document_text(), _read_document, DocumentError),
}


def edit(text: str, rng: random.Random) -> str:
    """text with 1 to 4 random character edits."""
    chars = list(text)
    pool = EXTRA + text
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(4) if chars else 0
        if op == 0:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(pool))
            continue
        at = rng.randrange(len(chars))
        if op == 1:
            del chars[at]
        elif op == 2:
            chars[at] = rng.choice(pool)
        else:  # at 0, the first character swaps with the last
            chars[at - 1], chars[at] = chars[at], chars[at - 1]
    return "".join(chars)


def fuzz(edits: int, seed: int) -> dict[str, list[tuple[str, BaseException]]]:
    """For each reader, the (text, exception) pairs of the trials whose
    exception was not the reader's documented error, over edits trials."""
    escaped: dict[str, list[tuple[str, BaseException]]] = {}
    for name, (text, read, documented) in READERS.items():
        rng = random.Random(f"{seed}:{name}")
        escaped[name] = []
        for _ in range(edits):
            mutated = edit(text, rng)
            try:
                read(mutated)
            except documented:
                pass
            except Exception as exc:  # noqa: BLE001  (the point is to catch them)
                escaped[name].append((mutated, exc))
    return escaped


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edits", type=int, default=20000,
                        help="trials per reader (default 20000)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    escaped = fuzz(args.edits, args.seed)
    for name, found in escaped.items():
        print(f"{name}: {args.edits} edits, {len(found)} escaped")
        for text, exc in found[:5]:
            print(f"  {type(exc).__name__}: {exc} on {text!r}")
    return 1 if any(escaped.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
