"""Record the input digests that run.py checks every case against.

    python3 benchmarks/pin_inputs.py

Writes ``benchmarks/data/pins.json``: for each workload, the digest of the
edge list of every case key that seeds 0..63 reach, or of the whole
exact_small corpus. Run it only when a workload's definition changes on
purpose. A generator whose per-seed output changed must fail the benchmark,
not be pinned again.
"""

from __future__ import annotations

import json

from run import HERE, import_program

SEEDS = 64


def main() -> None:
    import_program()
    import workloads

    pins = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        if name == "exact_small":
            keys = sorted(workload.keys(0))
        else:
            keys = sorted({k for s in range(SEEDS) for k in workload.keys(s)})
        pins[name] = {str(k): workload.make_case(k).digest for k in keys}
        print(name, len(keys), flush=True)
    (HERE / "data" / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
