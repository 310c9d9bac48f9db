"""Write reference.json: answer digests per workload and seed.

    python3 perfbench/make_reference.py 0 3

Runs one gated pass per workload and seed (the suites workload also covers
its panel seeds) and records each answer's digest.  Refuses to write if any
answer fails its gate.  Regenerating the file hides any change in answers,
so do it only to add seeds, never in a change that touches the program.
"""
from __future__ import annotations

import json
import sys

from run import REFERENCE, WORKLOADS, measure


def main(seeds: list[int]) -> int:
    out: dict = {}
    for name, workload_cls in WORKLOADS.items():
        out[name] = {}
        for seed in seeds:
            gate = measure(workload_cls(seed), 0, False, {})["gate"]
            if gate.failed:
                print("\n".join(gate.problems), file=sys.stderr)
                return 1
            for key, digests in gate.first.items():
                out[name][str(key)] = {
                    "combined": gate.combined[key],
                    "answers": [d[:16] for d in digests]}
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [0, 3]))
