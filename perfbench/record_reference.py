#!/usr/bin/env python3
"""Write reference.json: answer digests for the default and held-out seeds.

    python3 perfbench/record_reference.py

Runs every operation of every workload once per seed, refuses to record
an answer that fails its invariant check, and stores one digest per
operation.  Record only from a commit whose answers are trusted; the
held-out seed is meant for validating later claims, not for tuning.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for name in sorted(workloads.WORKLOADS):
        digests[name] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            _, ops = run.setup(name, seed)
            table = {}
            for op in ops:
                result = op.call()
                problem = op.check(result)
                if problem is not None:
                    print(f"{name} seed {seed} {op.label}: {problem}", file=sys.stderr)
                    return 1
                table[op.label] = run.digest(op.answer(result))
            digests[name][str(seed)] = table
            print(f"{name} seed {seed}: {len(table)} operations")
    data = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "digests": digests}
    run.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
