#!/usr/bin/env python3
"""Regenerate perfbench/golden.json: SHA-256 digests of the first items of
each workload at the golden seed.

    python3 perfbench/make_golden.py

Run it only on a commit whose outputs are trusted. Every item is checked
as in a benchmark run (the three chi routes agree, every induction step,
Serre and nef check passes, Ishida holds) before its digest is written;
a failing item aborts without writing anything.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 0


def main() -> int:
    run.import_program()
    from workloads import WORKLOADS

    digests = {}
    for name, count in run.PREFIX_ITEMS.items():
        w = WORKLOADS[name](SEED)
        w.set_up()
        out = []
        for k, inp in zip(range(count), w.inputs()):
            ok, digest = run.run_item(w, inp)
            if not ok:
                print(f"{name} item {k} failed its checks; golden not written", file=sys.stderr)
                return 1
            out.append(digest)
        digests[name] = out
        print(f"{name}: {len(out)} items")
    run.GOLDEN.write_text(json.dumps({"seed": SEED, "digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
