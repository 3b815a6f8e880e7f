"""Record the pinned references of ``refs.json`` from the oracle path.

Usage, from the root of a checkout::

    python3 perfbench/make_refs.py [--seeds 0-9] [--workload NAME ...]

Every unit runs on the object-engine path (``use_array=False``, the
sequential Monte Carlo), which the production array path must match;
the benchmark then compares every timed op with these outputs.  Seeds
outside the pinned set are checked at run time instead (see
``worker.py``).  Regenerate only when the program's outputs are meant
to change, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
import workloads


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = os.getcwd()
    if os.environ.get("PYTHONHASHSEED") != run.HASH_SEED:
        # Same interpreter settings as the measured worker.
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  run.child_env(root))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "refs.json")
    with open(path, encoding="utf-8") as handle:
        refs = json.load(handle)
    for name in args.workload or list(workloads.WORKLOADS):
        for seed in parse_seeds(args.seeds):
            outputs = workloads.WORKLOADS[name](seed).run_unit("object")
            refs.setdefault(name, {})[str(seed)] = outputs
            print(f"{name} seed {seed}: recorded", flush=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(refs, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
