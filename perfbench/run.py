"""Run one benchmark workload and print its result as the last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fetch-warm --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; progress and check
failures go to standard error.  Without the program's sources next to
``perfbench/`` the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("fetch-warm", "fetch-cold", "ingest-revoke")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import harness

    result = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
