#!/usr/bin/env python3
"""Print the joint spectrum of the commuting family at a given level.

Each row is one branching path with its predicted (M, M~) eigenvalue pairs and
the dimension of the joint eigenspace it cuts out of the tensor power.
"""

import argparse
import sys
from fractions import Fraction

from rookpart.jm import as_level, gt_decompose, size_and_half


def level(text: str) -> Fraction:
    try:
        return as_level(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "level", nargs="?", type=level, default=Fraction(5, 2), help="half-integer level (default 5/2)"
    )
    parser.add_argument("n", nargs="?", type=int, help="tensor dimension (default: the level's size + 1)")
    args = parser.parse_args()
    n = args.n if args.n is not None else size_and_half(args.level)[0] + 1
    try:
        report = gt_decompose(args.level, n)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"level {args.level}, n = {n}: {'ok' if report['ok'] else 'FAILED'}")
    for entry in report["entries"]:
        shapes = " -> ".join(",".join(map(str, s)) or "()" for s in entry["path"].shapes)
        pairs = " ".join(f"({m},{mt})" for m, mt in entry["eigenvalues"])
        print(f"  dim {entry['dimension']}  {shapes}")
        print(f"      spectrum {pairs}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
