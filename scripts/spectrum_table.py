#!/usr/bin/env python3
"""Print the joint spectrum of the commuting family at a given level.

Usage: spectrum_table.py [level] [n]

Each row is one branching path with its predicted (M, M~) eigenvalue pairs and
the dimension of the joint eigenspace it cuts out of the tensor power.
"""

import sys
from fractions import Fraction

from rookpart.jm import gt_decompose, size_and_half


def main() -> int:
    level = Fraction(sys.argv[1]) if len(sys.argv) > 1 else Fraction(5, 2)
    n = int(sys.argv[2]) if len(sys.argv) > 2 else size_and_half(level)[0] + 1
    report = gt_decompose(level, n)
    print(f"level {level}, n = {n}: {'ok' if report['ok'] else 'FAILED'}")
    for entry in report["entries"]:
        shapes = " -> ".join(",".join(map(str, s)) or "()" for s in entry["path"].shapes)
        pairs = " ".join(f"({m},{mt})" for m, mt in entry["eigenvalues"])
        print(f"  dim {entry['dimension']}  {shapes}")
        print(f"      spectrum {pairs}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
