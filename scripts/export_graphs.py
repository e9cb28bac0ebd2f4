#!/usr/bin/env python3
"""Write the three branching graphs as DOT files."""

import argparse
import pathlib
import sys
from fractions import Fraction

from rookpart.bratteli import ihat, rhat, rook_tower


def positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", type=pathlib.Path, default=pathlib.Path("graphs"))
    parser.add_argument("max_level", nargs="?", type=positive_int, default=3)
    args = parser.parse_args()
    top = args.max_level
    graphs = {
        "rook_tower": rook_tower(top),
        "tensor_steps": rhat(top, top),
        "propagating_tower": ihat(Fraction(top)),
    }
    args.outdir.mkdir(parents=True, exist_ok=True)
    for name, graph in graphs.items():
        path = args.outdir / f"{name}.dot"
        path.write_text(graph.to_dot() + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
