#!/usr/bin/env python3
"""Run the full acceptance battery and print a one-line-per-criterion table.

Exit status is nonzero if anything fails.  Equivalent to ``rookpart verify``
but with a human-oriented layout.
"""

import argparse
import sys

from rookpart.acceptance import run_criteria


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    results = run_criteria()
    width = max(len(r["name"]) for r in results)
    for r in results:
        status = "PASS" if r["ok"] else "FAIL"
        print(
            f"{status}  #{r['criterion']:02d}  {r['name']:<{width}}  "
            f"{r['seconds']:8.3f}s / {r['budget_seconds']:>3d}s  {r['detail']}"
        )
    passed = sum(r["ok"] for r in results)
    print(f"\n{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
