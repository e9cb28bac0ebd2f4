"""The size limit of every entry point, in one table, with one check.

The objects listed here grow like Bell numbers and factorials (the monoids
R_n, A_k, I_k and I_{k+1/2}, the tensor powers (C^n)^{(x)k}, the branching
graphs and their paths), so every entry point that lists one checks the size
asked for against its row of ``LIMITS`` before any work.  A row names what
the size counts and its largest value: the largest size that finished within
10 s under a 1.5 GB address-space limit on a 2-CPU machine.  Every refusal
reads the same way, e.g. "R_n enumeration: n = 8 exceeds the limit 7".
Lower bounds such as k >= 1 are input checks and stay with their callers.
"""

from __future__ import annotations

from typing import NamedTuple


class Limit(NamedTuple):
    counts: str
    value: int


LIMITS = {
    "A_k enumeration": Limit("diagram size", 5),
    "I_k enumeration": Limit("diagram size", 5),
    "R_n enumeration": Limit("n", 7),
    "tensor space": Limit("dimension n^k", 729),
    # ``jm --t T --n N`` eliminates on one letter-set block per size, whatever
    # N is: level 11/2 (largest block 390 words) took 1.3-2.5 s and 27 MB at
    # N = 6, 7 and 40; level 6 (1,800 words) took 16 s
    "GT decomposition": Limit("largest block", 390),
    "path enumeration": Limit("paths", 200_000),
    "coarsenings": Limit("blocks", 10),
    "rook tower": Limit("levels", 32),
    # measured on ``mult --n 15 --k 48``, whose characters add about 2 s (5.6 s in all)
    "tensor-step graph": Limit("vertices", 25_000),
    # rhat(m, m) has more than 25,000 vertices past m = 23, so this row refuses
    # nothing the one above accepts; checked first, it keeps that count cheap
    "tensor-step shapes": Limit("min(n, levels)", 23),
    "propagating tower": Limit("level", 30),
    "rook irreducibles": Limit("n", 40),
    "propagating irreducibles": Limit("level", 17),
    # measured on ``mult --n 16 --k 16 --lambda 2,1`` (2.4-2.9 s, 98 MB; n = 17 took 3.7 s)
    "tensor multiplicities": Limit("n", 16),
    "tensor power": Limit("k", 2_000),
    # measured on ``mult --lambda``, where f_lambda's hook product grows like |lambda|^2
    "shape size": Limit("|lambda|", 120_000),
    # ``rook-jm`` reads each tableau's path and contents and makes O(n) sparse
    # products of its seminormal matrices: --lambda 2,1 --n 25 (460,000) took
    # 4.5 s and --n 26 (540,800) 3.9 s, --lambda 3 --n 32 (634,880) 4.1 s,
    # --lambda 2,2 --n 20 (969,000) 9.0 s and --lambda 3,3,3 --n 12 (1.1M) 10 s
    "rook-jm": Limit("n (|lambda| + 1) dim", 500_000),
    # measured on ``rsk --to-path`` of a one-column tableau, which grows about
    # like letters^2; the other direction is linear in the size of its path (a
    # one-column growth path of 4,000 steps, 8M parts in all, took 1.3 s)
    "path correspondence": Limit("letters", 4_000),
    # composition grows about like size^2.5; measured on ``compose`` of two
    # diagrams whose 2 * size vertices are all alone (2,750 took 8.8 s, 3,000
    # ran past 10 s)
    "diagram size": Limit("size", 2_750),
    # a lambda larger than n gives 0 at once, and the recursion ends at f_lambda
    # on fixed points, so the cost is the number of subshapes reached by
    # removing the other cycles; slowest were dominoes against a large
    # 2-quotient: ``character`` with lambda (12, 12, 8, 6, 6, 4, 4, 2, 2, 2, 2, 2)
    # at type 2^31 1^4 (3.0 s; the slowest such pair found took 4.2 s at n = 68
    # and 5.5 s at n = 70)
    "rook characters": Limit("n", 66),
}


def check(name: str, asked) -> None:
    """Raise ValueError when the size asked for is past the row called name."""
    row = LIMITS[name]
    if asked > row.value:
        raise ValueError(f"{name}: {row.counts} = {asked} exceeds the limit {row.value}")
