"""Acceptance battery: one callable per exit criterion.

Each criterion returns (ok, detail).  The registry drives both the pytest
acceptance module and the CLI ``verify`` subcommand.  Everything is exact;
the numeric expectations are frozen from independent small-case computations.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import bratteli, characters, combinat, diagram, jm, rook, rsk, seminormal, tensor
from .bratteli import HALF
from .formal import FormalSum
from .linalg import ExactMatrix

ROOK_SIZES = {1: 2, 2: 7, 3: 34, 4: 209}
PROP_SIZES = {1: 1, 2: 3, 3: 25, 4: 339}
PROP_HALF_SIZES = {1: 2, 2: 12, 3: 128}


def crit_dimension_identity():
    details = []
    for n, size in ROOK_SIZES.items():
        total = sum(
            len(combinat.standard_tableaux(lam, n)) ** 2
            for lam in combinat.partitions_upto(n)
        )
        monoid = len(rook.enumerate_rook(n))
        if total != monoid or monoid != size:
            return False, f"n={n}: sum of squares {total}, monoid size {monoid}"
        details.append(f"n={n}: {total}")
    return True, "; ".join(details)


def _relation_checks(n, mul, s, p1, pj, identity):
    """Presentation relations shared by the monoid and every module."""
    checks = []
    for i in range(1, n):
        checks.append((f"s_{i}^2", mul(s(i), s(i)) == identity))
    for i in range(1, n - 1):
        checks.append(
            (
                f"braid {i}",
                mul(mul(s(i), s(i + 1)), s(i)) == mul(mul(s(i + 1), s(i)), s(i + 1)),
            )
        )
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) >= 2:
                checks.append((f"s_{i}s_{j}", mul(s(i), s(j)) == mul(s(j), s(i))))
    for i in range(2, n):
        checks.append((f"s_{i}P_1", mul(s(i), p1) == mul(p1, s(i))))
    checks.append(("P_1^2", mul(p1, p1) == p1))
    for j in range(2, n + 1):
        checks.append(
            (f"P_{j} recursion", pj(j) == mul(mul(pj(j - 1), s(j - 1)), pj(j - 1)))
        )
    return checks


def crit_presentation_relations():
    max_n = 4
    for n in range(1, max_n + 1):
        checks = _relation_checks(
            n,
            rook.rook_mul,
            lambda i: rook.generator("s", i, n),
            rook.generator("P", 1, n),
            lambda j: rook.generator("P", j, n),
            rook.RookElement.identity(n),
        )
        bad = [name for name, ok in checks if not ok]
        if bad:
            return False, f"monoid relations fail at n={n}: {bad}"
        for lam in combinat.partitions_upto(n):
            irrep = seminormal.RookIrrep(lam, n)
            checks = _relation_checks(
                n,
                lambda a, b: a * b,
                lambda i: irrep.token_matrix(("s", i)),
                irrep.token_matrix(("P1", 0)),
                lambda j: irrep.rep_rook(rook.generator("P", j, n)),
                ExactMatrix.identity(irrep.dim),
            )
            bad = [name for name, ok in checks if not ok]
            if bad:
                return False, f"module relations fail at n={n}, {lam}: {bad}"
    return True, f"relations hold in the monoid and all modules, n <= {max_n}"


def crit_jm_action():
    count = 0
    for n in range(1, 5):
        for lam in combinat.partitions_upto(n):
            report = seminormal.verify_jm_action(lam, n)
            if not report["ok"]:
                return False, f"n={n}, {lam}: {report['mismatches'][:3]}"
            count += len(report["rows"])
    return True, f"{count} diagonal eigenvalues verified"


def crit_rook_commutation():
    max_n = 4
    for n in range(1, max_n + 1):
        fam = [rook.jm_x(i, n) for i in range(1, n + 1)] + [
            rook.jm_x_tilde(i, n) for i in range(1, n + 1)
        ]
        for a in range(len(fam)):
            for b in range(a + 1, len(fam)):
                if rook.algebra_mul(fam[a], fam[b]) != rook.algebra_mul(fam[b], fam[a]):
                    return False, f"commutation fails at n={n} ({a},{b})"
        gens = [FormalSum.term(g) for g in rook.generators(n)]
        for central in (rook.kappa(n), rook.kappa_tilde(n)):
            for g in gens:
                if rook.algebra_mul(central, g) != rook.algebra_mul(g, central):
                    return False, f"central sum not central at n={n}"
    return True, f"family commutes and sums are central, n <= {max_n}"


def crit_kronecker_pointwise():
    shapes = 0
    for n in range(1, 5):
        for lam in combinat.partitions_upto(n):
            characters.kronecker_with_defining(lam, n, verify=True)
            shapes += 1
    return True, f"pointwise product rule verified for {shapes} (lam, n) pairs"


def crit_three_way_multiplicity():
    n, kmax = 3, 4
    graph = bratteli.rhat(n, kmax)
    for k in range(1, kmax + 1):
        by_chars = characters.tensor_multiplicities(n, k)
        for lam in combinat.partitions_upto(n):
            stirl = combinat.stirling2(k, sum(lam)) * combinat.f_lambda(lam)
            if lam and sum(lam) <= min(k, n):
                paths = graph.count_paths((1, (1,)), (k, lam))
            else:
                paths = 0
            char_mult = by_chars.get(lam, 0)
            if not (paths == stirl == char_mult):
                return (
                    False,
                    f"n={n}, k={k}, {lam}: paths={paths}, formula={stirl}, chars={char_mult}",
                )
    if graph.count_paths((1, (1,)), (3, (2,))) != 3:
        return False, "expected 3 paths to (2) at level 3"
    return True, f"three methods agree for n={n}, k <= {kmax}"


def crit_rsk_bijection():
    kmax = n = 4
    worked = {
        ((1,), (2,), (1, 1)): (((1,),), ((2, 3),)),
        ((1,), (1, 1), (1, 1)): (((2,),), ((1, 3),)),
        ((1,), (1,), (1, 1)): (((1, 2),), ((3,),)),
    }
    small = bratteli.rhat(3, 3)
    for shapes, expected in worked.items():
        paths = [
            p
            for p in small.enumerate_paths((1, (1,)), (3, shapes[-1]))
            if p.shapes == shapes
        ]
        if len(paths) != 1 or rsk.path_to_spt(paths[0]) != expected:
            return False, f"worked correspondence fails for {shapes}"
    graph = bratteli.rhat(n, kmax)
    total = 0
    for lam in graph.vertices[graph.level_index(kmax)]:
        for path in graph.enumerate_paths((1, (1,)), (kmax, lam)):
            t = rsk.path_to_spt(path)
            back = rsk.spt_to_path(t, kmax)
            if back.shapes != path.shapes or back.vias != path.vias:
                return False, f"path round trip fails for {path.shapes}"
            total += 1
        for t in combinat.standard_spt_tableaux(lam, kmax):
            if rsk.path_to_spt(rsk.spt_to_path(t, kmax)) != t:
                return False, f"tableau round trip fails for {t}"
    expected_total = sum(
        combinat.stirling2(kmax, r) * combinat.f_lambda(lam)
        for r in range(1, kmax + 1)
        for lam in combinat.partitions(r)
    )
    if total != expected_total:
        return False, f"path count {total} != {expected_total}"
    return True, f"{total} paths and tableaux round-trip at k={kmax}"


def crit_orbit_product(k: int = 2):
    diagrams = diagram.enumerate_monoid("A", k)
    # each x_d and its diagram-basis form, made once for all the pairs it is in
    orbit = [diagram.AlgebraElement.from_diagram(d, basis="orbit") for d in diagrams]
    rows = list(zip(diagrams, orbit, map(diagram.from_orbit, orbit)))
    for d1, x1, y1 in rows:
        for d2, x2, y2 in rows:
            direct = diagram.orbit_product_general(x1, x2)
            via_basis = diagram.to_orbit(diagram.diagram_product(y1, y2))
            if direct != via_basis:
                return False, f"orbit product mismatch for {d1}, {d2}"
    return True, f"all {len(diagrams) ** 2} orbit products match the change of basis"


def crit_schur_weyl():
    cases = [(2, 2, False), (3, 2, False), (2, 3, False), (3, 3, False), (2, 1, True), (3, 2, True)]
    details = []
    for n, k, half in cases:
        report = tensor.schur_weyl_report(n, k, half)
        if not report["ok"]:
            return False, f"report fails at n={n}, k={k}, half={half}: {report}"
        details.append(
            f"(n={n},k={k}{'+1/2' if half else ''}): ker={report['kernel_dim']}, "
            f"im={report['image_dim']}"
        )
        if (n, k, half) == (2, 3, False) and report["kernel_dim"] != 6:
            return False, f"kernel at (2,3) is {report['kernel_dim']}, expected 6"
    return True, "; ".join(details)


def crit_operator_identity():
    max_n = 4
    count = 0
    for k in range(1, 4):
        for n in range(k, max_n + 1):
            report = jm.verify_operator_identity(n, Fraction(k))
            if not report["ok"]:
                return False, f"integer level {k}, n={n}: {report['failures']}"
            count += 1
        for n in range(k + 1, max_n + 1):
            report = jm.verify_operator_identity(n, Fraction(k) + HALF)
            if not report["ok"]:
                return False, f"half level {k}+1/2, n={n}: {report['failures']}"
            count += 1
    return True, f"{count} operator identities hold exactly"


def crit_centrality():
    levels = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 2)]
    for t in levels:
        report = jm.verify_centrality(t)
        if not report["ok"]:
            return False, f"level {t}: {report['failures'][:3]}"
    return True, f"centrality and pairwise commutation hold up to level 7/2"


def crit_gt_decomposition():
    levels = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
    for t in levels:
        n = jm.size_and_half(t)[0] + 1
        report = jm.gt_decompose(t, n)
        if not report["ok"]:
            return False, f"level {t}, n={n}: {report['failures'][:3]}"
        tuples = [tuple(v for pair in e["eigenvalues"] for v in pair) for e in report["entries"]]
        if len(set(tuples)) != len(tuples):
            return False, f"level {t}: eigenvalue tuples not distinct"
        tilde_only = [tuple(pair[1] for pair in e["eigenvalues"]) for e in report["entries"]]
        if t.denominator == 1:
            if len(set(tilde_only)) != len(tilde_only):
                return False, f"integer level {t}: content family fails to separate"
    return True, "eigenspaces match the branching paths up to level 5/2"


LEVEL3_ROOK_EDGES = [
    (0, (), ()), (0, (), (1,)),
    (1, (), ()), (1, (), (1,)), (1, (1,), (1,)), (1, (1,), (2,)), (1, (1,), (1, 1)),
    (2, (), ()), (2, (), (1,)), (2, (1,), (1,)), (2, (1,), (2,)), (2, (1,), (1, 1)),
    (2, (2,), (2,)), (2, (2,), (3,)), (2, (2,), (2, 1)),
    (2, (1, 1), (1, 1)), (2, (1, 1), (2, 1)), (2, (1, 1), (1, 1, 1)),
]

LEVEL3_RHAT_EDGES = [
    (1, (1,), (1,)), (1, (1,), (2,)), (1, (1,), (1, 1)),
    (2, (1,), (1,)), (2, (1,), (2,)), (2, (1,), (1, 1)),
    (2, (2,), (2,)), (2, (2,), (1, 1)), (2, (2,), (3,)), (2, (2,), (2, 1)),
    (2, (1, 1), (2,)), (2, (1, 1), (1, 1)), (2, (1, 1), (2, 1)), (2, (1, 1), (1, 1, 1)),
]

LEVEL3_IHAT_EDGES = [
    (Fraction(1, 2), (), (1,)),
    (Fraction(1), (1,), ()), (Fraction(1), (1,), (1,)),
    (Fraction(3, 2), (), (1,)), (Fraction(3, 2), (1,), (2,)), (Fraction(3, 2), (1,), (1, 1)),
    (Fraction(2), (1,), ()), (Fraction(2), (1,), (1,)),
    (Fraction(2), (2,), (1,)), (Fraction(2), (2,), (2,)),
    (Fraction(2), (1, 1), (1,)), (Fraction(2), (1, 1), (1, 1)),
    (Fraction(5, 2), (), (1,)),
    (Fraction(5, 2), (1,), (2,)), (Fraction(5, 2), (1,), (1, 1)),
    (Fraction(5, 2), (2,), (3,)), (Fraction(5, 2), (2,), (2, 1)),
    (Fraction(5, 2), (1, 1), (2, 1)), (Fraction(5, 2), (1, 1), (1, 1, 1)),
]


def _edge_triples(graph):
    out = []
    for li, e in enumerate(graph.edges):
        for (u, v), labels in e.items():
            for _ in labels:
                out.append(
                    (graph.levels[li], graph.vertices[li][u], graph.vertices[li + 1][v])
                )
    return sorted(out)


def crit_level3_snapshots():
    tower = bratteli.rook_tower(3)
    if [len(vs) for vs in tower.vertices] != [1, 2, 4, 7]:
        return False, "rook tower vertex counts differ"
    if _edge_triples(tower) != sorted(LEVEL3_ROOK_EDGES):
        return False, "rook tower edges differ"
    rhg = bratteli.rhat(3, 3)
    if [len(vs) for vs in rhg.vertices] != [1, 3, 6]:
        return False, "tensor-step graph vertex counts differ"
    if _edge_triples(rhg) != sorted(LEVEL3_RHAT_EDGES):
        return False, "tensor-step graph edges differ"
    ihg = bratteli.ihat(3)
    if [len(vs) for vs in ihg.vertices] != [1, 1, 2, 3, 4, 6]:
        return False, "propagating tower vertex counts differ"
    if _edge_triples(ihg) != sorted(LEVEL3_IHAT_EDGES):
        return False, "propagating tower edges differ"
    if not (tower.is_simple() and ihg.is_simple()):
        return False, "tower graphs must be simple"
    return True, "all three level-3 graphs match their frozen snapshots"


def crit_propagating_dimensions():
    kmax = max(PROP_SIZES)
    graph = bratteli.ihat(kmax)
    start = (HALF, ())
    for t in [lv for lv in graph.levels if lv > HALF]:
        li = graph.level_index(t)
        for mu in graph.vertices[li]:
            total = graph.count_paths(start, (t, mu))
            down = 0
            for nu in graph.vertices[li - 1]:
                m = graph.multiplicity(graph.levels[li - 1], nu, mu)
                if m:
                    down += m * graph.count_paths(start, (graph.levels[li - 1], nu))
            if total != down:
                return False, f"recursion fails at level {t}, {mu}"
            if t.denominator == 1:
                expected = combinat.stirling2(int(t), sum(mu)) * combinat.f_lambda(mu)
                if total != expected:
                    return False, f"count at level {t}, {mu} is {total} != {expected}"
    for k, size in PROP_SIZES.items():
        total = sum(
            graph.count_paths(start, (Fraction(k), mu)) ** 2
            for mu in graph.vertices[graph.level_index(Fraction(k))]
        )
        if total != size:
            return False, f"sum of squares at level {k} is {total} != {size}"
    for k, size in PROP_HALF_SIZES.items():
        t = Fraction(k) + HALF
        total = sum(
            graph.count_paths(start, (t, mu)) ** 2
            for mu in graph.vertices[graph.level_index(t)]
        )
        expected = len(diagram.enumerate_monoid("I_half", k))
        if total != expected or expected != size:
            return False, f"sum of squares at level {t} is {total} != {expected}"
    return True, f"dimension recursion and monoid sizes match up to level {kmax}"


CRITERIA = [
    (1, "dimension identity", crit_dimension_identity, 10),
    (2, "presentation relations", crit_presentation_relations, 10),
    (3, "diagonal action of the commuting family", crit_jm_action, 30),
    (4, "commutation and central sums", crit_rook_commutation, 60),
    (5, "pointwise defining-product rule", crit_kronecker_pointwise, 120),
    (6, "three-way multiplicity agreement", crit_three_way_multiplicity, 30),
    (7, "insertion bijection", crit_rsk_bijection, 10),
    (8, "orbit product vs change of basis", crit_orbit_product, 30),
    (9, "duality dimensions", crit_schur_weyl, 300),
    (10, "central sums on tensor space", crit_operator_identity, 60),
    (11, "centrality in the propagating algebras", crit_centrality, 120),
    (12, "eigenspace decomposition by paths", crit_gt_decomposition, 120),
    (13, "level-3 graph snapshots", crit_level3_snapshots, 5),
    (14, "propagating dimension bookkeeping", crit_propagating_dimensions, 30),
]

SUITES = {
    "rook": [1, 2, 3, 4],
    "characters": [5, 6],
    "rsk": [7],
    "diagram": [8],
    "tensor": [9],
    "jm": [10, 11, 12],
    "bratteli": [13, 14],
}


def run_criteria(numbers=None) -> list[dict]:
    if numbers is not None:
        unknown = sorted(set(numbers) - {num for num, *_ in CRITERIA})
        if unknown:
            raise ValueError(f"unknown criterion numbers: {unknown}")
    out = []
    for num, name, fn, budget in CRITERIA:
        if numbers is not None and num not in numbers:
            continue
        start = time.monotonic()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - start
        out.append(
            {
                "criterion": num,
                "name": name,
                "ok": bool(ok),
                "detail": detail,
                "seconds": round(elapsed, 3),
                "budget_seconds": budget,
            }
        )
    return out
