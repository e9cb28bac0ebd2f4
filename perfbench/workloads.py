"""The benchmark's workloads: cases, seeded inputs and correctness checks.

Each case runs in a fresh interpreter (see ``child.py``).  ``make_inputs``
runs during set-up and gets a ``random.Random`` seeded from the workload,
the case and the benchmark seed; only the sampled cases use it.  ``run`` is
the timed section and goes through the public ``rookpart`` API by module
attribute, so traced runs see every call.  ``check`` returns None when the
result is right, otherwise a one-line description of the first failure.

``size`` is "full" for measurement and "smoke" for the benchmark's own tests,
which run every case at tiny sizes.

This module imports ``rookpart`` only inside functions, so the parent
process can read the case table without loading the library.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

REFERENCE = Path(__file__).resolve().parent / "reference" / "verify_stdout.txt"


@dataclass(frozen=True)
class Case:
    name: str
    timeout_s: float
    make_inputs: Callable[[random.Random, str], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], "str | None"]


def rng_for(workload: str, case: str, seed: int) -> random.Random:
    # string seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}/{case}/{seed}")


def _report_ok(report, _inputs):
    return None if report["ok"] else f"report not ok: {report.get('failures', report)}"


# --- battery ---------------------------------------------------------------------


def _battery_inputs(rng, size):
    # a CLI user pays for loading the CLI before the command runs; loading it
    # here also lets a tracer see rookpart.acceptance and its criterion table
    import rookpart.cli  # noqa: F401

    lines = REFERENCE.read_text().splitlines(keepends=True)
    if size == "full":
        return ["verify"], "".join(lines)
    # the reference lines of two quick criteria, plus the summary line the CLI
    # prints for a two-criterion run
    picked = (1, 13)
    kept = [ln for ln in lines[:-1] if any(f'"criterion": {c},' in ln for c in picked)]
    summary = '{"ok": true, "passed": 2, "total": 2}\n'
    return ["verify", "--criterion", *map(str, picked)], "".join(kept) + summary


def _battery_run(inputs):
    from rookpart import cli

    argv, _ = inputs
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return {"status": status, "stdout": buf.getvalue()}


def _battery_check(result, inputs):
    if result["status"] != 0:
        return f"exit status {result['status']}"
    if result["stdout"] == inputs[1]:
        return None
    expected = inputs[1].splitlines()
    got = result["stdout"].splitlines()
    for i, (a, b) in enumerate(zip(got, expected)):
        if a != b:
            return f"stdout line {i + 1} differs from the reference: {a[:160]}"
    return f"stdout has {len(got)} lines, reference has {len(expected)}"


# --- tensor_frontier -------------------------------------------------------------


def _gt_run(inputs):
    from rookpart import jm

    t, n = inputs
    return jm.gt_decompose(t, n=n)


def _operator_identity_run(inputs):
    from rookpart import jm

    n, t = inputs
    return jm.verify_operator_identity(n, t)


SCHUR_WEYL_DIMS = {
    (2, 4): {"kernel_dim": 240, "expected_kernel_dim": 240, "image_dim": 99,
             "commutant_dim": 99, "psi_image_dim": 6, "phi_commutant_dim": 6},
    (2, 2): {"kernel_dim": 0, "expected_kernel_dim": 0, "image_dim": 3,
             "commutant_dim": 3, "psi_image_dim": 6, "phi_commutant_dim": 6},
}


def _schur_weyl_run(inputs):
    from rookpart import tensor

    return tensor.schur_weyl_report(*inputs)


def _schur_weyl_check(report, inputs):
    if not report["ok"]:
        return f"report not ok: {report}"
    got = {k: report[k] for k in SCHUR_WEYL_DIMS[inputs]}
    return None if got == SCHUR_WEYL_DIMS[inputs] else f"dimensions {got}"


COEFFS = (-3, -2, -1, 1, 2, 3)


def _commute_inputs(rng, size):
    """Random orbit-basis elements of I_k and rook-algebra sums of R_n."""
    from rookpart import diagram, formal, rook

    n, k, pairs, terms = (3, 3, 12, 6) if size == "full" else (2, 2, 2, 2)
    diagrams = diagram.enumerate_monoid("I", k)
    rooks = rook.enumerate_rook(n)
    out = []
    for _ in range(pairs):
        a = diagram.AlgebraElement(
            k, "orbit", [(d, Fraction(rng.choice(COEFFS))) for d in rng.sample(diagrams, terms)]
        )
        x = formal.FormalSum([(r, Fraction(rng.choice(COEFFS))) for r in rng.sample(rooks, terms)])
        out.append((a, x))
    return n, k, out


def _commute_run(inputs):
    from rookpart import tensor

    n, k, pairs = inputs
    space = tensor.TensorSpace(n, k)
    verdicts = []
    for a, x in pairs:
        phi = tensor.phi_element(a, space)
        psi = tensor.psi_element(x, space)
        verdicts.append(phi * psi == psi * phi)
    return verdicts


def _commute_check(verdicts, inputs):
    bad = [i for i, ok in enumerate(verdicts) if not ok]
    if len(verdicts) != len(inputs[2]):
        return f"{len(verdicts)} verdicts for {len(inputs[2])} pairs"
    return f"phi(a) and psi(x) do not commute for pairs {bad}" if bad else None


# --- diagram_algebra -------------------------------------------------------------


def _centrality_run(t):
    from rookpart import jm

    return jm.verify_centrality(t)


def _orbit_pairs_inputs(rng, size):
    """Pairs of A_k diagrams, stratified by the block counts of both factors.

    The cost of one pair grows with Bell(blocks) of each factor, so each
    (blocks, blocks) cell gets a fixed share of the sample, proportional to
    its share of all pairs; the seed picks the diagrams inside each cell.
    """
    from rookpart import diagram

    k, total = (3, 600) if size == "full" else (2, 10)
    monoid = diagram.enumerate_monoid("A", k)
    by_blocks: dict[int, list] = {}
    for d in monoid:
        by_blocks.setdefault(d.n_blocks(), []).append(d)
    pairs = []
    for b1 in sorted(by_blocks):
        for b2 in sorted(by_blocks):
            share = len(by_blocks[b1]) * len(by_blocks[b2]) / len(monoid) ** 2
            for _ in range(round(total * share)):
                pairs.append((rng.choice(by_blocks[b1]), rng.choice(by_blocks[b2])))
    return monoid, pairs


def _orbit_pairs_run(inputs):
    """orbit_product_general against the product taken in the diagram basis.

    Every diagram of A_k goes through from_orbit first, so the basis-change
    caches are full before the sampled pairs run and a pair's cost does not
    depend on which pairs came before it.
    """
    from rookpart import diagram

    monoid, pairs = inputs
    for d in monoid:
        diagram.from_orbit(diagram.AlgebraElement.from_diagram(d, basis="orbit"))
    mismatches = []
    for d1, d2 in pairs:
        x1 = diagram.AlgebraElement.from_diagram(d1, basis="orbit")
        x2 = diagram.AlgebraElement.from_diagram(d2, basis="orbit")
        direct = diagram.orbit_product_general(x1, x2)
        via_basis = diagram.to_orbit(
            diagram.diagram_product(diagram.from_orbit(x1), diagram.from_orbit(x2))
        )
        if direct != via_basis:
            mismatches.append((str(d1), str(d2)))
    return {"pairs": len(pairs), "mismatches": mismatches}


def _orbit_pairs_check(result, inputs):
    if result["pairs"] != len(inputs[1]):
        return f"{result['pairs']} of {len(inputs[1])} pairs ran"
    bad = result["mismatches"]
    return f"{len(bad)} orbit products differ, first {bad[0]}" if bad else None


# --- characters ------------------------------------------------------------------


def _multiplicities_run(inputs):
    from rookpart import characters

    return characters.tensor_multiplicities(*inputs)


def _multiplicities_check(mult, inputs):
    from rookpart import combinat

    n, k = inputs
    for lam in combinat.partitions_upto(n):
        expected = combinat.stirling2(k, sum(lam)) * combinat.f_lambda(lam) if lam else 0
        if mult.get(lam, 0) != expected:
            return f"multiplicity of {lam} is {mult.get(lam, 0)}, expected {expected}"
    return None


def _kronecker_inputs(rng, size):
    from rookpart import combinat

    n = 5 if size == "full" else 3
    return n, combinat.partitions_upto(n)


def _kronecker_run(inputs):
    from rookpart import characters

    n, shapes = inputs
    return {lam: characters.kronecker_with_defining(lam, n, verify=True) for lam in shapes}


def _kronecker_check(products, inputs):
    """Dimension count: the defining module has dimension n, and the rook
    irreducible of shape lam has dimension C(n, |lam|) f_lam."""
    from rookpart import combinat

    n, shapes = inputs

    def dim(lam):
        return math.comb(n, sum(lam)) * combinat.f_lambda(lam)

    if list(products) != list(shapes):
        return "not every shape was decomposed"
    for lam, mult in products.items():
        total = sum(m * dim(mu) for mu, m in mult.items())
        if total != n * dim(lam):
            return f"dimensions of defining x {lam}: {total} != {n * dim(lam)}"
    return None


def _fixed(full, smoke):
    return lambda rng, size: full if size == "full" else smoke


WORKLOADS: dict[str, tuple[Case, ...]] = {
    "battery": (
        Case("verify", 120, _battery_inputs, _battery_run, _battery_check),
    ),
    "tensor_frontier": (
        Case("gt_decompose_3_n3", 60, _fixed((Fraction(3), 3), (Fraction(2), 2)), _gt_run, _report_ok),
        Case("operator_identity_5_3", 90, _fixed((5, Fraction(3)), (3, Fraction(2))),
             _operator_identity_run, _report_ok),
        Case("schur_weyl_2_4", 60, _fixed((2, 4), (2, 2)), _schur_weyl_run, _schur_weyl_check),
        Case("phi_psi_commute_3_3", 60, _commute_inputs, _commute_run, _commute_check),
    ),
    "diagram_algebra": (
        Case("centrality_7_2", 40, _fixed(Fraction(7, 2), Fraction(3, 2)), _centrality_run, _report_ok),
        Case("orbit_pairs_a3", 90, _orbit_pairs_inputs, _orbit_pairs_run, _orbit_pairs_check),
    ),
    "characters": (
        Case("tensor_multiplicities_5_2", 60, _fixed((5, 2), (3, 2)), _multiplicities_run,
             _multiplicities_check),
        Case("kronecker_defining_5", 60, _kronecker_inputs, _kronecker_run, _kronecker_check),
    ),
}


def case(workload: str, name: str) -> Case:
    for c in WORKLOADS[workload]:
        if c.name == name:
            return c
    raise KeyError(f"{workload}/{name}")
