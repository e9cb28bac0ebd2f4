"""Command-line front end.

All structured output is deterministic JSON with sorted keys; exact values are
emitted as strings like "-3/2" (plain integers stay JSON numbers).  Partitions
are written as comma-separated parts ("2,1", empty string for the empty
shape); diagrams use the bracketed block format with primed vertices negative;
rook elements are JSON lists of (column, row) pairs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import acceptance, bratteli, characters, combinat, diagram, jm, rsk, seminormal, tensor
from .limits import check
from .rook import RookElement


def parse_partition(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return combinat.check_partition(tuple(int(p) for p in text.split(",")))
    except ValueError:
        raise ValueError("--lambda must be comma-separated positive parts, largest first, like 2,1") from None


def format_partition(lam) -> str:
    return ",".join(str(p) for p in lam)


def parse_level(text: str) -> Fraction:
    return jm.as_level(text)


def parse_int_lists(text: str, depth: int, what: str):
    """A JSON argument made of lists of integers nested exactly depth deep.
    Text that is not JSON gets the same one-line message, naming ``what``,
    as JSON of another shape."""
    message = f"{what} must be JSON lists of integers nested {depth} deep"
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        raise ValueError(message) from None

    def fits(x, d):
        if d == 0:
            return type(x) is int
        return isinstance(x, list) and all(fits(y, d - 1) for y in x)

    if not fits(value, depth):
        raise ValueError(message)
    return value


def parse_diagram(text: str, option: str) -> diagram.PartitionDiagram:
    blocks = parse_int_lists(text, 2, option)
    check("diagram size", max((abs(v) for b in blocks for v in b), default=0))
    return diagram.PartitionDiagram.parse(text)


def parse_rook(text: str, n: int) -> RookElement:
    pairs = parse_int_lists(text, 2, "--sigma")
    for pair in pairs:
        if len(pair) != 2:
            raise ValueError(f"--sigma pair {pair} must have two entries")
    return RookElement.from_pairs(n, [tuple(p) for p in pairs])


def format_exact(value) -> object:
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return str(value)


def emit(payload) -> None:
    """Print payload as one JSON line.  An exact result such as ``mult``'s
    S(k, |lambda|) f_lambda can pass Python's limit on the digits of an int
    turned into a string, so the limit is lifted while this line is made."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python before 3.10.7 has no limit
        print(json.dumps(payload, sort_keys=True))
        return
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        line = json.dumps(payload, sort_keys=True)
    finally:
        sys.set_int_max_str_digits(digits)
    print(line)


def _cmd_compose(args) -> int:
    d1 = parse_diagram(args.d1, "--d1")
    d2 = parse_diagram(args.d2, "--d2")
    composed, loops = diagram.compose(d1, d2)
    emit({"diagram": str(composed), "xi_power": loops})
    return 0


def _cmd_orbit(args) -> int:
    d = parse_diagram(args.diagram, "--diagram")
    elem = diagram.AlgebraElement.from_diagram(
        d, basis="orbit" if args.direction == "from-orbit" else "diagram"
    )
    converted = (
        diagram.from_orbit(elem)
        if args.direction == "from-orbit"
        else diagram.to_orbit(elem)
    )
    emit(
        {
            "basis": converted.basis,
            "terms": [[format_exact(c), str(k)] for k, c in converted.sum.items()],
        }
    )
    return 0


def _cmd_bratteli(args) -> int:
    if args.kind == "ihat":
        graph = bratteli.ihat(parse_level(args.levels))
    else:
        try:
            levels = int(args.levels)
        except ValueError:
            raise ValueError(f"--levels must be an integer for --kind {args.kind}, like 3") from None
        graph = bratteli.rook_tower(levels) if args.kind == "rook" else bratteli.rhat(args.n, levels)
    if args.dot:
        print(graph.to_dot())
    else:
        emit(graph.to_json_dict())
    return 0


def _cmd_dims(args) -> int:
    out = {}
    if args.n is not None:
        check("rook irreducibles", args.n)
        out["rook_irreps"] = {
            format_partition(lam): combinat.rook_irrep_dim(lam, args.n)
            for lam in combinat.partitions_upto(args.n)
        }
    if args.t is not None:
        t = parse_level(args.t)
        check("propagating irreducibles", t)
        graph = bratteli.ihat(t)
        li = graph.level_index(t)
        out["propagating_irreps"] = {
            format_partition(mu): graph.count_paths((bratteli.HALF, ()), (t, mu))
            for mu in graph.vertices[li]
        }
    if not out:
        raise ValueError("dims needs --n and/or --t")
    emit(out)
    return 0


def _cmd_mult(args) -> int:
    lam = parse_partition(args.lam)
    n, k = args.n, args.k
    check("tensor multiplicities", n)
    check("tensor power", k)
    check("shape size", sum(lam))
    # the graph comes first, so its limits refuse before any other work
    graph = bratteli.rhat(n, k) if lam and sum(lam) <= min(k, n) else None
    stirl = combinat.stirling2(k, sum(lam)) * combinat.f_lambda(lam)
    paths = graph.count_paths((1, (1,)), (k, lam)) if graph is not None else 0
    chars = characters.tensor_multiplicities(n, k).get(lam, 0)
    emit({"paths": paths, "stirling_formula": stirl, "character": chars})
    return 0


def _cmd_rsk(args) -> int:
    if args.to_tableau is not None:
        data = parse_int_lists(args.to_tableau, 2, "--to-tableau")
        shapes = [tuple(s) for s in data]
        tab = rsk.path_to_spt(shapes)
        emit({"tableau": [[list(b) for b in row] for row in tab]})
    else:
        if args.k is None:
            raise ValueError("--to-path needs --k")
        rows = parse_int_lists(args.to_path, 3, "--to-path")
        tab = tuple(tuple(tuple(b) for b in row) for row in rows)
        path = rsk.spt_to_path(tab, args.k)
        emit(
            {
                "path": [format_partition(s) for s in path.shapes],
                "intermediates": [
                    None if v is None else format_partition(v) for v in path.vias
                ],
            }
        )
    return 0


def _cmd_character(args) -> int:
    check("rook characters", args.n)
    lam = parse_partition(args.lam)
    sigma = parse_rook(args.sigma, args.n)
    emit({"value": characters.chi_star(lam, sigma)})
    return 0


def _cmd_schur_weyl(args) -> int:
    report = tensor.schur_weyl_report(args.n, args.k, args.half)
    emit(
        {
            "kernel_dim": report["kernel_dim"],
            "image_dim": report["image_dim"],
            "commutant_dim": report["commutant_dim"],
            "ok": report["ok"],
        }
    )
    return 0 if report["ok"] else 1


def _cmd_jm(args) -> int:
    if args.verify:
        t = parse_level(args.t)
        reports = [jm.verify_centrality(t)]
        if args.n is not None:
            reports.append(jm.verify_operator_identity(args.n, t))
        emit({"reports": reports})
        return 0 if all(r["ok"] for r in reports) else 1
    t = parse_level(args.t)
    if args.n is None:
        raise ValueError("jm needs --n for the eigenvalue table")
    report = jm.gt_decompose(t, args.n)
    rows = [
        {
            "path": [format_partition(s) for s in e["path"].shapes],
            "eigenvalues": [
                [format_exact(m), format_exact(mt)] for m, mt in e["eigenvalues"]
            ],
            "dimension": e["dimension"],
        }
        for e in report["entries"]
    ]
    emit({"level": report["level"], "n": report["n"], "ok": report["ok"], "table": rows})
    return 0 if report["ok"] else 1


def _cmd_rook_jm(args) -> int:
    lam = parse_partition(args.lam)
    report = seminormal.verify_jm_action(lam, args.n)
    rows = [
        {
            "lambda": format_partition(r["lambda"]),
            "tableau": [list(row) for row in r["tableau"]],
            "i": r["i"],
            "x_eig": format_exact(r["x_eig"]),
            "xtilde_eig": format_exact(r["xtilde_eig"]),
        }
        for r in report["rows"]
    ]
    emit({"ok": report["ok"], "rows": rows})
    return 0 if report["ok"] else 1


def _cmd_verify(args) -> int:
    numbers = None
    if args.suite:
        numbers = acceptance.SUITES[args.suite]
    if args.criterion:
        numbers = args.criterion
    results = acceptance.run_criteria(numbers)
    for rec in results:
        # wall-clock timing would break byte-identical reruns, so it goes to stderr
        emit({k: v for k, v in rec.items() if k != "seconds"})
        if args.timings:
            timing = {"criterion": rec["criterion"], "seconds": rec["seconds"]}
            print(json.dumps(timing, sort_keys=True), file=sys.stderr)
    ok = all(r["ok"] for r in results)
    emit({"passed": sum(r["ok"] for r in results), "total": len(results), "ok": ok})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookpart",
        description="Exact computations with rook monoids and totally propagating partition algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="compose two partition diagrams")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("orbit", help="convert between diagram and orbit bases")
    p.add_argument("--diagram", required=True)
    p.add_argument("--direction", choices=["to-orbit", "from-orbit"], default="to-orbit")
    p.set_defaults(fn=_cmd_orbit)

    p = sub.add_parser("bratteli", help="emit a branching graph as DOT or JSON")
    p.add_argument("--kind", choices=["rook", "rhat", "ihat"], required=True)
    p.add_argument("--levels", required=True, help="top level (half-integers like 5/2 for ihat)")
    p.add_argument("--n", type=int, default=4, help="rook size bound for rhat")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=_cmd_bratteli)

    p = sub.add_parser("dims", help="dimension tables of the irreducibles")
    p.add_argument("--n", type=int)
    p.add_argument("--t", help="half-integer level for the propagating side")
    p.set_defaults(fn=_cmd_dims)

    p = sub.add_parser("mult", help="tensor-power multiplicity three ways")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_mult)

    p = sub.add_parser("rsk", help="convert between paths and set-partition tableaux")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-tableau", metavar="PATH_JSON")
    group.add_argument("--to-path", metavar="TABLEAU_JSON")
    p.add_argument("--k", type=int, help="number of letters (needed with --to-path)")
    p.set_defaults(fn=_cmd_rsk)

    p = sub.add_parser("character", help="irreducible rook character value")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--sigma", required=True, help="JSON list of (column,row) pairs")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_character)

    p = sub.add_parser("schur-weyl", help="kernel/image/commutant report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--half", action="store_true")
    p.set_defaults(fn=_cmd_schur_weyl)

    p = sub.add_parser("jm", help="eigenvalue table or verification at a level")
    p.add_argument("--t", required=True, help="half-integer level, e.g. 5/2")
    p.add_argument("--n", type=int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=_cmd_jm)

    p = sub.add_parser("rook-jm", help="diagonal eigenvalue table of a seminormal module")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_rook_jm)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("--suite", choices=sorted(acceptance.SUITES))
    p.add_argument(
        "--criterion",
        type=int,
        nargs="+",
        choices=[c[0] for c in acceptance.CRITERIA],
        metavar="N",
        help="explicit criterion numbers",
    )
    p.add_argument(
        "--timings",
        action="store_true",
        help="write each criterion's seconds to stderr as one JSON line",
    )
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
