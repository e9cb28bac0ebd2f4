import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rookpart import bratteli, characters, combinat, diagram, jm, rook, rsk, seminormal, tensor
from rookpart.cli import build_parser, emit, main
from rookpart.limits import LIMITS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    lines = [json.loads(line) for line in out.strip().splitlines()]
    return code, lines


def test_compose_crossing_example(capsys):
    code, lines = run_json(
        capsys,
        "compose",
        "--d1",
        "[[1,3],[2,-1],[4],[-2,-3],[-4]]",
        "--d2",
        "[[1,-4],[2],[3],[4],[-1],[-2,-3]]",
    )
    assert code == 0
    assert lines[0] == {"diagram": "[[1,3],[2,-4],[4],[-1],[-2,-3]]", "xi_power": 2}


def test_orbit_conversion(capsys):
    code, lines = run_json(capsys, "orbit", "--diagram", "[[1],[-1]]")
    assert code == 0
    assert lines[0] == {
        "basis": "orbit",
        "terms": [[1, "[[1],[-1]]"], [1, "[[1,-1]]"]],
    }
    code, lines = run_json(
        capsys, "orbit", "--diagram", "[[1],[-1]]", "--direction", "from-orbit"
    )
    assert lines[0]["terms"] == [[1, "[[1],[-1]]"], [-1, "[[1,-1]]"]]


def test_mult_three_ways(capsys):
    code, lines = run_json(capsys, "mult", "--lambda", "2", "--k", "3", "--n", "3")
    assert code == 0
    assert lines[0] == {"character": 3, "paths": 3, "stirling_formula": 3}


def test_mult_at_a_thousand_tensor_factors(capsys):
    # stirling2 once recursed once per factor and crashed here
    assert run_cli(capsys, "mult", "--lambda", "1", "--k", "1000", "--n", "3") == (
        0,
        '{"character": 1, "paths": 1, "stirling_formula": 1}\n',
    )


def test_emit_prints_ints_past_the_digit_limit_and_restores_it(capsys):
    before = sys.get_int_max_str_digits()
    big = 7 * 10**4999 + 1
    emit({"value": big})
    assert capsys.readouterr().out == '{"value": 7' + "0" * 4998 + '1}\n'
    assert sys.get_int_max_str_digits() == before
    with pytest.raises(TypeError):
        emit({"value": big, "set": {1}})
    assert sys.get_int_max_str_digits() == before


def test_mult_prints_a_stirling_product_of_thousands_of_digits(capsys):
    # S(2000, 300) f_(150,150) has 4,427 digits, past Python's default 4,300
    code, out = run_cli(capsys, "mult", "--lambda", "150,150", "--k", "2000", "--n", "3")
    assert code == 0
    digits = out.split('"stirling_formula": ')[1].rstrip("}\n")
    assert len(digits) == 4427
    assert out.startswith('{"character": 0, "paths": 0, ')
    expected = combinat.stirling2(2000, 300) * combinat.f_lambda((150, 150))
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert int(digits) == expected
    finally:
        sys.set_int_max_str_digits(before)


def test_dims(capsys):
    code, lines = run_json(capsys, "dims", "--n", "2", "--t", "3/2")
    assert code == 0
    assert lines[0]["rook_irreps"] == {"": 1, "1": 2, "2": 1, "1,1": 1}
    assert lines[0]["propagating_irreps"] == {"": 1, "1": 1}


def test_character(capsys):
    code, lines = run_json(
        capsys, "character", "--lambda", "1", "--sigma", "[[1,1],[2,2],[3,3]]", "--n", "3"
    )
    assert lines[0] == {"value": 3}
    code, lines = run_json(capsys, "character", "--lambda", "", "--sigma", "[]", "--n", "3")
    assert lines[0] == {"value": 1}


def test_rsk_both_directions(capsys):
    code, lines = run_json(capsys, "rsk", "--to-tableau", "[[1],[2],[1,1]]")
    assert code == 0
    assert lines[0] == {"tableau": [[[1]], [[2, 3]]]}
    code, lines = run_json(
        capsys, "rsk", "--to-path", "[[[1]],[[2,3]]]", "--k", "3"
    )
    assert code == 0
    assert lines[0] == {"path": ["1", "2", "1,1"], "intermediates": [None, "1"]}


def test_schur_weyl(capsys):
    code, lines = run_json(capsys, "schur-weyl", "--n", "2", "--k", "2")
    assert code == 0
    assert lines[0] == {"commutant_dim": 3, "image_dim": 3, "kernel_dim": 0, "ok": True}


def test_schur_weyl_single_place(capsys):
    # I_1 is the trivial monoid: its generating set is empty
    assert run_cli(capsys, "schur-weyl", "--n", "2", "--k", "1") == (
        0,
        '{"commutant_dim": 1, "image_dim": 1, "kernel_dim": 0, "ok": true}\n',
    )


def test_schur_weyl_admits_r7_on_three_places(capsys):
    # R_7 is counted, not listed: 343 words, as the tensor space row allows
    assert run_cli(capsys, "schur-weyl", "--n", "7", "--k", "3") == (
        0,
        '{"commutant_dim": 25, "image_dim": 25, "kernel_dim": 0, "ok": true}\n',
    )


def test_schur_weyl_refuses_a_large_tensor_space_before_any_work(capsys, monkeypatch):
    # the tensor space row alone bounds a large n: the refusal comes before
    # the words, the monoid or either count is made, and nothing is eliminated
    def no_work(*args):
        raise AssertionError("work started")

    for name in ("product", "enumerate_monoid", "_rook_counts", "commutant_dimension"):
        monkeypatch.setattr(tensor, name, no_work)
    for n, k, half in ((28, 2, False), (28, 2, True), (10, 3, False), (730, 1, False)):
        assert main(["schur-weyl", "--n", str(n), "--k", str(k)] + ["--half"] * half) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: tensor space: dimension n^k = {n**k} exceeds the limit 729\n"


IDENTITY_11 = json.dumps([[v, -v] for v in range(1, 12)])
# the first steps of listing coarsenings: joining a block into a group, and
# making a coarsening's diagram
ORBIT_WORK = [(diagram, "_joined"), (diagram.PartitionDiagram, "_from_masks")]

# (argv, the refusal, the work the refusal must come before)
REFUSALS = [
    (["dims", "--n", "41"], "rook irreducibles: n = 41 exceeds the limit 40", [(combinat, "partitions_upto")]),
    (["dims", "--t", "30"], "propagating irreducibles: level = 30 exceeds the limit 17", [(bratteli, "ihat")]),
    (
        ["mult", "--lambda", "1", "--k", "3", "--n", "30"],
        "tensor multiplicities: n = 30 exceeds the limit 16",
        [(combinat, "stirling2"), (bratteli, "rhat"), (characters, "tensor_multiplicities")],
    ),
    (
        ["mult", "--lambda", "1", "--k", "3000", "--n", "3"],
        "tensor power: k = 3000 exceeds the limit 2000",
        [(combinat, "stirling2"), (bratteli, "rhat"), (characters, "tensor_multiplicities")],
    ),
    (
        ["mult", "--lambda", "130000", "--k", "3", "--n", "3"],
        "shape size: |lambda| = 130000 exceeds the limit 120000",
        [(combinat, "f_lambda"), (combinat, "stirling2"), (bratteli, "rhat"), (characters, "tensor_multiplicities")],
    ),
    (
        ["mult", "--lambda", "1", "--k", "100", "--n", "14"],
        "tensor-step graph: vertices = 45358 exceeds the limit 25000",
        [(combinat, "stirling2"), (bratteli, "GradedGraph"), (characters, "tensor_multiplicities")],
    ),
    (
        ["bratteli", "--kind", "rhat", "--levels", "30", "--n", "30"],
        "tensor-step shapes: min(n, levels) = 30 exceeds the limit 23",
        [(bratteli, "partitions_upto"), (bratteli, "GradedGraph")],
    ),
    (
        ["bratteli", "--kind", "rhat", "--levels", "5000", "--n", "3"],
        "tensor-step graph: vertices = 29992 exceeds the limit 25000",
        [(bratteli, "partitions_upto"), (bratteli, "GradedGraph")],
    ),
    (
        ["bratteli", "--kind", "rook", "--levels", "40"],
        "rook tower: levels = 40 exceeds the limit 32",
        [(bratteli, "partitions_upto")],
    ),
    (
        ["bratteli", "--kind", "ihat", "--levels", "40"],
        "propagating tower: level = 40 exceeds the limit 30",
        [(bratteli, "levels_upto")],
    ),
    (
        ["rook-jm", "--lambda", "2,1", "--n", "30"],
        "rook-jm: n (|lambda| + 1) dim = 974400 exceeds the limit 500000",
        [(seminormal, "RookIrrep")],
    ),
    (
        ["orbit", "--diagram", IDENTITY_11],
        "coarsenings: blocks = 11 exceeds the limit 10",
        ORBIT_WORK,
    ),
    (
        ["schur-weyl", "--n", "3", "--k", "7"],
        "tensor space: dimension n^k = 2187 exceeds the limit 729",
        [(tensor, "product")],
    ),
    (
        ["rsk", "--to-path", "[[[1]]]", "--k", "100000000"],
        "path correspondence: letters = 100000000 exceeds the limit 4000",
        [(rsk, "is_standard_spt")],
    ),
    (
        ["rsk", "--to-tableau", json.dumps([[1]] * 4001)],
        "path correspondence: letters = 4001 exceeds the limit 4000",
        [(rsk, "box_difference"), (rsk, "_unbump"), (rsk, "is_standard_set_tableau")],
    ),
    (
        ["jm", "--t", "11/2", "--verify"],
        "I_k enumeration: diagram size = 6 exceeds the limit 5",
        [(diagram, "_closure_listing"), (jm, "build_z")],
    ),
    (
        ["jm", "--t", "6", "--n", "6"],
        "GT decomposition: largest block = 1800 exceeds the limit 390",
        [(jm, "ihat"), (jm, "build_z"), (jm, "LetterBlock")],
    ),
    (
        ["compose", "--d1", json.dumps([[v, -v] for v in range(1, 2752)]), "--d2", "[[1,-1]]"],
        "diagram size: size = 2751 exceeds the limit 2750",
        [(diagram.PartitionDiagram, "parse"), (diagram, "compose")],
    ),
    (
        ["character", "--lambda", "1", "--sigma", "[]", "--n", "67"],
        "rook characters: n = 67 exceeds the limit 66",
        [(rook.RookElement, "from_pairs"), (characters, "chi_star")],
    ),
]


@pytest.mark.parametrize("argv, refusal, work", REFUSALS, ids=[r[1].split(":")[0] for r in REFUSALS])
def test_size_limits_refuse_before_any_work(capsys, monkeypatch, argv, refusal, work):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in work:
        monkeypatch.setattr(module, name, no_work)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refusal}\n"
    # the one message form: the limit's name, what it counts, the size asked for, its value
    name, counts, _, value = re.fullmatch(r"(.+): (.+) = (\S+) exceeds the limit (\d+)", refusal).groups()
    assert (LIMITS[name].counts, LIMITS[name].value) == (counts, int(value))


# every option of every subcommand: the LIMITS rows that bound the work it
# asks for, or "no row: " and why it needs none, with a measurement where the
# option carries a size; a new option fails the walk below until it is added
CLI_OPTION_BOUNDS = {
    ("compose", "--d1"): ("diagram size",),
    ("compose", "--d2"): ("diagram size",),
    ("orbit", "--diagram"): ("diagram size", "coarsenings"),
    ("orbit", "--direction"): "no row: one of two fixed choices",
    ("bratteli", "--kind"): "no row: one of three fixed choices",
    ("bratteli", "--levels"): ("rook tower", "tensor-step shapes", "tensor-step graph", "propagating tower"),
    ("bratteli", "--n"): ("tensor-step shapes", "tensor-step graph"),
    ("bratteli", "--dot"): "no row: a flag",
    ("dims", "--n"): ("rook irreducibles",),
    ("dims", "--t"): ("propagating irreducibles",),
    ("mult", "--lambda"): ("shape size",),
    ("mult", "--k"): ("tensor power", "tensor-step graph"),
    ("mult", "--n"): ("tensor multiplicities", "tensor-step graph"),
    ("rsk", "--to-tableau"): ("path correspondence",),
    ("rsk", "--to-path"): ("path correspondence",),
    ("rsk", "--k"): ("path correspondence",),
    # sigma has at most n pairs, and a lambda larger than n gives 0 at once:
    # ``character --lambda 3000 --sigma [] --n 66`` takes 0.1 s
    ("character", "--lambda"): ("rook characters",),
    ("character", "--sigma"): ("rook characters",),
    ("character", "--n"): ("rook characters",),
    # R_n is counted, not listed: ``schur-weyl --n 9 --k 3 --half`` took 2.1-3.4 s
    ("schur-weyl", "--n"): ("tensor space",),
    ("schur-weyl", "--k"): ("tensor space", "I_k enumeration"),
    ("schur-weyl", "--half"): "no row: a flag",
    # the eigenvalue table works on one letter-set block per size, whatever n
    # is; ``--verify --n`` builds the whole tensor space
    ("jm", "--t"): ("GT decomposition", "tensor space", "propagating tower", "path enumeration", "I_k enumeration"),
    ("jm", "--n"): ("tensor space",),
    ("jm", "--verify"): "no row: a flag",
    ("rook-jm", "--lambda"): ("rook-jm",),
    ("rook-jm", "--n"): ("rook-jm",),
    ("verify", "--suite"): "no row: fixed choices, each criterion at its fixed sizes (rookpart verify: 0.3 s)",
    ("verify", "--criterion"): "no row: fixed choices 1..14, each at its fixed sizes (rookpart verify: 0.3 s)",
    ("verify", "--timings"): "no row: a flag",
}


def _cli_options():
    """(command, option) for every option of every subcommand, help left out."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        (command, action.option_strings[-1])
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    }


def test_every_cli_option_names_its_size_limit_or_why_it_has_none():
    options = _cli_options()
    assert len(options) == len(CLI_OPTION_BOUNDS) == 30
    assert sorted(options - CLI_OPTION_BOUNDS.keys()) == []
    assert sorted(CLI_OPTION_BOUNDS.keys() - options) == []
    for option, bound in CLI_OPTION_BOUNDS.items():
        if isinstance(bound, str):
            assert bound.startswith("no row: ") and len(bound) > len("no row: "), option
        else:
            assert bound and set(bound) <= LIMITS.keys(), option
    # every row the CLI can reach is named by some option; R_n is listed
    # only by ``verify``, at fixed sizes
    named = {row for bound in CLI_OPTION_BOUNDS.values() if not isinstance(bound, str) for row in bound}
    assert sorted(LIMITS.keys() - named) == ["A_k enumeration", "R_n enumeration"]


@pytest.mark.parametrize("module, name", ORBIT_WORK, ids=[name for _, name in ORBIT_WORK])
def test_orbit_reaches_each_coarsening_work_marker_when_admitted(monkeypatch, module, name):
    # the markers the coarsenings row above relies on: an admitted orbit call
    # reaches both right after the check, so the refusal test fails if the
    # check ever moves after that work
    def work_started(*args):
        raise AssertionError("work started")

    diagram._upset.cache_clear()
    monkeypatch.setattr(module, name, work_started)
    for direction in ("to-orbit", "from-orbit"):
        with pytest.raises(AssertionError, match="work started"):
            main(["orbit", "--diagram", "[[1,-1],[2,-2]]", "--direction", direction])


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["schur-weyl", "--n", "2", "--k", "2"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "rookpart", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected


def test_jm_table(capsys):
    code, lines = run_json(capsys, "jm", "--t", "3/2", "--n", "2")
    assert code == 0
    table = lines[0]["table"]
    assert lines[0]["ok"] is True
    shapes = sorted(row["path"][-1] for row in table)
    assert shapes == ["", "1"]
    assert all(row["dimension"] == 1 for row in table)


def test_jm_verify(capsys):
    code, lines = run_json(capsys, "jm", "--t", "2", "--n", "3", "--verify")
    assert code == 0
    assert all(rep["ok"] for rep in lines[0]["reports"])


def test_rook_jm_table(capsys):
    code, lines = run_json(capsys, "rook-jm", "--lambda", "1", "--n", "2")
    assert code == 0
    assert lines[0]["ok"] is True
    rows = lines[0]["rows"]
    assert {(r["i"], r["x_eig"]) for r in rows if r["tableau"] == [[1]]} == {
        (1, 1),
        (2, 0),
    }


def test_bratteli_outputs(capsys):
    code, out1 = run_cli(capsys, "bratteli", "--kind", "ihat", "--levels", "2")
    assert code == 0
    code, out2 = run_cli(capsys, "bratteli", "--kind", "ihat", "--levels", "2")
    assert out1 == out2  # byte-identical reruns
    payload = json.loads(out1)
    assert payload["levels"] == ["1/2", "1", "3/2", "2"]
    code, dot = run_cli(capsys, "bratteli", "--kind", "rook", "--levels", "2", "--dot")
    assert code == 0 and dot.startswith("graph rook {")


def test_verify_single_criterion(capsys):
    code, lines = run_json(capsys, "verify", "--criterion", "1", "13")
    assert code == 0
    assert [rec.get("criterion") for rec in lines[:-1]] == [1, 13]
    assert lines[-1] == {"ok": True, "passed": 2, "total": 2}


def test_verify_suite_rsk(capsys):
    code, lines = run_json(capsys, "verify", "--suite", "rsk")
    assert code == 0
    assert lines[0]["criterion"] == 7 and lines[0]["ok"]


def test_bad_arguments_exit_2(capsys):
    assert main(["compose", "--d1", "nonsense", "--d2", "[[1,-1]]"]) == 2
    assert main(["nope"]) == 2
    assert main(["mult", "--lambda", "1,2", "--k", "1", "--n", "2"]) == 2


def test_malformed_arguments_exit_2_without_traceback(capsys):
    cases = [
        (["rsk", "--to-path", "[[[1]]]"], "error: --to-path needs --k"),
        (["schur-weyl", "--half", "--n", "1", "--k", "1"], "error: a half space needs n >= 2"),
        (["rsk", "--to-tableau", "5"], "error: --to-tableau must be JSON lists"),
        # a step past the last row, which once raised IndexError
        (["rsk", "--to-tableau", "[[1],[1,0,1]]"], "error: step 2 left a non-standard tableau"),
        (["rsk", "--to-path", "[[1]]", "--k", "2"], "error: --to-path must be JSON lists"),
        # k within its limit but far past the tableau's one entry
        (["rsk", "--to-path", "[[[1]]]", "--k", "4000"], "error: not a standard set-partition tableau over 1..k"),
        (["character", "--lambda", "1", "--sigma", "5", "--n", "3"], "error: --sigma must be"),
        (["character", "--lambda", "1", "--sigma", "[[1,2,3]]", "--n", "3"], "error: --sigma pair [1, 2, 3] must have two entries"),
        (["character", "--lambda", "1", "--sigma", "[[1]]", "--n", "3"], "error: --sigma pair [1] must have two entries"),
        (["compose", "--d1", "5", "--d2", "[[1,-1]]"], "error: --d1 must be"),
        (["compose", "--d1", "[[1,-1]]", "--d2", "[1]"], "error: --d2 must be"),
        (
            ["compose", "--d1", "[[1,-1]]", "--d2", "[[1,-1],[2,-2]]"],
            "error: cannot compose a size-1 diagram with a size-2 diagram",
        ),
        (["orbit", "--diagram", "{}"], "error: --diagram must be"),
        (["dims"], "error: dims needs --n and/or --t"),
        (["jm", "--t", "2"], "error: jm needs --n"),
        # zero denominators and an empty path, which once ended in tracebacks
        (["dims", "--t", "1/0"], "error: not a positive half-integer level: 1/0"),
        (["jm", "--t", "1/0", "--n", "3"], "error: not a positive half-integer level: 1/0"),
        (["jm", "--t", "0/0", "--verify"], "error: not a positive half-integer level: 0/0"),
        (["bratteli", "--kind", "ihat", "--levels", "1/0"], "error: not a positive half-integer level: 1/0"),
        # an integer form asked for by name, where Python's int() once spoke
        (["bratteli", "--kind", "rook", "--levels", "2.5"], "error: --levels must be an integer for --kind rook, like 3"),
        (["bratteli", "--kind", "rhat", "--levels", "1/2"], "error: --levels must be an integer for --kind rhat, like 3"),
        (["rsk", "--to-path", "[]", "--k", "0"], "error: need k >= 1 letters, not 0"),
        (["schur-weyl", "--n", "2"], None),
        (["mult", "--lambda", "1", "--k", "x", "--n", "2"], None),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err, argv
        if message is not None:
            assert len(err.splitlines()) == 1 and err.startswith(message), (argv, err)


@pytest.mark.parametrize(
    "argv, option, depth",
    [
        (["compose", "--d1", "x", "--d2", "[[1,-1]]"], "--d1", 2),
        (["compose", "--d1", "[[1,-1]]", "--d2", "x"], "--d2", 2),
        (["orbit", "--diagram", "x"], "--diagram", 2),
        (["character", "--lambda", "1", "--sigma", "x", "--n", "2"], "--sigma", 2),
        (["rsk", "--to-tableau", "x"], "--to-tableau", 2),
        (["rsk", "--to-path", "x", "--k", "1"], "--to-path", 3),
    ],
)
def test_json_options_name_themselves_on_text_that_is_not_json(capsys, argv, option, depth):
    for text in ("x", "[[1,-1]", "{", "[[1]] 2"):
        bad = [text if arg == "x" else arg for arg in argv]
        assert main(bad) == 2, bad
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option} must be JSON lists of integers nested {depth} deep\n", bad


def test_malformed_diagrams_exit_2_without_traceback(capsys):
    cases = [
        (["compose", "--d1", "[[1,-1],[]]", "--d2", "[[1,-1]]"], "error: block 2 of the diagram is empty"),
        (["compose", "--d1", "[[1,-1]]", "--d2", "[[1,1,-1]]"], "error: block [1, 1, -1] repeats a vertex"),
        (["orbit", "--diagram", "[[1,-1],[]]"], "error: block 2 of the diagram is empty"),
        (["orbit", "--diagram", "[[1,1,-1]]"], "error: block [1, 1, -1] repeats a vertex"),
        (["orbit", "--diagram", "[]"], "error: the diagram is empty"),
        # no vertex at all, which once failed in max() before any block was read
        (["orbit", "--diagram", "[[]]"], "error: block 1 of the diagram is empty"),
        (["compose", "--d1", "[[]]", "--d2", "[[1,-1]]"], "error: block 1 of the diagram is empty"),
        (["compose", "--d1", "[]", "--d2", "[[1,-1]]"], "error: the diagram is empty"),
        (["orbit", "--diagram", "[[1,-1],[1]]"], "error: vertex 1 is in blocks [1, -1] and [1]"),
        (["compose", "--d1", "[[2750,-1]]", "--d2", "[[1,-1]]"], "error: blocks must partition the 5500 vertices"),
    ]
    for argv, line in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == line + "\n", (argv, captured.err)


# one small admitted command per variant, in which each int, level, JSON or
# partition option is swept; ``bratteli --levels`` is an int for rook and
# rhat and a level for ihat
BOUNDARY_BASES = [
    ["compose", "--d1", "[[1,-1]]", "--d2", "[[1,-1]]"],
    ["orbit", "--diagram", "[[1,-1]]"],
    ["rsk", "--to-tableau", "[[1]]"],
    ["bratteli", "--kind", "rook", "--levels", "2"],
    ["bratteli", "--kind", "rhat", "--levels", "2", "--n", "2"],
    ["bratteli", "--kind", "ihat", "--levels", "2"],
    ["dims", "--n", "2", "--t", "2"],
    ["mult", "--lambda", "1", "--k", "2", "--n", "2"],
    ["rsk", "--to-path", "[[[1]]]", "--k", "1"],
    ["character", "--lambda", "1", "--sigma", "[]", "--n", "2"],
    ["schur-weyl", "--n", "2", "--k", "1"],
    ["schur-weyl", "--n", "2", "--k", "1", "--half"],
    ["jm", "--t", "2", "--n", "2"],
    ["jm", "--t", "2", "--verify"],
    ["jm", "--t", "2", "--n", "2", "--verify"],
    ["rook-jm", "--lambda", "1", "--n", "2"],
    ["verify", "--criterion", "1"],
]
# refused at every k, so the sweep shows that k < 1 is refused the same way
# (an empty tableau with k = 0 once got past the check and indexed an empty path)
REFUSED_BASES = [["rsk", "--to-path", "[]", "--k", "1"]]
LEVEL_OPTIONS = {("bratteli", "--levels"), ("dims", "--t"), ("jm", "--t")}
BOUNDARY_VALUES = ["0", "-1", "1/0", "0/0"]
# no number at all, for every level option
MALFORMED_LEVELS = ["abc", "nan", "inf", "2,5"]
TEXT_VALUES = ["[]", "[[]]", "[[[]]]", "", ","]
# every text value but the empty shape is malformed as a partition
MALFORMED_PARTITIONS = [value for value in TEXT_VALUES if value]
LAMBDA_ERROR = "error: --lambda must be comma-separated positive parts, largest first, like 2,1\n"


def _int_options():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        (command, action.option_strings[-1])
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.type is int
    }


def _text_options():
    """The options read as JSON or as a partition: every free-text option
    that is not a level."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        (command, action.option_strings[-1])
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.type is None and action.nargs is None and action.choices is None
    }
    return found - LEVEL_OPTIONS


def _sweep(bases, options, values):
    for base in bases:
        for i, option in enumerate(base):
            if (base[0], option) in options:
                for value in values:
                    yield base[: i + 1] + [value] + base[i + 2 :]


def _boundary_cases():
    yield from _sweep(BOUNDARY_BASES + REFUSED_BASES, _int_options() | LEVEL_OPTIONS, BOUNDARY_VALUES)
    yield from _sweep(BOUNDARY_BASES, _text_options(), TEXT_VALUES)
    yield from _sweep(BOUNDARY_BASES, LEVEL_OPTIONS, MALFORMED_LEVELS)


def test_boundary_sweep_covers_every_int_and_level_option():
    for base in BOUNDARY_BASES:
        assert main(base) == 0, base
    swept = {(argv[0], option) for argv in BOUNDARY_BASES for option in argv}
    assert sorted((_int_options() | LEVEL_OPTIONS | _text_options()) - swept) == []
    assert len(_text_options()) == 9
    assert len(list(_boundary_cases())) == 4 * 22 + 5 * 9 + 4 * 7
    malformed = {argv[0] for argv in _boundary_cases() if _lambda_value(argv) in MALFORMED_PARTITIONS}
    assert malformed == {"mult", "character", "rook-jm"}


def _lambda_value(argv):
    return argv[argv.index("--lambda") + 1] if "--lambda" in argv else None


def _level_error(argv, level):
    """A level that is no number names itself, or, where ``bratteli`` reads
    an integer, names --levels and its kind."""
    kind = argv[argv.index("--kind") + 1] if "--kind" in argv else "ihat"
    if kind != "ihat":
        return f"error: --levels must be an integer for --kind {kind}, like 3\n"
    return f"error: not a positive half-integer level: {level}\n"


@pytest.mark.parametrize("argv", list(_boundary_cases()), ids=" ".join)
def test_boundary_values_exit_0_or_2_with_one_error_line(capsys, argv):
    capsys.readouterr()
    code = main(argv)  # an exception escaping fails the test
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 2:
        lines = err.splitlines()
        if lines[0].startswith("usage: "):
            # argparse refused the value before the program ran: its usage, then one error line
            lines = [line for line in lines if not line.startswith((" ", "usage: "))]
            assert len(lines) == 1 and f"{argv[0]}: error: argument" in lines[0], err
        else:
            assert len(lines) == 1 and lines[0].startswith("error: "), err
            # an error names only options that were given
            named = {word for word in lines[0].split() if word.startswith("--")}
            assert named <= set(argv), err
    if _lambda_value(argv) in MALFORMED_PARTITIONS:
        assert (code, err) == (2, LAMBDA_ERROR), argv
    level = next((value for option, value in zip(argv, argv[1:]) if (argv[0], option) in LEVEL_OPTIONS), None)
    if level in MALFORMED_LEVELS:
        assert (code, err) == (2, _level_error(argv, level)), argv


def test_verify_timings_go_to_stderr(capsys):
    argv = ["verify", "--criterion", "1", "13"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + ["--timings"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert plain.err == ""
    lines = [json.loads(line) for line in timed.err.splitlines()]
    assert [line["criterion"] for line in lines] == [1, 13]
    for line in lines:
        assert set(line) == {"criterion", "seconds"}
        assert isinstance(line["seconds"], float) and line["seconds"] >= 0


def test_json_round_trips(capsys):
    # every emitted document parses back and reruns byte-identically
    for argv in (
        ["mult", "--lambda", "1", "--k", "2", "--n", "3"],
        ["dims", "--n", "3"],
        ["orbit", "--diagram", "[[1,2,-1,-2]]"],
    ):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second
        json.loads(first)


def test_bratteli_rhat_json(capsys):
    code, out = run_cli(capsys, "bratteli", "--kind", "rhat", "--levels", "3", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"] == ["1", "2", "3"]
    assert len(payload["vertices"][2]) == 6


def test_jm_bad_level_exits_2(capsys):
    assert main(["jm", "--t", "sideways", "--n", "2"]) == 2
    assert main(["jm", "--t", "1/3", "--n", "2"]) == 2


def test_jm_level_below_one_names_the_level(capsys):
    capsys.readouterr()
    assert main(["jm", "--t", "1/2", "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: level 1/2 has no tensor space; need a level >= 1\n"


def test_verify_unknown_suite_exits(capsys):
    for argv in (
        ["verify", "--suite", "nonsense"],
        ["verify", "--criterion", "99"],
        ["verify", "--criterion", "1", "99"],
        ["verify", "--criterion"],
        ["verify", "--n", "3"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "Traceback" not in captured.err, argv
