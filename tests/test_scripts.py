"""Every script in scripts/ answers --help and reports a malformed argument
as a usage error, without a traceback and without writing a file."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(script, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script), *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_0_and_writes_nothing(script, tmp_path):
    done = run_script(script, "--help", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
    assert "Traceback" not in done.stdout + done.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("spectrum_table.py", ["abc"], "not a positive half-integer level: abc"),
        ("spectrum_table.py", ["7/3"], "not a positive half-integer level: 7/3"),
        ("spectrum_table.py", ["5/2", "x"], "invalid int value: 'x'"),
        ("spectrum_table.py", ["5/2", "0"], "need n >= 3 at level 5/2"),
        ("export_graphs.py", ["out", "x"], "not a positive integer: 'x'"),
        ("export_graphs.py", ["out", "0"], "not a positive integer: '0'"),
        ("run_verification.py", ["extra"], "unrecognized arguments: extra"),
        ("spectrum_table.py", ["1/0"], "not a positive half-integer level: 1/0"),
    ],
)
def test_malformed_argument_exits_2_with_one_error_line(name, argv, message, tmp_path):
    done = run_script(ROOT / "scripts" / name, *argv, cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    [error] = [line for line in done.stderr.splitlines() if not line.startswith("usage:")]
    assert error.startswith(f"{name}: error: ") and message in error
    assert list(tmp_path.iterdir()) == []
