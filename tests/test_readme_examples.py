"""Byte-identical gates: the README CLI examples and the branching graphs.

``data/readme_cli_examples.json`` holds the exit code and stdout of every line
of the README "CLI examples" block, and ``GRAPH_DIGEST`` a digest of the graph
builders' output; both were recorded at commit e71a0e3, before the graph
builders shared one constructor.  A change that alters either output must
say so by recording them again.
"""

import hashlib
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

from rookpart.bratteli import HALF, ihat, rhat, rook_tower
from rookpart.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "readme_cli_examples.json"

GRAPH_DIGEST = "17d0a2c4dc8a5cc83bc71d4ad5a544e79646d7eb34d05467b86b7c8104a303eb"


def readme_examples() -> list[str]:
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI examples\n\n```\n(.*?)```", readme, re.S).group(1)
    return block.splitlines()


def test_readme_examples_match_golden(capsys):
    golden = json.loads(GOLDEN.read_text())
    assert [case["command"] for case in golden] == readme_examples()
    for case in golden:
        argv = shlex.split(case["command"])
        assert argv[0] == "rookpart"
        code = main(argv[1:])
        assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"]), case["command"]


def test_graph_builders_match_digest():
    """JSON, DOT and every enumerated path of the small graphs, hashed.

    The digest was produced by this snippet:

        h = hashlib.sha256()
        graphs = [(rook_tower(n), (0, ())) for n in range(6)]
        graphs += [(rhat(n, k), (1, (1,))) for n in range(1, 5) for k in range(1, 6)]
        graphs += [(ihat(Fraction(t, 2)), (HALF, ())) for t in range(1, 12)]
        for g, src in graphs:
            h.update(json.dumps(g.to_json_dict(), sort_keys=True).encode())
            h.update(g.to_dot().encode())
            for level, shapes in zip(g.levels, g.vertices):
                for mu in shapes:
                    for p in g.enumerate_paths(src, (level, mu)):
                        h.update(repr((p.shapes, p.vias)).encode())
        h.hexdigest()
    """
    h = hashlib.sha256()
    graphs = [(rook_tower(n), (0, ())) for n in range(6)]
    graphs += [(rhat(n, k), (1, (1,))) for n in range(1, 5) for k in range(1, 6)]
    graphs += [(ihat(Fraction(t, 2)), (HALF, ())) for t in range(1, 12)]
    for g, src in graphs:
        h.update(json.dumps(g.to_json_dict(), sort_keys=True).encode())
        h.update(g.to_dot().encode())
        for level, shapes in zip(g.levels, g.vertices):
            for mu in shapes:
                for p in g.enumerate_paths(src, (level, mu)):
                    h.update(repr((p.shapes, p.vias)).encode())
    assert h.hexdigest() == GRAPH_DIGEST
