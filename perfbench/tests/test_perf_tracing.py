import inspect
import sys

import pytest

import tracing


def test_self_times_on_a_hand_built_tree():
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("b", 1, 2.0, 3.0),
        ("c", 0, 5.0, 9.0),
        ("x", 3, 6.0, 7.0),
        ("x", 3, 6.5, 8.0),  # overlaps its sibling: c loses 6..8 once, not 2.5 s
        ("y", 3, 8.5, 9.5),  # sticks out of c: only 8.5..9 counts against c
    ]
    got = tracing.self_times(spans)
    assert got == pytest.approx({"root": 3.0, "a": 2.0, "b": 1.0, "c": 1.5, "x": 2.5, "y": 1.0})


def _snapshot():
    """Every attribute of every rookpart module and of the classes they define."""
    import rookpart.acceptance

    owners = []
    for name, mod in sorted(sys.modules.items()):
        if name == "rookpart" or name.startswith("rookpart."):
            owners.append(mod)
            owners += [c for c in vars(mod).values() if inspect.isclass(c) and c.__module__ == name]
    table = list(rookpart.acceptance.CRITERIA)
    return {id(o): (o, dict(vars(o))) for o in owners}, table


def test_wrappers_are_installed_at_every_binding_site_and_removed():
    import rookpart.cli  # noqa: F401  (loads acceptance and every layer)
    from rookpart import acceptance, jm, linalg

    before, table = _snapshot()
    original = linalg.simultaneous_eigenspace
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert jm.simultaneous_eigenspace is not original
        assert jm.simultaneous_eigenspace is linalg.simultaneous_eigenspace
        assert acceptance.CRITERIA[0][2] is not table[0][2]
    finally:
        tracer.remove()
    after, table_after = _snapshot()
    assert after.keys() == before.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys(), owner
        changed = [a for a in attrs if now[a] is not attrs[a]]
        assert not changed, (owner, changed)
    assert all(x is y for x, y in zip(table_after, table))


def test_traced_call_records_layers_and_counts():
    from fractions import Fraction

    from rookpart import jm

    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.open(tracing.ROOT, "bench.case")
        report = jm.gt_decompose(Fraction(2), n=2)
        tracer.close(root)
    finally:
        tracer.remove()
    assert report["ok"]
    names = set(tracer.names)
    assert "linalg.simultaneous_eigenspace" in names  # reached through jm's own binding
    assert tracer.calls["jm"] == 1
    counts = tracing.summarize_counts(tracer.counts)
    assert counts["jm.paths"] == len(report["entries"])
    assert counts["jm.eigen_dim_total"] == 4
    assert counts["linalg.elim_rows"] > 0 and 0 < counts["linalg.rank_ratio"] <= 1
    self_s = tracer.layer_self_times()
    total = tracer.span_end[0] - tracer.span_start[0]
    assert sum(self_s.values()) == pytest.approx(total)


def test_merge_counts_sums_and_keeps_the_largest_dimension():
    merged = tracing.merge_counts([
        {"tensor.cells": 10, "tensor.nonzeros": 2, "tensor.dim_max": 4},
        {"tensor.cells": 30, "tensor.nonzeros": 8, "tensor.dim_max": 3},
    ])
    summary = tracing.summarize_counts(merged)
    assert summary["tensor.cells"] == 40
    assert summary["tensor.dim_max"] == 4
    assert summary["tensor.density"] == pytest.approx(0.25)
    assert set(summary) == set(tracing.COUNT_NAMES)
