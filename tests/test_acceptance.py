"""Exit criteria: every item must pass at its stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion, or ``rookpart verify`` for the JSON equivalent.
"""

import pytest

from rookpart.acceptance import CRITERIA, run_criteria


@pytest.mark.parametrize(
    "number,name,fn,budget", CRITERIA, ids=[f"criterion_{c[0]:02d}" for c in CRITERIA]
)
def test_criterion(number, name, fn, budget):
    (record,) = run_criteria([number])
    status = "PASS" if record["ok"] else "FAIL"
    print(f"{status} criterion {number:2d} ({record['seconds']}s) {name}: {record['detail']}")
    assert record["ok"], f"criterion {number} ({name}): {record['detail']}"
    assert record["seconds"] < budget, (
        f"criterion {number} took {record['seconds']}s, budget {budget}s"
    )


def test_every_criterion_is_registered():
    assert [c[0] for c in CRITERIA] == list(range(1, 15))


def test_run_criteria_rejects_unknown_numbers():
    with pytest.raises(ValueError, match=r"unknown criterion numbers: \[0, 99\]"):
        run_criteria([99, 1, 0])
