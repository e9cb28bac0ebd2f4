import pytest

from rookpart.limits import LIMITS, check


def test_every_row_passes_its_value_and_refuses_one_more():
    for name, row in LIMITS.items():
        check(name, row.value)
        with pytest.raises(ValueError) as refused:
            check(name, row.value + 1)
        assert str(refused.value) == f"{name}: {row.counts} = {row.value + 1} exceeds the limit {row.value}"
