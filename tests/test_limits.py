import pytest

from rookpart.limits import LIMITS, check


def test_enum_cap_lowers_the_two_enumeration_rows_and_no_other(monkeypatch):
    monkeypatch.setenv("ROOKPART_ENUM_CAP", "1")
    lowered = []
    for name, row in LIMITS.items():
        check(name, 1)
        try:
            check(name, row.value)
        except ValueError as refused:
            assert str(refused) == f"{name}: {row.counts} = {row.value} exceeds the limit 1"
            lowered.append(name)
    assert lowered == ["A_k enumeration", "I_k enumeration"]
    # a cap above a row's value does not raise it
    monkeypatch.setenv("ROOKPART_ENUM_CAP", "100")
    with pytest.raises(ValueError, match="^A_k enumeration: diagram size = 6 exceeds the limit 5$"):
        check("A_k enumeration", 6)
