"""Formal linear combinations over arbitrary hashable basis keys."""

from __future__ import annotations

from fractions import Fraction


class FormalSum:
    """Map from basis keys to nonzero exact coefficients.

    Zero coefficients are pruned at construction, so equality is plain
    key-wise comparison.  Instances are immutable by convention, and
    unhashable; all operations return new sums.  Keys must be hashable and
    mutually comparable (used only for deterministic iteration order).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        if isinstance(terms, dict):
            data = terms  # keys already distinct
        else:
            data = {}
            for key, coeff in terms if terms is not None else ():
                if key in data:
                    data[key] = data[key] + coeff
                else:
                    data[key] = coeff
        self._terms = {k: c for k, c in data.items() if c}

    @classmethod
    def _from_dict(cls, terms: dict) -> "FormalSum":
        """Sum over a dict of distinct keys and nonzero coefficients, taken as
        it is: the zero filter of the constructor does not run."""
        s = object.__new__(cls)
        s._terms = terms
        return s

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def term(cls, key, coeff=Fraction(1)) -> "FormalSum":
        return cls([(key, coeff)])

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def terms(self):
        """(key, coefficient) pairs in insertion order, without the sort of items()."""
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return FormalSum(out)

    def __sub__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FormalSum({k: -c for k, c in self._terms.items()})

    def __repr__(self) -> str:
        if not self._terms:
            return "FormalSum(0)"
        body = " + ".join(f"({c})*{k!r}" for k, c in self.items())
        return f"FormalSum({body})"
