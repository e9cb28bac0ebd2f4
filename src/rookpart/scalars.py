"""Exact scalars: arbitrary-precision rationals and polynomials in xi.

Every coefficient in the library is either a ``fractions.Fraction`` or an
:class:`XiPoly`, a dense polynomial in the loop parameter xi with rational
coefficients.  No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def as_rational(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


class XiPoly:
    """Polynomial in xi with Fraction coefficients, stored by ascending degree.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Arithmetic accepts plain ints and Fractions on either side.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, value) -> "XiPoly":
        return cls((as_rational(value),))

    @classmethod
    def xi(cls) -> "XiPoly":
        return cls((0, 1))

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @staticmethod
    def _coerce(value):
        if isinstance(value, XiPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return XiPoly((value,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return XiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return XiPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return XiPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return XiPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # equal values hash equal: a constant compares equal to its Fraction
        if self.is_constant():
            return hash(self.constant_value())
        return hash(("XiPoly", self.coeffs))

    def subs(self, value: int | Fraction) -> Fraction:
        """Evaluate at a rational value of xi."""
        value = as_rational(value)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for deg in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[deg]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if deg == 0:
                body = str(mag)
            else:
                var = "xi" if deg == 1 else f"xi^{deg}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"XiPoly({self})"


XI = XiPoly.xi()


def falling_factorial(f, b: int):
    """(f)_b = f (f - 1) ... (f - b + 1), with (f)_0 = 1.

    ``f`` may be a Fraction, an int or an XiPoly; the result has the same kind.
    """
    if b < 0:
        raise ValueError("falling factorial needs b >= 0")
    out = XiPoly.const(1) if isinstance(f, XiPoly) else Fraction(1)
    for i in range(b):
        out = out * (f - i)
    return out
