"""Exact arithmetic in the field Q(w), where w^2 = -1 - w.

A scalar is a + b*w with rational a, b.  The element w is a primitive cube
root of unity, so conjugation sends w to w^2 = -1 - w and the norm
a^2 - a*b + b^2 is a nonnegative rational that vanishes only at zero.
"""

from __future__ import annotations

import re
from fractions import Fraction

_FRAC_RE = r"[+-]?\d+(?:/\d+)?"
_PURE_W_RE = re.compile(rf"^({_FRAC_RE})\*w$")
_TWO_TERM_RE = re.compile(rf"^({_FRAC_RE})([+-]\d+(?:/\d+)?)\*w$")


class Scalar:
    """An element a + b*w of Q(w), with Fraction components."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    def __add__(self, other):
        other = _coerce(other)
        return Scalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Scalar(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        if not b:
            return Scalar(a * c, a * d) if d else Scalar(a * c)
        if not d:
            return Scalar(a * c, b * c)
        bd = b * d
        return Scalar(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(w)")
        return self * other.conj() * Scalar(Fraction(1, 1) / n)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return Scalar(-self.a, -self.b)

    def __pow__(self, n):
        assert isinstance(n, int) and n >= 0
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def conj(self):
        """Galois conjugate: w -> w^2."""
        return Scalar(self.a - self.b, -self.b)

    def norm(self):
        """Field norm to Q: self * conj(self), as a Fraction."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        wpart = f"{abs(self.b)}*w" if abs(self.b) != 1 else "w"
        sign = "+" if self.b > 0 else "-"
        if self.a == 0:
            return wpart if self.b > 0 else f"-{wpart}"
        return f"{self.a}{sign}{wpart}"

    def __repr__(self):
        return f"Scalar({self})"


ZERO = Scalar(0)
ONE = Scalar(1)
W = Scalar(0, 1)
# sqrt(-3) = 1 + 2w, since (1+2w)^2 = 1 + 4w + 4w^2 = -3.
SQRT_M3 = Scalar(1, 2)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError(f"cannot coerce {x!r} to Scalar")


def parse_scalar(text):
    """Parse 'p/q', 'r/s*w', or 'p/q+r/s*w' (either sign) into a Scalar."""
    from .errors import InvalidInput

    s = text.strip().replace(" ", "")
    if not s:
        raise InvalidInput("empty scalar")
    try:
        if "w" not in s:
            return Scalar(Fraction(s))
        if s == "w":
            return W
        if s == "-w":
            return -W
        m = _PURE_W_RE.match(s)
        if m:
            return Scalar(0, Fraction(m.group(1)))
        m = _TWO_TERM_RE.match(s)
        if m:
            return Scalar(Fraction(m.group(1)), Fraction(m.group(2)))
        # allow forms like '1+w' / '1-w'
        if s.endswith("+w"):
            return Scalar(Fraction(s[:-2]), 1)
        if s.endswith("-w"):
            return Scalar(Fraction(s[:-2]), -1)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad scalar {text!r}") from exc
    raise InvalidInput(f"bad scalar {text!r}")


def rational_sqrt(q):
    """Exact square root of a nonnegative Fraction, or None."""
    if q < 0:
        return None
    import math

    pn = math.isqrt(q.numerator)
    pd = math.isqrt(q.denominator)
    if pn * pn == q.numerator and pd * pd == q.denominator:
        return Fraction(pn, pd)
    return None
