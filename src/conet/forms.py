"""Homogeneous forms in three variables over Q(w).

A form stores its degree, variable names, and a sparse dict mapping
exponent triples to nonzero Scalars.  The parser accepts expressions such
as "X^2 + 2*Y*Z - 1/3*w*Z^2", optionally with named parameters supplied as
Scalar values.
"""

from __future__ import annotations

import re

from .errors import DegreeMismatch, InvalidInput, ZeroForm
from .scalar import ONE, ZERO, Scalar, parse_scalar

# Fixed monomial order for conics; used for coefficient vectors everywhere
# a degree-2 basis is needed.
CONIC_MONOMIALS = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1), (1, 0, 1)]


def monomial_order(degree):
    """Deterministic monomial order for a given degree."""
    if degree == 2:
        return list(CONIC_MONOMIALS)
    exps = [
        (i, j, degree - i - j)
        for i in range(degree, -1, -1)
        for j in range(degree - i, -1, -1)
    ]
    return exps


class HForm:
    """A homogeneous form of fixed degree in three variables."""

    __slots__ = ("degree", "vars", "coeffs")

    def __init__(self, degree, coeffs=None, vars=("X", "Y", "Z")):
        self.degree = degree
        self.vars = tuple(vars)
        cc = {}
        for exp, c in (coeffs or {}).items():
            if not isinstance(c, Scalar):
                c = Scalar(c)
            if c:
                assert len(exp) == 3 and sum(exp) == degree, (exp, degree)
                cc[tuple(exp)] = c
        self.coeffs = cc

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, HForm):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def _match_degree(self, other):
        if self.degree != other.degree and self and other:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")
        return self.degree if self else other.degree

    def __add__(self, other):
        d = self._match_degree(other)
        cc = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            cc[exp] = cc.get(exp, ZERO) + c
        return HForm(d, cc, self.vars)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HForm(self.degree, {e: -c for e, c in self.coeffs.items()}, self.vars)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        cc = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                cc[e] = cc.get(e, ZERO) + c1 * c2
        return HForm(self.degree + other.degree, cc, self.vars)

    __rmul__ = __mul__

    def scale(self, c):
        if not isinstance(c, Scalar):
            c = Scalar(c)
        return HForm(self.degree, {e: x * c for e, x in self.coeffs.items()}, self.vars)

    def coeff(self, exp):
        return self.coeffs.get(tuple(exp), ZERO)

    def diff(self, i):
        cc = {}
        for exp, c in self.coeffs.items():
            if exp[i]:
                e = list(exp)
                e[i] -= 1
                cc[tuple(e)] = c * Scalar(exp[i])
        return HForm(self.degree - 1, cc, self.vars)

    def eval(self, point):
        out = ZERO
        for exp, c in self.coeffs.items():
            t = c
            for i in range(3):
                for _ in range(exp[i]):
                    t = t * point[i]
            out = out + t
        return out

    def substitute(self, g):
        """F(g x): pull back along the linear map with matrix g."""
        lin = [
            HForm(1, {(1, 0, 0): g[i][0], (0, 1, 0): g[i][1], (0, 0, 1): g[i][2]}, self.vars)
            for i in range(3)
        ]
        out = HForm(self.degree, {}, self.vars)
        for exp, c in self.coeffs.items():
            term = HForm(0, {(0, 0, 0): c}, self.vars)
            for i in range(3):
                for _ in range(exp[i]):
                    term = term * lin[i]
            out = out + term
        return out

    def proportional(self, other):
        """True when this form is a nonzero scalar multiple of the other."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.degree != other.degree:
            return False
        return self.normalized().coeffs == other.normalized().coeffs

    def normalized(self):
        """Scale so the first nonzero coefficient (in monomial order) is 1."""
        if not self.coeffs:
            return self
        for exp in monomial_order(self.degree):
            c = self.coeffs.get(exp)
            if c:
                return self.scale(ONE / c)
        # degree with no tabulated order cannot happen: monomial_order is total
        raise AssertionError("unreachable")

    def coeff_vector(self, order=None):
        order = order or monomial_order(self.degree)
        return [self.coeffs.get(e, ZERO) for e in order]

    @classmethod
    def from_coeff_vector(cls, degree, vec, vars=("X", "Y", "Z")):
        order = monomial_order(degree)
        return cls(degree, dict(zip(order, vec)), vars)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for exp in monomial_order(self.degree):
            c = self.coeffs.get(exp)
            if not c:
                continue
            mono = "*".join(
                self.vars[i] if exp[i] == 1 else f"{self.vars[i]}^{exp[i]}"
                for i in range(3)
                if exp[i]
            )
            if not mono:
                parts.append(str(c))
            elif c == ONE:
                parts.append(mono)
            elif c == -ONE:
                parts.append(f"-{mono}")
            else:
                cs = str(c)
                if "+" in cs[1:] or "-" in cs[1:]:
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"HForm({self})"

    def to_json(self):
        return {
            "degree": self.degree,
            "vars": list(self.vars),
            "coeffs": {",".join(map(str, e)): str(c) for e, c in sorted(self.coeffs.items())},
        }

    @classmethod
    def from_json(cls, data):
        try:
            degree = int(data["degree"])
            vars = tuple(data.get("vars", ("X", "Y", "Z")))
            raw = data["coeffs"]
            if not isinstance(raw, dict) or not all(isinstance(v, str) for v in raw.values()):
                raise InvalidInput("coeffs must map exponent strings to scalar strings")
            coeffs = {
                tuple(int(t) for t in key.split(",")): parse_scalar(val)
                for key, val in raw.items()
            }
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInput(f"bad form JSON: {exc}") from exc
        if len(vars) != 3:
            raise InvalidInput("forms use exactly three variables")
        for exp in coeffs:
            if len(exp) != 3 or sum(exp) != degree or min(exp) < 0:
                raise InvalidInput(f"bad exponent {exp} for degree {degree}")
        return cls(degree, coeffs, vars)


_TOKEN_RE = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*^()])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise InvalidInput(f"bad character at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, vars, params):
        self.tokens = tokens
        self.pos = 0
        self.vars = vars
        self.params = params

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        if self.peek() in ("+", "-"):
            sign = self.take()
            out = self.term()
            if sign == "-":
                out = -out
        else:
            out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            out = out + t if op == "+" else out - t
        return out

    def term(self):
        out = self.factor()
        while self.peek() == "*":
            self.take()
            out = out * self.factor()
        return out

    def factor(self):
        if self.peek() == "-":
            self.take()
            return -self.factor()
        base = self.atom()
        while self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise InvalidInput("expected integer exponent")
            n = int(tok)
            out = HForm(0, {(0, 0, 0): ONE}, self.vars)
            for _ in range(n):
                out = out * base
            base = out
        return base

    def atom(self):
        tok = self.take()
        if tok is None:
            raise InvalidInput("unexpected end of expression")
        if tok == "(":
            out = self.expr()
            if self.take() != ")":
                raise InvalidInput("missing closing parenthesis")
            return out
        if tok in self.vars:
            exp = [0, 0, 0]
            exp[self.vars.index(tok)] = 1
            return HForm(1, {tuple(exp): ONE}, self.vars)
        if tok == "w":
            return HForm(0, {(0, 0, 0): Scalar(0, 1)}, self.vars)
        if tok in self.params:
            return HForm(0, {(0, 0, 0): self.params[tok]}, self.vars)
        if re.fullmatch(r"\d+(/\d+)?", tok):
            return HForm(0, {(0, 0, 0): parse_scalar(tok)}, self.vars)
        raise InvalidInput(f"unknown symbol {tok!r}")


def parse_form(text, vars=("X", "Y", "Z"), params=None):
    """Parse a homogeneous form; params maps symbol names to Scalars."""
    params = {k: v if isinstance(v, Scalar) else Scalar(v) for k, v in (params or {}).items()}
    parser = _Parser(_tokenize(text), tuple(vars), params)
    out = parser.expr()
    if parser.peek() is not None:
        raise InvalidInput(f"trailing input at {parser.tokens[parser.pos:]}")
    return out


def conic_matrix(f):
    """Symmetric 3x3 matrix of a degree-2 form (off-diagonals halved)."""
    assert f.degree == 2
    half = Scalar(1) / Scalar(2)
    a = f.coeff((2, 0, 0))
    b = f.coeff((0, 2, 0))
    c = f.coeff((0, 0, 2))
    d = f.coeff((1, 1, 0)) * half
    e = f.coeff((0, 1, 1)) * half
    g = f.coeff((1, 0, 1)) * half
    return [[a, d, g], [d, b, e], [g, e, c]]


def form_det3(m):
    """Determinant of a 3x3 matrix whose entries are HForms."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _poly_in_var(f, var):
    """Write f as a polynomial in variable `var` with HForm coefficients."""
    by_deg = {}
    for exp, c in f.coeffs.items():
        k = exp[var]
        e = list(exp)
        e[var] = 0
        d = by_deg.setdefault(k, {})
        d[tuple(e)] = c
    if not by_deg:
        raise ZeroForm("cannot eliminate from the zero form")
    top = max(by_deg)
    return [
        HForm(f.degree - k, by_deg.get(k, {}), f.vars) if k in by_deg else HForm(f.degree - k, {}, f.vars)
        for k in range(top + 1)
    ]


def _det_ring(mat, zero):
    """Cofactor-expansion determinant over a commutative ring of HForms."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    out = None
    for j in range(n):
        if mat[0][j].is_zero():
            continue
        minor = [[mat[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = mat[0][j] * _det_ring(minor, zero)
        if j % 2:
            term = -term
        out = term if out is None else out + term
    return zero if out is None else out


def eliminate(f, g, var):
    """Sylvester resultant of f and g with respect to variable index `var`.

    Returns an HForm in the remaining two variables (the eliminated variable
    appears with exponent zero).
    """
    fc = _poly_in_var(f, var)
    gc = _poly_in_var(g, var)
    m, n = len(fc) - 1, len(gc) - 1
    if m == 0 and n == 0:
        raise ZeroForm("neither form involves the variable")
    size = m + n
    zrows = []
    for i in range(n):
        row = [HForm(0, {}, f.vars)] * size
        for k, c in enumerate(reversed(fc)):
            row[i + k] = c
        zrows.append(row)
    for i in range(m):
        row = [HForm(0, {}, f.vars)] * size
        for k, c in enumerate(reversed(gc)):
            row[i + k] = c
        zrows.append(row)
    # pad degrees so entries multiply consistently; HForm handles zero forms
    zero = HForm(0, {}, f.vars)
    return _det_ring(zrows, zero)
