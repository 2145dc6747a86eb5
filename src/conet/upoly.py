"""Univariate polynomials over Q(w).

A polynomial is a list of Scalars, constant term first, with trailing zeros
trimmed.  Includes Yun's squarefree decomposition (for root multiplicity
patterns of binary forms) and exact root finding inside Q(w), which goes
through sympy's factorization over Q applied to the norm of the polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ZeroForm
from .scalar import ONE, SQRT_M3, ZERO, Scalar, rational_sqrt


def trim(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


def degree(p):
    return len(p) - 1


def padd(p, q):
    n = max(len(p), len(q))
    out = [(p[i] if i < len(p) else ZERO) + (q[i] if i < len(q) else ZERO) for i in range(n)]
    return trim(out)


def psub(p, q):
    return padd(p, [-x for x in q])


def pmul(p, q):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    return trim(out)


def pdivmod(p, q):
    q = trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = trim(list(p))
    quo = [ZERO] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(p) >= len(q):
        c = p[-1] / lead
        k = len(p) - len(q)
        quo[k] = c
        p = trim([p[i] - (c * q[i - k] if 0 <= i - k < len(q) else ZERO) for i in range(len(p))])
    return trim(quo), p


def monic(p):
    p = trim(p)
    if not p:
        return p
    inv = ONE / p[-1]
    return [x * inv for x in p]


def pgcd(p, q):
    p, q = trim(list(p)), trim(list(q))
    while q:
        p, q = q, pdivmod(p, q)[1]
    return monic(p)


def derivative(p):
    return trim([Scalar(i) * p[i] for i in range(1, len(p))])


def peval(p, x):
    out = ZERO
    for c in reversed(p):
        out = out * x + c
    return out


def squarefree_decomposition(p):
    """Yun's algorithm: list of (factor, multiplicity), factors monic."""
    p = monic(p)
    assert p, "squarefree decomposition of the zero polynomial"
    if degree(p) == 0:
        return []
    dp = derivative(p)
    a = pgcd(p, dp)
    b = pdivmod(p, a)[0]
    c = pdivmod(dp, a)[0]
    d = psub(c, derivative(b))
    out = []
    i = 1
    while degree(b) > 0:
        a = pgcd(b, d)
        if degree(a) > 0:
            out.append((a, i))
        b2 = pdivmod(b, a)[0]
        c2 = pdivmod(d, a)[0]
        b, d = b2, psub(c2, derivative(b2))
        i += 1
    return out


def binary_pattern(coeffs, d):
    """Root multiplicity pattern of a degree-d binary form.

    `coeffs[i]` is the coefficient of s^i t^(d-i).  Returns the multiset of
    root multiplicities on the projective line, sorted descending.
    """
    p = trim(list(coeffs))
    if not p:
        raise ZeroForm("zero binary form has no multiplicity pattern")
    pattern = []
    inf_mult = d - degree(p)
    if inf_mult:
        pattern.append(inf_mult)
    for factor, mult in squarefree_decomposition(p):
        pattern.extend([mult] * degree(factor))
    pattern.sort(reverse=True)
    assert sum(pattern) == d
    return pattern


def repeated_binary_root(coeffs, d):
    """The unique repeated root (s0, t0) of a binary form, as Scalars.

    Requires a pattern with exactly one multiplicity > 1 and that the
    repeated root be defined over Q(w) (true when its Yun factor is linear).
    """
    p = trim(list(coeffs))
    inf_mult = d - degree(p)
    if inf_mult > 1:
        return (ONE, ZERO)
    best = None
    for factor, mult in squarefree_decomposition(p):
        if mult > 1:
            assert best is None, "multiple repeated roots"
            best = factor
    assert best is not None and degree(best) == 1
    return (-best[0] / best[1], ONE)


def distinct_root_count(p):
    """Number of distinct roots in the algebraic closure."""
    p = trim(list(p))
    if degree(p) <= 0:
        return 0
    return degree(pdivmod(p, pgcd(p, derivative(p)))[0])


def roots_in_qw(p):
    """All roots of p lying in Q(w), sorted deterministically.

    Multiplies p by its coefficient-wise conjugate to get a polynomial over
    Q, factors that with sympy, and reads Q(w)-roots off the linear factors
    and the quadratic factors of discriminant -3 * square.
    """
    import sympy

    p = trim(list(p))
    if not p:
        raise ZeroForm("every scalar is a root of the zero polynomial")
    if degree(p) == 0:
        return []
    pbar = [c.conj() for c in p]
    g = pmul(p, pbar)
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.a) * x**i for i, c in enumerate(g))
    _, factors = sympy.factor_list(sympy.Poly(expr, x, domain="QQ"))
    candidates = set()
    for fac, _mult in factors:
        cs = fac.all_coeffs()  # high to low
        if len(cs) == 2:
            candidates.add(Scalar(Fraction(-cs[1] / cs[0])))
        elif len(cs) == 3:
            lead = cs[0]
            pp = Fraction(cs[1] / lead)
            qq = Fraction(cs[2] / lead)
            disc = pp * pp - 4 * qq
            s = rational_sqrt(-disc / 3) if disc <= 0 else None
            if s is not None:
                half = Scalar(Fraction(1, 2))
                root1 = (Scalar(-pp) + Scalar(s) * SQRT_M3) * half
                candidates.add(root1)
                candidates.add(root1.conj())
    roots = [r for r in candidates if not peval(p, r)]
    roots.sort(key=lambda r: (r.a, r.b))
    return roots
