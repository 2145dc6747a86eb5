"""Exact linear algebra over Q(w).

Rank computations clear denominators and run an integer-pair elimination
(entries are p + q*w with p, q Python ints, content-stripped after every
update) so the hot paths never touch Fraction arithmetic.  Kernels, solves
and characteristic polynomials work directly with Scalar entries; the
matrices involved there are small.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InconsistentSystem, NonSquare
from .scalar import ONE, ZERO, Scalar


def _int_rows(rows):
    """Clear denominators row by row, returning rows of (p, q) int pairs.

    Integer arithmetic only: a row's multiplier is the lcm of the
    denominators of its nonzero entries, and n/d becomes n * (den // d).
    """
    out = []
    for row in rows:
        den = 1
        nonzero = []
        for j, x in enumerate(row):
            a, b = x.a, x.b
            if a or b:
                den = lcm(den, a.denominator, b.denominator)
                nonzero.append((j, a, b))
        irow = [(0, 0)] * len(row)
        for j, a, b in nonzero:
            irow[j] = (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
        out.append(_strip(irow))
    return out


def _strip(irow):
    g = 0
    for p, q in irow:
        g = gcd(g, gcd(abs(p), abs(q)))
    if g > 1:
        return [(p // g, q // g) for p, q in irow]
    return irow


def _pmul(x, y):
    p, q = x
    r, s = y
    qs = q * s
    return (p * r - qs, p * s + q * r - qs)


def int_echelon(irows, ncols):
    """Row echelon form on int-pair rows; returns (pivot_cols, rows)."""
    rows = [list(r) for r in irows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != (0, 0):
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f == (0, 0):
                continue
            row = rows[i]
            new = []
            for j in range(ncols):
                a = _pmul(pv, row[j])
                b = _pmul(f, rows[r][j])
                new.append((a[0] - b[0], a[1] - b[1]))
            rows[i] = _strip(new)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, rows[:r]


def rank(rows):
    """Rank of a matrix given as rows of Scalars."""
    if not rows:
        return 0
    ncols = len(rows[0])
    pivots, _ = int_echelon(_int_rows(rows), ncols)
    return len(pivots)


def rref(rows):
    """Reduced row echelon form; returns (pivot_cols, nonzero Scalar rows)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = ONE / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [mat[i][j] - f * mat[r][j] for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return pivots, mat[:r]


def kernel_basis(rows, ncols):
    """Basis of the right kernel, as Scalar vectors of length ncols."""
    if not rows:
        return [[ONE if j == i else ZERO for j in range(ncols)] for i in range(ncols)]
    pivots, rmat = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -rmat[i][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution of rows * x = rhs, or raise InconsistentSystem."""
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots, rmat = rref(aug)
    if ncols in pivots:
        raise InconsistentSystem("no solution")
    x = [ZERO] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = rmat[i][ncols]
    return x


def mat_vec(rows, v):
    return [sum((r[j] * v[j] for j in range(len(v))), ZERO) for r in rows]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum((a[i][k] * b[k][j] for k in range(m)), ZERO) for j in range(p)]
        for i in range(n)
    ]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def trace(m):
    return sum((m[i][i] for i in range(len(m))), ZERO)


def char_poly(m):
    """Monic characteristic polynomial det(x*I - M), coefficients low to high.

    Faddeev-LeVerrier recursion; all divisions are by integers and exact.
    """
    n = len(m)
    for row in m:
        if len(row) != n:
            raise NonSquare("characteristic polynomial needs a square matrix")
    coeffs = [ZERO] * n + [ONE]
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        ck = -(trace(mk) / Scalar(k))
        coeffs[n - k] = ck
        if k < n:
            for i in range(n):
                mk[i][i] = mk[i][i] + ck
            mk = mat_mul(m, mk)
    return coeffs


def det(m):
    """Determinant via the characteristic polynomial."""
    n = len(m)
    c0 = char_poly(m)[0]
    return c0 if n % 2 == 0 else -c0


def from_int_row(irow):
    return [Scalar(Fraction(p), Fraction(q)) for p, q in irow]
