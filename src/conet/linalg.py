"""Exact linear algebra over Q(w).

Every row reduction runs on one fraction-free elimination: rows are
cleared of denominators into pairs (p, q) of Python ints meaning p + q*w,
each pivot row is scaled once so that its pivot is an integer, and each
update  row <- pivot*row - f*pivot_row  is followed by dividing the row by
the gcd of its integers, so no Fraction arithmetic happens while
eliminating.  `rank` uses the downward pass alone.  `rref` adds an upward
pass that clears each pivot column above its pivot, then divides every
row once by its integer pivot; `kernel_basis`, `solve` and `reducer` read
their answers off that RREF.  Characteristic polynomials work on Scalar
entries (Faddeev-LeVerrier, divisions by integers only).
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


def _combine(pv, row, f, prow, start):
    """pv*row - f*prow, content-stripped; both rows vanish before `start`."""
    new = row[:start]
    for j in range(start, len(row)):
        a = _pmul(pv, row[j])
        b = _pmul(f, prow[j])
        new.append((a[0] - b[0], a[1] - b[1]))
    return _strip(new)


def _echelon(rows, reduced):
    """Fraction-free echelon form of Scalar rows, as int-pair rows.

    Returns (pivot_cols, nonzero rows); every pivot is a rational integer.
    With `reduced`, every pivot column is also cleared above its pivot.
    """
    rows = _int_rows(rows)
    ncols = len(rows[0])
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
        # 1/(p + q*w) = ((p - q) - q*w) / (p^2 - p*q + q^2): multiplying the
        # pivot row by (p - q) - q*w makes its pivot an integer.  Stripping
        # integer content cannot divide out a factor like p + q*w, so with
        # w-valued pivots such factors pile up in every row below and the
        # entries grow exponentially (over 10^4 bits for a 16 x 20 matrix
        # with entries a + b*w, |a|, |b| <= 2).
        p, q = rows[r][c]
        if q:
            rows[r] = _strip([_pmul(x, (p - q, -q)) for x in rows[r]])
        pv, prow = rows[r][c], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f != (0, 0):
                rows[i] = _combine(pv, rows[i], f, prow, c)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    rows = rows[:r]
    if reduced:
        # bottom-up, so each pivot row used is already clear above later
        # pivots; with integer pivots each row stays a rational multiple of
        # its RREF row, which content stripping keeps small
        for k in range(r - 1, 0, -1):
            c = pivots[k]
            pv, prow = rows[k][c], rows[k]
            for i in range(k):
                f = rows[i][c]
                if f != (0, 0):
                    rows[i] = _combine(pv, rows[i], f, prow, pivots[i])
    return pivots, rows


def rank(rows):
    """Rank of a matrix given as rows of Scalars."""
    if not rows:
        return 0
    return len(_echelon(rows, reduced=False)[0])


def rref(rows):
    """Reduced row echelon form; returns (pivot_cols, nonzero Scalar rows)."""
    if not rows:
        return [], []
    pivots, irows = _echelon(rows, reduced=True)
    out = []
    for c, irow in zip(pivots, irows):
        n = irow[c][0]
        out.append(
            [ZERO if x == (0, 0) else Scalar(Fraction(x[0], n), Fraction(x[1], n)) for x in irow]
        )
    return pivots, out


def reducer(rows, ncols):
    """Coordinates modulo the row space of `rows` (vectors of length ncols).

    Returns (free, reduce): the non-pivot columns of the RREF R of rows, and
    a function sending a vector v to the free coordinates of its remainder,
    v_j - sum_i v[p_i] * R[i][j] for j in free.  R is reduced, so
    subtracting its rows never changes a pivot coordinate of v, and only the
    free coordinates are computed.
    """
    pivots, rmat = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    tails = [(pc, [row[j] for j in free]) for pc, row in zip(pivots, rmat)]

    def reduce(vec):
        out = [vec[j] for j in free]
        for pc, tail in tails:
            f = vec[pc]
            if f:
                out = [x - f * t for x, t in zip(out, tail)]
        return out

    return free, reduce


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


def mat_mul(a, b):
    """Product of matrices given as rows; zero entries of `a` cost nothing."""
    out = []
    for row in a:
        acc = [ZERO] * len(b[0])
        for k, x in enumerate(row):
            if x:
                acc = [s + x * y if y else s for s, y in zip(acc, b[k])]
        out.append(acc)
    return out


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

