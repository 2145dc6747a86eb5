"""Linear systems of conics and their scheme-theoretic invariants.

A pencil or net is a linear span of degree-2 forms in X, Y, Z.  The
discriminant of a net is a plane cubic in coordinates A, B, C dual to the
chosen generators; the rank-one locus is the scheme cut out by the six
distinct 2x2 minors (adjugate entries) of the symmetric matrix pencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import linalg
from .errors import (
    GenericityFailure,
    Indeterminate,
    InvalidInput,
    NotThreeDimensional,
    ZeroForm,
)
from .forms import HForm, conic_matrix, form_det3, monomial_order
from .scalar import ONE, ZERO, Scalar
from .upoly import pgcd, roots_in_qw, trim

GRAM_DIAGONAL = [Scalar(2), Scalar(2), Scalar(2), ONE, ONE, ONE]


class LinearSystem:
    """A linear span of homogeneous forms of a common degree."""

    def __init__(self, forms):
        forms = list(forms)
        if not forms:
            raise InvalidInput("a linear system needs at least one generator")
        degree = next((f.degree for f in forms if f), forms[0].degree)
        if any(f and f.degree != degree for f in forms):
            raise InvalidInput("the forms of a linear system must share one degree")
        self.degree = degree
        self.forms = forms
        self.order = monomial_order(degree)
        rows = [f.coeff_vector(self.order) for f in forms]
        pivots, rmat = linalg.rref(rows)
        self._pivots = pivots
        self._rref = rmat
        self.dimension = len(rmat)

    def canonical(self):
        """Reduced-echelon coefficient matrix; equal spans compare equal."""
        return tuple(tuple(row) for row in self._rref)

    def canonical_forms(self):
        return [
            HForm(self.degree, dict(zip(self.order, row)), self.forms[0].vars)
            for row in self._rref
        ]

    def __eq__(self, other):
        if not isinstance(other, LinearSystem):
            return NotImplemented
        return self.degree == other.degree and self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.degree, self.canonical()))

    def contains(self, form):
        if form.is_zero():
            return True
        if form.degree != self.degree:
            return False
        rows = [list(r) for r in self._rref] + [form.coeff_vector(self.order)]
        return linalg.rank(rows) == self.dimension

    def substitute(self, g):
        return LinearSystem([f.substitute(g) for f in self.forms])

    def to_json(self):
        return {"degree": self.degree, "forms": [f.to_json() for f in self.forms]}

    def __repr__(self):
        return "LinearSystem[" + "; ".join(str(f) for f in self.forms) + "]"


def forms_from_json(data):
    """The generators of a linear-system JSON object, as forms."""
    try:
        forms = [HForm.from_json(f) for f in data["forms"]]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"bad linear system JSON: {exc}") from exc
    if not forms:
        raise InvalidInput("linear system needs at least one form")
    return forms


def assert_net(system):
    if system.degree != 2 or len(system.forms) != 3 or system.dimension != 3:
        raise NotThreeDimensional(
            "expected three degree-2 generators spanning a 3-dimensional space"
        )


def matrix_pencil(system):
    """A*M1 + B*M2 (+ C*M3) for the conic matrices M_k of the generators,
    as a 3x3 matrix of linear forms in A, B, C."""
    mats = [conic_matrix(f) for f in system.forms]
    exps = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return [
        [
            HForm(1, {exps[k]: m[i][j] for k, m in enumerate(mats)}, ("A", "B", "C"))
            for j in range(3)
        ]
        for i in range(3)
    ]


def adjugate_entries(m):
    """The six 2x2 minors of a symmetric 3x3 matrix (its adjugate entries
    on and above the diagonal)."""
    out = []
    for i in range(3):
        for j in range(i, 3):
            i1, i2 = [t for t in range(3) if t != i]
            j1, j2 = [t for t in range(3) if t != j]
            out.append(m[i1][j1] * m[i2][j2] - m[i1][j2] * m[i2][j1])
    return out


def discriminant_cubic(net):
    """det(A*M1 + B*M2 + C*M3) as a cubic form in A, B, C.

    Uses the generators in the order given, not the canonical basis.
    """
    assert_net(net)
    return form_det3(matrix_pencil(net))


def pencil_determinant(pencil):
    """det(s*M1 + t*M2) of a pencil, as binary-cubic coefficients.

    Returns [c0, c1, c2, c3] with c_i the coefficient of s^i t^(3-i).
    """
    assert pencil.degree == 2 and len(pencil.forms) == 2
    d = form_det3(matrix_pencil(pencil))
    return [d.coeff((i, 3 - i, 0)) for i in range(4)]


def minor_forms(net):
    """The six adjugate entries of the symmetric matrix pencil, as quadrics
    in A, B, C.  Their zero scheme is the rank <= 1 locus."""
    assert_net(net)
    return adjugate_entries(matrix_pencil(net))


@dataclass(frozen=True)
class SchemeReport:
    """Hilbert-function probe of a homogeneous ideal in three variables."""

    hilbert: tuple
    dimension: int
    length: object  # int for dimension 0, None (infinite) for dimension 1


def _span_rows(gens, d, order):
    """Coefficient rows of all degree-d multiples of the generators."""
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        k = d - g.degree
        if k < 0:
            continue
        for exp in monomial_order(k):
            mono = HForm(k, {exp: ONE}, g.vars)
            rows.append((mono * g).coeff_vector(order))
    return rows


def hilbert_value(gens, d):
    """dim (R/I)_d for the ideal I generated by gens."""
    order = monomial_order(d)
    return len(order) - linalg.rank(_span_rows(gens, d, order))


def _macaulay_bound(h, d):
    """h^<d>, Macaulay's bound on h(d+1) when h(d) = h: write h greedily as
    C(k_d, d) + C(k_(d-1), d-1) + ... and raise each C(k_i, i) to C(k_i+1, i+1)."""
    out = 0
    while h:
        k = d
        while comb(k + 1, d) <= h:
            k += 1
        out += comb(k + 1, d + 1)
        h -= comb(k, d)
        d -= 1
    return out


def graded_quotient_report(gens):
    """Hilbert function of R/(gens), certified by Gotzmann persistence.

    Probes d = 0, 1, ... up to the first d >= e, the top generator degree,
    with h(d+1) = h(d)^<d> (Macaulay's bound).  By Gotzmann's persistence
    theorem h then grows maximally in every higher degree: it is constant
    when h(d) <= d (dimension 0, length h(d)) and strictly increasing
    otherwise (dimension 1).  h(d) = 0 also stops (the empty scheme).  A
    finite scheme has length at most e^2, and only d >= length certifies
    it; the probe gives up after degree max(12, e^2 + 1).
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ZeroForm("graded report needs at least one nonzero generator")
    top = max(g.degree for g in gens)
    hf = []
    for d in range(max(13, top * top + 2)):
        hf.append(hilbert_value(gens, d))
        if hf[-1] == 0:
            # the quotient vanishes in high degrees: empty scheme
            return SchemeReport(tuple(hf), 0, 0)
        if d > top and hf[-1] == _macaulay_bound(hf[-2], d - 1):
            if hf[-2] <= d - 1:
                return SchemeReport(tuple(hf), 0, hf[-2])
            return SchemeReport(tuple(hf), 1, None)
    raise Indeterminate(f"Hilbert function did not stabilize by degree {d}: {hf}")


def rank_one_report(net):
    """Scheme report of the rank-one locus of a net."""
    return graded_quotient_report(minor_forms(net))


def multiplication_matrices(unit, ops):
    """M_k = unit^-1 * op_k from one rref of [unit | op_1 | ... | op_n], or
    None when `unit` is singular (not all of its columns are pivots)."""
    n = len(unit)
    rows = [list(unit[i]) + [x for op in ops for x in op[i]] for i in range(n)]
    pivots, rmat = linalg.rref(rows)
    if pivots != list(range(n)):
        return None
    return [[row[n * (k + 1) : n * (k + 2)] for row in rmat] for k in range(len(ops))]


def distinct_point_count(mats, basis):
    """Number of distinct points over the algebraic closure of a
    zero-dimensional scheme.

    `mats` are the matrices M_k of multiplication by the k-th coordinate on
    a space isomorphic to the coordinate algebra, and the products of the
    M_k given by the exponent tuples in `basis` form a basis of it.  By
    Hermite's theorem the count is the rank of the trace form
    Tr(M_a * M_b) on that basis (Cox, Little and O'Shea, Using Algebraic
    Geometry, ch. 2 sec. 5).
    """
    n, m = len(basis), len(mats)
    units = [tuple(int(i == k) for i in range(m)) for k in range(m)]
    products = dict(zip(units, mats))
    products[(0,) * m] = linalg.identity(n)

    def mat(e):
        if e not in products:
            u = units[next(i for i, x in enumerate(e) if x)]
            products[e] = linalg.mat_mul(mat(tuple(x - y for x, y in zip(e, u))), products[u])
        return products[e]

    ms = [mat(e) for e in basis]
    form = [[ZERO] * n for _ in ms]
    for a in range(n):
        for b in range(a, n):
            # Tr(A B): the entries of A times those of B transposed
            terms = (x * y for ra, cb in zip(ms[a], zip(*ms[b])) for x, y in zip(ra, cb) if x)
            form[a][b] = form[b][a] = sum(terms, ZERO)
    return linalg.rank(form)


def support_count(gens, report=None):
    """Number of distinct closed points of a zero-dimensional scheme.

    In the degree d where graded_quotient_report stopped, (R/I)_d is the
    coordinate algebra: I_d has maximal growth, so it generates a Gotzmann
    ideal, and that ideal is d-regular.  The multiplication matrices come
    from the first l_k = X + k*Y + k^2*Z, k = 0..2L, whose multiplication
    maps (R/I)_d onto (R/I)_(d+1).  A point lies on at most two lines
    l_k = 0, so one of these 2L + 1 forms misses all L or fewer points.
    `report` is graded_quotient_report(gens) when the caller already has it.
    """
    if report is None:
        report = graded_quotient_report(gens)
    if report.dimension != 0:
        raise InvalidInput("support count needs a zero-dimensional scheme")
    if report.length == 0:
        return 0
    d = len(report.hilbert) - 2
    order_d, order_d1 = monomial_order(d), monomial_order(d + 1)
    free_d, _reduce_d = linalg.reducer(_span_rows(gens, d, order_d), len(order_d))
    _free_d1, reduce_d1 = linalg.reducer(_span_rows(gens, d + 1, order_d1), len(order_d1))
    vars = gens[0].vars
    basis = [order_d[c] for c in free_d]

    def operator(lform):
        cols = [reduce_d1((lform * HForm(d, {b: ONE}, vars)).coeff_vector(order_d1)) for b in basis]
        return [list(row) for row in zip(*cols)]

    ops = [operator(HForm(1, {e: ONE}, vars)) for e in monomial_order(1)]
    for k in range(2 * report.length + 1):
        unit = [[x + k * y + k * k * z for x, y, z in zip(*rows)] for rows in zip(*ops)]
        mats = multiplication_matrices(unit, ops)
        if mats is not None:
            return distinct_point_count(mats, basis)
    raise GenericityFailure("no form X + k*Y + k^2*Z is a unit on the quotient")


def _binary_coeffs(form, i0, i1):
    """Coefficients of a form supported on two variables, low var-i1 first."""
    d = form.degree
    out = [ZERO] * (d + 1)
    for exp, c in form.coeffs.items():
        out[exp[i1]] = c
    return out


def rational_points(gens):
    """All Q(w)-points of the zero scheme of gens, normalized projectively.

    Intended for zero-dimensional schemes; a positive-dimensional input can
    raise Indeterminate.  Points are tuples of Scalars with first nonzero
    coordinate 1, sorted deterministically.
    """
    from .forms import eliminate

    gens = [g for g in gens if g]
    assert gens
    involves = [any(e[2] for e in g.coeffs) for g in gens]
    # each pool entry: (coefficients in Y at X^...=rest, binary degree)
    pool = []
    for g, inv in zip(gens, involves):
        if not inv:
            pool.append((trim(_binary_coeffs(g, 0, 1)), g.degree))
    zgens = [g for g, inv in zip(gens, involves) if inv]
    for i in range(len(zgens)):
        for j in range(i + 1, len(zgens)):
            r = eliminate(zgens[i], zgens[j], 2)
            if r:
                pool.append((trim(_binary_coeffs(r, 0, 1)), r.degree))
    pool = [(p, d) for p, d in pool if p]
    if not pool:
        raise Indeterminate("no constraints survive projection; scheme may be positive-dimensional")
    projections = []
    g = pool[0][0]
    for p, _d in pool[1:]:
        g = pgcd(g, p)
    if len(g) > 1:
        for t0 in roots_in_qw(g):
            projections.append((ONE, t0))
    if all(len(p) - 1 < d for p, d in pool):
        projections.append((ZERO, ONE))
    points = set()
    for x0, y0 in projections:
        zpolys = []
        for gform in gens:
            p = [ZERO] * (gform.degree + 1)
            for exp, c in gform.coeffs.items():
                p[exp[2]] = p[exp[2]] + c * (x0 ** exp[0]) * (y0 ** exp[1])
            zpolys.append(trim(p))
        zpolys = [p for p in zpolys if p]
        if not zpolys:
            raise Indeterminate("a whole line lies in the scheme")
        g = zpolys[0]
        for p in zpolys[1:]:
            g = pgcd(g, p)
        if len(g) == 1:
            continue
        for z0 in roots_in_qw(g):
            points.add(_normalize_point((x0, y0, z0)))
    if all(not g.eval((ZERO, ZERO, ONE)) for g in gens):
        points.add((ZERO, ZERO, ONE))
    good = [p for p in points if all(not g.eval(p) for g in gens)]
    good.sort(key=lambda p: tuple((c.a, c.b) for c in p))
    return good


def _normalize_point(pt):
    for c in pt:
        if c:
            inv = ONE / c
            return tuple(x * inv for x in pt)
    raise AssertionError("zero vector is not a projective point")


def orthogonal_complement(system):
    """The conics pairing to zero with every member of the system.

    The pairing of two conics with matrices M, N is 2 * trace(M N); in the
    fixed basis it is diagonal with entries (2, 2, 2, 1, 1, 1).
    """
    if system.degree != 2:
        raise InvalidInput("the orthogonal complement is defined for systems of conics")
    rows = [
        [v * g for v, g in zip(row, GRAM_DIAGONAL)] for row in system.canonical()
    ]
    basis = linalg.kernel_basis([list(r) for r in rows], 6)
    return LinearSystem(
        [HForm.from_coeff_vector(2, v, system.forms[0].vars) for v in basis]
    )


def orbit_dimension(system):
    """Dimension of the PGL(3)-orbit of the system in its Grassmannian.

    Ranks the infinitesimal action gl(3) -> Hom(V, R_2 / V), where the
    matrix unit E_ab sends F to x_b * dF/dx_a.
    """
    assert system.degree == 2
    basis = system.canonical_forms()
    order = monomial_order(2)
    _free, reduce = linalg.reducer([f.coeff_vector(order) for f in basis], len(order))

    rows = []
    vars = system.forms[0].vars
    for a in range(3):
        for b in range(3):
            xb = [0, 0, 0]
            xb[b] = 1
            xform = HForm(1, {tuple(xb): ONE}, vars)
            row = []
            for f in basis:
                img = xform * f.diff(a)
                row.extend(reduce(img.coeff_vector(order)))
            rows.append(row)
    return linalg.rank(rows)
