"""Ternary cubics: Hessians, Aronhold invariants, singularity types,
Jacobian nets and preimages, Hesse-pencil utilities, apolar ideals.

The Aronhold invariants S (degree 4) and T (degree 6) are read off two
polarizations of the Hessian determinant.  Let A be the Hessian matrix of a
cubic f (its entries are linear forms), H = det A, and B the Hessian matrix
of H.  Write P(a, b) for the t-coefficient of det(a + t*b), the sum over k
of det(a with column k taken from b).  Then, identically in the
coefficients of f,

    P(A, B) = 648*S*f,        P(B, A) = 324*T*f - 648*S*H.

Proof.  Under a substitution f -> f(g x), A -> g^T A(g x) g, so
H -> det(g)^2 H(g x) and B -> det(g)^2 g^T B(g x) g.  P(A, B) is therefore a
covariant of order 3 and degree 5 in the coefficients, and of weight 4;
P(B, A) is one of order 3, degree 7 and weight 6.  The covariants of the
ternary cubic are generated by S, T, f, H and two covariants of orders 6
and 9 (Salmon, Higher Plane Curves; Dolgachev, Classical Algebraic
Geometry, sec. 3.2), so one of order 3 is c*f + d*H with invariants c and
d of degrees 4 and 2 (resp. 6 and 4).  There is no invariant of degree 2,
and S and T generate the invariants, so the two identities hold up to the
three constants.  S and T are normalized by their values on the Hesse
pencil f = X^3 + Y^3 + Z^3 + 3*lam*XYZ, S = -12*lam + (3/2)*lam^4 and
T = -864 + 2160*lam^3 + 108*lam^6; the Hessian of a member stays in the
pencil, and comparing coefficients there gives the three constants.
The discriminant is a multiple of T^2 - 3456*S^3: the constant is T^2/S^3
on the triangle X^3 + Y^3 + Z^3 - 3XYZ (lam = -1, S = 27/2, T = -2916).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import linalg
from .errors import NotThreeDimensional, UnclassifiedCubic, ZeroForm
from .forms import HForm, conic_matrix, form_det3, monomial_order
from .scalar import ONE, W, ZERO, Scalar
from .spaces import (
    LinearSystem,
    graded_quotient_report,
    support_count,
)
from .upoly import binary_pattern

CUBIC_MONOMIALS = monomial_order(3)


def _hessian_matrix(f):
    return [[f.diff(i).diff(j) for j in range(3)] for i in range(3)]


def _polar_det(a, b):
    """The t-coefficient of det(a + t*b) for 3x3 matrices of forms."""
    d0, d1, d2 = (
        form_det3([[b[i][j] if j == k else a[i][j] for j in range(3)] for i in range(3)])
        for k in range(3)
    )
    return d0 + d1 + d2


@dataclass(frozen=True)
class AronholdReport:
    S: Scalar
    T: Scalar
    key: tuple
    disc_zero: bool


def aronhold(f):
    """Degree-4 and degree-6 invariants of a ternary cubic.

    key is the projective pair (S^3 : T^2) with first nonzero entry 1;
    disc_zero tests T^2 = 3456*S^3, the vanishing of the discriminant.
    """
    if f.is_zero():
        raise ZeroForm("invariants of the zero cubic")
    assert f.degree == 3
    a = _hessian_matrix(f)
    h = form_det3(a)
    b = _hessian_matrix(h)
    e, c = next(iter(f.coeffs.items()))
    s = _polar_det(a, b).coeff(e) / (Scalar(648) * c)
    t = (_polar_det(b, a).coeff(e) + Scalar(648) * s * h.coeff(e)) / (Scalar(324) * c)
    s3 = s * s * s
    t2 = t * t
    if s3:
        key = (ONE, t2 / s3)
    elif t2:
        key = (ZERO, ONE)
    else:
        key = (ZERO, ZERO)
    return AronholdReport(s, t, key, t2 == Scalar(3456) * s3)


def hessian_cubic(f):
    """Determinant of the matrix of second partials."""
    assert f.degree == 3
    return form_det3(_hessian_matrix(f))


@dataclass(frozen=True)
class CubicType:
    kind: str
    key: tuple = None

    def to_json(self):
        out = {"kind": self.kind}
        if self.key is not None:
            out["key"] = [str(c) for c in self.key]
        return out


def _cone_vertex(f):
    """A point v with f constant along v (valid when the Hessian vanishes)."""
    rows = []
    for i in range(3):
        rows.extend(conic_matrix(f.diff(i)))
    ker = linalg.kernel_basis(rows, 3)
    assert ker, "a cubic with zero Hessian is a cone"
    return ker[0]


def classify_cubic(f):
    """Singularity type of a plane cubic.

    Kinds: Zero, Smooth (with key), Node, Cusp, ConicSecant, ConicTangent,
    Triangle, ConcurrentLines, DoubleLinePlusLine, TripleLine.
    """
    if f.is_zero():
        return CubicType("Zero")
    assert f.degree == 3
    if hessian_cubic(f).is_zero():
        v = _cone_vertex(f)
        for a in range(3):
            for b in range(a + 1, 3):
                p = [[ZERO] * 3 for _ in range(3)]
                p[a][0] = ONE
                p[b][1] = ONE
                for i in range(3):
                    p[i][2] = v[i]
                if linalg.rank(p) == 3:
                    g = f.substitute(p)
                    assert all(e[2] == 0 for e in g.coeffs)
                    pattern = binary_pattern([g.coeff((i, 3 - i, 0)) for i in range(4)], 3)
                    if pattern == [1, 1, 1]:
                        return CubicType("ConcurrentLines")
                    if pattern == [2, 1]:
                        return CubicType("DoubleLinePlusLine")
                    return CubicType("TripleLine")
        raise UnclassifiedCubic("no chart for the cone")
    partials = [f.diff(i) for i in range(3)]
    report = graded_quotient_report(partials)
    if report.dimension == 0 and report.length == 0:
        return CubicType("Smooth", aronhold(f).key)
    assert report.dimension == 0, "non-cone cubic has finite singular scheme"
    n = support_count(partials, report)
    table = {
        (1, 1): "Node",
        (1, 2): "Cusp",
        (1, 3): "ConicTangent",
        (2, 2): "ConicSecant",
        (3, 3): "Triangle",
    }
    kind = table.get((n, report.length))
    if kind is None:
        raise UnclassifiedCubic(f"singular scheme with {n} points, length {report.length}")
    return CubicType(kind)


def jacobian_net(f):
    """The linear span of the three first partials of a cubic."""
    assert f.degree == 3
    partials = [f.diff(i) for i in range(3)]
    if all(p.is_zero() for p in partials):
        raise ZeroForm("zero cubic has no Jacobian net")
    return LinearSystem(partials)


def jacobian_preimage(net):
    """All cubics whose three partials lie in the given net of conics."""
    if net.degree != 2 or net.dimension != 3:
        raise NotThreeDimensional("Jacobian preimage needs a net of conics")
    order2 = monomial_order(2)
    crows = [list(r) for r in net.canonical()]
    funcs = linalg.kernel_basis(crows, 6)  # functionals vanishing on the net
    rows = []
    for i in range(3):
        for u in funcs:
            row = []
            for e in CUBIC_MONOMIALS:
                mono = HForm(3, {e: ONE})
                d = mono.diff(i)
                vec = d.coeff_vector(order2)
                row.append(sum((u[j] * vec[j] for j in range(6)), ZERO))
            rows.append(row)
    basis = linalg.kernel_basis(rows, 10)
    forms = [HForm(3, dict(zip(CUBIC_MONOMIALS, v))) for v in basis]
    assert forms, "nine conditions on ten coefficients always leave a kernel"
    return LinearSystem(forms)


def preimage_dimension(net):
    return jacobian_preimage(net).dimension


def hesse_cubic(lam):
    """X^3 + Y^3 + Z^3 + 3*lambda*XYZ."""
    lam = lam if isinstance(lam, Scalar) else Scalar(lam)
    return HForm(
        3,
        {
            (3, 0, 0): ONE,
            (0, 3, 0): ONE,
            (0, 0, 3): ONE,
            (1, 1, 1): Scalar(3) * lam,
        },
    )


def hesse_net(lam):
    """The net <X^2+lam*YZ, Y^2+lam*XZ, Z^2+lam*XY>."""
    lam = lam if isinstance(lam, Scalar) else Scalar(lam)
    return LinearSystem(
        [
            HForm(2, {(2, 0, 0): ONE, (0, 1, 1): lam}),
            HForm(2, {(0, 2, 0): ONE, (1, 0, 1): lam}),
            HForm(2, {(0, 0, 2): ONE, (1, 1, 0): lam}),
        ]
    )


def hesse_j(lam):
    """j-key of the Hesse-pencil member at lambda; None at the three poles."""
    lam = lam if isinstance(lam, Scalar) else Scalar(lam)
    l3 = lam**3
    den = (l3 + Scalar(1)) ** 3 * Scalar(27)
    if not den:
        return None
    num = l3 * (l3 - Scalar(8)) ** 3
    return num / den


def hesse_pencil_facts():
    """Inflection points, singular members and Fermat members of the pencil
    X^3 + Y^3 + Z^3 + 3*lambda*XYZ."""
    w2 = W * W
    inflections = []
    for triple in [(ZERO, ONE), (ONE, ZERO)]:
        for r in (ONE, W, w2):
            inflections.append((triple[0], triple[1], -r))
    for r in (ONE, W, w2):
        inflections.append((ONE, -r, ZERO))
    xyz = HForm(3, {(1, 1, 1): ONE})
    singular = [xyz] + [hesse_cubic(-r) for r in (ONE, W, w2)]
    fermat = [ZERO, Scalar(2), Scalar(2) * W, Scalar(2) * w2]
    return {
        "inflections": inflections,
        "singular_members": singular,
        "fermat_members": fermat,
    }


def apolar_generators(f):
    """Minimal generator counts, by degree, of the apolar ideal of a cubic."""
    if f.is_zero():
        raise ZeroForm("apolar ideal of the zero form")
    assert f.degree == 3

    def catalecticant_kernel(d):
        cols = monomial_order(d)
        rows_idx = monomial_order(3 - d) if d <= 3 else []
        rows = []
        for beta in rows_idx:
            row = []
            for alpha in cols:
                e = tuple(a + b for a, b in zip(alpha, beta))
                if sum(e) == 3 and min(e) >= 0:
                    fac = Fraction(1)
                    for ai, bi in zip(alpha, beta):
                        fac *= Fraction(factorial(ai + bi), factorial(bi))
                    row.append(f.coeff(e) * Scalar(fac))
                else:
                    row.append(ZERO)
            rows.append(row)
        if not rows:
            return [
                [ONE if j == i else ZERO for j in range(len(cols))]
                for i in range(len(cols))
            ]
        return linalg.kernel_basis(rows, len(cols))

    ann = {d: catalecticant_kernel(d) for d in range(1, 5)}
    counts = {}
    prev = []
    for d in range(1, 5):
        cols = monomial_order(d)
        idx = {e: i for i, e in enumerate(cols)}
        prod_rows = []
        for v in prev:
            lower = monomial_order(d - 1)
            for i in range(3):
                row = [ZERO] * len(cols)
                for e, c in zip(lower, v):
                    if c:
                        ne = list(e)
                        ne[i] += 1
                        row[idx[tuple(ne)]] = row[idx[tuple(ne)]] + c
                prod_rows.append(row)
        n = len(ann[d]) - linalg.rank(prod_rows)
        if n:
            counts[d] = n
        prev = ann[d]
    return counts


def cubic_orbit_dimension(f):
    """Dimension of the PGL(3)-orbit of [f] in the space of plane cubics."""
    assert f.degree == 3 and f
    rows = []
    for a in range(3):
        for b in range(3):
            xb = [0, 0, 0]
            xb[b] = 1
            img = HForm(1, {tuple(xb): ONE}) * f.diff(a)
            rows.append(img.coeff_vector(CUBIC_MONOMIALS))
    full = rows + [f.coeff_vector(CUBIC_MONOMIALS)]
    return linalg.rank(full) - 1
