"""Ternary cubics: Hessians, Aronhold invariants, singularity types,
Jacobian nets and preimages, Hesse-pencil utilities, apolar ideals.

The degree-4 and degree-6 invariants S and T are built once, symbolically,
as polynomials in the 10 coefficients of a generic cubic: S is the full
epsilon-bracket contraction of four copies of the symmetric coefficient
tensor, and T is the polarization of S with the Hessian tensor in one slot.
Both are cached and evaluated per cubic afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
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
_MON_INDEX = {e: i for i, e in enumerate(CUBIC_MONOMIALS)}


def _sign(p):
    s = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


_EPS = [(p, _sign(p)) for p in permutations(range(3))]


def _tensor_slot(p, q, r):
    """Exponent triple and symmetrization factor for tensor index (p,q,r)."""
    e = [0, 0, 0]
    for t in (p, q, r):
        e[t] += 1
    f = Fraction(factorial(e[0]) * factorial(e[1]) * factorial(e[2]), 6)
    return tuple(e), f


# ---------------------------------------------------------------------------
# symbolic polynomials in the 10 generic cubic coefficients
# ---------------------------------------------------------------------------


def _sym_acc(poly, mono, coeff):
    if coeff:
        cur = poly.get(mono)
        new = coeff if cur is None else cur + coeff
        if new:
            poly[mono] = new
        elif cur is not None:
            del poly[mono]


def _sym_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            _sym_acc(out, m, c1 * c2)
    return out


def _mono10(exps):
    v = [0] * 10
    for e in exps:
        v[_MON_INDEX[e]] += 1
    return tuple(v)


def _generic_hessian():
    """Coefficients of Hess(G) for a generic cubic G, as symbolic polys."""
    # symbolic trivariate form: dict exp3 -> sym poly
    g = {}
    for e in CUBIC_MONOMIALS:
        mono = [0] * 10
        mono[_MON_INDEX[e]] = 1
        g[e] = {tuple(mono): Fraction(1)}

    def diff(form, i):
        out = {}
        for e, sym in form.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = {m: c * e[i] for m, c in sym.items()}
        return out

    def mul(f1, f2):
        out = {}
        for e1, s1 in f1.items():
            for e2, s2 in f2.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                prod = _sym_mul(s1, s2)
                tgt = out.setdefault(e, {})
                for m, c in prod.items():
                    _sym_acc(tgt, m, c)
        return {e: s for e, s in out.items() if s}

    def sub(f1, f2):
        out = {e: dict(s) for e, s in f1.items()}
        for e, s in f2.items():
            tgt = out.setdefault(e, {})
            for m, c in s.items():
                _sym_acc(tgt, m, -c)
        return {e: s for e, s in out.items() if s}

    d2 = [[diff(diff(g, i), j) for j in range(3)] for i in range(3)]
    a = mul(d2[0][0], sub(mul(d2[1][1], d2[2][2]), mul(d2[1][2], d2[2][1])))
    b = mul(d2[0][1], sub(mul(d2[1][0], d2[2][2]), mul(d2[1][2], d2[2][0])))
    c = mul(d2[0][2], sub(mul(d2[1][0], d2[2][1]), mul(d2[1][1], d2[2][0])))
    return sub(a, sub(b, c))


_CACHE = {}


def _invariant_polys():
    """The cached pair (S_poly, T_poly) over the generic coefficients."""
    if "ST" in _CACHE:
        return _CACHE["ST"]
    hess = _generic_hessian()
    hess_tensor = {}
    for p in range(3):
        for q in range(3):
            for r in range(3):
                e, f = _tensor_slot(p, q, r)
                sym = hess.get(e, {})
                hess_tensor[(p, q, r)] = {m: c * f for m, c in sym.items()}
    s_poly = {}
    t_poly = {}
    for b1, s1 in _EPS:
        for b2, s2 in _EPS:
            for b3, s3 in _EPS:
                for b4, s4 in _EPS:
                    sgn = s1 * s2 * s3 * s4
                    slots = [
                        (b1[0], b2[0], b3[0]),
                        (b1[1], b2[1], b4[0]),
                        (b1[2], b3[1], b4[1]),
                        (b2[2], b3[2], b4[2]),
                    ]
                    infos = [_tensor_slot(*slot) for slot in slots]
                    coeff = Fraction(sgn)
                    for _e, f in infos:
                        coeff *= f
                    _sym_acc(s_poly, _mono10([e for e, _f in infos]), coeff)
                    for k in range(4):
                        rest = [infos[i] for i in range(4) if i != k]
                        base = _mono10([e for e, _f in rest])
                        cc = Fraction(sgn)
                        for _e, f in rest:
                            cc *= f
                        for m, hc in hess_tensor[slots[k]].items():
                            _sym_acc(
                                t_poly,
                                tuple(a + b for a, b in zip(base, m)),
                                cc * hc,
                            )
    assert s_poly and t_poly
    _CACHE["ST"] = (s_poly, t_poly)
    return _CACHE["ST"]


def _eval_sym(poly, vec):
    out = ZERO
    for mono, coeff in poly.items():
        t = Scalar(coeff)
        for i, e in enumerate(mono):
            if e:
                t = t * vec[i] ** e
        out = out + t
    return out


def _coeff_vec(f):
    return [f.coeff(e) for e in CUBIC_MONOMIALS]


def _calibration():
    """c with T^2 = c * S^3 exactly on cubics with vanishing discriminant."""
    if "CAL" in _CACHE:
        return _CACHE["CAL"]
    tri = HForm(
        3,
        {(3, 0, 0): ONE, (0, 3, 0): ONE, (0, 0, 3): ONE, (1, 1, 1): Scalar(-3)},
    )
    s_poly, t_poly = _invariant_polys()
    vec = _coeff_vec(tri)
    s = _eval_sym(s_poly, vec)
    t = _eval_sym(t_poly, vec)
    assert s and t
    _CACHE["CAL"] = (t * t) / (s * s * s)
    return _CACHE["CAL"]


@dataclass(frozen=True)
class AronholdReport:
    S: Scalar
    T: Scalar
    key: tuple
    disc_zero: bool


def aronhold(f):
    """Degree-4 and degree-6 invariants of a ternary cubic.

    key is the projective pair (S^3 : T^2) with first nonzero entry 1;
    disc_zero tests the calibrated discriminant relation.
    """
    if f.is_zero():
        raise ZeroForm("invariants of the zero cubic")
    assert f.degree == 3
    s_poly, t_poly = _invariant_polys()
    vec = _coeff_vec(f)
    s = _eval_sym(s_poly, vec)
    t = _eval_sym(t_poly, vec)
    s3 = s * s * s
    t2 = t * t
    if s3:
        key = (ONE, t2 / s3)
    elif t2:
        key = (ZERO, ONE)
    else:
        key = (ZERO, ZERO)
    disc_zero = t2 == _calibration() * s3
    return AronholdReport(s, t, key, disc_zero)


def hessian_cubic(f):
    """Determinant of the matrix of second partials."""
    assert f.degree == 3
    d2 = [[f.diff(i).diff(j) for j in range(3)] for i in range(3)]
    return form_det3(d2)


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
