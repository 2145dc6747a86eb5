"""Deformation verifiers for small Artinian algebras.

Two constructions are checked exactly: a length-7 smoothing of an algebra
with Hilbert function (1,3,3), and the (1,r,2) quadric-pencil algebras with
their degree-1 syzygies and one-parameter flat deformation.  Polynomials
here are affine (possibly inhomogeneous), stored as dicts mapping exponent
tuples to Scalars.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from . import linalg
from .errors import InconsistentSystem, InvalidParameters, VerificationFailure
from .scalar import ONE, W, ZERO, Scalar
from .spaces import distinct_point_count, multiplication_matrices


# --------------------------------------------------------------------------
# affine polynomial helpers
# --------------------------------------------------------------------------


def avar(nv, i, coeff=ONE):
    e = [0] * nv
    e[i] = 1
    return {tuple(e): coeff}


def aadd(*ps):
    out = {}
    for p in ps:
        for e, c in p.items():
            s = out.get(e, ZERO) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def ascale(p, c):
    if not c:
        return {}
    return {e: x * c for e, x in p.items()}


def amul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, ZERO) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def aeval(p, point):
    out = ZERO
    for e, c in p.items():
        t = c
        for i, k in enumerate(e):
            for _ in range(k):
                t = t * point[i]
        out = out + t
    return out


def adiff(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * Scalar(e[i])
    return out


def monomials_upto(nv, d):
    """All exponent tuples of total degree <= d, in a fixed order."""
    out = [()]
    for _ in range(nv):
        new = []
        for e in out:
            used = sum(e)
            for k in range(d - used + 1):
                new.append(e + (k,))
        out = new
    out.sort(key=lambda e: (sum(e), e))
    return out


def _coeff_row(poly, index):
    """Coefficient vector of a polynomial over the monomials of `index`."""
    row = [ZERO] * len(index)
    for e, c in poly.items():
        row[index[e]] = c
    return row


def _rows_for(gens, nv, bound, cols_index):
    rows = []
    for g in gens:
        dg = max(sum(e) for e in g)
        for q in monomials_upto(nv, bound - dg):
            rows.append(_coeff_row(amul({q: ONE}, g), cols_index))
    return rows


def _level(gens, nv, bound):
    """Monomials of degree <= bound, their index, and the free columns and
    reducer modulo the generator multiples of degree <= bound."""
    cols = monomials_upto(nv, bound)
    index = {e: i for i, e in enumerate(cols)}
    free, reduce = linalg.reducer(_rows_for(gens, nv, bound, index), len(cols))
    return cols, index, free, reduce


# the largest degree bound certified_algebra reduces modulo the generators
MAX_BOUND = 8


def certified_algebra(gens, nv):
    """(basis, mats) of the coordinate algebra R/I of an Artinian affine ideal.

    At degree bound D, V is the polynomials of degree <= D modulo the
    generator multiples of degree <= D, with the monomial basis `basis`;
    unit and op_i map V to the same quotient at bound D+1, by inclusion and
    by multiplication by x_i.  The sweep starts at D = max(1, e - 1) for the
    top generator degree e and accepts the first D where unit is square and
    invertible and the M_i = unit^-1 * op_i commute.  Then
      * every polynomial is congruent modulo I to one of degree <= D, so
        dim R/I <= len(basis);
      * m(M) * [1] = unit^-1 * [m]_(D+1) for every monomial m of degree
        <= D+1.  So b(M) * [1] is the basis vector of b, and each generator
        g (of degree <= D+1, zero at bound D+1) has g(M) * [1] = 0: f ->
        f(M) * [1] maps R/I onto V, and dim R/I >= len(basis).
    V is then R/I, and M_i multiplies by x_i (Kreuzer and Robbiano,
    Computational Commutative Algebra 2, sec. 6.4).
    """
    units = [tuple(int(j == i) for j in range(nv)) for i in range(nv)]
    start = max(1, max(sum(e) for g in gens for e in g) - 1)
    lower = _level(gens, nv, start)
    for bound in range(start, MAX_BOUND):
        upper = _level(gens, nv, bound + 1)
        (cols, _index, free, _reduce), (_cols, index1, free1, reduce1) = lower, upper
        lower = upper
        if len(free) != len(free1):
            continue
        basis = [cols[c] for c in free]
        images = {}  # monomial -> its bound-(D+1) coordinates

        def operator(u):  # multiplication by the monomial u
            shifted = [tuple(x + y for x, y in zip(b, u)) for b in basis]
            for e in shifted:
                if e not in images:
                    images[e] = reduce1(_coeff_row({e: ONE}, index1))
            return [list(row) for row in zip(*(images[e] for e in shifted))]

        mats = multiplication_matrices(operator((0,) * nv), [operator(u) for u in units])
        if mats is not None and all(
            linalg.mat_mul(a, b) == linalg.mat_mul(b, a) for a, b in combinations(mats, 2)
        ):
            return basis, mats
    raise VerificationFailure(f"no degree bound up to {MAX_BOUND} certifies a finite algebra")


def stabilized_length(gens, nv):
    """Length of R/I for an Artinian affine ideal: the size of the
    certified basis of certified_algebra."""
    return len(certified_algebra(gens, nv)[0])


def graded_hilbert(gens, nv, upto):
    """Graded Hilbert function of homogeneous affine generators: for them
    the codimension at degree bound d is h(0) + ... + h(d)."""
    if any(len({sum(e) for e in g}) > 1 for g in gens):
        raise VerificationFailure("graded_hilbert needs homogeneous input")
    codims = [0] + [len(_level(gens, nv, d)[2]) for d in range(upto + 1)]
    return tuple(b - a for a, b in zip(codims, codims[1:]))


def affine_support_count(gens, nv):
    """Distinct points of an Artinian affine scheme: the trace-form rank on
    the multiplication matrices of certified_algebra."""
    basis, mats = certified_algebra(gens, nv)
    return distinct_point_count(mats, basis)


# --------------------------------------------------------------------------
# the (1,3,3) smoothing
# --------------------------------------------------------------------------


def _clause(name, ok, detail=""):
    return {"name": name, "pass": bool(ok), "detail": detail}


def _report(clauses, strict=False):
    """The verdict on a list of clauses; with `strict`, a failed clause raises."""
    report = {"clauses": clauses, "pass": all(c["pass"] for c in clauses)}
    if strict and not report["pass"]:
        bad = next(c for c in clauses if not c["pass"])
        raise VerificationFailure(f"clause {bad['name']} failed: {bad['detail']}")
    return report


def verify_smoothing_133(lam, t, strict=False):
    """Check the length-7 smoothing of the (1,3,3) algebra at (lam, t)."""
    lam = lam if isinstance(lam, Scalar) else Scalar(lam)
    t = t if isinstance(t, Scalar) else Scalar(t)
    if not lam or not (lam**3 + ONE):
        raise InvalidParameters("need lambda nonzero with 1 + lambda^3 != 0")
    nv = 3
    unit = ONE / (lam**3 + ONE)

    def gens_at(tval):
        x, y, z = (avar(nv, i) for i in range(3))
        return [
            aadd(amul(y, y), ascale(amul(x, z), lam)),
            aadd(amul(z, z), ascale(amul(x, y), lam)),
            aadd(amul(x, x), ascale(amul(y, z), lam), ascale(x, tval)),
            aadd(amul(x, amul(y, z)), ascale(amul(x, x), lam * lam * tval * unit)),
        ]

    gens = gens_at(t)
    clauses = []
    pts = [(ZERO, ZERO, ZERO)]
    for j in (ONE, W, W * W):
        pts.append((-t * unit, lam * t * unit * j, lam * t * unit * j * j))
    ok = all(not aeval(g, p) for g in gens for p in pts)
    clauses.append(_clause("four-points-vanish", ok))
    jac_ok = True
    if t:
        for p in pts[1:]:
            jac = [[aeval(adiff(g, i), p) for i in range(3)] for g in gens]
            if linalg.rank(jac) != 3:
                jac_ok = False
    clauses.append(_clause("non-origin-points-simple", jac_ok))
    length = stabilized_length(gens, nv)
    clauses.append(_clause("affine-length-7", length == 7, f"length={length}"))
    hf = graded_hilbert(gens_at(ZERO), nv, 3)
    clauses.append(_clause("graded-hf-1330-at-t0", hf == (1, 3, 3, 0), f"hf={hf}"))
    return _report(clauses, strict)


# --------------------------------------------------------------------------
# the (1,r,2) pencils
# --------------------------------------------------------------------------


def _check_params(r, lambdas):
    lambdas = [v if isinstance(v, Scalar) else Scalar(v) for v in lambdas]
    if r < 4 or len(lambdas) != r - 3:
        raise InvalidParameters("need r >= 4 and lambdas for indices 4..r")
    if any(not v for v in lambdas) or len(set((v.a, v.b) for v in lambdas)) != len(lambdas):
        raise InvalidParameters("lambdas must be nonzero and pairwise distinct")
    return lambdas


def _generators_1r2(r, lam, t=ZERO):
    """Named ideal generators of the (1,r,2) algebra; h_r deformed by t*X_r."""
    nv = r
    gens = []
    names = []
    for i, j in combinations(range(r), 2):
        gens.append(amul(avar(nv, i), avar(nv, j)))
        names.append(f"X{i + 1}X{j + 1}")
    sq = [amul(avar(nv, i), avar(nv, i)) for i in range(r)]
    h = aadd(sq[2], ascale(sq[0], Scalar(-1)), ascale(sq[1], Scalar(-1)))
    gens.append(h)
    names.append("h")
    for k in range(4, r + 1):
        hi = aadd(sq[k - 1], ascale(sq[0], Scalar(-1)), ascale(sq[1], -lam[k - 4]))
        if k == r and t:
            hi = aadd(hi, ascale(avar(nv, r - 1), t))
        gens.append(hi)
        names.append(f"h{k}")
    return names, gens


def _printed_relations(r, lam):
    """The listed degree-1 relations, as {generator name: linear coefficient}.

    Coefficients are recorded exactly as printed; validation happens later.
    """
    nv = r
    x = [avar(nv, i) for i in range(r)]
    rels = []
    for i in range(4, r + 1):
        li = lam[i - 4]
        xi = x[i - 1]
        rels.append((f"e_1{i}", {
            f"h{i}": x[0],
            "h": ascale(x[0], Scalar(-1)),
            f"X1X{i}": ascale(xi, Scalar(-1)),
            "X1X3": x[2],
            "X1X2": ascale(x[1], ONE - li),
        }))
        rels.append((f"e_2{i}", {
            f"h{i}": x[1],
            "h": ascale(x[1], -li),
            f"X2X{i}": ascale(xi, Scalar(-1)),
            "X2X3": ascale(x[2], li),
            "X1X2": ascale(x[0], ONE - li),
        }))
        rels.append((f"e_3{i}", {
            "h": xi,
            "X1X3": x[2],  # printed as X3*(X3X1)
            f"X1X{i}": x[0],
            f"X2X{i}": x[1],
        }))
        for s in range(4, r + 1):
            if s == i:
                continue
            a, b = sorted((s, i))
            rels.append((f"e_{s}{i}", {
                f"h{i}": x[s - 1],
                f"X1X{s}": x[0],
                "X1X2": x[1],  # printed as X2*(X2X1)
                f"X{a}X{b}": ascale(xi, Scalar(-1)),
            }))
    for i, j in combinations(range(1, r + 1), 2):
        for k in range(1, r + 1):
            if k in (i, j):
                continue
            a1, b1 = sorted((i, j))
            a2, b2 = sorted((k, i))
            rels.append((f"e_{k}{i}{j}", {
                f"X{a1}X{b1}": x[k - 1],
                f"X{a2}X{b2}": ascale(x[j - 1], Scalar(-1)),
            }))
    return rels


def _residual(rel, names, gens):
    by_name = dict(zip(names, gens))
    out = {}
    for name, coeff in rel.items():
        out = aadd(out, amul(coeff, by_name[name]))
    return out


def _lin_coords(p, nv):
    vec = []
    for i in range(nv):
        e = tuple(1 if j == i else 0 for j in range(nv))
        vec.append(p.get(e, ZERO))
    return vec


class _Syzygies(NamedTuple):
    """Degree-1 syzygies among the quadratic-monomial generators X_iX_j.

    Column (n, v) of `matrix` holds the coefficients of x_v * n over the
    cubic monomials.  It is a 0/1 matrix that depends only on r, so
    build_1r2 builds it, its kernel and the kernel's Gram matrix once and
    every misprinted relation reuses them.
    """

    free: list  # the generator names n, in column order
    index: dict  # cubic monomial -> row
    matrix: list
    kernel: list  # sparse vectors {column: Scalar}
    gram: list


def _multiples_matrix(gens, nv):
    """Rows over the cubic monomials, one column per (generator, variable)
    pair, generator-major: the coefficients of x_v * g."""
    deg3 = [e for e in monomials_upto(nv, 3) if sum(e) == 3]
    index = {e: i for i, e in enumerate(deg3)}
    cols = [_coeff_row(amul(avar(nv, v), g), index) for g in gens for v in range(nv)]
    return index, [list(row) for row in zip(*cols)]


def _quadratic_syzygies(names, gens, nv):
    free = [n for n in names if not n.startswith("h")]
    by_name = dict(zip(names, gens))
    index, matrix = _multiples_matrix([by_name[n] for n in free], nv)
    kernel = [
        {j: x for j, x in enumerate(v) if x}
        for v in linalg.kernel_basis(matrix, len(free) * nv)
    ]
    gram = [
        [sum((x * b[j] for j, x in a.items() if j in b), ZERO) for b in kernel] for a in kernel
    ]
    return _Syzygies(free, index, matrix, kernel, gram)


def _correct_relation(rel, names, gens, nv, syz):
    """Closest exact syzygy with the printed h-part pinned.

    The coefficients of the quadratic-monomial generators are solved for
    (the printed misprints can move support between those generators), and
    the solution nearest to the printed coefficients is selected.  `syz` is
    the _Syzygies of the generators.  Returns (corrected relation, list of
    (generator, printed, corrected)) or (None, None) when no syzygy with the
    pinned h-part exists.
    """
    by_name = dict(zip(names, gens))
    pinned = {n: c for n, c in rel.items() if n.startswith("h")}
    rhs_poly = {}
    for n, c in pinned.items():
        rhs_poly = aadd(rhs_poly, amul(c, by_name[n]))
    rhs = [ZERO] * len(syz.index)
    for e, c in rhs_poly.items():
        rhs[syz.index[e]] = -c
    try:
        particular = linalg.solve(syz.matrix, rhs)
    except InconsistentSystem:
        return None, None
    printed_vec = []
    for n in syz.free:
        printed_vec.extend(_lin_coords(rel.get(n, {}), nv))
    diff = [p - q for p, q in zip(printed_vec, particular)]
    if syz.kernel:
        b = [sum((diff[j] * x for j, x in k.items()), ZERO) for k in syz.kernel]
        coeffs = linalg.solve(syz.gram, b)
        for c, k in zip(coeffs, syz.kernel):
            for j, x in k.items():
                particular[j] = particular[j] + c * x
    corrected = dict(pinned)
    changes = []
    for gi, n in enumerate(syz.free):
        coords = particular[gi * nv : (gi + 1) * nv]
        poly = aadd(*[avar(nv, v, coords[v]) for v in range(nv)])
        if poly:
            corrected[n] = poly
        if coords != _lin_coords(rel.get(n, {}), nv):
            changes.append((n, _lin_coords(rel.get(n, {}), nv), coords))
    return corrected, changes


def build_1r2(r, lambdas):
    """The (1,r,2) pencil structure: forms, ideal, validated relations."""
    lam = _check_params(r, lambdas)
    nv = r
    sq = [amul(avar(nv, i), avar(nv, i)) for i in range(r)]
    f = aadd(sq[0], *sq[2:])
    g = aadd(sq[1], sq[2], *[ascale(sq[i + 3], lam[i]) for i in range(r - 3)])
    names, gens = _generators_1r2(r, lam)
    syz = _quadratic_syzygies(names, gens, nv)
    relations = []
    for name, rel in _printed_relations(r, lam):
        res = _residual(rel, names, gens)
        if not res:
            relations.append({"name": name, "printed_ok": True, "relation": rel, "changes": []})
            continue
        corrected, changes = _correct_relation(rel, names, gens, nv, syz)
        if corrected is None:
            raise VerificationFailure(f"no syzygy with the support of {name}")
        if _residual(corrected, names, gens):
            raise VerificationFailure(f"the corrected {name} is not a syzygy")
        relations.append(
            {"name": name, "printed_ok": False, "relation": corrected, "changes": changes}
        )
    _index, mat = _multiples_matrix(gens, nv)
    syzygy_dim = len(gens) * nv - linalg.rank(mat)
    return {
        "f": f,
        "g": g,
        "names": names,
        "generators": gens,
        "relations": relations,
        "syzygy_dim": syzygy_dim,
        "syzygy_formula": (r**3 - 7 * r) // 3,
    }


def verify_deformation_1r2(r, lambdas, t, strict=False):
    """Check that the (1,r,2) relations extend along h_r -> h_r + t*X_r and
    that the total length r+3 is conserved."""
    lam = _check_params(r, lambdas)
    t = t if isinstance(t, Scalar) else Scalar(t)
    nv = r
    built = build_1r2(r, lambdas)
    names, gens_t = _generators_1r2(r, lam, t)
    clauses = []
    bad = []
    for entry in built["relations"]:
        rel = dict(entry["relation"])
        name = entry["name"]
        if f"h{r}" in rel:
            # modified relations: the -X_r coefficient of the (X_? X_r)
            # generator becomes -(X_r + t)
            for gname, coeff in list(rel.items()):
                if gname.startswith("X") and gname.endswith(f"X{r}"):
                    vec = _lin_coords(coeff, nv)
                    if vec[r - 1]:
                        rel[gname] = aadd(coeff, {(0,) * nv: vec[r - 1] * t})
        if _residual(rel, names, gens_t):
            bad.append(name)
    clauses.append(_clause("relations-extend", not bad, f"failed: {bad}"))
    basis_t, mats_t = certified_algebra(gens_t, nv)
    len_t = len(basis_t)
    _n0, gens_0 = _generators_1r2(r, lam, ZERO)
    # gens_0 is homogeneous, so h(3) = 0 puts every cubic monomial, and with
    # it every monomial of higher degree, in the ideal: the length is then
    # h(0) + ... + h(3).  Otherwise the length is not read here (None).
    hf0 = graded_hilbert(gens_0, nv, 3)
    len_0 = sum(hf0) if hf0[3] == 0 else None
    clauses.append(
        _clause("length-conserved", len_0 == len_t == r + 3, f"t=0: {len_0}, t!=0: {len_t}")
    )
    clauses.append(_clause("graded-hf-at-t0", hf0 == (1, r, 2, 0), f"hf={hf0}"))
    if t:
        support = distinct_point_count(mats_t, basis_t)
        clauses.append(_clause("support-count-2", support == 2, f"support={support}"))
    return _report(clauses, strict)
