"""Orbit classification of pencils and nets of conics, duality checks, and
one-parameter specialization-family verification."""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import (
    DualityMismatch,
    FamilyMismatch,
    InconsistentConfiguration,
    InvalidInput,
)
from .forms import conic_matrix, parse_form
from .scalar import ZERO, Scalar
from .spaces import (
    LinearSystem,
    adjugate_entries,
    assert_net,
    discriminant_cubic,
    graded_quotient_report,
    matrix_pencil,
    minor_forms,
    orbit_dimension,
    orthogonal_complement,
    pencil_determinant,
    support_count,
)
from .cubics import (
    aronhold,
    classify_cubic,
    cubic_orbit_dimension,
    jacobian_preimage,
)
from .upoly import binary_pattern, distinct_root_count, pgcd, repeated_binary_root, trim


def classify_pencil(pencil):
    """Table-2 type (a-h) of a 2-dimensional system of conics."""
    if pencil.degree != 2 or len(pencil.forms) != 2 or pencil.dimension != 2:
        raise InvalidInput("expected two conics spanning a pencil")
    d = pencil_determinant(pencil)
    if any(d):
        pattern = binary_pattern(d, 3)
        if pattern == [1, 1, 1]:
            return "a"
        s0, t0 = repeated_binary_root(d, 3)
        member = pencil.forms[0].scale(s0) + pencil.forms[1].scale(t0)
        r = linalg.rank(conic_matrix(member))
        if pattern == [2, 1]:
            return "b" if r == 2 else "c"
        return "d" if r == 2 else "e"
    minors = [
        trim([q.coeff((k, 2 - k, 0)) for k in range(3)])
        for q in adjugate_entries(matrix_pencil(pencil))
    ]
    nonzero = [q for q in minors if q]
    assert nonzero, "a pencil cannot consist of rank-one conics"
    g = nonzero[0]
    for q in nonzero[1:]:
        g = pgcd(g, q)
    count = distinct_root_count(g)
    if all(len(q) - 1 < 2 for q in nonzero):
        count += 1
    return {0: "f", 1: "g", 2: "h"}[count]


_NET_TABLE = {
    ("Smooth", 0): "8b",
    ("Node", 0): "8a",
    ("Node", 1): "8c",
    ("Cusp", 1): "7b",
    ("ConicSecant", 0): "7a",
    ("ConicSecant", 2): "7c",
    ("ConicTangent", 1): "6b",
    ("Triangle", 0): "6a",
    ("Triangle", 3): "6d",
    ("DoubleLinePlusLine", 1): "5a",
    ("TripleLine", 1): "4",
}


@dataclass(frozen=True)
class NetReport:
    orbit: str
    gamma: object  # CubicType of the discriminant cubic
    delta_support: object  # int, or None for a 1-dimensional locus
    orbit_dim: int
    scheme_length: object  # int, or None for infinite
    dual: str
    preimage_dim: int
    key: tuple = None

    def to_json(self):
        out = {
            "orbit": self.orbit,
            "gamma": self.gamma.kind,
            "delta_support": "dim1" if self.delta_support is None else self.delta_support,
            "orbit_dim": self.orbit_dim,
            "scheme_length": "infinite" if self.scheme_length is None else self.scheme_length,
            "dual": self.dual,
            "preimage_dim": self.preimage_dim,
        }
        if self.key is not None:
            out["key"] = [str(c) for c in self.key]
        return out


def _net_label_and_gamma(net):
    assert_net(net)
    gamma = discriminant_cubic(net)
    gtype = classify_cubic(gamma)
    minors = minor_forms(net)
    delta_report = graded_quotient_report(minors)
    if delta_report.dimension == 1:
        delta = None
    elif delta_report.length == 0:
        delta = 0
    else:
        delta = support_count(minors, delta_report)
    if gtype.kind == "Zero":
        if delta_report.dimension == 1:
            return "2b", gtype, delta
        return "2a", gtype, delta
    if delta is None:
        raise InconsistentConfiguration("positive-dimensional rank-one locus with nonzero discriminant")
    if gtype.kind == "ConcurrentLines":
        raise InconsistentConfiguration("discriminant consisting of concurrent lines")
    if delta:
        # Jacobi's formula d(det M) = tr(adj(M) dM) makes each partial of the
        # discriminant a combination of the minors, so it vanishes at every
        # rank-one point over the algebraic closure.
        span = LinearSystem(minors)
        for i in range(3):
            if not span.contains(gamma.diff(i)):
                raise InconsistentConfiguration(
                    f"d/d{gamma.vars[i]} of the discriminant is not in the span of the minors"
                )
    if (gtype.kind, delta) == ("DoubleLinePlusLine", 2):
        dim = orbit_dimension(net)
        if dim == 6:
            return "6c", gtype, delta
        if dim == 5:
            return "5b", gtype, delta
        raise InconsistentConfiguration(f"double-line discriminant with orbit dim {dim}")
    label = _NET_TABLE.get((gtype.kind, delta))
    if label is None:
        raise InconsistentConfiguration(f"({gtype.kind}, {delta}) matches no orbit")
    return label, gtype, delta


def classify_net(net):
    """Full orbit report of a net of conics.  On 8b the key is the Aronhold
    key of the net's one Jacobian-preimage cubic."""
    label, gtype, delta = _net_label_and_gamma(net)
    pre = jacobian_preimage(net)
    key = None
    if label == "8b":
        if pre.dimension != 1:
            raise InconsistentConfiguration("smooth discriminant without a unique preimage cubic")
        key = aronhold(pre.canonical_forms()[0]).key
    base = graded_quotient_report(net.forms)
    length = None if base.dimension == 1 else base.length
    dual_net = orthogonal_complement(net)
    dual_label, _g, _d = _net_label_and_gamma(dual_net)
    return NetReport(
        orbit=label,
        gamma=gtype,
        delta_support=delta,
        orbit_dim=orbit_dimension(net),
        scheme_length=length,
        dual=dual_label,
        preimage_dim=pre.dimension,
        key=key,
    )


EXPECTED_DUALS = {
    "8a": "8c",
    "8b": "8b",
    "8c": "8a",
    "7a": "7c",
    "7b": "7b",
    "7c": "7a",
    "6a": "6d",
    "6b": "6c",
    "6c": "6b",
    "6d": "6a",
    "5a": "5b",
    "5b": "5a",
    "4": "4",
    "2a": "2b",
    "2b": "2a",
}


def dual_pairs_check(corpus):
    """Classify the orthogonal complement of each normal form and check the
    expected involution.  corpus: mapping label -> LinearSystem."""
    out = []
    for label, net in corpus.items():
        got, _g, _d = _net_label_and_gamma(orthogonal_complement(net))
        if got != EXPECTED_DUALS[label]:
            raise DualityMismatch(f"dual of {label} classified as {got}")
        out.append((label, got))
    return out


@dataclass(frozen=True)
class FamilySpec:
    """A one-parameter family of pencils, nets, or cubics."""

    name: str
    kind: str  # pencil | net | cubic
    param: str
    generators: tuple
    expected_generic: str
    expected_special: str
    special_value: Scalar = ZERO
    excluded: tuple = ()
    j_constant: bool = False

    def build(self, value):
        forms = [
            parse_form(g, params={self.param: value}) for g in self.generators
        ]
        if self.kind == "cubic":
            return forms[0]
        return LinearSystem(forms)


def _measurements(spec, value):
    """(label, orbit dimension, base/singular length with None = infinite)."""
    obj = spec.build(value)
    if spec.kind == "pencil":
        label = classify_pencil(obj)
        report = graded_quotient_report(obj.forms)
        length = None if report.dimension == 1 else report.length
        return label, orbit_dimension(obj), length, None
    if spec.kind == "net":
        rep = classify_net(obj)
        return rep.orbit, rep.orbit_dim, rep.scheme_length, rep.key
    ctype = classify_cubic(obj)
    sing = graded_quotient_report([obj.diff(i) for i in range(3)])
    length = None if sing.dimension == 1 else sing.length
    return ctype.kind, cubic_orbit_dimension(obj), length, ctype.key


def verify_family(spec, samples, strict=False):
    """Classify a family at generic samples and at its special value.

    Checks labels, strict orbit-dimension drop, weak length increase, and
    (for j-constant families) equality of keys across the generic samples.
    """
    assert len(samples) >= 3
    problems = []
    generic = []
    keys = []
    for v in samples:
        v = v if isinstance(v, Scalar) else Scalar(v)
        assert v != spec.special_value and v not in spec.excluded
        label, dim, length, key = _measurements(spec, v)
        generic.append((v, label, dim, length))
        keys.append(key)
        if label != spec.expected_generic:
            problems.append(f"sample {v}: got {label}, expected {spec.expected_generic}")
    s_label, s_dim, s_length, _ = _measurements(spec, spec.special_value)
    if s_label != spec.expected_special:
        problems.append(f"special {spec.special_value}: got {s_label}, expected {spec.expected_special}")
    dim_drop_ok = all(s_dim < dim for _v, _l, dim, _len in generic)
    if not dim_drop_ok:
        problems.append(f"orbit dimension did not drop: {s_dim}")

    def as_inf(x):
        return float("inf") if x is None else x

    length_ok = all(as_inf(s_length) >= as_inf(length) for _v, _l, _d, length in generic)
    if not length_ok:
        problems.append("scheme length decreased at the special value")
    keys_ok = True
    if spec.j_constant:
        keys_ok = all(k == keys[0] and k is not None for k in keys)
        if not keys_ok:
            problems.append(f"keys differ across samples: {keys}")
    report = {
        "family": spec.name,
        "pass": not problems,
        "generic_labels": [label for _v, label, _d, _len in generic],
        "special_label": s_label,
        "dim_drop_ok": dim_drop_ok,
        "length_monotone_ok": length_ok,
        "problems": problems,
    }
    if spec.j_constant:
        report["keys_equal"] = keys_ok
    if strict and problems:
        raise FamilyMismatch(f"{spec.name}: {problems[0]}")
    return report
