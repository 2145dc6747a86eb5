import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conet import classify, linalg
from conet.classify import (
    EXPECTED_DUALS,
    classify_net,
    classify_pencil,
    dual_pairs_check,
    verify_family,
)
from conet.cubics import classify_cubic, hesse_net
from conet.deform import verify_deformation_1r2
from conet.errors import FamilyMismatch, InconsistentConfiguration, NotThreeDimensional
from conet.forms import HForm, parse_form
from conet.golden import (
    BASE_POINT_FREE,
    NET_FAMILIES,
    ORBIT_DIMENSIONS,
    PENCIL_FAMILIES,
    family_samples,
    net_corpus,
    pencil_corpus,
)
from conet.scalar import W, ZERO, Scalar
from conet.spaces import LinearSystem, discriminant_cubic, minor_forms, orthogonal_complement


def random_g(rng):
    while True:
        g = [[Scalar(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        if linalg.det(g) != ZERO:
            return g


def test_pencil_corpus_labels():
    for label, pencil in pencil_corpus().items():
        assert classify_pencil(pencil) == label


def test_net_corpus_labels_and_invariants():
    for label, net in net_corpus().items():
        rep = classify_net(net)
        assert rep.orbit == label
        assert rep.orbit_dim == ORBIT_DIMENSIONS[label]
        assert rep.dual == EXPECTED_DUALS[label]
        assert (rep.scheme_length == 0) == (label in BASE_POINT_FREE)


def test_classification_invariant_under_coordinates():
    rng = random.Random(7)
    for label, net in net_corpus().items():
        rep = classify_net(net.substitute(random_g(rng)))
        assert rep.orbit == label


def test_no_random_draws(monkeypatch):
    # sympy builds its own generator when it is first imported
    import sympy  # noqa: F401

    def refuse(*_args, **_kwargs):
        raise AssertionError("random.Random was called")

    monkeypatch.setattr(random, "Random", refuse)
    corpus = net_corpus()
    assert [classify_net(corpus[label]).orbit for label in ("6a", "6d", "7c")] == ["6a", "6d", "7c"]
    assert classify_cubic(parse_form("X*Y*Z")).kind == "Triangle"
    assert classify_cubic(parse_form("X*(X^2+Y^2-Z^2)")).kind == "ConicSecant"
    assert verify_deformation_1r2(4, [2], 1)["pass"]


def test_hesse_special_values():
    assert classify_net(hesse_net(Scalar(-1))).orbit == "6a"
    assert classify_net(hesse_net(-W)).orbit == "6a"
    assert classify_net(hesse_net(ZERO)).orbit == "6d"
    assert classify_net(hesse_net(Scalar(2))).orbit == "6d"
    assert classify_net(hesse_net(Scalar(5))).orbit == "8b"


def test_not_a_net():
    with pytest.raises(NotThreeDimensional):
        classify_net(LinearSystem([parse_form("X^2"), parse_form("Y^2")]))


def test_dual_pairs_check():
    dual_pairs_check(net_corpus())


def test_hesse_key_duality():
    for lam in (Scalar(1), Scalar(3), Scalar(-2)):
        rep = classify_net(hesse_net(lam))
        comp = classify_net(orthogonal_complement(hesse_net(lam)))
        expect = classify_net(hesse_net(Scalar(-2) / lam))
        assert comp.key == expect.key
        assert rep.orbit == comp.orbit == "8b"


def test_verify_family_passes():
    spec = PENCIL_FAMILIES[0]
    report = verify_family(spec, family_samples(spec))
    assert report["pass"]


def test_verify_family_strict_raises_on_wrong_expectation():
    spec = PENCIL_FAMILIES[0].__class__(
        name="broken",
        kind="pencil",
        param=PENCIL_FAMILIES[0].param,
        generators=PENCIL_FAMILIES[0].generators,
        expected_generic="h",
        expected_special="g",
        excluded=PENCIL_FAMILIES[0].excluded,
    )
    with pytest.raises(FamilyMismatch):
        verify_family(spec, family_samples(spec), strict=True)


def test_net_report_json_shape():
    rep = classify_net(net_corpus()["6d"]).to_json()
    assert set(rep) >= {
        "orbit",
        "gamma",
        "delta_support",
        "orbit_dim",
        "scheme_length",
        "dual",
        "preimage_dim",
    }
    assert rep["orbit"] == "6d"
    assert rep["scheme_length"] == 0


def test_j_constant_family_keys_equal():
    spec = next(s for s in NET_FAMILIES if s.j_constant)
    report = verify_family(spec, family_samples(spec))
    assert report["pass"] and report["keys_equal"]


small = st.integers(min_value=-3, max_value=3)
qw_entries = st.one_of(st.just(ZERO), st.builds(Scalar, small, small))
conics = st.lists(qw_entries, min_size=6, max_size=6).map(lambda v: HForm.from_coeff_vector(2, v))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(conics, min_size=3, max_size=3))
def test_discriminant_partials_lie_in_span_of_minors(forms):
    net = LinearSystem(forms)
    assume(net.dimension == 3)
    span = LinearSystem(minor_forms(net))
    gamma = discriminant_cubic(net)
    assert all(span.contains(gamma.diff(k)) for k in range(3))


def test_partial_outside_span_of_minors_is_inconsistent(monkeypatch):
    # the minors of the net with its generators rotated cut out the same
    # number of points, but do not span the partials of its discriminant
    def rotated_minors(net):
        f = net.forms
        return minor_forms(LinearSystem([f[1], f[2], f[0]]))

    monkeypatch.setattr(classify, "minor_forms", rotated_minors)
    with pytest.raises(InconsistentConfiguration):
        classify_net(net_corpus()["7b"])
