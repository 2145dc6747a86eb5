import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conet import linalg
from conet.cubics import (
    _hessian_matrix,
    _polar_det,
    apolar_generators,
    aronhold,
    classify_cubic,
    cubic_orbit_dimension,
    hesse_cubic,
    hesse_j,
    hesse_net,
    hesse_pencil_facts,
    hessian_cubic,
    jacobian_net,
    jacobian_preimage,
    preimage_dimension,
)
from conet.forms import HForm, form_det3, parse_form
from conet.scalar import ONE, W, ZERO, Scalar
from conet.spaces import LinearSystem

SINGULAR_EXAMPLES = {
    "Node": "X^3+Y^3+X*Y*Z",
    "Cusp": "X^3+Y^2*Z",
    "ConicTangent": "Y*(X^2+Y*Z)",
    "ConicSecant": "Z*(X^2+Y^2-Z^2)",
    "Triangle": "X*Y*Z",
    "ConcurrentLines": "X*Y*(X+Y)",
    "DoubleLinePlusLine": "X^2*Y",
    "TripleLine": "X^3",
}

SMOOTH_EXAMPLES = (
    "X^3+Y^3+Z^3",
    "X^3+Y^3+Z^3-3*X*Y*Z+Y*Z^2",
    "Y^2*Z-X^3+X*Z^2",
    "X^3+Y^3+Z^3+3*X*Y*Z",
    "Y^2*Z-X^3-Z^3",
)


def random_g(rng):
    while True:
        g = [[Scalar(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        if linalg.det(g) != ZERO:
            return g


def test_classify_singular_types():
    for kind, text in SINGULAR_EXAMPLES.items():
        assert classify_cubic(parse_form(text)).kind == kind


def test_classify_smooth():
    for text in SMOOTH_EXAMPLES:
        assert classify_cubic(parse_form(text)).kind == "Smooth"


def test_classification_invariant_under_coordinates():
    rng = random.Random(11)
    for kind, text in list(SINGULAR_EXAMPLES.items())[:4]:
        f = parse_form(text)
        for _ in range(2):
            assert classify_cubic(f.substitute(random_g(rng))).kind == kind


def test_aronhold_covariance():
    rng = random.Random(3)
    f = parse_form("X^3+Y^3+Z^3-2*X*Y*Z")
    rep = aronhold(f)
    for _ in range(5):
        g = random_g(rng)
        d = linalg.det(g)
        rg = aronhold(f.substitute(g))
        assert rg.S == d**4 * rep.S
        assert rg.T == d**6 * rep.T


def test_discriminant_vanishing():
    for text in SINGULAR_EXAMPLES.values():
        assert aronhold(parse_form(text)).disc_zero
    for text in SMOOTH_EXAMPLES:
        assert not aronhold(parse_form(text)).disc_zero


def test_aronhold_on_the_hesse_pencil():
    # absolute values, not only up to scale
    for lam in (ZERO, ONE, -ONE, Scalar(3), Scalar(Fraction(2, 7)), Scalar(2, 1)):
        rep = aronhold(hesse_cubic(lam))
        assert rep.S == Scalar(-12) * lam + Scalar(Fraction(3, 2)) * lam**4
        assert rep.T == Scalar(-864) + Scalar(2160) * lam**3 + Scalar(108) * lam**6


small = st.integers(min_value=-3, max_value=3)
qw_entries = st.one_of(
    st.just(ZERO),
    st.builds(Scalar, small, small),
    st.builds(lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)), small, small, st.integers(1, 4)),
)
dense_cubics = st.lists(qw_entries, min_size=10, max_size=10).map(
    lambda v: HForm.from_coeff_vector(3, v)
)
# binary cubics in X, Y pulled back along any matrix: cones, H = 0
cones = st.builds(
    lambda v, g: HForm(3, {(3 - k, k, 0): c for k, c in enumerate(v)}).substitute(g),
    st.lists(qw_entries, min_size=4, max_size=4),
    st.lists(st.lists(qw_entries, min_size=3, max_size=3), min_size=3, max_size=3),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(dense_cubics, cones))
def test_polarized_hessian_identities(f):
    assume(f)
    rep = aronhold(f)
    a = _hessian_matrix(f)
    h = form_det3(a)
    b = _hessian_matrix(h)
    assert _polar_det(a, b) == f.scale(Scalar(648) * rep.S)
    assert _polar_det(b, a) == f.scale(Scalar(324) * rep.T) - h.scale(Scalar(648) * rep.S)


def test_key_separates_harmonic_and_equianharmonic():
    # S = 0 for the Fermat cubic, T = 0 for the harmonic one
    fermat = aronhold(parse_form("X^3+Y^3+Z^3"))
    assert fermat.key == (Scalar(0), Scalar(0)) or fermat.S == ZERO
    hesse1 = aronhold(hesse_cubic(ONE))
    assert hesse1.key[0] == ONE


def test_hesse_j_values():
    assert hesse_j(ONE) == Scalar(Fraction(-343, 216))
    assert hesse_j(Scalar(-1)) is None
    assert hesse_j(ZERO) == ZERO


def test_hessian_of_hesse_cubic():
    # Hess(X^3+Y^3+Z^3+3lam XYZ) is again a Hesse cubic with parameter
    # -(4+lam^3)/(3 lam^2) after normalizing the X^3 coefficient
    for lam in (Scalar(1), Scalar(3), Scalar(-2)):
        h = hessian_cubic(hesse_cubic(lam)).normalized()
        lam2 = -(Scalar(4) + lam**3) / (Scalar(3) * lam**2)
        assert h == hesse_cubic(lam2).normalized()


def test_jacobian_net_of_triangle():
    assert jacobian_net(parse_form("X*Y*Z")) == LinearSystem(
        [parse_form("Y*Z"), parse_form("X*Z"), parse_form("X*Y")]
    )


def test_jacobian_preimage_dimensions():
    net = LinearSystem([parse_form(s) for s in ("Y*Z", "X*Z", "X*Y")])
    pre = jacobian_preimage(net)
    assert pre.dimension == 1
    assert pre.forms[0].normalized() == parse_form("X*Y*Z")
    squares = LinearSystem([parse_form(s) for s in ("X^2", "Y^2", "Z^2")])
    assert preimage_dimension(squares) == 3


def test_hesse_net_classification_parameters():
    facts = hesse_pencil_facts()
    assert len(facts["inflections"]) == 9
    assert len(facts["singular_members"]) == 4


def test_apolar_generator_counts():
    assert apolar_generators(parse_form("X*Y*Z")) == {2: 3}
    assert apolar_generators(parse_form("X^3+Y^3+Z^3")) == {2: 3, 3: 2}
    assert apolar_generators(parse_form("X^3+Y^2*Z")) == {2: 3, 3: 2}


def test_cubic_orbit_dimensions():
    assert cubic_orbit_dimension(parse_form("X^3+Y^3+Z^3+3*X*Y*Z")) == 8
    assert cubic_orbit_dimension(parse_form("X^3+Y^3+X*Y*Z")) == 8
    assert cubic_orbit_dimension(parse_form("X^3+Y^2*Z")) == 7
    assert cubic_orbit_dimension(parse_form("X*Y*Z")) == 6
    assert cubic_orbit_dimension(parse_form("X^2*Y")) == 4
    assert cubic_orbit_dimension(parse_form("X^3")) == 2
