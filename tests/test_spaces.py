import random

import pytest

from conet import linalg
from conet.errors import NotThreeDimensional
from conet.forms import parse_form
from conet.scalar import ONE, ZERO, Scalar
from conet.spaces import (
    LinearSystem,
    discriminant_cubic,
    graded_quotient_report,
    orbit_dimension,
    orthogonal_complement,
    pencil_determinant,
    rank_one_report,
    rational_points,
    support_count,
)


def net(*strings):
    return LinearSystem([parse_form(s) for s in strings])


def random_g(rng):
    while True:
        g = [[Scalar(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        if linalg.det(g) != ZERO:
            return g


def test_linear_system_canonical_equality():
    a = net("X^2", "Y^2")
    b = net("X^2+Y^2", "Y^2")
    assert a == b
    assert hash(a) == hash(b)
    assert a.contains(parse_form("3*X^2-Y^2"))
    assert not a.contains(parse_form("X*Y"))


def test_discriminant_8a_example():
    gamma = discriminant_cubic(net("X*Y", "X^2+Y*Z", "Y^2+X*Z"))
    expect = parse_form("B^3+C^3-A*B*C", vars=("A", "B", "C"))
    assert gamma.proportional(expect)


def test_discriminant_zero_for_2a():
    gamma = discriminant_cubic(net("X^2", "X*Y", "X*Z"))
    assert gamma.is_zero()


def test_discriminant_needs_net():
    with pytest.raises(NotThreeDimensional):
        discriminant_cubic(net("X^2", "Y^2"))


def test_pencil_determinant_patterns():
    # four distinct singular members: (1,1,1)
    c = pencil_determinant(net("X^2-Z^2", "Y^2-Z^2"))
    assert len([x for x in c if x != ZERO]) > 1


def test_rank_one_locus_double_line_conic():
    rep = rank_one_report(net("X^2", "Y^2", "(X+Y)^2"))
    assert rep.dimension == 1


def test_rank_one_locus_6d():
    rep = rank_one_report(net("X^2", "Y^2", "Z^2"))
    assert rep.dimension == 0
    assert rep.length == 3


def test_support_count_6d():
    assert support_count(discriminant_minors_6d()) == 3


def test_support_count_points_outside_qw():
    # V(X^2 - 2Z^2, Y) = {(+-sqrt(2) : 0 : 1)}
    assert support_count([parse_form("X^2-2*Z^2"), parse_form("Y")]) == 2


def discriminant_minors_6d():
    from conet.spaces import minor_forms

    return [m for m in minor_forms(net("X^2", "Y^2", "Z^2")) if not m.is_zero()]


def test_rational_points_base_point():
    # the net with base point (0,0,1)
    sys = net("X*Y", "X^2+Y*Z", "Y^2+X*Z")
    pts = rational_points(sys.forms)
    assert pts == [(ZERO, ZERO, ONE)]


def test_graded_quotient_infinite():
    rep = graded_quotient_report([parse_form("X^2"), parse_form("X*Y")])
    assert rep.dimension == 1
    assert rep.length is None


def test_orbit_dimensions():
    assert orbit_dimension(net("X*Y", "X^2+Y*Z", "Y^2+X*Z")) == 8
    assert orbit_dimension(net("X^2", "Y^2", "Z^2")) == 6
    assert orbit_dimension(net("X^2", "X*Y", "X*Z")) == 2


def test_orthogonal_complement_involution():
    rng = random.Random(5)
    base = net("X*Y", "X^2+Y*Z", "Y^2+X*Z")
    for _ in range(5):
        sys = base.substitute(random_g(rng))
        assert orthogonal_complement(orthogonal_complement(sys)) == sys


def test_orthogonal_complement_dimension():
    comp = orthogonal_complement(net("X^2", "Y^2"))
    assert comp.dimension == 4
