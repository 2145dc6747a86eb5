import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conet
from conet import linalg
from conet.errors import InvalidInput, NotThreeDimensional
from conet.forms import HForm, monomial_order, parse_form
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


def test_graded_quotient_with_a_high_degree_generator():
    # h = (1, 3, 3, 3, 3, 2, 2, ...): X^5 removes the point (1:0:0) from the
    # three coordinate points only in degree 5, after four equal values
    gens = [parse_form(s) for s in ("X*Y", "X*Z", "Y*Z", "X^5")]
    rep = graded_quotient_report(gens)
    assert (rep.dimension, rep.length) == (0, 2)
    assert support_count(gens, rep) == 2


def _standard_monomials(exps, d):
    """Monomials of degree d divisible by none of the exponent tuples."""
    return sum(
        1
        for m in monomial_order(d)
        if not any(all(a >= b for a, b in zip(m, e)) for e in exps)
    )


monomial_exponents = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda e: 1 <= sum(e) <= 3)


@given(st.lists(monomial_exponents, min_size=1, max_size=4, unique=True))
@example([(1, 0, 0), (0, 1, 0), (0, 0, 3)])  # h = (1, 1, 1, 0, ...): empty
@settings(max_examples=200, deadline=None)
def test_graded_quotient_report_on_monomial_ideals(exps):
    # A monomial ideal's Hilbert function counts its standard monomials, and
    # from degree deg lcm(generators) - 2 <= 7 on it is a polynomial in d
    # (inclusion-exclusion over the lcms), so degrees 12 and 13 give the
    # dimension and the length.
    rep = graded_quotient_report([HForm(sum(e), {e: ONE}) for e in exps])
    high, higher = _standard_monomials(exps, 12), _standard_monomials(exps, 13)
    if high == higher:
        assert (rep.dimension, rep.length) == (0, high)
    else:
        assert (rep.dimension, rep.length) == (1, None)


def test_support_count_rejects_a_curve():
    with pytest.raises(InvalidInput):
        support_count([parse_form("X^2"), parse_form("X*Y")])


def test_support_count_rejects_a_curve_without_asserts():
    # the check must survive python -O, which strips assert statements
    code = (
        "from conet.errors import InvalidInput\n"
        "from conet.forms import parse_form\n"
        "from conet.spaces import support_count\n"
        "try:\n"
        "    support_count([parse_form('X^2'), parse_form('X*Y')])\n"
        "except InvalidInput:\n"
        "    print('InvalidInput')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(conet.__file__)))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert done.stdout == "InvalidInput\n", done.stderr
