import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conet import linalg
from conet.errors import InvalidInput
from conet.forms import (
    CONIC_MONOMIALS,
    HForm,
    conic_matrix,
    eliminate,
    monomial_order,
    parse_form,
)
from conet.scalar import ONE, W, ZERO, Scalar

small = st.integers(min_value=-9, max_value=9)
entries = st.builds(Scalar, small, small)


def conics():
    return st.lists(entries, min_size=6, max_size=6).map(
        lambda v: HForm(2, dict(zip(CONIC_MONOMIALS, v)))
    )


def invertible():
    def build(seed):
        rng = random.Random(seed)
        while True:
            g = [[Scalar(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)]
            if linalg.det(g) != ZERO:
                return g

    return st.integers(min_value=0, max_value=10**6).map(build)


def test_parse_basics():
    f = parse_form("X^2+2*Y*Z")
    assert f.degree == 2
    assert f.coeffs == {(2, 0, 0): ONE, (0, 1, 1): Scalar(2)}
    g = parse_form("(X-Y)*(X+Y)")
    assert g == parse_form("X^2-Y^2")


def test_parse_omega_and_params():
    f = parse_form("w*X^2 - 1/2*Z^2")
    assert f.coeffs[(2, 0, 0)] == W
    g = parse_form("X^2 + m*Y*Z", params={"m": Scalar(7)})
    assert g.coeffs[(0, 1, 1)] == Scalar(7)


def test_parse_other_vars():
    f = parse_form("A*B*C - A^3", vars=("A", "B", "C"))
    assert f.coeffs[(1, 1, 1)] == ONE


def test_parse_garbage():
    for text in ("", "X^", "X+*Y", "Q^2", "(X"):
        with pytest.raises(InvalidInput):
            parse_form(text)


def test_monomial_order_conics():
    assert monomial_order(2) == list(CONIC_MONOMIALS)


def test_conic_matrix_round_trip():
    f = parse_form("X^2+3*X*Y+5*Y*Z+Z^2")
    m = conic_matrix(f)
    assert m[0][1] == Scalar(3) / Scalar(2)


def test_conic_det():
    f = parse_form("X*Y")
    assert linalg.det(conic_matrix(f)) == ZERO  # rank 2
    g = parse_form("X^2+Y^2+Z^2")
    assert linalg.det(conic_matrix(g)) == ONE


def test_diff_and_eval():
    f = parse_form("X^3+X*Y*Z")
    fx = f.diff(0)
    assert fx == parse_form("3*X^2+Y*Z")
    assert f.eval([ONE, ONE, ONE]) == Scalar(2)


def test_eliminate_resultant():
    # X^2 - Z^2 and XY share the zero (0,1,0) and (1,0,±1) fibres in (X,Y)
    f = parse_form("X^2-Z^2")
    g = parse_form("X*Z")
    r = eliminate(f, g, 2)
    # resultant in Z: vanishes exactly on the common projections
    assert r.eval([ZERO, ONE, ZERO]) == ZERO
    assert r.eval([ONE, ONE, ZERO]) != ZERO


@settings(max_examples=25, deadline=None)
@given(conics())
def test_emit_parse_round_trip(f):
    if f.is_zero():
        return
    assert parse_form(str(f)) == f


@settings(max_examples=10, deadline=None)
@given(conics(), invertible(), invertible())
def test_substitute_composition(f, g, h):
    gh = linalg.mat_mul(g, h)
    assert f.substitute(gh) == f.substitute(g).substitute(h)


@settings(max_examples=10, deadline=None)
@given(conics(), invertible())
def test_det_transforms_by_square(f, g):
    lhs = linalg.det(conic_matrix(f.substitute(g)))
    rhs = linalg.det(conic_matrix(f)) * linalg.det(g) ** 2
    assert lhs == rhs
