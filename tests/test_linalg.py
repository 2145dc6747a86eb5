import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conet import linalg
from conet.errors import InconsistentSystem
from conet.scalar import ONE, W, ZERO, Scalar

small = st.integers(min_value=-9, max_value=9)
entries = st.builds(Scalar, small, small)


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
mixed = st.one_of(st.just(ZERO), st.builds(Scalar, fracs), st.builds(Scalar, fracs, fracs))


def mat(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def test_rank_examples():
    assert linalg.rank([[ONE, ZERO], [ZERO, ONE]]) == 2
    assert linalg.rank([[ONE, ONE], [ONE, ONE]]) == 1
    assert linalg.rank([[ZERO, ZERO]]) == 0
    assert linalg.rank([[W, ONE], [W * W, W]]) == 1


def test_kernel_basis():
    rows = [[ONE, ONE, ZERO]]
    ker = linalg.kernel_basis(rows, 3)
    assert len(ker) == 2
    for v in ker:
        assert v[0] + v[1] == ZERO


def test_solve():
    a = [[ONE, ONE], [ONE, -ONE]]
    x = linalg.solve(a, [Scalar(3), ONE])
    assert x == [Scalar(2), ONE]
    with pytest.raises(InconsistentSystem):
        linalg.solve([[ONE, ZERO], [ONE, ZERO]], [ZERO, ONE])


def test_det_examples():
    assert linalg.det([[Scalar(2)]]) == Scalar(2)
    assert linalg.det([[ONE, ONE], [ONE, ONE]]) == ZERO
    a = [[ONE, Scalar(2), ZERO], [ZERO, W, ONE], [ONE, ZERO, ONE]]
    # cofactor expansion by hand
    assert linalg.det(a) == W + Scalar(2)


def test_char_poly_diagonal():
    a = [[Scalar(2), ZERO], [ZERO, Scalar(3)]]
    # (x-2)(x-3) = 6 - 5x + x^2
    assert linalg.char_poly(a) == [Scalar(6), Scalar(-5), ONE]


@settings(max_examples=30, deadline=None)
@given(mat(3))
def test_cayley_hamilton(a):
    p = linalg.char_poly(a)
    acc = [[ZERO] * 3 for _ in range(3)]
    power = linalg.identity(3)
    for c in p:
        for i in range(3):
            for j in range(3):
                acc[i][j] = acc[i][j] + c * power[i][j]
        power = linalg.mat_mul(power, a)
    assert all(x == ZERO for row in acc for x in row)


@settings(max_examples=30, deadline=None)
@given(mat(3), mat(3))
def test_det_multiplicative(a, b):
    assert linalg.det(linalg.mat_mul(a, b)) == linalg.det(a) * linalg.det(b)


@settings(max_examples=30, deadline=None)
@given(mat(3))
def test_rank_bounds(a):
    r = linalg.rank(a)
    assert 0 <= r <= 3
    assert (r == 3) == (linalg.det(a) != ZERO)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.one_of(st.just([ZERO] * n), st.lists(mixed, min_size=n, max_size=n)),
            min_size=1,
            max_size=5,
        )
    )
)
def test_rank_matches_rref(rows):
    # mixed denominators, w-parts and zero rows through the integer path
    assert linalg.rank(rows) == len(linalg.rref(rows)[0])


mixed_rows = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.one_of(st.just([ZERO] * n), st.lists(mixed, min_size=n, max_size=n)),
        min_size=1,
        max_size=5,
    )
)


def check_rref(rows):
    pivots, rmat = linalg.rref(rows)
    assert len(pivots) == len(rmat)
    for i, (pc, row) in enumerate(zip(pivots, rmat)):
        assert row[pc] == ONE
        assert all(x == ZERO for x in row[:pc])
        assert all(other[pc] == ZERO for k, other in enumerate(rmat) if k != i)
    assert linalg.rank(rows + rmat) == len(rmat) == linalg.rank(rows)
    return pivots


def test_rref_of_w_valued_matrix_with_many_pivots():
    # Clearing above w-valued pivots without first making them integers
    # grows the entries exponentially: this case then took over a minute.
    rng = random.Random(0)
    rows = [[Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(16)] for _ in range(12)]
    assert len(check_rref(rows)) == 12


@settings(max_examples=60, deadline=None)
@given(mixed_rows, st.data())
def test_rref_and_reducer_match_definition(rows, data):
    ncols = len(rows[0])
    pivots = check_rref(rows)

    free, reduce = linalg.reducer(rows, ncols)
    assert free == [c for c in range(ncols) if c not in pivots]
    for row in rows:
        assert all(x == ZERO for x in reduce(row))
    for k, c in enumerate(free):
        unit = [ONE if j == c else ZERO for j in range(ncols)]
        assert reduce(unit) == [ONE if m == k else ZERO for m in range(len(free))]
    vector = st.lists(mixed, min_size=ncols, max_size=ncols)
    u, v, a = data.draw(vector), data.draw(vector), data.draw(mixed)
    combo = [a * x + y for x, y in zip(u, v)]
    assert reduce(combo) == [a * x + y for x, y in zip(reduce(u), reduce(v))]
