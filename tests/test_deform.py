import pytest

from conet import linalg
from conet.deform import (
    _generators_1r2,
    _quadratic_syzygies,
    aadd,
    aeval,
    affine_support_count,
    amul,
    avar,
    build_1r2,
    certified_algebra,
    graded_hilbert,
    stabilized_length,
    verify_deformation_1r2,
    verify_smoothing_133,
)
from conet.errors import InvalidParameters, VerificationFailure
from conet.scalar import ONE, ZERO, Scalar


def test_affine_arithmetic():
    x = avar(2, 0)
    y = avar(2, 1)
    f = aadd(amul(x, x), amul(x, y))
    assert aeval(f, [Scalar(2), Scalar(3)]) == Scalar(10)


def test_stabilized_length_point():
    # V(x, y) is one reduced point
    gens = [avar(2, 0), avar(2, 1)]
    assert stabilized_length(gens, 2) == 1


def test_stabilized_length_fat_point():
    x, y = avar(2, 0), avar(2, 1)
    gens = [amul(x, x), amul(x, y), amul(y, y)]
    assert stabilized_length(gens, 2) == 3


def test_graded_hilbert():
    x, y = avar(2, 0), avar(2, 1)
    gens = [amul(x, x), amul(x, y), amul(y, y)]
    assert graded_hilbert(gens, 2, 3) == (1, 2, 0, 0)


def test_graded_hilbert_rejects_inhomogeneous_input():
    x, y = avar(2, 0), avar(2, 1)
    with pytest.raises(VerificationFailure):
        graded_hilbert([aadd(amul(x, x), y)], 2, 2)


def test_affine_support_count_two_points():
    # V(x^2 - x, y) = {(0,0), (1,0)}
    x, y = avar(2, 0), avar(2, 1)
    gens = [aadd(amul(x, x), {(1, 0): Scalar(-1)}), y]
    assert affine_support_count(gens, 2) == 2


def test_affine_support_count_points_outside_qw():
    # V(x^2 - 2, y) = {(+-sqrt(2), 0)}
    x, y = avar(2, 0), avar(2, 1)
    assert affine_support_count([aadd(amul(x, x), {(0, 0): Scalar(-2)}), y], 2) == 2


def test_affine_support_count_fat_point():
    # V(x^2, y) is the origin with length 2
    x, y = avar(2, 0), avar(2, 1)
    assert affine_support_count([amul(x, x), y], 2) == 1


def test_smoothing_clauses():
    report = verify_smoothing_133(ONE, ONE)
    assert all(c["pass"] for c in report["clauses"])
    names = [c["name"] for c in report["clauses"]]
    assert names == [
        "four-points-vanish",
        "non-origin-points-simple",
        "affine-length-7",
        "graded-hf-1330-at-t0",
    ]


def test_build_1r2_counts():
    b4 = build_1r2(4, [Scalar(2)])
    assert len(b4["generators"]) == 8
    assert b4["syzygy_dim"] == 12
    b5 = build_1r2(5, [Scalar(2), Scalar(3)])
    assert b5["syzygy_dim"] == 30


def test_build_1r2_kij_exact():
    b4 = build_1r2(4, [Scalar(2)])
    kij = [rel for rel in b4["relations"] if len(rel["name"]) == 5]  # e_kij
    assert kij and all(rel["printed_ok"] for rel in kij)


def test_build_1r2_reports_corrections():
    b4 = build_1r2(4, [Scalar(2)])
    fixed = {rel["name"] for rel in b4["relations"] if not rel["printed_ok"]}
    assert {"e_14", "e_34"} <= fixed


W_LAMBDAS = [Scalar(1, 1), Scalar(-2, 1)]  # 1 + w and -2 + w


def test_build_1r2_builds_the_syzygy_space_once(monkeypatch):
    calls = []
    original = linalg.kernel_basis

    def counting(rows, ncols):
        calls.append(ncols)
        return original(rows, ncols)

    monkeypatch.setattr(linalg, "kernel_basis", counting)
    build_1r2(5, W_LAMBDAS)
    # one kernel for the quadratic-monomial syzygies, one for syzygy_dim
    assert len(calls) <= 2


def test_quadratic_syzygy_gram_is_positive_definite():
    # The kernel does not involve lambda: it is rational with entries in
    # {0, +-1}, so its bilinear Gram matrix is positive-definite even for
    # w-valued lambdas.
    names, gens = _generators_1r2(5, W_LAMBDAS)
    syz = _quadratic_syzygies(names, gens, 5)
    assert len(syz.kernel) == 20
    for k in syz.kernel:
        assert len(k) == 2 and all(x in (ONE, -ONE) for x in k.values())
    assert all(x.b == 0 for row in syz.gram for x in row)
    # Sylvester's criterion, as positive pivots of elimination without swaps
    g = [[x.a for x in row] for row in syz.gram]
    for i in range(len(g)):
        assert g[i][i] > 0
        for j in range(i + 1, len(g)):
            f = g[j][i] / g[i][i]
            g[j] = [a - f * b for a, b in zip(g[j], g[i])]


def test_build_1r2_corrections_for_w_lambdas():
    b5 = build_1r2(5, W_LAMBDAS)
    fixed = {rel["name"] for rel in b5["relations"] if not rel["printed_ok"]}
    assert fixed == {"e_14", "e_15", "e_34", "e_35", "e_45", "e_54"}


def test_build_1r2_bad_params():
    with pytest.raises(InvalidParameters):
        build_1r2(3, [])
    with pytest.raises(InvalidParameters):
        build_1r2(5, [ONE, ONE])
    with pytest.raises(InvalidParameters):
        build_1r2(5, [ZERO, ONE])


def test_deformation_clauses():
    for r, lams in ((4, [Scalar(2)]), (5, [Scalar(2), Scalar(3)])):
        report = verify_deformation_1r2(r, lams, ONE)
        assert all(c["pass"] for c in report["clauses"]), report


def test_length_with_a_high_degree_generator():
    # V(x^2 - x, y, x^5) is the single point (0, 0): x^5 - x lies in the
    # ideal, so x does.  The truncated codimensions run 2, 2, 2, 2, 1, 1, ...,
    # so three equal values at low bounds do not give the length.
    x, y = avar(2, 0), avar(2, 1)
    gens = [aadd(amul(x, x), {(1, 0): Scalar(-1)}), y, {(5, 0): ONE}]
    assert stabilized_length(gens, 2) == 1
    assert affine_support_count(gens, 2) == 1


def test_certified_algebra_multiplies_by_the_variables():
    # V(x^2 - 2, y): the matrix of x squares to 2 and that of y is zero
    x, y = avar(2, 0), avar(2, 1)
    basis, (mx, my) = certified_algebra([aadd(amul(x, x), {(0, 0): Scalar(-2)}), y], 2)
    assert len(basis) == 2
    assert linalg.mat_mul(mx, mx) == [[Scalar(2), ZERO], [ZERO, Scalar(2)]]
    assert all(not v for row in my for v in row)


def test_unit_ideal_has_length_zero():
    x, y = avar(2, 0), avar(2, 1)
    gens = [aadd(x, {(0, 0): ONE}), x, y]  # x + 1 and x give 1
    assert stabilized_length(gens, 2) == 0
    assert affine_support_count(gens, 2) == 0


def test_positive_dimensional_ideal_is_not_certified():
    # V(y) is a line: no degree bound gives a finite algebra
    with pytest.raises(VerificationFailure):
        stabilized_length([avar(2, 1)], 2)
