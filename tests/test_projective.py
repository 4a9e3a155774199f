import math

import numpy as np
import pytest
import sympy

from flagflows.config import (
    DegenerateSum,
    DimensionOverflow,
    IndeterminateRatio,
    NotCollinear,
    PointOutsideDomain,
)
from flagflows.projective import (
    AffineChart,
    Flag,
    ProjectiveSubspace,
    annihilator,
    cross_ratio,
    dual,
    join,
    meet,
    signed_polygon_distance,
)


def rand_subspace(rng, n, k):
    return ProjectiveSubspace.from_spanning(rng.standard_normal((k, n)))


def test_basis_is_orthonormal():
    s = ProjectiveSubspace.from_spanning([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    gram = s.basis.T @ s.basis
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    assert s.dim == 2


def test_from_spanning_drops_dependent_rows():
    s = ProjectiveSubspace.from_spanning([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    assert s.dim == 1


def test_dual_is_an_involution():
    rng = np.random.default_rng(3)
    for k in (1, 2):
        s = rand_subspace(rng, 4, k)
        assert dual(dual(s)) == s
        assert dual(s).dim == 4 - k


def test_join_meet_against_sympy():
    """Join and meet agree with exact row-space/null-space computations."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.integers(-4, 5, size=(1, 4)).astype(float)
        b = rng.integers(-4, 5, size=(2, 4)).astype(float)
        if np.linalg.matrix_rank(np.vstack([a, b])) < 3:
            continue
        j = join([ProjectiveSubspace.from_spanning(a),
                  ProjectiveSubspace.from_spanning(b)])
        exact = sympy.Matrix(np.vstack([a, b]).astype(int)).columnspace()
        # columnspace of the transpose = row space of the stacked matrix
        exact_rows = sympy.Matrix(np.vstack([a, b]).astype(int)).T.columnspace()
        span = np.array([list(map(float, v)) for v in exact_rows])
        assert j == ProjectiveSubspace.from_spanning(span)

        h1 = ProjectiveSubspace.from_spanning(rng.integers(-4, 5, size=(3, 4)).astype(float))
        h2 = ProjectiveSubspace.from_spanning(rng.integers(-4, 5, size=(3, 4)).astype(float))
        if h1.dim != 3 or h2.dim != 3:
            continue
        m = meet([h1, h2])
        c1 = sympy.Matrix(dual(h1).vector.round(12))
        c2 = sympy.Matrix(dual(h2).vector.round(12))
        null = sympy.Matrix.hstack(c1, c2).T.nullspace()
        span = np.array([[float(x) for x in v] for v in null])
        assert m == ProjectiveSubspace.from_spanning(span)
    # the annihilator of the columns of B is the null space of B^T
    for k in (1, 2, 3):
        b = rng.integers(-4, 5, size=(4, k))
        if np.linalg.matrix_rank(b) < k:
            continue
        null = sympy.Matrix(b).T.nullspace()
        span = np.array([[float(x) for x in v] for v in null])
        assert ProjectiveSubspace(4, annihilator(b.astype(float))) == \
            ProjectiveSubspace.from_spanning(span)


def test_join_overflow_and_degenerate():
    e1 = ProjectiveSubspace.point([1.0, 0.0, 0.0])
    plane = ProjectiveSubspace.from_spanning([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(DimensionOverflow):
        join([plane, plane])
    with pytest.raises(DegenerateSum):
        join([e1, ProjectiveSubspace.point([1.0, 1e-13, 0.0])])


def test_meet_of_transverse_planes_is_their_common_line():
    p1 = ProjectiveSubspace.from_spanning([[1, 0, 0], [0, 1, 0]])
    p2 = ProjectiveSubspace.from_spanning([[1, 0, 0], [0, 0, 1]])
    assert meet([p1, p2]) == ProjectiveSubspace.point([1.0, 0.0, 0.0])


def test_flag_nesting_enforced():
    with pytest.raises(ValueError):
        Flag(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))  # not orthonormal
    with pytest.raises(ValueError):
        Flag(np.eye(3))  # a flag frame has n - 1 columns
    f = Flag.from_basis_columns(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert f[2].contains(f[1])
    assert np.array_equal(Flag.from_dict(f.to_dict()).frame, f.frame)
    data = f.to_dict()
    data["subspaces"][0]["basis"] = [[0.0], [0.0], [1.0]]  # a point off the line
    with pytest.raises(ValueError):
        Flag.from_dict(data)


def test_cross_ratio_affine_value():
    def pt(t):
        return ProjectiveSubspace.point([t, 1.0, 0.0])

    value = cross_ratio(pt(0.0), pt(1.0), pt(2.0), pt(3.0))
    # (q-a)(p-b) / ((p-a)(q-b)) = (3)(1) / (2)(2)
    assert abs(value - 0.75) < 1e-12


def test_cross_ratio_projective_invariance():
    rng = np.random.default_rng(11)
    base = rng.standard_normal(3)
    direction = rng.standard_normal(3)
    pts = [ProjectiveSubspace.point(base + t * direction)
           for t in (0.3, 1.7, -0.4, 2.5)]
    v0 = cross_ratio(*pts)
    for _ in range(5):
        g = rng.standard_normal((3, 3))
        moved = [ProjectiveSubspace.point(g @ p.vector) for p in pts]
        assert abs(cross_ratio(*moved) - v0) < 1e-9 * max(1.0, abs(v0))


def test_cross_ratio_degeneracies():
    def pt(t):
        return ProjectiveSubspace.point([t, 1.0, 0.0])

    assert math.isinf(cross_ratio(pt(0.0), pt(1.0), pt(2.0), pt(1.0)))
    with pytest.raises(IndeterminateRatio):
        cross_ratio(pt(0.0), pt(1.0), pt(0.0), pt(0.0))
    with pytest.raises(NotCollinear):
        cross_ratio(pt(0.0), pt(1.0), pt(2.0),
                    ProjectiveSubspace.point([0.0, 0.0, 1.0]))


def test_affine_chart_roundtrip():
    chart = AffineChart(np.eye(3))
    p = ProjectiveSubspace.point([0.3, -0.7, 1.0])
    assert np.allclose(chart.to_chart(p), [0.3, -0.7], atol=1e-12)
    with pytest.raises(PointOutsideDomain):
        chart.to_chart(ProjectiveSubspace.point([1.0, 0.0, 0.0]))


def test_line_to_chart_vanishes_on_line_points():
    rng = np.random.default_rng(5)
    chart = AffineChart(rng.standard_normal((3, 3)) + 3 * np.eye(3))
    line = rand_subspace(rng, 3, 2)
    a, b, c = chart.line_to_chart(annihilator(line.basis)[:, 0])
    for col in range(2):
        u, v = chart.to_chart(ProjectiveSubspace.point(line.basis[:, col]))
        assert abs(a * u + b * v + c) < 1e-9


def test_signed_polygon_distance_signs():
    square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    assert signed_polygon_distance(square, np.zeros(2)) > 0
    assert signed_polygon_distance(square, np.array([2.0, 0.0])) < 0
    # orientation-independent
    assert signed_polygon_distance(square[::-1], np.zeros(2)) > 0
