
import numpy as np
import pytest
import sympy

from flagflows.config import (
    DegenerateMeet,
    DegenerateSum,
    DimensionOverflow,
    PointOutsideDomain,
)
from flagflows.devmaps import LeafMetricContext
from flagflows.projective import (
    AffineChart,
    Flag,
    ProjectiveSubspace,
    annihilator,
    cross_meet,
    join,
    meet,
    signed_polygon_distance,
)


def span(rows):
    """Subspace spanned by independent row vectors."""
    return join([ProjectiveSubspace.point(r) for r in np.asarray(rows, dtype=float)])


def rand_subspace(rng, n, k):
    return span(rng.standard_normal((k, n)))


def test_basis_is_orthonormal():
    s = span([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    gram = s.basis.T @ s.basis
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    assert s.dim == 2


def test_dual_is_an_involution():
    rng = np.random.default_rng(3)
    for k in (1, 2):
        s = rand_subspace(rng, 4, k)
        dual = ProjectiveSubspace(4, s.covectors)
        assert ProjectiveSubspace(4, dual.covectors) == s
        assert dual.dim == 4 - k


def test_join_meet_against_sympy():
    """Join and meet agree with exact row-space/null-space computations."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.integers(-4, 5, size=(1, 4)).astype(float)
        b = rng.integers(-4, 5, size=(2, 4)).astype(float)
        if np.linalg.matrix_rank(np.vstack([a, b])) < 3:
            continue
        j = join([span(a), span(b)])
        exact = sympy.Matrix(np.vstack([a, b]).astype(int)).columnspace()
        # columnspace of the transpose = row space of the stacked matrix
        exact_rows = sympy.Matrix(np.vstack([a, b]).astype(int)).T.columnspace()
        exact = np.array([list(map(float, v)) for v in exact_rows])
        assert j == span(exact)

        rows1, rows2 = (rng.integers(-4, 5, size=(3, 4)) for _ in range(2))
        if np.linalg.matrix_rank(rows1) != 3 or np.linalg.matrix_rank(rows2) != 3:
            continue
        h1, h2 = span(rows1), span(rows2)
        m = meet([h1, h2])
        c1 = sympy.Matrix(h1.covectors[:, 0].round(12))
        c2 = sympy.Matrix(h2.covectors[:, 0].round(12))
        null = sympy.Matrix.hstack(c1, c2).T.nullspace()
        exact = np.array([[float(x) for x in v] for v in null])
        assert m == span(exact)
    # the annihilator of the columns of B is the null space of B^T
    for k in (1, 2, 3):
        b = rng.integers(-4, 5, size=(4, k))
        if np.linalg.matrix_rank(b) < k:
            continue
        null = sympy.Matrix(b).T.nullspace()
        exact = np.array([[float(x) for x in v] for v in null])
        assert ProjectiveSubspace(4, annihilator(b.astype(float))) == \
            span(exact)


def test_join_overflow_and_degenerate():
    e1 = ProjectiveSubspace.point([1.0, 0.0, 0.0])
    plane = span([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(DimensionOverflow):
        join([plane, plane])
    with pytest.raises(DegenerateSum):
        join([e1, ProjectiveSubspace.point([1.0, 1e-13, 0.0])])


def test_meet_of_transverse_planes_is_their_common_line():
    p1 = span([[1, 0, 0], [0, 1, 0]])
    p2 = span([[1, 0, 0], [0, 0, 1]])
    assert meet([p1, p2]) == ProjectiveSubspace.point([1.0, 0.0, 0.0])


def test_non_transverse_meets_raise_degenerate_meet():
    plane = span([[1, 0, 0], [0, 1, 0]])
    tilted = span([[1, 0, 0], [0, 1, 1e-12]])
    with pytest.raises(DegenerateMeet, match="dimension 2, expected 1"):
        meet([plane, tilted])
    lines = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DegenerateMeet):
        cross_meet(lines, lines + [0.0, 0.0, 1e-12])
    meets = cross_meet(lines, [0.0, 1.0, 0.0])
    assert np.allclose(np.abs(meets), [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)


def test_flag_nesting_enforced():
    with pytest.raises(ValueError):
        Flag(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))  # not orthonormal
    with pytest.raises(ValueError):
        Flag(np.eye(3))  # a flag frame has n - 1 columns
    f = Flag.from_basis_columns(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert f[2].contains(f[1])
    assert f.point is f[1] and f.line is f[2]


def segment_cross_ratio(a, b, p, q, line):
    """(a, b; p, q) of points on `line`: u(p) / u(q), u the segment coordinate on (a, b).

    A point P = alpha a + beta b of the line is where the covector P x line
    vanishes, so its coordinate on the segment (a, b) is alpha / beta.
    """
    a, b = (v / np.linalg.norm(v) for v in (a, b))
    u = LeafMetricContext(a, b).coordinate(np.cross(np.stack([p, q]), line))
    return u[0] / u[1]


def test_segment_coordinate_cross_ratio_affine_value():
    def pt(t):
        return np.array([t, 1.0, 0.0])

    value = segment_cross_ratio(pt(0.0), pt(1.0), pt(2.0), pt(3.0), np.array([0.0, 0.0, 1.0]))
    # (q-a)(p-b) / ((p-a)(q-b)) = (3)(1) / (2)(2)
    assert abs(value - 0.75) < 1e-12


def test_segment_coordinate_cross_ratio_projective_invariance():
    """Points move by g and the line's covector by g^-T; the cross ratio stays."""
    rng = np.random.default_rng(11)
    base = rng.standard_normal(3)
    direction = rng.standard_normal(3)
    pts = [base + t * direction for t in (0.3, 1.7, -0.4, 2.5)]
    line = np.cross(base, direction)
    v0 = segment_cross_ratio(*pts, line)
    assert abs(v0 - (2.5 - 0.3) * (-0.4 - 1.7) / ((-0.4 - 0.3) * (2.5 - 1.7))) < 1e-12
    for _ in range(5):
        g = rng.standard_normal((3, 3))
        moved = [g @ p for p in pts]
        value = segment_cross_ratio(*moved, np.linalg.inv(g).T @ line)
        assert abs(value - v0) < 1e-9 * max(1.0, abs(v0))


def test_affine_chart_roundtrip():
    chart = AffineChart(np.eye(3))
    p = np.array([0.3, -0.7, 1.0])
    assert np.allclose(chart.to_chart(p), [0.3, -0.7], atol=1e-12)
    at_infinity = np.array([1.0, 0.0, 0.0])
    with pytest.raises(PointOutsideDomain):
        chart.to_chart(at_infinity)
    # stacked points: a mask picks out those in the chart
    stacked = np.array([p, at_infinity, -2 * p])
    assert chart.in_chart(stacked).tolist() == [True, False, True]
    assert np.allclose(chart.to_chart(stacked[[0, 2]]), [[0.3, -0.7]] * 2, atol=1e-12)


def test_line_to_chart_vanishes_on_line_points():
    rng = np.random.default_rng(5)
    chart = AffineChart(rng.standard_normal((3, 3)) + 3 * np.eye(3))
    line = rand_subspace(rng, 3, 2)
    a, b, c = chart.line_to_chart(line.covectors[:, 0])
    for col in range(2):
        u, v = chart.to_chart(line.basis[:, col])
        assert abs(a * u + b * v + c) < 1e-9


def test_signed_polygon_distance_signs():
    square = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    assert signed_polygon_distance(square, np.zeros(2)) > 0
    assert signed_polygon_distance(square, np.array([2.0, 0.0])) < 0
    # orientation-independent
    assert signed_polygon_distance(square[::-1], np.zeros(2)) > 0


def test_flags_compare_by_their_levels():
    frame = Flag.from_basis_columns(np.array([[1.0, 2.0], [1.0, 1.0], [1.0, 0.0]])).frame
    flag = Flag(frame)
    assert flag == Flag(frame.copy())
    assert flag == Flag(-frame)  # each level is a span, so signs do not matter
    assert flag == Flag(frame * [1.0, -1.0])
    assert flag != Flag(np.roll(frame, 1, axis=0))
    assert flag != Flag.from_basis_columns(frame[:, ::-1])  # same plane, other point
    assert flag != ProjectiveSubspace(3, frame)
    with pytest.raises(TypeError, match="numeric"):
        hash(flag)
