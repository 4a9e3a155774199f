
import numpy as np
import pytest
import sympy

from curvehelpers import meet, svd_annihilator
from flagflows.config import (
    DegenerateMeet,
    DegenerateSum,
    DimensionOverflow,
)
from flagflows.devmaps import LeafMetricContext
from flagflows.projective import (
    RANK_TOL,
    Flag,
    ProjectiveSubspace,
    annihilator,
    cross_meet,
    join,
)


def span(rows):
    """Subspace spanned by independent row vectors."""
    return join([ProjectiveSubspace.point(r) for r in np.asarray(rows, dtype=float)])


def rand_subspace(rng, n, k):
    return span(rng.standard_normal((k, n)))


def same(a, b) -> bool:
    """Whether two subspaces of equal dimension agree to a principal angle of 1e-9."""
    return a.dim == b.dim and a.principal_angle(b) < 1e-9


def test_basis_is_orthonormal():
    s = span([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    gram = s.basis.T @ s.basis
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    assert s.dim == 2


def test_dual_is_an_involution():
    rng = np.random.default_rng(3)
    for k in (1, 2):
        s = rand_subspace(rng, 4, k)
        dual = ProjectiveSubspace(4, annihilator(s.basis))
        assert same(ProjectiveSubspace(4, annihilator(dual.basis)), s)
        assert dual.dim == 4 - k


def test_join_meet_against_sympy():
    """Join, and the tests' SVD meet oracle, agree with exact row-space/null-space
    computations."""
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
        assert same(j, span(exact))

        rows1, rows2 = (rng.integers(-4, 5, size=(3, 4)) for _ in range(2))
        if np.linalg.matrix_rank(rows1) != 3 or np.linalg.matrix_rank(rows2) != 3:
            continue
        h1, h2 = span(rows1), span(rows2)
        m = meet([h1, h2])
        null = sympy.Matrix.hstack(sympy.Matrix(rows1).nullspace()[0],
                                   sympy.Matrix(rows2).nullspace()[0]).T.nullspace()
        exact = np.array([[float(x) for x in v] for v in null])
        assert same(m, span(exact))
    # the annihilator of the columns of B is the null space of B^T
    for k in (1, 2, 3):
        b = rng.integers(-4, 5, size=(4, k))
        if np.linalg.matrix_rank(b) < k:
            continue
        null = sympy.Matrix(b).T.nullspace()
        exact = np.array([[float(x) for x in v] for v in null])
        assert same(ProjectiveSubspace(4, annihilator(b.astype(float))), span(exact))


def test_annihilator_spans_the_svd_null_space():
    """The trailing columns of the complete QR span the null space that an SVD finds, on
    random full-rank bases: the sine of the largest principal angle stays below 1e-15
    times the basis' condition number (null spaces move by eps times it; 5.9e-16 at
    most on these draws, and up to 1.3e-15 on orthonormal bases)."""
    rng = np.random.default_rng(11)
    for n in range(3, 7):
        for k in range(1, n):
            for _ in range(50):
                b = rng.standard_normal((n, k))
                got, want = annihilator(b), svd_annihilator(b)
                assert got.shape == (n, n - k)
                assert np.allclose(got.T @ got, np.eye(n - k), rtol=0, atol=1e-15)
                sine = np.linalg.norm(got - want @ (want.T @ got), ord=2)
                assert sine <= 1e-15 * np.linalg.cond(b)


def test_join_overflow_and_degenerate():
    e1 = ProjectiveSubspace.point([1.0, 0.0, 0.0])
    plane = span([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(DimensionOverflow):
        join([plane, plane])
    with pytest.raises(DegenerateSum):
        join([e1, ProjectiveSubspace.point([1.0, 1e-13, 0.0])])


def test_non_transverse_meets_raise_degenerate_meet():
    lines = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DegenerateMeet):
        cross_meet(lines, lines + [0.0, 0.0, 1e-12])
    meets = cross_meet(lines, [0.0, 1.0, 0.0])
    assert np.allclose(np.abs(meets), [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)


def _numpy_cross_meet(a, b):
    c = np.cross(a, b)
    norm = np.linalg.norm(c, axis=-1, keepdims=True)
    scale = np.linalg.norm(a, axis=-1, keepdims=True) * np.linalg.norm(b, axis=-1, keepdims=True)
    return c / norm, bool(np.any(norm <= RANK_TOL * scale))


@pytest.mark.parametrize("shapes", [((3,), (3,)), ((40, 3), (40, 3)), ((5, 40, 3), (5, 40, 3)),
                                    ((40, 3), (3,))], ids=["one", "m", "k-m", "broadcast"])
def test_cross_meet_is_numpy_cross_and_norm_bit_for_bit(shapes):
    """The written-out product equals np.cross over np.linalg.norm, and raises where they
    put |a x b| at or below RANK_TOL |a| |b|: on random stacks, their strided views, and
    pairs bent away from each other by RANK_TOL and nearby multiples of it."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.standard_normal(shapes[0]), rng.standard_normal(shapes[1])
        want, degenerate = _numpy_cross_meet(a, b)
        assert not degenerate
        assert cross_meet(a, b).tobytes() == want.tobytes()
        frames = np.stack(np.broadcast_arrays(a, b), axis=-1)  # columns a and b, strided
        assert cross_meet(frames[..., 0], frames[..., 1]).tobytes() == want.tobytes()
    raised = set()
    for factor in (0.5, 0.999, 1.0, 1.001, 2.0):
        a = rng.standard_normal(shapes[0])
        bend = np.cross(a, rng.standard_normal(shapes[1]))
        bend *= (factor * RANK_TOL * np.linalg.norm(a, axis=-1, keepdims=True)
                 / np.linalg.norm(bend, axis=-1, keepdims=True))
        b = a + bend
        want, degenerate = _numpy_cross_meet(a, b)
        if degenerate:
            with pytest.raises(DegenerateMeet):
                cross_meet(a, b)
        else:
            assert cross_meet(a, b).tobytes() == want.tobytes()
        raised.add(degenerate)
    assert raised == {True, False}


def test_flag_nesting_enforced():
    with pytest.raises(ValueError):
        Flag(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))  # not orthonormal
    with pytest.raises(ValueError):
        Flag(np.eye(3))  # a flag frame has n - 1 columns
    f = Flag.from_basis_columns(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(f.line.basis[:, :1], f.point.basis)  # the levels nest


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


def test_flags_and_subspaces_compare_by_identity():
    frame = Flag.from_basis_columns(np.array([[1.0, 2.0], [1.0, 1.0], [1.0, 0.0]])).frame
    flag = Flag(frame)
    assert flag == flag and flag != Flag(frame.copy())
    assert flag.point != flag.point  # each level is built on each call
    assert len({flag, flag.line}) == 2
