import math

import numpy as np
import pytest
import sympy

from curvehelpers import meet, realization
from flagflows.config import DegenerateMeet, UnclassifiedLine
from flagflows.devmaps import (
    MAP_TABLE,
    LeafPoint,
    _random_triples,
    concavity_check,
    develop,
    develop_frames,
    involution,
    leaf_context,
    leaf_triples,
    omega_membership,
    phi_tan_minus,
    phi_tan_plus,
    phi_tr,
    psi_k,
    two_sheet_error,
    type_classifier,
)
from flagflows.limitcurve import second_boundary_intersection
from flagflows.projective import Flag, ProjectiveSubspace, annihilator, cross_meet, join
from flagflows.reps import boundary_vector, circular_gap, theta_of_vector


# -- rational conic oracle ---------------------------------------------------
# flags of the conic s -> [s^2 : s : 1] at s = infinity, 1, 0, with exact
# integer spanning vectors; used to pin down the developing-map formulas
# on hand-checkable input.

def _conic_flag(point, tangent_dir):
    return Flag.from_basis_columns(
        np.column_stack([point, tangent_dir]).astype(float)
    )


F_INF = _conic_flag([1, 0, 0], [0, 1, 0])
F_ONE = _conic_flag([1, 1, 1], [2, 1, 0])
F_ZERO = _conic_flag([0, 0, 1], [0, 1, 0])


def _angle(u, v) -> float:
    """Angle between the lines of R^3 along the vectors u and v."""
    return ProjectiveSubspace.point(u).principal_angle(ProjectiveSubspace.point(v))


def _develop(name, fx, fy, fz):
    """develop_frames on one triple of flags; returns one point and one line covector."""
    point, line = develop_frames(name, fx.frame[None], fy.frame[None], fz.frame[None])
    return point[0], line[0]


def test_phi_tr_on_the_rational_conic():
    point, line = _develop("tr", F_INF, F_ONE, F_ZERO)
    assert _angle(point, [1.0, 0.0, -1.0]) < 1e-12
    assert _angle(line, [0.0, 1.0, 0.0]) < 1e-12


def test_phi_tan_plus_on_the_rational_conic():
    point, line = _develop("tan+", F_INF, F_ONE, F_ZERO)
    assert _angle(point, [0.0, 1.0, 2.0]) < 1e-12
    assert _angle(line, [0.0, -2.0, 1.0]) < 1e-12
    # the point entry reads only y and z
    other_x = _conic_flag([4, 2, 1], [4, 1, 0])  # s = 2
    assert _angle(_develop("tan+", other_x, F_ONE, F_ZERO)[0], point) < 1e-12


def test_iota_line_on_the_rational_conic():
    # pivot x2 ∩ z2 = (0,1,0); the line through y1 = (1,1,1) and the pivot
    # meets the conic again at s = -1
    pivot = meet([F_INF[2], F_ZERO[2]])
    assert pivot.principal_angle(ProjectiveSubspace.point([0.0, 1.0, 0.0])) < 1e-12
    line = join([F_ONE[1], pivot])
    assert abs(annihilator(line.basis)[:, 0] @ [1.0, -1.0, 1.0]) < 1e-12


def test_two_sheet_identity_on_the_rational_conic():
    # second hit of the tangent-map line from x = infinity is s = 1/2;
    # the deck transform evaluates the map at (1/2, 0, 1) with y, z swapped
    point, line = _develop("tan+", F_INF, F_ONE, F_ZERO)
    w_flag = _conic_flag([1, 2, 4], [1, 1, 0])  # s = 1/2, tangent (2s, 1, 0)
    assert abs(line @ w_flag.frame[:, 0]) < 1e-12
    g_point, g_line = _develop("tan+", w_flag, F_ZERO, F_ONE)
    assert _angle(g_point, point) < 1e-12
    assert _angle(g_line, line) < 1e-12


# -- the cross-product kernel against join and an SVD meet ---------------------


def _join_meet_formula(curve, name, x, y, z):
    """The map `name` written out with join and meet of curve flags: (point, line)."""
    fx, fy, fz = (Flag(curve.frames_at(t)) for t in (x, y, z))
    chord, pivot = join([fx[1], fz[1]]), meet([fx[2], fz[2]])
    if name == "tan-":  # tan+ after the involution of y
        fy = Flag(curve.frames_at(
            second_boundary_intersection(curve, join([fy[1], pivot]), y)))
        name = "tan+"
    if name == "tr":
        return meet([chord, fy[2]]), chord
    if name == "tan+":
        point = meet([fy[2], fz[2]])
        return point, join([fx[1], point])
    if name in ("psi1", "psi2"):
        line = join([fy[1], pivot])
        return meet([chord, line]), line if name == "psi1" else chord
    if name == "psi3":
        return pivot, join([pivot, meet([fy[2], chord])])
    point = meet([chord, fy[2]])  # psi4
    return point, join([point, pivot])


@pytest.mark.parametrize("curve_name", ["exact_curve", "bulged_curve"])
@pytest.mark.parametrize("name", sorted(MAP_TABLE))
def test_kernel_equals_the_join_meet_formulas(request, curve_name, name):
    curve = request.getfixturevalue(curve_name)
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 2 * math.pi, 6)
    y = x + rng.uniform(0.4, 2.5, 6)
    z = y + rng.uniform(0.4, 2.5, 6)
    points, lines = develop(curve, name, x, y, z)
    for k, p in enumerate(LeafPoint(*t) for t in zip(x, y, z)):
        want_point, want_line = _join_meet_formula(curve, name, p.x, p.y, p.z)
        assert _angle(points[k], want_point.basis[:, 0]) < 1e-12
        assert _angle(lines[k], annihilator(want_line.basis)[:, 0]) < 1e-12
        # the one-triple map is the same kernel output
        f = MAP_TABLE[name](curve, p)
        assert np.array_equal(f.point.basis[:, 0], points[k])
        assert _angle(annihilator(f.line.basis)[:, 0], lines[k]) < 1e-14


def test_kernel_refuses_coincident_lines():
    # a middle flag whose line y2 is the chord x1 + z1 = {v : v_1 = 0}
    on_chord = _conic_flag([1, 0, 1], [1, 0, -1])
    for name in ("tr", "psi3", "psi4"):  # each meets y2 with the chord
        with pytest.raises(DegenerateMeet):
            _develop(name, F_INF, on_chord, F_ZERO)
    with pytest.raises(DegenerateMeet):  # x = z: the chord is no line
        _develop("tr", F_INF, F_ONE, F_INF)


# -- symbolic oracle on the Fuchsian curve -----------------------------------


def _symbolic_flag(theta_sym):
    u = -sympy.cos(theta_sym / 2)
    v = sympy.sin(theta_sym / 2)
    point = sympy.Matrix([u**2, 2 * u * v, v**2])
    t = sympy.Symbol("__t")
    u_t = -sympy.cos(t / 2)
    v_t = sympy.sin(t / 2)
    deriv = sympy.diff(sympy.Matrix([u_t**2, 2 * u_t * v_t, v_t**2]), t)
    return point, deriv.subs(t, theta_sym)


def _sym_cross(a, b):
    return sympy.Matrix([a[1] * b[2] - a[2] * b[1],
                         a[2] * b[0] - a[0] * b[2],
                         a[0] * b[1] - a[1] * b[0]])


def test_phi_maps_match_symbolic_meets(exact_curve):
    thetas = [sympy.pi / 3, sympy.pi, sympy.Rational(3, 2) * sympy.pi]
    flags_sym = [_symbolic_flag(t) for t in thetas]
    (px, tx), (py, ty), (pz, tz) = flags_sym
    p = LeafPoint(*[float(t) for t in thetas])

    # transverse: (x1 + z1) ∩ y2
    chord_cov = _sym_cross(px, pz)
    y2_cov = _sym_cross(py, ty)
    tr_point = _sym_cross(chord_cov, y2_cov)
    got = phi_tr(exact_curve, p)
    want = np.array([float(sympy.N(c, 30)) for c in tr_point])
    assert got.point.principal_angle(ProjectiveSubspace.point(want)) < 1e-10

    # tangent: y2 ∩ z2
    z2_cov = _sym_cross(pz, tz)
    tan_point = _sym_cross(y2_cov, z2_cov)
    got = phi_tan_plus(exact_curve, p)
    want = np.array([float(sympy.N(c, 30)) for c in tan_point])
    assert got.point.principal_angle(ProjectiveSubspace.point(want)) < 1e-10


def test_equivariance_of_developing_maps(exact_curve, reference):
    g2 = reference.matrix([1])
    g3 = exact_curve.rep.matrix([1])
    p = LeafPoint(0.4, 1.9, 4.0)
    moved = LeafPoint(*(theta_of_vector(g2 @ boundary_vector(t)) for t in (p.x, p.y, p.z)))
    for fn in (phi_tr, phi_tan_plus):
        f = fn(exact_curve, p)
        h = fn(exact_curve, moved)
        assert h.point.principal_angle(
            ProjectiveSubspace.point(g3 @ f.point.basis[:, 0])) < 1e-9
        assert h.line.principal_angle(
            join([ProjectiveSubspace.point(v) for v in (g3 @ f.line.basis).T])) < 1e-9


# -- involution and point-line maps ------------------------------------------


def test_iota_is_a_fixed_point_free_involution(exact_curve):
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(0, 2 * math.pi)
        p = LeafPoint(x, x + rng.uniform(0.5, 2.0), x + rng.uniform(3.0, 5.0))
        q = LeafPoint(p.x, float(involution(exact_curve, p.x, p.y, p.z)[0]), p.z)
        # the involution reverses the circular order of the triple
        assert (circular_gap(p.x, p.y) < circular_gap(p.x, p.z)) != \
            (circular_gap(q.x, q.y) < circular_gap(q.x, q.z))
        assert min(abs(q.y - p.y), 2 * math.pi - abs(q.y - p.y)) > 1e-6
        back = LeafPoint(q.x, float(involution(exact_curve, q.x, q.y, q.z)[0]), q.z)
        assert min(abs(back.y - p.y), 2 * math.pi - abs(back.y - p.y)) < 1e-9


def test_phi_tan_minus_differs_from_plus(exact_curve):
    p = LeafPoint(0.3, 1.4, 3.8)
    plus = phi_tan_plus(exact_curve, p)
    minus = phi_tan_minus(exact_curve, p)
    assert plus.point.principal_angle(minus.point) > 1e-3


def test_psi3_point_is_the_pivot_independent_of_y(exact_curve):
    x, z = 0.7, 4.1
    pivot = meet([Flag(exact_curve.frames_at(x))[2], Flag(exact_curve.frames_at(z))[2]])
    for y in (1.5, 2.0, 3.0):
        f = psi_k(exact_curve, LeafPoint(x, y, z), 3)
        assert f.point.principal_angle(pivot) < 1e-10


def test_all_maps_produce_incident_flags(request):
    """Each image point lies on its line, to 1e-12; a face's `Flag` checks only its frame."""
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 2 * math.pi, 8)
    y = x + rng.uniform(0.4, 2.5, 8)
    z = y + rng.uniform(0.4, 2.5, 8)
    for curve_name in ("exact_curve", "bulged_curve03"):
        curve = request.getfixturevalue(curve_name)
        for name in MAP_TABLE:
            points, lines = develop(curve, name, x, y, z)
            assert np.max(np.abs(np.sum(points * lines, axis=1))) <= 1e-12, (curve_name, name)


# -- geodesic realization ----------------------------------------------------


def test_realization_collapses_to_named_maps(exact_curve):
    p = LeafPoint(0.6, 1.8, 3.9)
    r13 = realization(exact_curve, (1, 3), p)
    assert r13.principal_angle(phi_tr(exact_curve, p).point) < 1e-11
    r23 = realization(exact_curve, (2, 3), p)
    assert r23.principal_angle(phi_tan_plus(exact_curve, p).point) < 1e-11


@pytest.mark.parametrize("curve_name", ["exact_curve", "exact_curve4"])
def test_leaf_context_image_is_the_root_realization(request, curve_name):
    """The closed form (m.b) a - (m.a) b is the join of the endpoints met with y^{n-1}.

    Checked on every root against `join` and an SVD `meet` of the flag
    levels; the largest principal angle is 4.4e-16.
    """
    curve = request.getfixturevalue(curve_name)
    n = curve.n
    x, y, z = 0.6, 1.8, 3.9
    fx, fy, fz = (Flag(curve.frames_at(t)) for t in (x, y, z))
    m = curve.hyperplane_covectors_at([y])[0]

    def pivot(k):  # x^k ∩ z^{n-k+1}, read as x^1 at k = 1 and z^1 at k = n
        return fx[1] if k == 1 else fz[1] if k == n else meet([fx[k], fz[n - k + 1]])

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ctx = leaf_context(curve, (i, j), x, z)
            want = meet([join([pivot(i), pivot(j)]), fy[n - 1]])
            got = ProjectiveSubspace(n, ctx.image(m))
            assert got.principal_angle(want) <= 1e-12
            assert ProjectiveSubspace.point(ctx.forward).principal_angle(pivot(i)) <= 1e-12
            assert ProjectiveSubspace.point(ctx.backward).principal_angle(pivot(j)) <= 1e-12


def test_leaf_context_refuses_a_hyperplane_holding_the_segment(exact_curve4):
    """The (1, 2) segment lies in x^3, so y^3 just past x holds it numerically."""
    ctx = leaf_context(exact_curve4, (1, 2), 0.6, 3.9)
    m = exact_curve4.hyperplane_covectors_at([1.8, 0.6 + 1e-9])
    assert np.isfinite(ctx.coordinate(m[0]))
    for read in (ctx.coordinate, ctx.image):
        with pytest.raises(DegenerateMeet, match="^meet has dimension 2, expected 1$"):
            read(m)


def test_simple_root_realization_ignores_z_in_dim_four(exact_curve4):
    x, y = 0.6, 1.8
    base = realization(exact_curve4, (1, 2), LeafPoint(x, y, 3.9))
    moved = realization(exact_curve4, (1, 2), LeafPoint(x, y, 4.8))
    assert base.principal_angle(moved) < 1e-10
    # closed form: x2 ∩ y3
    fx, fy = Flag(exact_curve4.frames_at(x)), Flag(exact_curve4.frames_at(y))
    assert base.principal_angle(meet([fx[2], fy[3]])) < 1e-10
    # the (1, 3) root does respond to z
    b13 = realization(exact_curve4, (1, 3), LeafPoint(x, y, 3.9))
    m13 = realization(exact_curve4, (1, 3), LeafPoint(x, y, 4.8))
    assert b13.principal_angle(m13) > 1e-3


# -- membership and diagnostics ----------------------------------------------


def test_membership_of_an_interior_point(exact_curve):
    verts = exact_curve.chart_points()
    center = verts.mean(axis=0)
    point = np.linalg.solve(exact_curve.chart.frame, np.append(center, 1.0))
    line = np.cross(point, exact_curve.frames_at(0.0)[:, 0])
    assert omega_membership(exact_curve, point[None], line[None]).tolist() == ["1"]


def test_membership_of_map_images(exact_curve):
    rng = np.random.default_rng(4)
    triples = []
    for _ in range(5):
        x = rng.uniform(0, 2 * math.pi)
        p = LeafPoint(x, x + rng.uniform(0.5, 2.5), x + rng.uniform(3.0, 5.5))
        triples.append((p.x, p.y, p.z))
    x, y, z = np.array(triples).T
    for name, want in (("tr", "2"), ("tan+", "2"), ("tan-", "2"), ("psi1", "1"),
                       ("psi4", "3")):
        labels = omega_membership(exact_curve, *develop(exact_curve, name, x, y, z))
        assert labels.tolist() == [want] * 5


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 1 and 7: the membership margin, 10 x the measured "
                          "interpolation error, is wider than the chart of this curve")
def test_membership_of_the_verify_all_draws_on_the_bulged_curve(bulged_curve03):
    """verify-all's seed-0 membership draws, in its order, on the `--bulge 0.3` curve:
    fewer than half of the labels may be inconclusive."""
    rng = np.random.default_rng(0)
    labels = np.concatenate([omega_membership(bulged_curve03, *develop(
        bulged_curve03, name, *_random_triples(rng, 5))) for name in MAP_TABLE])
    assert np.sum(labels == "boundary") < len(labels) / 2


def test_covering_checks_on_the_exact_curve(exact_curve):
    assert two_sheet_error(exact_curve, seed=0) < 1e-6


def test_concavity_of_the_leaf_family_image(exact_curve):
    report = concavity_check(exact_curve, 0.5, seed=0)
    assert report.passed


def test_type_classifier_separates_the_three_maps(exact_curve):
    x, z = 0.4, 3.7
    arc = (z - x) % (2 * math.pi)
    for name, want in (("tr", "transverse"), ("tan+", "tangent_plus"),
                       ("tan-", "tangent_minus")):
        points, _ = develop(exact_curve, name, x, x + arc * np.arange(1, 13) / 13, z)
        assert type_classifier(points, exact_curve, x, z) == want


@pytest.mark.parametrize("special", ["pivot", "z1"])
def test_type_classifier_refuses_a_sample_at_a_special_point(exact_curve, special):
    """The pivot x2 ∩ z2 (coordinate 0) and z1 (no coordinate) lie on neither side."""
    x, z = 0.4, 3.7
    arc = (z - x) % (2 * math.pi)
    points, _ = develop(exact_curve, "tan+", x, x + arc * np.arange(1, 13) / 13, z)
    fx, fz = exact_curve.frames_at([x, z])
    at = cross_meet(cross_meet(*fx.T), cross_meet(*fz.T)) if special == "pivot" else fz[:, 0]
    with pytest.raises(UnclassifiedLine, match="samples straddle"):
        type_classifier(np.vstack([points, at]), exact_curve, x, z)


def test_leaf_point_validation():
    with pytest.raises(ValueError):
        LeafPoint(1.0, 1.0, 2.0)
    p = LeafPoint(0.1, 2.0, 1.0)  # a clockwise triple keeps its order
    assert (p.x, p.y, p.z) == (0.1, 2.0, 1.0)


@pytest.mark.parametrize("x, y, z, name", [
    (math.nan, 1.0, 2.0, "x"), (0.1, math.inf, 2.0, "y"), (0.1, 1.0, -math.inf, "z"),
])
def test_leaf_point_refuses_non_finite_parameters(x, y, z, name):
    """NaN would pass the distinctness test, whose comparisons are false on it."""
    with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
        LeafPoint(x, y, z)


def test_leaf_triples_reduce_as_leaf_point_does():
    """The stacked reduction mod 2pi, which `LeafPoint` stores, is Python's float `%`
    bit for bit, also below 0 and above 2pi."""
    rng = np.random.default_rng(3)
    for m in (1, 9, 500):
        x, y, z = rng.uniform(-25.0, 25.0, (3, m))
        want = np.array([[v % (2 * math.pi) for v in t.tolist()] for t in (x, y, z)])
        assert np.array_equal(leaf_triples(x, y, z), want)
        p = LeafPoint(x[-1].item(), y[-1].item(), z[-1].item())
        assert [p.x, p.y, p.z] == want[:, -1].tolist()
    y = rng.uniform(-25.0, 25.0, 20)
    want = np.array([[-0.5 % (2 * math.pi)] * 20, [t % (2 * math.pi) for t in y.tolist()],
                     [7.0 % (2 * math.pi)] * 20])
    assert np.array_equal(leaf_triples(-0.5, y, 7.0), want)


@pytest.mark.parametrize("y, message", [
    ([1.0, 2.0, math.nan, 2.5, 3.0], "^leaf point parameter y must be finite; got nan$"),
    ([1.0, 2.0, 0.5 + 2 * math.pi, math.inf, 3.0], "^leaf point parameters must be distinct$"),
])
def test_leaf_triples_raise_the_first_bad_triples_error(y, message):
    """Triple 2 fails first (non-finite, or coincident with x mod 2pi); triple 3 fails too."""
    with pytest.raises(ValueError, match=message):
        leaf_triples(0.5, y, 4.0)
