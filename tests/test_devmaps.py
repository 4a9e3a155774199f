import itertools
import math
import re

import numpy as np
import pytest
import sympy

from curvehelpers import as_flag, interior_point, meet, realization
from flagflows.cli import DEV_LEAF, EXPECTED_COMPONENT
from flagflows.config import DegenerateMeet, PointOutsideSegment, UnclassifiedLine
from flagflows.devmaps import (
    MAP_TABLE,
    LeafPoint,
    _hull_side,
    _positive_triples,
    _random_triples,
    concavity_check,
    develop,
    develop_frames,
    involution,
    leaf_context,
    leaf_sweep,
    leaf_triples,
    omega_membership,
    phi_tan_minus,
    phi_tan_plus,
    phi_tr,
    psi_k,
    two_sheet_error,
    type_classifier,
)
from flagflows.flows import leafwise_distance
from flagflows.limitcurve import sample_boundary, second_boundary_intersection
from flagflows.projective import ProjectiveSubspace, annihilator, cross_meet, flag_frames, join
from flagflows.reps import (boundary_vector, bulge_deform, circular_gap, sym_power,
                            theta_of_vector)


# -- rational conic oracle ---------------------------------------------------
# flags of the conic s -> [s^2 : s : 1] at s = infinity, 1, 0, with exact
# integer spanning vectors; used to pin down the developing-map formulas
# on hand-checkable input.

def _conic_frame(point, tangent_dir):
    return flag_frames(np.column_stack([point, tangent_dir]).astype(float))


F_INF = _conic_frame([1, 0, 0], [0, 1, 0])
F_ONE = _conic_frame([1, 1, 1], [2, 1, 0])
F_ZERO = _conic_frame([0, 0, 1], [0, 1, 0])


def _angle(u, v) -> float:
    """Angle between the lines of R^3 along the vectors u and v."""
    return ProjectiveSubspace.point(u).principal_angle(ProjectiveSubspace.point(v))


def _develop(name, fx, fy, fz):
    """develop_frames on one triple of frames; returns one point and one line covector."""
    point, line = develop_frames(name, fx[None], fy[None], fz[None])
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
    other_x = _conic_frame([4, 2, 1], [4, 1, 0])  # s = 2
    assert _angle(_develop("tan+", other_x, F_ONE, F_ZERO)[0], point) < 1e-12


def test_iota_line_on_the_rational_conic():
    # pivot x2 ∩ z2 = (0,1,0); the line through y1 = (1,1,1) and the pivot
    # meets the conic again at s = -1
    pivot = meet([as_flag(F_INF)[2], as_flag(F_ZERO)[2]])
    assert pivot.principal_angle(ProjectiveSubspace.point([0.0, 1.0, 0.0])) < 1e-12
    line = join([as_flag(F_ONE)[1], pivot])
    assert abs(annihilator(line.basis)[:, 0] @ [1.0, -1.0, 1.0]) < 1e-12


def test_two_sheet_identity_on_the_rational_conic():
    # second hit of the tangent-map line from x = infinity is s = 1/2;
    # the deck transform evaluates the map at (1/2, 0, 1) with y, z swapped
    point, line = _develop("tan+", F_INF, F_ONE, F_ZERO)
    w_frame = _conic_frame([1, 2, 4], [1, 1, 0])  # s = 1/2, tangent (2s, 1, 0)
    assert abs(line @ w_frame[:, 0]) < 1e-12
    g_point, g_line = _develop("tan+", w_frame, F_ZERO, F_ONE)
    assert _angle(g_point, point) < 1e-12
    assert _angle(g_line, line) < 1e-12


# -- the cross-product kernel against join and an SVD meet ---------------------


def _join_meet_formula(curve, name, x, y, z):
    """The map `name` written out with join and meet of curve flags: (point, line)."""
    fx, fy, fz = (as_flag(curve.frames_at(t)) for t in (x, y, z))
    chord, pivot = join([fx[1], fz[1]]), meet([fx[2], fz[2]])
    if name == "tan-":  # tan+ after the involution of y
        fy = as_flag(curve.frames_at(
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
    on_chord = _conic_frame([1, 0, 1], [1, 0, -1])
    for name in ("tr", "psi3", "psi4"):  # each meets y2 with the chord
        with pytest.raises(DegenerateMeet):
            _develop(name, F_INF, on_chord, F_ZERO)
    with pytest.raises(DegenerateMeet):  # x = z: the chord is no line
        _develop("tr", F_INF, F_ONE, F_INF)


def test_develop_frames_refuses_reduced_frames():
    """Reduced frames (..., 3, 2) would have their tangent direction read as the line."""
    with pytest.raises(ValueError, match=r"^expected complete flag frames \(\.\.\., 3, 3\)"):
        _develop("tr", F_INF[:, :-1], F_ONE[:, :-1], F_ZERO[:, :-1])
    with pytest.raises(ValueError, match=r"got \(1, 3, 2\)$"):
        _develop("tan+", F_INF, F_ONE, F_ZERO[:, :-1])


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
    pivot = meet([as_flag(exact_curve.frames_at(t))[2] for t in (x, z)])
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
    fx, fy, fz = (as_flag(curve.frames_at(t)) for t in (x, y, z))
    m = curve.frames_at(y)[:, -1]

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
    """The (1, 2) segment lies in x^3, so y^3 just past x holds it numerically: its
    coordinate is NaN, and `image` and `leafwise_distance` refuse it."""
    ctx = leaf_context(exact_curve4, (1, 2), 0.6, 3.9)
    m = exact_curve4.frames_at([1.8, 0.6 + 1e-9])[..., -1]
    u = ctx.coordinate(m)
    assert np.isfinite(u[0]) and np.isnan(u[1])
    with pytest.raises(DegenerateMeet, match="^meet has dimension 2, expected 1$"):
        ctx.image(m)
    with pytest.raises(PointOutsideSegment, match=re.escape("y^{n-1} holds the segment")):
        leafwise_distance(ctx, m[0], m[1])


def test_simple_root_realization_ignores_z_in_dim_four(exact_curve4):
    x, y = 0.6, 1.8
    base = realization(exact_curve4, (1, 2), LeafPoint(x, y, 3.9))
    moved = realization(exact_curve4, (1, 2), LeafPoint(x, y, 4.8))
    assert base.principal_angle(moved) < 1e-10
    # closed form: x2 ∩ y3
    fx, fy = as_flag(exact_curve4.frames_at(x)), as_flag(exact_curve4.frames_at(y))
    assert base.principal_angle(meet([fx[2], fy[3]])) < 1e-10
    # the (1, 3) root does respond to z
    b13 = realization(exact_curve4, (1, 3), LeafPoint(x, y, 3.9))
    m13 = realization(exact_curve4, (1, 3), LeafPoint(x, y, 4.8))
    assert b13.principal_angle(m13) > 1e-3


# -- signs of the printed vectors --------------------------------------------
# dev-image prints the points and lines of the default leaf as vectors; a
# covector signed by LAPACK's Householder convention instead of the geometry
# made them jump to their antipodes partway along the leaf.


def _keeps_its_sign(rows) -> bool:
    """Whether consecutive rows of a stack of vectors pair positively."""
    return bool(np.all(np.sum(rows[1:] * rows[:-1], axis=-1) > 0))


@pytest.mark.parametrize("name", sorted(MAP_TABLE))
def test_map_images_keep_their_sign_along_the_dev_image_leaf(exact_curve, name):
    """The points of tr, tan+ and psi4 and the lines of tan+, psi3 and psi4 used to flip
    at y = 1.978, the point and line of tan- at 2.885."""
    x, z = DEV_LEAF
    points, lines = develop(exact_curve, name, x, leaf_sweep(x, z, 64), z)
    assert _keeps_its_sign(points) and _keeps_its_sign(lines)


@pytest.mark.parametrize("name", ["psi1", "psi2"])
def test_point_column_maps_keep_their_sign_on_a_sampled_curve(reference, name):
    """psi1 and psi2 read y1, whose sign on a sampled curve is each eigenvector's own; on
    the `--bulge -0.3` curve their points used to flip twice along the dev-image leaf."""
    curve = sample_boundary(bulge_deform(sym_power(reference, 3), -0.3), reference, 3)
    x, z = DEV_LEAF
    points, lines = develop(curve, name, x, leaf_sweep(x, z, 64), z)
    assert _keeps_its_sign(points) and _keeps_its_sign(lines)


@pytest.mark.parametrize("alpha", [(1, 2), (1, 3), (2, 3)])
@pytest.mark.parametrize("curve_name", ["exact_curve", "exact_curve4"])
def test_root_images_keep_their_sign_along_the_dev_image_leaf(request, curve_name, alpha):
    """The images of every root used to flip at y = 1.978 (n = 3) and 3.171 (n = 4)."""
    curve = request.getfixturevalue(curve_name)
    x, z = DEV_LEAF
    ys = leaf_sweep(x, z, 64)
    assert _keeps_its_sign(leaf_context(curve, alpha, x, z).image(curve.frames_at(ys)[..., -1]))


def test_image_is_signed_by_its_segment_not_by_the_covector(exact_curve4):
    """Negating the covector leaves every image as it was, a positive multiple of u a + b."""
    ctx = leaf_context(exact_curve4, (2, 3), 0.6, 3.9)
    m = exact_curve4.frames_at(np.linspace(0.8, 3.7, 9))[..., -1]
    images = ctx.image(m)
    assert images.tobytes() == ctx.image(-m).tobytes()
    along = ctx.coordinate(m)[:, None] * ctx.forward + ctx.backward
    assert np.all(np.sum(images * along, axis=1) > 0)


# -- membership and diagnostics ----------------------------------------------


def test_membership_of_an_interior_point(exact_curve):
    center = exact_curve.chart_points().mean(axis=0)
    point = exact_curve.chart @ center + exact_curve.positive_covector  # its lift to h.p = 1
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


def test_membership_is_a_projective_invariant(exact_curve, bulged_curve03):
    """Points and lines are read up to scale: every one multiplied by -3.0 keeps its label,
    on verify-all's seed-0 draws on a closed-form and on an interpolated curve."""
    for curve in (exact_curve, bulged_curve03):
        rng = np.random.default_rng(0)
        for name in MAP_TABLE:
            points, lines = develop(curve, name, *_random_triples(rng, 5))
            assert omega_membership(curve, -3.0 * points, -3.0 * lines).tolist() == \
                omega_membership(curve, points, lines).tolist()


def test_membership_of_a_point_at_infinity(exact_curve):
    """A point on the chart's line at infinity, h.p = 0, lies far outside the hull: its
    line to an interior point crosses the hull, and the line at infinity misses it."""
    h = exact_curve.positive_covector
    point = np.cross(h, exact_curve.frames_at(0.0)[:, 0])
    assert abs(point @ h) < 1e-16
    lines = np.stack([np.cross(point, interior_point(exact_curve)), h])
    assert omega_membership(exact_curve, np.stack([point, point]), lines).tolist() == ["2", "3"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: membership judges the polygon of the samples, and "
                          "the curve bulges out of it by up to 4.7e-6, so points in that band "
                          "read outside")
def test_membership_in_the_band_between_the_sample_polygon_and_the_curve(exact_curve):
    """xi^1 at the 1,023 interior sample-gap midpoints, scaled to h.p = 1 and moved 2e-6
    toward the mean of the aligned points, lies inside the conic: each is in component 1,
    with the chord through samples 0 and 512 as its line."""
    t, h, p = exact_curve.thetas, exact_curve.positive_covector, exact_curve.aligned_points
    mids = exact_curve.exact_eval((t[:-1] + t[1:]) / 2.0)[:, :, 0]
    mids /= (mids @ h)[:, None]
    inward = p.mean(axis=1) - mids
    points = mids + 2e-6 * inward / np.linalg.norm(inward, axis=1, keepdims=True)
    lines = np.broadcast_to(np.cross(p[:, 0], p[:, 512]), points.shape)
    assert omega_membership(exact_curve, points, lines).tolist() == ["1"] * len(points)


@pytest.mark.parametrize("name", ["sampled_curve", "bulged_curve", "bulged_curve03"])
def test_a_sampled_curve_runs_along_its_sample_polygon(request, name):
    """Interpolated xi^1 at interior fractions of every sample gap lies on the polygon of
    the `aligned_points`, to roundoff; moved 1e-6 toward their mean it is in component 1."""
    curve = request.getfixturevalue(name)
    t, h, p = curve.thetas, curve.positive_covector, curve.aligned_points
    widths = np.diff(t, append=t[0] + 2 * math.pi)
    for fraction in (0.1, 0.37, 0.5, 0.83):
        points = curve.frames_at(t + fraction * widths)[:, :, 0]
        assert np.abs(_hull_side(curve, points)).max() <= 1e-14
        points = points / (points @ h)[:, None]
        inward = p.mean(axis=1) - points
        points += 1e-6 * inward / np.linalg.norm(inward, axis=1, keepdims=True)
        lines = np.broadcast_to(np.cross(p[:, 0], p[:, len(t) // 2]), points.shape)
        assert omega_membership(curve, points, lines).tolist() == ["1"] * len(t)


def _verify_all_labels(curve, seed):
    """verify-all's membership labels and expected components at `seed`, in its order."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([omega_membership(curve, *develop(curve, name, *_random_triples(
        rng, 5))) for name in MAP_TABLE])
    return labels.tolist(), np.repeat([EXPECTED_COMPONENT[n] for n in MAP_TABLE], 5).tolist()


def test_membership_of_the_verify_all_draws_on_the_bulged_curve(bulged_curve03):
    """verify-all's seed-0 membership draws, in its order, on the `--bulge 0.3` curve: each
    lands in the component of its map."""
    labels, expected = _verify_all_labels(bulged_curve03, 0)
    assert labels == expected


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: at seed 2 the tan- draw 1 develops the wrong triple "
                          "(`involution` does not reverse it on the sampled curve) and reads "
                          "'1', and the psi2 draw 3 has x and z in one sample gap, so its "
                          "point lies on a flat edge of the sample polygon and reads 'boundary'")
def test_membership_of_the_seed_2_draws_on_the_bulged_curve(bulged_curve03):
    """verify-all's seed-2 membership draws on the `--bulge 0.3` curve: each lands in the
    component of its map."""
    labels, expected = _verify_all_labels(bulged_curve03, 2)
    assert labels == expected


def test_covering_checks_on_the_exact_curve(exact_curve):
    assert two_sheet_error(exact_curve, seed=0) < 1e-6


def test_concavity_of_the_leaf_family_image(exact_curve):
    assert concavity_check(exact_curve, 0.5, seed=0)["passed"]


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
    at = cross_meet(fx[:, -1], fz[:, -1]) if special == "pivot" else fz[:, 0]
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


@pytest.mark.parametrize("spread", [0.3, 0.8])
def test_positive_triples_are_the_scalar_uniform_draws(spread):
    """`_positive_triples` on a generator's (m, 3) uniforms gives, bit for bit, the triples
    that scalar `rng.uniform` draws of x, then the two gaps, give as `LeafPoint`s, and
    leaves the generator where those draws leave it; `_random_triples` takes the default
    spread."""
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    got = _positive_triples(rng.random((200, 3)), spread)
    want = []
    for _ in range(200):
        x = ref.uniform(0.0, 2 * math.pi)
        g1 = ref.uniform(spread, 2 * math.pi - 2 * spread)
        g2 = ref.uniform(spread, 2 * math.pi - g1 - spread)
        p = LeafPoint(x, x + g1, x + g1 + g2)
        want.append((p.x, p.y, p.z))
    assert np.array_equal(got, np.array(want).T)
    assert rng.random() == ref.random()
    if spread == 0.3:
        assert np.array_equal(_random_triples(np.random.default_rng(5), 200), got)


def test_leaf_point_gives_the_floats_and_errors_of_leaf_triples():
    """`LeafPoint`, on Python floats, and the stacked `leaf_triples` apply one rule: the same
    reduced floats, or the same error, on random triples with |theta| up to 1e6, on
    non-finite ones and on ones whose parameters coincide mod 2pi (exactly, within 1e-12
    or just outside it)."""
    rng = np.random.default_rng(8)
    triples = [tuple(t) for t in rng.uniform(-1e6, 1e6, (300, 3)).tolist()]
    triples += [tuple(t) for t in rng.uniform(-7.0, 7.0, (300, 3)).tolist()]
    for bad in (math.nan, math.inf, -math.inf):
        triples += [(bad, 1.0, 2.0), (0.5, bad, 2.0), (0.5, 1.0, bad), (bad, bad, 2.0)]
    gaps = (0.0, 2 * math.pi, 5e-13, -5e-13, 9e-13, 1.1e-12, 1.3e-12, -1.3e-12, 2e-12, 1e-9)
    for x, gap in itertools.product((0.5, 3.0, 6.0, -4.0, 1e5), gaps):
        triples += [(x, x + gap, x + 2.0), (x + 2.0, x, x + gap), (x, x + 2.0, x + gap)]
    outcomes = set()
    for t in triples:
        try:
            want = leaf_triples(*t)[:, 0].tolist()
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                LeafPoint(*t)
            outcomes.add(str(exc).split(";")[0].split(" must")[0])
        else:
            p = LeafPoint(*t)
            assert [p.x, p.y, p.z] == want and all(type(v) is float for v in (p.x, p.y, p.z))
            outcomes.add("ok")
    assert len(outcomes) == 5, outcomes  # valid, each of three parameters non-finite, distinct


@pytest.mark.parametrize("y, message", [
    ([1.0, 2.0, math.nan, 2.5, 3.0], "^leaf point parameter y must be finite; got nan$"),
    ([1.0, 2.0, 0.5 + 2 * math.pi, math.inf, 3.0], "^leaf point parameters must be distinct$"),
])
def test_leaf_triples_raise_the_first_bad_triples_error(y, message):
    """Triple 2 fails first (non-finite, or coincident with x mod 2pi); triple 3 fails too."""
    with pytest.raises(ValueError, match=message):
        leaf_triples(0.5, y, 4.0)
