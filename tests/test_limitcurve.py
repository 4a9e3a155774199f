import math

import numpy as np
import pytest
import sympy

from curvehelpers import collinear_degenerate_curve
from flagflows import limitcurve
from flagflows.config import (
    AmbiguousBracket,
    InsufficientSamples,
    NoSecondIntersection,
    NotDefinedHere,
    NotLoxodromic,
    RootFindFailure,
)
from flagflows.limitcurve import (
    BoundaryCurve,
    boundary_regularity_estimate,
    bracketed_root,
    convex_domain_checks,
    frenet_checks,
    interpolate,
    sample_boundary,
    second_boundary_intersection,
)
from flagflows.projective import Flag, ProjectiveSubspace, annihilator, cross_meet, join
from flagflows.reps import SurfaceGroupRep, bulge_deform, circular_gap, sym_power


def _symbolic_veronese(theta_expr):
    """Exact curve point and tangent direction in the symmetric-power basis."""
    u = -sympy.cos(theta_expr / 2)
    v = sympy.sin(theta_expr / 2)
    point = sympy.Matrix([u**2, 2 * u * v, v**2])
    tangent = sympy.diff(point, theta_expr)
    return point, tangent


def test_exact_curve_matches_symbolic_veronese(exact_curve):
    t = sympy.Symbol("theta")
    point_t, tangent_t = _symbolic_veronese(t)
    theta_sym = sympy.Rational(2, 3) * sympy.pi
    point = point_t.subs(t, theta_sym)
    tangent = tangent_t.subs(t, theta_sym)
    theta = float(theta_sym)
    f = Flag(exact_curve.frames_at(theta))
    p_exact = np.array([float(sympy.N(c, 30)) for c in point])
    assert f[1].principal_angle(ProjectiveSubspace.point(p_exact)) < 1e-12
    t_exact = np.array([float(sympy.N(c, 30)) for c in tangent])
    want_line = join([ProjectiveSubspace.point(p_exact), ProjectiveSubspace.point(t_exact)])
    assert f[2].principal_angle(want_line) < 1e-12


@pytest.mark.parametrize("name", ["exact_curve", "exact_curve4"])
def test_fuchsian_curve_frames_are_exact_evaluations(request, name):
    """The stored samples, read through `interpolate`, equal `exact_eval` at each sample
    alone, bit for bit; so do parameters a whole turn away."""
    curve = request.getfixturevalue(name)
    for thetas in (curve.thetas, curve.thetas + 2 * math.pi, curve.thetas - 2 * math.pi):
        got = interpolate(curve, thetas)
        assert got.tobytes() == curve.frames.tobytes()
    for theta, frame in zip(curve.thetas, curve.frames):
        assert frame.tobytes() == curve.exact_eval([theta])[0].tobytes()


@pytest.mark.parametrize("bulge, depth", [(0.0, 3), (0.3, 3), (0.5, 4)])
def test_sample_boundary_frames_equal_per_sample_flags(reference, monkeypatch, bulge, depth):
    """One stacked QR gives the frames of `Flag.from_basis_columns`, bit for bit."""
    rep = bulge_deform(sym_power(reference, 3), bulge)
    stacked = sample_boundary(rep, reference, depth)
    monkeypatch.setattr(limitcurve, "flag_frames", lambda columns: np.array(
        [Flag.from_basis_columns(c).frame for c in columns]))
    per_sample = sample_boundary(rep, reference, depth)
    assert stacked.thetas.tobytes() == per_sample.thetas.tobytes()
    assert stacked.frames.tobytes() == per_sample.frames.tobytes()


def _rep_moving_only_a1(presentation, a1):
    """A representation that sends a1 to `a1` and b1, a2, b2 to the identity."""
    n = a1.shape[0]
    return SurfaceGroupRep(presentation, n, {1: a1, 2: np.eye(n), 3: np.eye(n), 4: np.eye(n)})


def test_sample_boundary_names_the_first_failing_word(reference):
    """The ball is checked as a whole, but the error is the first failing word's.

    Words run a1, A1, b1, ...; for one word the reference check comes first.
    """
    pres = reference.presentation
    # the rep fails at a1, before the reference fails at b1
    with pytest.raises(NotLoxodromic, match="^word a1: eigenvalue moduli gap 0.000e"):
        sample_boundary(_rep_moving_only_a1(pres, np.eye(3)),
                        _rep_moving_only_a1(pres, reference.images[1]), 2)
    # the reference fails at a1, before the rep fails at b1
    with pytest.raises(NotLoxodromic, match="^reference image of a1 is not hyperbolic$"):
        sample_boundary(_rep_moving_only_a1(pres, np.diag([4.0, 1.0, 0.25])),
                        _rep_moving_only_a1(pres, np.eye(2)), 2)
    # both fail at a1: the reference check comes first
    with pytest.raises(NotLoxodromic, match="^reference image of a1 is not hyperbolic$"):
        sample_boundary(_rep_moving_only_a1(pres, np.eye(3)),
                        _rep_moving_only_a1(pres, np.eye(2)), 2)
    with pytest.raises(NotLoxodromic, match="^word b1: eigenvalue moduli gap 0.000e"):
        _rep_moving_only_a1(pres, np.diag([4.0, 1.0, 0.25])).check_loxodromy(2)


def test_interpolation_returns_stored_samples(sampled_curve):
    for i in (0, len(sampled_curve) // 2):
        f = Flag(sampled_curve.frames_at(float(sampled_curve.thetas[i])))
        assert np.array_equal(f.frame, sampled_curve.frames[i])


def test_interpolation_error_estimate_bounds_midpoint_error(sampled_curve,
                                                            exact_curve):
    worst = 0.0
    thetas = sampled_curve.thetas
    for i in range(0, len(sampled_curve) - 1, 7):
        mid = 0.5 * (thetas[i] + thetas[i + 1])
        got = Flag(sampled_curve.frames_at(float(mid)))[1]
        exact = Flag(exact_curve.frames_at(float(mid)))[1]
        worst = max(worst, got.principal_angle(exact))
    assert worst < 20.0 * sampled_curve.interp_error


def test_interpolation_ignores_the_signs_of_stored_frames(sampled_curve):
    frames = sampled_curve.frames.copy()
    frames[::2, :, 0] *= -1.0
    flipped = BoundaryCurve(sampled_curve.thetas, frames, sampled_curve.rep,
                            sampled_curve.reference)
    for mid in (sampled_curve.thetas[:-1:5] + sampled_curve.thetas[1::5]) / 2.0:
        for level in (1, 2):
            want = Flag(sampled_curve.frames_at(float(mid)))[level]
            assert Flag(flipped.frames_at(float(mid)))[level].principal_angle(want) < 1e-12


def test_second_boundary_intersection_recovers_chord_endpoint(exact_curve):
    t1, t2 = 1.0, 3.0
    line = join([Flag(exact_curve.frames_at(t1))[1], Flag(exact_curve.frames_at(t2))[1]])
    got = second_boundary_intersection(exact_curve, line, t1)
    assert abs(got - t2) < 1e-9


@pytest.mark.parametrize("name", ["exact_curve", "sampled_curve", "bulged_curve"])
def test_second_boundary_intersection_across_the_seam(request, name):
    """A chord from 5.9 to 0.05 crosses theta = 0, where raw sample parameters wrap."""
    curve = request.getfixturevalue(name)
    x, w = 5.9, 0.05
    line = join([Flag(curve.frames_at(x))[1], Flag(curve.frames_at(w))[1]])
    got = second_boundary_intersection(curve, line, x)
    assert min(circular_gap(w, got), circular_gap(got, w)) < 1e-11


def test_boundary_scan_needs_few_curve_points(exact_curve, monkeypatch):
    """Inside one stacked scan each chord evaluates at most 12 curve parameters: its
    known point, the two ends of its scan and one per solver step, counted by the
    brackets the solver refines; fixed-count bisection took about 40."""
    chords = ((1.0, 3.0), (0.2, 6.1), (4.0, 4.3), (2.5, 0.7))
    known, other = np.transpose(chords)
    lines = cross_meet(*exact_curve.frames_at([known, other])[..., 0])
    sizes, steps = [], []
    monkeypatch.setattr(limitcurve, "interpolate", lambda curve, thetas: sizes.append(
        np.size(thetas)) or interpolate(curve, thetas))
    solve = limitcurve.bracketed_root
    monkeypatch.setattr(limitcurve, "bracketed_root", lambda f, *args: solve(
        lambda x, rows: steps.append(rows) or f(x, rows), *args))
    got = second_boundary_intersection(exact_curve, lines, known)
    assert np.max(np.abs(got - other)) < 1e-11
    per_chord = 3 + np.bincount(np.concatenate(steps), minlength=len(chords))
    assert sum(sizes) == per_chord.sum()
    assert per_chord.max() <= 12


def test_bracketed_root_meets_its_tolerance_in_either_order():
    """Each bracket, in either order, meets its own tolerance; a root at an end is
    returned as given; the first bracket without a sign change is named."""
    roots = np.array([0.7390851332151607, 0.5671432904097838])  # cos x = x, exp(-x) = x

    def f(x, rows):
        return np.where(rows % 2 == 0, np.cos(x) - x, np.exp(-x) - x)

    a, b = np.array([0.0, 0.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.0, 0.0])
    rows = np.arange(4)
    for tol in (1e-12, np.array([1e-12, 1e-6, 1e-12, 1e-6])):
        got = bracketed_root(f, a, b, f(a, rows), f(b, rows), tol)
        assert np.all(np.abs(got - np.tile(roots, 2)) <= np.broadcast_to(tol, 4))
    # exact zeros at an end, and a bracket already narrower than its tolerance
    got = bracketed_root(f, [roots[0], 0.0, 0.5], [1.0, roots[1], 0.5 + 1e-13],
                         [0.0, 1.0, 1.0], [-1.0, 0.0, -1.0], 1e-12)
    assert got[0] == roots[0] and got[1] == roots[1]
    assert 0.5 <= got[2] <= 0.5 + 1e-13
    with pytest.raises(RootFindFailure, match=r"^no sign change on \[1, 2\]$"):
        bracketed_root(f, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [1.0, -1.0, -1.0],
                       [-1.0, -2.0, -3.0], 1e-12)


def test_stacked_scan_raises_the_error_of_the_first_failing_chord(bulged_curve03):
    """Seeded chords of the bulged depth-3 curve, of which the 15th finds two sign
    changes: the stacked scan raises what a loop over the chords raises, and the
    good chords alone solve to the loop's roots, bit for bit."""
    curve = bulged_curve03
    known, other = np.random.default_rng(0).uniform(0.0, 2 * math.pi, (20, 2)).T
    lines = cross_meet(*curve.frames_at([known, other])[..., 0])
    with pytest.raises(AmbiguousBracket) as looped:
        for line, t in zip(lines, known):
            second_boundary_intersection(curve, line, t)
    with pytest.raises(AmbiguousBracket) as stacked:
        second_boundary_intersection(curve, lines, known)
    assert str(stacked.value) == str(looped.value) == "2 sign changes; samples not convex here"
    good = np.arange(20) != 14
    want = [second_boundary_intersection(curve, line, t) for line, t in
            zip(lines[good], known[good])]
    assert np.array_equal(second_boundary_intersection(curve, lines[good], known[good]), want)


@pytest.mark.parametrize("name", ["sampled_curve", "bulged_curve"])
def test_stored_aligned_points_are_positive_multiples_of_aligned_point(request, name):
    # the sample scan of second_boundary_intersection reads signs off these columns;
    # negating the first column of every other frame keeps each flag but not its lift
    curve = request.getfixturevalue(name)
    frames = curve.frames.copy()
    frames[::2, :, 0] *= -1.0
    curve = BoundaryCurve(curve.thetas, frames, curve.rep, curve.reference)
    want = curve._lift(curve.frames[:, :, 0]).T
    got = curve._aligned_points / np.linalg.norm(curve._aligned_points, axis=0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_second_boundary_intersection_rejects_tangents(exact_curve):
    with pytest.raises(NoSecondIntersection):
        second_boundary_intersection(exact_curve, Flag(exact_curve.frames_at(1.0))[2], 1.0)


def test_second_boundary_intersection_reads_the_line_covector(exact_curve):
    """The hyperplane and its covector give the identical root, and a multiple of it
    the same root to rounding: 1e3 times a covector is rounded, and on random
    chords the root then moves by up to 6e-15."""
    line = join([Flag(exact_curve.frames_at(1.0))[1], Flag(exact_curve.frames_at(3.0))[1]])
    covector = annihilator(line.basis)[:, 0]
    want = second_boundary_intersection(exact_curve, line, 1.0)
    assert second_boundary_intersection(exact_curve, covector, 1.0) == want
    assert abs(second_boundary_intersection(exact_curve, 1e3 * covector, 1.0) - want) < 1e-14
    for bad in (covector[:2], covector[:, None]):
        with pytest.raises(ValueError, match="shape"):
            second_boundary_intersection(exact_curve, bad, 1.0)
    # normalized before the incidence check, so a small multiple still misses xi^1(1.0)
    off = annihilator(join([Flag(exact_curve.frames_at(t))[1] for t in (2.0, 3.0)]).basis)[:, 0]
    for scale in (1.0, 1e-9):
        with pytest.raises(ValueError, match="misses"):
            second_boundary_intersection(exact_curve, scale * off, 1.0)


def _frenet_by_loop(curve):
    """(min singular value, max osculation defect) of `frenet_checks`, one tuple at a time."""
    n, thetas, count = curve.n, curve.thetas, len(curve)
    min_sv, max_defect = np.inf, 0.0
    stride_base = max(1, count // 64)
    for stride in (stride_base, 2 * stride_base, 3 * stride_base + 1):
        for start in range(0, count, max(1, count // 32)):
            idx = [(start + k * stride) % count for k in range(n)]
            pts = [thetas[i] for i in idx]
            if all(min(circular_gap(p, q), circular_gap(q, p)) > 0.1
                   for a_i, p in enumerate(pts) for q in pts[a_i + 1:]):
                sv = np.linalg.svd(curve.frames[idx, :, 0].T, compute_uv=False)
                min_sv = min(min_sv, float(sv[-1]))
    for i in range(count):
        j = (i + 1) % count
        gap = circular_gap(thetas[i], thetas[j])
        if gap <= 0.5:
            q, _ = np.linalg.qr(curve.frames[[i, j], :, 0].T)
            s = np.linalg.svd(curve.frames[i].T @ q[:, :2], compute_uv=False)
            max_defect = max(max_defect, math.acos(min(1.0, float(s[-1]))) / gap)
    return min_sv, max_defect


@pytest.mark.parametrize("name", ["exact_curve", "exact_curve4", "sampled_curve",
                                  "bulged_curve", "flattened"])
def test_stacked_frenet_checks_equal_the_per_tuple_loop(request, reference, name):
    """Bit for bit: the stacked SVD and QR calls give each matrix's own result."""
    curve = (collinear_degenerate_curve(reference, 20) if name == "flattened"
             else request.getfixturevalue(name))
    report = frenet_checks(curve)
    assert (report.min_triple_singular_value, report.max_osculation_defect) == \
        _frenet_by_loop(curve)


def test_convex_domain_is_convex_with_supporting_tangents(exact_curve):
    assert convex_domain_checks(exact_curve) == (True, True)


def test_convex_domain_check_fails_on_permuted_samples(exact_curve):
    """Two neighbouring frames swapped: the same vertices, which the tangents still support,
    in an order whose turns change sign."""
    order = np.arange(len(exact_curve))
    order[[100, 101]] = order[[101, 100]]
    scrambled = BoundaryCurve(exact_curve.thetas, exact_curve.frames[order],
                              exact_curve.rep, exact_curve.reference)
    assert convex_domain_checks(scrambled) == (False, True)


def test_convex_domain_check_fails_on_a_tangent_off_the_curve(exact_curve):
    """One sample's line turned about its point, its frame still orthonormal."""
    frames = exact_curve.frames.copy()
    point, tangent = frames[100, :, 0], frames[100, :, 1]
    frames[100, :, 1] = math.cos(0.3) * tangent + math.sin(0.3) * np.cross(point, tangent)
    assert np.allclose(frames[100].T @ frames[100], np.eye(2))
    turned = BoundaryCurve(exact_curve.thetas, frames, exact_curve.rep, exact_curve.reference)
    assert convex_domain_checks(turned) == (True, False)


def _loop_interp_error(curve):
    """The interpolation error estimate as a loop over samples, one neighbour chord each."""
    p, t = curve._aligned_points, curve.thetas
    count = p.shape[1]
    gaps = np.array([circular_gap(t[i], t[(i + 1) % count]) for i in range(count)])
    curv = np.zeros(count)
    for i in range(count):
        g1, g2 = gaps[i - 1], gaps[i]
        lerp = (g2 * p[:, i - 1] + g1 * p[:, (i + 1) % count]) / (g1 + g2)
        curv[i] = 2.0 * np.linalg.norm(p[:, i] - lerp) / (g1 * g2)
    local = np.minimum(np.maximum(curv, np.roll(curv, -1)), np.percentile(curv, 90))
    return float(max((local * gaps**2 / 8.0).max(), 1e-12))


@pytest.mark.parametrize("name", ["sampled_curve", "bulged_curve", "bulged_curve03"])
def test_interp_error_equals_the_loop_over_samples(request, name):
    """The stacked norms sum their squares in another order than the dot product of one
    vector, so the two may round a few ulps apart (on these curves they are equal)."""
    curve = request.getfixturevalue(name)
    want = _loop_interp_error(curve)
    assert curve.interp_error == pytest.approx(want, rel=8 * np.finfo(float).eps, abs=0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_interpolate_refuses_a_non_finite_parameter(exact_curve, sampled_curve, theta):
    for curve in (exact_curve, sampled_curve):
        with pytest.raises(ValueError, match=f"theta must be finite; got {theta}"):
            interpolate(curve, theta)


@pytest.mark.parametrize("name", ["exact_curve", "exact_curve4", "sampled_curve"])
def test_hyperplane_covectors_equal_the_duals_of_the_samples(request, name):
    """Bit for bit: chart tangents and scans read these rows, so another
    kernel that moves their last bits would change the CLI's summaries."""
    curve = request.getfixturevalue(name)
    covectors = curve.hyperplane_covectors()
    for k, frame in enumerate(curve.frames):
        assert np.array_equal(covectors[k], annihilator(Flag(frame)[curve.n - 1].basis)[:, 0])


def test_regularity_estimate_is_two_for_the_conic(exact_curve):
    lo, hi = boundary_regularity_estimate(exact_curve)
    assert abs(lo - 2.0) < 0.1
    assert abs(hi - 2.0) < 0.1


def test_even_dimension_curve_has_no_global_chart(exact_curve4):
    assert exact_curve4.chart is None
    with pytest.raises(NotDefinedHere):
        exact_curve4.chart_points()
    # flag evaluation does not need the chart
    f = Flag(exact_curve4.frames_at(1.234))
    assert abs(annihilator(f[3].basis)[:, 0] @ f.point.basis[:, 0]) < 1e-12
    # the sample scan needs the chart too, though the aligned samples exist
    with pytest.raises(NotDefinedHere):
        second_boundary_intersection(exact_curve4, Flag(exact_curve4.frames_at(1.0))[3], 1.0)


def test_sample_boundary_requires_enough_words(reference):
    with pytest.raises(InsufficientSamples):
        sample_boundary(sym_power(reference, 3), reference, 1)


# -- stacked evaluation --------------------------------------------------------


@pytest.mark.parametrize("name", ["exact_curve", "bulged_curve03", "curve4"])
def test_stacked_interpolate_equals_one_parameter_at_a_time(request, exact_curve4, name):
    """Bit for bit, on parameters of any shape: the closed form, a sampled curve, and
    the n=4 samples without their closed form, whose levels 2 and 3 are aligned."""
    curve = request.getfixturevalue("exact_curve4" if name == "curve4" else name)
    if name == "curve4":
        curve = BoundaryCurve(curve.thetas, curve.frames, curve.rep, curve.reference)
    t = curve.thetas
    # three parameters in one gap, a stored sample, the gap across theta = 0
    thetas = [t[5] + frac * (t[6] - t[5]) for frac in (0.25, 0.5, 0.75)]
    thetas = np.array(thetas + [t[9], 0.5 * (t[-1] - 2 * math.pi + t[0])])
    thetas = np.stack([thetas, thetas + 2 * math.pi, thetas - 2 * math.pi])
    stacked = interpolate(curve, thetas)
    assert stacked.shape == thetas.shape + (curve.n, curve.n - 1)
    assert np.array_equal(stacked, [[interpolate(curve, theta) for theta in row]
                                    for row in thetas])
    assert np.array_equal(stacked[0, 3], curve.frames[9])


def test_shared_flag_data_is_read_only(bulged_curve03):
    f = Flag(bulged_curve03.frames_at(1.2345))
    with pytest.raises(ValueError):
        f.frame[0, 0] = 1.0
    with pytest.raises(ValueError):
        f[1].basis[0, 0] = 1.0
    with pytest.raises(ValueError):
        bulged_curve03.chart_points()[0, 0] = 1.0
