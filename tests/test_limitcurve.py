import contextlib
import math

import mpmath
import numpy as np
import pytest
import sympy

from curvehelpers import (as_flag, assert_signed_toward_hull, collinear_degenerate_curve,
                          interior_point, iterated_curve, procrustes_interpolate,
                          svd_annihilator)
from flagflows import cli, limitcurve
from flagflows.config import (
    AmbiguousBracket,
    InsufficientResolution,
    InsufficientSamples,
    NoSecondIntersection,
    NotDefinedHere,
    NotLoxodromic,
    PointOutsideDomain,
    RootFindFailure,
)
from flagflows.limitcurve import (
    MIN_SAMPLE_GAP,
    ROOT_TOL,
    BoundaryCurve,
    boundary_regularity_estimate,
    bracketed_root,
    convex_domain_checks,
    frenet_checks,
    interpolate,
    sample_boundary,
    second_boundary_intersection,
)
from flagflows.projective import (Flag, ProjectiveSubspace, annihilator, cross_meet,
                                  flag_frames, join)
from flagflows.reps import (SurfaceGroupRep, axis_thetas, bulge_deform, circular_gap,
                            loxodromic_eigensystem, sym_matrix, sym_power, theta_of_vector)
from flagflows.words import enumerate_conjugacy_classes


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
    f = as_flag(exact_curve.frames_at(theta))
    p_exact = np.array([float(sympy.N(c, 30)) for c in point])
    assert f[1].principal_angle(ProjectiveSubspace.point(p_exact)) < 1e-12
    t_exact = np.array([float(sympy.N(c, 30)) for c in tangent])
    want_line = join([ProjectiveSubspace.point(p_exact), ProjectiveSubspace.point(t_exact)])
    assert f[2].principal_angle(want_line) < 1e-12


@pytest.mark.parametrize("name", ["exact_curve", "exact_curve4"])
def test_fuchsian_curve_frames_are_exact_evaluations(request, name):
    """The stored samples, read through `interpolate` at them or a whole turn away, are the
    same floats; each is `exact_eval` at its sample alone, bit for bit up to the sign of the
    last column, which at odd n is positive on the hull's interior."""
    curve = request.getfixturevalue(name)
    for thetas in (curve.thetas, curve.thetas + 2 * math.pi, curve.thetas - 2 * math.pi):
        got = interpolate(curve, thetas)
        assert got.tobytes() == curve.frames.tobytes()
    alone = np.array([curve.exact_eval([theta])[0] for theta in curve.thetas])
    assert_signed_toward_hull(curve, curve.frames, alone)


def _level_sines(a, b):
    """Sines (..., n-1) of the largest principal angle between levels k of two stacks of
    frames (..., n, n): the spectral norm of b_k - a_k a_k^T b_k, k = 1, ..., n-1."""
    sines = []
    for k in range(1, a.shape[-1]):
        ak, bk = a[..., :k], b[..., :k]
        sines.append(np.linalg.norm(bk - ak @ (np.swapaxes(ak, -1, -2) @ bk), ord=2, axis=(-2, -1)))
    return np.stack(sines, axis=-1)


@pytest.mark.parametrize("name", ["exact_curve", "exact_curve4"])
def test_fuchsian_evaluator_equals_each_rotation_built_alone(request, name):
    """On the stored parameters and on 200 random ones, a stacked call gives each frame the
    bytes of a call at its parameter alone, and each level is within 16 eps (sine of the
    largest principal angle, read 4.6 eps at n=3 and 6.4 eps at n=4, float residuals
    included) of the frame of the SL2 rotation's `sym_matrix` alone, with the same column
    signs."""
    curve = request.getfixturevalue(name)
    n = curve.n
    thetas = np.append(curve.thetas, np.random.default_rng(6).uniform(-20.0, 20.0, 200))
    got = curve.exact_eval(thetas)
    alone = []
    for theta, frame in zip(thetas.tolist(), got):
        assert frame.tobytes() == curve.exact_eval([theta])[0].tobytes()
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        alone.append(flag_frames(sym_matrix(np.array([[-c, -s], [s, -c]]), n)[..., :n - 1]))
    alone = np.array(alone)
    assert np.max(_level_sines(alone, got)) < 16 * np.finfo(float).eps
    assert np.all(np.sum(got * alone, axis=-2) > 0.5)


def _mp_fuchsian_levels(theta, n):
    """50-digit orthonormal (n, n-1) basis of the Fuchsian flag at theta: Gram-Schmidt on the
    first n-1 columns of Sym^(n-1) of the rotation [[-c, -s], [s, -c]], c, s = cos, sin of
    theta / 2, whose column k is the coefficients of (-c x + s y)^(n-1-k) (-s x - c y)^k in
    the basis x^(n-1-i) y^i."""
    with mpmath.workdps(50):
        half = mpmath.mpf(theta) / 2
        c, s = mpmath.cos(half), mpmath.sin(half)
        columns = []
        for k in range(n - 1):
            poly = [mpmath.mpf(1)]
            for factor in [(-c, s)] * (n - 1 - k) + [(-s, -c)] * k:
                poly = [(poly[i] if i < len(poly) else 0) * factor[0]
                        + (poly[i - 1] * factor[1] if i else 0) for i in range(len(poly) + 1)]
            v = mpmath.matrix(poly)
            for u in columns:
                v -= (u.T * v)[0] * u
            columns.append(v / mpmath.norm(v))
        return columns


@pytest.mark.parametrize("name", ["exact_curve", "exact_curve4"])
def test_fuchsian_evaluator_matches_a_50_digit_symmetric_power(request, name):
    """On 20 random parameters each level of `exact_eval` is within 16 eps (sine of the
    largest principal angle, bounded by a Frobenius norm at 50 digits; read 2.6 eps at n=3
    and 4.6 eps at n=4) of Gram-Schmidt on the symmetric power of the rotation at 50
    digits; at n=3 the unit xi^1 lies within 8 eps (read 2.25) on the conic
    4 p0 p2 = p1^2 of `sym_matrix`'s monomial basis."""
    curve = request.getfixturevalue(name)
    n = curve.n
    thetas = np.random.default_rng(11).uniform(-20.0, 20.0, 20)
    worst = 0.0
    for theta, frame in zip(thetas.tolist(), curve.exact_eval(thetas)):
        columns = _mp_fuchsian_levels(theta, n)
        with mpmath.workdps(50):
            f = mpmath.matrix(frame.tolist())
            for k in range(1, n):
                fk, qk = f[:, :k], mpmath.matrix(n, k)
                for j in range(k):
                    qk[:, j] = columns[j]
                worst = max(worst, float(mpmath.mnorm(qk - fk * (fk.T * qk), "f")))
        if n == 3:
            p = frame[:, 0]
            assert abs(4.0 * p[0] * p[2] - p[1] ** 2) < 8 * np.finfo(float).eps
    assert worst < 16 * np.finfo(float).eps


@pytest.mark.parametrize("bulge, depth", [(0.0, 3), (0.3, 3), (0.5, 4)])
def test_sample_boundary_frames_equal_per_sample_flags(reference, monkeypatch, bulge, depth):
    """One stacked QR gives the frames of `Flag.from_basis_columns` and the
    `annihilator` of each sample, bit for bit."""
    rep = bulge_deform(sym_power(reference, 3), bulge)
    stacked = sample_boundary(rep, reference, depth)
    monkeypatch.setattr(limitcurve, "flag_frames", lambda columns: np.array(
        [np.column_stack([Flag.from_basis_columns(c).frame, annihilator(c)]) for c in columns]))
    per_sample = sample_boundary(rep, reference, depth)
    assert stacked.thetas.tobytes() == per_sample.thetas.tobytes()
    assert stacked.frames.tobytes() == per_sample.frames.tobytes()


@pytest.mark.parametrize("n, bulge", [(3, 0.0), (4, 0.0), (3, 0.3)],
                         ids=["exact3", "exact4", "bulge0.3"])
def test_curve_frames_are_complete_orthonormal_frames(monkeypatch, n, bulge):
    """On the CLI's curves, the stored and the interpolated frames are (..., n, n) and
    orthonormal, the first n-1 columns of each are the reduced QR of its columns bit for
    bit, and the trailing columns frames[..., k:] annihilate the levels frames[..., :k].
    The curve keeps the QR's frames, with the last column signed toward the hull at odd n."""
    calls = []

    def recording(columns):
        calls.append((columns, flag_frames(columns)))
        return calls[-1][1]

    monkeypatch.setattr(limitcurve, "flag_frames", recording)
    curve = cli.build_curve(dict(cli.DEFAULT_CONFIG, n=n, bulge=bulge))
    gaps = np.diff(np.append(curve.thetas, curve.thetas[0] + 2 * math.pi))
    between = curve.frames_at(curve.thetas + gaps / 3.0)
    assert len(calls) == 2  # the samples, then the parameters between them
    assert_signed_toward_hull(curve, curve.frames, calls[0][1])
    assert_signed_toward_hull(curve, between, calls[1][1])
    for columns, frames in calls:
        assert frames.shape == (len(curve), n, n)
        assert frames[..., :n - 1].tobytes() == np.linalg.qr(columns)[0].tobytes()
        assert np.max(np.abs(np.swapaxes(frames, 1, 2) @ frames - np.eye(n))) < 1e-14
        for k in range(1, n):
            assert np.max(np.abs(np.swapaxes(frames[..., k:], 1, 2) @ frames[..., :k])) < 1e-14


@pytest.mark.parametrize("bulge, depth, flips", [(0.0, 3, (1.954, 4.329)),
                                                  (0.3, 3, (1.945, 4.235)),
                                                  (0.3, 4, (1.945, 4.235))],
                         ids=["exact3", "bulge0.3", "bulge0.3-ball4"])
def test_covectors_are_positive_on_the_hull_interior(bulge, depth, flips):
    """Stored and interpolated covectors pair positively with an interior point, also
    next to the parameters `flips` where the QR's last column changes sign."""
    curve = cli.build_curve(dict(cli.DEFAULT_CONFIG, bulge=bulge, word_ball=depth))
    thetas = np.concatenate([np.linspace(0.0, 2 * math.pi, 2001),
                             *(np.linspace(f - 0.01, f + 0.01, 41) for f in flips)])
    inside = interior_point(curve)
    assert np.all(curve.frames[:, :, -1] @ inside > 0)
    assert np.all(curve.frames_at(thetas)[..., -1] @ inside > 0)


def test_boundary_curve_refuses_reduced_frames(exact_curve, exact_curve4):
    """A frame of n-1 columns has no covector column to read."""
    for curve in (exact_curve, exact_curve4):
        with pytest.raises(ValueError, match=r"^expected complete flag frames \(N, (3, 3|4, 4)\)"):
            BoundaryCurve(curve.thetas, curve.frames[..., :-1], curve.rep, curve.reference)


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
    with pytest.raises(NotLoxodromic, match="^word a1: reference image is not hyperbolic$"):
        sample_boundary(_rep_moving_only_a1(pres, np.diag([4.0, 1.0, 0.25])),
                        _rep_moving_only_a1(pres, np.eye(2)), 2)
    # both fail at a1: the reference check comes first
    with pytest.raises(NotLoxodromic, match="^word a1: reference image is not hyperbolic$"):
        sample_boundary(_rep_moving_only_a1(pres, np.eye(3)),
                        _rep_moving_only_a1(pres, np.eye(2)), 2)
    with pytest.raises(NotLoxodromic, match="^word b1: eigenvalue moduli gap 0.000e"):
        _rep_moving_only_a1(pres, np.diag([4.0, 1.0, 0.25])).check_loxodromy(2)


def test_interpolation_returns_stored_samples(sampled_curve):
    for i in (0, len(sampled_curve) // 2):
        frame = sampled_curve.frames_at(float(sampled_curve.thetas[i]))
        assert np.array_equal(frame, sampled_curve.frames[i])


def test_interpolation_error_estimate_bounds_midpoint_error(sampled_curve,
                                                            exact_curve):
    worst = 0.0
    thetas = sampled_curve.thetas
    for i in range(0, len(sampled_curve) - 1, 7):
        mid = 0.5 * (thetas[i] + thetas[i + 1])
        got = as_flag(sampled_curve.frames_at(float(mid)))[1]
        exact = as_flag(exact_curve.frames_at(float(mid)))[1]
        worst = max(worst, got.principal_angle(exact))
    assert worst < 20.0 * sampled_curve.interp_error


def test_interpolation_ignores_the_signs_of_stored_frames(sampled_curve):
    frames = sampled_curve.frames.copy()
    frames[::2, :, 0] *= -1.0
    flipped = BoundaryCurve(sampled_curve.thetas, frames, sampled_curve.rep,
                            sampled_curve.reference)
    for mid in (sampled_curve.thetas[:-1:5] + sampled_curve.thetas[1::5]) / 2.0:
        for level in (1, 2):
            want = as_flag(sampled_curve.frames_at(float(mid)))[level]
            assert as_flag(flipped.frames_at(float(mid)))[level].principal_angle(want) < 1e-12


def test_second_boundary_intersection_recovers_chord_endpoint(exact_curve):
    t1, t2 = 1.0, 3.0
    line = join([as_flag(exact_curve.frames_at(t))[1] for t in (t1, t2)])
    got = second_boundary_intersection(exact_curve, line, t1)
    assert abs(got - t2) < 1e-9


@pytest.mark.parametrize("name", ["exact_curve", "sampled_curve", "bulged_curve"])
def test_second_boundary_intersection_across_the_seam(request, name):
    """A chord from 5.9 to 0.05 crosses theta = 0, where raw sample parameters wrap."""
    curve = request.getfixturevalue(name)
    x, w = 5.9, 0.05
    line = join([as_flag(curve.frames_at(x))[1], as_flag(curve.frames_at(w))[1]])
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
    """Seeded chords of the bulged depth-3 curve, some of which fail their scan (a
    few percent of chords find two sign changes there): the stacked scan raises
    what a loop over the chords raises first, and the good chords alone solve to
    the loop's roots, bit for bit."""
    curve = bulged_curve03
    known, other = np.random.default_rng(0).uniform(0.0, 2 * math.pi, (20, 2)).T
    lines = cross_meet(*curve.frames_at([known, other])[..., 0])
    looped = []
    for line, t in zip(lines, known):
        try:
            looped.append(second_boundary_intersection(curve, line, t))
        except (AmbiguousBracket, NoSecondIntersection) as exc:
            looped.append(exc)
    failing = [isinstance(x, Exception) for x in looped]
    assert any(failing)
    first = looped[failing.index(True)]
    with pytest.raises(type(first)) as stacked:
        second_boundary_intersection(curve, lines, known)
    assert str(stacked.value) == str(first)
    good = ~np.array(failing)
    want = [x for x, bad in zip(looped, failing) if not bad]
    assert np.array_equal(second_boundary_intersection(curve, lines[good], known[good]), want)


def _solved_rows(monkeypatch):
    """The number of brackets each `bracketed_root` call of a scan receives, as a list."""
    sizes, solve = [], limitcurve.bracketed_root
    monkeypatch.setattr(limitcurve, "bracketed_root", lambda f, a, *args: sizes.append(
        np.size(a)) or solve(f, a, *args))
    return sizes


def _line_residuals(curve, lines, thetas):
    """|c . xi^1(theta)| of unit covectors c and unit xi^1 at the parameters."""
    c = lines / np.linalg.norm(lines, axis=1, keepdims=True)
    return np.abs(np.sum(c * curve.frames_at(thetas)[..., 0], axis=-1))


def test_closed_form_roots_lie_on_their_lines(bulged_curve03, monkeypatch):
    """Seeded chords of the sampled bulge-0.3 curve solve each bracket between two samples
    in closed form: xi^1 at the returned parameter lies on its line to roundoff, and the
    root is within the root tolerance of the one the iterated scan finds."""
    curve = bulged_curve03
    known, other = np.random.default_rng(1).uniform(0.0, 2 * math.pi, (40, 2)).T
    gap = np.searchsorted(curve.thetas, np.stack([known, other]))
    known, other = known[gap[0] != gap[1]], other[gap[0] != gap[1]]  # no chord along a gap
    lines = cross_meet(*curve.frames_at([known, other])[..., 0])
    sizes = _solved_rows(monkeypatch)
    got = second_boundary_intersection(curve, lines, known)
    assert sizes == []  # no bracket iterated
    assert np.max(_line_residuals(curve, lines, got)) <= 1e-14
    want = second_boundary_intersection(iterated_curve(curve), lines, known)
    assert np.max(np.abs(got - want)) <= ROOT_TOL
    assert np.max(np.abs(got - other)) <= ROOT_TOL


def test_brackets_at_known_keep_the_iterated_roots(bulged_curve03, exact_curve, monkeypatch):
    """On a sampled curve a bracket with an end 1e-7 from known iterates, and its root is
    the iterated scan's, bit for bit: here a sample lies 5e-8 after known (before, for the
    second chord) and takes the value of the scan's end there, and the root is in the gap
    beyond it.  A chord whose known is a sample parameter replaces that sample only, and
    its far bracket is solved in closed form, within ROOT_TOL of the iterated root.  On
    the exact curve every bracket iterates."""
    curve, t = bulged_curve03, bulged_curve03.thetas
    known = np.array([t[10] - 5e-8, t[20] + 5e-8, t[30]])
    other = np.array([t[10] + 0.4 * (t[11] - t[10]), t[20] - 0.4 * (t[20] - t[19]),
                      t[33] + 0.3 * (t[34] - t[33])])
    lines = cross_meet(*curve.frames_at([known, other])[..., 0])
    sizes = _solved_rows(monkeypatch)
    got = second_boundary_intersection(curve, lines, known)
    assert sizes[0] == 2  # the two chords at a replaced sample
    want = second_boundary_intersection(iterated_curve(curve), lines, known)
    assert np.array_equal(got[:2], want[:2])
    assert abs(got[2] - want[2]) <= ROOT_TOL and abs(got[2] - other[2]) <= ROOT_TOL
    # a chord along the segment of one gap: the residual there is roundoff, and here its
    # one sign change lies in the bracket from known + 1e-7 to the gap's upper sample
    sizes.clear()
    known, other = t[118] + np.array([0.1, 0.8]) * (t[119] - t[118])
    line = cross_meet(*curve.frames_at([known, other])[..., 0])
    got = second_boundary_intersection(curve, line, known)
    assert sizes == [1] and known < got < t[119]
    assert got == second_boundary_intersection(iterated_curve(curve), line, known)
    sizes.clear()
    chords = np.array([(1.0, 3.0), (0.2, 6.1), (4.0, 4.3)]).T
    lines = cross_meet(*exact_curve.frames_at(chords)[..., 0])
    got = second_boundary_intersection(exact_curve, lines, chords[0])
    assert sizes[0] == 3 and np.max(np.abs(got - chords[1])) < 1e-11


def test_closed_form_and_iterated_roots_stack(bulged_curve03):
    """Each chord's root is the same float alone and in a stack mixing closed-form rows
    with iterated ones."""
    curve, t = bulged_curve03, bulged_curve03.thetas
    known = np.array([t[10] - 5e-8, 1.0, t[20] + 5e-8, 4.0, t[30]])
    other = np.array([t[10] + 0.4 * (t[11] - t[10]), 3.0, t[20] - 0.4 * (t[20] - t[19]),
                      5.5, 0.5])
    lines = cross_meet(*curve.frames_at([known, other])[..., 0])
    stacked = second_boundary_intersection(curve, lines, known)
    assert np.array_equal(stacked, [second_boundary_intersection(curve, line, k)
                                    for line, k in zip(lines, known)])


@pytest.mark.parametrize("name", ["bulged_curve03", "curve4"])
def test_interpolate_reads_the_gap_table(request, exact_curve4, name):
    """Bit for bit the per-call Procrustes blend, at random parameters, parameters 2e-13
    from a sample, and in the gap across theta = 0; at a sample parameter, and within
    1e-13 of one, the stored frame.  The n=4 samples without their closed form align
    levels 2 and 3 by SVD."""
    curve = request.getfixturevalue("exact_curve4" if name == "curve4" else name)
    if name == "curve4":
        curve = BoundaryCurve(curve.thetas, curve.frames, curve.rep, curve.reference)
    t = curve.thetas
    thetas = np.concatenate([np.random.default_rng(3).uniform(0.0, 2 * math.pi, 50),
                             t[::17] + 2e-13, t[5::17] - 2e-13,
                             [0.5 * (t[-1] - 2 * math.pi + t[0]), 2 * math.pi - 1e-9, 1e-9]])
    assert np.array_equal(interpolate(curve, thetas), procrustes_interpolate(curve, thetas))
    at = np.concatenate([t[::9], t[1::9] + 5e-14, t[2::9] - 5e-14])
    assert np.array_equal(interpolate(curve, at), curve.frames[np.r_[0:len(t):9, 1:len(t):9,
                                                                      2:len(t):9]])


@pytest.mark.parametrize("name", ["sampled_curve", "bulged_curve"])
def test_stored_aligned_points_are_positive_multiples_of_aligned_point(request, name):
    # chart_points reads these columns, and the scan the samples signed by _lift;
    # negating the first column of every other frame keeps each flag but not its lift
    curve = request.getfixturevalue(name)
    frames = curve.frames.copy()
    frames[::2, :, 0] *= -1.0
    curve = BoundaryCurve(curve.thetas, frames, curve.rep, curve.reference)
    want = curve._lift(curve.frames[:, :, 0]).T
    got = curve.aligned_points / np.linalg.norm(curve.aligned_points, axis=0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_second_boundary_intersection_rejects_tangents(exact_curve):
    with pytest.raises(NoSecondIntersection):
        second_boundary_intersection(exact_curve, as_flag(exact_curve.frames_at(1.0))[2],
                                     1.0)


def test_second_boundary_intersection_reads_the_line_covector(exact_curve):
    """The hyperplane and its covector give the identical root, and a multiple of it
    the same root to rounding: 1e3 times a covector is rounded, and on random
    chords the root then moves by up to 6e-15."""
    line = join([as_flag(exact_curve.frames_at(t))[1] for t in (1.0, 3.0)])
    covector = annihilator(line.basis)[:, 0]
    want = second_boundary_intersection(exact_curve, line, 1.0)
    assert second_boundary_intersection(exact_curve, covector, 1.0) == want
    assert abs(second_boundary_intersection(exact_curve, 1e3 * covector, 1.0) - want) < 1e-14
    for bad in (covector[:2], covector[:, None]):
        with pytest.raises(ValueError, match="shape"):
            second_boundary_intersection(exact_curve, bad, 1.0)
    # normalized before the incidence check, so a small multiple still misses xi^1(1.0)
    off = annihilator(join([as_flag(exact_curve.frames_at(t))[1]
                            for t in (2.0, 3.0)]).basis)[:, 0]
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
            s = np.linalg.svd(curve.frames[i, :, :n - 1].T @ q[:, :2], compute_uv=False)
            max_defect = max(max_defect, math.acos(min(1.0, float(s[-1]))) / gap)
    return min_sv, max_defect


@pytest.mark.parametrize("name", ["exact_curve", "exact_curve4", "sampled_curve",
                                  "bulged_curve", "flattened"])
def test_stacked_frenet_checks_equal_the_per_tuple_loop(request, reference, name):
    """Bit for bit: the stacked SVD and QR calls give each matrix's own result."""
    curve = (collinear_degenerate_curve(reference, 20) if name == "flattened"
             else request.getfixturevalue(name))
    report = frenet_checks(curve)
    assert (report["min_triple_singular_value"], report["max_osculation_defect"]) == \
        _frenet_by_loop(curve)


def test_convex_domain_is_convex_with_supporting_tangents(exact_curve):
    assert convex_domain_checks(exact_curve) == {"passed": True, "is_convex": True,
                                                 "tangents_support": True}


def test_convex_domain_check_fails_on_permuted_samples(exact_curve):
    """Two neighbouring frames swapped: the same vertices, which the tangents still support,
    in an order whose turns change sign."""
    order = np.arange(len(exact_curve))
    order[[100, 101]] = order[[101, 100]]
    scrambled = BoundaryCurve(exact_curve.thetas, exact_curve.frames[order],
                              exact_curve.rep, exact_curve.reference)
    assert convex_domain_checks(scrambled) == {"passed": False, "is_convex": False,
                                               "tangents_support": True}


def test_convex_domain_check_fails_on_a_tangent_off_the_curve(exact_curve):
    """One sample's line turned about its point, its frame still orthonormal."""
    frames = exact_curve.frames.copy()
    point, tangent, covector = frames[100].T
    frames[100, :, 1:] = np.column_stack([math.cos(0.3) * tangent + math.sin(0.3) * covector,
                                          math.cos(0.3) * covector - math.sin(0.3) * tangent])
    assert np.allclose(frames[100].T @ frames[100], np.eye(3))
    turned = BoundaryCurve(exact_curve.thetas, frames, exact_curve.rep, exact_curve.reference)
    assert convex_domain_checks(turned) == {"passed": False, "is_convex": True,
                                            "tangents_support": False}


def test_convex_domain_turns_keep_their_sign_on_close_samples(reference):
    """At word ball 5 neighbouring samples lie 3e-6 apart, where det(p_k, p_k+1, p_k+2)
    of the samples themselves flips sign by roundoff near 4e-16; read from the steps
    between samples, every turn keeps its sign."""
    curve = sample_boundary(bulge_deform(sym_power(reference, 3), 0.3), reference, 5)
    assert convex_domain_checks(curve)["is_convex"]


def _loop_interp_error(curve):
    """The interpolation error estimate as a loop over samples, one neighbour chord each."""
    p, t = curve.aligned_points, curve.thetas
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
    """The last frame column, which chart tangents and scans read as the covector of
    the hyperplane, spans the SVD dual of the sample's first n-1 columns."""
    curve = request.getfixturevalue(name)
    covectors = curve.frames[:, :, -1]
    for k, frame in enumerate(curve.frames):
        dual = svd_annihilator(frame[:, :-1])[:, 0]
        assert np.linalg.norm(covectors[k] - (covectors[k] @ dual) * dual) < 8 * np.finfo(float).eps


def test_regularity_estimate_is_two_for_the_conic(exact_curve):
    lo, hi = boundary_regularity_estimate(exact_curve)
    assert abs(lo - 2.0) < 0.1
    assert abs(hi - 2.0) < 0.1


def _regularity_fits_by_base_point(curve):
    """The per-base-point loop of `boundary_regularity_estimate`: the base point and the
    (log offset, log height) arrays of each fit."""
    pts = curve.chart_points()
    count = pts.shape[0]
    window = max(8, count // 16)
    fits = []
    for b_idx in range(0, count, max(1, count // limitcurve.REGULARITY_BASE_POINTS)):
        normal = curve.line_to_chart(curve.frames[b_idx, :, -1])[:-1]
        rel = pts[[(b_idx + k) % count for k in range(-window, window + 1) if k != 0]] - pts[b_idx]
        h = rel @ normal
        s = np.linalg.norm(rel - np.outer(h, normal), axis=1)
        mask = (h > 1e-14) & (np.abs(s) > 1e-10)
        if mask.sum() < 8:
            continue
        ls, lh = np.log(np.abs(s[mask])), np.log(h[mask])
        if ls.max() - ls.min() < math.log(10.0):
            continue
        fits.append((b_idx, ls, lh))
    return fits


def _assert_regularity_fits_equal_the_loop(curve):
    """The stacked fit keeps the loop's base points, each exponent is within 16 eps relative
    of `np.polyfit` on the loop's arrays, and the estimate is their min and max; returns the
    loop's fits."""
    want = _regularity_fits_by_base_point(curve)
    slopes = np.array([np.polyfit(ls, lh, 1)[0] for _, ls, lh in want])
    bases, exponents = limitcurve._regularity_exponents(curve)
    assert bases.tolist() == [b for b, _, _ in want]
    assert np.max(np.abs(exponents - slopes) / np.abs(slopes)) < 16 * np.finfo(float).eps
    assert boundary_regularity_estimate(curve) == (exponents.min(), exponents.max())
    return want


@pytest.mark.parametrize("bulge, depth", [(0.0, None), (0.3, 3), (0.3, 4)])
def test_regularity_fits_equal_the_per_base_point_loop(reference, bulge, depth):
    """On the exact curve and the `--bulge 0.3` curves of word balls 3 and 4, at least 40
    base points fit, as in the loop (exponents read within 5 eps of `np.polyfit`)."""
    rep = bulge_deform(sym_power(reference, 3), bulge)
    curve = sample_boundary(rep, reference, depth) if depth else limitcurve.fuchsian_curve(
        reference, 3)
    assert len(_assert_regularity_fits_equal_the_loop(curve)) >= 40


def test_regularity_fits_drop_a_flat_arc_as_the_loop_does(reference):
    """On a curve flattened onto a chord along one arc (256 even samples) the heights on the
    chord are dropped: base points on it fit nothing, and some fits keep only part of their
    window, yet every fit is the loop's."""
    curve = collinear_degenerate_curve(reference, 256)
    want = _assert_regularity_fits_equal_the_loop(curve)
    window = max(8, len(curve) // 16)
    assert 40 <= len(want) < limitcurve.REGULARITY_BASE_POINTS  # of 64 base points
    assert any(ls.size < 2 * window for _, ls, _ in want)


@pytest.mark.parametrize("count, refusal", [
    (127, pytest.raises(InsufficientSamples, match="need at least 128 samples")),
    (128, pytest.raises(InsufficientResolution, match="no base point spans a decade")),
    (160, contextlib.nullcontext())])
def test_regularity_estimate_refuses_too_few_or_too_close_samples(exact_curve, count,
                                                                  refusal):
    """Evenly spaced Fuchsian samples: 127 are too few, and at 128 the window of 8 offsets
    spans less than a decade at every base point; 160 give 10 offsets, a decade."""
    thetas = (np.arange(count) + 0.5) * 2 * math.pi / count
    curve = BoundaryCurve(thetas, exact_curve.exact_eval(thetas), exact_curve.rep,
                          exact_curve.reference, exact_eval=exact_curve.exact_eval)
    with refusal:
        lo, hi = boundary_regularity_estimate(curve)
        assert abs(lo - 2.0) < 0.1 and abs(hi - 2.0) < 0.1


@pytest.mark.parametrize("name", ["exact_curve", "bulged_curve03"])
def test_chart_roundtrip(request, name):
    """The chart is the plane h.p = 1 in an orthonormal frame: chart coordinates and the
    lift E u + h invert each other on the aligned points, and chart distances are plane
    distances; a point with h.v = 0 is refused, and a stack gets a mask of those shown."""
    curve = request.getfixturevalue(name)
    h, p = curve.positive_covector, curve.aligned_points.T
    coords = curve.to_chart(p)
    lifted = coords @ curve.chart.T + h
    assert np.max(np.abs(lifted - p)) < 1e-14
    assert np.max(np.abs(curve.to_chart(lifted) - coords)) < 1e-14
    assert np.max(np.abs(curve.chart_points() - coords)) < 1e-14
    pairs = np.random.default_rng(5).integers(0, len(p), (50, 2))
    assert np.allclose(np.linalg.norm(coords[pairs[:, 0]] - coords[pairs[:, 1]], axis=1),
                       np.linalg.norm(p[pairs[:, 0]] - p[pairs[:, 1]], axis=1),
                       rtol=0.0, atol=1e-14)
    at_infinity = np.cross(h, p[0])
    with pytest.raises(PointOutsideDomain):
        curve.to_chart(at_infinity)
    stacked = np.array([p[0], at_infinity, -2 * p[0]])
    assert curve.in_chart(stacked).tolist() == [True, False, True]
    assert np.allclose(curve.to_chart(stacked[[0, 2]]), [coords[0]] * 2, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name", ["exact_curve", "bulged_curve03"])
def test_line_to_chart_vanishes_on_line_points(request, name):
    """The chart coefficients of each stored tangent covector vanish at its sample, and
    those of random lines at two random points on each."""
    curve = request.getfixturevalue(name)
    coeffs = curve.line_to_chart(curve.frames[:, :, -1])
    coords = curve.to_chart(curve.frames[:, :, 0])
    assert np.max(np.abs(np.sum(coeffs[:, :-1] * coords, axis=1) + coeffs[:, -1])) < 1e-12
    rng = np.random.default_rng(5)
    lines = rng.standard_normal((20, 3))
    coeffs = curve.line_to_chart(lines)
    assert np.allclose(np.linalg.norm(coeffs[:, :-1], axis=1), 1.0, rtol=0.0, atol=1e-15)
    for _ in range(2):
        coords = curve.to_chart(np.cross(lines, rng.standard_normal((20, 3))))
        assert np.max(np.abs(np.sum(coeffs[:, :-1] * coords, axis=1) + coeffs[:, -1])) < 1e-9


def test_even_dimension_curve_has_no_global_chart(exact_curve4):
    assert exact_curve4.chart is None
    for query in (exact_curve4.chart_points, lambda: exact_curve4.in_chart(np.ones(4)),
                  lambda: exact_curve4.line_to_chart(np.ones(4))):
        with pytest.raises(NotDefinedHere):
            query()
    # flag evaluation does not need the chart
    f = as_flag(exact_curve4.frames_at(1.234))
    assert abs(annihilator(f[3].basis)[:, 0] @ f.point.basis[:, 0]) < 1e-12
    # the sample scan needs the chart too
    with pytest.raises(NotDefinedHere):
        second_boundary_intersection(exact_curve4, as_flag(exact_curve4.frames_at(1.0))[3], 1.0)


def test_sample_boundary_requires_enough_words(reference):
    with pytest.raises(InsufficientSamples):
        sample_boundary(sym_power(reference, 3), reference, 1)


def _runs(thetas):
    """Rows of `thetas` by ascending theta (ball order among equals), cut into runs
    wherever the next theta is MIN_SAMPLE_GAP or more ahead."""
    runs = []
    for k in sorted(range(len(thetas)), key=lambda k: (thetas[k], k)):
        if runs and thetas[k] - thetas[runs[-1][-1]] < MIN_SAMPLE_GAP:
            runs[-1].append(k)
        else:
            runs.append([k])
    return runs


def _samples_by_word(ball, thetas):
    """The per-word dedupe of `sample_boundary`: (thetas, rows) of the samples kept, one
    per run of `_runs`, its longest word's, the first seen among equals."""
    rows = [min(run, key=lambda k: (-len(ball[k]), k)) for run in _runs(thetas)]
    return thetas[rows], rows


@pytest.mark.parametrize("bulge, depth", [(0.0, 3), (0.3, 3), (0.3, 4), (-0.3, 4), (0.7, 5)])
def test_sample_boundary_keeps_the_per_word_samples(reference, bulge, depth):
    """The kept thetas and frames are those of the per-word loop of `_samples_by_word` on
    the reference axes (whose floats `test_reps` checks against an mpmath oracle)."""
    rep = bulge_deform(sym_power(reference, 3), bulge)
    ball = enumerate_conjugacy_classes(reference.presentation, depth)
    thetas, rows = _samples_by_word(ball, axis_thetas(reference.matrices(ball))[0])
    vecs = loxodromic_eigensystem(rep.matrices(ball))[1]
    want = BoundaryCurve(thetas, flag_frames(vecs[rows, :, :2]), rep, reference)
    curve = sample_boundary(rep, reference, depth)
    assert curve.thetas.tobytes() == want.thetas.tobytes()
    assert curve.frames.tobytes() == want.frames.tobytes()


def test_sample_boundary_dedupe_equals_the_dict_on_collisions(reference, monkeypatch):
    """Equal thetas, thetas one ulp apart on either side of a multiple of 1e-10 plus a
    half, chains of thetas 0.6e-10 apart, and runs shared by words of one length and of
    several: each run below MIN_SAMPLE_GAP keeps its longest word, the first seen among
    equals, as the loop of `_samples_by_word` does.  (The one-ulp pairs were kept apart
    by the `np.rint(theta / 1e-10)` keys that this rule replaces.)"""
    rep = sym_power(reference, 3)
    ball = enumerate_conjugacy_classes(reference.presentation, 4)
    rng = np.random.default_rng(7)
    halves = [t for t in (float(k + 0.5) * 1e-10 for k in rng.integers(1, 6e10, 400))
              if t / 1e-10 % 1.0 == 0.5][:60]
    assert len(halves) == 60
    pool = np.array(halves + [math.nextafter(t, d) for t in halves[:30] for d in (0.0, 7.0)]
                    + [t + k * 0.6e-10 for t in halves[30:40] for k in (1, 2)]
                    + list(rng.uniform(0.0, 2 * math.pi, 40)))
    thetas = pool[rng.integers(0, pool.size, len(ball))]
    monkeypatch.setattr(limitcurve, "axis_thetas", lambda m2: (thetas, thetas))
    monkeypatch.setattr(limitcurve, "BoundaryCurve", lambda t, frames, *reps: (t, frames))
    got, frames = sample_boundary(rep, reference, 4)
    want, rows = _samples_by_word(ball, thetas)
    assert got.tobytes() == want.tobytes()
    vecs = loxodromic_eigensystem(rep.matrices(ball))[1]
    assert frames.tobytes() == flag_frames(vecs[rows, :, :2]).tobytes()
    # the rules were exercised: distinct thetas merged, a run longer than the gap, and a
    # longer and an equal word displaced
    runs, lengths = _runs(thetas), np.array([len(w) for w in ball])
    assert any(np.unique(thetas[run]).size > 1 for run in runs)
    assert any(np.ptp(thetas[run]) >= MIN_SAMPLE_GAP for run in runs)
    assert any(np.unique(lengths[run]).size > 1 for run in runs)
    assert any(np.sum(lengths[run] == lengths[r]) > 1 for run, r in zip(runs, rows))


def test_sample_boundary_merges_axes_that_the_curve_would_refuse(reference, monkeypatch):
    """Two axes one ulp either side of a multiple of 1e-10 plus a half, two ulps apart,
    are one sample of the real `BoundaryCurve`: the first word's, both words being of
    one length.  The rest of the ball's samples are kept as they were."""
    rep = sym_power(reference, 3)
    ball = enumerate_conjugacy_classes(reference.presentation, 3)
    axes = limitcurve.axis_thetas(reference.matrices(ball))
    first, second = [k for k, w in enumerate(ball) if len(w) == 3][:2]
    taken = np.sort(np.delete(axes[0], [first, second]))
    wide = np.argmax(np.diff(taken))  # a half-key mid-way in the widest gap of the others
    k = int((taken[wide] + taken[wide + 1]) / 2e-10)
    t = next(t for t in (float(k + i + 0.5) * 1e-10 for i in range(100))
             if t / 1e-10 % 1.0 == 0.5)
    thetas = axes[0].copy()
    thetas[first], thetas[second] = math.nextafter(t, 0.0), math.nextafter(t, 7.0)
    assert 0.0 < thetas[second] - thetas[first] < 2e-15
    monkeypatch.setattr(limitcurve, "axis_thetas", lambda m2: (thetas, axes[1]))
    curve = sample_boundary(rep, reference, 3)
    want, rows = _samples_by_word(ball, thetas)
    assert thetas[first] in curve.thetas and thetas[second] not in curve.thetas
    assert curve.thetas.tobytes() == want.tobytes()
    vecs = loxodromic_eigensystem(rep.matrices(ball))[1]
    assert curve.frames.tobytes() == BoundaryCurve(
        want, flag_frames(vecs[rows, :, :2]), rep, reference).frames.tobytes()


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
    assert stacked.shape == thetas.shape + (curve.n, curve.n)
    assert np.array_equal(stacked, [[interpolate(curve, theta) for theta in row]
                                    for row in thetas])
    assert np.array_equal(stacked[0, 3], curve.frames[9])


def test_shared_flag_data_is_read_only(bulged_curve03):
    f = as_flag(bulged_curve03.frames_at(1.2345))
    with pytest.raises(ValueError):
        f.frame[0, 0] = 1.0
    with pytest.raises(ValueError):
        f[1].basis[0, 0] = 1.0
    with pytest.raises(ValueError):
        bulged_curve03.chart_points()[0, 0] = 1.0
    with pytest.raises(ValueError):
        bulged_curve03.aligned_points[0, 0] = 1.0
