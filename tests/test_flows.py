import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from flagflows.config import NotLoxodromic, PointOutsideSegment, RootFindFailure
from flagflows import flows
from flagflows.devmaps import LeafPoint
from flagflows.flows import (
    cocycle,
    decay_experiment,
    flow_orbit,
    flow_period,
    flow_step,
    leaf_context,
    leafwise_distance,
    period_spectrum,
    reference_flow,
    regularity_probe,
    stable_leaf_distance,
)
from flagflows.limitcurve import fuchsian_curve, sample_boundary
from flagflows.reps import (axis_thetas, bulge_deform, circular_gap, jordan_projection,
                            root_length, sym_power)
from flagflows.words import GroupWord, enumerate_conjugacy_classes


def sl2_length(m):
    return 2.0 * math.acosh(abs(np.trace(m)) / 2.0)


def test_leafwise_distance_is_additive_and_signed(exact_curve):
    x, z = 0.5, 3.9
    ctx = leaf_context(exact_curve, (2, 3), x, z)
    m = exact_curve.hyperplane_covectors_at([1.0, 1.8, 2.9])
    d01 = leafwise_distance(ctx, m[0], m[1])
    d12 = leafwise_distance(ctx, m[1], m[2])
    d02 = leafwise_distance(ctx, m[0], m[2])
    assert abs(d02 - (d01 + d12)) < 1e-9
    assert d01 == -leafwise_distance(ctx, m[1], m[0])


def test_image_moves_monotonically_in_y(exact_curve):
    x, z = 0.5, 3.9
    m = exact_curve.hyperplane_covectors_at(np.linspace(0.8, 3.6, 12))
    for alpha in ((1, 3), (2, 3)):
        coords = leaf_context(exact_curve, alpha, x, z).coordinate(m)
        logs = np.log(np.abs(coords))
        assert np.all(np.diff(logs) > 0) or np.all(np.diff(logs) < 0)


def test_coordinate_refuses_a_covector_killing_the_forward_endpoint(exact_curve):
    ctx = leaf_context(exact_curve, (2, 3), 0.5, 3.9)
    m = exact_curve.hyperplane_covectors_at([1.8])[0]
    m = m - (m @ ctx.forward) * ctx.forward
    with pytest.raises(PointOutsideSegment, match="^point at the forward endpoint$"):
        ctx.coordinate(m)
    with pytest.raises(PointOutsideSegment):
        leafwise_distance(ctx, exact_curve.hyperplane_covectors_at([1.8])[0], m)


def test_flow_step_is_additive_in_time(exact_curve):
    p = LeafPoint(0.5, 1.5, 3.9)
    for alpha in ((1, 2), (2, 3), (1, 3)):
        q1 = flow_step(exact_curve, alpha, flow_step(exact_curve, alpha, p, 0.4), 0.3)
        q2 = flow_step(exact_curve, alpha, p, 0.7)
        assert abs(q1.y - q2.y) < 1e-8


@pytest.mark.parametrize("curve_name", ["exact_curve", "bulged_curve", "exact_curve4"])
def test_flow_steps_travel_their_time_along_the_leaf(request, curve_name):
    """Ten steps of 0.5 from mid-arc on the a1 axis cover leafwise distance 5 per root.

    The later steps end close to the forward endpoint, where the bracket
    must grow only toward x and back off probes whose image is
    numerically an endpoint.  At n = 4, probes near x also put the
    segment line numerically inside y^{n-1}, which backs off the same way.
    """
    curve = request.getfixturevalue(curve_name)
    n = curve.n
    x, z = axis_thetas(curve.reference.matrix(curve.rep.presentation.parse_word("a1")))
    start = LeafPoint(x, (x + circular_gap(x, z) / 2) % (2 * math.pi), z)
    for alpha in [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]:
        ctx = leaf_context(curve, alpha, x, z)
        current, total = start, 0.0
        for _ in range(10):
            moved = flow_step(curve, alpha, current, 0.5)
            total += leafwise_distance(ctx, *curve.hyperplane_covectors_at([current.y, moved.y]))
            current = moved
        assert abs(total - 5.0) < 1e-8


@pytest.mark.parametrize("curve_name", ["exact_curve", "bulged_curve"])
def test_flow_step_reverses(request, curve_name):
    curve = request.getfixturevalue(curve_name)
    p = LeafPoint(0.5, 1.5, 3.9)
    for alpha in ((1, 2), (2, 3), (1, 3)):
        q = flow_step(curve, alpha, flow_step(curve, alpha, p, 0.8), -0.8)
        assert abs(q.y - p.y) < 1e-10


def test_flow_orbit_records_increasing_times(exact_curve):
    p = LeafPoint(0.5, 1.5, 3.9)
    rows = flow_orbit(exact_curve, (2, 3), p, 1.0, 5)
    assert [t for t, _, _ in rows] == [k / 5 for k in range(6)]
    assert rows[0][1] == p.y


def test_flow_period_matches_sl2_lengths(exact_curve, reference):
    w = reference.presentation.parse_word("a1")
    t = sl2_length(reference.matrix(w))
    assert abs(flow_period(exact_curve, (1, 2), w) - t) < 1e-9
    assert abs(flow_period(exact_curve, (2, 3), w) - t) < 1e-9
    assert abs(flow_period(exact_curve, (1, 3), w) - 2 * t) < 1e-9


def test_flow_period_matches_eigenvalue_oracle(exact_curve):
    pres = exact_curve.rep.presentation
    for text in ("a1 b1", "a1 B2", "a2 b2 A1"):
        w = pres.parse_word(text)
        jd = jordan_projection(exact_curve.rep.matrix(w),
                               exact_curve.rep.matrix(w.inverse()))
        for root in ((1, 2), (1, 3), (2, 3)):
            got = flow_period(exact_curve, root, w)
            assert abs(got - root_length(jd, *root)) < 1e-8


ROOTS = [(1, 2), (1, 3), (2, 3)]


def test_period_spectrum_agrees_with_flow_period(exact_curve, bulged_curve, monkeypatch):
    """The blocked spectrum and a block of one word give the same bits, across blocks.

    With 1,024 entries the L<=3 ball (160 words) runs in blocks of 113
    words, scanned 2 words per chunk on the 512-sample exact curve; with
    100 entries, in blocks of 11 words scanned one word per chunk.
    """
    ball = enumerate_conjugacy_classes(exact_curve.rep.presentation, 3)
    for entries in (flows.SPECTRUM_BLOCK_ENTRIES, 1024, 100):
        monkeypatch.setattr(flows, "SPECTRUM_BLOCK_ENTRIES", entries)
        for curve in (exact_curve, bulged_curve):
            spec = period_spectrum(curve, ball, ROOTS)
            assert list(spec) == ball
            for w in ball:
                for root in ROOTS:
                    assert spec[w][root] == flow_period(curve, root, w)


def test_flow_period_rejects_the_identity(exact_curve):
    with pytest.raises(NotLoxodromic):
        flow_period(exact_curve, (1, 2), GroupWord(()))


def test_period_spectrum_raises_the_first_failing_words_error(exact_curve, monkeypatch):
    """The error is that of the first word that fails, in whichever block it sits.

    The empty word fails the reference trace check; `a1 a1 A2 a1 A2`
    fails the spread check for (1, 2), because its middle eigenvalue
    sits at equal log-distance from both ends of the spectrum.  The ten
    words run in one block, and then with 36 entries in blocks of 4
    words, which puts both failing words in later blocks.
    """
    pres = exact_curve.rep.presentation
    good = enumerate_conjugacy_classes(pres, 1)
    spread_word = pres.parse_word("a1 a1 A2 a1 A2")
    assert len(good) + 2 <= flows.SPECTRUM_BLOCK_ENTRIES // exact_curve.n**2
    for entries in (flows.SPECTRUM_BLOCK_ENTRIES, 36):
        monkeypatch.setattr(flows, "SPECTRUM_BLOCK_ENTRIES", entries)
        with pytest.raises(NotLoxodromic, match="reference image is not hyperbolic"):
            period_spectrum(exact_curve,
                            good[:5] + [GroupWord(())] + good[5:] + [spread_word], ROOTS)
        with pytest.raises(RootFindFailure, match=r"^period varies with y by 1\.168e-06$"):
            period_spectrum(exact_curve,
                            good[:5] + [spread_word] + good[5:] + [GroupWord(())], ROOTS)


def test_period_spectrum_finds_a_failing_word_by_halving(exact_curve, monkeypatch):
    """A failing block is halved, not rerun word by word: about 2 log2(W) block runs."""
    calls = []
    block_periods = flows._block_periods
    monkeypatch.setattr(flows, "_block_periods",
                        lambda curve, roots, words: calls.append(len(words))
                        or block_periods(curve, roots, words))
    ball = enumerate_conjugacy_classes(exact_curve.rep.presentation, 3)
    with pytest.raises(NotLoxodromic, match="reference image is not hyperbolic"):
        period_spectrum(exact_curve, ball[:100] + [GroupWord(())] + ball[100:], ROOTS)
    assert calls[0] == len(ball) + 1 and calls[-1] == 1
    assert len(calls) <= 2 * math.ceil(math.log2(len(ball) + 1)) + 1


def test_exact_curve_spectrum_at_length_five_stops_at_the_equidistant_word(reference):
    """Pins a known defect: the default curve fails the L=5 periods check.

    `a1 a1 A2 a1 A2` has log-moduli +-14.59 and 0, so the middle index is
    as far from the top as from the bottom of the spectrum, and the two
    hyperplane samples disagree on the (1, 2) period by 1.168e-06.
    """
    curve = fuchsian_curve(reference, 3)
    pres = curve.rep.presentation
    with pytest.raises(RootFindFailure, match=r"^period varies with y by 1\.168e-06$"):
        period_spectrum(curve, enumerate_conjugacy_classes(pres, 5), ROOTS)
    with pytest.raises(RootFindFailure, match=r"^period varies with y by 1\.168e-06$"):
        flow_period(curve, (1, 2), pres.parse_word("a1 a1 A2 a1 A2"))


def test_period_spectrum_memory_stays_bounded(reference):
    """Blocks keep the spectrum's working set small on a dense curve.

    780 words x 3 roots on the 1,024-sample exact curve peak near 1.2 MB;
    holding every (word x sample) entry at once would need about 44 MB.
    """
    curve = fuchsian_curve(reference, 3)
    ball = enumerate_conjugacy_classes(curve.rep.presentation, 4)
    assert len(ball) == 780
    curve.hyperplane_covectors()
    tracemalloc.start()
    try:
        period_spectrum(curve, ball, ROOTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.fixture(scope="module")
def criterion1_curves(reference):
    """The depth-3 sampled curves of criterion 1: bulges 0, 0.3 and 0.7."""
    rep3 = sym_power(reference, 3)
    return [sample_boundary(bulge_deform(rep3, s), reference, 3) for s in (0.0, 0.3, 0.7)]


def _mp_root_lengths(rep, word):
    """Root lengths (l1 - l2, l1 - l3, l2 - l3) from 50-digit eigenvalues."""
    with mpmath.workdps(50):
        g = mpmath.eye(rep.n)
        for x in word.letters:
            m = rep.images[abs(x)]
            m = mpmath.matrix(m.tolist())
            g = g * (m if x > 0 else mpmath.inverse(m))
        vals = mpmath.eig(g, left=False, right=False)
        lm = sorted((mpmath.log(abs(v)) for v in vals), reverse=True)
        return {(i, j): float(lm[i - 1] - lm[j - 1]) for (i, j) in ROOTS}


def test_periods_match_high_precision_root_lengths(criterion1_curves):
    """Independent oracle for criterion 1: 40 seeded L=5 words per rep.

    The word products and their eigenvalues are taken in 50-digit
    arithmetic from the float64 generator images, so no float64 word
    product enters the expected value.
    """
    pres = criterion1_curves[0].rep.presentation
    ball = enumerate_conjugacy_classes(pres, 5)
    rng = np.random.default_rng(5)
    sample = [ball[k] for k in sorted(rng.choice(len(ball), size=40, replace=False))]
    for curve in criterion1_curves:
        spec = period_spectrum(curve, sample, ROOTS)
        for w in sample:
            want = _mp_root_lengths(curve.rep, w)
            for root in ROOTS:
                assert abs(spec[w][root] - want[root]) / abs(want[root]) < 1e-6


def test_reference_flow_is_additive():
    x, z, y = 0.3, 3.2, 1.1
    y1 = reference_flow(x, z, y, 0.7)
    y2 = reference_flow(x, z, y1, 0.5)
    y12 = reference_flow(x, z, y, 1.2)
    assert abs(y2 - y12) < 1e-10
    # large positive time converges to x
    far = reference_flow(x, z, y, 30.0)
    assert min(abs(far - x), 2 * math.pi - abs(far - x)) < 1e-6


def test_cocycle_identity_and_fuchsian_rate(exact_curve):
    p = LeafPoint(0.5, 1.5, 3.9)
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        for t in (0.3, 1.0):
            kappa = cocycle(exact_curve, (i, j), p, t)
            assert abs(kappa - (j - i) * t) < 1e-6
    s, t = 0.4, 0.9
    moved = LeafPoint(p.x, reference_flow(p.x, p.z, p.y, s), p.z)
    lhs = cocycle(exact_curve, (2, 3), p, s + t)
    rhs = cocycle(exact_curve, (2, 3), moved, t) + cocycle(exact_curve, (2, 3), p, s)
    assert abs(lhs - rhs) < 1e-9


def test_stable_leaf_distance_decays(exact_curve):
    p = LeafPoint(0.5, 0.7, 3.9)
    d0 = abs(stable_leaf_distance(exact_curve, p, 3.5))
    p2 = flow_step(exact_curve, (2, 3), p, 2.0)
    d2 = abs(stable_leaf_distance(exact_curve, p2, 3.5))
    assert d2 < d0


def test_stable_leaf_distance_lets_non_numerical_errors_through(exact_curve, monkeypatch):
    def broken_meet(a, b):
        raise KeyError("not a numerical failure")

    monkeypatch.setattr(flows, "cross_meet", broken_meet)
    with pytest.raises(KeyError):
        stable_leaf_distance(exact_curve, LeafPoint(0.5, 0.7, 3.9), 3.5)


def test_decay_slope_is_minus_one_for_fuchsian(exact_curve):
    slope, samples = decay_experiment(exact_curve, LeafPoint(0.5, 0.7, 3.9),
                                      3.5, 5.0, 20)
    assert abs(slope + 1.0) < 0.05
    assert len(samples) == 21


def test_regularity_probe_in_dim_four(exact_curve4):
    # the closed-form curve is smooth, so both tangent fields are
    # Lipschitz and the comparison inequality holds with slack
    report = regularity_probe(exact_curve4, 0.5, 3.6)
    assert 0.85 < report.exponent_highest < 1.15
    assert report.exponent_highest >= report.exponent_23 - 0.1
    assert len(report.residuals_highest) >= 3
