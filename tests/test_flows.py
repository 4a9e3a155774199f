import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvehelpers import two_inverse_reference_flow
from flagflows.config import (IndexOrder, NotDefinedHere, NotLoxodromic, PointOutsideSegment,
                              RootFindFailure)
from flagflows import cli, flows
from flagflows.devmaps import LeafPoint, develop
from flagflows.flows import (
    cocycle,
    flow_orbit,
    flow_step,
    leaf_context,
    leafwise_distance,
    period_spectrum,
    reference_flow,
    regularity_probe,
    stable_leaf_distance,
)
from flagflows.limitcurve import fuchsian_curve, sample_boundary, second_boundary_intersection
from flagflows.projective import cross_meet
from flagflows.reps import (SurfaceGroupRep, axis_thetas, bulge_deform, circular_gap,
                            jordan_projection, loxodromic_eigensystem, read_from_g, root_length,
                            sym_power)
from flagflows.words import GroupWord, enumerate_conjugacy_classes


ROOTS = [(1, 2), (1, 3), (2, 3)]


SPREAD_MESSAGE = r"^word a1 a1 A2 a1 A2: period varies with y by (\d\.\d{3}e[-+]\d\d)$"


def sl2_length(m):
    return 2.0 * math.acosh(abs(np.trace(m)) / 2.0)


def assert_spread_beyond_bound(error, rep):
    """The (1, 2) spread that `error` names for `a1 a1 A2 a1 A2` exceeds the check's
    bound 1e-8 l12 (about 1.46e-7).  Its digits are float noise, so they are not pinned."""
    word = rep.presentation.parse_word("a1 a1 A2 a1 A2")
    l12 = root_length(jordan_projection(rep.matrix(word), rep.matrix(word.inverse())), 1, 2)
    assert float(re.match(SPREAD_MESSAGE, str(error))[1]) > 1e-8 * l12


def test_leafwise_distance_is_additive_and_signed(exact_curve):
    x, z = 0.5, 3.9
    ctx = leaf_context(exact_curve, (2, 3), x, z)
    m = exact_curve.frames_at([1.0, 1.8, 2.9])[..., -1]
    d01 = leafwise_distance(ctx, m[0], m[1])
    d12 = leafwise_distance(ctx, m[1], m[2])
    d02 = leafwise_distance(ctx, m[0], m[2])
    assert abs(d02 - (d01 + d12)) < 1e-9
    assert d01 == -leafwise_distance(ctx, m[1], m[0])


def test_image_moves_monotonically_in_y(exact_curve):
    x, z = 0.5, 3.9
    m = exact_curve.frames_at(np.linspace(0.8, 3.6, 12))[..., -1]
    for alpha in ((1, 3), (2, 3)):
        coords = leaf_context(exact_curve, alpha, x, z).coordinate(m)
        logs = np.log(np.abs(coords))
        assert np.all(np.diff(logs) > 0) or np.all(np.diff(logs) < 0)


def test_coordinate_refuses_a_covector_killing_the_forward_endpoint(exact_curve):
    """The coordinate there is NaN, and `leafwise_distance` refuses it."""
    ctx = leaf_context(exact_curve, (2, 3), 0.5, 3.9)
    m = exact_curve.frames_at(1.8)[:, -1]
    m = m - (m @ ctx.forward) * ctx.forward
    assert np.isnan(ctx.coordinate(m))
    with pytest.raises(PointOutsideSegment, match=re.escape("y^{n-1} holds the segment")):
        leafwise_distance(ctx, exact_curve.frames_at(1.8)[:, -1], m)


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
            total += leafwise_distance(ctx, *curve.frames_at([current.y, moved.y])[..., -1])
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


@pytest.mark.parametrize("curve_name", ["exact_curve", "bulged_curve", "exact_curve4"])
def test_flow_orbit_equals_one_flow_step_per_time(request, curve_name):
    """Bit for bit: the stacked orbit solves each target as `flow_step` solves it alone,
    forward and backward in time."""
    curve = request.getfixturevalue(curve_name)
    p = LeafPoint(0.5, 1.5, 3.9)
    for alpha, t_max in (((1, 2), 2.5), ((2, 3), -2.5), ((1, 3), 4.0)):
        rows = flow_orbit(curve, alpha, p, t_max, 10)
        assert [y for _, y, _ in rows[1:]] == [flow_step(curve, alpha, p, t).y
                                               for t, _, _ in rows[1:]]


def test_flow_period_matches_sl2_lengths(exact_curve, reference):
    w = reference.presentation.parse_word("a1")
    t = sl2_length(reference.matrix(w))
    periods = period_spectrum(exact_curve, [w], ROOTS)[w]
    assert abs(periods[(1, 2)] - t) < 1e-9
    assert abs(periods[(2, 3)] - t) < 1e-9
    assert abs(periods[(1, 3)] - 2 * t) < 1e-9


def test_flow_period_matches_eigenvalue_oracle(exact_curve):
    pres = exact_curve.rep.presentation
    for text in ("a1 b1", "a1 B2", "a2 b2 A1"):
        w = pres.parse_word(text)
        jd = jordan_projection(exact_curve.rep.matrix(w),
                               exact_curve.rep.matrix(w.inverse()))
        for root in ROOTS:
            got = period_spectrum(exact_curve, [w], [root])[w][root]
            assert abs(got - root_length(jd, *root)) < 1e-8


def test_period_spectrum_agrees_with_flow_period(exact_curve, bulged_curve, monkeypatch):
    """The blocked spectrum and a one-word, one-root call give the same bits, across blocks.

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
                    assert spec[w][root] == period_spectrum(curve, [w], [root])[w][root]


def test_flow_period_rejects_the_identity(exact_curve):
    with pytest.raises(NotLoxodromic, match="^word e: reference image is not hyperbolic$"):
        period_spectrum(exact_curve, [GroupWord(())], [(1, 2)])


@pytest.mark.parametrize("root", [(0, 2), (3, 1), (1, 4)], ids=["0,2", "3,1", "1,4"])
def test_one_rule_refuses_a_root_that_is_not_positive(exact_curve, tmp_path, capsys,
                                                      monkeypatch, root):
    """Every caller refuses it with one IndexOrder message, before any word product or curve."""
    def fail(*args):
        raise AssertionError("ran past the root check")

    monkeypatch.setattr(SurfaceGroupRep, "matrices", fail)
    monkeypatch.setattr(SurfaceGroupRep, "matrix", fail)
    monkeypatch.setattr(cli, "build_curve", fail)
    message = f"need 1 <= i < j <= 3, got {root}"
    word = exact_curve.rep.presentation.parse_word("a1")
    for call in (lambda: root_length((1.0, 0.0, -1.0), *root),
                 lambda: leaf_context(exact_curve, root, 0.5, 3.6),
                 lambda: period_spectrum(exact_curve, [word], [root])):
        with pytest.raises(IndexOrder, match=f"^{re.escape(message)}$"):
            call()
    alpha = ",".join(map(str, root))
    for args in (("periods", "--alpha", alpha), ("flow", "--alpha", alpha, "--word", "a1"),
                 ("dev-image", "--map", f"alpha:{alpha}")):
        assert cli.main(["--outdir", str(tmp_path), *args]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["message"]) == ("IndexOrder", message)
    assert not any(tmp_path.iterdir())


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
        with pytest.raises(RootFindFailure, match=SPREAD_MESSAGE) as info:
            period_spectrum(exact_curve,
                            good[:5] + [spread_word] + good[5:] + [GroupWord(())], ROOTS)
        assert_spread_beyond_bound(info.value, exact_curve.rep)


def test_period_spectrum_finds_a_failing_word_by_halving(exact_curve, monkeypatch):
    """A failing block is halved, not rerun word by word: about 2 log2(W) block runs."""
    calls = []
    block_periods = flows._block_periods
    monkeypatch.setattr(flows, "_block_periods",
                        lambda curve, roots, words, *products: calls.append(len(words))
                        or block_periods(curve, roots, words, *products))
    ball = enumerate_conjugacy_classes(exact_curve.rep.presentation, 3)
    with pytest.raises(NotLoxodromic, match="reference image is not hyperbolic"):
        period_spectrum(exact_curve, ball[:100] + [GroupWord(())] + ball[100:], ROOTS)
    assert calls[0] == len(ball) + 1 and calls[-1] == 1
    assert len(calls) <= 2 * math.ceil(math.log2(len(ball) + 1)) + 1


def test_exact_curve_spectrum_at_length_five_stops_at_the_equidistant_word(reference):
    """Pins a known defect: the default curve fails the L=5 periods check.

    `a1 a1 A2 a1 A2` has log-moduli +-14.59 and 0, so the middle index is
    as far from the top as from the bottom of the spectrum, and the two
    hyperplane samples disagree on the (1, 2) period by several times the
    check's bound.
    """
    curve = fuchsian_curve(reference, 3)
    pres = curve.rep.presentation
    with pytest.raises(RootFindFailure, match=SPREAD_MESSAGE) as info:
        period_spectrum(curve, enumerate_conjugacy_classes(pres, 5), ROOTS)
    assert_spread_beyond_bound(info.value, curve.rep)
    word = pres.parse_word("a1 a1 A2 a1 A2")
    with pytest.raises(RootFindFailure, match=SPREAD_MESSAGE) as info:
        period_spectrum(curve, [word], [(1, 2)])
    assert_spread_beyond_bound(info.value, curve.rep)


def test_period_spectrum_memory_stays_bounded(reference):
    """Blocks keep the spectrum's working set small on a dense curve.

    780 words x 3 roots on the 1,024-sample exact curve peak near 1.2 MB;
    a scan holding every (word x sample) entry at once would need about 44 MB.
    """
    curve = fuchsian_curve(reference, 3)
    ball = enumerate_conjugacy_classes(curve.rep.presentation, 4)
    assert len(ball) == 780
    tracemalloc.start()
    try:
        period_spectrum(curve, ball, ROOTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def _sorted_picks(curve, eigvecs, i, j):
    """The transverse samples as one stable sort over every sample orders them.

    An argpartition leaves the order of exact ties open, and the exact
    curve has some at the cut: it is symmetric under theta -> theta + pi,
    so samples 256 and 768 give word 305 of the L<=4 ball equal log-ratios
    for the root (2, 3).  The stable sort keeps the lowest index first.
    """
    covectors = np.ascontiguousarray(curve.frames[:, :, -1])  # the layout rounds the products
    dots = [(covectors @ eigvecs[:, :, k - 1, None])[:, :, 0] for k in (i, j)]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(np.abs(dots[1])) - np.log(np.abs(dots[0]))
    ok = np.isfinite(ratio)
    chosen = np.argsort(np.abs(np.where(ok, ratio, np.inf)), axis=1,
                        kind="stable")[:, :flows.Y_CHOICES]
    return [np.take_along_axis(d, chosen, 1) for d in dots]


def _assert_search_picks_the_scan(curve, ball, roots, name):
    """Per root, `_transverse_samples` picks what `_sorted_picks` picks, in its order,
    for the eigenvectors of the ball's words as `_block_periods` reads them."""
    vals_g, vecs_g = loxodromic_eigensystem(curve.rep.matrices(ball))
    _, vecs_i = loxodromic_eigensystem(curve.rep.matrices([w.inverse() for w in ball]))
    prefer_g = read_from_g(np.log(np.abs(vals_g)))
    eigvecs = np.where(prefer_g[:, None, :], vecs_g, vecs_i[:, :, ::-1])
    axes = axis_thetas(curve.reference.matrices(ball))
    samples = flows._transverse_samples(curve, eigvecs, roots, axes)
    for (i, j) in roots:
        want = _sorted_picks(curve, eigvecs, i, j)
        assert all(np.array_equal(a, b) for a, b in zip(samples[(i, j)], want)), (name, (i, j))


def _sampled(reference, bulge, depth):
    return sample_boundary(bulge_deform(sym_power(reference, 3), bulge), reference, depth)


def test_transverse_samples_match_a_stable_sort_oracle(reference, exact_curve, exact_curve4,
                                                       criterion1_curves):
    """The search on the two arcs picks what a stable sort over every sample picks, in
    its order: on the periods-l5 curves, the CLI's curves, two more sampled curves and the
    exact curves at n = 4 (every root) and n = 2."""
    cases = {
        "exact": (exact_curve, 4, ROOTS),
        **{f"periods-l5 bulge {s}": (curve, 5, ROOTS)
           for s, curve in zip((0.0, 0.3, 0.7), criterion1_curves)},
        "bulge -0.3": (_sampled(reference, -0.3, 3), 4, ROOTS),
        "bulge 0.3, word ball 4": (_sampled(reference, 0.3, 4), 4, ROOTS),
        "bulge 0.3, word ball 5": (_sampled(reference, 0.3, 5), 4, ROOTS),
        "exact n=4": (exact_curve4, 3, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]),
        "exact n=2": (fuchsian_curve(reference, 2), 4, [(1, 2)]),
    }
    assert cases["bulge 0.3, word ball 5"][0].thetas.size == 4084
    for name, (curve, max_len, roots) in cases.items():
        ball = enumerate_conjugacy_classes(reference.presentation, max_len)
        _assert_search_picks_the_scan(curve, ball, roots, name)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(st.floats(min_value=-0.7, max_value=1.0))
def test_transverse_samples_match_the_scan_at_any_bulge(reference, bulge):
    """At every bulge of the range and word ball 3, the search picks what the scan picks."""
    ball = enumerate_conjugacy_classes(reference.presentation, 3)
    _assert_search_picks_the_scan(_sampled(reference, bulge, 3), ball, ROOTS, bulge)


def test_transverse_samples_break_ties_lowest_index_first():
    """Samples 1, 2 and 3 tie at log-ratio 0 for the root (1, 2): samples 1 and 2 are kept.

    The axis (0, 2) splits the five samples into arcs of two and three, so
    that every sample is a candidate of the search.
    """
    frames = np.zeros((5, 3, 3))
    covectors = frames[:, :, -1]  # a view: the edits below reach the frames
    covectors[:] = [[1.0, 4.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 1.0],
                    [3.0, 3.0, 1.0], [3.0, 1.0, 1.0]]
    curve = SimpleNamespace(frames=frames, thetas=np.arange(5) + 0.5)

    def picks():
        axes = np.array([0.0]), np.array([2.0])
        return flows._transverse_samples(curve, np.eye(3)[None], [(1, 2)], axes)[(1, 2)]

    ma, mb = picks()
    assert ma.tolist() == [[1.0, 2.0]] and mb.tolist() == [[1.0, 2.0]]
    covectors[1:4, 0] = 0.0  # y . v_1 = 0: only samples 0 and 4 are transverse
    assert picks()[0].tolist() == [[3.0, 1.0]]
    covectors[4, 1] = 0.0
    with pytest.raises(RootFindFailure, match="^fewer than 2 transverse hyperplane samples"):
        picks()
    covectors[0, 0] = 0.0
    with pytest.raises(RootFindFailure, match="^no transverse hyperplane sample on the leaf$"):
        picks()


def test_non_finite_periods_are_refused(exact_curve, monkeypatch):
    """A NaN segment coordinate makes its word's period NaN; the spectrum raises.

    Before, `spread > bound` was False for a NaN spread, and the NaN period
    came back as a number.
    """
    transverse_samples = flows._transverse_samples

    def poisoned(*args):
        samples = transverse_samples(*args)
        samples[(1, 3)][0][0, 0] = np.nan  # each block's first word, root (1, 3)
        return samples

    monkeypatch.setattr(flows, "_transverse_samples", poisoned)
    ball = enumerate_conjugacy_classes(exact_curve.rep.presentation, 2)
    with pytest.raises(RootFindFailure,
                       match="^word a1: period nan with y-spread nan is not finite$"):
        period_spectrum(exact_curve, ball[:4], ROOTS)


def test_periods_check_fails_on_a_nan_period(exact_curve, monkeypatch):
    """The worst relative error propagates NaN, so a NaN period fails the check."""
    blocks = flows._spectrum_blocks

    def with_nan(curve, words, roots):
        for block, g, g_inv, periods in blocks(curve, words, roots):
            periods[3][2] = math.nan  # word 3, root (2, 3)
            yield block, g, g_inv, periods

    monkeypatch.setattr(cli, "_spectrum_blocks", with_nan)
    ball = enumerate_conjugacy_classes(exact_curve.rep.presentation, 2)
    table, entry = cli.periods_check(exact_curve, ball, ROOTS)
    assert math.isnan(entry["worst_rel_error"]) and entry["passed"] is False
    assert math.isnan(table[0][3, 2]) and math.isnan(table[2][3, 2])


def test_periods_check_equals_a_separate_spectrum_and_jordan_projection(
        reference, exact_curve, bulged_curve03, monkeypatch):
    """Entry and table are the floats of period_spectrum and a stacked jordan_projection.

    On the L<=4 ball (780 words) of the three north-star curves: the
    default Fuchsian one, and the bulged one sampled on word balls 3 and
    4; once more in blocks of 11 words, so that the products of many
    blocks are joined.
    """
    curves = [exact_curve, bulged_curve03,
              sample_boundary(bulge_deform(sym_power(reference, 3), 0.3), reference, 4)]
    ball = enumerate_conjugacy_classes(reference.presentation, 4)
    assert len(ball) == 780
    for entries in (flows.SPECTRUM_BLOCK_ENTRIES, 100):
        monkeypatch.setattr(flows, "SPECTRUM_BLOCK_ENTRIES", entries)
        for curve in curves:
            spectrum = period_spectrum(curve, ball, ROOTS)
            lengths = jordan_projection(curve.rep.matrices(ball),
                                        curve.rep.matrices([w.inverse() for w in ball]))
            periods = [[spectrum[w][root] for root in ROOTS] for w in ball]
            wants = [[root_length(lengths, *root)[k].item() for root in ROOTS]
                     for k in range(len(ball))]
            rel = [[abs(p - want) / max(abs(want), 1e-30) for p, want in zip(*row)]
                   for row in zip(periods, wants)]
            worst = max(max(row) for row in rel)
            table, entry = cli.periods_check(curve, ball, ROOTS)
            assert [a.tolist() for a in table] == [periods, wants, rel]
            assert entry == {"passed": worst < cli.PERIOD_BOUND, "num_words": 780,
                             "worst_rel_error": worst}


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


def test_reference_flow_equals_the_two_inverse_construction():
    """On 1,200 random (x, y, z, t), parameters shifted by whole turns and t in [-5, 5]: the
    closed form agrees with the oracle to 1e-12 mod 2pi, and stacked equals one at a time."""
    rng = np.random.default_rng(8)
    count = 1200
    x = rng.uniform(0.0, 2 * math.pi, count)
    y, z = (x + rng.uniform(0.05, 2 * math.pi - 0.05, count) for _ in range(2))
    x, y, z = (v + 2 * math.pi * rng.integers(-1, 2, count) for v in (x, y, z))
    t = rng.uniform(-5.0, 5.0, count)
    stacked = reference_flow(x, z, y, t)
    want = [two_inverse_reference_flow(*entry) for entry in zip(x, z, y, t)]
    assert np.max(np.abs((stacked - want + math.pi) % (2 * math.pi) - math.pi)) < 1e-12
    assert stacked.tolist() == [reference_flow(*entry) for entry in zip(x, z, y, t)]


def test_reference_flow_gives_a_float_and_refuses_y_at_x():
    assert type(reference_flow(0.3, 3.2, 1.1, 0.7)) is float
    with pytest.raises(NotDefinedHere, match="^y coincides with x on the leaf$"):
        reference_flow(0.3, 3.2, 0.3, 0.7)


def test_cocycle_identity_and_fuchsian_rate(exact_curve):
    p = LeafPoint(0.5, 1.5, 3.9)
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        kappa = cocycle(exact_curve, (i, j), p.x, p.y, p.z, [0.3, 1.0])
        assert np.all(np.abs(kappa - (j - i) * np.array([0.3, 1.0])) < 1e-6)
    s, t = 0.4, 0.9
    moved = LeafPoint(p.x, reference_flow(p.x, p.z, p.y, s), p.z)
    whole, later, first = cocycle(exact_curve, (2, 3), p.x, [p.y, moved.y, p.y], p.z,
                                  [s + t, t, s])
    assert abs(whole - (later + first)) < 1e-9


@pytest.mark.parametrize("curve_name", ["bulged_curve", "exact_curve4"])
def test_stacked_cocycle_equals_one_point_at_a_time(request, curve_name):
    """Bit for bit: each entry reads its own leaf context, interior endpoints included,
    and its own curve points."""
    curve = request.getfixturevalue(curve_name)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 2.0, 6)
    y, z, t = x + rng.uniform(0.3, 1.5, 6), x + rng.uniform(2.0, 4.0, 6), rng.uniform(-1, 1, 6)
    for alpha in ((1, 2), (2, 3)):
        stacked = cocycle(curve, alpha, x, y, z, t)
        assert np.array_equal(stacked, np.concatenate(
            [cocycle(curve, alpha, *entry) for entry in zip(x, y, z, t)]))


def test_stable_leaf_distance_decays(exact_curve):
    p = LeafPoint(0.5, 0.7, 3.9)
    p2 = flow_step(exact_curve, (2, 3), p, 2.0)
    d0, d2 = np.abs(stable_leaf_distance(exact_curve, p.x, [p.y, p2.y], p.z, 3.5))
    assert d2 < d0


def _mp_log_cross_ratio(a, b, p, q):
    """log|(a, b; p, q)| of four float points on one line of RP^2, in 50-digit mpmath:
    2x2 determinants of their coordinates in a Gram-Schmidt frame of the line."""
    with mpmath.workdps(50):
        a, b, p, q = ([mpmath.mpf(t) for t in v.tolist()] for v in (a, b, p, q))

        def dot(u, v):
            return mpmath.fsum(s * t for s, t in zip(u, v))

        e1 = [t / mpmath.sqrt(dot(a, a)) for t in a]
        e2 = [s - dot(b, e1) * t for s, t in zip(b, e1)]
        e2 = [t / mpmath.sqrt(dot(e2, e2)) for t in e2]

        def det(u, v):
            return dot(u, e1) * dot(v, e2) - dot(u, e2) * dot(v, e1)

        return float(mpmath.log(abs(det(q, a) * det(p, b) / (det(p, a) * det(q, b)))))


@pytest.mark.parametrize("curve_name", ["exact_curve", "bulged_curve03"])
def test_stable_leaf_distance_is_a_high_precision_log_cross_ratio(curve_name, request):
    """Each distance is log|(x1, q; p_y0, point)| of the same float points, to 1e-14."""
    curve = request.getfixturevalue(curve_name)
    x, z, y0 = 0.5, 3.9, 3.5
    ys = np.array([row[1] for row in flow_orbit(curve, (2, 3), LeafPoint(x, 0.7, z), 5.0, 10)])
    points, lines = develop(curve, "tan+", x, ys, z)
    p_y0 = cross_meet(lines, curve.frames_at(y0)[:, -1])
    qs = curve.frames_at(second_boundary_intersection(curve, lines, x))[:, :, 0]
    x1 = curve.frames_at(x)[:, 0]
    want = [_mp_log_cross_ratio(x1, *args) for args in zip(qs, p_y0, points)]
    assert np.max(np.abs(stable_leaf_distance(curve, x, ys, z, y0) - want)) < 1e-14


def test_stable_leaf_distance_lets_non_numerical_errors_through(exact_curve, monkeypatch):
    def broken_meet(a, b):
        raise KeyError("not a numerical failure")

    monkeypatch.setattr(flows, "cross_meet", broken_meet)
    with pytest.raises(KeyError):
        stable_leaf_distance(exact_curve, 0.5, 0.7, 3.9, 3.5)


def test_regularity_probe_in_dim_four(exact_curve4):
    # the closed-form curve is smooth, so both tangent fields are
    # Lipschitz and the comparison inequality holds with slack
    report = regularity_probe(exact_curve4, 0.5, 3.6)
    assert 0.85 < report["exponent_highest"] < 1.15
    assert report["exponent_highest"] >= report["exponent_23"] - 0.1
    assert len(report["residuals_highest"]) >= 3
