"""Leafwise cross-ratio metrics, refraction flows, periods, and decay probes.

Sign convention used throughout: on the leaf (x, z) the forward direction
is toward the endpoint x^i ∩ z^{n-i+1} (for the tangent type in dimension
three, toward x2 ∩ z2).  With x the attracting and z the repelling fixed
point of a loxodromic element, one period of the flow is then the
positive root length l_i - l_j.  A leaf point is read from the covector
of its hyperplane y^{n-1}, by two dot products with the segment ends.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import (DegenerateMeet, FlagFlowsError, InsufficientResolution, NotDefinedHere,
                     NotLoxodromic, PointOutsideSegment, RootFindFailure)
from .devmaps import LeafMetricContext, LeafPoint, develop, geodesic_realization, leaf_context
from .limitcurve import ROOT_TOL, BoundaryCurve, bracketed_root, second_boundary_intersection
from .projective import cross_meet, cross_ratio
from .reps import (boundary_vector, circular_gap, loxodromic_eigensystem, read_from_g,
                   theta_of_vector)
from .words import GroupWord

Y_CHOICES = 2  # hyperplane samples whose periods must agree in flow_period
# most entries any one array of period_spectrum holds: a block of words holds
# this many word-product entries (n x n per word), a chunk of the hyperplane
# scan this many (word x curve sample) entries
SPECTRUM_BLOCK_ENTRIES = 16_384
# dyadic scales base * 2^-k, k < count, of the tangent fits in regularity_probe
PROBE_BASE_SCALE, PROBE_SCALES = 0.2, 6


def leafwise_distance(ctx: LeafMetricContext, m1: np.ndarray, m2: np.ndarray) -> float:
    """Signed log-cross-ratio distance along the leaf segment, from covectors of two y^{n-1}.

    Positive when the second image is forward of the first; additive.
    """
    u1, u2 = ctx.coordinate(m1), ctx.coordinate(m2)
    if u1 == 0.0 or u2 == 0.0 or (u1 > 0) != (u2 > 0):
        raise PointOutsideSegment("points on different components of the leaf line")
    return math.log(abs(u2)) - math.log(abs(u1))


def _arc_solve(curve, ctx, p: LeafPoint, target_log_u: float, sign: float) -> float:
    """Solve log|u(y)| = target on the ccw arc from x to z.

    log|u| falls from x to z, so the bracket grows from y toward x when
    log|u(y)| is below the target and toward z otherwise.  A probe whose
    image is numerically a segment endpoint, or undefined, halves its
    distance back toward the last good probe.  The root between the last
    good probe and the first probe past the target is found by
    `bracketed_root` in the arc fraction.
    """
    arc = circular_gap(p.x, p.z)

    def value(frac):
        y = (p.x + frac * arc) % (2 * math.pi)
        u = ctx.coordinate(curve.hyperplane_covectors_at([y])[0])
        if (u > 0) != (sign > 0):
            raise RootFindFailure("image left the segment component")
        return math.log(abs(u)) - target_log_u

    frac0 = circular_gap(p.x, p.y) / arc
    f0 = value(frac0)
    if f0 == 0.0:
        return p.y
    eps = 1e-9

    def expand(frac):
        return max(frac - 0.1, eps) if f0 < 0 else min(frac + 0.1, 1.0 - eps)

    good, f_good, probe = frac0, f0, expand(frac0)
    while abs(probe - good) * arc > ROOT_TOL:
        try:
            fp = value(probe)
        except (RootFindFailure, PointOutsideSegment, DegenerateMeet):
            probe = 0.5 * (good + probe)
            continue
        if fp * f0 <= 0:
            break
        good, f_good, probe = probe, fp, expand(probe)
    else:
        raise RootFindFailure(
            f"no bracket on leaf ({p.x:.6f}, {p.z:.6f}) for target {target_log_u:.3e}"
        )
    frac = bracketed_root(value, good, probe, f_good, fp, ROOT_TOL / arc)
    return (p.x + frac * arc) % (2 * math.pi)


def flow_step(curve: BoundaryCurve, alpha, p: LeafPoint, t: float) -> LeafPoint:
    """Move a leaf point time t along the refraction flow of root alpha.

    The target image point is computed in closed form from the cross-ratio
    equation; the new y is recovered by a bracketed root solve on the arc
    parameter.
    """
    if t == 0.0:
        return p
    ctx = leaf_context(curve, alpha, p.x, p.z)
    u0 = ctx.coordinate(curve.hyperplane_covectors_at([p.y])[0])
    target = math.log(abs(u0)) + t
    y_new = _arc_solve(curve, ctx, p, target, math.copysign(1.0, u0))
    return LeafPoint(p.x, y_new, p.z)


def _orbit(curve: BoundaryCurve, alpha, p: LeafPoint, t_max: float, steps: int):
    """Yield (t, leaf point) from t = 0 to a finite nonzero t_max in `steps` >= 1 flow steps."""
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if t_max == 0.0 or not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite and nonzero, got {t_max}")
    yield 0.0, p
    for k in range(1, steps + 1):
        p = flow_step(curve, alpha, p, t_max / steps)
        yield t_max * k / steps, p


def flow_orbit(curve: BoundaryCurve, alpha, p: LeafPoint, t_max: float, steps: int) -> list:
    """Integrate to a finite nonzero t_max in `steps` >= 1 equal steps.

    Returns the rows (t, y, unit image vector) from t = 0 to t_max.
    """
    orbit = list(_orbit(curve, alpha, p, t_max, steps))
    ctx = leaf_context(curve, alpha, p.x, p.z)
    images = ctx.image(curve.hyperplane_covectors_at([q.y for _, q in orbit]))
    return [(t, q.y, image) for (t, q), image in zip(orbit, images)]


def flow_period(curve: BoundaryCurve, alpha, gamma: GroupWord) -> float:
    """Period of the closed orbit of gamma under the alpha refraction flow.

    Uses exact eigenflags of rep(gamma) at the leaf endpoints; the
    distance from an image point to its gamma image along the leaf is
    independent of the choice of the third parameter, which is verified
    across `Y_CHOICES` samples.
    """
    return _word_periods(curve, [alpha], [gamma])[0][0]


def period_spectrum(curve: BoundaryCurve, words, roots) -> dict:
    """flow_period for many words and roots, in blocks of words.

    One memory rule: no array holds more than SPECTRUM_BLOCK_ENTRIES
    entries.  The word products, eigensystems and pseudo-inverses run once
    per block of SPECTRUM_BLOCK_ENTRIES // n^2 words; only the scan of the
    block's eigenvectors against every hyperplane sample, (word x curve
    sample) entries, runs in chunks of SPECTRUM_BLOCK_ENTRIES // len(curve)
    words.  Returns {word: {root: period}} preserving the input word order.
    """
    words, roots = list(words), [tuple(r) for r in roots]
    size = max(1, SPECTRUM_BLOCK_ENTRIES // curve.n**2)
    out = {}
    for start in range(0, len(words), size):
        block = words[start:start + size]
        for w, periods in zip(block, _word_periods(curve, roots, block)):
            out[w] = dict(zip(roots, periods))
    return out


def _word_periods(curve: BoundaryCurve, roots, words) -> list:
    """Periods of every root for a block of words: one list of periods per word.

    The leaf endpoints x^i ∩ z^{n-i+1} are exactly the eigenvectors of
    rep(gamma), read against each hyperplane as in `LeafMetricContext`.  The
    period is the log-stretch of the image point's segment coordinate
    under gamma, split into its forward and backward coordinate factors;
    each factor is evaluated by applying gamma or the independently
    assembled gamma^{-1} product, as `read_from_g` decides (applying a
    word product amplifies roundoff in subdominant coordinates by the
    spectral spread, which overwhelms float64 for long words otherwise).

    The block runs as stacked array operations.  If any word fails a
    check, the block is halved until the first failing word runs alone,
    so the error raised is that word's own.
    """
    try:
        return _block_periods(curve, roots, words)
    except (FlagFlowsError, ValueError):
        if len(words) == 1:
            raise
        half = len(words) // 2
        return _word_periods(curve, roots, words[:half]) + _word_periods(curve, roots,
                                                                         words[half:])


def _transverse_samples(curve: BoundaryCurve, eigvecs: np.ndarray, roots) -> dict:
    """For each root (i, j), the segment coordinates (W, Y_CHOICES) of the eigenvectors.

    Per word, the Y_CHOICES hyperplane samples y whose log-ratio
    log|y . v_j| - log|y . v_i| is smallest in size are kept, as
    (y . v_i, y . v_j).  Every eigenvector is scanned against every
    sample once, in chunks of words holding at most SPECTRUM_BLOCK_ENTRIES
    entries per array.
    """
    covectors = curve.hyperplane_covectors()
    chunk = max(1, SPECTRUM_BLOCK_ENTRIES // len(covectors))
    indices = {k for root in roots for k in root}
    picks = {root: [] for root in roots}
    for start in range(0, len(eigvecs), chunk):
        vecs = eigvecs[start:start + chunk]
        dots = {k: (covectors @ vecs[:, :, k - 1, None])[:, :, 0] for k in indices}
        with np.errstate(divide="ignore"):
            logs = {k: np.log(np.abs(m)) for k, m in dots.items()}
        for (i, j) in picks:
            with np.errstate(invalid="ignore"):
                ratio = logs[j] - logs[i]
            ok = np.isfinite(ratio)
            if not np.all(np.any(ok, axis=1)):
                raise RootFindFailure("no transverse hyperplane sample on the leaf")
            chosen = np.argpartition(np.abs(np.where(ok, ratio, np.inf)), Y_CHOICES - 1,
                                     axis=1)[:, :Y_CHOICES]
            picks[(i, j)].append([np.take_along_axis(dots[k], chosen, 1) for k in (i, j)])
    return {root: [np.concatenate(part) for part in zip(*parts)]
            for root, parts in picks.items()}


def _block_periods(curve: BoundaryCurve, roots, words) -> list:
    n = curve.n
    for (i, j) in roots:
        if not (1 <= i < j <= n):
            raise ValueError("need 1 <= i < j <= n")
    g_ref = curve.reference.matrices(words)
    if np.any(np.abs(g_ref[:, 0, 0] + g_ref[:, 1, 1]) <= 2.0):
        raise NotLoxodromic("reference image is not hyperbolic")
    g = curve.rep.matrices(words)
    g_inv = curve.rep.matrices([tuple(-x for x in reversed(w.letters)) for w in words])
    vals_g, vecs_g = loxodromic_eigensystem(g)
    _, vecs_i = loxodromic_eigensystem(g_inv)
    lm = np.log(np.abs(vals_g))
    prefer_g = read_from_g(lm)
    # the eigenvector of each index, from whichever product reads it best
    eigvecs = np.where(prefer_g[:, None, :], vecs_g, vecs_i[:, :, ::-1])
    amp = np.array([math.exp(x) for x in
                    np.minimum(lm[:, :1] - lm, lm - lm[:, -1:]).ravel()]).reshape(lm.shape)
    samples = _transverse_samples(curve, eigvecs, roots)
    results = []
    for (i, j) in roots:
        a, b = eigvecs[:, :, i - 1], eigvecs[:, :, j - 1]
        ma_y, mb_y = samples[(i, j)]
        pinv = np.linalg.pinv(np.stack([a, b], axis=-1))  # (W, 2, n)
        points = mb_y[:, :, None] * a[:, None, :] - ma_y[:, :, None] * b[:, None, :]
        factors = []
        for slot, k, coords0 in ((0, i - 1, mb_y), (1, j - 1, -ma_y)):
            op = np.where(prefer_g[:, k, None, None], g, g_inv)
            c = (pinv[:, None] @ (op[:, None] @ points[..., None]))[..., slot, 0]
            ratio = np.abs(c / coords0)
            # math.log per entry: np.log on arrays moves the last bit of some periods
            stretch = np.array([math.log(x) for x in ratio.ravel()]).reshape(ratio.shape)
            factors.append(np.where(prefer_g[:, k, None], stretch, -stretch))
        values = factors[0] - factors[1]  # (W, Y)
        mean = np.mean(values, axis=1)
        spread = values.max(axis=1) - values.min(axis=1)
        noise_floor = 100.0 * np.finfo(float).eps * (amp[:, i - 1] + amp[:, j - 1])
        bound = np.maximum(1e-8 * np.maximum(1.0, np.abs(mean)), noise_floor)
        varies = spread > bound
        if np.any(varies):
            raise RootFindFailure(f"period varies with y by {spread[np.argmax(varies)]:.3e}")
        results.append(mean)
    return np.reshape(results, (len(roots), len(words))).T.tolist()


def reference_flow(x: float, z: float, y: float, t: float) -> float:
    """Unit-speed hyperbolic geodesic flow toward x on the leaf (x, z).

    Normalizes the leaf so that x sits at infinity and z at zero on the
    reference circle; the flow then scales the remaining coordinate by
    e^t.  Independent of the normalizing matrix choice.
    """
    vx, vz = boundary_vector(x), boundary_vector(z)
    m = np.linalg.inv(np.column_stack([vx, vz]))
    w = m @ boundary_vector(y)
    if abs(w[1]) < 1e-15 * abs(w[0]):
        raise NotDefinedHere("y coincides with x on the leaf")
    s = w[0] / w[1]
    s2 = s * math.exp(t)
    v2 = np.linalg.inv(m) @ np.array([s2, 1.0])
    return theta_of_vector(v2)


def cocycle(curve: BoundaryCurve, alpha, p: LeafPoint, t: float) -> float:
    """Translation cocycle of the alpha flow over the reference geodesic flow."""
    ctx = leaf_context(curve, alpha, p.x, p.z)
    y2 = reference_flow(p.x, p.z, p.y, t)
    return leafwise_distance(ctx, *curve.hyperplane_covectors_at([p.y, y2]))


def stable_leaf_distance(curve: BoundaryCurve, p: LeafPoint, y0: float) -> float:
    """Distance from a tangent-flow point to the stable leaf through (x, y0).

    Measured by a log-cross-ratio on the auxiliary line through the image
    point and x1, against its second boundary intersection and its crossing
    of the stable leaf's support line (the tangent at y0).
    """
    x1 = curve.flag_at(p.x).frame[:, 0]
    (point,), (line,) = develop(curve, "tan+", p.x, p.y, p.z)  # the line is x1 + point
    try:
        p_y0 = cross_meet(line, cross_meet(*curve.flag_at(y0).frame.T))
        q_theta = second_boundary_intersection(curve, line, p.x)
    except (FlagFlowsError, ValueError) as exc:
        raise NotDefinedHere(str(exc)) from exc
    value = cross_ratio(x1, curve.aligned_point(q_theta), p_y0, point)
    if value == 0.0 or math.isinf(value):
        raise NotDefinedHere("degenerate cross-ratio configuration")
    return math.log(abs(value))


def decay_experiment(curve: BoundaryCurve, p: LeafPoint, y0: float,
                     t_max: float, steps: int):
    """Slope of log stable-leaf distance against tangent-flow time.

    Returns (slope, samples) where samples is a list of (t, distance)
    over `steps` >= 1 equal steps to a finite nonzero `t_max`.
    """
    samples = [(t, stable_leaf_distance(curve, q, y0))
               for t, q in _orbit(curve, (2, 3), p, t_max, steps)]
    ts, ds = np.array(samples).T
    if np.any(ds == 0):
        raise NotDefinedHere("stable-leaf distance vanished along the orbit")
    slope = float(np.polyfit(ts, np.log(np.abs(ds)), 1)[0])
    return slope, samples


@dataclass(frozen=True)
class RegularityProbeReport:
    exponent_highest: float
    exponent_23: float
    residuals_highest: tuple
    residuals_23: tuple


def regularity_probe(curve: BoundaryCurve, x: float, z: float) -> RegularityProbeReport:
    """Holder exponent of the tangent field along realized image curves (n >= 4).

    Sweeps the one-parameter family (x + s, y + s, z): both the leaf and
    the flow-line parameter must move, since a single leaf maps to a
    straight segment and the x-only family keeps the (2, 3) image inside
    the fixed line z^{n-1} ∩ y^{n-1}.  Compares the highest root (1, n)
    against (2, 3): tangent directions of the image curve are estimated
    by symmetric differences at dyadic parameter scales and the angle
    between nearby tangents is regressed against the separation in
    log-log coordinates.
    """
    n = curve.n
    if n < 4:
        raise ValueError("probe requires n >= 4")
    y_c = (x + circular_gap(x, z) / 2) % (2 * math.pi)

    def image(alpha, s):
        return geodesic_realization(curve, *alpha, LeafPoint(x + s, y_c + s, z)).vector

    def make_chart(alpha):
        # local chart anchored at the central image point (no global
        # affine chart exists for even n)
        h = image(alpha, 0.0)
        q_frame = np.linalg.qr(np.column_stack([h, np.eye(n)]))[0]

        def chart_image(s):
            w = image(alpha, s)
            denom = h @ w
            if abs(denom) < 1e-9 * np.linalg.norm(w):
                raise InsufficientResolution("image point left the local chart")
            return (q_frame[:, 1:].T @ w) / denom

        return chart_image

    def tangent_exponent(alpha):
        chart_image = make_chart(alpha)
        logs_h, logs_angle, residuals = [], [], []
        for k in range(PROBE_SCALES):
            h = PROBE_BASE_SCALE * 0.5**k
            angles = []
            for offset in (-1.0, 0.0, 1.0):
                s0 = offset * 2 * h
                t1 = chart_image(s0 + h) - chart_image(s0 - h)
                t2 = chart_image(s0 + 3 * h) - chart_image(s0 + h)
                c = float(np.dot(t1, t2) / (np.linalg.norm(t1) * np.linalg.norm(t2)))
                angles.append(math.acos(max(-1.0, min(1.0, c))))
            angle = float(np.mean(angles))
            if angle < 1e-13:
                break
            logs_h.append(math.log(h))
            logs_angle.append(math.log(angle))
        if len(logs_h) < 3:
            raise InsufficientResolution("too few usable scales")
        coeffs = np.polyfit(logs_h, logs_angle, 1)
        fit = np.polyval(coeffs, logs_h)
        residuals = tuple(float(r) for r in (np.array(logs_angle) - fit))
        return float(coeffs[0]), residuals

    e_h, r_h = tangent_exponent((1, n))
    e_23, r_23 = tangent_exponent((2, 3))
    return RegularityProbeReport(e_h, e_23, r_h, r_23)
