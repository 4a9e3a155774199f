"""Leafwise cross-ratio metrics, refraction flows, periods, and decay probes.

Sign convention used throughout: on the leaf (x, z) the forward direction
is toward the endpoint x^i ∩ z^{n-i+1} (for the tangent type in dimension
three, toward x2 ∩ z2).  With x the attracting and z the repelling fixed
point of a loxodromic element, one period of the flow is then the
positive root length l_i - l_j.  A leaf point is read from the covector
of its hyperplane y^{n-1} (its frame's last column) by two dot products
with the segment ends, as a segment coordinate that is NaN where
undefined.  Every cross ratio is a ratio of two such coordinates; the
stable-leaf distance reads them on a line through x1, against that
line's covector.

On a fixed leaf the flow adds t to log|u|, u the segment coordinate, so
an orbit is one stacked root solve on one leaf context, and `flow_step`
is its one-target case.  The cocycle and the stable-leaf distances also
take stacked leaf points.  Closed-orbit periods come from one stacked
pass over blocks of words (`_spectrum_blocks`), which `period_spectrum`
and `cli.periods_check` read; the latter adds the words' root lengths.
Each word reads its periods on the hyperplane samples picked by a
bisection on the two arcs of its axis (`_transverse_samples`), not by a
scan over every sample; the axis is the fixed points of its reference
image, from `reps.axis_thetas`, which also refuses a word whose image is
not hyperbolic.  `reps.first_failing_word` names the first word
of a block that fails.
"""

import math

import numpy as np

from .config import (FlagFlowsError, InsufficientResolution, NotDefinedHere, PointOutsideSegment,
                     RootFindFailure)
from .devmaps import LeafMetricContext, LeafPoint, develop, leaf_context, leaf_sweep, leaf_triples
from .limitcurve import ROOT_TOL, BoundaryCurve, bracketed_root, second_boundary_intersection
from .projective import cross_meet
from .reps import (_check_root, _thetas_of_vectors, axis_thetas, boundary_vector, circular_gap,
                   first_failing_word, loxodromic_eigensystem, read_from_g)

Y_CHOICES = 2  # hyperplane samples whose periods must agree in period_spectrum
# most entries any one word-sized array of period_spectrum holds: a block of
# words holds this many word-product entries (n x n per word), a chunk of the
# transverse-sample search this many candidate covector entries
SPECTRUM_BLOCK_ENTRIES = 16_384
# dyadic scales base * 2^-k, k < count, of the tangent fits in regularity_probe
PROBE_BASE_SCALE, PROBE_SCALES = 0.2, 6
# arc fractions on which flow targets are bracketed: halvings toward both
# leaf ends down to 2^-30 (about 1e-9) of the arc, and sixteenths between
FLOW_GRID = np.unique(np.concatenate([0.5 ** np.arange(1, 31), 1.0 - 0.5 ** np.arange(1, 31),
                                      np.arange(1, 16) / 16]))


def leafwise_distance(ctx: LeafMetricContext, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Signed log-cross-ratio distances along the leaf segments, from covectors of two y^{n-1}.

    Stacked like the context's leaves; positive where the second image is
    forward of the first; additive.
    """
    u1, u2 = ctx.coordinate(m1), ctx.coordinate(m2)
    if np.any(np.isnan(u1) | np.isnan(u2)):
        raise PointOutsideSegment("y^{n-1} holds the segment or its forward end")
    if np.any((u1 == 0.0) | (u2 == 0.0) | ((u1 > 0) != (u2 > 0))):
        raise PointOutsideSegment("points on different components of the leaf line")
    # math.log per entry: np.log on arrays moves the last bit of some values
    logs = [math.log(abs(b)) - math.log(abs(a)) for a, b in zip(np.ravel(u1), np.ravel(u2))]
    return np.reshape(logs, np.shape(u1))


def _flow_ys(curve: BoundaryCurve, alpha, p: LeafPoint, times):
    """The y of p moved each time of `times` along the alpha flow, and the leaf's context.

    The targets log|u(p.y)| + t are bracketed on FLOW_GRID and p.y: log|u|
    falls from x to z, so a forward time takes the sign change nearest p.y
    toward x, a backward time the nearest toward z.  Probes without a
    `coordinate` (NaN), or on the other component of the leaf line, are
    masked.  All brackets are refined together in the arc fraction.
    """
    ctx = leaf_context(curve, alpha, p.x, p.z)
    u0 = ctx.coordinate(curve.frames_at(p.y)[:, -1])
    if np.isnan(u0):
        raise PointOutsideSegment("y^{n-1} holds the segment or its forward end")
    times = np.asarray(times, dtype=float)
    targets = math.log(abs(u0)) + times
    arc = circular_gap(p.x, p.z)
    frac0 = circular_gap(p.x, p.y) / arc

    def logs(frac):
        m = curve.frames_at((p.x + frac * arc) % (2 * math.pi))[..., -1]
        u = ctx.coordinate(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(u * u0 > 0, np.log(np.abs(u)), np.nan)

    grid = np.union1d(FLOW_GRID, frac0)
    values = logs(grid)
    grid, values = grid[np.isfinite(values)], values[np.isfinite(values)] - targets[:, None]
    forward = times > 0
    candidates = (values[:, :-1] * values[:, 1:] <= 0) & np.where(
        forward[:, None], grid[:-1] < frac0, grid[1:] > frac0)  # [grid[j], grid[j + 1]]
    missing = np.flatnonzero(~candidates.any(axis=1))
    if missing.size:
        raise RootFindFailure(f"no bracket on leaf ({p.x:.6f}, {p.z:.6f}) "
                              f"for target {targets[missing[0]]:.3e}")
    j = np.where(forward, candidates.shape[1] - 1 - np.argmax(candidates[:, ::-1], axis=1),
                 np.argmax(candidates, axis=1))
    rows = np.arange(times.size)
    fracs = bracketed_root(lambda frac, i: logs(frac) - targets[i], grid[j], grid[j + 1],
                           values[rows, j], values[rows, j + 1], ROOT_TOL / arc)
    return (p.x + fracs * arc) % (2 * math.pi), ctx


def flow_step(curve: BoundaryCurve, alpha, p: LeafPoint, t: float) -> LeafPoint:
    """Move a leaf point time t along the refraction flow of root alpha.

    The one-target case of the orbit solve: the target image coordinate
    is log|u(y)| + t, and the new y is its bracketed root on the arc.
    """
    if t == 0.0:
        return p
    return LeafPoint(p.x, float(_flow_ys(curve, alpha, p, [t])[0][0]), p.z)


def _orbit(curve: BoundaryCurve, alpha, p: LeafPoint, t_max: float, steps: int):
    """Times, ys and leaf context of an orbit to a finite nonzero t_max in `steps` >= 1 steps."""
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if t_max == 0.0 or not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite and nonzero, got {t_max}")
    times = [0.0] + [t_max * k / steps for k in range(1, steps + 1)]
    ys, ctx = _flow_ys(curve, alpha, p, times[1:])
    return times, [p.y, *ys.tolist()], ctx


def flow_orbit(curve: BoundaryCurve, alpha, p: LeafPoint, t_max: float, steps: int) -> list:
    """Integrate to a finite nonzero t_max in `steps` >= 1 equal steps.

    Returns the rows (t, y, unit image vector) from t = 0 to t_max.
    """
    times, ys, ctx = _orbit(curve, alpha, p, t_max, steps)
    return list(zip(times, ys, ctx.image(curve.frames_at(ys)[..., -1])))


def period_spectrum(curve: BoundaryCurve, words, roots) -> dict:
    """Periods of the closed orbits of `words` under the refraction flows of `roots`.

    A period uses exact eigenflags of rep(gamma) at the leaf endpoints;
    the distance from an image point to its gamma image along the leaf is
    independent of the choice of the third parameter, which is verified
    across `Y_CHOICES` hyperplane samples, found per word by a search on
    the two arcs of its axis (`_transverse_samples`).  Returns {word:
    {root: period}} preserving the input word order, from the blocks of
    `_spectrum_blocks`.
    """
    roots = [tuple(r) for r in roots]
    out = {}
    for block, g, g_inv, periods in _spectrum_blocks(curve, words, roots):
        out.update((w, dict(zip(roots, values))) for w, values in zip(block, periods))
        del g, g_inv, periods  # the next block runs without this block's arrays and lists
    return out


def _spectrum_blocks(curve: BoundaryCurve, words, roots):
    """Yield (words, g, g_inv, periods) per block of the word list, in order: the
    products of the words and of their inverses (built once, here), and per
    word one period per root.  Every root is checked before any product runs.

    One memory rule: no array whose size grows with the number of words
    holds more than SPECTRUM_BLOCK_ENTRIES entries.  A block has
    SPECTRUM_BLOCK_ENTRIES // n^2 words; the search for its transverse
    samples reads (word x root x arc) entries at once, and its candidate
    covectors in chunks of words.  The block pass also copies the
    curve's covectors, three times (N x n) entries.
    """
    words, roots = list(words), [tuple(r) for r in roots]
    for i, j in roots:
        _check_root(i, j, curve.n)
    size = max(1, SPECTRUM_BLOCK_ENTRIES // curve.n**2)
    for start in range(0, len(words), size):
        block = words[start:start + size]
        g = curve.rep.matrices(block)
        g_inv = curve.rep.matrices([w.inverse() for w in block])
        yield block, g, g_inv, first_failing_word(
            curve.rep.presentation, block,
            lambda rows: _block_periods(curve, roots, block[rows], g[rows], g_inv[rows]))


def _transverse_samples(curve: BoundaryCurve, eigvecs: np.ndarray, roots, axes) -> dict:
    """For each root (i, j), the segment coordinates (W, Y_CHOICES) of the eigenvectors.

    Per word, the Y_CHOICES hyperplane samples y whose log-ratio
    log|y . v_j| - log|y . v_i| is smallest in size are kept, as
    (y . v_i, y . v_j): one argmin per choice, the lowest index first
    among ties, each pick masked before the next.  A word needs Y_CHOICES
    candidates on which the log-ratio is finite.

    The candidates come from the two arcs of the word's reference axis
    `axes` = (x, z), arrays (W,) from `reps.axis_thetas`: the sorted
    samples from the first at or after x to the last before z, and from
    the first at or after z to the last before x.  The ratio
    |y . v_j| / |y . v_i| runs from infinity at x to 0 at z, and at n = 3
    it is monotone on each arc.  There every y is a tangent line of a
    strictly convex curve (Goldman 1990), and the ratio is r where y
    passes through one of two points of the line
    v_i v_j.  For (1, 2) and (2, 3) that line is the tangent at x or at z,
    and through each of its points off the curve passes one more tangent
    line, touching one arc.  The line v_1 v_3 is a chord; through each of
    its points outside the curve pass two tangent lines, one touching
    each arc, and through those inside none.  So each arc holds one sign
    change of |y . v_j| - |y . v_i|, found by bisection (`_sign_changes`),
    and the key falls to it and rises after it.  The candidates are the
    two samples on each side of each change and each arc's first and
    last samples: a sample at x or z (the eigenflag of the word or of its
    powers) has both dots at roundoff, and the bisection never reads it.
    At other n the oracle tests on the exact n = 2 and n = 4 curves stand
    in for the argument.

    The keys are the scan's floats: each candidate's dots come from the
    same per-word product, `covectors[ids] @ v`, as those of a product
    over every sample.  The candidates are read in chunks of words, so
    that no array holds more than SPECTRUM_BLOCK_ENTRIES entries.
    """
    covectors = np.ascontiguousarray(curve.frames[:, :, -1])  # the strided column reads slower
    count, n = covectors.shape
    x, z = axes
    first = np.searchsorted(curve.thetas, np.stack([x, z], axis=-1))  # (W, 2): (x, z), (z, x)
    on_xz = first[:, 1] - first[:, 0] + count * (x > z)  # samples on the arc (x, z)
    last = np.stack([on_xz, count - on_xz], axis=-1) - 1  # offset of each arc's last sample
    lower, upper = [i - 1 for i, _ in roots], [j - 1 for _, j in roots]
    change = _sign_changes(covectors, eigvecs, lower, upper, first, last)
    ends = np.stack([first, first + last], axis=-1)[:, None]  # (W, 1, 2, 2)
    per_root = 2 * 6  # per arc its two ends and the four samples at its change
    chosen = [np.empty((len(eigvecs) * len(roots), Y_CHOICES)) for _ in range(2)]
    chunk = max(1, SPECTRUM_BLOCK_ENTRIES // (per_root * len(roots) * n))
    for start in range(0, len(eigvecs), chunk):
        rows = slice(start, start + chunk)
        near = change[rows, :, :, None] + np.arange(-1, 3)  # (w, R, 2, 4)
        ids = np.concatenate([np.broadcast_to(ends[rows], near.shape[:3] + (2,)), near], axis=-1)
        ids = np.sort(ids.reshape(-1, per_root) % count, axis=-1)  # per (word, root), in order
        candidates = np.take(covectors, ids, axis=0).reshape(len(near), len(roots), per_root, n)
        vecs = eigvecs[rows].swapaxes(1, 2)[..., None]  # (w, index, n, 1)
        dots = [(candidates @ vecs[:, k]).reshape(ids.shape) for k in (lower, upper)]
        with np.errstate(divide="ignore", invalid="ignore"):
            key = np.abs(np.log(np.abs(dots[1])) - np.log(np.abs(dots[0])))
        key[np.isnan(key)] = np.inf
        key[:, 1:][ids[:, 1:] == ids[:, :-1]] = np.inf  # a sample read twice counts once
        each = np.arange(len(ids))
        for c in range(Y_CHOICES):
            pick = np.argmin(key, axis=1)
            if np.any(key[each, pick] == np.inf):
                raise RootFindFailure("no transverse hyperplane sample on the leaf" if c == 0
                                      else f"fewer than {Y_CHOICES} transverse hyperplane "
                                      "samples on the leaf")
            key[each, pick] = np.inf
            for table, d in zip(chosen, dots):
                table[start * len(roots) + each, c] = d[each, pick]
    return {root: [table.reshape(-1, len(roots), Y_CHOICES)[:, r] for table in chosen]
            for r, root in enumerate(roots)}


def _sign_changes(covectors, eigvecs, lower, upper, first, last) -> np.ndarray:
    """Per word, root and arc (W, R, 2), the last sample at which the dot that leads
    from the arc's start is the larger in size: |y . v_j| on (x, z), |y . v_i|
    on (z, x).  An index past the curve's last sample wraps around.

    `first` and `last` (W, 2) are each arc's first sample and its last
    sample's offset; the bisection takes the first sample to lead and
    reads neither.
    """
    n = covectors.shape[1]
    columns = np.tile(covectors.T, 2)  # (n, 2N): an arc's samples need no wrap
    # per coordinate k, (W, R, 2): the leading and trailing eigenvector on each arc
    leads = np.transpose([upper, lower])
    lead = [np.ascontiguousarray(eigvecs[:, k][:, leads]) for k in range(n)]
    trail = [np.ascontiguousarray(eigvecs[:, k][:, leads[:, ::-1]]) for k in range(n)]
    change = np.repeat(first[:, None], len(upper), axis=1)
    stop = change + last[:, None]
    step = 1 << max(int(last.max(initial=0)).bit_length() - 1, 0)
    while step:
        probe = change + step
        inside = probe < stop
        y = columns[0].take(probe, mode="clip")  # a probe past its arc is not used
        ahead, behind = y * lead[0], y * trail[0]
        for k in range(1, n):
            columns[k].take(probe, out=y, mode="clip")
            ahead += y * lead[k]
            behind += y * trail[k]
        inside &= np.abs(ahead) > np.abs(behind)
        np.add(change, step, out=change, where=inside)
        step >>= 1
    return change


def _block_periods(curve: BoundaryCurve, roots, words, g, g_inv) -> list:
    """Periods of every root, one list per word, for a block of words and their products.

    The leaf endpoints x^i ∩ z^{n-i+1} are the eigenvectors of rep(gamma),
    read against each hyperplane as in `LeafMetricContext`; the period is
    the log-stretch under gamma of the image point's segment coordinate, a
    forward minus a backward coordinate factor.  Each eigenvector and
    factor is read from gamma or from the independent gamma^{-1} product,
    as `read_from_g` decides: a word product amplifies roundoff in
    subdominant coordinates by its spectral spread, too much for float64.
    """
    axes = axis_thetas(curve.reference.matrices(words))
    vals_g, vecs_g = loxodromic_eigensystem(g)
    _, vecs_i = loxodromic_eigensystem(g_inv)
    lm = np.log(np.abs(vals_g))
    prefer_g = read_from_g(lm)
    # the eigenvector of each index, from whichever product reads it best
    eigvecs = np.where(prefer_g[:, None, :], vecs_g, vecs_i[:, :, ::-1])
    amp = np.array([math.exp(x) for x in
                    np.minimum(lm[:, :1] - lm, lm - lm[:, -1:]).ravel()]).reshape(lm.shape)
    samples = _transverse_samples(curve, eigvecs, roots, axes)
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
        finite = np.isfinite(mean) & np.isfinite(spread)
        if not np.all(finite):
            w = np.argmin(finite)
            raise RootFindFailure(f"period {mean[w]:.3e} with y-spread {spread[w]:.3e} "
                                  "is not finite")
        noise_floor = 100.0 * np.finfo(float).eps * (amp[:, i - 1] + amp[:, j - 1])
        bound = np.maximum(1e-8 * np.maximum(1.0, np.abs(mean)), noise_floor)
        varies = spread > bound
        if np.any(varies):
            raise RootFindFailure(f"period varies with y by {spread[np.argmax(varies)]:.3e}")
        results.append(mean)
    return np.reshape(results, (len(roots), len(words))).T.tolist()


def reference_flow(x, z, y, t):
    """Unit-speed hyperbolic geodesic flow toward x on the leaves (x, z), from y for time t.

    On parameters that broadcast, and a float for floats.  With v = `boundary_vector`,
    v(y) is s v(x) + v(z) up to scale, s = sin((y - z)/2) / sin((x - y)/2), and the flow
    scales s by e^t: the new point is (s e^t) v(x) + v(z).
    """
    x, z, y, t = np.broadcast_arrays(x, z, y, t)
    num, den = np.sin((y - z) / 2.0), np.sin((x - y) / 2.0)
    if np.any(np.abs(den) < 1e-15 * np.abs(num)):
        raise NotDefinedHere("y coincides with x on the leaf")
    v = num / den * np.exp(t) * boundary_vector(x) + boundary_vector(z)
    theta = _thetas_of_vectors(v)
    return float(theta) if theta.ndim == 0 else theta


def cocycle(curve: BoundaryCurve, alpha, x, y, z, t) -> np.ndarray:
    """Translation cocycle of the alpha flow over the reference geodesic flow.

    On the leaf points (x, y, z) and times t, which broadcast to m
    entries as the parameters of `develop` do; returns m values.
    """
    x, y, z, t = np.broadcast_arrays(*np.atleast_1d(x, y, z, t))
    x, y, z = leaf_triples(x, y, z)
    ctx = leaf_context(curve, alpha, x, z)
    ys = np.stack([y, reference_flow(x, z, y, t)])
    return leafwise_distance(ctx, *curve.frames_at(ys)[..., -1])


def stable_leaf_distance(curve: BoundaryCurve, x, y, z, y0: float) -> np.ndarray:
    """Distances from tangent-flow points (x, y, z) to the stable leaf through (x, y0).

    Stacked as in `develop`.  The line through each image point and x1
    meets the boundary again at q, all scanned at once, and the stable
    leaf's support line (the tangent at y0) at p_y0.  The distance is
    log|u(p_y0) / u(point)|, the log cross ratio (x1, q; p_y0, point),
    u the segment coordinate on (x1, q) read against that line.
    """
    x, y, z = leaf_triples(x, y, z)
    frames = curve.frames_at(np.append(x, y0))
    points, lines = develop(curve, "tan+", x, y, z)  # each line is x1 + point
    try:
        p_y0 = cross_meet(lines, frames[-1, :, -1])
        q_theta = second_boundary_intersection(curve, lines, x)
        ctx = LeafMetricContext(frames[:-1, :, 0], curve.frames_at(q_theta)[:, :, 0])
    except (FlagFlowsError, ValueError) as exc:
        raise NotDefinedHere(str(exc)) from exc
    u0, u1 = ctx.coordinate(np.cross(np.stack([p_y0, points]), lines))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(u0 / u1)
    if not np.all(np.isfinite(ratio) & (ratio > 0)):
        raise NotDefinedHere("degenerate cross-ratio configuration")
    return np.log(ratio)


def decay_experiment(curve: BoundaryCurve, p: LeafPoint, y0: float,
                     t_max: float, steps: int):
    """Slope of log stable-leaf distance against tangent-flow time.

    Returns (slope, samples) where samples is a list of (t, distance)
    over `steps` >= 1 equal steps to a finite nonzero `t_max`.
    """
    times, ys, _ = _orbit(curve, (2, 3), p, t_max, steps)
    ds = stable_leaf_distance(curve, p.x, ys, p.z, y0)
    if np.any(ds == 0):
        raise NotDefinedHere("stable-leaf distance vanished along the orbit")
    slope = float(np.polyfit(times, np.log(np.abs(ds)), 1)[0])
    return slope, list(zip(times, ds.tolist()))


def regularity_probe(curve: BoundaryCurve, x: float, z: float) -> dict:
    """Holder exponent of the tangent field along realized image curves (n >= 4).

    Sweeps the one-parameter family (x + s, y + s, z): both the leaf and
    the flow-line parameter must move, since a single leaf maps to a
    straight segment and the x-only family keeps the (2, 3) image inside
    the fixed line z^{n-1} ∩ y^{n-1}.  Compares the highest root (1, n)
    against (2, 3): tangent directions of the image curve are estimated
    by symmetric differences at dyadic parameter scales and the angle
    between nearby tangents is regressed against the separation in
    log-log coordinates.  Returns the fitted exponents and residuals as
    exponent_highest, exponent_23, residuals_highest and residuals_23.
    """
    n = curve.n
    if n < 4:
        raise ValueError("probe requires n >= 4")
    y_c = leaf_sweep(x, z, 1)[0]
    h = PROBE_BASE_SCALE * 0.5 ** np.arange(PROBE_SCALES)
    # per scale h and offset s0 in (-2h, 0, 2h), the shifts s0 - h, s0 + h, s0 + 3h
    shifts = h[:, None, None] * (np.array([-2.0, 0.0, 2.0])[:, None] + [-1.0, 1.0, 3.0])

    def tangent_exponent(alpha):
        # the images at every shift in one stack, in a local chart anchored at
        # the image of shift 0 (no global affine chart exists for even n)
        s = np.append(0.0, shifts)
        images = leaf_context(curve, alpha, x + s, z).image(curve.frames_at(y_c + s)[..., -1])
        anchor, images = images[0], images[1:]
        denom = images @ anchor
        if np.any(np.abs(denom) < 1e-9 * np.linalg.norm(images, axis=1)):
            raise InsufficientResolution("image point left the local chart")
        q_frame = np.linalg.qr(np.column_stack([anchor, np.eye(n)]))[0]
        chart = ((images @ q_frame[:, 1:]) / denom[:, None]).reshape(shifts.shape + (n - 1,))
        t1, t2 = chart[..., 1, :] - chart[..., 0, :], chart[..., 2, :] - chart[..., 1, :]
        cosines = np.sum(t1 * t2, axis=-1) / (np.linalg.norm(t1, axis=-1)
                                              * np.linalg.norm(t2, axis=-1))
        angles = np.arccos(np.clip(cosines, -1.0, 1.0)).mean(axis=1)
        usable = np.cumprod(angles >= 1e-13).astype(bool)  # the scales before the first flat one
        if usable.sum() < 3:
            raise InsufficientResolution("too few usable scales")
        logs_h, logs_angle = np.log(h[usable]), np.log(angles[usable])
        coeffs = np.polyfit(logs_h, logs_angle, 1)
        return float(coeffs[0]), tuple((logs_angle - np.polyval(coeffs, logs_h)).tolist())

    e_h, r_h = tangent_exponent((1, n))
    e_23, r_23 = tangent_exponent((2, 3))
    return {"exponent_highest": e_h, "exponent_23": e_23,
            "residuals_highest": r_h, "residuals_23": r_23}
