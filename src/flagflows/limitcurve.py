"""Numerical approximation of equivariant boundary flag curves.

A `BoundaryCurve` holds circularly ordered samples theta -> full flag,
where theta parameterizes the boundary circle through the reference
Fuchsian representation (see `flagflows.reps`); the flags are stored as
one (N, n, n-1) array of `Flag` frames, so scans are array expressions.
Samples come from attracting eigenflags over a word ball; Fuchsian curves
can instead be built in closed form from the symmetric-power embedding,
which gives exact flags at any parameter (used by the high-accuracy
experiments).

The curve is evaluated on arrays only: `interpolate` takes parameters of
any shape and returns their frames from one `searchsorted`, one stacked
Procrustes alignment and one stacked QR; `frames_at` reads from it.
Root solves are stacked too: `bracketed_root` steps every open bracket
of a check with one curve evaluation, so callers pass all their chords
or flow targets at once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    AmbiguousBracket,
    InsufficientResolution,
    InsufficientSamples,
    NoSecondIntersection,
    NotDefinedHere,
    NotLoxodromic,
    RootFindFailure,
)
from .projective import AffineChart, Flag, ProjectiveSubspace, annihilator, flag_frames
from .reps import (
    SurfaceGroupRep,
    circular_gap,
    loxodromic_eigensystem,
    sym_matrix,
    sym_power,
    theta_of_vector,
)
from .words import enumerate_conjugacy_classes

ROOT_TOL = 1e-12                # arc-parameter bracket width at which root solves stop
FRENET_MIN_GAP = 0.1            # least circular gap inside a general-position n-tuple
GENERAL_POSITION_BOUND = 1e-4   # least singular value of n well-separated xi^1 vectors
OSCULATION_BOUND = 10.0         # largest chord-to-tangent angle per unit gap
SUPPORT_TOL = 1e-8              # chart residual allowed on the wrong side of a tangent
MIN_SAMPLES = 64                # fewest distinct samples sample_boundary accepts
FUCHSIAN_SAMPLES = 1024         # evenly spaced samples of a closed-form Fuchsian curve
REGULARITY_BASE_POINTS = 64     # base points of the fits in boundary_regularity_estimate


@dataclass
class BoundaryCurve:
    """Sampled limit curve theta -> flag, with chart and sign conventions.

    `frames[i]` is the frame of the flag at `thetas[i]` (see `Flag`).
    `positive_covector` fixes a sign-normalized lift of the curve: every
    xi^1 sample v satisfies positive_covector . v > 0, which makes
    incidence residuals along the curve continuous.
    """

    thetas: np.ndarray
    frames: np.ndarray
    rep: SurfaceGroupRep
    reference: SurfaceGroupRep
    exact_eval: object = None  # optional callable: parameters (m,) -> frames (m, n, n-1)

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float)
        order = np.argsort(self.thetas)
        self.thetas = self.thetas[order]
        self.frames = np.asarray(self.frames, dtype=float)[order]
        if np.any(np.diff(self.thetas) < 1e-10):
            raise ValueError("duplicate thetas in curve samples")
        self._build_chart()

    # -- construction helpers ------------------------------------------------

    def _build_chart(self):
        n = self.rep.n
        points = self.frames[:, :, 0].T.copy()  # C order: the sums below round by layout
        # chain-align signs along the circular order
        turns = np.where(np.einsum("ij,ij->j", points[:, 1:], points[:, :-1]) < 0, -1.0, 1.0)
        vecs = points * np.concatenate([[1.0], np.cumprod(turns)])
        if vecs.shape[1] >= 3 and vecs[:, 0] @ vecs[:, -1] < 0:
            # odd-degree lift (even n): the curve meets every hyperplane,
            # so no affine chart contains it; chart-based queries disabled
            self.chart = None
            self.positive_covector = None
            self._aligned_points = vecs
            self._interp_error = 1e-12 if self.exact_eval is not None else 1e-6
            return
        barycenter = vecs.mean(axis=1)
        barycenter /= np.linalg.norm(barycenter)
        # The infinity covector is an average of aligned tangent covectors:
        # an interior point of the dual convex domain, so the corresponding
        # hyperplane misses the closed convex hull of the curve.
        covectors = self.hyperplane_covectors()
        flips = np.where(covectors @ barycenter < 0, -1.0, 1.0)
        h = np.mean(covectors * flips[:, None], axis=0)
        h /= np.linalg.norm(h)
        signs = h @ vecs
        if np.min(signs) <= 0:
            raise ValueError("curve samples are not contained in the chosen affine chart")
        self.positive_covector = h
        # complete h to a basis and recenter/rescale to unit size in the chart
        q = np.linalg.qr(np.column_stack([h, np.eye(n)]))[0]
        raw = (q[:, 1:].T @ vecs) / signs[None, :]
        center = raw.mean(axis=1)
        scale = max(np.abs(raw - center[:, None]).max(), 1e-12)
        frame = np.vstack([(q[:, 1:].T - np.outer(center, h)) / scale, h[None, :]])
        self.chart = AffineChart(frame)
        self._aligned_points = vecs / np.abs(signs)[None, :]
        self._interp_error = self._estimate_interp_error()

    def _estimate_interp_error(self) -> float:
        if self.exact_eval is not None:
            return 1e-12
        p = self._aligned_points
        count = p.shape[1]
        if count < 4:
            return 1e-6
        gaps = (np.roll(self.thetas, -1) - self.thetas) % (2.0 * math.pi)  # to the next sample
        # local curvature scale from the deviation of each sample off the
        # chord of its neighbors, then worst-gap chord error |f''| g^2 / 8
        g1, g2 = np.roll(gaps, 1), gaps
        lerp = (g2 * np.roll(p, 1, axis=1) + g1 * np.roll(p, -1, axis=1)) / (g1 + g2)
        curv = 2.0 * np.linalg.norm(p - lerp, axis=0) / (g1 * g2)
        # cap outlier curvature estimates (tiny-gap triples amplify noise)
        local = np.minimum(np.maximum(curv, np.roll(curv, -1)),
                           np.percentile(curv, 90))
        per_gap = local * gaps**2 / 8.0
        return float(max(per_gap.max(), 1e-12))

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        return self.rep.n

    def __len__(self):
        return self.thetas.size

    @property
    def interp_error(self) -> float:
        return self._interp_error

    def _require_chart(self):
        if self.chart is None:
            raise NotDefinedHere("curve has no global affine chart (even n)")

    def _lift(self, vectors) -> np.ndarray:
        """The vectors (..., n), each signed to pair positively with `positive_covector`."""
        return vectors * np.copysign(1.0, vectors @ self.positive_covector)[..., None]

    def chart_points(self) -> np.ndarray:
        """Chart coordinates of all xi^1 samples, in circular order (N, 2); read-only."""
        self._require_chart()
        if not hasattr(self, "_chart_points"):
            w = self.chart.frame @ self._aligned_points
            self._chart_points = (w[:-1] / w[-1]).T
            self._chart_points.setflags(write=False)
        return self._chart_points

    def hyperplane_covectors(self) -> np.ndarray:
        """Annihilator covectors of the top flag level at every sample (N, n); read-only."""
        if not hasattr(self, "_hyperplane_covectors"):
            self._hyperplane_covectors = annihilator(self.frames)[..., 0]
            self._hyperplane_covectors.setflags(write=False)
        return self._hyperplane_covectors

    def frames_at(self, thetas) -> np.ndarray:
        """Frames (..., n, n-1) of the flags at parameters of any shape: `interpolate`."""
        return interpolate(self, thetas)

    def hyperplane_covectors_at(self, thetas) -> np.ndarray:
        """Annihilator covectors (..., n) of the top levels of `frames_at`."""
        return annihilator(self.frames_at(thetas))[..., 0]

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "rep": self.rep.to_dict(),
            "reference": self.reference.to_dict(),
            "samples": [
                {"theta": float(t), "flag": Flag(f).to_dict()}
                for t, f in zip(self.thetas, self.frames)
            ],
        }


def sample_boundary(rep: SurfaceGroupRep, reference: SurfaceGroupRep,
                    max_word_len: int) -> BoundaryCurve:
    """Sample the limit curve at attracting fixed points of a word ball.

    Each conjugacy-class representative (and its inverse, enumerated as a
    separate class) contributes theta = attracting fixed point of the
    reference Mobius action, flag = attracting eigenflag of rep.  Equal
    thetas are resolved by keeping the longest word, whose eigenflag is
    the best converged.
    """
    ball = enumerate_conjugacy_classes(rep.presentation, max_word_len)
    m2 = reference.matrices(ball)
    elliptic = np.flatnonzero(np.abs(m2[:, 0, 0] + m2[:, 1, 1]) <= 2.0)
    try:
        _, vecs = loxodromic_eigensystem(rep.matrices(ball))
    except NotLoxodromic as exc:
        # the error of the first failing word, as a word-by-word scan raises it
        if not elliptic.size or exc.index[0] < elliptic[0]:
            raise NotLoxodromic(
                f"word {rep.presentation.format_word(ball[exc.index[0]])}: {exc}") from exc
    if elliptic.size:
        raise NotLoxodromic(
            f"reference image of {rep.presentation.format_word(ball[elliptic[0]])} "
            "is not hyperbolic")
    # attracting axes of the reference Mobius actions
    vals2, vecs2 = np.linalg.eig(m2)
    lead = np.argsort(-np.abs(vals2), axis=-1)[:, 0]
    samples = {}
    for k, w in enumerate(ball):
        theta = theta_of_vector(vecs2[k, :, lead[k]].real)
        key = round(theta / 1e-10)
        prev = samples.get(key)
        if prev is None or len(w) > len(ball[prev[1]]):
            samples[key] = (theta, k)
    if len(samples) < MIN_SAMPLES:
        raise InsufficientSamples(f"only {len(samples)} distinct boundary samples")
    thetas, rows = zip(*sorted(samples.values()))
    return BoundaryCurve(np.array(thetas), flag_frames(vecs[list(rows), :, : rep.n - 1]),
                         rep, reference)


def _rotation_to(theta: float) -> np.ndarray:
    """SL2 rotation carrying the RP^1 point (1, 0) to boundary_vector(theta)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[-c, -s], [s, -c]])


def fuchsian_curve(reference: SurfaceGroupRep, n: int) -> BoundaryCurve:
    """Closed-form limit curve of the Fuchsian representation sym_power(reference, n).

    The flag at theta is the symmetric power of a rotation applied to the
    coordinate flag (the osculating flag of the moment curve), which is
    exact at every parameter.  The curve carries this evaluator, stacked
    over parameters, and its samples are the evaluator's frames at
    FUCHSIAN_SAMPLES evenly spaced parameters.
    """
    rep = sym_power(reference, n)

    def exact_eval(thetas) -> np.ndarray:
        m = sym_matrix(np.reshape([_rotation_to(t) for t in thetas], (-1, 2, 2)), n)
        return flag_frames(m[..., : n - 1])

    thetas = (np.arange(FUCHSIAN_SAMPLES) + 0.5) * 2 * math.pi / FUCHSIAN_SAMPLES
    return BoundaryCurve(thetas, exact_eval(thetas), rep, reference, exact_eval=exact_eval)


def interpolate(curve: BoundaryCurve, thetas) -> np.ndarray:
    """Frames (..., n, n-1) of the flags at parameters of any shape.

    One `searchsorted` finds the sample gap of every parameter.  Within
    1e-13 of a sample the stored frame is returned; elsewhere the exact
    evaluator, if the curve has one.  Otherwise each flag level (a frame
    prefix) is blended linearly across its gap after Procrustes alignment
    of the gap's two bases, and the new column of each level is kept.
    Alignment and QR run stacked: each frame is the same floats as alone.
    """
    thetas = np.asarray(thetas, dtype=float)
    if not np.all(np.isfinite(thetas)):
        bad = thetas[~np.isfinite(thetas)][0]
        raise ValueError(f"flag parameter theta must be finite; got {bad}")
    count = curve.thetas.size
    if count < 2:
        raise InsufficientSamples("need at least two samples to interpolate")
    theta = thetas.ravel() % (2 * math.pi)
    hi = np.searchsorted(curve.thetas, theta) % count
    lo = (hi - 1) % count
    d = np.abs(curve.thetas[[lo, hi]] - theta)
    at = (d < 1e-13) | (np.abs(d - 2 * math.pi) < 1e-13)  # at the sample lo, or hi
    frames = curve.frames[np.where(at[0], lo, hi)]
    new = ~(at[0] | at[1])
    lo, hi, theta = lo[new], hi[new], theta[new]
    if curve.exact_eval is not None and theta.size:
        frames[new] = curve.exact_eval(theta)
    elif theta.size:
        lam = (circular_gap(curve.thetas[lo], theta)
               / circular_gap(curve.thetas[lo], curve.thetas[hi]))[:, None, None]
        columns = []
        for k in range(1, curve.n):
            b_lo, b_hi = curve.frames[lo, :, :k], curve.frames[hi, :, :k]
            # Procrustes alignment of the two bases before the linear blend;
            # for one column the rotation is the sign of the inner product
            if k == 1:
                aligned = b_hi * np.copysign(1.0, np.sum(b_hi * b_lo, axis=1))[:, None]
            else:
                u, _, vt = np.linalg.svd(np.swapaxes(b_hi, 1, 2) @ b_lo)
                aligned = b_hi @ (u @ vt)
            columns.append(((1.0 - lam) * b_lo + lam * aligned)[:, :, k - 1])
        frames[new] = flag_frames(np.stack(columns, axis=-1))
    return frames.reshape(thetas.shape + frames.shape[1:])


def second_boundary_intersection(curve: BoundaryCurve, lines, known):
    """The other parameter at which each line through xi^1(known) meets the curve.

    A line is a hyperplane (a projective line for n=3): a covector (n,),
    which is normalized, or a `ProjectiveSubspace`, and gives a float; m
    covectors (m, n), with one known parameter or m, give m parameters.
    The incidence residual over sin(s/2), s the ccw offset from known,
    changes sign once, at the second intersection.  One scan of the
    stored samples brackets every chord, and `bracketed_root` refines all
    brackets together.  The first chord that misses xi^1(known), or whose
    scan finds no sign change or several, raises as a loop would.
    """
    if isinstance(lines, ProjectiveSubspace):
        if lines.dim != curve.n - 1:
            raise ValueError("expected a hyperplane (projective line for n=3)")
        lines = annihilator(lines.basis)[:, 0]
    covectors = np.atleast_2d(lines)
    if np.ndim(lines) > 2 or covectors.shape[1:] != (curve.n,):
        raise ValueError(f"expected covectors of shape ({curve.n},); got {np.shape(lines)}")
    covectors = covectors / np.linalg.norm(covectors, axis=1, keepdims=True)
    known = np.broadcast_to(np.asarray(known, dtype=float), covectors.shape[:1])
    curve._require_chart()
    two_pi, eps = 2 * math.pi, 1e-7

    def residual(points, rows):  # elementwise, so a chord's floats do not depend on the stack
        return np.sum(covectors[rows] * curve._lift(points), axis=-1)

    def deflated(s, rows):
        return residual(curve.frames_at(known[rows] + s)[..., 0], rows) / np.sin(s / 2.0)

    rows = np.arange(known.size)
    r_known, start, end = residual(curve.frames_at(
        known + np.array([[0.0], [eps], [two_pi - eps]]))[..., 0], rows)
    # the scan: the two ends eps from known, and the samples between them in
    # ccw order, where a sample within eps of known takes its end's place
    start, end = start / math.sin(eps / 2.0), end / math.sin((two_pi - eps) / 2.0)
    offsets = (curve.thetas - known[:, None]) % two_pi
    with np.errstate(divide="ignore", invalid="ignore"):
        sampled = residual(curve.frames[:, None, :, 0], rows).T / np.sin(offsets / 2.0)
    sampled = np.where(offsets <= eps, start[:, None], np.where(
        (known[:, None] - curve.thetas) % two_pi <= eps, end[:, None], sampled))
    offsets = np.clip(offsets, eps, two_pi - eps)
    order = np.argsort(offsets, axis=1, kind="stable")
    grid = np.pad(np.take_along_axis(offsets, order, 1), ((0, 0), (1, 1)),
                  constant_values=(eps, two_pi - eps))
    values = np.column_stack([start, np.take_along_axis(sampled, order, 1), end])
    changes = values[:, :-1] * values[:, 1:] < 0
    counts = changes.sum(axis=1)
    misses = np.abs(r_known) > 1e-6
    for k in np.flatnonzero(misses | (counts != 1))[:1]:
        if misses[k]:
            raise ValueError(f"line misses xi^1(known) by {abs(r_known[k]):.3e}")
        if counts[k] == 0:
            raise NoSecondIntersection("no sign change: line is numerically tangent")
        raise AmbiguousBracket(f"{counts[k]} sign changes; samples not convex here")
    j = np.argmax(changes, axis=1)
    s = bracketed_root(deflated, grid[rows, j], grid[rows, j + 1],
                       values[rows, j], values[rows, j + 1], ROOT_TOL)
    roots = (known + s) % two_pi
    return float(roots[0]) if np.ndim(lines) == 1 else roots


def bracketed_root(f, a, b, fa, fb, tol) -> np.ndarray:
    """Roots of f in stacked brackets [a, b] (either order), given fa = f(a) and fb = f(b).

    Chandrupatla's method (Adv. Eng. Softw. 28, 1997, 145-149): each step
    is the inverse quadratic interpolation through the bracket ends and
    the point last dropped where their values allow it, else a bisection.
    Every open bracket steps at once: `f(x, rows)` is called once per step
    on the new abscissae x of the open brackets `rows`.  A bracket closes
    when at most `tol` wide (plus 4 eps |x|), or on an exact zero, and
    gives its end with the smaller |f|.  Raises RootFindFailure naming the
    first bracket without a sign change, or a value that is not finite.
    """
    a, b, fa, fb, tol = (np.array(v, dtype=float).ravel()
                         for v in np.broadcast_arrays(a, b, fa, fb, tol))
    for k in np.flatnonzero((fa != 0.0) & (fb != 0.0) & ((fa > 0.0) == (fb > 0.0)))[:1]:
        raise RootFindFailure(f"no sign change on [{a[k]:.17g}, {b[k]:.17g}]")
    roots = np.where(fa == 0.0, a, b)
    rows = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    # x1 is the newest point, x2 the other end of its bracket, x3 the point last dropped
    x1, f1, x2, f2, tol = a[rows], fa[rows], b[rows], fb[rows], tol[rows]
    x3, f3, t = x2, f2, np.full(rows.size, 0.5)
    while rows.size:
        small = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(small, x1, x2), np.where(small, f1, f2)
        tl = (2.0 * np.finfo(float).eps * np.abs(xm) + 0.5 * tol) / np.abs(x2 - x1)
        done = (tl > 0.5) | (fm == 0.0)
        roots[rows[done]] = xm[done]
        rows, x1, f1, x2, f2, x3, f3, t, tl, tol = (
            v[~done] for v in (rows, x1, f1, x2, f2, x3, f3, t, tl, tol))
        if not rows.size:
            break
        xt = x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1)
        ft = np.asarray(f(xt, rows), dtype=float)
        for k in np.flatnonzero(~np.isfinite(ft))[:1]:
            raise RootFindFailure(f"value {ft[k]} at {xt[k]:.17g}")
        keep = np.sign(ft) == np.sign(f1)  # xt replaces x1 on the same side of the root
        x3, f3 = np.where(keep, x1, x2), np.where(keep, f1, f2)
        x2, f2 = np.where(keep, x2, x1), np.where(keep, f2, f1)
        x1, f1 = xt, ft
        with np.errstate(divide="ignore", invalid="ignore"):
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            t = np.where((phi**2 < xi) & ((1.0 - phi)**2 < 1.0 - xi),
                         f1 / (f2 - f1) * f3 / (f2 - f3)
                         + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2), 0.5)
    return roots


@dataclass(frozen=True)
class FrenetReport:
    min_triple_singular_value: float
    max_osculation_defect: float
    general_position_ok: bool
    osculation_ok: bool


def frenet_checks(curve: BoundaryCurve) -> FrenetReport:
    """Numerical diagnostics for the two hyperconvexity conditions.

    (a) general position: smallest singular value of stacked xi^1 vectors
    over well-separated sample n-tuples; (b) osculation: angle between the
    chord of adjacent samples and the tangent hyperplane, per unit gap.
    """
    if len(curve) < 16:
        raise InsufficientSamples("need at least 16 samples for frenet checks")
    n = curve.n
    thetas = curve.thetas
    count = thetas.size
    # (a) the n-tuples start, start + stride, ... for each stride and start
    stride_base = max(1, count // 64)
    strides = np.array([stride_base, 2 * stride_base, 3 * stride_base + 1])
    starts = np.arange(0, count, max(1, count // 32))
    idx = ((starts[None, :, None] + strides[:, None, None] * np.arange(n))
           % count).reshape(-1, n)
    pts = thetas[idx]
    gaps = (pts[:, None, :] - pts[:, :, None]) % (2 * math.pi)  # both ways round
    separated = np.all(gaps[:, ~np.eye(n, dtype=bool)] > FRENET_MIN_GAP, axis=1)
    stacked = np.swapaxes(curve.frames[idx[separated], :, 0], 1, 2)
    sv = np.linalg.svd(stacked, compute_uv=False)
    min_sv = float(sv[:, -1].min()) if sv.size else np.inf
    # (b) the chords of adjacent samples at most 0.5 apart
    nxt = np.roll(np.arange(count), -1)
    chord_gaps = (thetas[nxt] - thetas) % (2 * math.pi)
    short = chord_gaps <= 0.5
    q, _ = np.linalg.qr(np.stack([curve.frames[short, :, 0], curve.frames[nxt[short], :, 0]],
                                 axis=2))
    tangents = curve.frames[short]  # each spans the hyperplane entry
    # max principal angle of containment of the chord in the tangent
    s = np.linalg.svd(np.swapaxes(tangents, 1, 2) @ q, compute_uv=False)
    max_defect = max([0.0] + [math.acos(min(1.0, float(c))) / float(g)
                              for c, g in zip(s[:, -1], chord_gaps[short])])
    return FrenetReport(
        min_triple_singular_value=float(min_sv),
        max_osculation_defect=float(max_defect),
        general_position_ok=bool(min_sv > GENERAL_POSITION_BOUND),
        osculation_ok=bool(max_defect < OSCULATION_BOUND),
    )


def convex_domain_checks(curve: BoundaryCurve):
    """(is_convex, tangents_support) of the chart polygon of the xi^1 samples.

    The polygon is convex when all its turns have one sign; the tangent
    line at each sample supports it when no two vertices lie more than
    `SUPPORT_TOL` on opposite sides of it.
    """
    v = curve.chart_points()
    e = np.roll(v, -1, axis=0) - v
    cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    is_convex = bool(np.all(cross > 0) or np.all(cross < 0))
    tangents = curve.chart.line_to_chart(curve.hyperplane_covectors())
    support = all(vals.max() <= SUPPORT_TOL or vals.min() >= -SUPPORT_TOL
                  for vals in (v @ line[:2] + line[2] for line in tangents))
    return is_convex, support


def boundary_regularity_estimate(curve: BoundaryCurve):
    """Estimate boundary regularity exponents (alpha_hat, beta_hat).

    At many base points, regress log height of the boundary over its
    tangent line against log offset along the tangent; alpha_hat and
    beta_hat are the extreme fitted exponents.  For a conic both are 2.
    """
    if len(curve) < 128:
        raise InsufficientSamples("need at least 128 samples")
    pts = curve.chart_points()
    count = pts.shape[0]
    window = max(8, count // 16)
    exponents = []
    for b_idx in range(0, count, max(1, count // REGULARITY_BASE_POINTS)):
        coeffs = curve.chart.line_to_chart(curve.hyperplane_covectors()[b_idx])
        normal = np.asarray(coeffs[:-1], dtype=float)
        normal /= np.linalg.norm(normal)
        rel = pts[[(b_idx + k) % count for k in range(-window, window + 1) if k != 0]] - pts[b_idx]
        h = rel @ normal
        s = np.linalg.norm(rel - np.outer(h, normal), axis=1)
        if np.median(np.sign(h[np.abs(h) > 0])) < 0:
            h = -h
        mask = (h > 1e-14) & (np.abs(s) > 1e-10)
        if mask.sum() < 8:
            continue
        ls, lh = np.log(np.abs(s[mask])), np.log(h[mask])
        if ls.max() - ls.min() < math.log(10.0):
            continue
        slope = np.polyfit(ls, lh, 1)[0]
        exponents.append(float(slope))
    if not exponents:
        raise InsufficientResolution("no base point spans a decade of offsets")
    return min(exponents), max(exponents)
