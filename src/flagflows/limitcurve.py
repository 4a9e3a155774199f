"""Numerical approximation of equivariant boundary flag curves.

A `BoundaryCurve` holds circularly ordered samples theta -> full flag,
where theta parameterizes the boundary circle through the reference
Fuchsian representation (see `flagflows.reps`); the flags are stored as
one (N, n, n) array of complete frames, so scans are array expressions.
Samples come from attracting eigenflags over a word ball; Fuchsian curves
can instead be built in closed form from the symmetric-power embedding,
which gives exact flags at any parameter (used by the high-accuracy
experiments): the flag at theta is a fixed integer table of the
symmetric power, read off `sym_matrix` once per curve, contracted with
the monomials in cos(theta/2) and sin(theta/2), then one stacked QR.

The curve is evaluated on arrays only: `interpolate` takes parameters of
any shape and returns their frames from one `searchsorted`, one blend
toward the curve's table of aligned gap ends and one stacked QR;
`frames_at` reads from it.  At odd n every covector is signed positive on
the interior of the curve's convex hull.  Root solves are stacked too:
`bracketed_root` steps every open bracket of a check with one curve
evaluation, so callers pass all their chords or flow targets at once, and
a boundary scan on a sampled curve solves its brackets between samples in
closed form.
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
    PointOutsideDomain,
    RootFindFailure,
)
from .projective import INFINITY_TOL, ProjectiveSubspace, annihilator, flag_frames
from .reps import (
    SurfaceGroupRep,
    axis_thetas,
    circular_gap,
    first_failing_word,
    loxodromic_eigensystem,
    sym_matrix,
    sym_power,
)
from .words import enumerate_conjugacy_classes

ROOT_TOL = 1e-12                # arc-parameter bracket width at which root solves stop
FRENET_MIN_GAP = 0.1            # least circular gap inside a general-position n-tuple
GENERAL_POSITION_BOUND = 1e-4   # least singular value of n well-separated xi^1 vectors
OSCULATION_BOUND = 10.0         # largest chord-to-tangent angle per unit gap
SUPPORT_TOL = 1e-8              # pairing of a tangent covector with a sample allowed below 0
SUPPORT_BLOCK_ENTRIES = 16_384  # most (tangent x vertex) entries of one support test array
MIN_SAMPLES = 64                # fewest distinct samples sample_boundary accepts
MIN_SAMPLE_GAP = 1e-10          # least gap between sorted sample thetas; closer ones are one
FUCHSIAN_SAMPLES = 1024         # evenly spaced samples of a closed-form Fuchsian curve
REGULARITY_BASE_POINTS = 64     # boundary_regularity_estimate fits at every (N // 64)-th sample:
                                # at least 64 base points


@dataclass
class BoundaryCurve:
    """Sampled limit curve theta -> flag, with chart and sign conventions.

    `frames[i]` is the complete frame (n, n) of the flag at `thetas[i]` (see `flag_frames`),
    at odd n its last column signed positive on the hull.  `positive_covector` fixes a
    sign-normalized lift of the curve: every xi^1 sample v satisfies positive_covector . v
    > 0, which makes incidence residuals along the curve continuous; `aligned_points` (n, N),
    read-only, holds the lifts scaled to pair with it to 1 (odd n; None at even n).  The
    chart is that plane h.p = 1 in the frame E = `chart` (n, n-1), read-only, completing h
    to an orthonormal basis: v has chart coordinates E^T v / (h.v), the chart point u lifts
    to E u + h, and chart distances are distances in the plane.

    `gap_table()` is built the first time `interpolate` needs it and kept,
    read-only: per sample gap its width and the Procrustes-aligned blend targets
    of its levels, N + N x n x (n-1) floats, from which a sampled curve is blended.
    """

    thetas: np.ndarray
    frames: np.ndarray
    rep: SurfaceGroupRep
    reference: SurfaceGroupRep
    exact_eval: object = None  # optional callable: parameters (m,) -> frames (m, n, n)

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float)
        order = np.argsort(self.thetas)
        self.thetas = self.thetas[order]
        self.frames = np.asarray(self.frames, dtype=float)[order]
        if self.frames.shape[1:] != (self.n, self.n):
            raise ValueError(f"expected complete flag frames (N, {self.n}, {self.n}); "
                             f"got shape {self.frames.shape}")
        if np.any(np.diff(self.thetas) < MIN_SAMPLE_GAP):
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
            # so no affine chart contains it; chart queries are refused
            self.chart = self.positive_covector = self.aligned_points = None
            self._interp_error = 1e-12 if self.exact_eval is not None else 1e-6
            return
        barycenter = vecs.mean(axis=1)
        barycenter /= np.linalg.norm(barycenter)
        # The infinity covector is an average of aligned tangent covectors:
        # an interior point of the dual convex domain, so the corresponding
        # hyperplane misses the closed convex hull of the curve.
        covectors = self.frames[:, :, -1]
        covectors *= np.where(covectors @ barycenter < 0, -1.0, 1.0)[:, None]  # the stored frames
        self._barycenter = barycenter  # `interpolate` signs each covector it makes by it too
        h = np.mean(covectors, axis=0)
        h /= np.linalg.norm(h)
        signs = h @ vecs
        if np.min(signs) <= 0:
            raise ValueError("curve samples are not contained in the chosen affine chart")
        self.positive_covector = h
        self.chart = np.linalg.qr(np.column_stack([h, np.eye(n)]))[0][:, 1:]  # h is column 0
        self.aligned_points = vecs / np.abs(signs)[None, :]
        for table in (self.chart, self.aligned_points):
            table.setflags(write=False)
        self._interp_error = self._estimate_interp_error()

    def _estimate_interp_error(self) -> float:
        if self.exact_eval is not None:
            return 1e-12
        p = self.aligned_points
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

    def hull_chords(self) -> np.ndarray:
        """Unit covectors (N, 3) of the chords p_k p_k+1 of `aligned_points` (n=3), signed
        by the orientation of their polygon: positive inside it when it is convex."""
        self._require_chart()
        p = self.aligned_points.T
        chords = np.cross(p, np.roll(p, -1, axis=0) - p)  # p_k x p_k+1, to roundoff in the step
        area = chords.sum(axis=0) @ self.positive_covector  # twice the polygon's signed area
        return chords * (math.copysign(1.0, area) / np.linalg.norm(chords, axis=1))[:, None]

    def chart_points(self) -> np.ndarray:
        """Chart coordinates E^T p of the `aligned_points` p, in circular order (N, n-1);
        read-only."""
        self._require_chart()
        points = (self.chart.T @ self.aligned_points).T
        points.setflags(write=False)
        return points

    def in_chart(self, points) -> np.ndarray:
        """Whether each point (..., n) is off the chart's hyperplane at infinity h.p = 0:
        |h.p| >= INFINITY_TOL |p|."""
        self._require_chart()
        return (np.abs(points @ self.positive_covector)
                >= INFINITY_TOL * np.linalg.norm(points, axis=-1))

    def to_chart(self, points) -> np.ndarray:
        """Chart coordinates (..., n-1), E^T p / (h.p), of points (..., n), all `in_chart`."""
        if not np.all(self.in_chart(points)):
            raise PointOutsideDomain("point lies on the chart's hyperplane at infinity")
        return (points @ self.chart) / (points @ self.positive_covector)[..., None]

    def line_to_chart(self, covectors) -> np.ndarray:
        """Coefficients (..., n), (E^T c, h.c) scaled so E^T c has unit norm, of the chart's
        hyperplanes a.u + b = 0 of covectors c (..., n)."""
        self._require_chart()
        coeffs = np.concatenate([covectors @ self.chart,
                                 (covectors @ self.positive_covector)[..., None]], axis=-1)
        return coeffs / np.linalg.norm(coeffs[..., :-1], axis=-1, keepdims=True)

    def gap_table(self):
        """(widths (N,), targets (N, n, n-1)) of the sample gaps, gap hi ending at sample hi.

        `widths[hi]` is the ccw gap from sample hi-1 (circularly) to sample hi;
        column k-1 of `targets[hi]` is column k-1 of level k of frame hi after
        Procrustes alignment to level k of frame hi-1, the end `interpolate`
        blends toward (for one column the rotation is the sign of the inner
        product).  Stacked over all gaps, each the same floats as alone; read-only.
        """
        if not hasattr(self, "_gap_table"):
            hi = np.arange(len(self))
            lo = (hi - 1) % hi.size
            columns = []
            for k in range(1, self.n):
                b_lo, b_hi = self.frames[lo, :, :k], self.frames[hi, :, :k]
                if k == 1:
                    aligned = b_hi * np.copysign(1.0, np.sum(b_hi * b_lo, axis=1))[:, None]
                else:
                    u, _, vt = np.linalg.svd(np.swapaxes(b_hi, 1, 2) @ b_lo)
                    aligned = b_hi @ (u @ vt)
                columns.append(aligned[:, :, k - 1])
            self._gap_table = (circular_gap(self.thetas[lo], self.thetas),
                               np.stack(columns, axis=-1))
            for table in self._gap_table:
                table.setflags(write=False)
        return self._gap_table

    def frames_at(self, thetas) -> np.ndarray:
        """Complete frames (..., n, n) of the flags at parameters of any shape: `interpolate`."""
        return interpolate(self, thetas)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """The reps and the samples, each flag listing its level k as the first k frame columns."""
        n = self.n
        return {
            "rep": self.rep.to_dict(),
            "reference": self.reference.to_dict(),
            "samples": [
                {"theta": float(t), "flag": {"subspaces": [
                    {"ambient_dim": n, "basis": f[:, :k].tolist()} for k in range(1, n)]}}
                for t, f in zip(self.thetas, self.frames)
            ],
        }


def sample_boundary(rep: SurfaceGroupRep, reference: SurfaceGroupRep,
                    max_word_len: int) -> BoundaryCurve:
    """Sample the limit curve at attracting fixed points of a word ball.

    Each conjugacy-class representative (and its inverse, enumerated as a
    separate class) contributes theta = attracting fixed point of the
    reference Mobius action (`reps.axis_thetas`), flag = attracting
    eigenflag of rep.  Thetas closer than MIN_SAMPLE_GAP, the gap that
    `BoundaryCurve` refuses, are one sample: the longest word's, whose
    eigenflag is the best converged.  `first_failing_word` names a failing word.
    """
    ball = enumerate_conjugacy_classes(rep.presentation, max_word_len)
    m2, g = reference.matrices(ball), rep.matrices(ball)

    def run(rows):  # per word, the reference axis comes first
        return axis_thetas(m2[rows])[0], loxodromic_eigensystem(g[rows])[1]

    thetas, vecs = first_failing_word(rep.presentation, ball, run)
    # one sample per run of sorted thetas whose gaps are below MIN_SAMPLE_GAP: the
    # longest word's, the first seen among equals
    order = np.argsort(thetas, kind="stable")
    runs = np.cumsum(np.diff(thetas[order], prepend=-np.inf) >= MIN_SAMPLE_GAP)
    best = np.lexsort((order, -np.array([len(w) for w in ball])[order], runs))
    rows = order[best[np.diff(runs[best], prepend=0) != 0]]  # ascending with theta
    if rows.size < MIN_SAMPLES:
        raise InsufficientSamples(f"only {rows.size} distinct boundary samples")
    return BoundaryCurve(thetas[rows], flag_frames(vecs[rows, :, : rep.n - 1]),
                         rep, reference)


def fuchsian_curve(reference: SurfaceGroupRep, n: int) -> BoundaryCurve:
    """Closed-form limit curve of the Fuchsian representation sym_power(reference, n).

    The flag at theta is the symmetric power of the rotation [[-c, -s], [s, -c]]
    (c, s the cosine and sine of theta / 2, from `math.cos` and `math.sin`)
    carrying (1, 0) to boundary_vector(theta), applied to the coordinate flag
    (the osculating flag of the moment curve), which is exact at every
    parameter.  Its first n - 1 columns are an integer (n, n, n-1) table, read
    off `sym_matrix` once per curve, contracted with the monomials c^(n-1-k) s^k:
    the evaluator sums those n products elementwise in table order and takes
    `flag_frames`, so each frame is the same floats alone and in any stack.  The
    samples are the evaluator's frames at FUCHSIAN_SAMPLES even parameters.
    """
    rep = sym_power(reference, n)
    half = (np.arange(n) + 0.5) * math.pi / n
    c, s = np.cos(half), np.sin(half)
    powers = c[:, None] ** np.arange(n - 1, -1, -1) * s[:, None] ** np.arange(n)
    columns = sym_matrix(np.stack([-c, -s, s, -c], axis=-1).reshape(n, 2, 2), n)[..., :n - 1]
    solved = np.linalg.solve(powers, columns.reshape(n, -1)).reshape(n, n, n - 1)
    table = np.rint(solved) + 0.0  # no negative zeros
    if not np.all(np.abs(solved - table) < 1e-3):
        raise ValueError(f"symmetric power table is not integral at n={n}")

    def exact_eval(thetas) -> np.ndarray:
        halves = (np.asarray(thetas, dtype=float) / 2.0).tolist()
        c, s = np.array([(math.cos(h), math.sin(h)) for h in halves]).reshape(-1, 2).T
        c_powers, s_powers = [np.ones_like(c)], [np.ones_like(s)]
        for _ in range(n - 1):
            c_powers.append(c_powers[-1] * c)
            s_powers.append(s_powers[-1] * s)
        total = (c_powers[n - 1] * s_powers[0])[:, None, None] * table[0]
        for k in range(1, n):
            total = total + (c_powers[n - 1 - k] * s_powers[k])[:, None, None] * table[k]
        return flag_frames(total)

    thetas = (np.arange(FUCHSIAN_SAMPLES) + 0.5) * 2 * math.pi / FUCHSIAN_SAMPLES
    return BoundaryCurve(thetas, exact_eval(thetas), rep, reference, exact_eval=exact_eval)


def interpolate(curve: BoundaryCurve, thetas) -> np.ndarray:
    """Complete frames (..., n, n) of the flags at parameters of any shape.

    One `searchsorted` finds the sample gap of every parameter.  Within
    1e-13 of a sample the stored frame is returned; elsewhere the exact
    evaluator, if the curve has one.  Otherwise each flag level (a frame
    prefix) is blended linearly across its gap, lam = (theta - theta_lo) /
    width, after Procrustes alignment of the gap's upper basis to its lower
    one, and the new columns of the levels go to `flag_frames`; the widths
    and aligned columns come from `gap_table`, so a call is one blend
    (1 - lam) frames[lo, :, :-1] + lam targets[hi] and one stacked QR, and
    each frame is the same floats as alone.
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
        widths, targets = curve.gap_table()
        lam = (circular_gap(curve.thetas[lo], theta) / widths[hi])[:, None, None]
        frames[new] = flag_frames((1.0 - lam) * curve.frames[lo, :, :-1] + lam * targets[hi])
    if curve.chart is not None and theta.size:  # odd n: covectors positive on the hull
        frames[new, :, -1] *= np.copysign(1.0, frames[new, :, -1] @ curve._barycenter)[:, None]
    return frames.reshape(thetas.shape + frames.shape[1:])


def _incidence(covectors, points) -> np.ndarray:
    """covectors . points over the last axis, broadcast, as the explicit sum
    ((c0 p0 + c1 p1) + c2 p2) + ...: the floats of np.sum over a short axis, elementwise,
    so a chord's floats do not depend on the stack."""
    total = covectors[..., 0] * points[..., 0]
    for k in range(1, covectors.shape[-1]):
        total = total + covectors[..., k] * points[..., k]
    return total


def second_boundary_intersection(curve: BoundaryCurve, lines, known):
    """The other parameter at which each line through xi^1(known) meets the curve.

    A line is a hyperplane (a projective line for n=3): a covector (n,),
    which is normalized, or a `ProjectiveSubspace`, and gives a float; m
    covectors (m, n), with one known parameter or m, give m parameters.
    The incidence residual over sin(s/2), s the ccw offset from known,
    changes sign once, at the second intersection.  One scan of the
    xi^1 samples, signed by the curve's lift, brackets every chord; the
    first chord that misses xi^1(known), or whose scan finds no sign change
    or several, raises as a loop would.

    On a sampled curve (no `exact_eval`) a bracket between two samples lo and
    hi, neither within 1e-7 of known, is solved in closed form: there the
    interpolated xi^1 is the normalized (1 - lam) p_lo + lam p_hi of the lifted
    samples, lam linear in the parameter across the gap (`gap_table`), so
    the root is lam = r_lo / (r_lo - r_hi) with r = covector . p.  The other
    brackets are refined together by `bracketed_root`: every bracket of a
    curve with `exact_eval`, the two brackets that end 1e-7 from known, a
    bracket with an end at a sample within 1e-7 of known (its value replaced
    by that end's), and a bracket whose lifted samples pair negatively.
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

    def residual(points, rows):
        return _incidence(covectors[rows], curve._lift(points))

    def deflated(s, rows):
        return residual(curve.frames_at(known[rows] + s)[..., 0], rows) / np.sin(s / 2.0)

    rows = np.arange(known.size)
    r_known, start, end = residual(curve.frames_at(
        known + np.array([[0.0], [eps], [two_pi - eps]]))[..., 0], rows)
    # the scan: the two ends eps from known, and the samples between them in
    # ccw order, where a sample within eps of known takes its end's place
    start, end = start / math.sin(eps / 2.0), end / math.sin((two_pi - eps) / 2.0)
    lifted = curve._lift(curve.frames[:, :, 0])
    offsets = (curve.thetas - known[:, None]) % two_pi
    ahead, behind = offsets <= eps, (known[:, None] - curve.thetas) % two_pi <= eps
    raw = _incidence(covectors[:, None, :], lifted)
    with np.errstate(divide="ignore", invalid="ignore"):
        sampled = raw / np.sin(offsets / 2.0)
    sampled = np.where(ahead, start[:, None], np.where(behind, end[:, None], sampled))
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
    roots = np.empty(known.size)
    closed = np.zeros(known.size, dtype=bool)
    if curve.exact_eval is None:
        # grid entry j is the scan's (j-1)-st sample: brackets 1..N-1 join two samples
        lo = order[rows, np.maximum(j - 1, 0)]
        hi = order[rows, np.minimum(j, len(curve) - 1)]
        replaced = ahead | behind
        closed = ((j >= 1) & (j < len(curve)) & ~replaced[rows, lo] & ~replaced[rows, hi]
                  & (_incidence(lifted[lo], lifted[hi]) > 0.0))
        lo, hi = lo[closed], hi[closed]
        r_lo, r_hi = raw[closed, lo], raw[closed, hi]
        lam = r_lo / (r_lo - r_hi)
        roots[closed] = (curve.thetas[lo] + lam * curve.gap_table()[0][hi]) % two_pi
    it = np.flatnonzero(~closed)
    if it.size:
        s = bracketed_root(lambda x, r: deflated(x, it[r]), grid[it, j[it]], grid[it, j[it] + 1],
                           values[it, j[it]], values[it, j[it] + 1], ROOT_TOL)
        roots[it] = (known[it] + s) % two_pi
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


def frenet_checks(curve: BoundaryCurve) -> dict:
    """The two hyperconvexity conditions, as the check entry that `frenet-check` prints.

    (a) general position: smallest singular value of stacked xi^1 vectors
    over well-separated sample n-tuples; (b) osculation: angle between the
    chord of adjacent samples and the tangent hyperplane, per unit gap.
    The entry passes when both hold.
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
    tangents = curve.frames[short, :, :n - 1]  # each spans the hyperplane entry
    # max principal angle of containment of the chord in the tangent
    s = np.linalg.svd(np.swapaxes(tangents, 1, 2) @ q, compute_uv=False)
    max_defect = max([0.0] + [math.acos(min(1.0, float(c))) / float(g)
                              for c, g in zip(s[:, -1], chord_gaps[short])])
    general = bool(min_sv > GENERAL_POSITION_BOUND)
    osculating = bool(max_defect < OSCULATION_BOUND)
    return {"passed": general and osculating, "general_position_ok": general,
            "osculation_ok": osculating, "min_triple_singular_value": float(min_sv),
            "max_osculation_defect": float(max_defect)}


def convex_domain_checks(curve: BoundaryCurve) -> dict:
    """The check entry of the polygon of `aligned_points` p_k (n=3): is_convex, tangents_support.

    It is convex when its turns det(p_k, p_k+1, p_k+2) have one sign, and the stored tangent
    covectors, signed positive on the hull, support it when each p_j pairs with each at
    >= -SUPPORT_TOL (in blocks of SUPPORT_BLOCK_ENTRIES); the entry passes when both hold.
    """
    chords, p = curve.hull_chords(), curve.aligned_points
    # det(p_k, p_k+1, p_k+2) as chord . (p_k+2 - p_k+1): close samples keep a tiny turn's sign
    turns = np.sum(chords * (np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)).T, axis=1)
    is_convex = bool(np.all(turns > 0) or np.all(turns < 0))
    size = max(1, SUPPORT_BLOCK_ENTRIES // len(chords))
    support = all(np.all(t @ p >= -SUPPORT_TOL)
                  for t in np.split(curve.frames[:, :, -1], range(size, len(chords), size)))
    return {"passed": is_convex and support, "is_convex": is_convex, "tangents_support": support}


def boundary_regularity_estimate(curve: BoundaryCurve):
    """Estimate boundary regularity exponents (alpha_hat, beta_hat).

    At every (N // REGULARITY_BASE_POINTS)-th sample, the base point, take the
    height of the samples within N // 16 (at least 8) of it over its tangent
    line and their offset along it.  Offsets and heights above 1e-10 and 1e-14
    are kept, and a base point with at least 8 of them spanning a decade of
    offsets fits log height against log offset by least squares; all fits are
    one masked, stacked expression.  alpha_hat and beta_hat are the extreme
    fitted exponents.  For a conic both are 2.
    """
    if len(curve) < 128:
        raise InsufficientSamples("need at least 128 samples")
    bases, exponents = _regularity_exponents(curve)
    if not bases.size:
        raise InsufficientResolution("no base point spans a decade of offsets")
    return float(exponents.min()), float(exponents.max())


def _regularity_exponents(curve: BoundaryCurve):
    """(base points (B,), fitted exponents (B,)) of `boundary_regularity_estimate`."""
    pts = curve.chart_points()
    count = pts.shape[0]
    window = max(8, count // 16)
    bases = np.arange(0, count, max(1, count // REGULARITY_BASE_POINTS))
    normals = curve.line_to_chart(curve.frames[bases, :, -1])[:, :-1]
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    rel = pts[(bases[:, None] + offsets) % count] - pts[bases, None]  # (base, offset, 2)
    heights = (rel @ normals[:, :, None])[..., 0]  # each base's product, as alone
    spans = np.linalg.norm(rel - heights[..., None] * normals[:, None, :], axis=-1)
    mask = (heights > 1e-14) & (spans > 1e-10)
    ls, lh = np.log(np.where(mask, spans, 1.0)), np.log(np.where(mask, heights, 1.0))
    kept = mask.sum(axis=1)
    decade = np.where(mask, ls, -np.inf).max(axis=1) - np.where(mask, ls, np.inf).min(axis=1)
    fits = (kept >= 8) & (decade >= math.log(10.0))
    mask, ls, lh, kept = mask[fits], ls[fits], lh[fits], kept[fits]
    dx = np.where(mask, ls - (np.sum(ls * mask, axis=1) / kept)[:, None], 0.0)
    dy = lh - (np.sum(lh * mask, axis=1) / kept)[:, None]
    return bases[fits], np.sum(dx * dy, axis=1) / np.sum(dx * dx, axis=1)
