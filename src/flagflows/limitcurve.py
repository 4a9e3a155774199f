"""Numerical approximation of equivariant boundary flag curves.

A `BoundaryCurve` holds circularly ordered samples theta -> full flag,
where theta parameterizes the boundary circle through the reference
Fuchsian representation (see `flagflows.reps`); the flags are stored as
one (N, n, n-1) array of `Flag` frames, so scans are array expressions.
Samples come from attracting eigenflags over a word ball; Fuchsian curves
can instead be built in closed form from the symmetric-power embedding,
which gives exact flags at any parameter (used by the high-accuracy
experiments).

Each curve evaluates a flag once: `BoundaryCurve.flag_at` memoises the
`Flag` it returns, keyed on the reduced parameter theta % 2pi, the only
value `interpolate` depends on.  The memo lives on the curve and dies
with it; it holds at most `FLAG_MEMO_SIZE` flags and drops the least
recently used one beyond that.  `interpolate` likewise computes the
Procrustes rotation of each sample gap and flag level once, on first use.
"""

import bisect
import math
from collections import OrderedDict
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
REGULARITY_BASE_POINTS = 64     # base points of the fits in boundary_regularity_estimate
# flags one curve memoises; a verify-all command line evaluates at most
# about 1,010 distinct parameters on its curve
FLAG_MEMO_SIZE = 2048


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
    exact_eval: object = None  # optional callable theta -> Flag

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float)
        order = np.argsort(self.thetas)
        self.thetas = self.thetas[order]
        self.frames = np.asarray(self.frames, dtype=float)[order]
        if np.any(np.diff(self.thetas) < 1e-10):
            raise ValueError("duplicate thetas in curve samples")
        self._flags = OrderedDict()  # theta % 2pi -> Flag, least recently used first
        self._rotations = {}  # (gap start, level) -> Procrustes rotation of interpolate
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
        t = self.thetas
        gaps = np.array([circular_gap(t[i], t[(i + 1) % count]) for i in range(count)])
        # local curvature scale from the deviation of each sample off the
        # chord of its neighbors, then worst-gap chord error |f''| g^2 / 8
        curv = np.zeros(count)
        for i in range(count):
            g1, g2 = gaps[i - 1], gaps[i]
            lerp = (g2 * p[:, i - 1] + g1 * p[:, (i + 1) % count]) / (g1 + g2)
            curv[i] = 2.0 * np.linalg.norm(p[:, i] - lerp) / (g1 * g2)
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

    def aligned_point(self, theta: float) -> np.ndarray:
        """Sign-normalized xi^1 vector at theta (interpolated if needed)."""
        self._require_chart()
        v = self.flag_at(theta).frame[:, 0]
        s = self.positive_covector @ v
        return v * math.copysign(1.0, s)

    def chart_point(self, theta: float) -> np.ndarray:
        self._require_chart()
        return self.chart.to_chart(self.flag_at(theta).frame[:, 0])

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
        """Frames (m, n, n-1) of the memoised flags at m parameters."""
        return np.reshape([self.flag_at(t).frame for t in thetas], (-1, self.n, self.n - 1))

    def hyperplane_covectors_at(self, thetas) -> np.ndarray:
        """Annihilator covectors (m, n) of the top levels of `frames_at`."""
        return annihilator(self.frames_at(thetas))[..., 0]

    def flag_at(self, theta: float) -> Flag:
        """Flag at theta, from `interpolate` once per reduced parameter theta % 2pi.

        The flag is memoised on this curve, at most `FLAG_MEMO_SIZE` of them,
        least recently used dropped first.
        """
        key = theta % (2 * math.pi)
        flag = self._flags.get(key)
        if flag is None:
            flag = self._flags[key] = interpolate(self, theta)
            if len(self._flags) > FLAG_MEMO_SIZE:
                self._flags.popitem(last=False)
        else:
            self._flags.move_to_end(key)
        return flag

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

    @classmethod
    def from_dict(cls, data: dict) -> "BoundaryCurve":
        return cls(
            np.array([s["theta"] for s in data["samples"]]),
            np.array([Flag.from_dict(s["flag"]).frame for s in data["samples"]]),
            SurfaceGroupRep.from_dict(data["rep"]),
            SurfaceGroupRep.from_dict(data["reference"]),
        )


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


def fuchsian_curve(reference: SurfaceGroupRep, n: int, num_samples: int = 1024) -> BoundaryCurve:
    """Closed-form limit curve of the Fuchsian representation sym_power(reference, n).

    The flag at theta is the symmetric power of a rotation applied to the
    coordinate flag (the osculating flag of the moment curve), which is
    exact at every parameter; the curve carries an exact evaluator.
    """
    rep = sym_power(reference, n)

    def exact_eval(theta: float) -> Flag:
        m = sym_matrix(_rotation_to(theta), n)
        return Flag.from_basis_columns(m[:, : n - 1])

    thetas = (np.arange(num_samples) + 0.5) * 2 * math.pi / num_samples
    # the rotations from math.cos and math.sin, as exact_eval builds them
    m = sym_matrix(np.array([_rotation_to(t) for t in thetas]), n)
    return BoundaryCurve(thetas, flag_frames(m[..., : n - 1]), rep, reference,
                         exact_eval=exact_eval)


def interpolate(curve: BoundaryCurve, theta: float) -> Flag:
    """Flag at an arbitrary parameter.

    Exact samples are returned as stored; between samples, each flag level
    (a frame prefix) is interpolated linearly in basis coordinates after
    Procrustes alignment, and the new column of each level is kept.  The
    alignment depends only on the gap, so its rotation is computed on the
    first evaluation in that gap and kept on the curve.
    """
    theta = theta % (2 * math.pi)
    n_samples = curve.thetas.size
    if n_samples < 2:
        raise InsufficientSamples("need at least two samples to interpolate")
    i = bisect.bisect_left(curve.thetas, theta)
    lo, hi = (i - 1) % n_samples, i % n_samples
    for j in (lo, hi):
        if abs(curve.thetas[j] - theta) < 1e-13 or abs(
            abs(curve.thetas[j] - theta) - 2 * math.pi
        ) < 1e-13:
            return Flag(curve.frames[j])
    if curve.exact_eval is not None:
        return curve.exact_eval(theta)
    gap = circular_gap(curve.thetas[lo], curve.thetas[hi])
    lam = circular_gap(curve.thetas[lo], theta) / gap
    columns = []
    for k in range(1, curve.n):
        b_lo, b_hi = curve.frames[lo, :, :k], curve.frames[hi, :, :k]
        # Procrustes alignment of the two bases before the linear blend;
        # for one column the rotation is the sign of the inner product
        if k == 1:
            aligned = b_hi * math.copysign(1.0, b_hi[:, 0] @ b_lo[:, 0])
        else:
            rotation = curve._rotations.get((lo, k))
            if rotation is None:
                u, _, vt = np.linalg.svd(b_hi.T @ b_lo)
                rotation = curve._rotations[(lo, k)] = u @ vt
            aligned = b_hi @ rotation
        blend = (1.0 - lam) * b_lo + lam * aligned
        columns.append(blend[:, k - 1])
    return Flag.from_basis_columns(np.column_stack(columns))


def second_boundary_intersection(curve: BoundaryCurve, line, known: float) -> float:
    """The other parameter at which a line through xi^1(known) meets the curve.

    The line is a hyperplane (a projective line for n=3), given by its
    covector of shape (n,), which is normalized, or as a `ProjectiveSubspace`.
    Works by deflating the known root: the incidence residual divided by
    sin(gap/2) has exactly one sign change on the circle, located at the
    second intersection; that bracket is refined by `bracketed_root`.
    The stored samples are scanned as one product with their aligned
    points, which are positive multiples of `aligned_point` and so have
    the same signs.
    """
    if isinstance(line, ProjectiveSubspace):
        if line.dim != curve.n - 1:
            raise ValueError("expected a hyperplane (projective line for n=3)")
        line = line.covectors[:, 0]
    if np.shape(line) != (curve.n,):
        raise ValueError(f"expected a covector of shape ({curve.n},); got {np.shape(line)}")
    covector = line / np.linalg.norm(line)

    def residual(theta):
        return covector @ curve.aligned_point(theta)

    r_known = residual(known)
    if abs(r_known) > 1e-6:
        raise ValueError(f"line misses xi^1(known) by {abs(r_known):.3e}")

    def deflated(theta):
        gap = circular_gap(known, theta)
        return residual(theta) / math.sin(gap / 2.0)

    eps = 1e-7
    gaps = (curve.thetas - known) % (2 * math.pi)
    keep = np.flatnonzero(np.minimum(gaps, (known - curve.thetas) % (2 * math.pi)) > eps)
    keep = keep[np.argsort(gaps[keep], kind="stable")]
    grid = np.concatenate([[known + eps], curve.thetas[keep], [known + 2 * math.pi - eps]])
    values = np.concatenate([
        [deflated(grid[0])],
        covector @ curve._aligned_points[:, keep] / np.sin(gaps[keep] / 2.0),
        [deflated(grid[-1])],
    ])
    brackets = np.flatnonzero(values[:-1] * values[1:] < 0)
    if brackets.size == 0:
        raise NoSecondIntersection("no sign change: line is numerically tangent")
    if brackets.size > 1:
        raise AmbiguousBracket(f"{brackets.size} sign changes; samples not convex here")
    # grid entries are raw parameters, so a bracket across theta = 0 has b < a
    a = float(grid[brackets[0]])
    b = a + circular_gap(a, float(grid[brackets[0] + 1]))
    # the scan's values are scaled differently from `deflated`, so re-evaluate
    root = bracketed_root(deflated, a, b, deflated(a), deflated(b), ROOT_TOL)
    return root % (2 * math.pi)


def bracketed_root(f, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    """Root of f in the bracket [a, b] (either order), given fa = f(a) and fb = f(b).

    Brent-Dekker zeroin (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4): inverse quadratic or secant steps while
    they shrink the bracket fast enough, bisection otherwise.  Stops when
    the bracket holding the root is at most `tol` wide (plus roundoff in
    the abscissa) and returns its end with the smaller |f|.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise RootFindFailure(f"no sign change on [{a:.17g}, {b:.17g}]")
    eps = np.finfo(float).eps
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * eps * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * xm * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


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


@dataclass
class ConvexDomainApprox:
    """Polygonal approximation of the invariant convex domain in a chart."""

    vertices: np.ndarray       # (N, 2) chart coordinates, circular order
    tangents: list             # chart line coefficients (a, b, c) per vertex

    def is_convex(self) -> bool:
        v = self.vertices
        m = v.shape[0]
        e = v[(np.arange(m) + 1) % m] - v
        cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        return bool(np.all(cross > 0) or np.all(cross < 0))

    def tangents_support(self) -> bool:
        for (a, b, c) in self.tangents:
            vals = self.vertices @ np.array([a, b]) + c
            if vals.max() > SUPPORT_TOL and vals.min() < -SUPPORT_TOL:
                return False
        return True


def build_convex_domain(curve: BoundaryCurve) -> ConvexDomainApprox:
    verts = curve.chart_points()
    tangents = [curve.chart.line_to_chart(c) for c in curve.hyperplane_covectors()]
    return ConvexDomainApprox(verts, tangents)


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
