"""Developing maps from oriented boundary triples into flag space.

At n = 3 the transverse and tangent maps, the involution and the four
point-line maps into the remaining domain components are joins and
meets of curve flags in RP^2, each one cross product (`cross_meet`).
`develop` evaluates a map on stacked triples, from their flag frames,
and returns stacked points and line covectors; `phi_tr`, `phi_tan_plus`,
`phi_tan_minus` and `psi_k` are its one-triple faces, which return a
`Flag` whose level 1 is the point and level 2 the line.  The domain
membership classifier and the covering / concavity / type diagnostics
work on the stacked arrays, and the boundary scans read the line
covectors.  The geodesic realizations of the roots of PSL(n) serve
every n >= 3: each leaf's image segment (`leaf_context`) takes one
`meet` per interior endpoint, and every leaf point is read from two
dot products with the covector of its hyperplane y^{n-1}.
"""

import math
from dataclasses import astuple, dataclass

import numpy as np

from .config import DegenerateMeet, PointOutsideSegment, UnclassifiedLine
from .limitcurve import BoundaryCurve, second_boundary_intersection
from .projective import (RANK_TOL, Flag, ProjectiveSubspace, cross_meet, cross_ratio, meet,
                         signed_polygon_distance)
from .reps import circular_gap, positively_oriented

# bound on a pointwise identity or fit residual: closed-form and interpolated curves
EXACT_CURVE_TOL = 1e-6
SAMPLED_CURVE_TOL = 1e-3
LINE_MATCH_TOL = 1e-4  # principal angle at which a fitted leaf line matches a candidate
COVERING_LEAF_SAMPLES = 64  # points on the leaf whose image collinearity covering_checks fits


def curve_tolerance(curve: BoundaryCurve) -> float:
    """Residual bound for checks on this curve, by how its flags are evaluated."""
    return EXACT_CURVE_TOL if curve.exact_eval is not None else SAMPLED_CURVE_TOL


@dataclass(frozen=True)
class LeafPoint:
    """An ordered triple of distinct boundary parameters (x, y, z)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name, v in zip("xyz", (self.x, self.y, self.z)):
            if not math.isfinite(v):
                raise ValueError(f"leaf point parameter {name} must be finite; got {v}")
        vals = [v % (2 * math.pi) for v in (self.x, self.y, self.z)]
        for a_i in range(3):
            for b_i in range(a_i + 1, 3):
                if min(circular_gap(vals[a_i], vals[b_i]),
                       circular_gap(vals[b_i], vals[a_i])) < 1e-12:
                    raise ValueError("leaf point parameters must be distinct")
        object.__setattr__(self, "x", vals[0])
        object.__setattr__(self, "y", vals[1])
        object.__setattr__(self, "z", vals[2])

    @property
    def is_positive(self) -> bool:
        """Counterclockwise orientation of (x, y, z)."""
        return positively_oriented(self.x, self.y, self.z)


def _levels(frames):
    """Point and line covector of each n=3 flag frame (..., 3, 2)."""
    return frames[..., 0], cross_meet(frames[..., 0], frames[..., 1])


def develop_frames(name: str, fx, fy, fz):
    """Stacked (point, line covector) of the map `name` on the frames (..., 3, 2) of x, y, z.

    Covers the closed-form maps "tr", "tan+" and "psi1".."psi4", and "iota",
    whose line through y1 and the pivot x2 ∩ z2 the involution scans.
    """
    (x1, x2), (y1, y2), (z1, z2) = _levels(fx), _levels(fy), _levels(fz)
    if name == "tr":  # ((x1 + z1) ∩ y2, x1 + z1)
        line = cross_meet(x1, z1)
        return cross_meet(line, y2), line
    if name == "tan+":  # (y2 ∩ z2, x1 + (y2 ∩ z2))
        point = cross_meet(y2, z2)
        return point, cross_meet(x1, point)
    chord, pivot = cross_meet(x1, z1), cross_meet(x2, z2)
    if name == "iota":
        return y1, cross_meet(y1, pivot)
    if name in ("psi1", "psi2"):  # (chord ∩ (y1 + pivot), y1 + pivot or the chord)
        line = cross_meet(y1, pivot)
        return cross_meet(chord, line), line if name == "psi1" else chord
    if name == "psi3":  # (pivot, pivot + (y2 ∩ chord))
        return pivot, cross_meet(pivot, cross_meet(y2, chord))
    if name == "psi4":  # (chord ∩ y2, (chord ∩ y2) + pivot)
        point = cross_meet(chord, y2)
        return point, cross_meet(point, pivot)
    raise ValueError(f"no frame formula for map {name!r}")


def _involution(curve: BoundaryCurve, x, y, z) -> np.ndarray:
    """The y of each triple after the involution: the second boundary hit of its iota line."""
    _, lines = develop_frames("iota", *(curve.frames_at(t) for t in (x, y, z)))
    return np.array([second_boundary_intersection(curve, line, t) for line, t in zip(lines, y)])


def develop(curve: BoundaryCurve, name: str, x, y, z):
    """Stacked (point, line covector) of the map `name` of MAP_TABLE on the triples (x, y, z).

    The parameters are scalars or 1-d arrays that broadcast to m triples,
    each checked and reduced mod 2pi by `LeafPoint`; returns two (m, 3)
    arrays of unit vectors.  "tan-" is "tan+" after the involution, which
    scans each line.
    """
    if name not in MAP_TABLE:
        raise ValueError(f"unknown map {name!r}; choose from {sorted(MAP_TABLE)}")
    if curve.n != 3:
        raise ValueError(f"the developing maps are defined at n=3; got n={curve.n}")
    triples = zip(*np.broadcast_arrays(*np.atleast_1d(x, y, z)))
    x, y, z = np.array([astuple(LeafPoint(*t)) for t in triples]).reshape(-1, 3).T
    if name == "tan-":
        return develop(curve, "tan+", x, _involution(curve, x, y, z), z)
    return develop_frames(name, *(curve.frames_at(t) for t in (x, y, z)))


def _one(curve: BoundaryCurve, name: str, p: LeafPoint) -> Flag:
    """The map `name` on one triple, as the `Flag` of its point and line."""
    (point,), (line,) = develop(curve, name, p.x, p.y, p.z)
    return Flag(np.column_stack([point, np.cross(line, point)]))


def phi_tr(curve: BoundaryCurve, p: LeafPoint) -> Flag:
    """Transverse developing map: ((x1 + z1) ∩ y2, x1 + z1)."""
    return _one(curve, "tr", p)


def phi_tan_plus(curve: BoundaryCurve, p: LeafPoint) -> Flag:
    """Positive tangent developing map: (y2 ∩ z2, x1 + (y2 ∩ z2))."""
    return _one(curve, "tan+", p)


def involution_iota(curve: BoundaryCurve, p: LeafPoint) -> LeafPoint:
    """Replace y by the second boundary hit of the line through y1 and x2 ∩ z2.

    Reverses the orientation of the triple (see `is_positive`)."""
    return LeafPoint(p.x, float(_involution(curve, [p.x], [p.y], [p.z])[0]), p.z)


def phi_tan_minus(curve: BoundaryCurve, p: LeafPoint) -> Flag:
    """Negative tangent developing map: phi_tan_plus after the involution."""
    return _one(curve, "tan-", p)


def psi_k(curve: BoundaryCurve, p: LeafPoint, k: int) -> Flag:
    """The four point-line maps (k = 1..4) into the first and third domain components."""
    return _one(curve, f"psi{k}", p)


@dataclass(frozen=True, eq=False)
class LeafMetricContext:
    """The image segment of one geodesic leaf under a root realization.

    `forward` = a and `backward` = b are unit vectors along its endpoints;
    the flow moves toward forward, x^i ∩ z^{n-i+1}.  A leaf point is read
    from the covector m of its hyperplane y^{n-1}, on stacked covectors
    (..., n): its image, the segment line met with y^{n-1}, is
    (m.b) a - (m.a) b, and its coordinate -(m.b)/(m.a) is a ratio of
    pairings, the form of Labourie's cross ratio.
    """

    forward: np.ndarray
    backward: np.ndarray

    def __post_init__(self):
        a, b = self.forward, self.backward
        if np.linalg.norm(b - (a @ b) * a) < 1e-9:  # sine of their angle
            raise ValueError("leaf endpoints coincide")

    def _pairings(self, m):
        """(m.a, m.b), refused where both endpoints lie numerically in ker m = y^{n-1}."""
        ma, mb = m @ self.forward, m @ self.backward
        if np.any(np.maximum(np.abs(ma), np.abs(mb)) <= RANK_TOL * np.linalg.norm(m, axis=-1)):
            raise DegenerateMeet("meet has dimension 2, expected 1")
        return ma, mb

    def coordinate(self, m):
        """Segment coordinate -(m.b)/(m.a) of each image: backward at 0, forward at infinity."""
        ma, mb = self._pairings(m)
        if np.any(np.abs(ma) < 1e-14 * np.abs(mb)):
            raise PointOutsideSegment("point at the forward endpoint")
        return -mb / ma

    def image(self, m) -> np.ndarray:
        """Unit vectors (..., n) along the images (m.b) a - (m.a) b."""
        ma, mb = self._pairings(m)
        image = mb[..., None] * self.forward - ma[..., None] * self.backward
        return image / np.linalg.norm(image, axis=-1, keepdims=True)


def leaf_context(curve: BoundaryCurve, alpha, x: float, z: float) -> LeafMetricContext:
    """Image segment of root alpha = (i, j) on the leaf (x, z), for n >= 3.

    Its endpoints are x^i ∩ z^{n-i+1} and x^j ∩ z^{n-j+1}, with the
    degenerate meets at i = 1 and j = n read as x^1 and z^1.
    """
    i, j = alpha
    n = curve.n
    if n < 3:
        raise ValueError(f"root realizations need n >= 3; got n={n}")
    if not (1 <= i < j <= n):
        raise ValueError("need 1 <= i < j <= n")
    fx, fz = curve.flag_at(x), curve.flag_at(z)
    return LeafMetricContext(*(fx.frame[:, 0] if k == 1 else fz.frame[:, 0] if k == n else
                               meet([fx[k], fz[n - k + 1]]).vector for k in (i, j)))


def geodesic_realization(curve: BoundaryCurve, i: int, j: int,
                         p: LeafPoint) -> ProjectiveSubspace:
    """Root (i, j) realization [(x^i ∩ z^{n-i+1}) + (x^j ∩ z^{n-j+1})] ∩ y^{n-1} of p."""
    ctx = leaf_context(curve, (i, j), p.x, p.z)
    return ProjectiveSubspace(curve.n, ctx.image(curve.hyperplane_covectors_at([p.y])[0]))


def leaf_sweep(x: float, z: float, num: int) -> list:
    """`num` >= 1 evenly spaced parameters strictly inside the ccw arc from x to z."""
    if num < 1:
        raise ValueError(f"num must be at least 1, got {num}")
    arc = circular_gap(x, z)
    return [(x + arc * k / (num + 1)) % (2 * math.pi) for k in range(1, num + 1)]


# the seven developing maps of a positive triple into point-line flags
MAP_TABLE = {
    "tr": phi_tr,
    "tan+": phi_tan_plus,
    "tan-": phi_tan_minus,
    "psi1": lambda c, p: psi_k(c, p, 1),
    "psi2": lambda c, p: psi_k(c, p, 2),
    "psi3": lambda c, p: psi_k(c, p, 3),
    "psi4": lambda c, p: psi_k(c, p, 4),
}


# ---------------------------------------------------------------------------
# domain membership and diagnostics


def _membership_margin(curve: BoundaryCurve) -> float:
    """Distance below which a side-of-hull test is inconclusive."""
    return max(1e-8, 10.0 * curve.interp_error)


def omega_membership(curve: BoundaryCurve, points, lines) -> np.ndarray:
    """Domain component of each point-line flag: '1', '2', '3' or 'boundary'.

    Takes stacked (m, 3) points and line covectors, as `develop` returns
    them.  Component 1: point inside the convex hull of the curve; 2: point
    outside but line crosses the hull; 3: both point and line clear of the
    closed hull.  Any margin-inconclusive test returns 'boundary'.
    """
    delta = _membership_margin(curve)
    verts = curve.chart_points()
    shown = curve.chart.in_chart(points)
    side = np.full(len(points), -1.0)  # on the infinity line: far outside the hull
    side[shown] = signed_polygon_distance(verts, curve.chart.to_chart(points[shown]))
    coeffs = curve.chart.line_to_chart(lines)
    vals = verts @ coeffs[:, :-1].T + coeffs[:, -1]
    lo, hi = vals.min(axis=0), vals.max(axis=0)
    outside = side < -delta
    return np.select([side > delta, outside & (lo < -delta) & (hi > delta),
                      outside & ((lo > delta) | (hi < -delta))], ["1", "2", "3"], "boundary")


def _random_positive_triple(rng, spread: float = 0.3) -> LeafPoint:
    x = rng.uniform(0.0, 2 * math.pi)
    g1 = rng.uniform(spread, 2 * math.pi - 2 * spread)
    g2 = rng.uniform(spread, 2 * math.pi - g1 - spread)
    return LeafPoint(x, x + g1, x + g1 + g2)


def _random_triples(rng, count: int):
    """`count` draws of `_random_positive_triple`, in order, as arrays (x, y, z)."""
    return np.array([astuple(_random_positive_triple(rng)) for _ in range(count)]).T


def _angle(a, b) -> np.ndarray:
    """Angle between the lines of R^3 along stacked unit vectors a and b, in [0, pi/2]."""
    return np.arctan2(np.linalg.norm(np.cross(a, b), axis=-1), np.abs(np.sum(a * b, axis=-1)))


@dataclass(frozen=True)
class CoveringReport:
    two_sheet_max_error: float
    injectivity_min_ratio: float
    leaf_collinearity_residual: float
    endpoint_error_pivot: float
    endpoint_error_z1: float


def covering_checks(curve: BoundaryCurve, num_points: int = 32,
                    seed: int = 0) -> CoveringReport:
    """Pointwise diagnostics for the two-sheeted covering structure.

    (a) deck identity phi_tan_plus(w_yz(x), z, y) = phi_tan_plus(x, y, z);
    (b) lower bound on image displacement / parameter displacement;
    (c) collinearity of one leaf image with endpoint limits x2∩z2 and z1.
    """
    rng = np.random.default_rng(seed)
    x, y, z = _random_triples(rng, num_points)
    points, lines = develop(curve, "tan+", x, y, z)
    w = [second_boundary_intersection(curve, line, t) for line, t in zip(lines, x)]
    swapped_points, swapped_lines = develop(curve, "tan+", w, z, y)
    two_sheet = max(_angle(points, swapped_points).max(), _angle(lines, swapped_lines).max())
    h = 1e-4
    inj_ratio = (_angle(points, develop(curve, "tan+", x, y + h, z)[0]) / h).min()
    # one random leaf, swept in y, and its two ends
    p = _random_positive_triple(rng, spread=0.8)
    arc = circular_gap(p.x, p.z)
    ends = [p.x + arc * 1e-6, p.x + arc * (1 - 1e-6)]
    sweep, _ = develop(curve, "tan+", p.x, leaf_sweep(p.x, p.z, COVERING_LEAF_SAMPLES) + ends, p.z)
    sv = np.linalg.svd(sweep[:-2], compute_uv=False)
    (_, x2), (z1, z2) = (_levels(curve.flag_at(t).frame) for t in (p.x, p.z))
    return CoveringReport(
        two_sheet_max_error=float(two_sheet),
        injectivity_min_ratio=float(inj_ratio),
        leaf_collinearity_residual=float(sv[-1] / sv[0]),
        endpoint_error_pivot=float(_angle(sweep[-2], cross_meet(x2, z2))),
        endpoint_error_z1=float(_angle(sweep[-1], z1)),
    )


@dataclass(frozen=True)
class ConcavityReport:
    min_outside_margin: float
    min_tangent_margin: float
    coverage_radius: float
    interior_counterexample_distance: float
    passed: bool


def concavity_check(curve: BoundaryCurve, x: float, sample_count: int = 40,
                    seed: int = 0) -> ConcavityReport:
    """The x-leaf family image avoids the hull and the tangent at x, and
    approximately fills their complement (checked on random chart probes)."""
    rng = np.random.default_rng(seed)
    delta = _membership_margin(curve)
    verts = curve.chart_points()
    tangent = curve.chart.line_to_chart(_levels(curve.flag_at(x).frame)[1])
    # the leaves (x, y, z) for every pair y < z of the sample_count parameters after x
    a_k, b_k = np.triu_indices(sample_count, 1)
    y = x + 2 * math.pi * (a_k + 1) / (sample_count + 1)
    z = x + 2 * math.pi * (b_k + 1) / (sample_count + 1)
    points, _ = develop(curve, "tan+", x, y, z)
    images = curve.chart.to_chart(points[curve.chart.in_chart(points)])
    min_out = -np.max(signed_polygon_distance(verts, images), initial=-np.inf)
    min_tan = np.min(np.abs(images @ tangent[:-1] + tangent[-1]), initial=np.inf)
    lo, hi = verts.min(axis=0) - 1.0, verts.max(axis=0) + 1.0
    probes = rng.uniform(lo, hi, size=(200, 2))
    dists = np.linalg.norm(images[None, :, :] - probes[:, None, :], axis=2).min(axis=1)
    side = signed_polygon_distance(verts, probes)
    tan_val = np.abs(probes @ tangent[:-1] + tangent[-1])
    coverage = np.max(dists[(side < -delta) & (tan_val > 0.1)], initial=0.0)
    interior_dist = np.min(dists[side > delta], initial=np.inf)
    passed = bool(min(min_out, min_tan) > delta / 2 and interior_dist > delta)
    return ConcavityReport(
        min_outside_margin=float(min_out),
        min_tangent_margin=float(min_tan),
        coverage_radius=float(coverage),
        interior_counterexample_distance=float(interior_dist),
        passed=passed,
    )


def type_classifier(points, curve: BoundaryCurve, x: float, z: float) -> str:
    """Classify the support line of a leaf image, given as stacked (m, 3) points.

    Fits their common line by total least squares, matches it against
    x1+z1 (transverse) or the tangent at z; the tangent sign is resolved by
    which component of the tangent minus the two special points {z1, x2∩z2}
    the samples occupy, using a cross-ratio sign test against a known
    positive-type probe point.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 samples")
    u_mat, s_vals, _ = np.linalg.svd(points.T)
    if s_vals[-1] / s_vals[0] > curve_tolerance(curve):
        raise UnclassifiedLine(f"collinearity residual {s_vals[-1] / s_vals[0]:.3e}")
    fitted = u_mat[:, -1]  # covector of the fitted line
    (x1, x2), (z1, z2) = (_levels(curve.flag_at(t).frame) for t in (x, z))
    if _angle(fitted, cross_meet(x1, z1)) < LINE_MATCH_TOL:
        return "transverse"
    if _angle(fitted, z2) > LINE_MATCH_TOL:
        raise UnclassifiedLine("fitted line matches neither candidate")
    pivot = cross_meet(x2, z2)
    probe = develop(curve, "tan+", x, x + circular_gap(x, z) / 2, z)[0][0]  # a tangent_plus image
    side = None
    for point in points:
        ratio = cross_ratio(z1, pivot, point, probe)
        sample_side = "tangent_plus" if ratio > 0 else "tangent_minus" if ratio < 0 else None
        if sample_side is None or side not in (None, sample_side):
            raise UnclassifiedLine("samples straddle the special points of the tangent")
        side = sample_side
    return side
