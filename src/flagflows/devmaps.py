"""Developing maps from oriented boundary triples into flag space.

Implements the transverse and tangent maps for n = 3, the four
point-line maps into the remaining domain components, and the general
geodesic realization for the roots of PSL(n), read off the image segment
of each leaf (`leaf_context`).  Also hosts the domain
membership classifier and the covering / concavity / type diagnostics.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .config import (DegenerateMeet, EmptyIntersection, PointOutsideDomain, PointOutsideSegment,
                     UnclassifiedLine)
from .limitcurve import BoundaryCurve, second_boundary_intersection
from .projective import (ProjectiveSubspace, annihilator, cross_ratio, join, meet,
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


@dataclass(frozen=True)
class PointLineFlag:
    """Incident (point, line) pair in dimension three."""

    point: ProjectiveSubspace
    line: ProjectiveSubspace

    def __post_init__(self):
        if self.point.dim != 1 or self.line.dim != self.line.ambient_dim - 1:
            raise ValueError("expected a point and a hyperplane")
        if not self.line.contains(self.point):
            raise ValueError("point does not lie on the line")


def _triple_flags(curve: BoundaryCurve, p: LeafPoint, flags=None):
    if flags is not None:
        return flags
    return (curve.flag_at(p.x), curve.flag_at(p.y), curve.flag_at(p.z))


def _guarded_meet(subspaces, expected_dim):
    try:
        out = meet(subspaces)
    except EmptyIntersection as exc:
        raise DegenerateMeet(str(exc)) from exc
    if out.dim != expected_dim:
        raise DegenerateMeet(f"meet has dimension {out.dim}, expected {expected_dim}")
    return out


def _leaf_pivot(fx, fz, k: int) -> ProjectiveSubspace:
    """x^k ∩ z^{n-k+1} on the leaf (x, z), read as x^1 at k = 1 and z^1 at k = n."""
    n = fx.ambient_dim
    if k == 1:
        return fx[1]
    if k == n:
        return fz[1]
    return _guarded_meet([fx[k], fz[n - k + 1]], 1)


def phi_tr(curve: BoundaryCurve, p: LeafPoint, flags=None) -> PointLineFlag:
    """Transverse developing map: ((x1 + z1) ∩ y2, x1 + z1)."""
    fx, fy, fz = _triple_flags(curve, p, flags)
    line = join([fx[1], fz[1]])
    point = _guarded_meet([line, fy[2]], 1)
    return PointLineFlag(point, line)


def phi_tan_plus(curve: BoundaryCurve, p: LeafPoint, flags=None) -> PointLineFlag:
    """Positive tangent developing map: (y2 ∩ z2, x1 + (y2 ∩ z2))."""
    fx, fy, fz = _triple_flags(curve, p, flags)
    point = _guarded_meet([fy[2], fz[2]], 1)
    line = join([fx[1], point])
    return PointLineFlag(point, line)


def involution_iota(curve: BoundaryCurve, p: LeafPoint) -> LeafPoint:
    """Replace y by the second boundary hit of the line through y1 and x2 ∩ z2.

    Reverses the orientation of the triple; the output is returned as a
    raw triple (check `is_positive` if orientation matters downstream).
    """
    fx, fy, fz = _triple_flags(curve, p)
    line = join([fy[1], _leaf_pivot(fx, fz, 2)])
    w = second_boundary_intersection(curve, line, p.y)
    return LeafPoint(p.x, w, p.z)


def phi_tan_minus(curve: BoundaryCurve, p: LeafPoint) -> PointLineFlag:
    """Negative tangent developing map: phi_tan_plus after the involution."""
    return phi_tan_plus(curve, involution_iota(curve, p))


def psi_k(curve: BoundaryCurve, p: LeafPoint, k: int) -> PointLineFlag:
    """The four point-line maps into the first and third domain components."""
    fx, fy, fz = _triple_flags(curve, p)
    chord = join([fx[1], fz[1]])
    pivot = _leaf_pivot(fx, fz, 2)
    if k in (1, 2):
        line = join([fy[1], pivot])
        point = _guarded_meet([chord, line], 1)
        return PointLineFlag(point, line if k == 1 else chord)
    if k == 3:
        secant = _guarded_meet([fy[2], chord], 1)
        return PointLineFlag(pivot, join([pivot, secant]))
    if k == 4:
        point = _guarded_meet([chord, fy[2]], 1)
        return PointLineFlag(point, join([point, pivot]))
    raise ValueError("k must be in 1..4")


@dataclass(frozen=True)
class LeafMetricContext:
    """The image segment of one geodesic leaf under a root realization.

    `forward` and `backward` are the segment endpoints; forward is the
    one the flow moves toward (x^i ∩ z^{n-i+1}).  Cross-ratio
    coordinates and image points of leaf points are taken on their join.
    """

    forward: ProjectiveSubspace
    backward: ProjectiveSubspace
    support_line: ProjectiveSubspace = field(init=False)

    def __post_init__(self):
        if self.forward.principal_angle(self.backward) < 1e-9:
            raise ValueError("leaf endpoints coincide")
        object.__setattr__(self, "support_line", join([self.forward, self.backward]))

    def coordinate(self, p: ProjectiveSubspace) -> float:
        """Affine coordinate u with backward at 0 and forward at infinity."""
        basis = np.column_stack([self.forward.vector, self.backward.vector])
        c, *_ = np.linalg.lstsq(basis, p.vector, rcond=None)
        if abs(c[1]) < 1e-14 * abs(c[0]):
            raise PointOutsideSegment("point at the forward endpoint")
        return float(c[0] / c[1])

    def image(self, fy) -> ProjectiveSubspace:
        """Image of the leaf point whose middle flag is fy: support line ∩ y^{n-1}."""
        return _guarded_meet([self.support_line, fy[fy.ambient_dim - 1]], 1)


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
    return LeafMetricContext(_leaf_pivot(fx, fz, i), _leaf_pivot(fx, fz, j))


def geodesic_realization(curve: BoundaryCurve, i: int, j: int,
                         p: LeafPoint) -> ProjectiveSubspace:
    """Image point of the root (i, j) realization of the leaf point.

    [(x^i ∩ z^{n-i+1}) + (x^j ∩ z^{n-j+1})] ∩ y^{n-1}.
    """
    return leaf_context(curve, (i, j), p.x, p.z).image(curve.flag_at(p.y))


def leaf_sweep(x: float, z: float, num: int) -> list:
    """`num` evenly spaced parameters strictly inside the ccw arc from x to z."""
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


def omega_membership(curve: BoundaryCurve, f: PointLineFlag):
    """Classify a point-line flag into a domain component: '1', '2', '3', 'boundary'.

    Component 1: point inside the convex hull of the curve; 2: point
    outside but line crosses the hull; 3: both point and line clear of
    the closed hull.  Any margin-inconclusive test returns 'boundary'.
    """
    delta = _membership_margin(curve)
    verts = curve.chart_points()
    try:
        point_side = signed_polygon_distance(verts, curve.chart.to_chart(f.point))
    except PointOutsideDomain:
        point_side = -1.0  # on the infinity line: far outside the hull
    coeffs = curve.chart.line_to_chart(f.line.covectors[:, 0])
    normal = np.asarray(coeffs[:-1], dtype=float)
    scale = np.linalg.norm(normal)
    vals = (verts @ normal + coeffs[-1]) / scale
    if point_side > delta:
        return "1"
    if point_side < -delta:
        if vals.min() < -delta and vals.max() > delta:
            return "2"
        if vals.min() > delta or vals.max() < -delta:
            return "3"
    return "boundary"


def _random_positive_triple(rng, spread: float = 0.3) -> LeafPoint:
    x = rng.uniform(0.0, 2 * math.pi)
    g1 = rng.uniform(spread, 2 * math.pi - 2 * spread)
    g2 = rng.uniform(spread, 2 * math.pi - g1 - spread)
    return LeafPoint(x, x + g1, x + g1 + g2)


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
    two_sheet = 0.0
    inj_ratio = np.inf
    for _ in range(num_points):
        p = _random_positive_triple(rng)
        f = phi_tan_plus(curve, p)
        w = second_boundary_intersection(curve, f.line, p.x)
        f2 = phi_tan_plus(curve, LeafPoint(w, p.z, p.y))
        two_sheet = max(two_sheet, f.point.principal_angle(f2.point),
                        f.line.principal_angle(f2.line))
        h = 1e-4
        p2 = LeafPoint(p.x, p.y + h, p.z)
        g2 = phi_tan_plus(curve, p2)
        inj_ratio = min(inj_ratio, f.point.principal_angle(g2.point) / h)
    # one random leaf, swept in y
    p = _random_positive_triple(rng, spread=0.8)
    arc = circular_gap(p.x, p.z)
    pts = [phi_tan_plus(curve, LeafPoint(p.x, y, p.z)).point.vector
           for y in leaf_sweep(p.x, p.z, COVERING_LEAF_SAMPLES)]
    stacked = np.column_stack(pts)
    sv = np.linalg.svd(stacked.T, compute_uv=False)
    residual = float(sv[-1] / sv[0])
    fx, fz = curve.flag_at(p.x), curve.flag_at(p.z)
    pivot = _leaf_pivot(fx, fz, 2)
    y_lo = (p.x + arc * 1e-6) % (2 * math.pi)
    y_hi = (p.x + arc * (1 - 1e-6)) % (2 * math.pi)
    near_x = phi_tan_plus(curve, LeafPoint(p.x, y_lo, p.z)).point
    near_z = phi_tan_plus(curve, LeafPoint(p.x, y_hi, p.z)).point
    return CoveringReport(
        two_sheet_max_error=float(two_sheet),
        injectivity_min_ratio=float(inj_ratio),
        leaf_collinearity_residual=residual,
        endpoint_error_pivot=float(near_x.principal_angle(pivot)),
        endpoint_error_z1=float(near_z.principal_angle(fz[1])),
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
    coeffs = curve.chart.line_to_chart(annihilator(curve.flag_at(x).frame)[:, 0])
    normal = np.asarray(coeffs[:-1], dtype=float)
    scale = np.linalg.norm(normal)
    images = []
    min_out, min_tan = np.inf, np.inf
    for a_k in range(1, sample_count + 1):
        for b_k in range(a_k + 1, sample_count + 1):
            y = (x + 2 * math.pi * a_k / (sample_count + 1)) % (2 * math.pi)
            z = (x + 2 * math.pi * b_k / (sample_count + 1)) % (2 * math.pi)
            pt = phi_tan_plus(curve, LeafPoint(x, y, z)).point
            try:
                c = curve.chart.to_chart(pt)
            except PointOutsideDomain:
                continue
            images.append(c)
            min_out = min(min_out, -signed_polygon_distance(verts, c))
            min_tan = min(min_tan, abs(c @ normal + coeffs[-1]) / scale)
    images = np.array(images)
    lo, hi = verts.min(axis=0) - 1.0, verts.max(axis=0) + 1.0
    coverage = 0.0
    interior_dist = np.inf
    for _ in range(200):
        probe = rng.uniform(lo, hi)
        dists = np.linalg.norm(images - probe[None, :], axis=1)
        side = signed_polygon_distance(verts, probe)
        tan_val = abs(probe @ normal + coeffs[-1]) / scale
        if side < -delta and tan_val > 0.1:
            coverage = max(coverage, dists.min())
        elif side > delta:
            interior_dist = min(interior_dist, dists.min())
    passed = bool(min_out > delta / 2 and min_tan > delta / 2
                  and interior_dist > delta)
    return ConcavityReport(
        min_outside_margin=float(min_out),
        min_tangent_margin=float(min_tan),
        coverage_radius=float(coverage),
        interior_counterexample_distance=float(interior_dist),
        passed=passed,
    )


def type_classifier(leaf_samples, curve: BoundaryCurve, x: float, z: float) -> str:
    """Classify the support line of a leaf image: transverse or tangent ±.

    Fits the common line of the sample points by total least squares,
    matches it against x1+z1 (transverse) or the tangent at z; the tangent
    sign is resolved by which component of the tangent minus the two
    special points {z1, x2∩z2} the samples occupy, using a cross-ratio
    sign test against a known positive-type probe point.
    """
    if len(leaf_samples) < 3:
        raise ValueError("need at least 3 samples")
    threshold = curve_tolerance(curve)
    pts = np.column_stack([f.point.vector for f in leaf_samples])
    u_mat, s_vals, _ = np.linalg.svd(pts)
    if s_vals[-1] / s_vals[0] > threshold:
        raise UnclassifiedLine(f"collinearity residual {s_vals[-1] / s_vals[0]:.3e}")
    fitted = ProjectiveSubspace.from_spanning(u_mat[:, :2].T)
    fx, fz = curve.flag_at(x), curve.flag_at(z)
    transverse_line = join([fx[1], fz[1]])
    tangent_line = fz[2]
    if fitted.principal_angle(transverse_line) < LINE_MATCH_TOL:
        return "transverse"
    if fitted.principal_angle(tangent_line) > LINE_MATCH_TOL:
        raise UnclassifiedLine("fitted line matches neither candidate")
    pivot = _leaf_pivot(fx, fz, 2)
    gap = circular_gap(x, z)
    y_mid = (x + gap / 2) % (2 * math.pi)
    probe = meet([curve.flag_at(y_mid)[2], fz[2]])  # a known tangent_plus image
    side = None
    for f in leaf_samples:
        ratio = cross_ratio(fz[1], pivot, f.point, probe)
        sample_side = "tangent_plus" if ratio > 0 else "tangent_minus" if ratio < 0 else None
        if sample_side is None or side not in (None, sample_side):
            raise UnclassifiedLine("samples straddle the special points of the tangent")
        side = sample_side
    return side
