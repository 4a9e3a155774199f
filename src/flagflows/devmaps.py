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
every n >= 3: the image segments of stacked leaves (`leaf_context`) take
one stacked annihilator per interior endpoint, and every leaf point is
read from two dot products with the covector of its hyperplane y^{n-1}.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import DegenerateMeet, PointOutsideSegment, UnclassifiedLine
from .limitcurve import BoundaryCurve, second_boundary_intersection
from .projective import RANK_TOL, Flag, annihilator, cross_meet, signed_polygon_distance
from .reps import _check_root, circular_gap

# bound on a pointwise identity or fit residual: closed-form and interpolated curves
EXACT_CURVE_TOL = 1e-6
SAMPLED_CURVE_TOL = 1e-3
LINE_MATCH_TOL = 1e-4  # principal angle at which a fitted leaf line matches a candidate
COVERING_TRIPLES = 20  # random positive triples on which two_sheet_error checks the deck identity
CONCAVITY_SAMPLES = 40  # parameters after x whose pairs are the leaves of concavity_check


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
        for name, v in zip("xyz", leaf_triples(self.x, self.y, self.z)[:, 0].tolist()):
            object.__setattr__(self, name, v)


def leaf_triples(x, y, z):
    """Three (m,) arrays of the triples that x, y, z (scalars or 1-d arrays) broadcast to,
    each checked and reduced mod 2pi; a `LeafPoint` holds one such triple.

    The checks run on the whole stack.  The first failing triple raises:
    for a non-finite parameter first, then for two coinciding mod 2pi.
    """
    triples = np.array(np.broadcast_arrays(*np.atleast_1d(x, y, z)), dtype=float).reshape(3, -1)
    finite = np.isfinite(triples)
    vals = np.where(finite, triples, 0.0) % (2 * math.pi)
    gaps = vals[[1, 2, 0]] - vals  # the pairs (x, y), (y, z), (z, x)
    close = np.minimum(gaps % (2 * math.pi), -gaps % (2 * math.pi)) < 1e-12
    bad = ~finite.all(axis=0) | close.any(axis=0)
    if bad.any():
        k = np.argmax(bad)
        if not finite[:, k].all():
            i = np.argmin(finite[:, k])
            raise ValueError(f"leaf point parameter {'xyz'[i]} must be finite; "
                             f"got {triples[i, k].item()}")
        raise ValueError("leaf point parameters must be distinct")
    return vals


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


def involution(curve: BoundaryCurve, x, y, z) -> np.ndarray:
    """The y of each triple, on parameters as for `develop`, after the involution iota:
    the second boundary hit of the line through y1 and x2 ∩ z2.  It reverses the
    circular order of the triple."""
    x, y, z = leaf_triples(x, y, z)
    _, lines = develop_frames("iota", *curve.frames_at(np.stack([x, y, z])))
    return second_boundary_intersection(curve, lines, y)


def develop(curve: BoundaryCurve, name: str, x, y, z):
    """Stacked (point, line covector) of the map `name` of MAP_TABLE on the triples (x, y, z).

    The parameters are scalars or 1-d arrays that broadcast to m triples,
    each checked and reduced mod 2pi by `LeafPoint`; returns two (m, 3)
    arrays of unit vectors.  "tan-" is "tan+" after the involution, which
    scans each line.
    """
    _check_map_name(name)
    if curve.n != 3:
        raise ValueError(f"the developing maps are defined at n=3; got n={curve.n}")
    if name == "tan-":
        return develop(curve, "tan+", x, involution(curve, x, y, z), z)
    x, y, z = leaf_triples(x, y, z)
    return develop_frames(name, *curve.frames_at(np.stack([x, y, z])))


def _check_map_name(name: str) -> None:
    if name not in MAP_TABLE:
        raise ValueError(f"unknown map {name!r}; choose from {sorted(MAP_TABLE)}")


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


def phi_tan_minus(curve: BoundaryCurve, p: LeafPoint) -> Flag:
    """Negative tangent developing map: phi_tan_plus after the involution."""
    return _one(curve, "tan-", p)


def psi_k(curve: BoundaryCurve, p: LeafPoint, k: int) -> Flag:
    """The four point-line maps (k = 1..4) into the first and third domain components."""
    return _one(curve, f"psi{k}", p)


@dataclass(frozen=True, eq=False)
class LeafMetricContext:
    """The image segments of stacked geodesic leaves under a root realization.

    `forward` = a and `backward` = b are unit vectors (..., n) along each
    segment's ends; the flow moves toward forward, x^i ∩ z^{n-i+1}.  A
    leaf point is read from the covector m (..., n) of its hyperplane
    y^{n-1}: its image, the segment line met with y^{n-1}, is
    (m.b) a - (m.a) b, and its coordinate -(m.b)/(m.a) is a ratio of
    pairings, the form of Labourie's cross ratio.
    """

    forward: np.ndarray
    backward: np.ndarray

    def __post_init__(self):
        a, b = self.forward, self.backward
        if np.any(np.linalg.norm(b - np.sum(a * b, axis=-1)[..., None] * a, axis=-1) < 1e-9):
            raise ValueError("leaf endpoints coincide")

    def _pairings(self, m):
        """(m.a, m.b) and where both endpoints lie numerically in ker m = y^{n-1}."""
        ma, mb = np.sum(m * self.forward, axis=-1), np.sum(m * self.backward, axis=-1)
        return ma, mb, np.maximum(np.abs(ma), np.abs(mb)) <= RANK_TOL * np.linalg.norm(m, axis=-1)

    def coordinate(self, m):
        """Segment coordinate -(m.b)/(m.a) of each image: backward at 0, forward at infinity."""
        ma, mb, degenerate = self._pairings(m)
        if np.any(degenerate):
            raise DegenerateMeet("meet has dimension 2, expected 1")
        if np.any(np.abs(ma) < 1e-14 * np.abs(mb)):
            raise PointOutsideSegment("point at the forward endpoint")
        return -mb / ma

    def coordinate_or_nan(self, m):
        """`coordinate`, NaN at each image it would refuse instead of raising."""
        ma, mb, degenerate = self._pairings(m)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(degenerate | (np.abs(ma) < 1e-14 * np.abs(mb)), np.nan, -mb / ma)

    def image(self, m) -> np.ndarray:
        """Unit vectors (..., n) along the images (m.b) a - (m.a) b."""
        ma, mb, degenerate = self._pairings(m)
        if np.any(degenerate):
            raise DegenerateMeet("meet has dimension 2, expected 1")
        image = mb[..., None] * self.forward - ma[..., None] * self.backward
        return image / np.linalg.norm(image, axis=-1, keepdims=True)


def _check_realizable(n: int) -> None:
    if n < 3:
        raise ValueError(f"root realizations need n >= 3; got n={n}")


def leaf_context(curve: BoundaryCurve, alpha, x, z) -> LeafMetricContext:
    """Image segments of root alpha = (i, j) on the broadcast leaves (x, z), n >= 3.

    The ends are x^i ∩ z^{n-i+1} and x^j ∩ z^{n-j+1}, read as x^1 at i = 1
    and z^1 at j = n; an interior one is the kernel of the covectors of x^k
    and z^{n-k+1}, refused with DegenerateMeet below rank n-1 by RANK_TOL.
    """
    i, j = alpha
    n = curve.n
    _check_realizable(n)
    _check_root(i, j, n)
    fx, fz = curve.frames_at(np.stack(np.broadcast_arrays(x, z)))

    def endpoint(k):
        if k in (1, n):
            return (fx if k == 1 else fz)[..., 0]
        covectors = np.concatenate([annihilator(fx[..., :k]),
                                    annihilator(fz[..., :n - k + 1])], axis=-1)
        u, sv, _ = np.linalg.svd(covectors)
        small = np.sum(sv <= RANK_TOL * sv[..., :1], axis=-1)
        if np.any(small):
            raise DegenerateMeet(f"meet has dimension {1 + np.max(small)}, expected 1")
        return u[..., -1]

    return LeafMetricContext(endpoint(i), endpoint(j))


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
    points = [_random_positive_triple(rng) for _ in range(count)]
    return np.array([(p.x, p.y, p.z) for p in points]).T


def _angle(a, b) -> np.ndarray:
    """Angle between the lines of R^3 along stacked unit vectors a and b, in [0, pi/2]."""
    return np.arctan2(np.linalg.norm(np.cross(a, b), axis=-1), np.abs(np.sum(a * b, axis=-1)))


def two_sheet_error(curve: BoundaryCurve, seed: int) -> float:
    """Largest angle by which the deck identity of the two-sheeted tangent covering,
    phi_tan_plus(w, z, y) = phi_tan_plus(x, y, z) with w the second point where the
    image line through x1 meets the curve, fails in point or line, on COVERING_TRIPLES
    random positive triples drawn from `seed`."""
    x, y, z = _random_triples(np.random.default_rng(seed), COVERING_TRIPLES)
    points, lines = develop(curve, "tan+", x, y, z)
    w = second_boundary_intersection(curve, lines, x)
    swapped_points, swapped_lines = develop(curve, "tan+", w, z, y)
    return float(max(_angle(points, swapped_points).max(), _angle(lines, swapped_lines).max()))


@dataclass(frozen=True)
class ConcavityReport:
    min_outside_margin: float
    min_tangent_margin: float
    coverage_radius: float
    interior_counterexample_distance: float
    passed: bool


def concavity_check(curve: BoundaryCurve, x: float, seed: int) -> ConcavityReport:
    """The image of the leaves (x, y, z), for every pair y < z of CONCAVITY_SAMPLES
    parameters after x, avoids the hull and the tangent at x and approximately fills
    their complement (checked on random chart probes drawn from `seed`)."""
    rng = np.random.default_rng(seed)
    delta = _membership_margin(curve)
    verts = curve.chart_points()
    tangent = curve.chart.line_to_chart(_levels(curve.frames_at(x))[1])
    a_k, b_k = np.triu_indices(CONCAVITY_SAMPLES, 1)
    y = x + 2 * math.pi * (a_k + 1) / (CONCAVITY_SAMPLES + 1)
    z = x + 2 * math.pi * (b_k + 1) / (CONCAVITY_SAMPLES + 1)
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
    the samples occupy: the sign of each one's segment coordinate on
    (z1, x2∩z2), read against z2, over that of a known positive-type probe.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 samples")
    u_mat, s_vals, _ = np.linalg.svd(points.T)
    if s_vals[-1] / s_vals[0] > curve_tolerance(curve):
        raise UnclassifiedLine(f"collinearity residual {s_vals[-1] / s_vals[0]:.3e}")
    fitted = u_mat[:, -1]  # covector of the fitted line
    (x1, z1), (x2, z2) = _levels(curve.frames_at([x, z]))
    if _angle(fitted, cross_meet(x1, z1)) < LINE_MATCH_TOL:
        return "transverse"
    if _angle(fitted, z2) > LINE_MATCH_TOL:
        raise UnclassifiedLine("fitted line matches neither candidate")
    probe = develop(curve, "tan+", x, x + circular_gap(x, z) / 2, z)[0]  # a tangent_plus image
    ctx = LeafMetricContext(z1, cross_meet(x2, z2))
    u = ctx.coordinate_or_nan(np.cross(np.concatenate([points, probe]), z2))
    signs = u[:-1] * u[-1]  # NaN at z1, 0 at the pivot: neither side
    if np.all(signs > 0):
        return "tangent_plus"
    if np.all(signs < 0):
        return "tangent_minus"
    raise UnclassifiedLine("samples straddle the special points of the tangent")
