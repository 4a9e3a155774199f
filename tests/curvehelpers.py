"""Shared test-only curve constructions and oracles."""

import math

import numpy as np

from flagflows.config import NotDefinedHere
from flagflows.devmaps import leaf_context
from flagflows.limitcurve import BoundaryCurve, interpolate
from flagflows.projective import Flag, ProjectiveSubspace, flag_frames
from flagflows.reps import boundary_vector, circular_gap, sym_power, theta_of_vector


def as_flag(frame) -> Flag:
    """The `Flag` of a complete frame (n, n): its first n-1 columns."""
    return Flag(frame[:, :-1])


def svd_annihilator(basis) -> np.ndarray:
    """Orthonormal covectors killing the k columns of a rank-k basis, from a full SVD."""
    return np.linalg.svd(basis)[0][:, basis.shape[1]:]


def meet(subspaces) -> ProjectiveSubspace:
    """Intersection of transverse subspaces: the null space of their stacked annihilators.

    An SVD oracle for the cross-product kernel and for the frame columns;
    it checks no rank.
    """
    subspaces = list(subspaces)
    covectors = np.hstack([svd_annihilator(s.basis) for s in subspaces])
    return ProjectiveSubspace(subspaces[0].ambient_dim, svd_annihilator(covectors))


def realization(curve, alpha, p) -> ProjectiveSubspace:
    """Root alpha's image of the leaf point p: its segment met with y^{n-1}."""
    ctx = leaf_context(curve, alpha, p.x, p.z)
    return ProjectiveSubspace.point(ctx.image(curve.frames_at(p.y)[:, -1]))


def two_inverse_reference_flow(x: float, z: float, y: float, t: float) -> float:
    """`reference_flow` on one triple by two matrix inversions: the matrix that puts x at
    infinity and z at zero on the reference circle, the remaining coordinate scaled by
    e^t, and the inverse matrix back."""
    m = np.linalg.inv(np.column_stack([boundary_vector(x), boundary_vector(z)]))
    w = m @ boundary_vector(y)
    if abs(w[1]) < 1e-15 * abs(w[0]):
        raise NotDefinedHere("y coincides with x on the leaf")
    return theta_of_vector(np.linalg.inv(m) @ np.array([w[0] / w[1] * math.exp(t), 1.0]))


def procrustes_interpolate(curve, thetas) -> np.ndarray:
    """Frames (m, n, n) of a sampled curve at parameters (m,), none within 1e-13 of a
    sample, aligning each gap's two frames per call: level k of the upper frame is
    rotated onto level k of the lower by Procrustes (for one column, by the sign of the
    inner product), blended linearly, and its column k-1 taken; the hull sign as in
    `interpolate`."""
    theta = np.asarray(thetas, dtype=float) % (2 * math.pi)
    hi = np.searchsorted(curve.thetas, theta) % len(curve)
    lo = (hi - 1) % len(curve)
    lam = (circular_gap(curve.thetas[lo], theta)
           / circular_gap(curve.thetas[lo], curve.thetas[hi]))[:, None, None]
    columns = []
    for k in range(1, curve.n):
        b_lo, b_hi = curve.frames[lo, :, :k], curve.frames[hi, :, :k]
        if k == 1:
            aligned = b_hi * np.copysign(1.0, np.sum(b_hi * b_lo, axis=1))[:, None]
        else:
            u, _, vt = np.linalg.svd(np.swapaxes(b_hi, 1, 2) @ b_lo)
            aligned = b_hi @ (u @ vt)
        columns.append(((1.0 - lam) * b_lo + lam * aligned)[:, :, k - 1])
    frames = flag_frames(np.stack(columns, axis=-1))
    if curve.chart is not None:
        frames[:, :, -1] *= np.copysign(1.0, frames[:, :, -1] @ curve._barycenter)[:, None]
    return frames


def iterated_curve(curve) -> BoundaryCurve:
    """The samples of a sampled curve with its own interpolation as the evaluator: the
    same flags at every parameter, and a scan on it refines every bracket with
    `bracketed_root`, closed-form roots being for curves without an evaluator."""
    return BoundaryCurve(curve.thetas, curve.frames, curve.rep, curve.reference,
                         exact_eval=lambda thetas: interpolate(curve, thetas))


def interior_point(curve) -> np.ndarray:
    """A point inside the convex hull of an odd-n curve: the mean of its xi^1 samples,
    each signed to pair positively with `positive_covector`."""
    points = curve.frames[:, :, 0]
    return np.mean(points * np.sign(points @ curve.positive_covector)[:, None], axis=0)


def assert_signed_toward_hull(curve, frames, unsigned):
    """`frames` (..., n, n) equal `unsigned` in the first n-1 columns bit for bit and in the
    last up to sign; at odd n every last column pairs positively with an interior point, at
    even n none is flipped."""
    n = curve.n
    assert frames[..., :n - 1].tobytes() == unsigned[..., :n - 1].tobytes()
    last, want = frames[..., -1], unsigned[..., -1]
    flipped = np.all(last == -want, axis=-1)
    assert np.all(flipped | np.all(last == want, axis=-1))
    if n % 2:
        assert np.all(last @ interior_point(curve) > 0)
    else:
        assert not np.any(flipped)


def collinear_degenerate_curve(reference, num_samples=64,
                               arc=(0.5, 2.0)) -> BoundaryCurve:
    """An ellipse-like curve flattened onto a chord along one arc.

    Samples inside `arc` are projected onto the chord joining the arc
    endpoints (with the chord as their tangent line), so any three of
    them are collinear.
    """
    rep = sym_power(reference, 3)
    thetas = (np.arange(num_samples) + 0.5) * 2 * math.pi / num_samples

    def point(theta):
        return np.array([math.cos(theta), math.sin(theta), 1.0])

    def tangent_dir(theta):
        return np.array([-math.sin(theta), math.cos(theta), 0.0])

    a, b = arc
    p_a, p_b = point(a), point(b)
    frames = []
    for theta in thetas:
        if a <= theta <= b:
            t = (theta - a) / (b - a)
            p = (1 - t) * p_a + t * p_b
            d = p_b - p_a
        else:
            p = point(theta)
            d = tangent_dir(theta)
        frames.append(flag_frames(np.column_stack([p, d])))
    return BoundaryCurve(thetas, np.array(frames), rep, reference)
