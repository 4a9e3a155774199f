"""Shared test-only curve constructions and oracles."""

import math

import numpy as np

from flagflows.devmaps import leaf_context
from flagflows.limitcurve import BoundaryCurve
from flagflows.projective import Flag, ProjectiveSubspace, annihilator
from flagflows.reps import sym_power


def meet(subspaces) -> ProjectiveSubspace:
    """Intersection of transverse subspaces: the null space of their stacked annihilators.

    An SVD oracle for the cross-product kernel; it checks no rank.
    """
    subspaces = list(subspaces)
    covectors = np.hstack([annihilator(s.basis) for s in subspaces])
    return ProjectiveSubspace(subspaces[0].ambient_dim, annihilator(covectors))


def realization(curve, alpha, p) -> ProjectiveSubspace:
    """Root alpha's image of the leaf point p: its segment met with y^{n-1}."""
    ctx = leaf_context(curve, alpha, p.x, p.z)
    return ProjectiveSubspace.point(ctx.image(curve.hyperplane_covectors_at(p.y)))


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
        frames.append(Flag.from_basis_columns(np.column_stack([p, d])).frame)
    return BoundaryCurve(thetas, np.array(frames), rep, reference)
