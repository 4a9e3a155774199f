"""Numerical flag geometry of Hitchin representations.

Limit curves sampled from eigenflags, developing maps into the
point-line flag manifold and projective space, cross-ratio refraction
flows, and the eigenvalue oracles they are checked against.
"""

from .config import FlagFlowsError
from .devmaps import (
    LeafPoint,
    covering_checks,
    geodesic_realization,
    involution_iota,
    leaf_context,
    omega_membership,
    phi_tan_minus,
    phi_tan_plus,
    phi_tr,
    psi_k,
    type_classifier,
)
from .flows import (
    cocycle,
    decay_experiment,
    flow_orbit,
    flow_period,
    flow_step,
    leafwise_distance,
    period_spectrum,
    reference_flow,
    regularity_probe,
)
from .limitcurve import (
    BoundaryCurve,
    boundary_regularity_estimate,
    build_convex_domain,
    frenet_checks,
    fuchsian_curve,
    interpolate,
    sample_boundary,
    second_boundary_intersection,
)
from .projective import (
    AffineChart,
    Flag,
    ProjectiveSubspace,
    annihilator,
    cross_ratio,
    join,
    meet,
)
from .reps import (
    JordanData,
    SurfaceGroupRep,
    bulge_deform,
    fuchsian_genus2,
    jordan_projection,
    loxodromic_eigensystem,
    root_length,
    sym_power,
)
from .words import (
    GroupWord,
    SurfaceGroupPresentation,
    cyclic_reduce,
    enumerate_conjugacy_classes,
    reduce_word,
)

__version__ = "0.1.0"
