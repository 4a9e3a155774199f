"""Numerical flag geometry of Hitchin representations.

Limit curves sampled from eigenflags, developing maps into the
point-line flag manifold and projective space, cross-ratio refraction
flows, and the eigenvalue oracles they are checked against.  Each name
is imported from the module that defines it, for example
`from flagflows.limitcurve import sample_boundary`.
"""

__version__ = "0.1.0"
