"""Numerical projective geometry over R^n.

A full flag is a complete orthonormal frame: its first k columns span
level k and the other n - k the annihilator of that level, so the last
is the covector of the hyperplane.  The package computes on stacks of
them, from one complete QR (`flag_frames`) whose trailing columns are
the `annihilator`, signed as LAPACK's QR makes it (a curve with a chart
re-signs each covector toward its hull).  In RP^2 a join of two points or
a meet of two lines is one cross product (`cross_meet`), which works on
stacked vectors and decides rank by `RANK_TOL`.  Cross ratios of points on a line are ratios
of segment coordinates, which `devmaps.LeafMetricContext` reads.  There is no
chart object: an odd-n curve's chart is the plane h.p = 1 of its interior
covector h in an orthonormal frame (`limitcurve.BoundaryCurve.chart`), and a
point is off that chart's hyperplane at infinity when its pairing with h is
at least `INFINITY_TOL` times its norm.

`ProjectiveSubspace` (the column span of an orthonormal basis), `Flag`
and `join` are the object forms of the same data, kept for the one-triple
developing maps and the benchmark's bindings.  They are immutable,
compare by identity and cache nothing: `Flag[k]` builds its level on
each call.
"""

from dataclasses import dataclass

import numpy as np

from .config import DegenerateMeet, DegenerateSum, DimensionOverflow

RANK_TOL = 1e-9       # singular values below this times the largest count as zero
INFINITY_TOL = 1e-13  # least |h.v| / |v| of a point v in the chart of unit covector h
ORTHONORMAL_TOL = 1e-10  # largest Gram-matrix entry error of an orthonormal basis or frame


def _require_orthonormal(columns: np.ndarray, what: str) -> None:
    """Raise ValueError unless every (..., n, k) basis in the stack has orthonormal columns."""
    gram = np.swapaxes(columns, -1, -2) @ columns
    if not np.all(np.abs(gram - np.eye(columns.shape[-1])) <= ORTHONORMAL_TOL):  # NaN fails
        raise ValueError(f"{what} columns are not orthonormal")


@dataclass(frozen=True, eq=False)
class ProjectiveSubspace:
    """A k-dimensional linear subspace of R^n up to scale.

    `basis` is an n x k matrix with orthonormal columns whose span defines
    the subspace.  Points are k=1, hyperplanes are k=n-1.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim == 1:
            basis = basis[:, None]
        object.__setattr__(self, "basis", basis)
        n, k = basis.shape
        if n != self.ambient_dim or not (1 <= k <= n - 1):
            raise ValueError(f"bad basis shape {basis.shape} for ambient dim {self.ambient_dim}")
        _require_orthonormal(basis, "basis")
        basis.setflags(write=False)

    @classmethod
    def point(cls, coords):
        """Convenience constructor for a one-dimensional subspace."""
        v = np.asarray(coords, dtype=float)
        return cls(v.size, (v / np.linalg.norm(v))[:, None])

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def principal_angle(self, other: "ProjectiveSubspace") -> float:
        """Largest principal angle between two subspaces of equal dimension."""
        s = np.linalg.svd(self.basis.T @ other.basis, compute_uv=False)
        cos_a = float(np.clip(s.min(), -1.0, 1.0))
        if cos_a > 0.99:
            # arccos loses half the significant digits near zero angle;
            # the residual spectral norm is sin of the same angle
            resid = other.basis - self.basis @ self.basis.T @ other.basis
            return float(np.arcsin(min(1.0, np.linalg.norm(resid, ord=2))))
        return float(np.arccos(cos_a))


@dataclass(frozen=True, eq=False)
class Flag:
    """A full flag of R^n as the first n-1 columns of its complete frame.

    Level k is the span of the first k columns, so levels nest by construction.
    """

    frame: np.ndarray

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=float)
        object.__setattr__(self, "frame", frame)
        if frame.ndim != 2 or frame.shape[1] != frame.shape[0] - 1:
            raise ValueError(f"bad flag frame shape {frame.shape}")
        _require_orthonormal(frame, "flag frame")
        frame.setflags(write=False)

    def __getitem__(self, k: int) -> ProjectiveSubspace:
        """Subspace of dimension k (the superscript index convention)."""
        if not 1 <= k < self.ambient_dim:
            raise KeyError(f"flag has no subspace of dimension {k}")
        return ProjectiveSubspace(self.ambient_dim, self.frame[:, :k].copy())

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def point(self) -> ProjectiveSubspace:
        """Level 1."""
        return self[1]

    @property
    def line(self) -> ProjectiveSubspace:
        """Level 2: a projective line, and at n=3 the hyperplane."""
        return self[2]

    @classmethod
    def from_basis_columns(cls, columns: np.ndarray) -> "Flag":
        """Flag whose level k spans the first k of the n-1 given columns."""
        return cls(flag_frames(columns)[:, :-1])


def flag_frames(columns: np.ndarray) -> np.ndarray:
    """Complete frames (..., n, n) whose level k spans the first k of each set of n-1 columns.

    One stacked complete QR, each frame the same floats as alone and its first
    n-1 columns those of the reduced QR; the stack is checked orthonormal once.
    """
    q, _ = np.linalg.qr(columns, mode="complete")
    _require_orthonormal(q, "flag frame")
    return q


def join(subspaces) -> ProjectiveSubspace:
    """Span of a collection of subspaces.

    Raises DimensionOverflow if the dimension count exceeds the ambient
    dimension, and DegenerateSum if the inputs fail to be in general
    position (numerical rank below the sum of dimensions).
    """
    subspaces = list(subspaces)
    n = subspaces[0].ambient_dim
    if any(s.ambient_dim != n for s in subspaces):
        raise ValueError("ambient dimensions disagree")
    total = sum(s.dim for s in subspaces)
    if total > n:
        raise DimensionOverflow(f"join of total dimension {total} in R^{n}")
    u, sv, _ = np.linalg.svd(np.hstack([s.basis for s in subspaces]), full_matrices=False)
    rank = int(np.sum(sv > RANK_TOL * sv[0]))
    if rank < total:
        raise DegenerateSum(f"join rank {rank} < expected {total}")
    return ProjectiveSubspace(n, u[:, :rank])


def annihilator(basis: np.ndarray) -> np.ndarray:
    """Orthonormal (..., n, n-k) covectors killing (..., n, k) bases of rank k: the last
    columns of their complete QR, as in `flag_frames`."""
    return np.linalg.qr(basis, mode="complete")[0][..., basis.shape[-1]:]


def cross_meet(a, b) -> np.ndarray:
    """Join of two points or meet of two lines of RP^2, on stacked 3-vectors (..., 3).

    Both are the unit cross product a x b.  Raises DegenerateMeet where
    |a x b| <= RANK_TOL |a| |b|.  Each product, difference and sum is one
    of `np.cross` or `np.linalg.norm`, so the floats are theirs."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a0, a1, a2, b0, b1, b2 = (v[..., k] for v in (a, b) for k in range(3))
    c = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)
    norm, scale_a, scale_b = (np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
                              for v in (c, a, b))
    if np.any(norm <= RANK_TOL * (scale_a * scale_b)):
        raise DegenerateMeet(f"coincident points or lines: |a x b| <= {RANK_TOL:g} |a| |b|")
    return c / norm
