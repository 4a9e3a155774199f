"""Numerical projective geometry over R^n.

A full flag is the basis of its hyperplane, a frame whose first k columns
span its level k; the package computes on stacks of such frames
(`flag_frames`).  The covector of a hyperplane is the one column of its
`annihilator`.  In RP^2 a join of two points or a meet of two lines is
one cross product (`cross_meet`), which works on stacked vectors and
decides rank by `RANK_TOL`.  Cross ratios of points on a line are ratios
of segment coordinates, which `devmaps.LeafMetricContext` reads.

`ProjectiveSubspace` (the column span of an orthonormal basis), `Flag`
and `join` are the object forms of the same data, kept for the one-triple
developing maps and the benchmark's bindings.  They are immutable,
compare by identity and cache nothing: `Flag[k]` builds its level on
each call.
"""

from dataclasses import dataclass

import numpy as np

from .config import DegenerateMeet, DegenerateSum, DimensionOverflow, PointOutsideDomain

RANK_TOL = 1e-9       # singular values below this times the largest count as zero
INFINITY_TOL = 1e-13  # relative last chart coordinate of points at infinity
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
    """A full flag of R^n as an n x (n-1) frame with orthonormal columns.

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

    def to_dict(self) -> dict:
        n = self.ambient_dim
        return {"subspaces": [{"ambient_dim": n, "basis": self.frame[:, :k].tolist()}
                              for k in range(1, n)]}

    @classmethod
    def from_basis_columns(cls, columns: np.ndarray) -> "Flag":
        """Flag whose level k spans the first k of the n-1 given columns."""
        return cls(flag_frames(columns))


def flag_frames(columns: np.ndarray) -> np.ndarray:
    """Flag frames (..., n, n-1) whose level k spans the first k of each set of n-1 columns.

    One stacked QR, each frame the same floats as alone; the stack passes
    the orthonormality check of `Flag` without building a flag per frame.
    """
    q, _ = np.linalg.qr(columns)
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
    """Orthonormal (..., n, n-k) covector bases killing stacked (..., n, k) bases of rank k."""
    u, _, _ = np.linalg.svd(basis, full_matrices=True)
    return u[..., basis.shape[-1]:].copy()


def cross_meet(a, b) -> np.ndarray:
    """Join of two points or meet of two lines of RP^2, on stacked 3-vectors (..., 3).

    Both are the unit cross product a x b.  Raises DegenerateMeet where
    |a x b| <= RANK_TOL |a| |b|."""
    c = np.cross(a, b)
    norm = np.linalg.norm(c, axis=-1, keepdims=True)
    scale = np.linalg.norm(a, axis=-1, keepdims=True) * np.linalg.norm(b, axis=-1, keepdims=True)
    if np.any(norm <= RANK_TOL * scale):
        raise DegenerateMeet(f"coincident points or lines: |a x b| <= {RANK_TOL:g} |a| |b|")
    return c / norm


@dataclass(frozen=True)
class AffineChart:
    """An affine chart of RP^{n-1} given by a frame matrix.

    `frame` maps homogeneous coordinates to chart coordinates: the chart
    image of v is (F v)[:-1] / (F v)[-1].  The hyperplane at infinity is
    the kernel of the last row of the frame.
    """

    frame: np.ndarray

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=float)
        object.__setattr__(self, "frame", frame)
        if abs(np.linalg.det(frame)) < 1e-14:
            raise ValueError("chart frame is singular")
        frame.setflags(write=False)

    def in_chart(self, vectors) -> np.ndarray:
        """Whether each point, given as a vector (..., n), is off the hyperplane at infinity."""
        w = np.asarray(vectors) @ self.frame.T
        return np.abs(w[..., -1]) >= INFINITY_TOL * np.linalg.norm(w, axis=-1)

    def to_chart(self, vectors) -> np.ndarray:
        """Chart coordinates (..., n-1) of points given as vectors (..., n), all `in_chart`."""
        if not np.all(self.in_chart(vectors)):
            raise PointOutsideDomain("point lies on the chart's hyperplane at infinity")
        w = np.asarray(vectors) @ self.frame.T
        return w[..., :-1] / w[..., -1:]

    def line_to_chart(self, covectors) -> np.ndarray:
        """Coefficients (..., 3), (a, b) of unit norm, of the lines a*u + b*v + c = 0 killed."""
        coeffs = np.linalg.solve(self.frame.T, np.asarray(covectors).T).T
        return coeffs / np.linalg.norm(coeffs[..., :-1], axis=-1, keepdims=True)


def signed_polygon_distance(vertices: np.ndarray, points: np.ndarray):
    """Minimal signed edge distance of each point (..., 2) to a convex polygon; positive inside."""
    m = vertices.shape[0]
    nxt = vertices[(np.arange(m) + 1) % m]
    edges = nxt - vertices
    rel = np.asarray(points)[..., None, :] - vertices
    cross = edges[:, 0] * rel[..., 1] - edges[:, 1] * rel[..., 0]
    lengths = np.linalg.norm(edges, axis=1)
    dist = cross / np.where(lengths > 0, lengths, 1.0)
    area2 = float(np.sum(vertices[:, 0] * nxt[:, 1] - vertices[:, 1] * nxt[:, 0]))
    return np.min(dist if area2 >= 0 else -dist, axis=-1)
