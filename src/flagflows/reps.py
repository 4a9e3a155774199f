"""Surface-group representations into SL(n, R).

Provides the reference Fuchsian holonomy of the genus-2 surface built
from the regular hyperbolic octagon (vertex angle pi/4), irreducible
embeddings SL2 -> SLn by symmetric powers, bulging deformations, and
eigenvalue data: eigensystems, and Jordan projections with their root
lengths, as arrays over a stack of matrices (plain floats for one).

Also houses the circle parameterization of the boundary at infinity:
theta in [0, 2pi) corresponds to the point -cot(theta/2) of the real
projective line (the Cayley-transform angle of the disk model), so the
reference SL2 representation acts on theta by Mobius transformations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import (
    EigenFailure,
    IndexOrder,
    NonLoxodromicCurve,
    NotLoxodromic,
)
from .words import GroupWord, SurfaceGroupPresentation, enumerate_conjugacy_classes

LOXODROMY_GAP = 1e-6  # minimal relative gap between consecutive eigenvalue moduli
RELATOR_TOL = 1e-8    # Frobenius distance of the relator image from +-Id
EPS = float(np.finfo(float).eps)

# ---------------------------------------------------------------------------
# circle boundary parameterization


def boundary_vector(theta: float) -> np.ndarray:
    """Homogeneous RP^1 coordinates of the boundary point with parameter theta."""
    return np.array([-math.cos(theta / 2.0), math.sin(theta / 2.0)])


def theta_of_vector(v) -> float:
    """Inverse of `boundary_vector`, defined up to the +- sign of v."""
    phi = math.atan2(v[1], -v[0])
    if phi < 0:
        phi += math.pi
    elif phi >= math.pi:
        phi -= math.pi
    return (2.0 * phi) % (2.0 * math.pi)


def circular_gap(start: float, end: float) -> float:
    """Counterclockwise angular distance from start to end, in [0, 2pi)."""
    return (end - start) % (2.0 * math.pi)


def axis_thetas(m: np.ndarray):
    """(attracting, repelling) circle parameters of a hyperbolic 2x2 matrix."""
    vals, vecs = np.linalg.eig(m)
    order = np.argsort(-np.abs(vals))
    return (theta_of_vector(vecs[:, order[0]].real),
            theta_of_vector(vecs[:, order[1]].real))


# ---------------------------------------------------------------------------
# eigenvalue data


def read_from_g(lm: np.ndarray) -> np.ndarray:
    """Which eigenvalue indices are better read from g than from g^-1.

    `lm` holds the log-moduli of g sorted nonincreasing, shape (..., n).
    Index k is read from g when it is no farther from the top of g's
    spectrum than from the bottom; otherwise from g^-1, where it is
    index n-1-k and near the top.  Small eigenvalues of an
    ill-conditioned product carry a relative error of roughly
    eps * cond(g), so reading each from the product where it dominates
    keeps every entry accurate.
    """
    return _nearer_top(lm, lm[..., :1], lm[..., -1:])


def _nearer_top(x, top, bottom):
    """The rule of `read_from_g`, on floats or broadcasting arrays."""
    return top - x <= x - bottom


def _check_unimodular(det: float, span: float) -> None:
    """Raise ValueError unless det is +-1 within the drift of a product.

    `span` is the spread l_1 - l_n of the product's log-moduli.  Float
    determinants of long word products drift by roughly eps * cond, so
    the guard scales with exp(span), capped at 0.5; the mean-subtraction
    of `jordan_projection` removes the drift anyway.
    """
    drift = 1e3 * EPS * math.exp(min(span, 40.0))
    if abs(abs(det) - 1.0) > max(1e-9, min(drift, 0.5)):
        raise ValueError(f"matrix determinant {det} is not +-1")


def jordan_projection(g: np.ndarray, g_inverse: np.ndarray):
    """Sorted log-moduli of the eigenvalues of g (det g = +-1), shifted to sum to zero.

    `g` is one matrix (n, n), giving a tuple of n floats, or a stack
    (W, n, n), giving an (n, W) array whose row k - 1 holds index k of
    every matrix; either way `root_length` reads it.  `g_inverse` is the
    independently computed inverse product (or stack), of g's shape;
    each entry is read from g or from the inverse as `read_from_g`
    decides.  Both shapes share one eigensolve over g and its inverse;
    for one matrix the rest runs on Python floats, which give the same
    bits as the stack's array arithmetic: numpy's mean adds fewer than 8
    entries in order from 0.0, and so does the loop here (the builtin
    `sum` compensates its rounding from Python 3.12 on).  The CLI reads
    stacks only; the one-matrix path is the per-word reference that the
    benchmark's periods oracle and acceptance criterion 1 call.  Raises
    ValueError for any other shape, and for the first matrix whose
    determinant is not +-1 or whose log-moduli come out unsorted.
    """
    g = np.asarray(g, dtype=float)
    g_inverse = np.asarray(g_inverse, dtype=float)
    if g.ndim not in (2, 3) or g.shape[-1] != g.shape[-2]:
        raise ValueError(f"g must be one (n, n) matrix or a (W, n, n) stack; got shape {g.shape}")
    if g_inverse.shape != g.shape:
        raise ValueError(f"g_inverse has shape {g_inverse.shape}; g has {g.shape}")
    stack = g if g.ndim == 3 else g[None]
    count = stack.shape[0]
    # one eigensolve over g and its inverse stacked together
    both = np.concatenate([stack, g_inverse.reshape(stack.shape)])
    try:
        logs = np.sort(np.log(np.abs(np.linalg.eigvals(both))))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    if g.ndim == 2:
        ascending, inverse = logs.tolist()
        top = ascending[::-1]
        lm = [x if _nearer_top(x, top[0], top[-1]) else -y for x, y in zip(top, inverse)]
        total = 0.0
        for x in lm:
            total += x
        mean = total / len(lm)
        out = tuple(x - mean for x in lm)
        _check_unimodular(float(np.linalg.det(g)), lm[0] - lm[-1])
        if any(a < b - 1e-12 for a, b in zip(out, out[1:])):
            raise ValueError("log-moduli must be sorted nonincreasing")
        return out
    lm = logs[:count, ::-1]
    lm = np.where(read_from_g(lm), lm, -logs[count:])
    out = lm - lm.mean(axis=1, keepdims=True)  # drop the zero-sum drift
    unsorted = np.any(out[:, :-1] < out[:, 1:] - 1e-12, axis=1)
    spans = (lm[:, 0] - lm[:, -1]).tolist()
    for k, det in enumerate(np.linalg.det(stack).tolist()):
        _check_unimodular(det, spans[k])
        if unsorted[k]:
            raise ValueError("log-moduli must be sorted nonincreasing")
    return out.T


def _check_root(i: int, j: int, n: int) -> None:
    """Raise IndexOrder unless (i, j) is a positive root of sl_n: 1 <= i < j <= n."""
    if not 1 <= i < j <= n:
        raise IndexOrder(f"need 1 <= i < j <= {n}, got ({i}, {j})")


def root_length(lengths, i: int, j: int):
    """The root length l_i - l_j of `jordan_projection`'s output, for a positive root (i, j).

    A float for one matrix's tuple, an array of W for a stack's (n, W) array.
    """
    _check_root(i, j, len(lengths))
    return lengths[i - 1] - lengths[j - 1]


def loxodromic_eigensystem(g: np.ndarray):
    """Real eigenvalues and eigenvectors of g sorted by decreasing modulus.

    `g` is one matrix or a stack (..., n, n); each is solved on its own.
    Raises NotLoxodromic unless all eigenvalue moduli are pairwise
    separated by the relative gap LOXODROMY_GAP.  For a stack the error
    names the first failing matrix's first failing gap and carries that
    matrix's stack position as `index`.
    """
    g = np.asarray(g, dtype=float)
    try:
        vals, vecs = np.linalg.eig(g)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    order = np.argsort(-np.abs(vals), axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    moduli = np.abs(vals)
    gaps = (moduli[..., :-1] - moduli[..., 1:]) / moduli[..., :-1]
    bad = np.argwhere(gaps <= LOXODROMY_GAP)
    if bad.size:
        exc = NotLoxodromic(
            f"eigenvalue moduli gap {gaps[tuple(bad[0])]:.3e} below {LOXODROMY_GAP}")
        exc.index = tuple(int(k) for k in bad[0][:-1])
        raise exc
    # distinct moduli force real eigenvalues; strip the numerical phase
    # of each column, then normalize its real part
    lead = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    phase = np.take_along_axis(vecs, lead, axis=-2)
    real = (vecs * np.conj(phase / np.abs(phase))).real
    norms = np.sqrt(real.swapaxes(-1, -2)[..., None, :] @ real.swapaxes(-1, -2)[..., :, None])
    return vals.real, real / norms[..., 0].swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# representations


@dataclass
class SurfaceGroupRep:
    """Generator-to-matrix assignment for a surface group, with det = 1 images."""

    presentation: SurfaceGroupPresentation
    n: int
    images: dict  # generator index (1-based) -> n x n matrix

    def __post_init__(self):
        self.images = {
            int(k): np.asarray(v, dtype=float) for k, v in self.images.items()
        }
        if sorted(self.images) != list(range(1, self.presentation.num_generators + 1)):
            raise ValueError("images must cover exactly the presentation generators")
        for k, m in self.images.items():
            if m.shape != (self.n, self.n):
                raise ValueError(f"generator {k} image has shape {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"generator {k} image is not finite")
            if not abs(np.linalg.det(m) - 1.0) <= 1e-6:  # NaN fails too
                raise ValueError(f"generator {k} image does not have det 1")
        g = self.presentation.num_generators
        # letter x of a word is row g + x; row g is no letter and holds the identity
        self._table = np.empty((2 * g + 1, self.n, self.n))
        self._table[g] = np.eye(self.n)
        for k, m in self.images.items():
            self._table[g + k] = m
            self._table[g - k] = np.linalg.inv(m)
        dist = self.relator_distance()
        if not dist <= RELATOR_TOL:
            raise ValueError(f"relator image is {dist:.3e} from +-identity")

    def relator_distance(self) -> float:
        """Frobenius distance of the relator image from +-Id."""
        rel = self.matrix(self.presentation.relator())
        return min(np.linalg.norm(rel - np.eye(self.n)), np.linalg.norm(rel + np.eye(self.n)))

    def _check_letters(self, low: int, high: int, has_zero: bool) -> None:
        """Refuse letters outside +-1..+-2g, from the least and largest letter and whether 0 occurs.

        An unchecked letter would index the wrong row of the table, or the
        identity row at letter 0.
        """
        g = self.presentation.num_generators
        bad = low if low < -g else high if high > g else 0 if has_zero else None
        if bad is not None:
            raise ValueError(f"letter {bad} is not one of +-1..+-{g}")

    def matrix(self, word) -> np.ndarray:
        """Image of a word (GroupWord or letter sequence), multiplied left to right.

        Only a plain sequence's letters are checked: a GroupWord comes
        from this presentation, which keeps its letters in range.
        """
        if isinstance(word, GroupWord):
            word = word.letters
        elif word:
            self._check_letters(min(word), max(word), 0 in word)
        if not word:
            return np.eye(self.n)
        g = self.presentation.num_generators
        out = self._table[g + word[0]].copy()
        for x in word[1:]:
            out = out @ self._table[g + x]
        return out

    def matrices(self, words) -> np.ndarray:
        """Images of many words as one (W, n, n) array, in the order given.

        Words of one length are multiplied together, left to right one
        letter column at a time, as `matrix` does, so each image equals
        `matrix` of its word exactly.
        """
        letters = [w.letters if isinstance(w, GroupWord) else tuple(w) for w in words]
        out = np.empty((len(letters), self.n, self.n))
        by_length = {}
        for k, w in enumerate(letters):
            by_length.setdefault(len(w), []).append(k)
        for length, rows in by_length.items():
            columns = np.array([letters[k] for k in rows], dtype=int).reshape(len(rows), length)
            if length:
                self._check_letters(int(columns.min()), int(columns.max()), not columns.all())
            columns += self.presentation.num_generators
            product = self._table[columns[:, 0]] if length else np.eye(self.n)
            for col in range(1, length):
                product = product @ self._table[columns[:, col]]
            out[rows] = product
        return out

    def check_loxodromy(self, max_len: int) -> None:
        """Gate: every nontrivial word image in the ball must be loxodromic."""
        ball = enumerate_conjugacy_classes(self.presentation, max_len)
        try:
            loxodromic_eigensystem(self.matrices(ball))
        except NotLoxodromic as exc:
            raise NotLoxodromic(
                f"word {self.presentation.format_word(ball[exc.index[0]])}: {exc}"
            ) from exc

    def to_dict(self) -> dict:
        return {
            "genus": self.presentation.genus,
            "n": self.n,
            "images": {
                str(k): [list(map(float, row)) for row in m]
                for k, m in sorted(self.images.items())
            },
        }


# ---------------------------------------------------------------------------
# the regular-octagon Fuchsian representation


def _disk_pair_normalizer(p: complex, q: complex) -> np.ndarray:
    """SU(1,1)-type matrix sending p to 0 and q onto the positive real axis."""
    t = np.array([[1.0, -p], [-np.conj(p), 1.0]], dtype=complex)
    t /= math.sqrt(1.0 - abs(p) ** 2)
    tq = (q - p) / (1.0 - np.conj(p) * q)
    phi = np.angle(tq)
    rot = np.array([[np.exp(-1j * phi / 2), 0.0], [0.0, np.exp(1j * phi / 2)]])
    return rot @ t


def _disk_isometry_through(p1, p2, q1, q2) -> np.ndarray:
    """Orientation-preserving disk isometry with p1 -> q1, p2 -> q2."""
    return np.linalg.inv(_disk_pair_normalizer(q1, q2)) @ _disk_pair_normalizer(p1, p2)


_CAYLEY = np.array([[1.0, -1j], [1.0, 1j]])  # z -> (z - i)/(z + i), upper half plane to disk


def _disk_to_real(m: np.ndarray) -> np.ndarray:
    """Conjugate a disk Mobius matrix to SL(2, R) acting on the half plane."""
    g = np.linalg.inv(_CAYLEY) @ m @ _CAYLEY
    g = g / np.sqrt(np.linalg.det(g))
    if abs(g.real).sum() < abs(g.imag).sum():
        g = g * 1j
    if np.abs(g.imag).max() > 1e-10:
        raise ValueError("conjugated matrix is not real")
    g = g.real
    return g / math.copysign(math.sqrt(abs(np.linalg.det(g))), 1.0)


def octagon_vertices() -> np.ndarray:
    """Vertices of the regular octagon with vertex angle pi/4, in the disk model."""
    # right triangle (center, side midpoint, vertex) with angles pi/8, pi/2, pi/8:
    # cosh(center-vertex distance) = cot(pi/8)^2
    cosh_rv = (1.0 + math.sqrt(2.0)) ** 2
    r = math.sqrt((cosh_rv - 1.0) / (cosh_rv + 1.0))  # tanh(rv / 2)
    angles = math.pi / 8.0 + math.pi / 4.0 * np.arange(8)
    return r * np.exp(1j * angles)


def fuchsian_genus2() -> SurfaceGroupRep:
    """Discrete faithful SL(2, R) holonomy of the genus-2 surface.

    Side-pairing isometries of the regular octagon with the boundary word
    a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1; the relator image is -Id, which
    all downstream uses absorb (PSL2 action or even symmetric powers).
    """
    v = octagon_vertices()
    # side k runs from v[k] to v[k+1]; g_k glues the side two steps ahead
    # back onto side k with reversed orientation
    pairings = []
    for i_pos in (0, 1, 4, 5):
        i_inv = i_pos + 2
        p1, p2 = v[i_inv], v[(i_inv + 1) % 8]
        q1, q2 = v[(i_pos + 1) % 8], v[i_pos]
        pairings.append(_disk_to_real(_disk_isometry_through(p1, p2, q1, q2)))
    g1, g2, g3, g4 = pairings
    # the gluing relation g1 g2 g1' g4' g3 g4 g3' g2' = 1 (primes are inverses)
    # conjugates to the standard commutator relator in these generators:
    images = {
        1: np.linalg.inv(g2),
        2: g1,
        3: np.linalg.inv(g4),
        4: g3,
    }
    return SurfaceGroupRep(SurfaceGroupPresentation(2), 2, images)


# ---------------------------------------------------------------------------
# symmetric powers and deformations


def sym_matrix(a: np.ndarray, m: int) -> np.ndarray:
    """(m-1)-st symmetric power of a 2x2 matrix, or of each in a stack (..., 2, 2).

    The action on degree-(m-1) binary forms, in the basis x^d, x^{d-1} y,
    ..., y^d with d = m - 1; a diagonal diag(l, 1/l) maps to
    diag(l^d, l^{d-2}, ..., l^-d).  Column k holds the coefficients of the
    image of x^{d-k} y^k under x -> aa x + ac y, y -> ab x + ad y,
    multiplied out one linear factor at a time with the arithmetic of
    np.convolve, so each matrix of a stack is the same floats as alone.
    """
    a = np.asarray(a, dtype=float)
    aa, ab, ac, ad = (a[..., None, r, c] for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)))
    d = m - 1
    out = np.empty(a.shape[:-2] + (m, m))
    for k in range(m):
        p = np.ones(a.shape[:-2] + (1,))
        for x, y in [(aa, ac)] * (d - k) + [(ab, ad)] * k:
            # coefficient i of p(t) (x + y t) is p[i] x + p[i-1] y
            px, py = p * x, p * y
            p = np.concatenate([px[..., :1], py[..., :-1] + px[..., 1:], py[..., -1:]], axis=-1)
        out[..., k] = p
    det = np.linalg.det(out)  # equals det(a)^{m(m-1)/2}; 1 for SL2 input
    if not np.all(det > 0):  # NaN fails too
        raise ValueError("symmetric power expects det(a) = 1")
    # the m-th root per entry: np.power on arrays moves the last bit of some roots
    root = np.reshape([x ** (1.0 / m) for x in np.ravel(det)], np.shape(det))
    return out / root[..., None, None]


def sym_power(rep: SurfaceGroupRep, m: int) -> SurfaceGroupRep:
    """Irreducible embedding of an SL2 representation into SL(m, R)."""
    if rep.n != 2:
        raise ValueError("sym_power expects an SL2 representation")
    if m < 2:
        raise ValueError("m must be at least 2")
    images = {k: sym_matrix(v, m) for k, v in rep.images.items()}
    return SurfaceGroupRep(rep.presentation, m, images)


def bulge_deform(rep: SurfaceGroupRep, s: float) -> SurfaceGroupRep:
    """Bulging deformation of a genus-2 SL3 representation.

    Conjugates a2, b2 by exp(s M) with M traceless and diagonal with
    pattern (1, -2, 1) in the eigenbasis of the separating element
    c = [a1, b1]; M commutes with rep(c), so the relator survives.
    """
    if rep.n != 3 or rep.presentation.genus != 2:
        raise ValueError("bulge_deform expects a genus-2 SL3 representation")
    if not math.isfinite(s):
        raise ValueError(f"bulge must be finite; got {s}")
    if s == 0.0:
        return rep
    c = rep.matrix([1, 2, -1, -2])
    try:
        _, vecs = loxodromic_eigensystem(c)
    except NotLoxodromic as exc:
        raise NonLoxodromicCurve(f"separating curve [a1,b1]: {exc}") from exc
    diag = np.diag(np.exp(s * np.array([1.0, -2.0, 1.0])))
    b = vecs @ diag @ np.linalg.inv(vecs)
    b = b / np.linalg.det(b) ** (1.0 / 3.0)
    b_inv = np.linalg.inv(b)
    images = {
        1: rep.images[1],
        2: rep.images[2],
        3: b @ rep.images[3] @ b_inv,
        4: b @ rep.images[4] @ b_inv,
    }
    return SurfaceGroupRep(rep.presentation, 3, images)
