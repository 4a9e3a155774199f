"""Surface-group representations into SL(n, R).

Provides the reference Fuchsian holonomy of the genus-2 surface (regular
octagon side pairings: a quarter turn about the centre, then a half turn
about a side midpoint), SL2 -> SLn symmetric powers, bulging deformations,
and eigenvalue data: eigensystems, and Jordan projections with their root
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
    FlagFlowsError,
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


def boundary_vector(theta) -> np.ndarray:
    """Homogeneous RP^1 coordinates (2, ...) of the boundary points with parameters theta."""
    half = np.asarray(theta, dtype=float) / 2.0
    return np.array([-np.cos(half), np.sin(half)])


def theta_of_vector(v) -> float:
    """Inverse of `boundary_vector`, defined up to the +- sign of v."""
    return float(_thetas_of_vectors(v))


def _thetas_of_vectors(v) -> np.ndarray:
    """`theta_of_vector` of each vector of a stack (2, ...), on arrays."""
    return 2.0 * (np.arctan2(v[1], -v[0]) % math.pi) % (2.0 * math.pi)


def circular_gap(start: float, end: float) -> float:
    """Counterclockwise angular distance from start to end, in [0, 2pi)."""
    return (end - start) % (2.0 * math.pi)


def axis_thetas(m: np.ndarray):
    """(attracting, repelling) circle parameters of a hyperbolic matrix in SL(2, R), as
    floats, or of each matrix of a stack (..., 2, 2), as two arrays (...).

    In closed form: each fixed point spans the columns of m - mu Id, mu the
    other eigenvalue, and the longer column is read.  Raises NotLoxodromic
    unless every |trace| > 2.  The parameters carry an error of about
    eps |m|^2 / (trace^2 - 4), from reading trace^2 - 4 and det m = 1.
    """
    m = np.asarray(m, dtype=float)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    trace = a + d
    if not np.all(np.abs(trace) > 2.0):  # NaN fails too
        raise NotLoxodromic("reference image is not hyperbolic")
    small = 2.0 / (trace + np.copysign(np.sqrt(trace * trace - 4.0), trace))
    thetas = []
    for p, q in (((a - small, c), (b, d - small)), ((small - d, c), (b, small - a))):
        longer = p[0] * p[0] + p[1] * p[1] >= q[0] * q[0] + q[1] * q[1]
        thetas.append(_thetas_of_vectors(np.where(longer, p, q)))
    x, z = thetas
    return (float(x), float(z)) if m.ndim == 2 else (x, z)


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


def _check_product(det: float, span: float, unsorted: bool) -> None:
    """Raise ValueError unless det is +-1 within the drift of a product, then unless
    the log-moduli came out sorted (`unsorted` false).

    `span` is the spread l_1 - l_n of the product's log-moduli.  Float
    determinants of long word products drift by roughly eps * cond, so
    the guard scales with exp(span), capped at 0.5; the mean-subtraction
    of `jordan_projection` removes the drift anyway.
    """
    drift = 1e3 * EPS * math.exp(min(span, 40.0))
    if abs(abs(det) - 1.0) > max(1e-9, min(drift, 0.5)):
        raise ValueError(f"matrix determinant {det} is not +-1")
    if unsorted:
        raise ValueError("log-moduli must be sorted nonincreasing")


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
        _check_product(float(np.linalg.det(g)), lm[0] - lm[-1],
                       any(a < b - 1e-12 for a, b in zip(out, out[1:])))
        return out
    lm = logs[:count, ::-1]
    lm = np.where(read_from_g(lm), lm, -logs[count:])
    out = lm - lm.mean(axis=1, keepdims=True)  # drop the zero-sum drift
    unsorted = np.any(out[:, :-1] < out[:, 1:] - 1e-12, axis=1)
    # the rule of `_check_product` on the stack, math.exp per entry; fmax, like max,
    # bounds a NaN drift by 1e-9
    dets, spans = np.linalg.det(stack), lm[:, 0] - lm[:, -1]
    drift = 1e3 * EPS * np.array(list(map(math.exp, np.minimum(spans, 40.0).tolist())))
    refused = np.abs(np.abs(dets) - 1.0) > np.fmax(np.minimum(drift, 0.5), 1e-9)
    for k in np.flatnonzero(refused | unsorted)[:1]:
        _check_product(float(dets[k]), float(spans[k]), bool(unsorted[k]))
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
    names the first failing matrix's first failing gap.
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
        raise NotLoxodromic(
            f"eigenvalue moduli gap {gaps[tuple(bad[0])]:.3e} below {LOXODROMY_GAP}")
    # distinct moduli force real eigenvalues; strip the numerical phase
    # of each column, then normalize its real part
    lead = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    phase = np.take_along_axis(vecs, lead, axis=-2)
    real = (vecs * np.conj(phase / np.abs(phase))).real
    norms = np.sqrt(real.swapaxes(-1, -2)[..., None, :] @ real.swapaxes(-1, -2)[..., :, None])
    return vals.real, real / norms[..., 0].swapaxes(-1, -2)


def first_failing_word(presentation: SurfaceGroupPresentation, words, run):
    """Return run(rows) over all rows of `words`, or raise the first failing word's error.

    `run` checks each word of a slice of rows on its own.  On a FlagFlowsError
    or ValueError the rows are halved, left half first, until one word fails
    alone (at most 2 ceil(log2 W) + 1 runs); its own error is raised, of its
    type, as `word <name>: <message>`.  An error no word raises alone is unnamed.
    """
    try:
        return run(slice(0, len(words)))
    except (FlagFlowsError, ValueError) as whole:
        start, stop, error = 0, len(words), whole
        while stop - start > 1:
            mid = (start + stop) // 2
            for start, stop in ((start, mid), (mid, stop)):
                try:
                    run(slice(start, stop))
                except (FlagFlowsError, ValueError) as exc:
                    error = exc
                    break
            else:
                raise
        if not words:
            raise
        raise type(error)(f"word {presentation.format_word(words[start])}: {error}") from error


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
        g = self.matrices(ball)
        first_failing_word(self.presentation, ball, lambda rows: loxodromic_eigensystem(g[rows]))

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


def _rotation(phi: float) -> np.ndarray:
    """K(phi) in SL(2, R): fixes i and turns the disk model about its centre by -phi."""
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return np.array([[c, -s], [s, c]])


def fuchsian_genus2() -> SurfaceGroupRep:
    """Discrete faithful SL(2, R) holonomy of the genus-2 surface, in closed form.

    The regular octagon with vertex angle pi/4 is centred at i, and side p
    joins vertices p and p + 1.  The right triangle (centre, side midpoint,
    vertex) has angles pi/8, pi/2, pi/8, so the midpoint lies at distance d,
    cosh d = cot(pi/8), in the disk direction (p + 1) pi/4.  g_p glues side
    p + 2 onto side p: the quarter turn K(pi/2), then the half turn
    H = [[0, -e^d], [e^-d, 0]] about i e^d, conjugated by K((p + 1) pi/4).
    Every generator has trace 2 + sqrt 2, and the relator image is +Id.
    """
    cosh_d = 1.0 + math.sqrt(2.0)
    e_d = cosh_d + math.sqrt(cosh_d * cosh_d - 1.0)
    half_turn = np.array([[0.0, -e_d], [1.0 / e_d, 0.0]])
    g = {p: -_rotation(-(p + 1) * math.pi / 4) @ half_turn
         @ _rotation((p + 1) * math.pi / 4) @ _rotation(math.pi / 2) for p in (0, 1, 4, 5)}
    # the gluing relation g0 g1 G0 G5 g4 g5 G4 G1 = 1 conjugates to the relator in:
    images = {1: np.linalg.inv(g[1]), 2: g[0], 3: np.linalg.inv(g[5]), 4: g[4]}
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
    aa, ab, ac, ad = (a[..., r, c, None, None] for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)))
    d = m - 1
    # column k multiplies d - k factors aa + ac t, then k factors ab + ad t; at step j
    # every column takes its factor at once, column k the second kind if k >= d - j
    second = (np.arange(m) >= d - np.arange(d)[:, None])[:, :, None]  # (step, column, 1)
    xs, ys = (np.where(second, u[..., None, :, :], v[..., None, :, :])
              for u, v in ((ab, aa), (ad, ac)))
    p = np.ones(a.shape[:-2] + (m, 1))
    for j in range(d):
        # coefficient i of p(t) (x + y t) is p[i] x + p[i-1] y
        px, py = p * xs[..., j, :, :], p * ys[..., j, :, :]
        p = np.concatenate([px[..., :1], py[..., :-1] + px[..., 1:], py[..., -1:]], axis=-1)
    out = np.swapaxes(p, -1, -2)
    det = np.linalg.det(out)  # equals det(a)^{m(m-1)/2}; 1 for SL2 input
    if not np.all(det > 0):  # NaN fails too
        raise ValueError("symmetric power expects det(a) = 1")
    # the m-th root per entry: np.power on arrays moves the last bit of some roots
    root = np.reshape([x ** (1.0 / m) for x in np.ravel(det)], np.shape(det))
    return out / root[..., None, None]


def sym_power(rep: SurfaceGroupRep, m: int) -> SurfaceGroupRep:
    """Irreducible embedding of an SL2 representation into SL(m, R); `rep` itself at m = 2."""
    if rep.n != 2:
        raise ValueError("sym_power expects an SL2 representation")
    if m < 2:
        raise ValueError("m must be at least 2")
    if m == 2:  # sym_matrix would divide by det^(1/2), moving the last bits
        return rep
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
