import math

import mpmath
import numpy as np
import pytest

from flagflows.config import EigenFailure, IndexOrder, NotLoxodromic
from flagflows.projective import Flag
from flagflows.reps import (
    SurfaceGroupRep,
    axis_thetas,
    boundary_vector,
    bulge_deform,
    circular_gap,
    first_failing_word,
    fuchsian_genus2,
    jordan_projection,
    loxodromic_eigensystem,
    root_length,
    sym_matrix,
    sym_power,
    theta_of_vector,
)
from flagflows.words import GroupWord, enumerate_conjugacy_classes

EPS = np.finfo(float).eps


def sl2_length(m):
    return 2.0 * math.acosh(abs(np.trace(m)) / 2.0)


def test_boundary_vector_roundtrip():
    for theta in np.linspace(0.01, 2 * math.pi - 0.01, 17):
        assert abs(theta_of_vector(boundary_vector(theta)) - theta) < 1e-12


def _mp_axis_thetas(m):
    """(attracting, repelling) circle parameters of the float matrix m, read from the
    eigenvectors of a 50-digit `mpmath.eig`, each rid of its phase by its larger entry."""
    with mpmath.workdps(50):
        vals, vecs = mpmath.eig(mpmath.matrix(m.tolist()))
        out = []
        for k in sorted(range(2), key=lambda k: -abs(vals[k])):
            v = [vecs[0, k], vecs[1, k]]
            lead = mpmath.conj(max(v, key=abs))
            phi = mpmath.atan2(mpmath.re(v[1] * lead), -mpmath.re(v[0] * lead)) % mpmath.pi
            out.append(2 * phi)
        return out


def _circle_errors(thetas, m):
    """Per matrix, the larger circular distance of (x, z) from `_mp_axis_thetas`."""
    out = []
    for got, mat in zip(np.transpose(thetas), m):
        with mpmath.workdps(50):
            d = [(mpmath.mpf(g) - w) % (2 * mpmath.pi) for g, w in zip(got, _mp_axis_thetas(mat))]
            out.append(max(float(min(x, 2 * mpmath.pi - x)) for x in d))
    return np.array(out)


def _conditioning(m):
    """|m|_F^2 / |trace^2 - 4| of each matrix of a stack: the growth of an error in
    trace^2 - 4 or in det m = 1, both about eps |m|^2, into the fixed points."""
    trace = np.trace(m, axis1=-2, axis2=-1)
    return np.sum(m * m, axis=(-2, -1)) / np.abs(trace * trace - 4.0)


def _sl2(rng, count, scale=2.0):
    """Random matrices of det 1 (up to rounding), of entries spread over e^+-scale."""
    m = rng.standard_normal((count, 2, 2)) * np.exp(rng.uniform(-scale, scale, (count, 1, 1)))
    m[np.linalg.det(m) < 0, 0] *= -1.0
    return m / np.sqrt(np.linalg.det(m))[:, None, None]


def test_axis_thetas_match_a_50_digit_eig_oracle(reference):
    """Within 8 eps |m|^2 / |trace^2 - 4| of `mpmath.eig`'s fixed points: the closed form
    reads trace^2 - 4 and assumes det m = 1, each within about eps |m|^2 of exact, and an
    error there moves a fixed point by about itself over trace^2 - 4 (the worst ratio
    read 5.0 on the word ball, 2.5 on the random matrices and 1.7 near trace +-2).

    On the reference images of word ball 5 (1.5e-15 at worst), on random hyperbolic
    SL(2, R) matrices of both trace signs, on matrices conjugate to diag(+-l, +-1/l) with
    l = 1 + 10^-k, k up to 6 (traces near +-2, where the bound grows to 8e-4; every
    reference image has |trace| >= 2 + sqrt 2), and on triangular and diagonal matrices,
    whose eigenvectors lie on the coordinate axes.  One matrix gives two floats, the
    same as its row of a stack."""
    rng = np.random.default_rng(2)
    random = _sl2(rng, 300)
    random = random[np.abs(np.trace(random, axis1=1, axis2=2)) > 2.0]
    assert np.any(np.trace(random, axis1=1, axis2=2) < -2.0)
    ell = (1.0 + 10.0 ** -rng.uniform(1.0, 6.0, 100)) * rng.choice([-1.0, 1.0], 100)
    p = _sl2(rng, 100, 1.0)
    near = p @ (np.stack([ell, 1.0 / ell], axis=-1)[:, :, None] * np.linalg.inv(p))
    near = near[np.abs(np.trace(near, axis1=1, axis2=2)) > 2.0]
    assert len(near) > 80
    axes = np.array([np.diag([2.0, 0.5]), np.diag([0.5, 2.0]), np.diag([-2.0, -0.5]),
                     np.diag([-0.5, -2.0]), [[2.0, 1.0], [0.0, 0.5]], [[0.5, 0.0], [1.0, 2.0]],
                     [[-2.0, 0.0], [3.0, -0.5]], [[-0.5, -3.0], [0.0, -2.0]]])
    ball = reference.matrices(enumerate_conjugacy_classes(reference.presentation, 5))
    worst = {}
    for name, m in (("ball", ball), ("random", random), ("near", near), ("axes", axes)):
        errors = _circle_errors(axis_thetas(m), m)
        assert np.all(errors <= 8.0 * EPS * _conditioning(m)), name
        worst[name] = errors.max()
    assert worst["ball"] < 2e-15
    assert {0.0, math.pi} <= set(axis_thetas(axes)[0].tolist())
    for m in (ball[:50], axes):
        for one, x, z in zip(m, *axis_thetas(m)):
            got = axis_thetas(one)
            assert all(type(t) is float for t in got) and got == (x, z)
    stacked = axis_thetas(random[:100].reshape(4, 25, 2, 2))
    assert all(np.array_equal(s.ravel(), t[:100]) for s, t in zip(stacked, axis_thetas(random)))


def test_axis_thetas_are_mobius_equivariant(reference):
    """axis_thetas(x w x^-1) = x . axis_thetas(w), on word ball 4 times the 8 letters.

    Each side carries the error of `test_axis_thetas_match_a_50_digit_eig_oracle`,
    8 eps times its `_conditioning`; the letter stretches the circle by up to |x|_2^2
    (21.3 for every letter), which multiplies the right side's, and its action rounds
    once more, by 4 eps.  The worst gap read 2.0e-14, at a stretched axis."""
    ball = enumerate_conjugacy_classes(reference.presentation, 4)
    m = reference.matrices(ball)
    base = np.stack(axis_thetas(m))  # (2, W)
    for x in [*range(1, 5), *range(-4, 0)]:
        mx = reference.matrix((x,))
        moved = reference.matrices([(x, *w.letters, -x) for w in ball])
        stretch = np.linalg.norm(mx, 2) ** 2
        want = np.stack([[theta_of_vector(mx @ boundary_vector(t)) for t in row]
                         for row in base])
        gap = np.abs(np.stack(axis_thetas(moved)) - want)
        gap = np.minimum(gap, 2 * math.pi - gap)
        bound = 8.0 * EPS * (_conditioning(moved) + stretch * _conditioning(m)) + 4.0 * EPS
        assert np.all(gap <= bound), x


@pytest.mark.parametrize("m", [
    [[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]],
    [[1.0, 1.0], [0.0, 1.0]],
    [[-1.0, 0.0], [2.0, -1.0]],
    np.eye(2),
], ids=["rotation", "parabolic", "negative-parabolic", "identity"])
def test_axis_thetas_refuse_a_matrix_that_is_not_hyperbolic(m):
    """|trace| <= 2 has no pair of fixed points: refused alone, and as one row of a stack."""
    for stack in (np.asarray(m), np.stack([np.diag([2.0, 0.5]), m])):
        with pytest.raises(NotLoxodromic, match="^reference image is not hyperbolic$"):
            axis_thetas(stack)


def test_circular_order_predicates():
    # (0.1, 1.0, 2.0) is counterclockwise and (0.1, 2.0, 1.0) is not
    assert 0.0 < circular_gap(0.1, 1.0) < circular_gap(0.1, 2.0)
    assert not circular_gap(0.1, 2.0) < circular_gap(0.1, 1.0)
    assert abs(circular_gap(6.0, 0.5) - (0.5 + 2 * math.pi - 6.0)) < 1e-12


def test_mobius_action_matches_matrix_action():
    """m moves the point s = -cot(theta/2) of theta to (a s + b) / (c s + d)."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        m = rng.standard_normal((2, 2))
        m /= math.sqrt(abs(np.linalg.det(m)))
        theta = rng.uniform(0, 2 * math.pi)
        moved = theta_of_vector(m @ boundary_vector(theta))
        s = -1.0 / math.tan(theta / 2.0)
        (a, b), (c, d) = m
        want = (a * s + b) / (c * s + d)
        assert abs(-1.0 / math.tan(moved / 2.0) - want) < 1e-9 * max(1.0, abs(want))


def test_fuchsian_genus2_is_a_representation(reference):
    rel = reference.matrix(reference.presentation.relator())
    assert np.linalg.norm(rel - np.eye(2)) < 1e-13
    # regular-octagon side pairing: all four generators share the trace
    # of the hyperbolic translation between opposite sides
    for m in reference.images.values():
        assert abs(abs(np.trace(m)) - (2.0 + math.sqrt(2.0))) < 1e-10
    reference.check_loxodromy(3)


# the images built by Cayley-conjugating the disk isometries through the octagon's
# vertices, to 17 digits
DISK_MODEL_IMAGES = {
    1: [[0.15333280715651013, -0.1533328071565104], [3.260880755216583, 3.2608807552165837]],
    2: [[3.9044750081221697, 1.7071067811865486], [-1.7071067811865488, -0.490261445749073]],
    3: [[3.260880755216582, -3.260880755216581], [0.1533328071565112, 0.15333280715650954]],
    4: [[-0.49026144574907304, 1.707106781186549], [-1.7071067811865486, 3.904475008122172]],
}


def test_fuchsian_genus2_glues_the_sides_of_the_regular_octagon(reference):
    """Each pairing maps its side's ends onto the paired side's, reversed, as a Mobius map.

    Vertex k of the octagon with vertex angle pi/4 sits at w_k = r e^{i(pi/8 + k pi/4)}
    in the disk, r = tanh(rho/2) with cosh rho = cot(pi/8)^2 (the right triangle
    centre, side midpoint, vertex), carried to the half plane by w -> i(1 + w)/(1 - w).
    """
    rho = math.acosh(1.0 / math.tan(math.pi / 8) ** 2)
    w = math.tanh(rho / 2) * np.exp(1j * (math.pi / 8 + np.arange(8) * math.pi / 4))
    v = 1j * (1 + w) / (1 - w)
    images = reference.images
    pairings = {0: images[2], 1: np.linalg.inv(images[1]), 4: images[4],
                5: np.linalg.inv(images[3])}
    for p, ((a, b), (c, d)) in pairings.items():
        for start, end in ((p + 2, p + 1), (p + 3, p)):
            z = v[start % 8]
            assert abs((a * z + b) / (c * z + d) - v[end]) < 1e-12
    for k, want in DISK_MODEL_IMAGES.items():
        assert np.max(np.abs(images[k] - want)) < 1e-14


def test_sym_matrix_on_diagonal_input():
    lam = 1.7
    d = sym_matrix(np.diag([lam, 1 / lam]), 4)
    want = np.diag([lam**3, lam, lam**-1, lam**-3])
    assert np.allclose(d, want, atol=1e-12)


def test_sym_matrix_is_a_homomorphism():
    rng = np.random.default_rng(1)
    def random_sl2():
        a = rng.standard_normal((2, 2))
        if np.linalg.det(a) < 0:
            a = a[:, ::-1].copy()
        return a / math.sqrt(np.linalg.det(a))

    for m in (3, 5):
        a = random_sl2()
        b = random_sl2()
        left = sym_matrix(a @ b, m)
        right = sym_matrix(a, m) @ sym_matrix(b, m)
        assert np.allclose(left, np.sign(np.trace(left @ right.T)) * right, atol=1e-9)


def _sym_matrix_by_convolution(a, m):
    """One symmetric power multiplied out with np.convolve and a scalar m-th root."""
    (aa, ab), (ac, ad) = a
    out = np.empty((m, m))
    for k in range(m):
        p = np.array([1.0])
        for factor in [[aa, ac]] * (m - 1 - k) + [[ab, ad]] * k:
            p = np.convolve(p, factor)
        out[:, k] = p
    return out / np.linalg.det(out) ** (1.0 / m)


@pytest.mark.parametrize("m", range(2, 8))
def test_sym_matrix_of_a_stack_equals_each_matrix_alone(m):
    """The stacked symmetric power is np.convolve's per matrix, bit for bit."""
    a = np.random.default_rng(m).standard_normal((200, 2, 2))
    a[np.linalg.det(a) < 0] *= np.array([[1.0, -1.0], [1.0, -1.0]])  # flip column 1
    a /= np.sqrt(np.linalg.det(a))[:, None, None]
    stack = sym_matrix(a.reshape(20, 10, 2, 2), m).reshape(200, m, m)
    for k in range(200):
        want = _sym_matrix_by_convolution(a[k], m).tobytes()
        assert stack[k].tobytes() == sym_matrix(a[k], m).tobytes() == want
    a[17] = 0.0
    with pytest.raises(ValueError, match="det"):
        sym_matrix(a, m)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_reps_refuse_non_finite_images(reference, bad):
    """NaN compares false, so the det and relator checks must fail it, not pass it."""
    rep3 = sym_power(reference, 3)
    with pytest.raises(ValueError, match="bulge must be finite"):
        bulge_deform(rep3, bad)
    images = dict(rep3.images)
    images[2] = images[2].copy()
    images[2][0, 1] = bad
    with pytest.raises(ValueError, match="generator 2 image is not finite"):
        SurfaceGroupRep(rep3.presentation, 3, images)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="det"):
        sym_matrix(np.full((2, 2), bad), 3)


def test_jordan_projection_of_symmetric_power(reference):
    rep3 = sym_power(reference, 3)
    for text in ("a1", "a1 b1", "a2 B1 a1"):
        w = reference.presentation.parse_word(text)
        t = sl2_length(reference.matrix(w))
        jd = jordan_projection(rep3.matrix(w), rep3.matrix(w.inverse()))
        assert np.allclose(jd, [t, 0.0, -t], atol=1e-9)
        assert abs(root_length(jd, 1, 3) - 2 * t) < 1e-9
        assert abs(root_length(jd, 1, 2) - t) < 1e-9


def test_jordan_projection_inverse_refinement_is_consistent(reference):
    rep3 = sym_power(reference, 3)
    w = reference.presentation.parse_word("a1 b1 a2")
    g = rep3.matrix(w)
    refined = jordan_projection(g, rep3.matrix(w.inverse()))
    plain = np.sort(np.log(np.abs(np.linalg.eigvals(g))))[::-1]
    assert np.allclose(plain - plain.mean(), refined, atol=1e-8)


def test_stacked_jordan_projection_equals_single_ones(reference):
    """The one-matrix float path gives the stack's bits, on criterion 1's ball and at n = 2, 4."""
    ball3 = enumerate_conjugacy_classes(reference.presentation, 3)
    ball5 = enumerate_conjugacy_classes(reference.presentation, 5)
    rep3 = sym_power(reference, 3)
    cases = [(rep3, ball5), (bulge_deform(rep3, 0.3), ball5), (bulge_deform(rep3, 0.7), ball5),
             (sym_power(reference, 2), ball3), (sym_power(reference, 4), ball3)]
    for rep, words in cases:
        inverses = [w.inverse() for w in words]
        stacked = jordan_projection(rep.matrices(words), rep.matrices(inverses))
        singles = [jordan_projection(rep.matrix(w), rep.matrix(v))
                   for w, v in zip(words, inverses)]
        assert all(type(x) is float for x in singles[0]) and len(singles[0]) == rep.n
        assert np.array_equal(stacked, np.array(singles).T)
        for root in ((i, k) for i in range(1, rep.n) for k in range(i + 1, rep.n + 1)):
            assert np.array_equal(root_length(stacked, *root),
                                  [root_length(jd, *root) for jd in singles])
        # short words are well conditioned, so g alone gives every entry
        plain = np.sort(np.log(np.abs(np.linalg.eigvals(rep.matrices(words[:5])))))[:, ::-1]
        assert np.allclose(stacked[:, :5].T, plain - plain.mean(axis=1, keepdims=True),
                           atol=1e-12)


def test_jordan_projection_guards():
    g = np.diag([math.exp(3.0), 1.0, math.exp(-3.0)])
    bad = np.diag([2.0, 1.0, 1.0])
    # the first failing matrix of a stack raises the error it raises alone
    with pytest.raises(ValueError) as alone:
        jordan_projection(bad, np.linalg.inv(bad))
    with pytest.raises(ValueError, match=r"^matrix determinant 2\.0 is not \+-1$") as stacked:
        jordan_projection(np.stack([g, bad, 3 * g]),
                          np.stack([np.linalg.inv(g), np.linalg.inv(bad), np.eye(3) / 2]))
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(IndexOrder):
        root_length((1.0, 0.0, -1.0), 2, 1)
    with pytest.raises(IndexOrder):
        root_length(np.zeros((3, 4)), 1, 4)


@pytest.mark.parametrize("g, g_inverse, error, message", [
    (np.diag([2.0, 1.0, 1.0]), np.diag([0.5, 1.0, 1.0]),
     ValueError, "matrix determinant 2.0 is not +-1"),
    # index 3 is read from the inverse, whose moduli here are all below 1
    (np.diag([math.exp(3.0), 1.0, math.exp(-3.0)]), np.eye(3) / 2,
     ValueError, "log-moduli must be sorted nonincreasing"),
    # fails both guards: the determinant is checked first
    (np.diag([2.0, 1.0, 1.0]), np.eye(3) / 4, ValueError, "matrix determinant 2.0 is not +-1"),
    (np.diag([2.0, 1.0, 0.5]) + np.diag([math.nan, 0.0], 1), np.eye(3),
     EigenFailure, "Array must not contain infs or NaNs"),
], ids=["det", "unsorted", "det-before-unsorted", "nan"])
def test_jordan_projection_guards_agree_on_both_shapes(g, g_inverse, error, message):
    """A matrix raises the same error alone and behind a good matrix in a stack."""
    good = np.diag([math.exp(3.0), 1.0, math.exp(-3.0)])
    with pytest.raises(error) as alone:
        jordan_projection(g, g_inverse)
    with pytest.raises(error) as stacked:
        jordan_projection(np.stack([good, g]), np.stack([np.linalg.inv(good), g_inverse]))
    assert type(alone.value) is type(stacked.value) is error
    assert str(alone.value) == str(stacked.value) == message


def _first_refusal_by_row(g, g_inverse):
    """The per-row guard: the error of the first matrix that `jordan_projection` refuses
    alone, or None."""
    for one, inverse in zip(g, g_inverse):
        try:
            jordan_projection(one, inverse)
        except ValueError as exc:
            return exc
    return None


def test_stacked_guard_equals_the_per_row_loop():
    """Rows whose determinant drifts just inside and just outside the bound at spans
    0 to 45 (the cap at 40 and at 0.5 included), unsorted rows, and rows failing both,
    in 200 random stacks: the stack raises the first refused row's error, or none."""
    rows = []
    for span in (0.0, 5.0, 12.0, 20.0, 30.0, 38.0, 45.0):
        bound = max(1e-9, min(1e3 * np.finfo(float).eps * math.exp(min(span, 40.0)), 0.5))
        for factor in (-1.5, -0.5, 0.5, 0.9, 1.1, 2.0):
            g = np.diag([math.exp(span / 2) * (1.0 + factor * bound), 1.0, math.exp(-span / 2)])
            rows.append((g, np.linalg.inv(g)))
    good = np.diag([math.exp(3.0), 1.0, math.exp(-3.0)])
    rows += [(good, np.eye(3) / 2), (np.diag([2.0, 1.0, 1.0]), np.eye(3) / 4)]
    rng = np.random.default_rng(4)
    refusals = set()
    for _ in range(200):
        pick = rng.choice(len(rows), rng.integers(1, 12), replace=False)
        g, g_inverse = (np.array([rows[k][i] for k in pick]) for i in (0, 1))
        want = _first_refusal_by_row(g, g_inverse)
        if want is None:
            singles = [jordan_projection(*row) for row in zip(g, g_inverse)]
            assert np.array_equal(jordan_projection(g, g_inverse), np.array(singles).T)
            continue
        with pytest.raises(ValueError) as got:
            jordan_projection(g, g_inverse)
        assert str(got.value) == str(want)
        refusals.add(str(want).split()[0])
    assert refusals == {"matrix", "log-moduli"}


def test_jordan_projection_refuses_other_shapes():
    eye = np.eye(3)
    for g in (np.zeros((2, 2, 3, 3)), np.zeros(3), np.zeros((3, 4)), np.zeros((2, 3, 4))):
        with pytest.raises(ValueError, match="^g must be one"):
            jordan_projection(g, g)
    for g, g_inverse in ((eye, eye[None]), (np.stack([eye, eye]), eye),
                         (np.stack([eye, eye]), np.stack([eye] * 3))):
        with pytest.raises(ValueError, match="^g_inverse has shape"):
            jordan_projection(g, g_inverse)


def test_loxodromic_eigensystem_sorting_and_rejection():
    vals, vecs = loxodromic_eigensystem(np.diag([3.0, 1.0, 1 / 3.0]))
    assert list(np.abs(vals)) == sorted(np.abs(vals), reverse=True)
    assert np.allclose(np.abs(vecs), np.eye(3), atol=1e-12)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(NotLoxodromic):
        loxodromic_eigensystem(rot)


def test_stacked_word_products_equal_matrix(reference):
    """`matrices` multiplies in the order of `matrix`, so the images agree bit for bit."""
    ball = enumerate_conjugacy_classes(reference.presentation, 4)
    words = ball + [w.inverse() for w in ball] + [GroupWord(()), GroupWord((3,))]
    for rep in (reference, sym_power(reference, 3), bulge_deform(sym_power(reference, 3), 0.7)):
        stacked = rep.matrices(words)
        assert stacked.shape == (len(words), rep.n, rep.n)
        for w, m in zip(words, stacked):
            assert np.array_equal(m, rep.matrix(w))
    # a one-letter image is a copy, never the stored generator image
    rep3 = sym_power(reference, 3)
    rep3.matrix([1])[0, 0] = 99.0
    assert rep3.matrix([1])[0, 0] != 99.0


def test_stacked_eigensystems_equal_single_ones(reference):
    rep3 = bulge_deform(sym_power(reference, 3), 0.3)
    ball = enumerate_conjugacy_classes(reference.presentation, 3)
    mats = rep3.matrices(ball)
    vals, vecs = loxodromic_eigensystem(mats)
    for k, m in enumerate(mats):
        v, e = loxodromic_eigensystem(m)
        assert np.array_equal(v, vals[k]) and np.array_equal(e, vecs[k])
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotLoxodromic) as alone:
        loxodromic_eigensystem(rot)
    with pytest.raises(NotLoxodromic) as stacked:
        loxodromic_eigensystem(np.stack([mats[0], mats[1], rot, np.diag([2.0, 2.0 - 2e-7, 0.25])]))
    assert str(stacked.value) == str(alone.value)


def _failing_on(word_rows: dict, calls: list):
    """A run over word rows that raises, for the first check that fails, the error of the
    check: `word_rows` maps each error type to the rows it fails, in the order checked."""
    def run(rows):
        calls.append(rows)
        for error, failing in word_rows.items():
            hit = [k for k in failing if rows.start <= k < rows.stop]
            if hit:
                raise error(f"check fails at row {hit[0]}")
        return rows
    return run


def test_first_failing_word_names_the_first_word_that_fails_either_check(reference):
    """Two checks fail on different words: the first failing word is named, in either
    order of the checks, and its error keeps its type and its own message."""
    pres = reference.presentation
    words = enumerate_conjugacy_classes(pres, 2)
    for first, later in ((NotLoxodromic, ValueError), (ValueError, NotLoxodromic)):
        for checks in ({first: [5, 20], later: [11]}, {later: [11], first: [5, 20]}):
            with pytest.raises(first) as info:
                first_failing_word(pres, words, _failing_on(checks, []))
            assert type(info.value) is first
            assert str(info.value) == f"word {pres.format_word(words[5])}: check fails at row 5"


def test_first_failing_word_halves_the_rows(reference):
    """Every failing row is found in at most 2 ceil(log2 W) + 1 runs, the first over all
    rows and the last over the named word alone."""
    pres = reference.presentation
    words = enumerate_conjugacy_classes(pres, 2)
    bound = 2 * math.ceil(math.log2(len(words))) + 1
    for k in range(len(words)):
        calls = []
        with pytest.raises(NotLoxodromic, match=f"^word {pres.format_word(words[k])}: "):
            first_failing_word(pres, words, _failing_on({NotLoxodromic: [k]}, calls))
        assert calls[0] == slice(0, len(words)) and calls[-1] == slice(k, k + 1)
        assert len(calls) <= bound


def test_first_failing_word_leaves_other_errors_unnamed(reference):
    """A run that fails as a whole but on no single word raises its own error unnamed; an
    empty word list runs once, and its result or error is the run's own."""
    pres = reference.presentation
    words = enumerate_conjugacy_classes(pres, 2)
    calls = []

    def fails_whole(size):
        def run(rows):
            calls.append(rows)
            if rows.stop - rows.start == size:
                raise ValueError("whole run")
        return run

    for ws in (words, []):
        calls.clear()
        with pytest.raises(ValueError, match="^whole run$"):
            first_failing_word(pres, ws, fails_whole(len(ws)))
        assert calls[0] == slice(0, len(ws)) and len(calls) == (3 if ws else 1)
    calls.clear()
    assert first_failing_word(pres, [], _failing_on({}, calls)) == slice(0, 0)
    assert calls == [slice(0, 0)]


def test_fixed_flags_are_invariant(reference):
    """The eigenflags of a word, framed as sample_boundary stores them, are fixed by it."""
    rep3 = sym_power(reference, 3)
    g = rep3.matrix(reference.presentation.parse_word("a1 b2"))
    _, vecs = loxodromic_eigensystem(g)
    attract = Flag.from_basis_columns(vecs[:, :2])
    repel = Flag.from_basis_columns(vecs[:, :0:-1])
    for flag in (attract, repel):
        moved = Flag.from_basis_columns(g @ flag.frame)
        for k in (1, 2):
            assert flag[k].principal_angle(moved[k]) < 1e-8
    assert attract[1].principal_angle(repel[1]) > 0.01


def test_bulge_deform_keeps_the_relator(reference):
    rep3 = sym_power(reference, 3)
    for s in (0.3, 0.7):
        bulged = bulge_deform(rep3, s)
        rel = bulged.matrix(bulged.presentation.relator())
        assert min(np.linalg.norm(rel - np.eye(3)),
                   np.linalg.norm(rel + np.eye(3))) < 1e-7
        # the separating element keeps its eigenvalues
        c_word = [1, 2, -1, -2]
        assert np.allclose(
            np.sort(np.abs(np.linalg.eigvals(bulged.matrix(c_word)))),
            np.sort(np.abs(np.linalg.eigvals(rep3.matrix(c_word)))),
            rtol=1e-9,
        )
    assert bulge_deform(rep3, 0.0) is rep3


def _dual_pair(reference, s):
    """The word ball 4, its inverses, and the bulged reps at +s and -s."""
    ball = enumerate_conjugacy_classes(reference.presentation, 4)
    rep3 = sym_power(reference, 3)
    return ball, [w.inverse() for w in ball], bulge_deform(rep3, s), bulge_deform(rep3, -s)


@pytest.mark.parametrize("s, bound", [(0.3, 1e-12), (0.7, 1e-11), (1.0, 1e-10)])
def test_bulge_duality_takes_traces_to_inverse_traces(reference, s, bound):
    """rho_{-s} is conjugate to the contragredient of rho_s (Goldman's bulge changes sign
    under duality), so tr rho_{-s}(w) = tr rho_s(w^-1), relative to the trace.  Both sides
    are float word products, whose roundoff grows with the letters' norms, which the
    bulge inflates (up to 33, 90 and 214 at s = 0.3, 0.7, 1.0): each bound is ten times
    or more the worst gap read, 8.1e-14, 5.1e-13 and 3.3e-12."""
    ball, inverses, plus, minus = _dual_pair(reference, s)
    want = np.trace(plus.matrices(inverses), axis1=1, axis2=2)
    got = np.trace(minus.matrices(ball), axis1=1, axis2=2)
    assert np.max(np.abs(got - want) / np.abs(want)) < bound


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_bulge_duality_swaps_the_simple_root_lengths(reference, s):
    """Duality reverses and negates the Jordan projection, so l_12 at +s is l_23 at -s,
    both from the stacked `jordan_projection`.  A product's middle eigenvalue is read to
    about eps times its condition e^(l_1 - l_3): the bound is 16 eps e^(l_1 - l_3), and
    the worst gap read 1.2 and 5.6 times that (2.1e-10 and 4.6e-10).  At s = 1.0 the
    determinant guard refuses `A2 b2 b2` first (ROADMAP item 5)."""
    ball, inverses, plus, minus = _dual_pair(reference, s)
    at_plus = jordan_projection(plus.matrices(ball), plus.matrices(inverses))
    at_minus = jordan_projection(minus.matrices(ball), minus.matrices(inverses))
    gap = np.abs(root_length(at_plus, 1, 2) - root_length(at_minus, 2, 3))
    assert np.all(gap <= 16.0 * EPS * np.exp(root_length(at_plus, 1, 3)))


def test_rep_rejects_non_unimodular_images(reference):
    images = {k: 2.0 * v for k, v in reference.images.items()}
    with pytest.raises(ValueError):
        SurfaceGroupRep(reference.presentation, 2, images)


@pytest.mark.parametrize("word, letter", [
    ([-5], -5), ([5], 5), ([1, -6, 2], -6), ([1, 0, 2], 0), ([0], 0),
], ids=["-5", "5", "-6-inside", "0-inside", "0"])
def test_word_images_refuse_letters_outside_the_generators(reference, word, letter):
    """On genus 2 the letters are +-1..+-4; others would index a wrong row of the table."""
    rep3 = sym_power(reference, 3)
    message = f"^letter {letter} is not one of \\+-1\\.\\.\\+-4$"
    with pytest.raises(ValueError, match=message):
        rep3.matrix(word)
    with pytest.raises(ValueError, match=message):
        rep3.matrices([[1, 2], word, [3]])
