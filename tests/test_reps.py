import math

import numpy as np
import pytest

from flagflows.config import EigenFailure, IndexOrder, NotLoxodromic
from flagflows.projective import Flag
from flagflows.reps import (
    SurfaceGroupRep,
    boundary_vector,
    bulge_deform,
    circular_gap,
    fuchsian_genus2,
    jordan_projection,
    loxodromic_eigensystem,
    root_length,
    sym_matrix,
    sym_power,
    theta_of_vector,
)
from flagflows.words import GroupWord, enumerate_conjugacy_classes


def sl2_length(m):
    return 2.0 * math.acosh(abs(np.trace(m)) / 2.0)


def test_boundary_vector_roundtrip():
    for theta in np.linspace(0.01, 2 * math.pi - 0.01, 17):
        assert abs(theta_of_vector(boundary_vector(theta)) - theta) < 1e-12


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
    assert min(np.linalg.norm(rel - np.eye(2)), np.linalg.norm(rel + np.eye(2))) < 1e-8
    # regular-octagon side pairing: all four generators share the trace
    # of the hyperbolic translation between opposite sides
    for m in reference.images.values():
        assert abs(abs(np.trace(m)) - (2.0 + math.sqrt(2.0))) < 1e-10
    reference.check_loxodromy(3)


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
    # the first failing matrix of a stack names its own determinant
    with pytest.raises(ValueError, match=r"^matrix determinant 2\.0 is not \+-1$"):
        jordan_projection(np.stack([g, bad, 3 * g]),
                          np.stack([np.linalg.inv(g), np.linalg.inv(bad), np.eye(3) / 2]))
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
    with pytest.raises(NotLoxodromic) as info:
        loxodromic_eigensystem(np.stack([mats[0], mats[1], rot, rot]))
    assert info.value.index == (2,)


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
