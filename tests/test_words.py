import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagflows.config import ResourceLimit
from flagflows.words import (
    MAX_WORDS,
    GroupWord,
    SurfaceGroupPresentation,
    _letter_key,
    cyclic_reduce,
    enumerate_conjugacy_classes,
    reduce_word,
)

PRES = SurfaceGroupPresentation(genus=2)

letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
letter_lists = st.lists(letters, max_size=10)


@given(letter_lists)
def test_reduce_is_idempotent(seq):
    once = reduce_word(seq)
    assert reduce_word(once.letters) == once


@given(letter_lists)
def test_reduce_leaves_no_cancelling_pair(seq):
    w = reduce_word(seq)
    assert all(a != -b for a, b in zip(w.letters, w.letters[1:]))


@given(letter_lists)
def test_word_times_inverse_is_identity(seq):
    w = reduce_word(seq)
    assert len(w * w.inverse()) == 0


@given(letter_lists)
def test_cyclic_reduce_never_grows(seq):
    w = reduce_word(seq)
    assert len(cyclic_reduce(w)) <= len(w)


@given(letter_lists, letter_lists)
@settings(max_examples=60)
def test_cyclic_reduce_is_a_conjugacy_invariant(seq, conj):
    w = reduce_word(seq)
    u = reduce_word(conj)
    conjugated = u * w * u.inverse()
    assert cyclic_reduce(conjugated) == cyclic_reduce(w)


def test_parse_and_format_roundtrip():
    for text in ("a1 b1", "a1 B1 a2", "A2 b2 B2"):
        w = PRES.parse_word(text)
        assert PRES.parse_word(PRES.format_word(w)) == w
    assert PRES.format_word(GroupWord(())) == "e"
    for w in [GroupWord(())] + enumerate_conjugacy_classes(PRES, 3):
        assert PRES.parse_word(PRES.format_word(w)) == w
    assert PRES.parse_word("a1 e A1 e") == GroupWord(())


def test_parse_rejects_unknown_generators():
    """Every malformed token is named in the error, not only a bad letter or pair."""
    for token in ("c1", "a3", "a", "ax", "A0", "E", "a1x"):
        with pytest.raises(ValueError, match=f"^unknown generator '{token}'$"):
            PRES.parse_word(f"a1 {token} b2")


def test_words_built_without_validation_equal_validated_ones():
    """Enumerated words and their inverses skip `GroupWord`'s check; they must not differ."""
    balls = [enumerate_conjugacy_classes(PRES, 5),
             enumerate_conjugacy_classes(SurfaceGroupPresentation(genus=3), 3)]
    for w in (w for ball in balls for v in ball for w in (v, v.inverse())):
        checked = GroupWord(w.letters)
        assert w == checked and hash(w) == hash(checked)
        assert all(type(x) is int for x in w.letters)


def test_words_from_outside_are_still_validated():
    with pytest.raises(ValueError, match="not freely reduced"):
        GroupWord((1, -1))
    for build in (lambda: GroupWord((0,)), lambda: reduce_word([0])):
        with pytest.raises(ValueError, match="nonzero"):
            build()


def test_relator_is_product_of_commutators():
    rel = PRES.relator()
    assert rel.letters == (1, 2, -1, -2, 3, 4, -3, -4)
    assert len(cyclic_reduce(rel)) == 8


def test_enumeration_includes_each_class_once():
    classes = enumerate_conjugacy_classes(PRES, 2)
    keys = [cyclic_reduce(w).letters for w in classes]
    assert len(keys) == len(set(keys))
    assert cyclic_reduce(PRES.parse_word("a1 b1")).letters in keys
    # b1 a1 is the same class; its canonical form must be the a1 b1 one
    assert cyclic_reduce(PRES.parse_word("b1 a1")) == \
        cyclic_reduce(PRES.parse_word("a1 b1"))


def test_enumeration_matches_brute_force_at_small_depth():
    """Naive enumeration of all words, grouped by conjugacy."""
    max_len = 3
    alphabet = [x for i in range(1, 5) for x in (i, -i)]
    canonical = set()
    for length in range(1, max_len + 1):
        for seq in itertools.product(alphabet, repeat=length):
            w = reduce_word(seq)
            if 1 <= len(w) <= max_len:
                canonical.add(cyclic_reduce(w).letters)
    classes = enumerate_conjugacy_classes(PRES, max_len)
    assert {cyclic_reduce(w).letters for w in classes} == canonical


def test_enumeration_is_deterministic_and_sorted_by_length():
    a = enumerate_conjugacy_classes(PRES, 3)
    b = enumerate_conjugacy_classes(PRES, 3)
    assert a == b
    lengths = [len(w) for w in a]
    assert lengths == sorted(lengths)


def rotate_and_dedupe(presentation, max_len):
    """Oracle: walk every reduced word, keep each least rotation once, then sort.

    Cyclically reduced words only; the least rotation comes from
    `cyclic_reduce`, duplicates are dropped through a set, and the result
    is sorted by length, then lexicographically in the `_letter_key` order.
    """
    alphabet = sorted([x for i in range(1, presentation.num_generators + 1) for x in (i, -i)],
                      key=_letter_key)
    out = []
    seen = set()

    def extend(prefix):
        if prefix and prefix[0] != -prefix[-1]:
            canon = cyclic_reduce(GroupWord(tuple(prefix))).letters
            if len(canon) == len(prefix) and canon not in seen:
                seen.add(canon)
                out.append(GroupWord(canon))
        if len(prefix) < max_len:
            for x in alphabet:
                if not prefix or x != -prefix[-1]:
                    extend(prefix + [x])

    extend([])
    return sorted(out, key=lambda w: (len(w), [_letter_key(x) for x in w.letters]))


@pytest.mark.parametrize("genus, max_len", [(2, n) for n in range(1, 6)] +
                         [(3, n) for n in range(1, 4)])
def test_enumeration_equals_the_rotate_and_dedupe_oracle_in_order(genus, max_len):
    pres = SurfaceGroupPresentation(genus=genus)
    assert enumerate_conjugacy_classes(pres, max_len) == rotate_and_dedupe(pres, max_len)


def test_genus_two_class_counts_are_pinned():
    counts = [len(enumerate_conjugacy_classes(PRES, n)) for n in range(1, 7)]
    assert counts == [8, 40, 160, 780, 4148, 23836]


def test_a_ball_over_max_words_is_refused_before_enumerating():
    """Genus 2 holds 1,098,056 reduced words of length <= 7 and 7,686,400 of length <= 8."""
    with pytest.raises(ResourceLimit, match=f"word ball exceeds {MAX_WORDS} words"):
        enumerate_conjugacy_classes(PRES, 8)
    with pytest.raises(ResourceLimit):
        enumerate_conjugacy_classes(PRES, 10**9)
    with pytest.raises(ResourceLimit):
        enumerate_conjugacy_classes(SurfaceGroupPresentation(genus=3), 6)
