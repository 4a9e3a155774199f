"""Surface-group presentations and free-word combinatorics.

Words are tuples of signed generator indices: +k is the k-th generator,
-k its inverse (1-based).  For genus g the generators are
a1, b1, ..., ag, bg with indices 1..2g; the relator is the product of
commutators [a1,b1]...[ag,bg].

Words are reduced in the free group only: the relator is never applied,
so conjugacy classes are those of the free group, that is cyclic words
in which no letter is followed by its inverse, including across the
wrap-around from the last letter to the first.  Word balls list one
least rotation (necklace) per class, generated directly by the
Fredricksen-Kessler-Maiorana pre-necklace recursion (Ruskey, Savage and
Wang, J. Algorithms 13, 1992; Cattell, Ruskey, Sawada, Serra and Miers,
J. Algorithms 37, 2000) with the inverse-adjacency rule as a
restriction.  Sampled words are short and their matrix images are
compared numerically downstream.

A `GroupWord` checks its letters when it is constructed, so every word
from outside this module (`reduce_word`, `parse_word`, a direct
`GroupWord(...)`) is validated once at its entry point.  Two
constructions skip the check through `_reduced`, because they cannot
make an invalid word: the necklaces of `enumerate_conjugacy_classes`
(nonzero letters, a letter never followed by its inverse) and
`GroupWord.inverse` (the inverse of a reduced word is reduced).
"""

import re
from dataclasses import dataclass

from .config import ResourceLimit

MAX_WORDS = 2_000_000  # reduced words in the largest ball an enumeration accepts
_GENERATOR = re.compile(r"([abAB])([0-9]+)")  # a generator token of parse_word: letter, pair


@dataclass(frozen=True)
class GroupWord:
    """A freely reduced word in the surface-group generators.

    Construction converts the letters to ints and refuses a zero letter
    or a cancelling pair.  `enumerate_conjugacy_classes` and `inverse`
    build their words with `_reduced`, which skips this check.
    """

    letters: tuple

    def __post_init__(self):
        letters = tuple(int(x) for x in self.letters)
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError("word is not freely reduced")
        if any(x == 0 for x in letters):
            raise ValueError("letter indices are nonzero signed integers")
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return reduce_word(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return _reduced(tuple(-x for x in reversed(self.letters)))


def _reduced(letters: tuple) -> GroupWord:
    """A GroupWord of `letters` without `GroupWord.__post_init__`'s check.

    `letters` must already be a tuple of nonzero ints with no letter
    followed by its inverse.
    """
    word = object.__new__(GroupWord)
    object.__setattr__(word, "letters", letters)
    return word


@dataclass(frozen=True)
class SurfaceGroupPresentation:
    """Presentation of the genus-g surface group (g >= 2)."""

    genus: int

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus must be at least 2")

    @property
    def num_generators(self) -> int:
        return 2 * self.genus

    def generator_name(self, index: int) -> str:
        """Names a1, b1, a2, b2, ...; capitalized for inverses."""
        base = ("a", "b")[(abs(index) - 1) % 2]
        pair = (abs(index) - 1) // 2 + 1
        name = f"{base}{pair}"
        return name.upper() if index < 0 else name

    def relator(self) -> GroupWord:
        letters = []
        for i in range(self.genus):
            a, b = 2 * i + 1, 2 * i + 2
            letters += [a, b, -a, -b]
        return GroupWord(tuple(letters))

    def parse_word(self, text: str) -> GroupWord:
        """Parse words like "a1 B1 a2" (capital letter = inverse); "e" is the identity."""
        letters = []
        for token in text.split():
            if token == "e":
                continue
            match = _GENERATOR.fullmatch(token)
            if not match or not 1 <= int(match[2]) <= self.genus:
                raise ValueError(f"unknown generator {token!r}")
            base, pair = match[1], int(match[2])
            idx = 2 * (pair - 1) + (1 if base.lower() == "a" else 2)
            letters.append(-idx if base.isupper() else idx)
        return reduce_word(letters)

    def format_word(self, word: GroupWord) -> str:
        return " ".join(self.generator_name(x) for x in word.letters) or "e"


def reduce_word(letters) -> GroupWord:
    """Freely reduce a letter sequence; idempotent."""
    if isinstance(letters, GroupWord):
        letters = letters.letters
    stack = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(int(x))
    return GroupWord(tuple(stack))


def cyclic_reduce(word: GroupWord) -> GroupWord:
    """Cyclically reduced, lexicographically least conjugacy representative.

    The tie-break among cyclic rotations uses the letter order
    a1 < a1^-1 < b1 < b1^-1 < a2 < ... (see `_letter_key`).
    """
    letters = list(reduce_word(word).letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    if not letters:
        return GroupWord(())
    rotations = [tuple(letters[i:] + letters[:i]) for i in range(len(letters))]
    best = min(rotations, key=lambda rot: tuple(_letter_key(x) for x in rot))
    return GroupWord(best)


def _letter_key(x: int) -> int:
    return 2 * (abs(x) - 1) + (1 if x < 0 else 0)


def enumerate_conjugacy_classes(presentation: SurfaceGroupPresentation, max_len: int) -> list:
    """One canonical representative per cyclic-conjugacy class of reduced words.

    The representative is the least rotation in the `_letter_key` order,
    as `cyclic_reduce` picks it.  Least rotations are generated directly
    as necklaces by the FKM pre-necklace recursion over the letters in
    that order: a letter equal to the inverse of the one before it is
    skipped, and a prefix of length t whose longest Lyndon prefix has
    length p is a word of the ball when p divides t and its first letter
    is not the inverse of its last (the wrap-around).  Powers such as
    a1 a1 are classes of their own; gamma and gamma^-1 are kept as
    separate classes.  Deterministic order: by length, then lexicographic
    on the representative, with no sort (the recursion visits prefixes
    in lexicographic order and each length has its own bucket).

    A ball holding more than MAX_WORDS reduced words, counted in closed
    form before any is built, raises ResourceLimit.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    m = 2 * presentation.num_generators  # letters; letter key k has inverse k ^ 1
    total = 0
    for t in range(1, max_len + 1):  # stops at the first length over the limit
        total += m * (m - 1) ** (t - 1)
        if total > MAX_WORDS:
            raise ResourceLimit(f"word ball exceeds {MAX_WORDS} words")
    signed = [-(k // 2 + 1) if k % 2 else k // 2 + 1 for k in range(m)]
    keys = [0] * (max_len + 1)  # keys[1..t] is the current prefix; keys[0] is FKM's sentinel
    prefix = [0] * (max_len + 1)  # prefix[j] = signed[keys[j]]
    buckets = [[] for _ in range(max_len + 1)]

    def extend(t, p):
        forbidden = keys[t - 1] ^ 1 if t > 1 else None
        for k in range(keys[t - p], m):
            if k == forbidden:
                continue
            keys[t] = k
            prefix[t] = signed[k]
            q = p if k == keys[t - p] else t
            if t % q == 0 and keys[1] != k ^ 1:
                buckets[t].append(_reduced(tuple(prefix[1:t + 1])))
            if t < max_len:
                extend(t + 1, q)

    extend(1, 1)
    return [w for bucket in buckets for w in bucket]
