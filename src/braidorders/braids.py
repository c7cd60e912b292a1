"""Braid words in the Artin generators and exact combinatorics on them.

A braid on ``n`` strands is a word in the generators sigma_1 .. sigma_{n-1},
stored as a tuple of nonzero integers: the letter ``k`` with ``1 <= |k| <= n-1``
means ``sigma_{|k|}`` raised to ``sign(k)``.  Products read left to right, so
``a * b`` means "do ``a`` first"; the permutation of a word is composed in the
same direction.

Everything here is exact and immutable.  Words are kept freely reduced (no
adjacent ``k, -k`` pair); no braid-relation rewriting happens in this module.
The public constructor checks every letter and reduces; ball enumeration and
the products here reduce at most once and skip the check (``_trusted_word``).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import MalformedInputError, Value, check_integer
from .freewords import is_letter, parse_letters, reduce_free

Letters = tuple[int, ...]


class BraidWord(Value):
    """A freely reduced word in the Artin generators of B_n."""

    n: int
    letters: Letters

    def __init__(self, n, letters=()):
        check_integer(n, "strand count", 2)
        try:
            for k in letters:
                if not is_letter(k, n - 1):
                    raise MalformedInputError(f"letter {k!r} out of range for B_{n} (need 1 <= |k| <= {n - 1})")
        except TypeError:
            raise MalformedInputError(f"braid letters must be iterable, got {letters!r}") from None
        self.__dict__.update(n=n, letters=reduce_free(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(str(k) for k in self.letters)


def _trusted_word(n: int, letters: Letters) -> BraidWord:
    """A word from letters known to be in range and freely reduced: no check."""
    word = object.__new__(BraidWord)
    word.__dict__.update(n=n, letters=letters)
    return word


def sigma(n: int, i: int, power: int) -> BraidWord:
    """The generator sigma_i of B_n raised to an integer power."""
    check_integer(i, "generator index")
    check_integer(power, "generator power")
    if not 1 <= i <= n - 1:
        raise MalformedInputError(f"generator index {i} out of range for B_{n}")
    k = i if power >= 0 else -i
    return BraidWord(n, (k,) * abs(power))


def multiply(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.n != b.n:
        raise MalformedInputError(f"strand counts differ: {a.n} vs {b.n}")
    return _trusted_word(a.n, reduce_free(a.letters + b.letters))


def inverse_letters(letters: Sequence[int]) -> Letters:
    """The letters of the inverse word: reversed, each one inverted."""
    return tuple(-k for k in reversed(letters))


def invert(a: BraidWord) -> BraidWord:
    return _trusted_word(a.n, inverse_letters(a.letters))


def conjugate(b: BraidWord, h: BraidWord) -> BraidWord:
    """h^-1 * b * h, freely reduced once."""
    if h.n != b.n:
        raise MalformedInputError(f"strand counts differ: {h.n} vs {b.n}")
    return _trusted_word(b.n, reduce_free(inverse_letters(h.letters) + b.letters + h.letters))


def permutation_of(w: BraidWord) -> tuple[int, ...]:
    """Image of the word in the symmetric group, sigma_i -> (i, i+1),
    composed left to right along the word: the final positions of the strands
    labelled 1..n, so strand p ends at permutation_of(w)[p - 1]."""
    at = list(range(1, w.n + 1))  # at[p] = label currently in position p+1
    for k in w.letters:
        i = abs(k)
        # positions i, i+1 swap regardless of the crossing sign
        at[i - 1], at[i] = at[i], at[i - 1]
    images = [0] * w.n
    for p, label in enumerate(at):
        images[label - 1] = p + 1
    return tuple(images)


def linking_number(w: BraidWord, i: int, j: int) -> int:
    """Signed count of crossings between the strands starting at positions i < j.

    Invariant under free reduction and braid-relation rewriting, which makes it
    the exponent reader inside abelian blocks of the form <sigma_i : i in S>.
    """
    if not (1 <= i < j <= w.n):
        raise MalformedInputError(f"strand pair ({i}, {j}) out of range for B_{w.n}")
    # at[p] = label of the strand currently in position p+1
    at = list(range(1, w.n + 1))
    total = 0
    pair = {i, j}
    for k in w.letters:
        p = abs(k)
        a, b = at[p - 1], at[p]
        if {a, b} == pair:
            total += 1 if k > 0 else -1
        at[p - 1], at[p] = b, a
    return total


class BallSpec(Value):
    """All freely reduced words of length <= max_length in B_n.

    Words, not group elements: no deduplication by braid equality is done.
    """

    n: int
    max_length: int

    def __init__(self, n, max_length):
        check_integer(n, "strand count", 2)
        check_integer(max_length, "max_length", 0)
        self.__dict__.update(n=n, max_length=max_length)

    def words(self) -> Iterator[BraidWord]:
        """A fresh cursor yielding every freely reduced word of length <=
        max_length exactly once, in length-then-lexicographic order (letters
        ranked 1 < -1 < 2 < -2 < ...)."""
        yield _trusted_word(self.n, ())
        alphabet = [k for i in range(1, self.n) for k in (i, -i)]
        frontier: list[Letters] = [()]
        for _ in range(self.max_length):
            new_frontier: list[Letters] = []
            for prefix in frontier:
                last = prefix[-1] if prefix else 0
                for k in alphabet:
                    if k == -last:
                        continue
                    new_frontier.append(prefix + (k,))
            for letters in new_frontier:
                yield _trusted_word(self.n, letters)
            frontier = new_frontier


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse the whitespace-separated integer syntax, e.g. "1 -2 1"."""
    return BraidWord(n, parse_letters(text, "braid word"))
