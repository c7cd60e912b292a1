"""Reduced words in the free group on puncture loops, finite and infinite.

F_n is generated by the loops x_1 .. x_n; a letter ``k`` with ``1 <= |k| <= n``
means ``x_{|k|}`` raised to ``sign(k)``.  Finite words are always freely
reduced.  Infinite words come in three flavours:

* eventually periodic:  head . period . period . ...
* Sturmian over two positive letters, cut by an exact quadratic irrational
  slope (all arithmetic in integers, no floats anywhere);
* custom: a function that returns a fresh iterator over the letters.

Every word is iterable over its letters, and that iteration is the one way a
ray is read.  Infinite words over positive letters are reduced for free.  A
custom word is checked as it is read: a letter outside F_n (a bool
included), a letter that is the inverse of the letter before it, or letters
that run out, raise MalformedInputError.  A Sturmian or custom word computes
each letter once: its readers share one growing prefix (_Prefix), kept on
the word object.  Braids act on these words in nt.py, which moves a ray
letter by letter.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, count, cycle
from math import isqrt
from typing import Callable, Iterable, Iterator, Union

from .errors import MalformedInputError, Value, check_integer, check_non_square

FreeLetters = tuple[int, ...]


def reduce_free(letters: Iterable[int]) -> FreeLetters:
    """Freely reduce a letter sequence by cancelling adjacent inverse pairs."""
    out: list[int] = []
    for k in letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return tuple(out)


def is_letter(k, bound: int) -> bool:
    """Whether k is a letter of rank bound: an int, not a bool, 1 <= |k| <= bound."""
    return isinstance(k, int) and not isinstance(k, bool) and 1 <= abs(k) <= bound


class FreeWord(Value):
    """A freely reduced word in F_n."""

    n: int
    letters: FreeLetters

    def __init__(self, n, letters):
        check_integer(n, "rank", 1)
        try:
            for k in letters:
                if not is_letter(k, n):
                    raise MalformedInputError(f"letter {k!r} out of range for F_{n}")
        except TypeError:
            raise MalformedInputError(f"free letters must be iterable, got {letters!r}") from None
        self.__dict__.update(n=n, letters=reduce_free(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __str__(self) -> str:
        return " ".join(str(k) for k in self.letters)


def parse_letters(text: str, what: str) -> tuple[int, ...]:
    """The whitespace-separated integer letters of text, e.g. "1 -2 1";
    what names the word in the error message."""
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise MalformedInputError(f"cannot parse {what} {text.strip()!r}: {exc}") from None


def parse_free_word(text: str, n: int) -> FreeWord:
    return FreeWord(n, parse_letters(text, "free word"))


class QuadraticIrrational(Value):
    """The number (p + sqrt(d)) / q with integer p, q > 0 and non-square d > 0."""

    d: int
    p: int
    q: int

    def __init__(self, d, p, q):
        for value, name in ((d, "d"), (p, "p"), (q, "q")):
            check_integer(value, name)
        check_non_square(d)
        if q <= 0:
            raise MalformedInputError("q must be positive")
        self.__dict__.update(d=d, p=p, q=q)

    def floor_times(self, k: int) -> int:
        """floor(k * (p + sqrt(d)) / q), exactly, for integer k >= 0.

        X = k p + isqrt(k^2 d) is an integer with X <= k p + sqrt(k^2 d) < X + 1,
        so no multiple of q lies strictly between them: both floor to X // q.
        """
        check_integer(k, "k", 0)
        return (k * self.p + isqrt(k * k * self.d)) // self.q


class EventuallyPeriodic(Value):
    """head . period^omega; concatenations must stay reduced."""

    head: FreeWord
    period: FreeWord

    def __init__(self, head, period):
        if len(period) == 0:
            raise MalformedInputError("period must be nonempty")
        if head.n != period.n:
            raise MalformedInputError("head and period rank differ")
        probe = head.letters + period.letters + period.letters
        if reduce_free(probe) != probe:
            raise MalformedInputError("head.period.period is not freely reduced")
        self.__dict__.update(head=head, period=period)

    @property
    def n(self) -> int:
        return self.period.n

    def __iter__(self) -> Iterator[int]:
        return chain(self.head.letters, cycle(self.period.letters))


class _Prefix:
    """The letters of a stream read so far, shared by all its readers.

    Each reader walks the stored letters, then extends them from the one
    source iterator, so interleaved readers see the same letters and each
    letter is computed once.  A source that ends ends every read there; an
    error from it is stored where it rose, and every read reaching that index
    raises it again.  The list holds as many letters as the longest read took.
    """

    __slots__ = ("letters", "source", "error")

    def __init__(self, source: Iterator[int]):
        self.letters: list[int] = []
        self.source = source
        self.error: Exception | None = None

    def __iter__(self) -> Iterator[int]:
        letters = self.letters
        i = 0
        while True:
            if i < len(letters):
                yield letters[i]
            elif self.error is not None:
                # a fresh traceback: the stored one would grow by each replay
                raise self.error.with_traceback(None)
            else:
                try:
                    k = next(self.source)
                except StopIteration:  # an ended iterator stays ended
                    return
                except Exception as exc:  # whatever a fresh read would raise here
                    self.error = exc
                    raise
                letters.append(k)
                yield k
            i += 1


class _PrefixedStream:
    """A stream read through one _Prefix of its _source(), made on the first
    read; a copy or an unpickled word starts a prefix of its own."""

    @cached_property
    def _prefix(self) -> _Prefix:
        return _Prefix(self._source())

    def __iter__(self) -> Iterator[int]:
        return iter(self._prefix)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_prefix", None)  # it holds the source iterator
        return state


class Sturmian(_PrefixedStream, Value):
    """The Sturmian word over two positive letters cut by an irrational slope.

    Position k carries letter_b when floor((k+1) slope) - floor(k slope) = 1,
    letter_a otherwise; the slope must lie in (0, 1) for both to occur.
    Each letter is computed once per word object: its readers share one
    growing prefix, which lasts as long as the word.
    """

    n: int
    slope: QuadraticIrrational
    letter_a: int
    letter_b: int

    def __init__(self, n, slope, letter_a, letter_b):
        check_integer(n, "rank", 1)
        if not isinstance(slope, QuadraticIrrational):
            raise MalformedInputError(f"Sturmian slope must be a QuadraticIrrational, got {slope!r}")
        check_integer(letter_a, "Sturmian letter")
        check_integer(letter_b, "Sturmian letter")
        if letter_a <= 0 or letter_b <= 0:
            raise MalformedInputError("Sturmian letters must be positive generators")
        if letter_a == letter_b:
            raise MalformedInputError("Sturmian letters must differ")
        if max(letter_a, letter_b) > n:
            raise MalformedInputError("Sturmian letters out of range")
        # irrational, so in (0, 1) iff its floor is 0
        if slope.floor_times(1) != 0:
            raise MalformedInputError(f"Sturmian slope ({slope.p} + sqrt({slope.d}))/{slope.q} is not in (0, 1)")
        self.__dict__.update(n=n, slope=slope, letter_a=letter_a, letter_b=letter_b)

    def _source(self) -> Iterator[int]:
        """The letters computed afresh from the slope."""
        prev = 0
        for k in count(1):
            cur = self.slope.floor_times(k)
            yield self.letter_b if cur - prev == 1 else self.letter_a
            prev = cur


class Custom(_PrefixedStream, Value):
    """An infinite word given by a function that returns a fresh iterator
    over its letters; each call must start again from the first letter and
    yield the same letters.  The function is called once per word object:
    its letters are read once, into a growing prefix that every reader of
    the word shares and that lasts as long as the word.  Each letter is
    checked as it is read: a letter of F_n (an int, not a bool), not
    cancelling the one before.  An error (a bad letter, letters that run
    out, or one the function raised) is raised again by every read that
    reaches it."""

    n: int
    letters: Callable[[], Iterable[int]]
    label: str

    def __init__(self, n, letters, label):
        check_integer(n, "rank", 1)
        self.__dict__.update(n=n, letters=letters, label=label)

    def _source(self) -> Iterator[int]:
        """The letters of a fresh call of the function, checked."""
        prev = 0
        for k in self.letters():
            if not is_letter(k, self.n):
                raise MalformedInputError(f"custom stream {self.label!r} has letter {k!r} out of range for F_{self.n}")
            if k == -prev:
                raise MalformedInputError(f"custom stream {self.label!r} is not freely reduced")
            yield k
            prev = k
        raise MalformedInputError(f"custom stream {self.label!r} ran out of letters")


InfiniteWord = Union[EventuallyPeriodic, Sturmian, Custom]
Ray = Union[FreeWord, EventuallyPeriodic, Sturmian, Custom]


def parse_infinite_word(text: str, n: int) -> InfiniteWord:
    """Parse "head | period" or "sturmian d a b p q"."""
    text = text.strip()
    tokens = text.split()
    if tokens[:1] == ["sturmian"]:
        try:
            d, a, b, p, q = (int(tok) for tok in tokens[1:])
        except ValueError:
            raise MalformedInputError(f"expected 'sturmian d a b p q' in integers, got {text!r}") from None
        return Sturmian(n, QuadraticIrrational(d, p, q), a, b)
    if "|" in text:
        head_text, period_text = text.split("|", 1)
        return EventuallyPeriodic(parse_free_word(head_text, n), parse_free_word(period_text, n))
    raise MalformedInputError(f"cannot parse infinite word {text!r}")


def format_infinite_word(word: InfiniteWord) -> str:
    if isinstance(word, EventuallyPeriodic):
        return f"{word.head} | {word.period}"
    if isinstance(word, Sturmian):
        s = word.slope
        return f"sturmian {s.d} {word.letter_a} {word.letter_b} {s.p} {s.q}"
    raise MalformedInputError(f"custom stream {word.label!r} has no text form")
