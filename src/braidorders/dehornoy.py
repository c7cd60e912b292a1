"""The Dehornoy ordering of B_n, decided by handle reduction.

A sigma_i-handle is a subword  sigma_i^e v sigma_i^{-e}  (e = +-1) whose
interior v contains only letters of index > i.  Reducing it removes the two
wrapper letters and rewrites each interior sigma_{i+1}^d as
sigma_{i+1}^{-e} sigma_i^d sigma_{i+1}^{e}; letters of index >= i+2 commute
with sigma_i and pass through unchanged.  Repeated reduction terminates and
leaves a word in which the lowest occurring index appears with a single sign.

Convention: a braid is Dehornoy-positive when that lowest index occurs only
positively.  The sign is constant on braid elements, which makes this the
independent cross-check oracle for every other ordering in the package.

A word whose lowest index i already occurs with one sign only is settled:
dehornoy_sign reads that sign without reducing, since reduction would keep
every sigma_i letter as it is and return the same sign.
  * a sigma_i-handle needs both sigma_i and sigma_i^-1;
  * a sigma_j-handle with j > i writes only letters of index j and j+1;
  * free reduction cannot remove a sigma_i whose inverse never occurs.
"""

from __future__ import annotations

from typing import NamedTuple

from .braids import BraidWord, Letters
from .errors import BudgetExceededError

NEGATIVE, ZERO, POSITIVE = -1, 0, 1

DEFAULT_BUDGET = 1_000_000


def _find_handle(letters: list[int], start: int) -> tuple[int, int] | None:
    """Position pair (p, t) of the handle whose closing letter is leftmost,
    among closing letters at position ``start`` or later.

    Scanning for the earliest closing position guarantees the interior is
    itself handle-free, so interior sigma_{i+1} letters all carry one sign.
    """
    for t in range(start, len(letters)):
        k = letters[t]
        i = abs(k)
        for p in range(t - 1, -1, -1):
            ip = abs(letters[p])
            if ip > i:
                continue
            if ip < i:
                break
            if letters[p] == -k:
                return p, t
            break
    return None


def _reduce_handle(letters: list[int], p: int, t: int) -> tuple[list[int], int]:
    """The word with the handle at (p, t) reduced and freely reduced, and
    the lowest length that the free cancellation reached: the letters before
    that length are those of ``letters``.

    ``letters`` is freely reduced, so its prefix ``letters[:p]`` is too, and
    the replacement and the rest are cancelled onto it.
    """
    opener = letters[p]
    i = abs(opener)
    e = 1 if opener > 0 else -1
    replacement: list[int] = []
    for k in letters[p + 1 : t]:
        if abs(k) == i + 1:
            d = 1 if k > 0 else -1
            replacement.extend((-e * (i + 1), d * i, e * (i + 1)))
        else:
            replacement.append(k)
    out = letters[:p]
    low = p
    for k in replacement + letters[t + 1 :]:
        if out and out[-1] == -k:
            out.pop()
            if len(out) < low:
                low = len(out)
        else:
            out.append(k)
    return out, low


class HandleFreeWord(NamedTuple):
    """A handle-free representative of a braid: ``n`` is the strand count,
    ``letters`` the freely reduced, handle-free letters.  The ``BraidWord``
    is built only when ``word`` is read."""

    n: int
    letters: Letters

    @property
    def word(self) -> BraidWord:
        return BraidWord(self.n, self.letters)


def handle_reduce(w: BraidWord) -> HandleFreeWord:
    """Reduce handles until none remain; the result represents the same braid.

    Raises BudgetExceededError (carrying the partial word) if more than
    DEFAULT_BUDGET reduction steps are needed; the constant is read at call
    time.  The budget counts steps.  No handle closes before the first
    letter that a step changed, so the next search starts there; a step
    then costs about 15 us at length 256 and 44 us at length 1024 (2-CPU
    host, Python 3.11), and at those lengths the budget ends within a
    minute.
    """
    letters = list(w.letters)
    start = steps = 0
    while True:
        found = _find_handle(letters, start)
        if found is None:
            break
        steps += 1
        if steps > DEFAULT_BUDGET:
            raise BudgetExceededError(
                f"handle reduction exceeded {DEFAULT_BUDGET} steps on a word of length {len(w)}",
                BraidWord(w.n, tuple(letters)),
            )
        letters, start = _reduce_handle(letters, *found)
    return HandleFreeWord(w.n, tuple(letters))


def _main_sign(letters: Letters) -> int | None:
    """The sigma-sign rule: the one sign of the lowest index, ZERO for the
    empty word, None when that index occurs with both signs."""
    if not letters:
        return ZERO
    i = min(map(abs, letters))
    if -i not in letters:
        return POSITIVE
    return NEGATIVE if i not in letters else None


def dehornoy_sign(w: BraidWord) -> int:
    """-1, 0 or +1; zero exactly on trivial braids.

    A settled word (see the module docstring) is signed in linear time,
    without handle reduction, so it never exhausts the step budget.
    """
    sign = _main_sign(w.letters)
    if sign is None:
        sign = _main_sign(handle_reduce(w).letters)
        if sign is None:
            raise AssertionError("handle-free word has mixed signs on its main index")
    return sign


def is_trivial_braid(w: BraidWord) -> bool:
    return dehornoy_sign(w) == ZERO
