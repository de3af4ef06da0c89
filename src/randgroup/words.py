"""Words over a symmetric generating alphabet.

A word is a tuple of nonzero signed integers: ``g`` stands for the g-th
generator and ``-g`` for its inverse. The letter order used everywhere is
by generator index first, with the positive letter before its inverse:
``1 < -1 < 2 < -2 < ...``. Words of equal length compare lexicographically
under that letter order.

A word is reduced when no two adjacent letters cancel, and cyclically
reduced when additionally the last letter does not cancel the first.
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterator

from .errors import BudgetExceededError, EmptyWordError

Word = tuple[int, ...]

DEFAULT_ENUMERATION_CAP = 10**7


def letter_key(letter: int) -> tuple[int, int]:
    """Sort key realizing the letter order 1 < -1 < 2 < -2 < ..."""
    return (abs(letter), 0 if letter > 0 else 1)


def word_key(word: Word) -> tuple[tuple[int, int], ...]:
    """Lexicographic sort key for a word."""
    return tuple(letter_key(x) for x in word)


def is_integer(x) -> bool:
    """True for Python and numpy integers; bools and floats are not."""
    return isinstance(x, Integral) and not isinstance(x, bool)


def validate_word(word: Word, m: int | None = None) -> None:
    """Raise on letters that are zero, non-integral, or out of range."""
    if len(word) == 0:
        raise EmptyWordError("empty word")
    for x in word:
        if not is_integer(x) or x == 0:
            raise ValueError(f"invalid letter {x!r}")
        if m is not None and abs(int(x)) > m:
            raise ValueError(f"letter {x} outside generator range 1..{m}")


def is_reduced(word: Word) -> bool:
    """True when no adjacent pair of letters cancels."""
    if len(word) == 0:
        raise EmptyWordError("empty word")
    return all(word[i] != -word[i + 1] for i in range(len(word) - 1))


def is_cyclically_reduced(word: Word) -> bool:
    """True when the word is reduced and the last letter does not cancel the first.

    A single letter is always cyclically reduced.
    """
    return is_reduced(word) and word[-1] != -word[0]


def count_cyclically_reduced(m: int, ell: int) -> int:
    """Exact number of cyclically reduced words of length ell over m generators.

    Closed form (2m-1)^ell + m + (m-1)(-1)^ell, exact for every m >= 1,
    ell >= 1; validated against brute-force enumeration in the test suite.
    """
    if m < 1 or ell < 1:
        raise ValueError("need m >= 1 and ell >= 1")
    return (2 * m - 1) ** ell + m + (m - 1) * (-1) ** ell


def iter_cyclically_reduced(m: int, ell: int) -> Iterator[Word]:
    """Yield all cyclically reduced words of length ell in lexicographic order."""
    if m < 1 or ell < 1:
        raise ValueError("need m >= 1 and ell >= 1")
    # an odometer in O(ell) memory: the letter after x is -x for x > 0 and
    # 1 - x otherwise, so 0 comes before 1, and m + 1 after -m, the last
    word = [0] * ell
    pos = 0
    while pos >= 0:
        x = word[pos]
        while True:
            x = -x if x > 0 else 1 - x
            # nor may the last letter cancel the first, unless ell == 1
            if pos == 0 or not (x == -word[pos - 1] or
                                (pos == ell - 1 and x == -word[0])):
                break
        word[pos] = x
        if x > m:
            pos -= 1
        elif pos == ell - 1:
            yield tuple(word)
        else:
            pos += 1
            word[pos] = 0


def enumerate_cyclically_reduced(
    m: int, ell: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Word]:
    """All cyclically reduced words of length ell, lexicographically ordered.

    Raises BudgetExceededError("enumerate_cyclically_reduced", cap) up
    front when the exact count exceeds ``cap``: no partial list is returned.
    """
    total = count_cyclically_reduced(m, ell)
    if total > cap:
        raise BudgetExceededError("enumerate_cyclically_reduced", cap,
                                  f"{total} words at m={m}, ell={ell}")
    out = list(iter_cyclically_reduced(m, ell))
    assert len(out) == total
    return out


def word_to_text(word: Word) -> str:
    """Space-separated signed integers, the on-disk relator format."""
    return " ".join(str(x) for x in word)
