from __future__ import annotations

import tracemalloc
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randgroup.errors import (
    BudgetExceededError,
    EmptyWordError,
    NotCyclicallyReducedError,
)
from randgroup.words import (
    count_cyclically_reduced,
    is_cyclically_reduced,
    is_reduced,
    iter_cyclically_reduced,
    word_to_text,
)

from oracles import (canonical_class, enumerate_cyclically_reduced,
                     inverse_word, letter_key, word_from_text, word_key)


# Independent oracle: enumerate by filtering the full cartesian product.
# Deliberately shares no code with the package implementation.
@lru_cache(maxsize=None)
def oracle_words(m, ell):
    letters = [x for g in range(1, m + 1) for x in (g, -g)]
    found = []
    for w in product(letters, repeat=ell):
        if any(w[i] == -w[i + 1] for i in range(ell - 1)):
            continue
        if w[-1] == -w[0]:
            continue
        found.append(w)
    return found


# Values frozen from the oracle above.
def test_count_frozen_examples():
    assert count_cyclically_reduced(2, 3) == 28
    assert count_cyclically_reduced(1, 2) == 2
    assert count_cyclically_reduced(2, 2) == 12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
def test_count_matches_oracle(m, ell):
    assert count_cyclically_reduced(m, ell) == len(oracle_words(m, ell))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_enumerate_matches_oracle_as_sets(m, ell):
    got = enumerate_cyclically_reduced(m, ell)
    assert set(got) == set(oracle_words(m, ell))
    assert len(got) == len(set(got))
    # the oracle's product over the letter order is already in word order
    assert got == oracle_words(m, ell)


def test_enumerate_lexicographic_order():
    words = enumerate_cyclically_reduced(2, 2)
    assert words[0] == (1, 1)  # "a a"
    assert words == sorted(words, key=word_key)


def test_iterator_long_words():
    # one generator: exactly a^ell and its inverse, at any length
    assert list(iter_cyclically_reduced(1, 1500)) == [(1,) * 1500,
                                                      (-1,) * 1500]


def test_iterator_first_word_needs_no_alphabet():
    tracemalloc.start()
    first = next(iter_cyclically_reduced(10**6, 3))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert first == (1, 1, 1)
    assert peak < 2**20


def test_enumerate_cap():
    with pytest.raises(BudgetExceededError) as err:
        enumerate_cyclically_reduced(3, 6, cap=100)
    assert err.value.check == "enumerate_cyclically_reduced"
    assert err.value.limit == 100


def test_letter_order():
    # 1 < -1 < 2 < -2
    assert sorted([2, -1, -2, 1], key=letter_key) == [1, -1, 2, -2]


def test_is_reduced_examples():
    assert is_reduced((1, 2, -1))  # a b a^-1
    assert not is_reduced((1, -1, 2))  # a a^-1 b
    assert is_reduced((1, 2, 1))


def test_is_cyclically_reduced_examples():
    assert not is_cyclically_reduced((1, 2, -1))  # last cancels first
    assert is_cyclically_reduced((1, 2, 1))
    assert is_cyclically_reduced((1,))  # single letter never cancels itself


def test_empty_word_errors():
    with pytest.raises(EmptyWordError):
        is_reduced(())
    with pytest.raises(EmptyWordError):
        canonical_class(())


def test_canonical_class_examples():
    assert canonical_class((2, 1)) == (1, 2)  # "b a" -> "a b"
    assert canonical_class((-1, -2)) == (1, 2)  # "a^-1 b^-1" -> "a b"


def test_canonical_class_rejects_non_cyclically_reduced():
    with pytest.raises(NotCyclicallyReducedError):
        canonical_class((1, 2, -1))


def test_text_round_trip():
    w = (1, 2, -1)
    assert word_to_text(w) == "1 2 -1"
    assert word_from_text("1 2 -1") == w


@st.composite
def cyclically_reduced_words(draw):
    m = draw(st.integers(min_value=1, max_value=3))
    ell = draw(st.integers(min_value=1, max_value=5))
    pool = oracle_words(m, ell)
    idx = draw(st.integers(min_value=0, max_value=len(pool) - 1))
    return pool[idx]


@settings(max_examples=200)
@given(cyclically_reduced_words())
def test_canonical_class_properties(w):
    c = canonical_class(w)
    assert is_cyclically_reduced(c)
    # idempotent
    assert canonical_class(c) == c
    # representative lies in the class generated by rotation and inversion
    cls = set()
    for base in (w, inverse_word(w)):
        for i in range(len(base)):
            cls.add(base[i:] + base[:i])
    assert c in cls
    # invariant under rotation and inversion of the input
    rot = w[1:] + w[:1]
    assert canonical_class(rot) == c
    assert canonical_class(inverse_word(w)) == c
    # and it is the least member under the word order
    assert all(word_key(c) <= word_key(x) for x in cls)


@settings(max_examples=60)
@given(cyclically_reduced_words())
def test_inverse_word_involution(w):
    assert inverse_word(inverse_word(w)) == w
    assert is_cyclically_reduced(inverse_word(w))
