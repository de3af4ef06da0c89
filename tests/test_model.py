from __future__ import annotations

import hashlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from randgroup import model
from randgroup.errors import (
    BudgetExceededError,
    CountExceedsUniverseError,
    DomainError,
    PresentationFormatError,
)
from randgroup.model import (
    ModelParams,
    euler_characteristic,
    density_to_p,
    load_presentation,
    make_presentation,
    make_rng,
    p_to_density,
    sample,
    sample_binomial,
    sample_positive,
    sample_uniform_count,
    sample_uniform_words_matrix,
    save_presentation,
    uniform_count_size,
    universe_size,
    _sample_distinct,
)
from oracles import reference_save_presentation, sample_uniform_word
from randgroup.words import (
    count_cyclically_reduced,
    enumerate_cyclically_reduced,
    is_cyclically_reduced,
    word_key,
)


def test_universe_sizes():
    assert universe_size(2, 3) == 28
    assert universe_size(2, 3, positive=True) == 8
    assert universe_size(10, 3) == 19**3 + 10 - 9  # odd length: +m-(m-1)


def test_binomial_p0_empty():
    pres = sample_binomial(ModelParams(2, 3, 0.0, 7))
    assert len(pres) == 0
    assert euler_characteristic(pres) == -1


def test_binomial_p1_full_universe():
    pres = sample_binomial(ModelParams(2, 3, 1.0, 7))
    assert len(pres) == 28
    assert set(pres.relators) == set(enumerate_cyclically_reduced(2, 3))
    assert euler_characteristic(pres) == 27


def test_positive_p1_full_universe():
    pres = sample_positive(ModelParams(2, 3, 1.0, 7))
    assert len(pres) == 8
    assert pres.all_positive
    assert set(pres.relators) == {
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
        (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2),
    }


def test_uniform_count_exact_size():
    # (2*10-1)^(3 * 1/3) = 19 exactly
    assert uniform_count_size(10, 3, 1 / 3) == 19
    pres = sample_uniform_count(ModelParams(10, 3, 1 / 3, 5))
    assert len(pres) == 19
    assert len(set(pres.relators)) == 19


def test_density_maps():
    assert density_to_p(10, 3, 1 / 3) == pytest.approx(1e-2)
    d = p_to_density(10, 3, 1e-2)
    assert d == pytest.approx(1 / 3)
    with pytest.raises(DomainError):
        density_to_p(10, 3, 1.5)
    with pytest.raises(DomainError):
        p_to_density(10, 3, 0.0)


def test_determinism_same_seed():
    a = sample_binomial(ModelParams(3, 4, 0.01, 123))
    b = sample_binomial(ModelParams(3, 4, 0.01, 123))
    assert a == b
    c = sample_binomial(ModelParams(3, 4, 0.01, 124))
    # different seed virtually never gives the same draw here
    assert a != c or len(a) == 0


def test_relators_sorted_and_valid():
    pres = sample_binomial(ModelParams(3, 4, 0.05, 9))
    rel = pres.relators
    assert list(rel) == sorted(rel, key=word_key)
    assert len(set(rel)) == len(rel)
    for w in rel:
        assert len(w) == 4
        assert is_cyclically_reduced(w)
        assert all(1 <= abs(x) <= 3 for x in w)


def test_large_universe_rejection_path():
    # universe 15630 > small-universe threshold, exercises distinct sampling
    pres = sample_binomial(ModelParams(3, 6, 0.01, 77))
    assert len(set(pres.relators)) == len(pres)
    for w in pres.relators:
        assert is_cyclically_reduced(w)
    again = sample_binomial(ModelParams(3, 6, 0.01, 77))
    assert pres == again


def test_binomial_marginal_frequency():
    # each fixed word is a relator with probability exactly p
    p, trials = 0.1, 10_000
    target = (1, 2, 1)
    hits = 0
    for seed in range(trials):
        pres = sample_binomial(ModelParams(2, 3, p, seed))
        if target in set(pres.relators):
            hits += 1
    freq = hits / trials
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(freq - p) < 4 * sigma


def test_big_path_marginal_frequency():
    # same marginal law on the rejection-sampling path
    p, trials = 0.05, 1500
    target = (1, 1, 1, 1, 1, 1)
    hits = 0
    for seed in range(trials):
        pres = sample_binomial(ModelParams(3, 6, p, seed))
        if target in set(pres.relators):
            hits += 1
    freq = hits / trials
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(freq - p) < 5 * sigma


def test_uniform_word_single_draws():
    rng = make_rng(3)
    for _ in range(50):
        w = sample_uniform_word(2, 3, rng)
        assert is_cyclically_reduced(w)
    # m=1, ell=2: only two cyclically reduced words exist
    seen = {sample_uniform_word(1, 2, rng) for _ in range(200)}
    assert seen == {(1, 1), (-1, -1)}


@pytest.mark.parametrize("m, ell", [(10**4, 5), (2, 41)])
def test_uniform_word_per_letter_fallback(m, ell):
    # 2m * (2m-1)^(ell-1) does not fit one int64 draw; at m=2 a dropped
    # cancellation skip would show in almost every word
    assert 2 * m * (2 * m - 1) ** (ell - 1) > 2**63 - 1
    rng = make_rng(5)
    for _ in range(200):
        w = sample_uniform_word(m, ell, rng)
        assert len(w) == ell
        assert all(1 <= abs(x) <= m for x in w)
        assert is_cyclically_reduced(w)


def test_uniform_word_mixed_radix_uniformity():
    # radices 6, 5, 5, 5; criterion 2 (m=2, ell=3) only reaches 4, 3, 3
    m, ell = 3, 4
    universe = enumerate_cyclically_reduced(m, ell)
    assert len(universe) == count_cyclically_reduced(m, ell) == 630
    index = {w: i for i, w in enumerate(universe)}
    counts = [0] * len(universe)
    rng = make_rng(20261018)
    for _ in range(200_000):
        counts[index[sample_uniform_word(m, ell, rng)]] += 1
    assert min(counts) > 0
    assert stats.chisquare(counts).pvalue > 1e-3


def test_uniform_words_matrix_uniformity():
    # chi-square over the 28-word universe
    rng = make_rng(11)
    mat = sample_uniform_words_matrix(2, 3, 100_000, rng)
    words = [tuple(int(x) for x in row) for row in mat]
    universe = enumerate_cyclically_reduced(2, 3)
    assert set(words) <= set(universe)
    counts = [0] * len(universe)
    index = {w: i for i, w in enumerate(universe)}
    for w in words:
        counts[index[w]] += 1
    res = stats.chisquare(counts)
    assert res.pvalue > 1e-3


def test_sample_distinct_errors():
    rng = make_rng(1)
    with pytest.raises(CountExceedsUniverseError):
        _sample_distinct(2, 3, 29, False, rng)


def test_file_round_trip():
    pres = sample_binomial(ModelParams(3, 4, 0.02, 55))
    buf = io.StringIO()
    save_presentation(pres, buf)
    buf.seek(0)
    back = load_presentation(buf)
    assert back == pres
    assert back.model_tag == "binomial"
    assert back.param == pres.param
    assert back.seed == 55


# ------------------------------------------------------------ file writer

def _saved(pres, writer=save_presentation) -> str:
    buf = io.StringIO()
    writer(pres, buf)
    return buf.getvalue()


def _builds_table(pres) -> bool:
    # rows_text's rule, for the two separators of a presentation file
    matrix = pres.relator_matrix
    top = int(np.abs(matrix.astype(np.int64)).max())
    return (2 * top + 1) * min(pres.ell, 2) <= matrix.size // 4


@pytest.mark.parametrize("tag, m, ell, param, seed", [
    ("binomial", 5000, 1, 0.3, 16),
    ("binomial", 200, 2, 0.05, 2),
    ("binomial", 10**6, 3, 1e-15, 15),
    ("binomial", 3000, 4, 1e-9, 7),
    ("positive", 8, 5, 0.01, 4),
    ("binomial", 20, 6, 1e-7, 5),
])
def test_saved_file_matches_the_format_per_letter(tag, m, ell, param, seed):
    pres = sample(tag, ModelParams(m, ell, param, seed))
    assert len(pres) > 100
    assert _saved(pres) == _saved(pres, reference_save_presentation)


def _first_words(k, scale):
    # the first k words over 20 generators, each generator g renamed
    # g * scale, so the letters reach +-20 * scale
    words = enumerate_cyclically_reduced(20, 3)[:k]
    return make_presentation(20 * scale, 3, [tuple(x * scale for x in w)
                                             for w in words])


@pytest.mark.parametrize("k", [0, 1, model._SAVE_BLOCK, model._SAVE_BLOCK + 1])
@pytest.mark.parametrize("scale", [1, 50_000])
def test_saved_file_block_edges(k, scale):
    pres = _first_words(k, scale)
    assert len(pres) == k
    if k > 1:
        assert _builds_table(pres) == (scale == 1)
    assert _saved(pres) == _saved(pres, reference_save_presentation)


@pytest.mark.parametrize("pres, table", [
    # every word over 7 generators: the table covers -7..7
    (make_presentation(7, 3, enumerate_cyclically_reduced(7, 3)), True),
    (make_presentation(10**8, 4, [(10**8, -(10**8 - 1), 10**8, 1),
                                  (-10**8, 5, -10**8, 3), (1, 2, 3, 4),
                                  (-1, -(10**8 - 7), 99_999_999, 10)]),
     False),
    (make_presentation(2**31 - 1, 2, [(2**31 - 1, 2**31 - 1),
                                      (1 - 2**31, -5), (9, 10)]), False),
])
def test_saved_file_letters_near_m(pres, table):
    assert _builds_table(pres) == table
    text = _saved(pres)
    assert text == _saved(pres, reference_save_presentation)
    assert load_presentation(io.StringIO(text)) == pres


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-2**31, 2**31 - 1), min_size=3,
                         max_size=3), max_size=40),
       st.lists(st.sampled_from([" ", "\n", ", ", "], [", ""]), min_size=3,
                max_size=3))
def test_rows_text_writes_each_value_and_its_separator(rows, seps):
    matrix = np.array(rows, dtype=np.int32).reshape(-1, 3)
    assert "".join(model.rows_text(matrix, tuple(seps))) == "".join(
        f"{x}{sep}" for row in rows for x, sep in zip(row, seps))


LOADER_FAULTS = [
    # header faults
    ("2 3 binomial 0.5\n", 1,
     "header needs 5 fields (m ell model_tag param seed), got 4"),
    ("", 1, "missing header line"),
    ("2 x binomial 0.5 7\n", 1,
     "malformed header: invalid literal for int() with base 10: 'x'"),
    ("2 3 bogus 0.5 7\n", 1, "unknown model tag 'bogus'"),
    ("0 3 binomial 0.5 7\n", 1, "need m >= 1 and ell >= 1, got m=0 ell=3"),
    # one fault kind per body line
    ("2 3 binomial 0.5 7\n1 x 2\n", 2, "malformed relator '1 x 2'"),
    ("2 3 binomial 0.5 7\n1 2 -\n", 2, "malformed relator '1 2 -'"),
    ("2 3 binomial 0.5 7\n1 --2 1\n", 2, "malformed relator '1 --2 1'"),
    ("2 3 binomial 0.5 7\n1 2-1 1\n", 2, "malformed relator '1 2-1 1'"),
    ("2 3 binomial 0.5 7\n1 2.0 1\n", 2, "malformed relator '1 2.0 1'"),
    ("2 3 binomial 0.5 7\n1 2\n", 2, "relator length 2, expected 3"),
    ("2 3 binomial 0.5 7\n1 2 1 2\n", 2, "relator length 4, expected 3"),
    ("2 3 binomial 0.5 7\n1 0 2\n", 2, "letter out of range in (1, 0, 2)"),
    ("2 3 binomial 0.5 7\n1 -0 2\n", 2, "letter out of range in (1, 0, 2)"),
    ("2 3 binomial 0.5 7\n1 3 2\n", 2, "letter out of range in (1, 3, 2)"),
    ("2 3 binomial 0.5 7\n1 -3 2\n", 2, "letter out of range in (1, -3, 2)"),
    ("2 3 binomial 0.5 7\n1 99999999999999999999 2\n", 2,
     "letter out of range in (1, 99999999999999999999, 2)"),
    ("2 3 binomial 0.5 7\n1 -2147483648 1\n", 2,
     "letter out of range in (1, -2147483648, 1)"),
    ("2 3 binomial 0.5 7\n1 2147483648 1\n", 2,
     "letter out of range in (1, 2147483648, 1)"),
    ("2 3 binomial 0.5 7\n1 -1 2\n", 2,
     "relator (1, -1, 2) is not cyclically reduced"),
    ("2 3 binomial 0.5 7\n1 2 -1\n", 2,
     "relator (1, 2, -1) is not cyclically reduced"),
    ("2 3 positive 0.5 7\n1 -2 1\n", 2,
     "negative letter in positive model: (1, -2, 1)"),
    # within one line, range is checked before reduction and sign
    ("2 3 positive 0.5 7\n1 -1 5\n", 2, "letter out of range in (1, -1, 5)"),
    ("2 3 positive 0.5 7\n-1 1 2\n", 2,
     "relator (-1, 1, 2) is not cyclically reduced"),
    # blank lines count, tabs, trailing spaces and carriage returns separate
    ("2 3 binomial 0.5 7\n\n1 2 1\n  \n\t\n1 -1 2\n", 6,
     "relator (1, -1, 2) is not cyclically reduced"),
    ("2 3 binomial 0.5 7\n1\t2  1 \r\n 2 1 2\t\n1 1 0   \n", 4,
     "letter out of range in (1, 1, 0)"),
    ("2 3 binomial 0.5 7\n1 2 1\n2 -1", 3, "relator length 2, expected 3"),
    ("2 3 binomial 0.5 7\n1 2 1\n2 1 -2", 3,
     "relator (2, 1, -2) is not cyclically reduced"),
    # the first bad line wins over a later one with another fault
    ("2 3 binomial 0.5 7\n1 2 1\n1 2 -2\n1 2\n1 5 1\n", 3,
     "relator (1, 2, -2) is not cyclically reduced"),
    ("2 3 binomial 0.5 7\n1 2 1\n1 2\n1 2 -2\nx\n", 3,
     "relator length 2, expected 3"),
    ("2 3 binomial 0.5 7\n1 2 1\n1 9 1\n1 y 1\n", 3,
     "letter out of range in (1, 9, 1)"),
]


def test_file_errors_carry_line_numbers():
    for text, lineno, message in LOADER_FAULTS:
        with pytest.raises(PresentationFormatError) as err:
            load_presentation(io.StringIO(text))
        assert err.value.lineno == lineno, text
        assert str(err.value) == f"line {lineno}: {message}", text


BODY_LAYOUTS = [
    ("", ()),
    ("\n\n  \n", ()),
    ("1 2 1", ((1, 2, 1),)),
    ("\t2  1 2 \r\n\n1 2 1\n", ((1, 2, 1), (2, 1, 2))),
    ("2 1 2\n1 2 1\n2 1 2\n", ((1, 2, 1), (2, 1, 2))),
    # tokens int() accepts beyond plain digits keep loading
    ("+1 02 1\n-2\x0c-1 -2\n", ((1, 2, 1), (-2, -1, -2))),
]


@pytest.mark.parametrize("body, rows", BODY_LAYOUTS)
def test_file_body_layouts_load(body, rows):
    # an empty body must not reach numpy's "input contained no data" warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pres = load_presentation(io.StringIO("2 3 binomial 0.5 7\n" + body))
    assert pres.relators == rows


# tokens and separators on both sides of numpy's and int()'s rules
_BODY_TOKENS = ["1", "2", "-1", "-2", "3", "0", "+1", "-0", "02", "2.0",
                "1_0", "99999999999999999999", "2147483648", "-2147483648",
                "\u0663", "-", "x"]
_BODY_SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\xa0"]


@st.composite
def _body_lines(draw, ell):
    sep = st.sampled_from(_BODY_SEPARATORS)
    kind = draw(st.sampled_from(["word", "word", "word", "tokens", "blank"]))
    if kind == "blank":
        line = "".join(draw(st.lists(sep, max_size=2)))
    else:
        letters = (st.sampled_from(["1", "2", "-1", "-2"]) if kind == "word"
                   else st.sampled_from(_BODY_TOKENS))
        size = ell if kind == "word" else draw(st.integers(0, ell + 1))
        tokens = draw(st.lists(letters, min_size=size, max_size=size))
        line = draw(sep) if draw(st.booleans()) else ""
        for tok in tokens:
            line += tok + draw(sep)
    return line + ("\r" if draw(st.booleans()) else "")


@st.composite
def _bodies(draw):
    ell = draw(st.integers(1, 3))
    lines = draw(st.lists(_body_lines(ell), max_size=6))
    return ell, "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


@settings(max_examples=400, deadline=None)
@given(case=_bodies(), tag=st.sampled_from(["binomial", "positive"]))
def test_loader_matches_line_by_line_parse(case, tag):
    ell, body = case
    m = 2
    try:
        words = [w for i, line in enumerate(body.split("\n"))
                 if (w := model._parse_line(line, i + 2, m, ell, tag)) is not None]
        expected = model._sorted_distinct_rows(
            np.array(words, dtype=np.int32).reshape(-1, ell), m)
    except PresentationFormatError as exc:
        expected = str(exc)
    try:
        pres = load_presentation(io.StringIO(f"{m} {ell} {tag} 0.5 7\n" + body))
        got = pres.relator_matrix
    except PresentationFormatError as exc:
        got = str(exc)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray)
        assert got.dtype == np.int32 and np.array_equal(got, expected)


def test_make_presentation_validation():
    with pytest.raises(Exception):
        make_presentation(2, 3, [(1, -1, 2)])  # not cyclically reduced
    with pytest.raises(Exception):
        make_presentation(2, 3, [(1, 2)])  # wrong length
    pres = make_presentation(2, 3, [(2, 1, 1), (1, 1, 2), (2, 1, 1)])
    assert len(pres) == 2  # duplicates collapse
    assert pres.relators == ((1, 1, 2), (2, 1, 1))  # sorted


def test_make_presentation_takes_numpy_integers():
    row = np.array([2, 1, 1], dtype=np.int64)
    pres = make_presentation(2, 3, [row, (np.int32(1), np.int8(1), 2)])
    assert pres.relators == ((1, 1, 2), (2, 1, 1))


@pytest.mark.parametrize("word", [(1.5, 2.9, 1), (1.0, 2, 1), (1, 2, 1.0)])
def test_make_presentation_rejects_float_letters(word):
    with pytest.raises(ValueError, match="invalid letter"):
        make_presentation(3, 3, [word])


@pytest.mark.parametrize("word", [(True, 2, 1), (1, 2, np.True_)])
def test_make_presentation_rejects_bool_letters(word):
    with pytest.raises(ValueError, match="invalid letter"):
        make_presentation(3, 3, [word])


@pytest.mark.parametrize("letter", [2**31, -2**31, np.int64(2**40)])
def test_make_presentation_rejects_letters_past_int32(letter):
    # m admits the letter, the int32 relator matrix does not
    with pytest.raises(DomainError, match="letter out of range"):
        make_presentation(2**41, 3, [(1, letter, 1)])
    make_presentation(2**41, 3, [(1, 2**31 - 1, 1)])


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    ell=st.integers(min_value=1, max_value=5),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_sampled_presentations_valid(m, ell, p, seed):
    pres = sample_binomial(ModelParams(m, ell, p, seed))
    assert len(set(pres.relators)) == len(pres)
    for w in pres.relators:
        assert len(w) == ell
        assert is_cyclically_reduced(w)
    assert euler_characteristic(pres) == 1 - m + len(pres)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    ell=st.integers(min_value=1, max_value=4),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_positive_presentations_positive(m, ell, p, seed):
    pres = sample_positive(ModelParams(m, ell, p, seed))
    assert pres.all_positive
    assert len(pres) <= m**ell


# ------------------------------------------------------------ golden bytes
# sha256 prefixes of relator_matrix.tobytes() and of the saved file,
# for fixed seeds; any change to the sampler's draws, dedup, word order
# or file layout shows here

def _digest(pres):
    buf = io.StringIO()
    save_presentation(pres, buf)
    return (len(pres),
            hashlib.sha256(pres.relator_matrix.tobytes()).hexdigest()[:16],
            hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16])


GOLDEN_SAMPLES = [
    # enumerated small universes
    ("binomial", 3, 4, 0.3, 11, 193, "f2bc4aeba5d75d9f", "8a27a78decc7ec2b"),
    ("positive", 4, 3, 0.5, 21, 29, "51f167a606f7d8fa", "05bc860929ea766f"),
    ("uniform_count", 2, 3, 0.9, 31, 19, "448db6e0231c63d8",
     "b996b3d7119dd27c"),
    # rejection sampling with many duplicate draws
    ("binomial", 3, 6, 0.45, 12, 6990, "aaa29426d5cdb329", "b8b7c8fbae40e236"),
    ("positive", 5, 6, 0.45, 22, 7012, "788f53779cb38bca", "1ddbb57142e2fbc8"),
    ("binomial", 5000, 1, 0.3, 16, 2981, "bea9ab5dee7cc21f",
     "fa056f1f5d186af8"),
    # one key column; (2m)^ell just below 2^63 at m=10^6, ell=3
    ("binomial", 500, 4, 1e-8, 13, 9882, "2db2ffafcef7ceb4", "9e898256adf5a231"),
    ("binomial", 10**6, 3, 1e-15, 15, 7898, "bb88d482c46de7b2",
     "52d186e9126e27f3"),
    ("uniform_count", 100, 4, 0.4, 32, 4766, "5fdaac0503db0e11",
     "150b0038d77e1f48"),
    # two key columns: (2m)^ell > 2^63
    ("binomial", 10**4, 5, 3e-18, 14, 9577, "046d4f9f3e1abf4e",
     "201565f18856c7db"),
    ("positive", 3000, 6, 2e-17, 23, 14672, "83fe6c82f53e8e61",
     "d4eda05479555827"),
]


@pytest.mark.parametrize("tag, m, ell, param, seed, n, mat_hash, file_hash",
                         GOLDEN_SAMPLES)
def test_golden_sampler_bytes(tag, m, ell, param, seed, n, mat_hash,
                              file_hash):
    pres = sample(tag, ModelParams(m, ell, param, seed))
    assert _digest(pres) == (n, mat_hash, file_hash)
    buf = io.StringIO()
    save_presentation(pres, buf)
    buf.seek(0)
    assert load_presentation(buf) == pres


def test_golden_make_presentation_bytes():
    # unsorted input with repeats, one key column and two
    rng = make_rng(41)
    pool = enumerate_cyclically_reduced(3, 4)
    words = [pool[i] for i in rng.integers(0, len(pool), size=300)]
    assert _digest(make_presentation(3, 4, words)) == (
        233, "753006e6aa23fcc3", "e0e44f520215b93e")

    rels = sample("binomial", ModelParams(10**4, 5, 3e-18, 14)).relators
    rng = make_rng(42)
    words = [rels[i] for i in rng.integers(0, len(rels), size=2 * len(rels))]
    assert _digest(make_presentation(10**4, 5, words)) == (
        8246, "d408b77ce982afbe", "b5aff9f96c3650ff")


def test_count_past_an_int64_universe_is_poisson():
    # N = 3.2e21 words is past 2^63 - 1, so the first draw is the count,
    # Poisson(N p) with N p = 3199.2
    n = universe_size(10**4, 5)
    assert n > 2**63 - 1
    pres = sample("binomial", ModelParams(10**4, 5, 1e-18, 3))
    assert len(pres) == int(make_rng(3).poisson(float(n) * 1e-18))
    assert _digest(pres) == (3063, "35af0110999d3bcc", "bb62ff9468915cfe")


@pytest.mark.parametrize("ell, p", [(5, 1e-7), (9, 1.0)])
def test_poisson_count_past_the_cap_is_over_budget(ell, p):
    # a mean of 3.2e14 relators, and one past what rng.poisson takes
    with pytest.raises(BudgetExceededError) as err:
        sample("binomial", ModelParams(10**4, ell, p, 0))
    assert (err.value.check, err.value.limit) == ("sample", 10**7)
