"""Random presentation models over a fixed relator length.

Three samplers share one presentation type:

* binomial: every cyclically reduced word of length ell is a relator
  independently with probability p.
* positive: same, but over the m^ell words using only positive letters.
* uniform_count: exactly floor((2m-1)^(ell*d)) distinct cyclically
  reduced words, uniform over all such sets.

Presentations store their relators as a sorted, duplicate-free int32
matrix of signed letters; the tuple-of-tuples view is materialized
lazily. Sampling is vectorized and exactly uniform: drawing i.i.d.
uniform words and keeping first occurrences until K distinct words are
collected yields a uniform K-subset of the universe.

Every layer that dedups, sorts or compares relator rows does so on one
packed key. Letter x has code c = 2(|x|-1) + [x < 0], so the codes
0, 1, 2, 3, ... are the letters 1, -1, 2, -2, ...; a word is read as a
number in base 2m, most significant letter first. One int64 column
holds as many letters as keep base^letters <= 2^63 - 1, and longer
words are split into several columns of that many letters (the last
one shorter). The lexicographic order of the key columns is then the
word order of ``words.word_key``. One column suffices whenever
(2m)^ell < 2^63, e.g. m = 10^4 up to ell = 4 and m = 10^6 up to ell = 3.
The samplers draw words as columns of letter codes and pack the keys
from those; only the kept words become signed int32 rows. The
diagnostics pack supports (sorted generator sets) the same way, with
base m + 1.

A presentation file is a header line and one relator per line. Its
rules are stated once, in ``_parse_line``. The loader takes two steps:
numpy's parser reads a well-formed body into an int32 array, which is
checked as a whole; any body that numpy rejects or that fails a check
goes through ``_parse_line`` line by line, so the result, or the error
of the first bad line, is always the one the line rules give.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import IO, Iterator

import numpy as np

from .errors import (
    BudgetExceededError,
    CountExceedsUniverseError,
    DomainError,
    LengthMismatchError,
    NotCyclicallyReducedError,
    PresentationFormatError,
)
from .words import (
    Word,
    count_cyclically_reduced,
    is_cyclically_reduced,
    iter_cyclically_reduced,
    validate_word,
)

MODEL_TAGS = ("binomial", "positive", "uniform_count", "manual")

# below this universe size the definitional per-word Bernoulli process is
# run directly on the enumerated universe
SMALL_UNIVERSE_MAX = 4096

# hard cap on materialized relators; beyond this the K x ell matrix alone
# would dominate memory
MAX_RELATORS = 10**7

_INT64_MAX = 2**63 - 1
_INT32_MAX = 2**31 - 1


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; same seed gives the same stream everywhere."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@dataclass(frozen=True)
class ModelParams:
    """Sampler parameters: param is p for the Bernoulli models, d for uniform_count."""

    m: int
    ell: int
    param: float
    seed: int

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("need m >= 1")
        if self.ell < 1:
            raise DomainError("need ell >= 1")


def _codes_to_signed(codes: np.ndarray) -> np.ndarray:
    # code 2*(g-1) is generator g, code 2*(g-1)+1 its inverse
    signed = (codes >> 1).astype(np.int32)
    signed += 1
    sign = (codes & 1).astype(np.int32)
    sign *= -2
    sign += 1
    signed *= sign
    return signed


def _letters_per_key(base: int) -> int:
    """Most base-`base` digits whose packed value stays within int64."""
    n = 1
    while base ** (n + 1) <= _INT64_MAX:
        n += 1
    return n


def _letter_codes(column: np.ndarray) -> np.ndarray:
    codes = np.abs(column).astype(np.int64)
    codes -= 1
    codes *= 2
    codes += column < 0
    return codes


def _identity(column: np.ndarray) -> np.ndarray:
    return column


def row_keys(columns, base: int, digits=_letter_codes) -> list[np.ndarray]:
    """Packed int64 key columns, most significant first, of rows given as
    a sequence of columns (``matrix.T`` for a row matrix).

    ``digits`` maps one column to int64 digits in [0, base), one column
    at a time; the default gives the letter codes of signed words, for
    base 2m, and ``_identity`` takes columns that already hold digits.
    The lexicographic order of the key columns is the lexicographic
    order of the rows' digits. Digits of int32 columns stay below 2^32,
    so a larger base is lowered to that.
    """
    base = min(base, 2**32)
    width = len(columns)
    per = _letters_per_key(base)
    keys = []
    for lo in range(0, width, per):
        key = np.zeros(len(columns[lo]), dtype=np.int64)
        for j in range(lo, min(lo + per, width)):
            key *= base
            key += digits(columns[j])
        keys.append(key)
    return keys


def key_runs(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Row order by key, and the positions in it where runs of equal keys start."""
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    return order, np.flatnonzero(new)


def _sorted_distinct_rows(matrix: np.ndarray, m: int) -> np.ndarray:
    """Distinct rows of words over m generators, in the word order."""
    if matrix.shape[0] <= 1:
        return matrix
    order, starts = key_runs(row_keys(matrix.T, 2 * m))
    return matrix[order[starts]]


class Presentation:
    """A finite presentation whose relators all have one fixed length.

    Relators are distinct cyclically reduced words, held row-sorted so
    that equal relator sets compare equal and downstream tie-breaking is
    reproducible.
    """

    __slots__ = ("m", "ell", "model_tag", "param", "seed",
                 "relator_matrix", "_relators", "_index")

    def __init__(self, m: int, ell: int, model_tag: str, param: float,
                 seed: int, relator_matrix: np.ndarray):
        # internal constructor: relator_matrix must already be validated,
        # deduplicated, and sorted (use make_presentation for raw words)
        self.m = m
        self.ell = ell
        self.model_tag = model_tag
        self.param = param
        self.seed = seed
        self.relator_matrix = relator_matrix
        self._relators: tuple[Word, ...] | None = None
        self._index = None  # hypergraph.build's incidence index

    @property
    def relators(self) -> tuple[Word, ...]:
        if self._relators is None:
            self._relators = tuple(
                tuple(int(x) for x in row) for row in self.relator_matrix
            )
        return self._relators

    @property
    def all_positive(self) -> bool:
        return bool((self.relator_matrix > 0).all()) if len(self) else True

    def __len__(self) -> int:
        return self.relator_matrix.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            self.m == other.m
            and self.ell == other.ell
            and self.relator_matrix.shape == other.relator_matrix.shape
            and bool((self.relator_matrix == other.relator_matrix).all())
        )

    def __repr__(self) -> str:
        return (f"Presentation(m={self.m}, ell={self.ell}, "
                f"model={self.model_tag!r}, relators={len(self)})")


def make_presentation(m: int, ell: int, relators, model_tag: str = "manual",
                      param: float = 0.0, seed: int = 0) -> Presentation:
    """Build a presentation from explicit words, validating every relator."""
    if model_tag not in MODEL_TAGS:
        raise DomainError(f"unknown model tag {model_tag!r}")
    rows = []
    for w in relators:
        w = tuple(w)
        validate_word(w, m)
        w = tuple(int(x) for x in w)
        # letters past int32 cannot be stored in the relator matrix
        if any(abs(x) > _INT32_MAX for x in w):
            raise DomainError(f"letter out of range in {w}")
        if len(w) != ell:
            raise LengthMismatchError(
                f"relator {w} has length {len(w)}, expected {ell}")
        if not is_cyclically_reduced(w):
            raise NotCyclicallyReducedError(f"relator {w} is not cyclically reduced")
        if model_tag == "positive" and any(x < 0 for x in w):
            raise DomainError(f"positive model cannot contain {w}")
        rows.append(w)
    matrix = (np.array(rows, dtype=np.int32) if rows
              else np.empty((0, ell), dtype=np.int32))
    return Presentation(m, ell, model_tag, param, seed,
                        _sorted_distinct_rows(matrix, m))


def euler_characteristic(pres: Presentation) -> int:
    """1 - (number of generators) + (number of relators)."""
    return 1 - pres.m + len(pres)


def universe_size(m: int, ell: int, positive: bool = False) -> int:
    """Exact size of the sampling universe (arbitrary precision)."""
    if positive:
        return m**ell
    return count_cyclically_reduced(m, ell)


def density_to_p(m: int, ell: int, d: float) -> float:
    """Probability equivalent to density d: p = m^(ell*(d-1))."""
    if not 0.0 < d < 1.0:
        raise DomainError(f"density must lie in (0,1), got {d}")
    if m < 2:
        raise DomainError("density correspondence needs m >= 2")
    return float(m) ** (ell * (d - 1.0))


def p_to_density(m: int, ell: int, p: float) -> float:
    """Inverse of density_to_p: d = 1 + ln(p) / (ell * ln(m))."""
    if not 0.0 < p <= 1.0:
        raise DomainError(f"probability must lie in (0,1], got {p}")
    if m < 2:
        raise DomainError("density correspondence needs m >= 2")
    return 1.0 + math.log(p) / (ell * math.log(m))


# ---------------------------------------------------------------------------
# uniform sampling of cyclically reduced words


def _uniform_code_columns(m: int, ell: int, size: int,
                          rng: np.random.Generator) -> list[np.ndarray]:
    """Letter-code columns of `size` i.i.d. uniform cyclically reduced words.

    Each batch draws a uniform reduced word column by column (first
    letter free, each next one uniform over the 2m-1 non-cancelling
    choices) and keeps the words whose last letter does not cancel the
    first; acceptance is at least 1/2.
    """
    blocks = []
    got = 0
    while got < size:
        batch = int((size - got) * 1.1) + 16
        cols = [rng.integers(0, 2 * m, size=batch)]
        for _ in range(1, ell):
            r = rng.integers(0, 2 * m - 1, size=batch)
            r += r >= (cols[-1] ^ 1)
            cols.append(r)
        if ell > 1:
            keep = cols[-1] != (cols[0] ^ 1)
            cols = [col[keep] for col in cols]
        blocks.append(cols)
        got += len(cols[0])
    return [np.concatenate(parts)[:size] if len(parts) > 1 else parts[0][:size]
            for parts in zip(*blocks)]


def _positive_code_columns(m: int, ell: int, size: int,
                           rng: np.random.Generator) -> list[np.ndarray]:
    """Letter-code columns of `size` i.i.d. uniform positive words."""
    words = rng.integers(1, m + 1, size=(size, ell), dtype=np.int64)
    words -= 1
    words *= 2
    return list(words.T)


def sample_uniform_words_matrix(m: int, ell: int, size: int,
                                rng: np.random.Generator) -> np.ndarray:
    """Vectorized batch of i.i.d. uniform cyclically reduced words.

    Returns a (size, ell) int32 matrix of signed letters; rows are
    independent draws (duplicates possible).
    """
    if m < 1 or ell < 1:
        raise DomainError("need m >= 1 and ell >= 1")
    if size == 0:
        return np.empty((0, ell), dtype=np.int32)
    return _codes_to_signed(np.stack(_uniform_code_columns(m, ell, size, rng),
                                     axis=1))


# ---------------------------------------------------------------------------
# model samplers


def _mean_count(n_universe: int, p: float) -> float:
    """N p as float(N) * p, or through logs where float(N) overflows."""
    try:
        return float(n_universe) * p
    except OverflowError:
        log_mean = math.log(n_universe) + math.log(p) if p else -math.inf
        return math.exp(log_mean) if log_mean < 709.0 else math.inf


def _draw_relator_count(n_universe: int, p: float,
                        rng: np.random.Generator) -> int:
    """Binomial(N, p) while N <= 2^63 - 1, Poisson(N p) past it: within
    N p^2 = (N p) p in total variation (Le Cam). A count under the cap
    there needs N p below 1.1e7, so p <= 1.2e-12 and N p^2 <= 1.3e-5.
    _sample_distinct refuses larger counts, and this a mean past what
    rng.poisson takes, with the same error."""
    if n_universe <= _INT64_MAX:
        return int(rng.binomial(n_universe, p))
    try:
        return int(rng.poisson(_mean_count(n_universe, p)))
    except ValueError:  # numpy's "lam value too large", near 2^63
        raise BudgetExceededError("sample", MAX_RELATORS,
                                  "mean relator count past 2^63") from None


def _enumerate_universe_matrix(m: int, ell: int, positive: bool) -> np.ndarray:
    """Every word of the universe, one per row, in word order."""
    if positive:
        n = m**ell
        grid = np.indices((m,) * ell).reshape(ell, n).T + 1
        return grid.astype(np.int32)
    return np.array(list(iter_cyclically_reduced(m, ell)), dtype=np.int32)


def _sample_distinct(m: int, ell: int, k: int, positive: bool,
                     rng: np.random.Generator) -> np.ndarray:
    """Uniform k-subset of the universe, as a matrix in word order."""
    n_universe = universe_size(m, ell, positive=positive)
    if k > n_universe:
        raise CountExceedsUniverseError(
            f"requested {k} distinct relators from a universe of {n_universe}")
    if k > MAX_RELATORS:
        raise BudgetExceededError("sample", MAX_RELATORS,
                                  f"{k} relators requested")
    if k == 0:
        return np.empty((0, ell), dtype=np.int32)
    if 2 * k > n_universe:
        # dense regime: rejection would thrash, enumerate and subsample
        universe = _enumerate_universe_matrix(m, ell, positive)
        idx = rng.choice(n_universe, size=k, replace=False)
        return universe[np.sort(idx)]
    draw = _positive_code_columns if positive else _uniform_code_columns
    # the draws stay letter-code columns; only the k kept words are signed
    cols: list[np.ndarray] = []
    need = k
    while True:
        more = draw(m, ell, int(need * 1.05) + 16, rng)
        cols = ([np.concatenate([col, new]) for col, new in zip(cols, more)]
                if cols else more)
        order, starts = key_runs(row_keys(cols, 2 * m, digits=_identity))
        # the earliest draw of each distinct word, in word order (the
        # sort need not be stable)
        first = np.minimum.reduceat(order, starts)
        if len(first) >= k:
            break
        kept = np.sort(first)
        cols = [col[kept] for col in cols]
        need = k - len(first)
    # keep the first k distinct words drawn, still in word order
    last = np.partition(first, k - 1)[k - 1]
    kept = first[first <= last]
    out = np.empty((k, ell), dtype=np.int32)
    for j, col in enumerate(cols):
        out[:, j] = _codes_to_signed(col[kept])
    return out


def _sample_bernoulli(params: ModelParams, positive: bool) -> Presentation:
    """Each word of the universe is a relator with probability p: the
    cyclically reduced words of length ell, or with ``positive`` the
    m^ell positive words."""
    m, ell, p = params.m, params.ell, params.param
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability must lie in [0,1], got {p}")
    tag = "positive" if positive else "binomial"
    rng = make_rng(params.seed)
    n_universe = universe_size(m, ell, positive)
    # every path yields distinct rows in word order: the universe is
    # enumerated in that order
    if n_universe <= SMALL_UNIVERSE_MAX:
        matrix = _enumerate_universe_matrix(m, ell, positive)
        matrix = matrix[rng.random(n_universe) < p]
    else:
        k = _draw_relator_count(n_universe, p, rng)
        matrix = _sample_distinct(m, ell, k, positive, rng)
    return Presentation(m, ell, tag, p, params.seed, matrix)


sample_binomial = partial(_sample_bernoulli, positive=False)
sample_positive = partial(_sample_bernoulli, positive=True)


def uniform_count_size(m: int, ell: int, d: float) -> int:
    """floor((2m-1)^(ell*d)), with a tiny tolerance so exact powers stay exact."""
    if not 0.0 < d < 1.0:
        raise DomainError(f"density must lie in (0,1), got {d}")
    try:
        x = float(2 * m - 1) ** (ell * d)
    except OverflowError:  # past float range, so past MAX_RELATORS
        raise BudgetExceededError("sample", MAX_RELATORS, "(2m-1)^(ell*d) "
                                  f"at m={m}, ell={ell}, d={d}") from None
    nearest = round(x)
    if abs(x - nearest) < 1e-9 * max(1.0, abs(x)):
        return int(nearest)
    return int(math.floor(x))


def sample_uniform_count(params: ModelParams) -> Presentation:
    """Exactly floor((2m-1)^(ell*d)) distinct relators, uniform over all such sets."""
    m, ell, d = params.m, params.ell, params.param
    rng = make_rng(params.seed)
    k = uniform_count_size(m, ell, d)
    return Presentation(m, ell, "uniform_count", d, params.seed,
                        _sample_distinct(m, ell, k, False, rng))


SAMPLERS = {
    "binomial": sample_binomial,
    "positive": sample_positive,
    "uniform_count": sample_uniform_count,
}


def sample(model_tag: str, params: ModelParams) -> Presentation:
    try:
        return SAMPLERS[model_tag](params)
    except KeyError:
        raise DomainError(f"unknown model tag {model_tag!r}") from None


# ---------------------------------------------------------------------------
# file format
#
# line 1:  m ell model_tag param seed
# then one relator per line as whitespace-separated signed integers; a
# token is anything int() reads, and the first bad line is reported


# rows written per text block
_SAVE_BLOCK = 8192


def _ascii_items(values: np.ndarray, sep: bytes, width: int) -> np.ndarray:
    """Each value's decimal text followed by sep, as NUL-padded "S" items.

    The first of the `width` text bytes holds the sign, and the digits
    end at the last one; the NUL bytes between them are padding.
    """
    out = np.empty((len(values), width + len(sep)), dtype=np.uint8)
    out[:, 0] = np.where(values < 0, ord("-"), 0)
    # numpy divides uint64 by a scalar faster than int64
    a = np.abs(values.astype(np.int64)).astype(np.uint64)
    for k in range(width - 1, 0, -1):
        q = a // 10
        # leading zeros are padding; 0 itself keeps its units digit
        out[:, k] = np.where((a > 0) | (k == width - 1), a - q * 10 + ord("0"),
                             0)
        a = q
    out[:, width:] = np.frombuffer(sep, dtype=np.uint8)
    return out.view(f"S{out.shape[1]}").ravel()


def rows_text(matrix: np.ndarray, seps: tuple[str, ...]) -> Iterator[str]:
    """The rows of a 2-D int matrix as ASCII text, in blocks of _SAVE_BLOCK rows.

    Each value is written as ``str(int(value))`` followed by the
    separator of its column, ``seps[j]`` for column j; nothing else is
    written, so the last column's separator also ends the row. A block
    is a gather from "S" items, one per value and separator, whose NUL
    padding is then dropped. When the matrix holds at least four values
    per table entry, one table per separator covers -top..top, top the
    largest absolute value, and is built once. Otherwise each block's
    values are formatted on their own, so no table grows with top.
    """
    if not matrix.size:
        return
    top = max(int(matrix.max()), -int(matrix.min()))
    width = len(str(top)) + 1
    seps = tuple(sep.encode("ascii") for sep in seps)
    item = f"S{width + max(map(len, seps))}"
    tables = None
    if (2 * top + 1) * len(set(seps)) <= matrix.size // 4:
        values = np.arange(-top, top + 1)
        tables = {sep: _ascii_items(values, sep, width) for sep in set(seps)}
    for lo in range(0, matrix.shape[0], _SAVE_BLOCK):
        block = matrix[lo:lo + _SAVE_BLOCK]
        out = np.empty(block.shape, dtype=item)
        for j, sep in enumerate(seps):
            if tables is None:
                out[:, j] = _ascii_items(block[:, j], sep, width)
            else:
                out[:, j] = tables[sep][block[:, j].astype(np.intp) + top]
        yield out.tobytes().translate(None, b"\0").decode("ascii")


def save_presentation(pres: Presentation, fh: IO[str]) -> None:
    fh.write(f"{pres.m} {pres.ell} {pres.model_tag} {pres.param!r} {pres.seed}\n")
    fh.writelines(rows_text(pres.relator_matrix,
                            (" ",) * (pres.ell - 1) + ("\n",)))


def load_presentation(fh: IO[str]) -> Presentation:
    header = fh.readline()
    if not header.strip():
        raise PresentationFormatError(1, "missing header line")
    parts = header.split()
    if len(parts) != 5:
        raise PresentationFormatError(
            1, f"header needs 5 fields (m ell model_tag param seed), got {len(parts)}")
    try:
        m, ell = int(parts[0]), int(parts[1])
        tag = parts[2]
        param = float(parts[3])
        seed = int(parts[4])
    except ValueError as exc:
        raise PresentationFormatError(1, f"malformed header: {exc}") from None
    if tag not in MODEL_TAGS:
        raise PresentationFormatError(1, f"unknown model tag {tag!r}")
    if m < 1 or ell < 1:
        raise PresentationFormatError(1, f"need m >= 1 and ell >= 1, got m={m} ell={ell}")
    matrix = _parse_body(fh.read(), m, ell, tag)
    return Presentation(m, ell, tag, param, seed, _sorted_distinct_rows(matrix, m))


def _parse_line(line: str, lineno: int, m: int, ell: int, tag: str) -> Word | None:
    """One body line by the file's rules: its word, None if blank, or the error."""
    if not line.strip():
        return None
    try:
        w = tuple(int(tok) for tok in line.split())
    except ValueError:
        raise PresentationFormatError(lineno, f"malformed relator {line.strip()!r}") from None
    if len(w) != ell:
        raise PresentationFormatError(
            lineno, f"relator length {len(w)}, expected {ell}")
    # letters past int32 cannot be stored in the relator matrix
    top = min(m, _INT32_MAX)
    if any(x == 0 or abs(x) > top for x in w):
        raise PresentationFormatError(lineno, f"letter out of range in {w}")
    if not is_cyclically_reduced(w):
        raise PresentationFormatError(lineno, f"relator {w} is not cyclically reduced")
    if tag == "positive" and any(x < 0 for x in w):
        raise PresentationFormatError(lineno, f"negative letter in positive model: {w}")
    return w


def _parse_body(body: str, m: int, ell: int, tag: str) -> np.ndarray:
    """The relator matrix of a file body (the lines after the header).

    numpy reads a body of ell int32 tokens per non-blank line, and non-
    ASCII characters reach it as "?". Any body it rejects, or whose rows
    fail a check, is parsed by _parse_line, which raises the first bad
    line's error or loads tokens such as "1_0" that numpy does not read.
    """
    if not body.strip():
        return np.empty((0, ell), dtype=np.int32)
    try:
        with warnings.catch_warnings():
            # older numpy reads "2.0" as an int with only a warning
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(io.BytesIO(body.encode("ascii", "replace")),
                              dtype=np.int32, comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        rows = None
    if rows is not None and rows.shape[1] == ell:
        # -2^31 is its own negation, so the range test avoids np.abs
        top = min(m, _INT32_MAX)
        fault = ((rows == 0) | (rows > top) | (rows < -top)).any(axis=1)
        fault |= (rows[:, 1:] == -rows[:, :-1]).any(axis=1)
        fault |= rows[:, -1] == -rows[:, 0]
        if tag == "positive":
            fault |= (rows < 0).any(axis=1)
        if not fault.any():
            return rows
    words = [w for i, line in enumerate(body.split("\n"))
             if (w := _parse_line(line, i + 2, m, ell, tag)) is not None]
    return np.array(words, dtype=np.int32).reshape(-1, ell)
