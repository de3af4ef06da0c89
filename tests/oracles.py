"""Slow reference implementations that the tests hold the package to.

Each one is the plain, definitional version of something the package
computes a faster way: the verdict cascade as ``check-fa`` first wrote
it, the letter-condition search that walks every candidate set, the
split condition screened over all 2^m splits at once,
generator elimination by rescanning the relators, the incremental
elimination loop as ``certify_free`` first wrote it, relator types,
hypergraph supports, components by union-find, the canonical relator
class, a word's inverse and text form, the word order as a sort key,
the list of all cyclically reduced words of a length, one uniform
cyclically reduced word drawn at a time, the rank mod p of a whole dense integer matrix, the
determinant by fraction-free elimination, and the presentation file
and ``certify-free`` JSON as they were first written, a Python format
per letter and ``json.dumps`` of Python lists.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from itertools import combinations
from typing import IO, Iterable, Optional, Union

import numpy as np

from randgroup._modrank import PRIME_A, _eliminate
from randgroup.errors import (BudgetExceededError, DomainError,
                              EmptyWordError, LengthMismatchError,
                              NotCyclicallyReducedError)
from randgroup.fa_certificates import (DEFAULT_EPSILON, L_NODE_BUDGET,
                                       SL_MAX_M, VERDICT_FA, VERDICT_FREE,
                                       VERDICT_SPLITS, VERDICT_UNKNOWN,
                                       LWitness, SLWitness,
                                       _as_eps, _partition_cap, _set_size,
                                       check_L_exact, unused_generators)
from randgroup.freeness import (EliminationCertificate, StuckReport,
                                certify_free)
from randgroup.hypergraph import SupportHypergraph, _component_labels, build
from randgroup.model import (Presentation, _codes_to_signed,
                             _uniform_code_columns)
from randgroup.words import (Word, count_cyclically_reduced,
                             is_cyclically_reduced, iter_cyclically_reduced,
                             validate_word)


# ------------------------------------------------------------- verdicts

def reference_fa_verdict(pres: Presentation, eps=DEFAULT_EPSILON) -> dict:
    """Composite verdict, cheap structure first, as check-fa's JSON
    object with a free verdict's certificate as an object.

    A freeness certificate beats everything; unused generators come
    next and witness a free splitting; both exhaustive conditions
    passing certify a fixed point for tree actions. The two searches
    are only meaningful for all-positive relators, so signed
    presentations that fail the first two stages come back Unknown,
    and so does a search past its budget or an m past SL_MAX_M.
    """
    eps = _as_eps(eps)
    report = {"verdict": VERDICT_UNKNOWN, "rank": None,
              "unused_generators": [], "free_certificate": None,
              "l_holds": None, "sl_holds": None,
              "l_witness": None, "sl_witness": None,
              "epsilon": str(eps),
              "exploratory_epsilon": eps != DEFAULT_EPSILON,
              "budget_exceeded": False}
    cert = certify_free(pres)
    if isinstance(cert, EliminationCertificate):
        return report | {"verdict": VERDICT_FREE, "rank": cert.final_rank,
                         "free_certificate": cert}
    unused = unused_generators(pres)
    if len(unused):
        return report | {"verdict": VERDICT_SPLITS,
                         "unused_generators": unused.tolist()}
    if not pres.all_positive:
        return report
    try:
        l_res = check_L_exact(pres, eps)
    except BudgetExceededError:
        l_res = None
    if l_res is None or pres.m > SL_MAX_M:
        return report | {"budget_exceeded": True}
    sl_res = reference_check_SL(pres, eps)
    l_ok = l_res == "holds"
    sl_ok = sl_res == "holds"
    return report | {
        "verdict": VERDICT_FA if l_ok and sl_ok else VERDICT_UNKNOWN,
        "l_holds": l_ok, "sl_holds": sl_ok,
        "l_witness": None if l_ok else l_res.to_json_dict(),
        "sl_witness": None if sl_ok else sl_res.to_json_dict()}


# ----------------------------------------------------- letter condition

def reference_check_L(pres: Presentation, eps=DEFAULT_EPSILON,
                      budget: int = L_NODE_BUDGET
                      ) -> tuple[Union[str, LWitness], int]:
    """The letter-condition search walking every candidate set.

    Same search, memo and witness as ``check_L_exact``, but the last
    position loops over its candidate sets one by one instead of
    counting them. Returns the result with the number of candidate sets
    visited, the quantity ``budget`` bounds.
    """
    eps = _as_eps(eps)
    m, ell = pres.m, pres.ell
    s = _set_size(eps, m)
    letters = pres.relator_matrix
    k = len(letters)
    default_set = tuple(range(1, s + 1))
    if k == 0:
        return LWitness(sets=(default_set,) * ell), 0

    masks = [{} for _ in range(ell)]
    for i in range(ell):
        for rid, g in enumerate(letters[:, i].tolist()):
            masks[i][g] = masks[i].get(g, 0) | (1 << rid)

    nodes = 0
    dead: set[tuple[int, int]] = set()

    def pad(avoid: dict, count: int) -> tuple[int, ...]:
        return tuple(g for g in range(1, m + 1) if g not in avoid)[:count]

    def dfs(i: int, compatible: int, chosen: list) -> Optional[list]:
        nonlocal nodes
        if compatible == 0:
            return chosen + [default_set] * (ell - i)
        if i == ell or (i, compatible) in dead:
            return None
        live = {g: bm for g, bm in masks[i].items() if bm & compatible}
        t_min = s - (m - len(live))
        if t_min <= 0:
            return chosen + [pad(live, s)] + [default_set] * (ell - i - 1)
        filler = pad(live, s - t_min)
        for T in combinations(sorted(live), t_min):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    "check_L_exact", budget,
                    f"search exceeded {budget} nodes at m={m}, s={s}")
            hit = 0
            for g in T:
                hit |= live[g]
            got = dfs(i + 1, compatible & hit,
                      chosen + [tuple(sorted(T + filler))])
            if got is not None:
                return got
        dead.add((i, compatible))
        return None

    found = dfs(0, (1 << k) - 1, [])
    return ("holds" if found is None else LWitness(sets=tuple(found))), nodes


# ------------------------------------------------------ split condition

def reference_check_SL(pres: Presentation,
                       eps=DEFAULT_EPSILON) -> Union[str, SLWitness]:
    """The split condition screened over all 2^m splits at once.

    A subset-sum transform collects, for every complement W, the set of
    first letters whose relator tail fits inside W. The unmatched split
    with the smallest U bitmask is the witness. It holds about 23 bytes
    per split (1.5 GB at m = 26), and its masks hold m <= 32 only.
    """
    eps = _as_eps(eps)
    m = pres.m
    cap = _partition_cap(eps, m)
    size = 1 << m

    # firsts[W] = first letters of relators whose whole tail lies in W
    firsts = np.zeros(size, dtype=np.uint32)
    if len(pres):
        mat = pres.relator_matrix
        first = mat[:, 0].astype(np.int64)
        tails = np.zeros(len(mat), dtype=np.int64)
        for i in range(1, pres.ell):
            tails |= np.int64(1) << (mat[:, i].astype(np.int64) - 1)
        fl = np.uint32(1) << (first - 1).astype(np.uint32)
        np.bitwise_or.at(firsts, tails, fl)
        for b in range(m):
            shaped = firsts.reshape(-1, 2, 1 << b)
            shaped[:, 1, :] |= shaped[:, 0, :]

    all_u = np.arange(size, dtype=np.uint32)
    pop = np.zeros(size, dtype=np.uint8)
    for b in range(m):
        pop += ((all_u >> b) & 1).astype(np.uint8)
    eligible = (pop >= 1) & (pop <= cap)
    matched = (all_u & firsts[(size - 1) ^ all_u]) != 0
    bad = eligible & ~matched
    if not bad.any():
        return "holds"
    u_mask = int(np.flatnonzero(bad)[0])
    u = tuple(g + 1 for g in range(m) if u_mask >> g & 1)
    v = tuple(g + 1 for g in range(m) if not u_mask >> g & 1)
    return SLWitness(U=u, V=v)


# ---------------------------------------------------------- elimination

def find_elimination(
    relators: Iterable[Word],
    active_generators: Optional[Iterable[int]] = None,
) -> Optional[tuple[int, Word]]:
    """Smallest generator with a single occurrence overall, with its relator.

    Returns None when every generator occurs zero or at least two times.
    """
    rels = list(relators)
    counts = Counter(abs(x) for r in rels for x in r)
    allowed = None if active_generators is None else set(active_generators)
    candidates = [g for g, c in counts.items()
                  if c == 1 and (allowed is None or g in allowed)]
    if not candidates:
        return None
    g = min(candidates)
    # the single occurrence pins the relator
    r = next(r for r in rels if any(abs(x) == g for x in r))
    return g, r


def naive_certify(pres: Presentation) -> EliminationCertificate | StuckReport:
    """Reference elimination built directly on find_elimination."""
    rels = list(pres.relators)
    active = set(range(1, pres.m + 1))
    steps: list[tuple[int, Word]] = []
    while rels:
        hit = find_elimination(rels, active)
        if hit is None:
            matrix = np.array(sorted(rels, key=word_key), dtype=np.int64)
            return StuckReport(matrix, tuple(sorted(active)),
                               reason="no admissible generator-relator pair")
        g, r = hit
        steps.append((g, r))
        rels.remove(r)
        active.discard(g)
    return EliminationCertificate(steps=tuple(steps),
                                  final_rank=pres.m - len(pres))


def reference_certify_free(pres: Presentation
                           ) -> EliminationCertificate | StuckReport:
    """certify_free's elimination loop before it kept int lists only:
    per-step active masks, row lists and a set of touched generators,
    with every step tuple built as it is taken."""
    m = pres.m
    k0 = len(pres)
    if k0 == 0:
        return EliminationCertificate(steps=(), final_rank=m)

    mat = pres.relator_matrix
    index = build(pres)
    heap = np.flatnonzero(index.counts == 1).tolist()  # ascending, so a heap
    counts = index.counts.tolist()
    rid_of_cell = np.repeat(np.arange(k0, dtype=np.int64), pres.ell)
    # int64, because a float64 sum of ids is exact only while
    # ell * k^2 < 2^53, which MAX_RELATORS rows can exceed
    rid_sum = np.zeros(m + 1, dtype=np.int64)
    np.add.at(rid_sum, index.gens.ravel(), rid_of_cell)
    rid_sum = rid_sum.tolist()  # Python ints: a step updates ell entries

    active_gen = np.ones(m + 1, dtype=bool)
    active_gen[0] = False
    active_rel = np.ones(k0, dtype=bool)

    steps: list[tuple[int, Word]] = []
    remaining = k0
    while remaining:
        g = None
        while heap:
            cand = heapq.heappop(heap)
            if active_gen[cand] and counts[cand] == 1:
                g = cand
                break
        if g is None:
            rem_matrix = mat[active_rel]
            rem_gens = tuple(int(v) for v in np.nonzero(active_gen)[0])
            return StuckReport(rem_matrix, rem_gens,
                               reason="no admissible generator-relator pair")
        rid = rid_sum[g]
        word = mat[rid].tolist()
        steps.append((g, tuple(word)))
        row = [abs(x) for x in word]
        for x in row:
            counts[x] -= 1
            rid_sum[x] -= rid
        active_gen[g] = False
        active_rel[rid] = False
        remaining -= 1
        for cand in set(row):
            if active_gen[cand] and counts[cand] == 1:
                heapq.heappush(heap, cand)

    return EliminationCertificate(steps=tuple(steps), final_rank=m - k0)


# ----------------------------------------------------------- hypergraph

def classify_type(r: Word, ell: int) -> int:
    """1, 2, or 3 by the number of distinct generators in the relator."""
    if len(r) != ell:
        raise LengthMismatchError(f"relator length {len(r)}, expected {ell}")
    distinct = len({abs(x) for x in r})
    if distinct == ell:
        return 3
    if distinct == ell - 1:
        return 2
    return 1


def support(h: SupportHypergraph, relator_id: int) -> frozenset[int]:
    return frozenset(int(g) for g in h.gens[relator_id])


def reference_component_labels(m: int, rows) -> tuple[int, list[int]]:
    """Components of vertices 1..m joined by the edges ``rows``, by
    union-find, labelled 0, 1, ... in order of first appearance along 1..m."""
    root = list(range(m + 1))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for row in rows:
        a = find(int(row[0]))
        for v in row[1:]:
            b = find(int(v))
            if b != a:
                root[b] = a
    seen: dict[int, int] = {}
    labels = [seen.setdefault(find(v), len(seen)) for v in range(1, m + 1)]
    return len(seen), labels


def components(h: SupportHypergraph) -> list[list[int]]:
    """Partition of {1..m} into connected components of the uniform part."""
    n, labels = _component_labels(h.m, h.uniform_edge_rows())
    out: list[list[int]] = [[] for _ in range(n)]
    for v in range(h.m):
        out[labels[v]].append(v + 1)
    return out


# ---------------------------------------------------------------- words

DEFAULT_ENUMERATION_CAP = 10**7


def letter_key(letter: int) -> tuple[int, int]:
    """Sort key realizing the letter order 1 < -1 < 2 < -2 < ..."""
    return (abs(letter), 0 if letter > 0 else 1)


def word_key(word: Word) -> tuple[tuple[int, int], ...]:
    """Lexicographic sort key for a word."""
    return tuple(letter_key(x) for x in word)


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


def inverse_word(word: Word) -> Word:
    """The formal inverse: reversed word with every letter negated."""
    return tuple(-x for x in reversed(word))


def word_from_text(text: str) -> Word:
    """Parse the space-separated signed integer form; validates letters."""
    parts = text.split()
    if not parts:
        raise EmptyWordError("empty word text")
    try:
        word = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"malformed word text {text!r}") from exc
    validate_word(word)
    return word


def sample_uniform_word(m: int, ell: int, rng: np.random.Generator) -> Word:
    """One word uniform over all cyclically reduced words of length ell.

    Builds a uniform reduced word (first letter free, each next letter
    uniform over the 2m-1 non-cancelling choices) and rejects until the
    wrap-around constraint holds; acceptance is at least 1/2, so the
    expected number of attempts is at most 2.

    Each attempt makes one draw x uniform on [0, span), where
    span = 2m * (2m-1)^(ell-1) counts the reduced words, and reads x in
    mixed radix: the lowest digit, base 2m, is the first letter code and
    each further digit, base 2m-1, is the next letter's rank among the
    non-cancelling choices. The digits of a uniform x over a product of
    radices are independent and uniform, so this is exactly the
    letter-by-letter construction. When span exceeds 2^63 - 1 it cannot
    be drawn as one int64, and each letter is drawn separately instead.
    """
    if m < 1 or ell < 1:
        raise DomainError("need m >= 1 and ell >= 1")
    first, rest = 2 * m, 2 * m - 1
    span = first * rest ** (ell - 1)
    while True:
        if span <= 2**63 - 1:
            x, c = divmod(int(rng.integers(0, span)), first)
            codes = [c]
            for _ in range(ell - 1):
                x, r = divmod(x, rest)
                codes.append(r if r < codes[-1] ^ 1 else r + 1)
        else:
            codes = [int(rng.integers(0, first))]
            for _ in range(ell - 1):
                r = int(rng.integers(0, rest))
                codes.append(r if r < codes[-1] ^ 1 else r + 1)
        if ell == 1 or codes[-1] != codes[0] ^ 1:
            signed = tuple(
                (c >> 1) + 1 if c & 1 == 0 else -((c >> 1) + 1) for c in codes
            )
            return signed


def sample_uniform_words_matrix(m: int, ell: int, size: int,
                                rng: np.random.Generator) -> np.ndarray:
    """Vectorized batch of i.i.d. uniform cyclically reduced words, the
    samplers' own letter-code draw turned into signed letters.

    Returns a (size, ell) int32 matrix of signed letters; rows are
    independent draws (duplicates possible).
    """
    if m < 1 or ell < 1:
        raise DomainError("need m >= 1 and ell >= 1")
    if size == 0:
        return np.empty((0, ell), dtype=np.int32)
    return _codes_to_signed(np.stack(_uniform_code_columns(m, ell, size, rng),
                                     axis=1))


def rotations(word: Word) -> list[Word]:
    return [word[i:] + word[:i] for i in range(len(word))]


def canonical_class(word: Word) -> Word:
    """Lexicographically least word among all rotations of the word and of its inverse.

    This is a canonical representative of the relator's equivalence class
    (the group relation is unchanged by cyclic rotation and by inversion).
    Requires a cyclically reduced input; rotations then stay cyclically
    reduced, so the minimum is well defined within the class.
    """
    if len(word) == 0:
        raise EmptyWordError("empty word")
    if not is_cyclically_reduced(word):
        raise NotCyclicallyReducedError(f"word {word} is not cyclically reduced")
    candidates = rotations(word) + rotations(inverse_word(word))
    return min(candidates, key=word_key)


# ------------------------------------------------------------------ rank

def rank_mod_p(A: np.ndarray, p: int = PRIME_A) -> int:
    """Rank of a whole integer matrix over the field with p elements,
    through the package's blocked float64 elimination."""
    if A.size == 0:
        return 0
    M = np.ascontiguousarray(np.asarray(A, dtype=np.int64) % p, dtype=np.float64)
    return _eliminate(M, p)


def bareiss_det(a) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: every division is exact, so Python ints stay integral
    and no larger than a minor."""
    rows = [[int(x) for x in row] for row in a]
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k]
                              - rows[i][k] * rows[k][j]) // prev
        prev = rows[k][k]
    return sign * prev


# -------------------------------------------------------------- writers

def reference_save_presentation(pres: Presentation, fh: IO[str]) -> None:
    """The presentation file by one "%d" per letter, 8192 rows a write."""
    fh.write(f"{pres.m} {pres.ell} {pres.model_tag} {pres.param!r} "
             f"{pres.seed}\n")
    line = " ".join(["%d"] * pres.ell) + "\n"
    matrix = pres.relator_matrix
    for lo in range(0, matrix.shape[0], 8192):
        block = matrix[lo:lo + 8192]
        fh.write((line * block.shape[0]) % tuple(block.ravel().tolist()))


def reference_report_json(report: Union[EliminationCertificate, StuckReport]
                          ) -> str:
    """The ``certify-free`` output line of a certificate or stuck report."""
    return json.dumps(report.to_json_dict(), sort_keys=True) + "\n"
