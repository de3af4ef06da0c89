"""Slow reference implementations that the tests hold the package to.

Each one is the plain, definitional version of something the package
computes a faster way: the verdict cascade as ``check-fa`` first wrote
it, generator elimination by rescanning the relators, relator types,
hypergraph supports and components, and the canonical relator class.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

import numpy as np

from randgroup.errors import (BudgetExceededError, EmptyWordError,
                              LengthMismatchError, NotCyclicallyReducedError)
from randgroup.fa_certificates import (DEFAULT_EPSILON, VERDICT_FA,
                                       VERDICT_FREE, VERDICT_SPLITS,
                                       VERDICT_UNKNOWN, FAReport, _as_eps,
                                       check_L_exact, check_SL_exact,
                                       unused_generators)
from randgroup.freeness import (EliminationCertificate, StuckReport,
                                certify_free)
from randgroup.hypergraph import SupportHypergraph, _component_labels
from randgroup.model import Presentation
from randgroup.words import (Word, inverse_word, is_cyclically_reduced,
                             word_key)


# ------------------------------------------------------------- verdicts

def reference_fa_verdict(pres: Presentation, eps=DEFAULT_EPSILON) -> FAReport:
    """Composite verdict, cheap structure first.

    A freeness certificate beats everything; unused generators come
    next and witness a free splitting; both exhaustive conditions
    passing certify a fixed point for tree actions. The two searches
    are only meaningful for all-positive relators, so signed
    presentations that fail the first two stages come back Unknown.
    """
    eps = _as_eps(eps)
    exploratory = eps != DEFAULT_EPSILON
    cert = certify_free(pres)
    if isinstance(cert, EliminationCertificate):
        return FAReport(verdict=VERDICT_FREE, rank=cert.final_rank,
                        free_certificate=cert, epsilon=eps,
                        exploratory_epsilon=exploratory)
    unused = unused_generators(pres)
    if unused:
        return FAReport(verdict=VERDICT_SPLITS, unused_generators=unused,
                        epsilon=eps, exploratory_epsilon=exploratory)
    if not pres.all_positive:
        return FAReport(verdict=VERDICT_UNKNOWN, epsilon=eps,
                        exploratory_epsilon=exploratory)
    try:
        l_res = check_L_exact(pres, eps)
        sl_res = check_SL_exact(pres, eps)
    except BudgetExceededError:
        return FAReport(verdict=VERDICT_UNKNOWN, epsilon=eps,
                        exploratory_epsilon=exploratory, budget_exceeded=True)
    l_ok = l_res == "holds"
    sl_ok = sl_res == "holds"
    return FAReport(
        verdict=VERDICT_FA if l_ok and sl_ok else VERDICT_UNKNOWN,
        l_holds=l_ok, sl_holds=sl_ok,
        l_witness=None if l_ok else l_res,
        sl_witness=None if sl_ok else sl_res,
        epsilon=eps, exploratory_epsilon=exploratory)


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
    return frozenset(int(g) for g in h._gens_sorted[relator_id])


def components(h: SupportHypergraph) -> list[list[int]]:
    """Partition of {1..m} into connected components of the uniform part."""
    n, labels = _component_labels(h.m, h.uniform_edge_rows())
    out: list[list[int]] = [[] for _ in range(n)]
    for v in range(h.m):
        out[labels[v]].append(v + 1)
    return out


# ---------------------------------------------------------------- words

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
