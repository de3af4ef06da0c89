"""Freeness certificates by iterated generator elimination.

If some generator a has exactly one occurrence (as a or a^-1) across
the whole relator set, the relator r holding it expresses a in terms of
the other generators: dropping both a and r is a Tietze move, so the
group is unchanged up to isomorphism. Repeating until no relators
remain certifies the group free of rank m - |R|. The certificate is the
exact sequence of (generator, relator) steps and can be replayed by an
independent checker.

Elimination can stall; that is a legitimate outcome carrying no verdict
on the group itself (downstream it is reported as Unknown, possibly
with a splitting witness from unused generators).

Order convention: the relators left at a stall are the largest set in
which no generator occurs exactly once. Such sets are closed under
union and no elimination step removes a relator of one, so every order
stalls at the same set, and the verdict, the final rank and the
residue come from a peel that needs no order. The steps, and the
generators left at a stall, do depend on the order. They follow one
convention: always eliminate the smallest admissible generator index
(the admissible relator is then forced, since the generator's single
occurrence pins it), which makes them a pure function of the
presentation. That ordered loop runs on the first read of
``EliminationCertificate.steps`` (or ``step_matrix``) or of the
generators left in a ``StuckReport``, so a caller that needs only the
verdict never runs it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

import numpy as np

from .hypergraph import SupportHypergraph, build
from .model import Presentation
from .words import Word


@dataclass(frozen=True)
class EliminationCertificate:
    """The (generator, relator) steps of an elimination, and the rank.

    From ``certify_free``, ``steps`` is built the first time it is
    read. Equality, hashing and ``dataclasses.replace`` read it.
    """
    steps: tuple[tuple[int, Word], ...]
    final_rank: int

    @classmethod
    def _from_core(cls, pres: Presentation, final_rank: int
                   ) -> "EliminationCertificate":
        cert = cls.__new__(cls)
        object.__setattr__(cert, "final_rank", final_rank)
        object.__setattr__(cert, "_pres", pres)
        return cert

    def __getattr__(self, name: str):
        # normal lookup failed: the steps of a certificate from
        # _from_core before their first read, or no such attribute
        pres = self.__dict__.get("_pres") if name == "steps" else None
        if pres is None:
            raise AttributeError(name)
        gens, rids = _elimination_order(pres)
        rows = pres.relator_matrix[rids].tolist()
        steps = tuple(zip(gens, map(tuple, rows)))
        object.__setattr__(self, "steps", steps)
        del self.__dict__["_pres"]
        return steps

    def step_matrix(self) -> np.ndarray:
        """The steps as int64 rows [generator | relator].

        Before ``steps`` is first read, this runs the ordered loop
        without building the step tuples, and keeps none of it.
        """
        pres = self.__dict__.get("_pres")
        if pres is not None:
            gens, rids = _elimination_order(pres)
            return np.column_stack((np.array(gens, dtype=np.int64),
                                    pres.relator_matrix[rids]))
        if not self.steps:
            return np.empty((0, 1), dtype=np.int64)
        return np.array([(g, *r) for g, r in self.steps], dtype=np.int64)

    def to_json_dict(self) -> dict:
        return {
            "steps": [{"generator": g, "relator": list(r)}
                      for g, r in self.steps],
            "final_rank": self.final_rank,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "EliminationCertificate":
        steps = tuple((int(s["generator"]), tuple(int(x) for x in s["relator"]))
                      for s in d["steps"])
        return cls(steps=steps, final_rank=int(d["final_rank"]))


class StuckReport:
    """Irreducible residue left when no admissible pair exists.

    rank_negative flags the regime where more relators remain than
    generators, so no elimination order could ever have finished.
    From ``certify_free``, the remaining generators are found the first
    time they are read, and held as an int64 array: the
    ``remaining_generators`` tuple is built from it on each read.
    """

    __slots__ = ("remaining_matrix", "reason", "_generators",
                 "_n_generators", "_pres", "_remaining")

    def __init__(self, remaining_matrix: np.ndarray,
                 remaining_generators: tuple[int, ...], reason: str):
        if len(remaining_matrix) == 0:
            raise ValueError("a stuck report needs at least one relator")
        self.remaining_matrix = remaining_matrix
        self.reason = reason
        self._generators: Optional[np.ndarray] = np.array(
            remaining_generators, dtype=np.int64)
        self._n_generators = len(remaining_generators)
        self._pres: Optional[Presentation] = None
        self._remaining: Optional[tuple[Word, ...]] = None

    @classmethod
    def _from_core(cls, pres: Presentation, remaining_matrix: np.ndarray,
                   n_generators: int, reason: str) -> "StuckReport":
        rep = cls(remaining_matrix, (), reason)
        rep._generators, rep._n_generators = None, n_generators
        rep._pres = pres
        return rep

    @property
    def rank_negative(self) -> bool:
        return self.n_remaining > self._n_generators

    def _generator_array(self) -> np.ndarray:
        if self._generators is None:
            gens, _ = _elimination_order(self._pres)
            active = np.ones(self._pres.m + 1, dtype=bool)
            active[0] = False
            active[gens] = False
            self._generators = np.flatnonzero(active)
            self._pres = None
        return self._generators

    @property
    def remaining_generators(self) -> tuple[int, ...]:
        return tuple(self._generator_array().tolist())

    @property
    def remaining_relators(self) -> tuple[Word, ...]:
        if self._remaining is None:
            self._remaining = tuple(
                tuple(int(x) for x in row) for row in self.remaining_matrix)
        return self._remaining

    @property
    def n_remaining(self) -> int:
        return len(self.remaining_matrix)

    def __repr__(self) -> str:
        return (f"StuckReport(n_remaining={self.n_remaining}, "
                f"n_generators={self._n_generators}, "
                f"rank_negative={self.rank_negative})")

    def json_fields(self) -> dict:
        """The JSON fields, with the generators and relators left as
        int arrays, so a writer can stream them."""
        return {
            "stuck": True,
            "reason": self.reason,
            "remaining_generators": self._generator_array(),
            "remaining_relators": self.remaining_matrix,
            "rank_negative": self.rank_negative,
        }

    def to_json_dict(self) -> dict:
        return {key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in self.json_fields().items()}


def _rid_sums(index: SupportHypergraph, k0: int) -> np.ndarray:
    """Per generator, the sum of the relator ids over its occurrences;
    while a generator occurs once, this is the id of its relator."""
    # int64, because a float64 sum of ids is exact only while
    # ell * k^2 < 2^53, which MAX_RELATORS rows can exceed
    rid_sum = np.zeros(index.m + 1, dtype=np.int64)
    np.add.at(rid_sum, index.gens.ravel(),
              np.repeat(np.arange(k0, dtype=np.int64), index.ell))
    return rid_sum


def _core(pres: Presentation) -> np.ndarray:
    """The mask of the relators that no elimination order removes.

    Peels one frontier per round: every generator with one occurrence
    left, at once. Their relators, once each, are cleared, and the
    letters of those relators are the only ones whose counts changed,
    so they hold the next frontier. Each relator's letters are
    subtracted once, so the peel costs O(ell |R|) beyond the index.
    """
    index = build(pres)
    k0 = len(pres)
    alive = np.ones(k0, dtype=bool)
    frontier = np.flatnonzero(index.counts == 1)
    if not len(frontier):
        return alive
    rid_sum = _rid_sums(index, k0)
    counts = index.counts.copy()
    while len(frontier):
        # two generators of one relator give its id twice: keep it once
        rids = np.sort(rid_sum[frontier])
        keep = np.ones(len(rids), dtype=bool)
        keep[1:] = rids[1:] != rids[:-1]
        rids = rids[keep]
        alive[rids] = False
        letters = index.gens[rids].ravel()
        np.subtract.at(counts, letters, 1)
        np.subtract.at(rid_sum, letters, np.repeat(rids, index.ell))
        frontier = letters[counts[letters] == 1]
    return alive


def _elimination_order(pres: Presentation) -> tuple[list[int], list[int]]:
    """The generators and relator ids of the steps, in the order of the
    smallest admissible generator first.

    Incidence bookkeeping starts from the shared incidence index
    (hypergraph.build) and is incremental: per-generator occurrence
    totals plus the sum of relator ids over occurrences. When a
    generator's total hits 1 the id sum IS the id of its relator, so
    each step costs O(ell log m).

    Invariant: counts never rise, and an eliminated generator ends at
    0, so ``counts[g] == 1`` alone makes g admissible, and every
    admissible generator is on the heap. A generator that occurs twice
    in a step's relator can be pushed as its count passes through 1 on
    the way to 0; it is dead when popped and skipped.
    """
    index = build(pres)
    heap = np.flatnonzero(index.counts == 1).tolist()  # ascending, so a heap
    gens: list[int] = []
    rids: list[int] = []
    if heap:
        ell = pres.ell
        # Python ints: a step updates ell entries
        rid_sum = _rid_sums(index, len(pres)).tolist()
        counts = index.counts.tolist()
        # relator i is rows[i * ell:(i + 1) * ell]
        rows = index.gens.ravel().tolist()
        while heap:
            g = heappop(heap)
            if counts[g] != 1:
                continue
            rid = rid_sum[g]
            gens.append(g)
            rids.append(rid)
            start = rid * ell
            for x in rows[start:start + ell]:
                c = counts[x] - 1
                counts[x] = c
                rid_sum[x] -= rid
                if c == 1:
                    heappush(heap, x)
    return gens, rids


def certify_free(pres: Presentation) -> EliminationCertificate | StuckReport:
    """Run the elimination to completion or to a stuck state.

    The verdict, the final rank, the residue and ``rank_negative`` come
    from the peel (``_core``), which no order changes: each step
    removes one generator and one relator, so a stall leaves
    m - (|R| - |core|) generators. A presentation that stalls at once
    is detected in one pass over the generator counts. The steps, and
    the generators left at a stall, come from the ordered loop
    (``_elimination_order``) on their first read.
    """
    m = pres.m
    k0 = len(pres)
    if k0 == 0:
        return EliminationCertificate(steps=(), final_rank=m)

    alive = _core(pres)
    n_core = int(np.count_nonzero(alive))
    if n_core == 0:
        return EliminationCertificate._from_core(pres, m - k0)
    return StuckReport._from_core(
        pres, pres.relator_matrix[alive], m - (k0 - n_core),
        reason="no admissible generator-relator pair")


def replay_certificate(pres: Presentation, cert: EliminationCertificate) -> bool:
    """Independent admissibility check of every step, from scratch.

    True only if each step eliminates a generator with exactly one
    occurrence across the then-remaining relators, that occurrence sits
    in the claimed relator, the relator is still present, and the steps
    consume the whole relator set with the stated final rank.
    """
    remaining = Counter(pres.relators)
    counts = Counter(abs(x) for r in pres.relators for x in r)
    eliminated: set[int] = set()

    for g, r in cert.steps:
        if not (1 <= g <= pres.m) or g in eliminated:
            return False
        if remaining[r] != 1:
            return False
        if counts[g] != 1:
            return False
        if sum(1 for x in r if abs(x) == g) != 1:
            return False
        del remaining[r]
        for x in r:
            counts[abs(x)] -= 1
        eliminated.add(g)

    if remaining:
        return False
    return cert.final_rank == pres.m - len(pres)
