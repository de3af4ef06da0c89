"""Freeness certificates by iterated generator elimination.

If some generator a has exactly one occurrence (as a or a^-1) across
the whole relator set, the relator r holding it expresses a in terms of
the other generators: dropping both a and r is a Tietze move, so the
group is unchanged up to isomorphism. Repeating until no relators
remain certifies the group free of rank m - |R|. The certificate is the
exact sequence of (generator, relator) steps and can be replayed by an
independent checker. The search keeps each step as a generator and a
relator id, and the certificate makes the (generator, relator) tuples
the first time they are read, so a trial that needs only the verdict
and the rank never builds them.

Elimination can stall; that is a legitimate outcome carrying no verdict
on the group itself (downstream it is reported as Unknown, possibly
with a splitting witness from unused generators).

Order convention: always eliminate the smallest admissible generator
index. The admissible relator is then forced, since the generator's
single occurrence pins it. A fixed order makes certificates a pure
function of the presentation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

import numpy as np

from .hypergraph import build
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
    def _from_order(cls, gens: list[int], rids: list[int],
                    matrix: np.ndarray, final_rank: int
                    ) -> "EliminationCertificate":
        cert = cls.__new__(cls)
        object.__setattr__(cert, "final_rank", final_rank)
        object.__setattr__(cert, "_order", (gens, rids, matrix))
        return cert

    def __getattr__(self, name: str):
        # normal lookup failed: the steps of a certificate from
        # _from_order before their first read, or no such attribute
        order = self.__dict__.get("_order") if name == "steps" else None
        if order is None:
            raise AttributeError(name)
        gens, rids, matrix = order
        steps = tuple(zip(gens, map(tuple, matrix[rids].tolist())))
        object.__setattr__(self, "steps", steps)
        return steps

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
    """

    __slots__ = ("remaining_matrix", "remaining_generators", "reason",
                 "rank_negative", "_remaining")

    def __init__(self, remaining_matrix: np.ndarray,
                 remaining_generators: tuple[int, ...], reason: str):
        if len(remaining_matrix) == 0:
            raise ValueError("a stuck report needs at least one relator")
        self.remaining_matrix = remaining_matrix
        self.remaining_generators = remaining_generators
        self.reason = reason
        self.rank_negative = len(remaining_matrix) > len(remaining_generators)
        self._remaining: Optional[tuple[Word, ...]] = None

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
                f"n_generators={len(self.remaining_generators)}, "
                f"rank_negative={self.rank_negative})")

    def to_json_dict(self) -> dict:
        return {
            "stuck": True,
            "reason": self.reason,
            "remaining_generators": list(self.remaining_generators),
            "remaining_relators": self.remaining_matrix.tolist(),
            "rank_negative": self.rank_negative,
        }


def certify_free(pres: Presentation) -> EliminationCertificate | StuckReport:
    """Run the elimination to completion or to a stuck state.

    Incidence bookkeeping starts from the shared incidence index
    (hypergraph.build) and is incremental: per-generator occurrence
    totals plus the sum of relator ids over occurrences. When a
    generator's total hits 1 the id sum IS the id of its relator, so
    each step costs O(ell log m) and a million-relator presentation
    that stalls immediately is detected in one pass, converting no
    array to a list.

    Invariant: counts never rise, and an eliminated generator ends at
    0, so ``counts[g] == 1`` alone makes g admissible, and every
    admissible generator is on the heap. A generator that occurs twice
    in a step's relator can be pushed as its count passes through 1 on
    the way to 0; it is dead when popped and skipped. A step records
    only its generator and relator id; the certificate builds its
    ``steps`` tuple the first time it is read.
    """
    m = pres.m
    k0 = len(pres)
    if k0 == 0:
        return EliminationCertificate(steps=(), final_rank=m)

    mat = pres.relator_matrix
    index = build(pres)
    heap = np.flatnonzero(index.counts == 1).tolist()  # ascending, so a heap
    gens: list[int] = []
    rids: list[int] = []
    if heap:
        ell = pres.ell
        flat = index.gens.ravel()
        # int64, because a float64 sum of ids is exact only while
        # ell * k^2 < 2^53, which MAX_RELATORS rows can exceed
        rid_sum = np.zeros(m + 1, dtype=np.int64)
        np.add.at(rid_sum, flat, np.repeat(np.arange(k0, dtype=np.int64), ell))
        # Python ints: a step updates ell entries
        rid_sum = rid_sum.tolist()
        counts = index.counts.tolist()
        rows = flat.tolist()  # relator i is rows[i * ell:(i + 1) * ell]
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

    if len(rids) == k0:
        return EliminationCertificate._from_order(gens, rids, mat, m - k0)
    active_rel = np.ones(k0, dtype=bool)
    active_rel[rids] = False
    active_gen = np.ones(m + 1, dtype=bool)
    active_gen[0] = False
    active_gen[gens] = False
    return StuckReport(mat[active_rel],
                       tuple(np.flatnonzero(active_gen).tolist()),
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
