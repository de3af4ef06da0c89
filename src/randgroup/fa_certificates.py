"""Exact certificates toward Property FA for positive presentations.

Two finite conditions are checked by exhaustive search with witness
extraction. The letter condition asks that every choice of one
size-s generator set per position hits some relator position-by-
position; a choice hit by no relator is returned as a witness. The
partition condition asks that every split of the generators into a
small side and its complement is matched by a relator whose first
letter lies on the small side and whose tail stays on the other; an
unmatched split is the witness.

Both hold together only in genuinely crowded relator sets, and in
that situation the group has a fixed point for every action on a
tree. ``experiments.decide_verdict`` runs them after the cheap
structural outcomes, and ``Decision.fa_report`` maps its result to
the ``FAReport`` that ``check-fa`` prints.

The search spaces are exponential in the worst case; node budgets
turn runaway instances into a typed error, which the verdict cascade
reports as an unknown with a flag rather than an answer. At the last
relator position the letter search counts its candidate sets in closed
form instead of walking them, since none of them can be a witness
there; the budget still counts every one of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional, Union

import numpy as np

from .errors import BudgetExceededError, DomainError
from .freeness import EliminationCertificate
from .hypergraph import build
from .model import Presentation

DEFAULT_EPSILON = Fraction(1, 100)
L_NODE_BUDGET = 500_000
SL_MAX_M = 22
# largest max_m check_SL_exact accepts: the scan holds about 23 bytes per
# subset of the generators (1.5 GB at m = 26), and its first-letter
# masks are uint32, so they cannot hold m > 32 at all
SL_SCAN_LIMIT = 26

VERDICT_FREE = "FreeCertified"
VERDICT_SPLITS = "SplitsWitness"
VERDICT_FA = "FACertified"
VERDICT_UNKNOWN = "Unknown"


@dataclass(frozen=True)
class LWitness:
    """One size-s generator set per position, hit by no relator."""
    sets: tuple[tuple[int, ...], ...]

    def to_json_dict(self) -> dict:
        return {"sets": [sorted(v) for v in self.sets]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "LWitness":
        return cls(sets=tuple(tuple(sorted(int(g) for g in v))
                              for v in d["sets"]))


@dataclass(frozen=True)
class SLWitness:
    """A generator split matched by no relator."""
    U: tuple[int, ...]
    V: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"U": sorted(self.U), "V": sorted(self.V)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SLWitness":
        return cls(U=tuple(sorted(int(g) for g in d["U"])),
                   V=tuple(sorted(int(g) for g in d["V"])))


@dataclass(frozen=True)
class FAReport:
    verdict: str
    rank: Optional[int] = None
    unused_generators: tuple[int, ...] = ()
    free_certificate: Optional[EliminationCertificate] = None
    l_holds: Optional[bool] = None
    sl_holds: Optional[bool] = None
    l_witness: Optional[LWitness] = None
    sl_witness: Optional[SLWitness] = None
    epsilon: Fraction = DEFAULT_EPSILON
    exploratory_epsilon: bool = False
    budget_exceeded: bool = False

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "rank": self.rank,
            "unused_generators": list(self.unused_generators),
            "free_certificate": (None if self.free_certificate is None
                                 else self.free_certificate.to_json_dict()),
            "l_holds": self.l_holds,
            "sl_holds": self.sl_holds,
            "l_witness": (None if self.l_witness is None
                          else self.l_witness.to_json_dict()),
            "sl_witness": (None if self.sl_witness is None
                           else self.sl_witness.to_json_dict()),
            "epsilon": str(self.epsilon),
            "exploratory_epsilon": self.exploratory_epsilon,
            "budget_exceeded": self.budget_exceeded,
        }


def _set_size(eps: Fraction, m: int) -> int:
    # ceil(eps * m), floored at 1
    num, den = eps.numerator * m, eps.denominator
    return max(1, -((-num) // den))


def _partition_cap(eps: Fraction, m: int) -> int:
    # floor((1 - eps) * m), floored at 1
    num, den = (1 - eps).numerator * m, (1 - eps).denominator
    return max(1, num // den)


def _as_eps(eps) -> Fraction:
    """eps as an exact fraction strictly between 0 and 1.

    Fraction expands a decimal exponent into an exact integer, which
    takes seconds for "1e-10000000", so text is bounded before it is
    parsed: at most 64 characters and an exponent of at most two digits.
    """
    if isinstance(eps, str):
        exp = re.search(r"[eE][-+]?(\d+(?:_\d+)*)", eps)
        if len(eps) > 64 or (exp and int(exp.group(1)) > 99):
            raise DomainError("epsilon must be at most 64 characters with "
                              "an exponent of at most two digits, got "
                              f"{eps[:24]!r}")
    try:
        e = Fraction(eps)
    except ZeroDivisionError:
        raise DomainError(f"epsilon has a zero denominator: {eps!r}") from None
    if not 0 < e < 1:
        raise DomainError(f"epsilon must lie strictly between 0 and 1, got {e}")
    return e


def _position_letters(pres: Presentation, mode: str) -> np.ndarray:
    if mode not in ("positive_letters", "support"):
        raise DomainError(f"unknown mode {mode!r}")
    mat = pres.relator_matrix
    if mode == "positive_letters":
        if not pres.all_positive:
            raise DomainError(
                "positive_letters mode needs an all-positive presentation")
        return mat
    return np.abs(mat)


def check_L_exact(pres: Presentation, eps=DEFAULT_EPSILON,
                  mode: str = "positive_letters",
                  budget: int = L_NODE_BUDGET) -> Union[str, LWitness]:
    """Exhaustively decide the per-position letter condition.

    Returns "holds" when every tuple of size-s generator sets is hit
    by some relator, else a concrete LWitness. Only the overlap of a
    candidate set with letters of still-compatible relators matters,
    and shrinking that overlap only helps the search, so the scan
    visits minimal overlaps alone; this keeps it exact while skipping
    almost all of the raw choose(m, s)^ell space.

    At the last position every minimal overlap holds a generator of a
    still-compatible relator, so none completes a witness: those
    candidates are counted with a binomial coefficient, not walked.
    ``budget`` bounds the number of candidate sets, the counted ones
    included, exactly as a search walking every one of them would.
    """
    eps = _as_eps(eps)
    m, ell = pres.m, pres.ell
    s = _set_size(eps, m)
    if s > m:
        raise DomainError(f"set size {s} exceeds generator count {m}")
    letters = _position_letters(pres, mode)
    k = len(letters)
    default_set = tuple(range(1, s + 1))
    if k == 0:
        return LWitness(sets=(default_set,) * ell)

    # per position, per generator: bitmask of relators carrying it there
    masks = [{} for _ in range(ell)]
    for i in range(ell):
        col = letters[:, i]
        for rid in range(k):
            g = int(col[rid])
            masks[i][g] = masks[i].get(g, 0) | (1 << rid)

    full = (1 << k) - 1
    nodes = 0
    dead: set[tuple[int, int]] = set()

    def pad(avoid: dict, count: int) -> tuple[int, ...]:
        out = []
        g = 1
        while len(out) < count:
            if g not in avoid:
                out.append(g)
            g += 1
        return tuple(out)

    def visit(count: int) -> None:
        nonlocal nodes
        nodes += count
        if nodes > budget:
            raise BudgetExceededError(
                "check_L_exact", budget,
                f"search exceeded {budget} nodes at m={m}, s={s}")

    def dfs(i: int, compatible: int) -> Optional[list]:
        # the witness sets for positions i.. when one exists
        if compatible == 0:
            return [default_set] * (ell - i)
        if (i, compatible) in dead:
            return None
        live = {g: bm for g, bm in masks[i].items() if bm & compatible}
        t_min = s - (m - len(live))
        if t_min <= 0:
            return [pad(live, s)] + [default_set] * (ell - i - 1)
        if i == ell - 1:
            # every candidate holds a live generator, so some relator
            # stays compatible through the last position: count them
            visit(comb(len(live), t_min))
        else:
            for T in combinations(sorted(live), t_min):
                visit(1)
                hit = 0
                for g in T:
                    hit |= live[g]
                got = dfs(i + 1, compatible & hit)
                if got is not None:
                    return [tuple(sorted(T + pad(live, s - t_min)))] + got
        dead.add((i, compatible))
        return None

    found = dfs(0, full)
    if found is None:
        return "holds"
    return LWitness(sets=tuple(found))


def verify_L_witness(pres: Presentation, wit: LWitness, eps=DEFAULT_EPSILON,
                     mode: str = "positive_letters") -> bool:
    """Replay a letter-condition witness against the relators."""
    eps = _as_eps(eps)
    s = _set_size(eps, pres.m)
    if len(wit.sets) != pres.ell:
        return False
    sets = [set(v) for v in wit.sets]
    if any(len(v) != s for v in sets):
        return False
    if any(g < 1 or g > pres.m for v in sets for g in v):
        return False
    letters = _position_letters(pres, mode)
    for row in letters:
        if all(int(row[i]) in sets[i] for i in range(pres.ell)):
            return False
    return True


def _tail_profiles(pres: Presentation) -> tuple[np.ndarray, np.ndarray]:
    """Per relator: first letter and bitmask of tail letters."""
    mat = pres.relator_matrix
    first = mat[:, 0].astype(np.int64)
    tails = np.zeros(len(mat), dtype=np.int64)
    for i in range(1, pres.ell):
        tails |= np.int64(1) << (mat[:, i].astype(np.int64) - 1)
    return first, tails


def check_SL_exact(pres: Presentation, eps=DEFAULT_EPSILON,
                   max_m: int = SL_MAX_M) -> Union[str, SLWitness]:
    """Exhaustively decide the split-matching condition.

    A split with small side U is matched when some relator starts in U
    and finishes entirely outside it. All 2^m splits are screened at
    once: a subset-sum transform collects, for every complement W, the
    set of first letters whose relator tail fits inside W.
    """
    eps = _as_eps(eps)
    m = pres.m
    if max_m > SL_SCAN_LIMIT:
        raise DomainError(
            f"split scan size limit max_m={max_m} exceeds {SL_SCAN_LIMIT}")
    if not pres.all_positive:
        raise DomainError("the split condition is defined for all-positive "
                          "presentations")
    if m > max_m:
        raise BudgetExceededError(
            "check_SL_exact", max_m,
            f"exhaustive split scan needs m <= {max_m}, got {m}")
    cap = _partition_cap(eps, m)
    size = 1 << m

    # firsts[W] = first letters of relators whose whole tail lies in W
    firsts = np.zeros(size, dtype=np.uint32)
    if len(pres):
        first, tails = _tail_profiles(pres)
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


def verify_SL_witness(pres: Presentation, wit: SLWitness,
                      eps=DEFAULT_EPSILON) -> bool:
    """Replay a split witness against the relators."""
    eps = _as_eps(eps)
    m = pres.m
    u, v = set(wit.U), set(wit.V)
    if u & v or u | v != set(range(1, m + 1)):
        return False
    if not 1 <= len(u) <= _partition_cap(eps, m):
        return False
    for r in pres.relators:
        if r[0] in u and all(x in v for x in r[1:]):
            return False
    return True


def unused_generators(pres: Presentation) -> tuple[int, ...]:
    return tuple((np.flatnonzero(build(pres).counts[1:] == 0) + 1).tolist())
