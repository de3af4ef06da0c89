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
structural outcomes, and ``Decision.fa_fields`` gives the JSON object
that ``check-fa`` prints.

The search spaces are exponential in the worst case, and neither
search has a size limit of its own: node budgets turn runaway
instances into a typed error, which the verdict cascade reports as an
unknown with a flag rather than an answer. At the last
relator position the letter search counts its candidate sets in closed
form instead of walking them, since none of them can be a witness
there. The frame at the last-but-one position takes that count itself
for each of its candidates, from per-generator bitmasks of the letters
the last position would see, so no search frame is opened per
candidate; the budget still counts every one of them.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Container
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_
from typing import Optional, Union

import numpy as np

from .errors import BudgetExceededError, DomainError
from .hypergraph import _DENSE_CAP, build
from .model import Presentation

DEFAULT_EPSILON = Fraction(1, 100)
L_NODE_BUDGET = 500_000
SL_NODE_BUDGET = 20_000
# the verdict cascade's default gate on the split search, which has no
# size limit of its own; it stays at 22 to keep sweep output unchanged
SL_MAX_M = 22

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


def _require_positive(pres: Presentation, condition: str) -> None:
    if not pres.all_positive:
        raise DomainError(f"the {condition} condition is defined for "
                          "all-positive presentations")


def _column_masks(pres: Presentation) -> list[list[int]]:
    """Per position, per generator g at g - 1: its relators there, as bits."""
    mat = pres.relator_matrix
    k, ell = mat.shape
    rid = np.arange(k)
    bits = np.zeros((ell, pres.m, (k + 7) // 8), dtype=np.uint8)
    for i in range(ell):
        np.bitwise_or.at(bits[i], (mat[:, i] - 1, rid >> 3),
                         (1 << (rid & 7)).astype(np.uint8))
    return [[int.from_bytes(r, "little") for r in col] for col in bits]


def check_L_exact(pres: Presentation, eps=DEFAULT_EPSILON,
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
    The frame at position ell-2 takes that count for each of its own
    candidates, OR-ing per-generator bitmasks of the generators live
    at the last position, with no frame or dict per candidate; only a
    one-letter search opens a frame at the last position, its root.
    ``budget`` bounds the number of candidate sets, the counted ones
    included, exactly as a search walking every one of them would. The
    memo of relator sets searched in vain is charged in 8-byte words
    against _DENSE_CAP, and raises BudgetExceededError past it. The
    search opens one frame per relator position, so a relator longer
    than half the recursion limit raises BudgetExceededError instead.
    """
    eps = _as_eps(eps)
    m, ell = pres.m, pres.ell
    s = _set_size(eps, m)
    if s > m:
        raise DomainError(f"set size {s} exceeds generator count {m}")
    _require_positive(pres, "letter")
    k = len(pres)
    default_set = tuple(range(1, s + 1))
    if k == 0:
        return LWitness(sets=(default_set,) * ell)
    depth = sys.getrecursionlimit() // 2
    if ell > depth:
        raise BudgetExceededError(
            "check_L_exact", depth,
            f"search opens a frame per relator position, ell={ell} > {depth}")

    # per position, per generator there: bitmask of relators carrying it
    masks = [{g: bm for g, bm in enumerate(col, 1) if bm}
             for col in _column_masks(pres)]
    last = masks[ell - 1]

    full = (1 << k) - 1
    nodes = 0
    # per position, the compatible relator sets already searched in vain
    dead: list[set[int]] = [set() for _ in range(ell)]
    # a k-bit int is at most k/60 + 5 words in 16-byte blocks, and its
    # set slot 6.7 (2 words, 30% full); a visit adds at most one entry
    # and each open frame one more, so the memo is counted past limit
    held_max = _DENSE_CAP // (k // 60 + 12)
    limit = min(budget, held_max - ell)

    def pad(avoid: Container[int], count: int) -> tuple[int, ...]:
        out = []
        g = 1
        while len(out) < count:
            if g not in avoid:
                out.append(g)
            g += 1
        return tuple(out)

    def visit(count: int) -> None:
        nonlocal nodes, limit
        nodes += count
        if nodes > limit:
            if nodes > budget:
                raise BudgetExceededError(
                    "check_L_exact", budget,
                    f"search exceeded {budget} nodes at m={m}, s={s}")
            held = sum(map(len, dead))
            if held + ell > held_max:
                raise BudgetExceededError(
                    "check_L_exact", _DENSE_CAP,
                    f"memo of {held} {k}-bit masks at m={m}, s={s}")
            limit = min(budget, nodes + held_max - ell - held)

    def dfs(i: int, compatible: int) -> Optional[list]:
        # the witness sets for positions i.. when one exists; compatible
        # is never empty, since every candidate holds a live generator
        if compatible in dead[i]:
            return None
        live = {g: bm for g, bm in masks[i].items() if bm & compatible}
        t_min = s - (m - len(live))
        if t_min <= 0:
            return [pad(live, s)] + [default_set] * (ell - i - 1)
        if i == ell - 1:
            # only the root of a one-letter search lands here
            visit(comb(len(live), t_min))
        elif i == ell - 2:
            found = fold_last_position(live, compatible, t_min)
            if found is not None:
                return found
        else:
            for T in combinations(sorted(live), t_min):
                visit(1)
                hit = 0
                for g in T:
                    hit |= live[g]
                got = dfs(i + 1, compatible & hit)
                if got is not None:
                    return [tuple(sorted(T + pad(live, s - t_min)))] + got
        dead[i].add(compatible)
        return None

    def fold_last_position(live: dict, compatible: int,
                           t_min: int) -> Optional[list]:
        # the candidates T at position ell-2, each with the last position
        # counted in place: bit h of reach[g] is set when a relator in
        # compatible & live[g] carries h last, so the OR of reach over T
        # holds the generators that would be live there
        reach = {}
        for g, bm in live.items():
            kept = bm & compatible
            gens = 0
            for h, hm in last.items():
                if hm & kept:
                    gens |= 1 << h
            reach[g] = gens
        dead_last = dead[ell - 1]
        for T in combinations(sorted(live), t_min):
            hit = ahead = 0
            for g in T:
                hit |= live[g]
                ahead |= reach[g]
            hit &= compatible
            if hit in dead_last:
                visit(1)
                continue
            n_live = ahead.bit_count()
            t_last = s - (m - n_live)
            if t_last <= 0:
                visit(1)
                return [tuple(sorted(T + pad(live, s - t_min))),
                        pad({h for h in last if ahead >> h & 1}, s)]
            # T itself and the candidates it leaves at the last position;
            # one visit raises exactly where the two in turn would
            visit(1 + comb(n_live, t_last))
            dead_last.add(hit)
        return None

    found = dfs(0, full)
    if found is None:
        return "holds"
    return LWitness(sets=tuple(found))


def verify_L_witness(pres: Presentation, wit: LWitness,
                     eps=DEFAULT_EPSILON) -> bool:
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
    _require_positive(pres, "letter")
    for row in pres.relator_matrix:
        if all(int(row[i]) in sets[i] for i in range(pres.ell)):
            return False
    return True


def check_SL_exact(pres: Presentation,
                   eps=DEFAULT_EPSILON) -> Union[str, SLWitness]:
    """Exhaustively decide the split-matching condition.

    A split with small side U is matched when some relator starts in U
    and finishes entirely outside it. Unmatched sides are closed under
    union, so a set t has a largest unmatched subset g: drop first(r)
    from t while tail(r) misses it. A node (t, y) holds the witnesses W,
    y <= W <= g, |W| <= cap; a relator starting in y whose tail misses y
    and meets g once forces that letter into y. Children split them by
    the highest letter of g - y that W leaves out, W = g last, so the
    first witness found has the smallest U bitmask. More than
    SL_NODE_BUDGET nodes raise BudgetExceededError.
    """
    eps = _as_eps(eps)
    _require_positive(pres, "split")
    m, cap = pres.m, _partition_cap(eps, pres.m)
    cols = _column_masks(pres)
    # per generator, highest first: its bit, and bitmasks of the relators
    # that start with it and of those whose tail holds it
    gens = [(1 << g, cols[0][g], reduce(or_, (c[g] for c in cols[1:]), 0))
            for g in reversed(range(m))]

    def union(t: int, i: int) -> int:
        return reduce(or_, (gen[i] for gen in gens if t & gen[0]), 0)

    def largest_unmatched(t: int) -> int:
        while True:
            met = union(t, 2)
            drop = sum(bit for bit, started, _ in gens
                       if t & bit and started & ~met)
            if not drop:
                return t
            t ^= drop

    def force(g: int, y: int) -> int:
        one = two = 0  # relators with at least one, two tail letters in g
        for held in (gen[2] for gen in gens if g & gen[0]):
            one, two = one | held, two | one & held
        while True:
            needed = union(y, 1) & ~union(y, 2) & one & ~two
            add = sum(bit for bit, _, held in gens
                      if g & ~y & bit and held & needed)
            if not add:
                return y
            y |= add

    nodes, stack = 0, [((1 << m) - 1, 0)]
    while stack:
        nodes += 1
        if nodes > SL_NODE_BUDGET:
            raise BudgetExceededError(
                "check_SL_exact", SL_NODE_BUDGET,
                f"search exceeded {SL_NODE_BUDGET} nodes at m={m}, cap={cap}")
        t, y = stack.pop()
        g = largest_unmatched(t)
        if not g or y & ~g:
            continue
        y = force(g, y)
        if y == g and g.bit_count() <= cap:
            return SLWitness(U=tuple(i + 1 for i in range(m) if g >> i & 1),
                             V=tuple(i + 1 for i in range(m) if ~g >> i & 1))
        kids = []
        for bit, _, _ in gens:
            if g & ~y & bit and y.bit_count() <= cap:
                kids.append((g ^ bit, y))
                y |= bit
        if y == g and g.bit_count() <= cap:
            kids.append((g, g))
        stack.extend(reversed(kids))
    return "holds"


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


def unused_generators(pres: Presentation) -> np.ndarray:
    """The generators no relator uses, ascending, as a read-only array."""
    out = np.flatnonzero(build(pres).counts[1:] == 0) + 1
    out.flags.writeable = False
    return out
