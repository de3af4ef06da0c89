"""Abelianized relation data: exponent sums, Smith form, ℤ-surjection.

Killing commutators turns a presentation into an integer matrix whose
row i records the net exponent of each generator in relator i. The
cokernel invariants (betti number, torsion chain) come from the Smith
normal form; whether the group surjects onto the integers is exactly
the question whether that matrix has rational rank below m.

The rank decision is tiered because sweeps push it to millions of
relators against thousands of generators:

  1. structural certificates: no relators, fewer nonzero rows than
     generators, a generator with zero exponent everywhere, or all row
     sums zero (send every generator to 1). All exact.
  2. rank mod PRIME_A of a peeled, compressed core (structured
     Gaussian elimination, after LaMacchia & Odlyzko and Pomerance &
     Smith). Rows with exactly one nonzero outside the resolved
     columns are pivoted there, in batched rounds; when none is left,
     the unresolved column with the most nonzeros joins a seed set S.
     Each pivot is a nonzero exponent of absolute value at most ell,
     hence a unit mod either prime (the peel never pivots on an
     exponent as large as a prime), so the pivot block is triangular
     with unit diagonal and the rank is |C| + rank of the core: the
     other rows with the pivot columns C solved away, |S| columns
     wide. The core rows are randomly partitioned into |S| + 64
     balanced buckets and each bucket summed with random nonzero
     coefficients. Compression only ever loses rank, so a full-rank
     compressed core proves full rational rank, settling the question
     exactly. A plain row sample would not work here: with short
     relators it misses columns outright. The core is lossless when
     there are kn <= m + 64 nonzero rows: it then has at most
     kn - |C| <= |S| + 64 rows, one per bucket, so its rank mod p is
     that of the whole matrix. Its dense part, (|S| + 64) x m buckets
     and the m x |S| solve, is gated by the same cap as the other
     dense work, as a typed BudgetExceededError.
  3. exact integer elimination for m <= RANK_EXACT_MAX generators and
     at most max(20 m, m + 64) nonzero rows.
  4. otherwise the core mod PRIME_B, with a fresh random compression.
     A deficit surviving both primes is reported as non-surjection
     with exact=False; the error probability is tiny but not zero.
     The method says "rank_deficient_mod_two_primes" when the core was
     lossless, so only the primes can be unlucky, and
     "aggregated_rank_deficient_mod_two_primes" when the compression
     might also have lost rank.

All exact integer work runs through one kernel, IntegerRowBasis, which
folds rows into a lattice basis by Bezout steps, in int64 while a bound
allows and in Python integers past it. The Smith form reuses it,
folding rows and columns in turn. On a 2-core box a dense n x n matrix
with entries in [-3, 3] takes about 0.001 s at n = 12, 0.01 s at 24 and
0.15-0.25 s at 40. Entry growth then takes over: n = 50 took 10 s and
n = 60 did not finish in 120 s, which is where a determinant-modulus
method would have to take over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from ._modrank import _MAX_DIM, PRIME_A, PRIME_B, _eliminate, _red
from .errors import BudgetExceededError, CapExceededError
from .hypergraph import build
from .model import Presentation

# exact integer elimination is the default up to this many generators
RANK_EXACT_MAX = 512
# extra buckets beyond the seed count in the compressed core
_SUB_EXTRA = 64
# above max(this many rows per generator, m + _SUB_EXTRA) rows the
# exact fallback is skipped
_EXACT_ROW_FACTOR = 20
_DENSE_CAP = 2 * 10**8
_CHUNK = 8192


@dataclass(frozen=True)
class AbelianInvariants:
    betti: int
    torsion: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"betti": self.betti, "torsion": list(self.torsion)}


@dataclass(frozen=True)
class ZSurjectionReport:
    surjects: bool
    exact: bool
    method: str


def exponent_matrix(pres: Presentation) -> np.ndarray:
    """Dense |R| x m matrix of signed occurrence counts.

    Meant for direct inspection and the exact computations; the rank
    tier streams a sparse form instead and never calls this on sweep-
    scale input.
    """
    k = len(pres)
    if k * pres.m > _DENSE_CAP:
        raise CapExceededError(
            f"dense exponent matrix would hold {k * pres.m} entries")
    out = np.zeros((k, pres.m), dtype=np.int64)
    rows, cols, vals, _ = _exponent_entries(pres)
    out[rows, cols] = vals
    return out


def _exponent_entries(pres: Presentation) -> tuple[np.ndarray, ...]:
    """Sparse triplets (relator id, generator index 0-based, exponent)
    sorted by (row, column), zero exponents dropped, and the pointer
    bounding each nonzero row's entries. Each run of equal generators
    in an incidence-index row sums its signs into one exponent."""
    index = build(pres)
    start = np.flatnonzero(index.run_starts)
    vals = np.add.reduceat(index.signs.ravel(), start, dtype=np.int64)
    keep = vals != 0
    start = start[keep]
    rows = start // pres.ell
    cols = index.gens.ravel()[start].astype(np.int64) - 1
    row_ptr = np.append(np.flatnonzero(np.diff(rows, prepend=-1)), len(rows))
    return rows, cols, vals[keep], row_ptr


# ------------------------------------------- exact integer row reduction

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g = gcd(a, b), g > 0 for nonzero input."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


_INT64_SAFE = 2**62


class IntegerRowBasis:
    """Streaming row-lattice accumulator over the integers.

    Incoming rows are folded against one stored pivot row per column
    using Bezout combinations, which are unimodular on the row pair, so
    the stored rows always generate the same lattice as everything fed
    in. Rows are int64 arrays, every entry below _INT64_SAFE in
    magnitude, until a combination could cross that bound or a row
    arrives that does not fit; from then on every row is an array of
    Python integers, and the same expressions run on it.
    """

    def __init__(self, m: int):
        self.m = m
        self.pivots: dict[int, np.ndarray] = {}
        self.big = False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _promote(self) -> None:
        if not self.big:
            self.pivots = {j: row.astype(object)
                           for j, row in self.pivots.items()}
            self.big = True

    def _row(self, row) -> np.ndarray:
        try:
            v = np.array(row, dtype=np.int64)
            fits = -_INT64_SAFE < v.min(initial=0) <= v.max(initial=0) \
                < _INT64_SAFE
        except OverflowError:
            v, fits = np.array([int(x) for x in row], dtype=object), False
        if not fits:
            self._promote()
        return v.astype(object) if self.big else v

    def _widen(self, j: int, v: np.ndarray, cp: int, cv: int):
        """Pivot j and v, promoted first if cp * |pivot| + cv * |v| might
        reach _INT64_SAFE; below that bound np.abs cannot overflow."""
        piv = self.pivots[j]
        if not self.big and (cp * int(np.abs(piv).max())
                             + cv * int(np.abs(v).max()) >= _INT64_SAFE):
            self._promote()
            return self.pivots[j], v.astype(object)
        return piv, v

    def add(self, row) -> bool:
        """Fold one row in; True if the rank grew."""
        v = self._row(row)
        while True:
            nz = v.nonzero()[0]
            if not len(nz):
                return False
            j = int(nz[0])
            if j not in self.pivots:
                self.pivots[j] = -v if v[j] < 0 else v
                return True
            a = int(self.pivots[j][j])
            b = int(v[j])
            if b % a == 0:
                # keep the pivot: a Bezout step with (x, y) = (1, 0)
                # would rebuild it for nothing
                q = b // a
                piv, v = self._widen(j, v, abs(q), 1)
                v = v - q * piv
            else:
                g, x, y = _xgcd(a, b)
                qa, qb = a // g, b // g
                piv, v = self._widen(j, v, max(abs(x), abs(qb)),
                                     max(abs(y), abs(qa)))
                self.pivots[j] = x * piv + y * v
                v = qa * v - qb * piv

    def matrix(self) -> list[list[int]]:
        """Stored rows by pivot column; generates the input row lattice."""
        return [self.pivots[j].tolist() for j in sorted(self.pivots)]


def _fold(rows, m: int) -> IntegerRowBasis:
    basis = IntegerRowBasis(m)
    for row in rows:
        basis.add(row)
    return basis


# ------------------------------------------------------------- Smith form

def smith_normal_form(M) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, each entry dividing the next.

    Rows and columns are reduced in turn (after Kannan & Bachem): fold
    the rows into an IntegerRowBasis, transpose its echelon matrix, and
    repeat until no off-diagonal entry is left. Each fold is unimodular,
    so the lattice invariants never change. The loop ends: after the
    first pass the leading entry sits in the corner, and each pass
    replaces it by the gcd of its row (or column), so it divides the one
    before. When it stays equal, its row and column are cleared, and a
    cleared block stays cleared on later passes, so the argument repeats
    on the rest. Last, each diagonal pair (d_i, d_j), i < j, becomes
    (gcd, lcm), which gives the divisibility chain.
    """
    rows = list(M)
    m = len(rows[0]) if rows else 0
    while True:
        basis = _fold(rows, m)
        rows = basis.matrix()
        if all(np.count_nonzero(piv) == 1 for piv in basis.pivots.values()):
            break
        m = len(rows)
        rows = list(zip(*rows))
    diags = [x for row in rows for x in row if x]
    for i in range(len(diags)):
        for j in range(i + 1, len(diags)):
            g = math.gcd(diags[i], diags[j])
            diags[i], diags[j] = g, diags[i] // g * diags[j]
    return tuple(diags)


# ----------------------------------------------------- rank / surjection

def _chunks_of_rows(entries, m: int) -> Iterator[np.ndarray]:
    """The nonzero exponent rows, in row order, as dense blocks."""
    _, cols, vals, row_ptr = entries
    kn = len(row_ptr) - 1
    for lo in range(0, kn, _CHUNK):
        hi = min(lo + _CHUNK, kn)
        a, b = row_ptr[lo], row_ptr[hi]
        out = np.zeros((hi - lo, m), dtype=np.int64)
        local = np.repeat(np.arange(hi - lo), np.diff(row_ptr[lo:hi + 1]))
        out[local, cols[a:b]] = vals[a:b]
        yield out


def _exact_rank(entries, m: int) -> int:
    basis = IntegerRowBasis(m)
    for chunk in _chunks_of_rows(entries, m):
        for row in chunk:
            basis.add(row)
            if basis.rank == m:
                return m
    return basis.rank


class _Peel(NamedTuple):
    """Where the peel left the exponent matrix.

    rounds holds, per round, the pivot rows (local indices), their
    pivot columns and pivot exponents; seeds lists the columns that
    were resolved without a pivot, in the order they were added.
    local maps each entry to its row's local index, the row's place
    in the entries' row pointer.
    """
    rounds: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    seeds: np.ndarray
    local: np.ndarray


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Concatenation of arange(lo[i], lo[i] + n[i]) over i."""
    offsets = np.cumsum(n) - n
    return np.arange(int(n.sum()), dtype=np.int64) + np.repeat(lo - offsets, n)


def _peel(entries, m: int) -> _Peel:
    """Pivot pattern of the nonzero exponent rows, without field arithmetic.

    A column is resolved once it is a pivot or a seed. Each round takes
    every row with exactly one unresolved nonzero column, keeps the
    smallest such row per column, and pivots it there. When no row
    qualifies, the unresolved column with the most nonzeros becomes a
    seed. Per row, the count of unresolved nonzeros and the sums of
    their columns and exponents are kept up to date, so a row down to
    one unresolved nonzero names its column and exponent directly.
    """
    _, cols, vals, row_ptr = entries
    left = np.diff(row_ptr)
    local = np.repeat(np.arange(len(left), dtype=np.int64), left)
    col_sum = np.add.reduceat(cols, row_ptr[:-1])
    val_sum = np.add.reduceat(vals, row_ptr[:-1])
    # order within a column is irrelevant: candidates are sorted below
    by_col = np.argsort(cols)
    col_ptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=m))))
    heaviest = np.argsort(-np.diff(col_ptr), kind="stable")
    resolved = np.zeros(m, dtype=bool)
    rounds = []
    seeds: list[int] = []
    next_seed = 0
    n_resolved = 0
    touched = np.flatnonzero(left == 1)
    while n_resolved < m:
        cand = np.sort(touched[left[touched] == 1])
        # a pivot must be a unit mod both primes; |exponent| <= ell
        # makes that automatic unless ell reaches the smaller prime
        cand = cand[np.abs(val_sum[cand]) < PRIME_B]
        if len(cand):
            new, first = np.unique(col_sum[cand], return_index=True)
            rounds.append((cand[first], new, val_sum[cand[first]]))
        else:
            while resolved[heaviest[next_seed]]:
                next_seed += 1
            new = heaviest[next_seed:next_seed + 1]
            seeds.append(int(new[0]))
        resolved[new] = True
        n_resolved += len(new)
        idx = by_col[_ranges(col_ptr[new], col_ptr[new + 1] - col_ptr[new])]
        hit = local[idx]
        np.subtract.at(left, hit, 1)
        np.subtract.at(col_sum, hit, cols[idx])
        np.subtract.at(val_sum, hit, vals[idx])
        touched = hit
    return _Peel(rounds, np.array(seeds, dtype=np.int64), local)


def _core_rank(entries, peel: _Peel, m: int, p: int, seed: int) -> int:
    """Rank mod p of the exponent matrix, up to compression of its core.

    With pivot columns C and seed columns S, let X be the m x |S|
    matrix that is the identity on S and solves P X = 0 on the pivot
    rows P, found by forward substitution in peel order (each pivot is
    a unit mod p). The column change [[I, X_C], [0, I]] is unimodular
    mod p and turns the pivot block into P_C, which is triangular in
    peel order with units on its diagonal, so the rank is
    |C| + rank(N X) over the other rows N. Those rows are summed into
    |S| + 64 random buckets with random nonzero coefficients, which can
    only lose rank; a full-rank compressed core therefore proves full
    rank mod p, hence over ℚ. With at most |S| + 64 rows in N, each
    bucket holds at most one and the rank mod p is exact.
    """
    _, cols, vals, row_ptr = entries
    s = len(peel.seeds)
    if s == 0:
        return m
    n_buckets = s + _SUB_EXTRA
    if n_buckets * m + m * s > _DENSE_CAP:
        raise BudgetExceededError(
            "surjects_onto_Z", _DENSE_CAP,
            f"peeled core of {s} seed columns at m={m} needs "
            f"{n_buckets * m + m * s} dense entries")
    X = np.zeros((m, s), dtype=np.int64)
    X[peel.seeds, np.arange(s)] = 1
    for prow, pcol, pval in peel.rounds:
        lo = row_ptr[prow]
        n = row_ptr[prow + 1] - lo
        idx = _ranges(lo, n)
        # X[pcol] is still zero, so each pivot's own entry adds nothing
        acc = np.add.reduceat(vals[idx, None] * X[cols[idx]], np.cumsum(n) - n)
        units, back = np.unique(pval % p, return_inverse=True)
        inv = np.array([pow(int(u), -1, p) for u in units], dtype=np.int64)
        X[pcol] = (-(acc % p) * inv[back, None]) % p

    kn = len(row_ptr) - 1
    core_row = np.ones(kn, dtype=bool)
    for prow, _, _ in peel.rounds:
        core_row[prow] = False
    n_core = int(core_row.sum())
    rng = np.random.default_rng(seed)
    bucket_of = np.zeros(kn, dtype=np.int64)
    bucket_of[np.flatnonzero(core_row)[rng.permutation(n_core)]] = \
        np.arange(n_core, dtype=np.int64) % n_buckets
    coeff = np.zeros(kn, dtype=np.int64)
    coeff[core_row] = rng.integers(1, p, size=n_core, dtype=np.int64)
    keep = core_row[peel.local]
    at = peel.local[keep]
    # each term is reduced below p, so a bucket cell stays far below
    # 2^53 even with MAX_RELATORS rows in one bucket
    weights = ((coeff[at] * vals[keep]) % p).astype(np.float64)
    B = np.bincount(bucket_of[at] * m + cols[keep], weights=weights,
                    minlength=n_buckets * m)
    B = _red(B.reshape(n_buckets, m), p)
    Xf = X.astype(np.float64)
    core = np.zeros((n_buckets, s))
    # blocks of _MAX_DIM keep each product exact in float64
    for lo in range(0, m, _MAX_DIM):
        core = _red(core + B[:, lo:lo + _MAX_DIM] @ Xf[lo:lo + _MAX_DIM], p)
    return m - s + _eliminate(core, p)


def surjects_onto_Z_details(pres: Presentation) -> ZSurjectionReport:
    """Full report of the ℤ-surjection decision: verdict, exactness,
    and which tier settled it."""
    m = pres.m
    if len(pres) == 0:
        return ZSurjectionReport(True, True, "no_relators")
    entries = _exponent_entries(pres)
    _, cols, vals, row_ptr = entries
    kn = len(row_ptr) - 1
    if kn < m:
        return ZSurjectionReport(True, True, "fewer_nonzero_rows_than_generators")
    if not np.bincount(cols, minlength=m).all():
        return ZSurjectionReport(True, True, "zero_exponent_column")
    if not np.add.reduceat(vals, row_ptr[:-1]).any():
        # sending every generator to 1 kills every relator
        return ZSurjectionReport(True, True, "total_exponent_sums_all_zero")

    peel = _peel(entries, m)
    if _core_rank(entries, peel, m, PRIME_A, 0x5EED1) == m:
        return ZSurjectionReport(False, True, "full_rank_mod_p")
    if m <= RANK_EXACT_MAX and kn <= max(_EXACT_ROW_FACTOR * m,
                                         m + _SUB_EXTRA):
        rank = _exact_rank(entries, m)
        return ZSurjectionReport(rank < m, True, "integer_elimination")
    if _core_rank(entries, peel, m, PRIME_B, 0x5EED2) == m:
        return ZSurjectionReport(False, True, "full_rank_mod_p")
    if kn <= m + _SUB_EXTRA:
        # the core was lossless: only the two primes can be unlucky
        return ZSurjectionReport(True, False, "rank_deficient_mod_two_primes")
    return ZSurjectionReport(True, False,
                             "aggregated_rank_deficient_mod_two_primes")


def surjects_onto_Z(pres: Presentation) -> bool:
    """True iff the abelianization maps onto ℤ (rational rank below m)."""
    return surjects_onto_Z_details(pres).surjects


def abelian_invariants(pres: Presentation) -> AbelianInvariants:
    """Betti number and torsion chain of the abelianization, exactly.

    The row lattice is first compressed to at most m generating rows by
    exact integer elimination, then handed to the Smith form. Cost
    grows with the relator count; sweep budgets gate calls at scale.
    """
    m = pres.m
    if len(pres) == 0:
        return AbelianInvariants(betti=m, torsion=())
    if m * min(m, len(pres)) > _DENSE_CAP:
        raise CapExceededError(
            f"dense row basis would need {m} x {min(m, len(pres))} entries; "
            f"cap is {_DENSE_CAP}")
    chunks = _chunks_of_rows(_exponent_entries(pres), m)
    basis = _fold((row for chunk in chunks for row in chunk), m)
    diags = smith_normal_form(basis.matrix())
    betti = m - len(diags)
    torsion = tuple(int(d) for d in diags if d > 1)
    return AbelianInvariants(betti=betti, torsion=torsion)
