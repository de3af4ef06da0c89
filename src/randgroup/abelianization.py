"""Abelianized relation data: exponent sums, Smith form, ℤ-surjection.

Killing commutators turns a presentation into an integer matrix E whose
row i records the net exponent of each generator in relator i. The
cokernel invariants (betti number, torsion chain) come from a Smith
normal form; whether the group surjects onto the integers is exactly
the question whether E has rational rank below m.

Both read one peel of E (structured Gaussian elimination, after
LaMacchia & Odlyzko and Pomerance & Smith). Zero columns are seeds from
the start; then, in batched rounds, each row whose one nonzero outside
the resolved columns is ±1 is pivoted there, and when none is left the
unresolved column with the most nonzeros joins the seed set S. A pivot
row writes its generator over columns resolved earlier, a Tietze move.
So with X the m x |S| solve (the identity on S, P X = 0 on the pivot
rows P by forward substitution, where ±1 is its own inverse), the
abelianization is ℤ^S modulo the rows of N X, N the other rows, and
rank E is the pivot count |C| plus rank N X. abelian_invariants folds
N X in Python integers into an IntegerRowBasis |S| columns wide, and
gates only the m |S| entries of X.

The rank decision is tiered because sweeps push it to millions of
relators against thousands of generators:

  1. a row sample, tried when there are |R| >= 32 m relators, as there
     are past the free threshold; with fewer, a sample of short
     relators misses columns outright. It takes every stride-th
     relator, stride the floor of |R| / 16 m, so 16 m to 32 m of them,
     peeled and ranked as in tier 3. The rank of any set of rows is a lower bound on rank E, so a
     full-rank sample proves full rank exactly, and the report is the
     one the later tiers give a full-rank E: tier 2 fires only on a
     deficit. A deficient sample, or one whose core would pass the
     dense cap, proves nothing, and the decision falls through to tier
     2 as if no sample had been taken.
  2. structural certificates: no relators, fewer nonzero rows than
     generators, a generator with zero exponent everywhere, or all row
     sums zero (send every generator to 1). All exact.
  3. rank mod PRIME_A of |C| plus a compressed N X, with X solved mod
     p. The core rows N are randomly partitioned into |S| + 64 balanced
     buckets and each bucket summed with random nonzero coefficients.
     Compression only ever loses rank, as a sample does, so a full-rank
     compressed core proves full rational rank, settling the question
     exactly. The core is lossless when there are kn <= m + 64
     nonzero rows: it then has at most kn - |C| <= |S| + 64 rows, one
     per bucket, so its rank mod p is that of the whole matrix. Its
     dense part, (|S| + 64) x m buckets and the m x |S| solve, is gated
     by the same cap as the other dense work.
  4. on a deficit, a witness w in ℤ^m, primitive and nonzero, with
     E w = 0 checked exactly on the sparse rows. The core's kernel
     vector mod p, 1 at its first free column f and 0 past it, maps
     through the solve to x mod p; over ℚ, x is a ratio of minors of E
     (Cramer), each at most H, the product of the largest row norms
     (Hadamard). The primes below 2^19 follow, each with a fresh
     compression. Lost rank can only move f earlier, so a prime with an
     earlier f than the best is skipped, and a later f restarts. x is
     combined by the Chinese remainder theorem, lifted after each prime
     by rational reconstruction (Wang, 1981) and checked. Past a
     modulus of 2 H^2 the lift is unique, so a failed check there moves
     f on by one. Only running out of primes raises BudgetExceededError.

IntegerRowBasis folds rows into a lattice basis by Bezout steps in
Python integers, and keeps each stored row reduced at the later pivot
columns. The Smith form reuses it, folding rows and columns in turn. On
a 2-core box a dense n x n matrix with entries in [-3, 3] takes about
0.001 s at n = 12, 0.01 s at 40, 0.035 s at 60 and 0.14 s at 80.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from ._modrank import PRIME_A, _MAX_DIM, _eliminate, _kernel_vector, _red
from .errors import BudgetExceededError
from .hypergraph import _DENSE_CAP, build
from .model import Presentation

# extra buckets beyond the seed count in the compressed core
_SUB_EXTRA = 64
# relators per generator in the sample ranked first, when there are at
# least twice as many
_SAMPLE_ROWS = 16
_CHUNK = 8192
# the rank primes are those in [_PRIME_FLOOR, 2 * _PRIME_FLOOR)
_PRIME_FLOOR = 2**18


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
    witness: Optional[tuple[int, ...]] = None


def exponent_matrix(pres: Presentation) -> np.ndarray:
    """Dense |R| x m matrix of signed occurrence counts.

    Meant for direct inspection and the exact computations; the rank
    tier streams a sparse form instead and never calls this on sweep-
    scale input.
    """
    k = len(pres)
    if k * pres.m > _DENSE_CAP:
        raise BudgetExceededError("exponent_matrix", _DENSE_CAP,
                                  f"{k} x {pres.m} dense entries")
    out = np.zeros((k, pres.m), dtype=np.int64)
    rows, cols, vals, _ = _exponent_entries(pres)
    out[rows, cols] = vals
    return out


def _exponent_entries(pres: Presentation, select: slice = slice(None)
                      ) -> tuple[np.ndarray, ...]:
    """Sparse triplets (relator id, generator index 0-based, exponent)
    sorted by (row, column), zero exponents dropped, and the pointer
    bounding each nonzero row's entries. Each run of equal generators
    in an incidence-index row sums its signs into one exponent. Only
    the index rows in `select` are read, and a relator id is its place
    among them."""
    index = build(pres)
    start = np.flatnonzero(index.run_starts[select])
    vals = np.add.reduceat(index.signs[select].ravel(), start, dtype=np.int64)
    keep = vals != 0
    start = start[keep]
    rows = start // pres.ell
    cols = index.gens[select].ravel()[start].astype(np.int64) - 1
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


class IntegerRowBasis:
    """Streaming row-lattice accumulator over the integers.

    Incoming rows are folded against one stored pivot row per column
    using Bezout combinations, which are unimodular on the row pair, so
    the stored rows always generate the same lattice as everything fed
    in. Each row stored as a pivot, new or rebuilt by a Bezout step, has
    its entries at the later pivot columns reduced below those pivots;
    without that, Bezout steps alone grew the rows of a 100-generator
    fold to thousands of bits. Rows are arrays of Python integers, so no
    entry can overflow.
    """

    def __init__(self, rows=()):
        self.pivots: dict[int, np.ndarray] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _store(self, j: int, row: np.ndarray) -> None:
        """Row as pivot j, with its entry at each later pivot column k
        reduced into [0, pivot k), in ascending k. Pivot k is zero left
        of k, so each step is unimodular and keeps column j leading."""
        for k in sorted(self.pivots):
            if k > j:
                q = row[k] // self.pivots[k][k]
                if q:
                    row = row - q * self.pivots[k]
        self.pivots[j] = row

    def add(self, row) -> bool:
        """Fold one row in; True if the rank grew."""
        v = np.array([int(x) for x in row], dtype=object)
        while True:
            nz = v.nonzero()[0]
            if not len(nz):
                return False
            j = int(nz[0])
            if j not in self.pivots:
                self._store(j, -v if v[j] < 0 else v)
                return True
            piv = self.pivots[j]
            a, b = piv[j], v[j]
            if b % a == 0:
                # keep the pivot: a Bezout step with (x, y) = (1, 0)
                # would rebuild it for nothing
                v = v - b // a * piv
            else:
                g, x, y = _xgcd(a, b)
                self._store(j, x * piv + y * v)
                v = a // g * v - b // g * piv

    def matrix(self) -> list[list[int]]:
        """Stored rows by pivot column; generates the input row lattice."""
        return [self.pivots[j].tolist() for j in sorted(self.pivots)]


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
    while True:
        basis = IntegerRowBasis(rows)
        rows = basis.matrix()
        if all(np.count_nonzero(piv) == 1 for piv in basis.pivots.values()):
            break
        rows = list(zip(*rows))
    diags = [x for row in rows for x in row if x]
    for i in range(len(diags)):
        for j in range(i + 1, len(diags)):
            g = math.gcd(diags[i], diags[j])
            diags[i], diags[j] = g, diags[i] // g * diags[j]
    return tuple(diags)


# ----------------------------------------------------- rank / surjection

class _Peel(NamedTuple):
    """Where the peel left the exponent matrix.

    rounds holds, per round, the pivot columns and pivot exponents (±1),
    then the pivot rows' entries gathered once: their columns, their
    exponents and the offset of each row's first entry, for reduceat.
    seeds lists the columns resolved without a pivot as they were added,
    the n_zero zero columns first. local maps each entry to its row's
    local index, its place in the entries' row pointer; core marks the
    rows that are not pivots.
    """
    rounds: list[tuple[np.ndarray, ...]]
    seeds: np.ndarray
    n_zero: int
    local: np.ndarray
    core: np.ndarray


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Concatenation of arange(lo[i], lo[i] + n[i]) over i."""
    offsets = np.cumsum(n) - n
    return np.arange(int(n.sum()), dtype=np.int64) + np.repeat(lo - offsets, n)


def _peel(entries, m: int) -> _Peel:
    """Pivot pattern of the nonzero exponent rows, without arithmetic.

    A column is resolved once it is a pivot or a seed, as a zero column
    is from the start. Each round takes every row whose one unresolved
    nonzero is ±1, keeps the smallest such row per column, and pivots it
    there. When no row qualifies, the unresolved column with the most
    nonzeros becomes a seed. Per row, the count of unresolved nonzeros
    and the sums of their columns and exponents are kept up to date, so
    a row down to one unresolved nonzero names its column and exponent.
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
    resolved = col_ptr[1:] == col_ptr[:-1]
    core = np.ones(len(left), dtype=bool)
    rounds = []
    seeds = np.flatnonzero(resolved).tolist()
    n_zero = n_resolved = len(seeds)
    next_seed = 0
    touched = np.flatnonzero(left == 1)
    while n_resolved < m:
        one = (left[touched] == 1) & (np.abs(val_sum[touched]) == 1)
        cand = np.sort(touched[one])
        if len(cand):
            new, first = np.unique(col_sum[cand], return_index=True)
            prow = cand[first]
            n = row_ptr[prow + 1] - row_ptr[prow]
            at = _ranges(row_ptr[prow], n)
            rounds.append((new, val_sum[prow], cols[at], vals[at],
                           np.cumsum(n) - n))
            core[prow] = False
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
    return _Peel(rounds, np.array(seeds, dtype=np.int64), n_zero, local, core)


def _times(entries, rows: np.ndarray, X: np.ndarray) -> np.ndarray:
    """E[rows] @ X from the sparse rows, for a nonempty list of rows."""
    _, cols, vals, row_ptr = entries
    n = row_ptr[rows + 1] - row_ptr[rows]
    idx = _ranges(row_ptr[rows], n)
    return np.add.reduceat(vals[idx, None] * X[cols[idx]], np.cumsum(n) - n)


def _solve(peel: _Peel, m: int, p: Optional[int] = None) -> np.ndarray:
    """X, the identity on the seeds S with P X = 0 on the pivot rows P,
    by forward substitution in peel order: mod p in int64, or exactly in
    Python integers if p is None. Each round reads only the pivot rows'
    entries that the peel gathered, so a lift over many primes repeats
    no indexing. A pivot's own entry adds nothing, as its row of X is
    still zero, and its exponent ±1 is its own inverse."""
    s = len(peel.seeds)
    X = np.zeros((m, s), dtype=object if p is None else np.int64)
    X[peel.seeds, np.arange(s)] = 1
    for pcol, pval, cols, vals, starts in peel.rounds:
        new = -pval[:, None] * np.add.reduceat(vals[:, None] * X[cols], starts)
        X[pcol] = new if p is None else new % p
    return X


def _core_cells(s: int, m: int) -> int:
    """Dense entries _core_rank needs with s seeds: (s + 64) x m buckets
    and the m x s solve."""
    return (s + _SUB_EXTRA) * m + m * s


def _core_rank(entries, peel: _Peel, m: int, p: int, seed: int
               ) -> tuple[int, int, Optional[np.ndarray]]:
    """Rank mod p of the exponent matrix, up to compression of its core;
    on a deficit also the core's first free column f and x = X y mod p
    for the kernel vector y of _kernel_vector (else |S| and None).

    With X from _solve mod p, the column change [[I, X_C], [0, I]] is
    unimodular and turns the pivot block into P_C, which is triangular
    in peel order with ±1 on its diagonal, so the rank is
    |C| + rank(N X) over the core rows N. Those rows are summed into
    |S| + 64 random buckets with random nonzero coefficients, which can
    only lose rank; a full-rank compressed core therefore proves full
    rank mod p, hence over ℚ. With at most |S| + 64 rows in N, each
    bucket holds at most one and the rank mod p is exact. P x = 0 and
    the compressed core kills y, so E x = 0 mod p when nothing was lost.
    """
    _, cols, vals, row_ptr = entries
    s = len(peel.seeds)
    if s == 0:
        return m, 0, None
    n_buckets = s + _SUB_EXTRA
    need = _core_cells(s, m)
    if need > _DENSE_CAP:
        raise BudgetExceededError(
            "surjects_onto_Z", _DENSE_CAP,
            f"peeled core of {s} seed columns at m={m} needs "
            f"{need} dense entries")
    X = _solve(peel, m, p)
    kn = len(row_ptr) - 1
    n_core = int(peel.core.sum())
    rng = np.random.default_rng(seed)
    bucket_of = np.zeros(kn, dtype=np.int64)
    bucket_of[np.flatnonzero(peel.core)[rng.permutation(n_core)]] = \
        np.arange(n_core, dtype=np.int64) % n_buckets
    coeff = np.zeros(kn, dtype=np.int64)
    coeff[peel.core] = rng.integers(1, p, size=n_core, dtype=np.int64)
    keep = peel.core[peel.local]
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
    r = _eliminate(core, p)
    if r == s:
        return m, s, None
    f, y = _kernel_vector(core, r, p)
    return m - s + r, f, X[:, :f + 1] @ y[:f + 1] % p


def _primes() -> Iterator[int]:
    """The rank primes, descending: PRIME_A, PRIME_B, then the rest."""
    for q in range(2 * _PRIME_FLOOR - 1, _PRIME_FLOOR, -2):
        if all(q % d for d in range(3, math.isqrt(q) + 1, 2)):
            yield q


def _rational(c: int, mod: int, bound: int) -> tuple[int, int]:
    """a/b = c mod `mod` with |a| <= bound < b only if no fraction with
    both parts at most bound agrees with c; unique if 2 bound^2 < mod."""
    r0, r1, t0, t1 = mod, c, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(x: np.ndarray, mod: int) -> Optional[list[int]]:
    """The primitive integer vector along x mod `mod`, each coordinate
    lifted times the common denominator so far; None if one is too big."""
    bound = math.isqrt((mod - 1) // 2)
    d, w = 1, []
    for xi in x:
        a, b = _rational(d * xi % mod, mod, bound)
        if d * b > bound:
            return None
        if b > 1:
            d *= b
            w = [v * b for v in w]
        w.append(a)
    g = math.gcd(*w)
    return [v // g for v in w]


def _kills(entries, w: list[int]) -> bool:
    """E w == 0, exactly in Python integers, on the sparse rows."""
    _, cols, vals, row_ptr = entries
    terms = vals.astype(object) * np.array(w, dtype=object)[cols]
    return not np.add.reduceat(terms, row_ptr[:-1]).any()


def _sample_has_full_rank(pres: Presentation, stride: int) -> bool:
    """True if the exponent rows of every stride-th relator alone are
    shown to have rank m, by the compressed core of their own peel mod
    PRIME_A; False on a deficit or if that core is over the dense cap."""
    sample = _exponent_entries(pres, slice(None, None, stride))
    peel = _peel(sample, pres.m)
    return (_core_cells(len(peel.seeds), pres.m) <= _DENSE_CAP and
            _core_rank(sample, peel, pres.m, PRIME_A, 0x5EED1)[0] == pres.m)


def surjects_onto_Z_details(pres: Presentation) -> ZSurjectionReport:
    """Full report of the ℤ-surjection decision: verdict, exactness
    (always exact), which tier settled it, and on a rank deficit a
    primitive w in ℤ^m with exponent_matrix(pres) @ w == 0.

    With at least 32 m relators a row sample is ranked first; when it
    has full rank the whole matrix does, and the report is
    full_rank_mod_p without the full exponent triplets ever being
    built. Otherwise the sample is dropped and the report is the one
    the whole matrix gives."""
    m = pres.m
    if len(pres) == 0:
        return ZSurjectionReport(True, True, "no_relators")
    stride = len(pres) // (_SAMPLE_ROWS * m)
    if stride >= 2 and _sample_has_full_rank(pres, stride):
        return ZSurjectionReport(False, True, "full_rank_mod_p")
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
    best, x, i = 0, None, 0
    for i, p in enumerate(_primes(), 1):
        rank, f, xp = _core_rank(entries, peel, m, p, 0x5EED0 + i)
        if rank == m:
            return ZSurjectionReport(False, True, "full_rank_mod_p")
        if f < best:
            continue
        if f > best or x is None:
            best, x, mod = f, np.zeros(m, dtype=object), 1
            # Hadamard: an r x r minor is at most its r row norms' product
            r = m - len(peel.seeds) + f
            norms2 = np.sort(np.add.reduceat(vals * vals, row_ptr[:-1]))
            wang = 2 * math.prod(norms2[len(norms2) - r:].tolist())
        x = x + mod * ((xp - x % p) * pow(mod, -1, p) % p)
        mod *= p
        w = _lift(x, mod)
        if w is not None and _kills(entries, w):
            return ZSurjectionReport(True, True, "integer_kernel_vector",
                                     tuple(w))
        if mod > wang:  # past 2 H^2 the lift is unique: all lost rank
            best, x = best + 1, None
    raise BudgetExceededError("surjects_onto_Z", i, "no kernel vector "
                              "verified over the primes below 2^19")


def surjects_onto_Z(pres: Presentation) -> bool:
    """True iff the abelianization maps onto ℤ (rational rank below m)."""
    return surjects_onto_Z_details(pres).surjects


def abelian_invariants(pres: Presentation) -> AbelianInvariants:
    """Betti number and torsion chain of the abelianization, exactly:
    the Smith form of N X, solved over the seeds that are not zero
    columns, with the rows of N X folded in blocks."""
    m = pres.m
    if len(pres) == 0:
        return AbelianInvariants(betti=m, torsion=())
    entries = _exponent_entries(pres)
    peel = _peel(entries, m)
    used = peel.seeds[peel.n_zero:]
    if m * len(used) > _DENSE_CAP:
        raise BudgetExceededError("abelian_invariants", _DENSE_CAP,
                                  f"{m} x {len(used)} solve entries")
    X = _solve(peel._replace(seeds=used), m)
    core = np.flatnonzero(peel.core)
    basis = IntegerRowBasis()
    for lo in range(0, len(core), _CHUNK):
        for row in _times(entries, core[lo:lo + _CHUNK], X):
            basis.add(row)
    diags = smith_normal_form(basis.matrix())
    return AbelianInvariants(betti=len(peel.seeds) - len(diags),
                             torsion=tuple(int(d) for d in diags if d > 1))
