from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randgroup.abelianization as abz
from randgroup._modrank import PRIME_A, PRIME_B
from randgroup.abelianization import (
    AbelianInvariants,
    IntegerRowBasis,
    ZSurjectionReport as ZR,
    abelian_invariants,
    exponent_matrix,
    smith_normal_form,
    surjects_onto_Z,
    surjects_onto_Z_details,
)
from randgroup.errors import BudgetExceededError
from randgroup.experiments import trial_seed
from randgroup.freeness import EliminationCertificate, certify_free
from randgroup.model import (ModelParams, make_presentation, sample,
                             sample_binomial)
from randgroup.words import iter_cyclically_reduced

from oracles import rank_mod_p


@lru_cache(maxsize=None)
def word_pool(m, ell):
    letters = [x for g in range(1, m + 1) for x in (g, -g)]
    out = []
    for w in product(letters, repeat=ell):
        ok = all(w[i] != -w[i + 1] for i in range(ell - 1))
        if ok and w[-1] != -w[0]:
            out.append(w)
    return out


# --------------------------------------------------------------- oracles

def det_int(sub):
    n = len(sub)
    if n == 1:
        return sub[0][0]
    total = 0
    for j in range(n):
        if sub[0][j]:
            minor = [row[:j] + row[j + 1:] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det_int(minor)
    return total


def snf_oracle(M):
    # k-th diagonal entry = gcd of k-minors / gcd of (k-1)-minors
    A = [[int(x) for x in row] for row in M]
    n = len(A)
    mm = len(A[0]) if n else 0
    prev = 1
    out = []
    for k in range(1, min(n, mm) + 1):
        g = 0
        for ridx in combinations(range(n), k):
            for cidx in combinations(range(mm), k):
                sub = [[A[i][j] for j in cidx] for i in ridx]
                g = gcd(g, det_int(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def rational_rank(M):
    rows = [[Fraction(int(x)) for x in row] for row in M]
    rank = 0
    mm = len(rows[0]) if rows else 0
    for j in range(mm):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        base = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][j]:
                c = rows[i][j] / base[j]
                rows[i] = [x - c * b for x, b in zip(rows[i], base)]
        rank += 1
    return rank


def word_exponents(w, m):
    out = [0] * m
    for x in w:
        out[abs(x) - 1] += 1 if x > 0 else -1
    return out


# ------------------------------------------------------ exponent matrix

def test_exponent_matrix_examples():
    p = make_presentation(2, 3, [(1, 1, 2)])
    assert exponent_matrix(p).tolist() == [[2, 1]]
    p = make_presentation(2, 4, [(1, 2, -1, -2)])
    assert exponent_matrix(p).tolist() == [[0, 0]]
    p = make_presentation(3, 3, [])
    assert exponent_matrix(p).shape == (0, 3)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_exponent_matrix_matches_direct_count(data):
    m = data.draw(st.integers(1, 4))
    ell = data.draw(st.integers(1, 4))
    pool = word_pool(m, ell)
    k = data.draw(st.integers(0, min(len(pool), 6)))
    idxs = data.draw(st.lists(st.integers(0, len(pool) - 1),
                              min_size=k, max_size=k, unique=True))
    pres = make_presentation(m, ell, [pool[i] for i in idxs])
    mat = exponent_matrix(pres)
    want = [word_exponents(w, m) for w in pres.relators]
    assert mat.tolist() == want


# ------------------------------------------------------------ Smith form

def test_smith_form_examples():
    assert smith_normal_form([[2, 1], [1, 2]]) == (1, 3)
    assert smith_normal_form(np.eye(3, dtype=np.int64)) == (1, 1, 1)
    assert smith_normal_form([[0, 0], [0, 0]]) == ()
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[4]]) == (4,)


def random_small_matrix(rng):
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 6))
    return rng.integers(-3, 4, size=(n, m))


def test_smith_form_matches_minor_gcds():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a = random_small_matrix(rng)
        assert smith_normal_form(a) == snf_oracle(a)


def unimodular_conjugate(rng, a, moves):
    """u a v for products u, v of random elementary row/column moves."""
    n, m = a.shape
    u = np.eye(n, dtype=np.int64)
    v = np.eye(m, dtype=np.int64)
    for _ in range(moves):
        if n > 1:
            i, j = rng.choice(n, size=2, replace=False)
            u[i] += int(rng.integers(-2, 3)) * u[j]
        if m > 1:
            i, j = rng.choice(m, size=2, replace=False)
            v[:, i] += int(rng.integers(-2, 3)) * v[:, j]
    return u @ a @ v


def test_smith_form_unimodular_invariance():
    rng = np.random.default_rng(7)
    for _ in range(60):
        a = random_small_matrix(rng)
        assert smith_normal_form(unimodular_conjugate(rng, a, 6)) == \
            smith_normal_form(a)


def fraction_det(a) -> int:
    """Determinant by exact elimination over the rationals."""
    rows = [[Fraction(int(x)) for x in row] for row in a]
    n = len(rows)
    det = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if rows[i][j]), None)
        if piv is None:
            return 0
        if piv != j:
            rows[j], rows[piv] = rows[piv], rows[j]
            det = -det
        det *= rows[j][j]
        for i in range(j + 1, n):
            c = rows[i][j] / rows[j][j]
            rows[i] = [x - c * y for x, y in zip(rows[i], rows[j])]
    return int(det)


@pytest.mark.parametrize("n", [9, 12, 24])
def test_dense_smith_form_past_the_minor_oracle(n):
    a = np.random.default_rng(5).integers(-3, 4, (n, n))
    t0 = time.perf_counter()
    d = smith_normal_form(a)
    assert time.perf_counter() - t0 < 10
    det = fraction_det(a)
    assert det != 0 and len(d) == n
    assert math.prod(d) == abs(det)
    assert all(d[i + 1] % d[i] == 0 for i in range(n - 1))
    rng = np.random.default_rng(n)
    assert smith_normal_form(unimodular_conjugate(rng, a, 2 * n)) == d


def test_smith_form_divisibility_chain():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = smith_normal_form(random_small_matrix(rng))
        assert all(x > 0 for x in d)
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))


# --------------------------------------------------- integer row basis

def test_row_basis_rank_matches_rational_rank():
    rng = np.random.default_rng(3)
    for _ in range(120):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 6))
        a = rng.integers(-4, 5, size=(n, m))
        basis = IntegerRowBasis(m)
        for row in a:
            basis.add(row)
        assert basis.rank == rational_rank(a)


def test_row_basis_preserves_lattice():
    # same nonzero Smith diagonals means same row lattice invariants
    rng = np.random.default_rng(9)
    for _ in range(120):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 5))
        a = rng.integers(-4, 5, size=(n, m))
        basis = IntegerRowBasis(m)
        for row in a:
            basis.add(row)
        reduced = basis.matrix()
        assert len(reduced) == basis.rank
        assert smith_normal_form(reduced) == smith_normal_form(a)


def test_row_basis_promotes_to_big_integers():
    basis = IntegerRowBasis(2)
    assert basis.add([1, 2 ** 50])
    assert basis.add([2 ** 50, 1])
    assert basis.big
    assert basis.rank == 2
    want = snf_oracle([[1, 2 ** 50], [2 ** 50, 1]])
    assert want == (1, 2 ** 100 - 1)
    assert smith_normal_form(basis.matrix()) == want


def test_row_basis_takes_a_row_beyond_int64():
    basis = IntegerRowBasis(2)
    assert basis.add([2 ** 70, 1])
    assert basis.big
    assert basis.add([3, 5])
    assert not basis.add([2 ** 70 + 3, 6])
    want = snf_oracle([[2 ** 70, 1], [3, 5]])
    assert smith_normal_form(basis.matrix()) == want == (1, 5 * 2 ** 70 - 3)


def test_row_basis_ignores_dependent_rows():
    basis = IntegerRowBasis(3)
    assert basis.add([1, 2, 3])
    assert basis.add([2, 0, 1])
    assert not basis.add([3, 2, 4])
    assert not basis.add([0, 0, 0])
    assert basis.rank == 2


# --------------------------------------------------- abelian invariants

def test_invariants_examples():
    pres = make_presentation(2, 3, [(1, 1, 2), (1, 2, 2)])
    assert abelian_invariants(pres) == AbelianInvariants(betti=0, torsion=(3,))
    assert abelian_invariants(make_presentation(2, 3, [])) == \
        AbelianInvariants(betti=2, torsion=())
    pres = make_presentation(3, 3, [(1, 2, 3)])
    assert abelian_invariants(pres) == AbelianInvariants(betti=2, torsion=())


def test_invariants_json():
    inv = AbelianInvariants(betti=1, torsion=(2, 4))
    assert inv.to_json_dict() == {"betti": 1, "torsion": [2, 4]}


@st.composite
def small_presentations(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    ell = draw(st.integers(min_value=1, max_value=4))
    pool = word_pool(m, ell)
    k = draw(st.integers(min_value=0, max_value=min(len(pool), 6)))
    idxs = draw(st.lists(st.integers(0, len(pool) - 1),
                         min_size=k, max_size=k, unique=True))
    return make_presentation(m, ell, [pool[i] for i in idxs])


@settings(max_examples=200, deadline=None)
@given(small_presentations())
def test_invariants_against_direct_smith_form(pres):
    inv = abelian_invariants(pres)
    diags = smith_normal_form(exponent_matrix(pres))
    assert inv.betti == pres.m - len(diags)
    assert inv.torsion == tuple(d for d in diags if d > 1)
    assert inv.betti + len(inv.torsion) <= pres.m
    assert all(inv.torsion[i + 1] % inv.torsion[i] == 0
               for i in range(len(inv.torsion) - 1))


@settings(max_examples=150, deadline=None)
@given(small_presentations())
def test_surjection_agrees_with_betti(pres):
    inv = abelian_invariants(pres)
    rep = surjects_onto_Z_details(pres)
    assert rep.surjects == (inv.betti >= 1)
    assert rep.exact  # every small path is an exact tier
    assert surjects_onto_Z(pres) == rep.surjects


@settings(max_examples=100, deadline=None)
@given(small_presentations())
def test_free_certificate_forces_free_abelianization(pres):
    cert = certify_free(pres)
    if isinstance(cert, EliminationCertificate):
        inv = abelian_invariants(pres)
        assert inv == AbelianInvariants(betti=cert.final_rank, torsion=())


# ------------------------------------------------------ surjection tiers

def test_surjection_examples():
    assert surjects_onto_Z(make_presentation(2, 3, [(1, 1, 2)]))
    assert not surjects_onto_Z(
        make_presentation(2, 3, [(1, 1, 2), (1, 2, 2)]))
    assert surjects_onto_Z(make_presentation(3, 3, []))


def test_no_relators_tier():
    rep = surjects_onto_Z_details(make_presentation(5, 3, []))
    assert rep == ZR(True, True, "no_relators")


def test_row_deficit_tier():
    rep = surjects_onto_Z_details(make_presentation(3, 3, [(1, 2, 3)]))
    assert rep == ZR(True, True, "fewer_nonzero_rows_than_generators")


def test_zero_column_tier():
    pres = make_presentation(2, 3, [(1, 1, 1), (-1, -1, -1)])
    rep = surjects_onto_Z_details(pres)
    assert rep == ZR(True, True, "zero_exponent_column")


def test_zero_sum_tier():
    pres = make_presentation(2, 4, [(1, 1, -2, -2), (2, 2, -1, -1)])
    rep = surjects_onto_Z_details(pres)
    assert rep == ZR(True, True, "total_exponent_sums_all_zero")


def test_full_rank_tier():
    pres = make_presentation(2, 3, [(1, 1, 2), (1, 2, 2)])
    rep = surjects_onto_Z_details(pres)
    assert rep == ZR(False, True, "full_rank_mod_p")


def balanced_pool_words(n_words):
    # ell=4 words over 8 generators whose first two exponents agree,
    # so every exponent row is orthogonal to e1 - e2 and rank <= 7
    base = [(g, g, g, g) for g in range(3, 9)] + [(1, 2, 1, 2)]
    out = list(base)
    for w in word_pool(4, 4):
        if len(out) >= n_words:
            break
        exps = word_exponents(w, 8)
        if w in base or exps[0] != exps[1] or not any(exps):
            continue
        out.append(w)
    assert len(out) == n_words
    return out


def test_exact_elimination_tier():
    # 150 rows: above the probe sample, below the exact-scan cutoff
    pres = make_presentation(8, 4, balanced_pool_words(150))
    rep = surjects_onto_Z_details(pres)
    assert rep == ZR(True, True, "integer_elimination")
    assert rational_rank(exponent_matrix(pres)) < 8


def test_streamed_two_prime_tier():
    # 161 rows pushes past the exact-scan cutoff at m=8, and past m + 64,
    # so the second prime ranks a compressed core
    pres = make_presentation(8, 4, balanced_pool_words(161))
    rep = surjects_onto_Z_details(pres)
    assert rep == ZR(True, False, "aggregated_rank_deficient_mod_two_primes")
    # the inexact verdict is in fact correct here
    assert rational_rank(exponent_matrix(pres)) < 8


def test_large_full_rank_goes_through_compressed_probe():
    # dense enough that every generator is hit ~25 times
    pres = sample_binomial(ModelParams(m=600, ell=3, param=2.9e-6, seed=2026))
    assert len(pres) > 664
    rep = surjects_onto_Z_details(pres)
    assert rep == ZR(False, True, "full_rank_mod_p")


def test_large_deficit_reports_inexact():
    inner = sample_binomial(ModelParams(m=598, ell=4, param=7.4e-10, seed=77))
    special = [(a, 599, 599, -600) for a in range(1, 21)]
    rels = list(inner.relators) + special
    pres = make_presentation(600, 4, rels)
    # every exponent row is orthogonal to (0, ..., 0, 1, 2)
    assert len(pres) > 664
    rep = surjects_onto_Z_details(pres)
    assert rep == ZR(True, False, "aggregated_rank_deficient_mod_two_primes")


def test_core_memory_gate_raises_typed_error(monkeypatch):
    pres = sample_binomial(ModelParams(m=600, ell=3, param=2.9e-6, seed=2026))
    monkeypatch.setattr(abz, "_DENSE_CAP", 1000)
    with pytest.raises(BudgetExceededError) as err:
        surjects_onto_Z_details(pres)
    assert err.value.check == "surjects_onto_Z"
    assert err.value.limit == 1000


def _band(m, extra):
    # m cyclic band rows e_g + e_{g+1} + e_{g+3}, full rank because
    # 1 + x + x^3 has no root of unity among its roots, plus `extra`
    # further rows; no row has a single nonzero, so the peel needs seeds
    rels = [(g, g % m + 1, (g + 2) % m + 1) for g in range(1, m + 1)]
    rels += [(g, g + 2, g + 7) for g in range(1, extra + 1)]
    return make_presentation(m, 3, rels)


def test_lossless_core_memory_gate_raises_typed_error(monkeypatch):
    # at most m + 64 nonzero rows: the core is ranked uncompressed, and
    # its (s + 64) x m buckets and m x s solve are gated together
    pres = _band(50, 10)
    entries = abz._exponent_entries(pres)
    s = len(abz._peel(entries, 50).seeds)
    assert s > 0 and 50 <= len(entries[3]) - 1 <= 50 + 64
    need = (s + 64) * 50 + 50 * s
    monkeypatch.setattr(abz, "_DENSE_CAP", need - 1)
    with pytest.raises(BudgetExceededError) as err:
        surjects_onto_Z_details(pres)
    assert err.value.check == "surjects_onto_Z"
    assert err.value.limit == need - 1
    monkeypatch.setattr(abz, "_DENSE_CAP", need)
    assert surjects_onto_Z_details(pres) == ZR(False, True, "full_rank_mod_p")


@st.composite
def tall_presentations(draw, extra_rows):
    # m + extra_rows nonzero rows, for extra_rows drawn from the given
    # (lo, hi) range: above 64 the peeled core is compressed, up to 64 it
    # is not; rows touching two or more generators make the peel stall,
    # and rows orthogonal to a vector v make the matrix rank deficient
    m, ell = draw(st.sampled_from([(2, 4), (3, 3), (3, 4), (4, 3), (5, 3)]))
    min_support = draw(st.integers(1, 2))
    pool = [w for w in word_pool(m, ell)
            if sum(1 for x in word_exponents(w, m) if x) >= min_support]
    if len(pool) <= m + 64:
        pool = [w for w in word_pool(m, ell) if any(word_exponents(w, m))]
    if draw(st.booleans()):
        v = draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m)
                 .filter(any))
        confined = [w for w in pool if sum(
            a * b for a, b in zip(word_exponents(w, m), v)) == 0]
        if len(confined) > m + 64:
            pool = confined
    lo, hi = extra_rows
    k = draw(st.integers(m + lo, min(len(pool), m + hi)))
    idxs = draw(st.lists(st.integers(0, len(pool) - 1),
                         min_size=k, max_size=k, unique=True))
    return make_presentation(m, ell, [pool[i] for i in idxs])


@settings(max_examples=80, deadline=None)
@given(st.one_of(tall_presentations((65, 110)), tall_presentations((0, 64))),
       st.integers(0, 2**32))
def test_core_rank_is_a_sound_lower_bound(pres, seed):
    dense = exponent_matrix(pres)
    entries = abz._exponent_entries(pres)
    peel = abz._peel(entries, pres.m)
    lossless = len(entries[3]) - 1 <= pres.m + 64
    for p in (PRIME_A, PRIME_B):
        rank = abz._core_rank(entries, peel, pres.m, p, seed)
        assert rank <= rank_mod_p(dense, p)
        if lossless:
            # one core row per bucket at most: nothing is compressed away
            assert rank == rank_mod_p(dense, p)
        if rank == pres.m:
            assert rational_rank(dense) == pres.m


def test_details_deterministic():
    pres = sample_binomial(ModelParams(m=600, ell=3, param=2.9e-6, seed=2026))
    assert surjects_onto_Z_details(pres) == surjects_onto_Z_details(pres)


# ----------------------------------------------- golden tier decisions

def _dense_trial_shaped(m, seed):
    return sample_binomial(
        ModelParams(m=m, ell=4, param=math.log(m) * m ** -3, seed=seed))


def _sparse_ell3(m, c, seed):
    return sample_binomial(
        ModelParams(m=m, ell=3, param=c * math.log(m) * m ** -2, seed=seed))


def _direct_deficit_above_exact_cutoff():
    # 538 rows at m=520: every row is orthogonal to e_519 + e_520, and
    # the row count stays below m + 64, so the whole matrix is ranked
    rels = [(g, g, g, g) for g in range(1, 519)]
    rels += [(519, a, -520, b) for a in range(1, 5) for b in range(1, 6)]
    return make_presentation(520, 4, rels)


def _equal_first_exponents_m3():
    # the first 62 words whose exponents on generators 1 and 2 agree:
    # rank <= 2, and 62 rows exceed 20 m = 60 but not m + 64 = 67
    def ok(w):
        e = word_exponents(w, 3)
        return e[0] == e[1] and any(e)
    words = [w for w in iter_cyclically_reduced(3, 4) if ok(w)][:62]
    return make_presentation(3, 4, words)


def _large_deficit():
    inner = sample_binomial(ModelParams(m=598, ell=4, param=7.4e-10, seed=77))
    special = [(a, 599, 599, -600) for a in range(1, 21)]
    return make_presentation(600, 4, list(inner.relators) + special)


FULL = ZR(False, True, "full_rank_mod_p")

GOLDEN_TIERS = [
    ("no_relators", lambda: make_presentation(5, 3, []),
     ZR(True, True, "no_relators")),
    ("positive_m8_sparse",
     lambda: sample("positive", ModelParams(m=8, ell=3, param=0.02, seed=2)),
     ZR(True, True, "fewer_nonzero_rows_than_generators")),
    ("zero_column_m1000", lambda: _sparse_ell3(1000, 0.05, 5),
     ZR(True, True, "zero_exponent_column")),
    ("zero_sums", lambda: make_presentation(
        2, 4, [(1, 1, -2, -2), (2, 2, -1, -1)]),
     ZR(True, True, "total_exponent_sums_all_zero")),
    ("direct_full_m8",
     lambda: sample("positive", ModelParams(m=8, ell=3, param=0.1, seed=0)),
     FULL),
    ("direct_exact_m8",
     lambda: make_presentation(8, 4, balanced_pool_words(40)),
     ZR(True, True, "integer_elimination")),
    ("direct_deficit_m520", _direct_deficit_above_exact_cutoff,
     ZR(True, False, "rank_deficient_mod_two_primes")),
    ("probe_full_positive_m8",
     lambda: sample("positive", ModelParams(m=8, ell=3, param=0.5, seed=1)),
     FULL),
    ("probe_exact_m8",
     lambda: make_presentation(8, 4, balanced_pool_words(150)),
     ZR(True, True, "integer_elimination")),
    ("exact_row_edge_m3", _equal_first_exponents_m3,
     ZR(True, True, "integer_elimination")),
    ("probe_streamed_m8",
     lambda: make_presentation(8, 4, balanced_pool_words(161)),
     ZR(True, False, "aggregated_rank_deficient_mod_two_primes")),
    ("band_full_m600", lambda: _band(600, 30), FULL),
    ("probe_full_m600", lambda: sample_binomial(
        ModelParams(m=600, ell=3, param=2.9e-6, seed=2026)), FULL),
    ("probe_deficit_m600", _large_deficit,
     ZR(True, False, "aggregated_rank_deficient_mod_two_primes")),
    ("sparse_ell3_m1000", lambda: _sparse_ell3(1000, 0.05, 0), FULL),
    ("ell3_m1000", lambda: _sparse_ell3(1000, 0.3, 1), FULL),
    ("dense_trial_m1000_s1", lambda: _dense_trial_shaped(1000, 1), FULL),
    ("dense_trial_m1000_s2", lambda: _dense_trial_shaped(1000, 2), FULL),
    ("dense_trial_m1100_s3", lambda: _dense_trial_shaped(1100, 3), FULL),
]


@pytest.mark.parametrize("make, want", [(mk, w) for _, mk, w in GOLDEN_TIERS],
                         ids=[name for name, _, _ in GOLDEN_TIERS])
def test_golden_tier_decisions(make, want):
    assert surjects_onto_Z_details(make()) == want


def test_golden_positive_sweep_tiers():
    # the small positive-model grid of scripts/threshold_sweep.py, one
    # fixed master seed: every trial's deciding tier is pinned
    grid = (0.001, 0.005, 0.02, 0.1, 0.3, 0.5, 0.7)
    got = Counter()
    for pi, p in enumerate(grid):
        for ti in range(30):
            pres = sample("positive", ModelParams(
                m=8, ell=3, param=p, seed=trial_seed(4242, pi, ti)))
            got[surjects_onto_Z_details(pres)] += 1
    assert got == Counter({
        FULL: 140,
        ZR(True, True, "fewer_nonzero_rows_than_generators"): 46,
        ZR(True, True, "no_relators"): 19,
        ZR(True, True, "integer_elimination"): 3,
        ZR(True, True, "zero_exponent_column"): 2,
    })
