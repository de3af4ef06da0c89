from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import replace
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
from randgroup.words import is_cyclically_reduced, iter_cyclically_reduced

from oracles import bareiss_det, rank_mod_p


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


def test_exponent_matrix_cap_raises_typed_error(monkeypatch):
    pres = make_presentation(4, 3, [(1, 2, 3), (2, 3, 4)])
    monkeypatch.setattr(abz, "_DENSE_CAP", 7)
    with pytest.raises(BudgetExceededError) as err:
        exponent_matrix(pres)
    assert err.value.check == "exponent_matrix"
    assert err.value.limit == 7
    monkeypatch.setattr(abz, "_DENSE_CAP", 8)
    assert exponent_matrix(pres).shape == (2, 4)


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


# n = 60 finishes only while the fold keeps its rows reduced
@pytest.mark.parametrize("n", [9, 12, 24, 60])
def test_dense_smith_form_past_the_minor_oracle(n):
    a = np.random.default_rng(5).integers(-3, 4, (n, n))
    t0 = time.perf_counter()
    d = smith_normal_form(a)
    assert time.perf_counter() - t0 < 10
    det = bareiss_det(a)
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
        basis = IntegerRowBasis()
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
        basis = IntegerRowBasis()
        for row in a:
            basis.add(row)
        reduced = basis.matrix()
        assert len(reduced) == basis.rank
        assert smith_normal_form(reduced) == smith_normal_form(a)


def test_row_basis_promotes_to_big_integers():
    basis = IntegerRowBasis()
    assert basis.add([1, 2 ** 50])
    assert basis.add([2 ** 50, 1])
    assert basis.rank == 2
    want = snf_oracle([[1, 2 ** 50], [2 ** 50, 1]])
    assert want == (1, 2 ** 100 - 1)
    assert smith_normal_form(basis.matrix()) == want


def test_row_basis_takes_a_row_beyond_int64():
    basis = IntegerRowBasis()
    assert basis.add([2 ** 70, 1])
    assert basis.add([3, 5])
    assert not basis.add([2 ** 70 + 3, 6])
    want = snf_oracle([[2 ** 70, 1], [3, 5]])
    assert smith_normal_form(basis.matrix()) == want == (1, 5 * 2 ** 70 - 3)


def test_row_basis_ignores_dependent_rows():
    basis = IntegerRowBasis()
    assert basis.add([1, 2, 3])
    assert basis.add([2, 0, 1])
    assert not basis.add([3, 2, 4])
    assert not basis.add([0, 0, 0])
    assert basis.rank == 2


def folded(pres):
    """The row basis of the whole exponent matrix."""
    return IntegerRowBasis(exponent_matrix(pres))


def largest_entry(basis):
    return max(abs(int(x)) for row in basis.matrix() for x in row)


def rank_deficient(m, k):
    # ell = 4: one relator in ten is (a, m, b, -(m-1)) and the others
    # avoid generators m-1 and m, so e_{m-1} + e_m is in the kernel
    rng = np.random.default_rng(m)
    rels = set()
    while len(rels) < k:
        if len(rels) % 10 == 0:
            a, b = rng.integers(1, m - 1, size=2)
            w = (int(a), m, int(b), -(m - 1))
        else:
            w = tuple(int(g) * int(s) for g, s in zip(
                rng.integers(1, m - 1, size=4), rng.choice([-1, 1], size=4)))
        if is_cyclically_reduced(w):
            rels.add(w)
    return make_presentation(m, 4, sorted(rels))


def test_fold_of_a_sampled_file_keeps_small_entries():
    # randgroup sample -m 100 -l 4 --p 5/100^3 --seed 1: Bezout steps
    # alone grew its echelon rows to 2414 bits, and the same shape at
    # m=300 gave no answer
    pres = sample_binomial(ModelParams(m=100, ell=4, param=5e-6, seed=1))
    basis = folded(pres)
    assert basis.rank == 100
    assert largest_entry(basis) < 2**32
    diags = smith_normal_form(basis.matrix())
    assert len(diags) == 100 and [d for d in diags if d > 1] == [2]
    assert abelian_invariants(pres) == AbelianInvariants(betti=0, torsion=(2,))


def test_rank_deficient_file_is_decided_exactly():
    # the fold of all 2000 rows stays small; the witness route decides
    # the file from the peeled core
    pres = rank_deficient(120, 2000)
    basis = folded(pres)
    assert basis.rank == 119
    assert largest_entry(basis) < 2**32
    assert surjects_onto_Z_details(pres) == \
        ZR(True, True, "integer_kernel_vector", (0,) * 118 + (1, 1))
    assert abelian_invariants(pres).betti == 1


def test_large_rank_deficient_file_is_fast():
    # folding all 5900 rows over the integers takes about 5 s here
    pres = rank_deficient(300, 5900)
    t0 = time.perf_counter()
    rep = surjects_onto_Z_details(pres)
    assert time.perf_counter() - t0 < 2
    assert rep == ZR(True, True, "integer_kernel_vector", (0,) * 298 + (1, 1))


def chain(m):
    # rows 2 e_i - e_{i+1}, twice each: the kernel is spanned by
    # (1, 2, 4, ..., 2^(m-1)), so its lift needs about m bits
    rels = [(i, k, i, -k, -(i + 1)) for i in range(1, m)
            for k in (i % m + 1, (i + 1) % m + 1)]
    return make_presentation(m, 5, rels)


@pytest.mark.parametrize("m", [100, 300])
def test_chain_kernel_vector_is_lifted_exactly(m):
    pres = chain(m)
    t0 = time.perf_counter()
    rep = surjects_onto_Z_details(pres)
    assert time.perf_counter() - t0 < 10
    assert rep == ZR(True, True, "integer_kernel_vector",
                     tuple(2 ** i for i in range(m)))


def test_a_wrong_lift_is_caught_by_the_exact_check(monkeypatch):
    lift, calls = abz._lift, []

    def first_wrong(x, mod):
        calls.append(mod)
        return [1] * len(x) if len(calls) == 1 else lift(x, mod)

    monkeypatch.setattr(abz, "_lift", first_wrong)
    rep = surjects_onto_Z_details(rank_deficient(120, 2000))
    assert rep.witness == (0,) * 118 + (1, 1) and len(calls) > 1


def test_running_out_of_primes_raises(monkeypatch):
    monkeypatch.setattr(abz, "_primes", lambda: iter([PRIME_A, PRIME_B]))
    with pytest.raises(BudgetExceededError) as err:
        surjects_onto_Z_details(chain(100))
    assert err.value.check == "surjects_onto_Z"
    assert err.value.limit == 2


@pytest.mark.parametrize("val, pivots", [
    (1, 1), (-1, 1), (2, 0), (-2, 0), (2**18 - 1, 0)])
def test_peel_pivots_only_on_plus_or_minus_one(val, pivots):
    # only a pivot of ±1 writes its generator over the integers; any
    # other exponent leaves its column to become a seed
    entries = tuple(np.array(a) for a in ([0], [0], [val], [0, 1]))
    peel = abz._peel(entries, 1)
    assert len(peel.rounds) == pivots
    assert peel.seeds.tolist() == [0] * (1 - pivots)
    assert peel.core.tolist() == [not pivots]


# --------------------------------------------------- abelian invariants

def test_invariants_examples():
    pres = make_presentation(2, 3, [(1, 1, 2), (1, 2, 2)])
    assert abelian_invariants(pres) == AbelianInvariants(betti=0, torsion=(3,))
    assert abelian_invariants(make_presentation(2, 3, [])) == \
        AbelianInvariants(betti=2, torsion=())
    pres = make_presentation(3, 3, [(1, 2, 3)])
    assert abelian_invariants(pres) == AbelianInvariants(betti=2, torsion=())
    # generators 1, 3 and 6 never occur; a commutator has zero exponent
    # everywhere, so its generators are free too
    pres = make_presentation(6, 3, [(2, 2, 5), (2, 5, 5)])
    assert abelian_invariants(pres) == AbelianInvariants(betti=4, torsion=(3,))
    pres = make_presentation(3, 4, [(1, 2, -1, -2)])
    assert abelian_invariants(pres) == AbelianInvariants(betti=3, torsion=())


def test_invariants_of_the_chain_lift_exact_big_entries():
    # the solve writes each generator over two seeds, with entries up
    # to 2^298, far past int64
    assert abelian_invariants(chain(300)) == \
        AbelianInvariants(betti=1, torsion=())


def test_invariants_of_a_sampled_m300_file_are_fast():
    # randgroup sample -m 300 -l 4 --p 5/300^3 --seed 1: folding the
    # whole matrix took about 20 s
    pres = sample_binomial(ModelParams(m=300, ell=4, param=5 / 300**3, seed=1))
    t0 = time.perf_counter()
    inv = abelian_invariants(pres)
    assert time.perf_counter() - t0 < 5
    assert inv == AbelianInvariants(betti=0, torsion=(2,))


def test_invariants_gate_the_solve_before_allocating(monkeypatch):
    # no zero columns: the solve is m x |S| for all the seeds
    pres = _band(50, 10)
    need = 50 * len(abz._peel(abz._exponent_entries(pres), 50).seeds)
    assert need > 0 and smith_normal_form(exponent_matrix(pres))[-1] == 3
    monkeypatch.setattr(abz, "_DENSE_CAP", need)
    assert abelian_invariants(pres) == AbelianInvariants(betti=0, torsion=(3,))
    monkeypatch.setattr(abz, "_DENSE_CAP", need - 1)
    monkeypatch.setattr(abz, "_solve", None)  # never reached
    with pytest.raises(BudgetExceededError) as err:
        abelian_invariants(pres)
    assert err.value.check == "abelian_invariants"
    assert err.value.limit == need - 1


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


def kills(pres, w):
    return not (exponent_matrix(pres).astype(object)
                @ np.array(w, dtype=object)).any()


E1_MINUS_E2 = (1, -1) + (0,) * 6


def test_exact_elimination_tier():
    # 150 rows, past m + 64 = 72: the core is compressed
    pres = make_presentation(8, 4, balanced_pool_words(150))
    rep = surjects_onto_Z_details(pres)
    assert rep == ZR(True, True, "integer_kernel_vector", E1_MINUS_E2)
    assert kills(pres, rep.witness)
    assert rational_rank(exponent_matrix(pres)) < 8


def test_streamed_two_prime_tier():
    # 161 rows, past m + 64: the witness comes from a compressed core
    pres = make_presentation(8, 4, balanced_pool_words(161))
    rep = surjects_onto_Z_details(pres)
    assert rep == ZR(True, True, "integer_kernel_vector", E1_MINUS_E2)
    assert kills(pres, rep.witness)
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
    assert rep == ZR(True, True, "integer_kernel_vector", (0,) * 598 + (1, 2))
    assert kills(pres, rep.witness)


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


# ---------------------------------------- row sample of at least 32 m rows

NO_SAMPLE = 10**9  # _SAMPLE_ROWS past any relator count: no sample


def test_deficient_sample_falls_through_to_the_same_witness(monkeypatch):
    pres = rank_deficient(60, 4000)
    assert len(pres) >= 32 * 60
    want = ZR(True, True, "integer_kernel_vector", (0,) * 58 + (1, 1))
    tried, ranked = [], abz._sample_has_full_rank

    def spy(*args):
        tried.append(ranked(*args))
        return tried[-1]

    monkeypatch.setattr(abz, "_sample_has_full_rank", spy)
    assert surjects_onto_Z_details(pres) == want
    assert tried == [False]
    monkeypatch.setattr(abz, "_SAMPLE_ROWS", NO_SAMPLE)
    assert surjects_onto_Z_details(pres) == want
    assert tried == [False]


@st.composite
def dense_presentations(draw):
    # 32 m to 48 m distinct rows, so the row sample is ranked first;
    # rows orthogonal to a vector v make the matrix rank deficient
    m, ell = draw(st.sampled_from(
        [(2, 4), (3, 4), (4, 3), (4, 4), (5, 3), (6, 3)]))
    pool = word_pool(m, ell)
    if draw(st.booleans()):
        v = draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m)
                 .filter(any))
        confined = [w for w in pool if sum(
            a * b for a, b in zip(word_exponents(w, m), v)) == 0]
        if len(confined) >= 32 * m:
            pool = confined
    k = draw(st.integers(32 * m, min(len(pool), 48 * m)))
    return make_presentation(m, ell, draw(st.permutations(pool))[:k])


@settings(max_examples=60, deadline=None)
@given(dense_presentations())
def test_sample_changes_no_report(pres):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abz, "_SAMPLE_ROWS", NO_SAMPLE)
        full = surjects_onto_Z_details(pres)
    assert surjects_onto_Z_details(pres) == full


def test_sample_past_the_dense_cap_falls_through(monkeypatch):
    # the sample leaves more seeds than the whole matrix: a cap that
    # fits the full path exactly refuses the sample, not the answer
    m = 100
    pres = _dense_trial_shaped(m, 1)
    stride = len(pres) // (abz._SAMPLE_ROWS * m)
    assert stride >= 2
    sample, full = (abz._core_cells(len(abz._peel(
        abz._exponent_entries(pres, sel), m).seeds), m)
        for sel in (slice(None, None, stride), slice(None)))
    assert sample > full
    monkeypatch.setattr(abz, "_DENSE_CAP", full)
    assert surjects_onto_Z_details(pres) == ZR(False, True, "full_rank_mod_p")
    monkeypatch.setattr(abz, "_DENSE_CAP", full - 1)
    with pytest.raises(BudgetExceededError) as err:
        surjects_onto_Z_details(pres)
    assert err.value.check == "surjects_onto_Z"
    assert err.value.limit == full - 1


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
    for p in (PRIME_A, PRIME_B, 2**18 + 3):
        rank, f, x = abz._core_rank(entries, peel, pres.m, p, seed)
        assert rank <= rank_mod_p(dense, p)
        if lossless:
            # one core row per bucket at most: nothing is compressed away
            assert rank == rank_mod_p(dense, p)
        if rank == pres.m:
            assert rational_rank(dense) == pres.m
            assert x is None
            continue
        # the kernel vector is 1 at the f-th seed and 0 at later ones
        assert x[peel.seeds[f]] == 1 and not x[peel.seeds[f + 1:]].any()
        if lossless:
            assert not (dense @ x % p).any()


@settings(max_examples=80, deadline=None)
@given(st.one_of(tall_presentations((65, 110)), tall_presentations((0, 64))))
def test_invariants_of_tall_presentations_against_direct_smith_form(pres):
    # exponents of ±2 and ±3 that the peel does not pivot on, zero
    # columns and rank deficits
    diags = smith_normal_form(exponent_matrix(pres))
    assert abelian_invariants(pres) == AbelianInvariants(
        betti=pres.m - len(diags), torsion=tuple(d for d in diags if d > 1))


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_presentations(), tall_presentations((65, 110)),
                 tall_presentations((0, 64))))
def test_every_deficit_has_an_exact_witness(pres):
    rep = surjects_onto_Z_details(pres)
    dense = exponent_matrix(pres)
    assert rep.exact
    assert rep.surjects == (rational_rank(dense) < pres.m)
    if rep.witness is not None:
        assert rep.method == "integer_kernel_vector"
        assert any(rep.witness) and math.gcd(*rep.witness) == 1
        assert kills(pres, rep.witness)


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
     ZR(True, True, "integer_kernel_vector", E1_MINUS_E2)),
    ("direct_deficit_m520", _direct_deficit_above_exact_cutoff,
     ZR(True, True, "integer_kernel_vector", (0,) * 518 + (1, 1))),
    ("probe_full_positive_m8",
     lambda: sample("positive", ModelParams(m=8, ell=3, param=0.5, seed=1)),
     FULL),
    ("probe_exact_m8",
     lambda: make_presentation(8, 4, balanced_pool_words(150)),
     ZR(True, True, "integer_kernel_vector", E1_MINUS_E2)),
    ("exact_row_edge_m3", _equal_first_exponents_m3,
     ZR(True, True, "integer_kernel_vector", (1, -1, 0))),
    ("probe_streamed_m8",
     lambda: make_presentation(8, 4, balanced_pool_words(161)),
     ZR(True, True, "integer_kernel_vector", E1_MINUS_E2)),
    ("band_full_m600", lambda: _band(600, 30), FULL),
    ("probe_full_m600", lambda: sample_binomial(
        ModelParams(m=600, ell=3, param=2.9e-6, seed=2026)), FULL),
    ("probe_deficit_m600", _large_deficit,
     ZR(True, True, "integer_kernel_vector", (0,) * 598 + (1, 2))),
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
            rep = surjects_onto_Z_details(pres)
            assert rep.witness is None or kills(pres, rep.witness)
            got[replace(rep, witness=None)] += 1
    assert got == Counter({
        FULL: 140,
        ZR(True, True, "fewer_nonzero_rows_than_generators"): 46,
        ZR(True, True, "no_relators"): 19,
        ZR(True, True, "integer_kernel_vector"): 3,
        ZR(True, True, "zero_exponent_column"): 2,
    })
