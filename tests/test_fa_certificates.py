from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randgroup import fa_certificates
from randgroup.abelianization import surjects_onto_Z
from randgroup.errors import BudgetExceededError, DomainError
from randgroup.experiments import Budgets, decide_verdict
from randgroup.fa_certificates import (
    FAReport,
    LWitness,
    SL_NODE_BUDGET,
    SLWitness,
    VERDICT_FA,
    VERDICT_FREE,
    VERDICT_SPLITS,
    VERDICT_UNKNOWN,
    check_L_exact,
    check_SL_exact,
    unused_generators,
    verify_L_witness,
    verify_SL_witness,
)
from randgroup.freeness import EliminationCertificate, certify_free
from randgroup.model import (ModelParams, make_presentation, sample,
                             sample_positive)

from oracles import (reference_check_L, reference_check_SL,
                     reference_fa_verdict)

EPS = Fraction(1, 100)


def all_positive_words(m, ell):
    return [w for w in product(range(1, m + 1), repeat=ell)]


def cascade_report(pres, eps=EPS):
    """The check-fa report of the verdict cascade, held to the reference."""
    rep = decide_verdict(pres, eps, Budgets()).fa_report(eps)
    assert rep == reference_fa_verdict(pres, eps)
    return rep


def set_size(eps, m):
    return max(1, -((-eps.numerator * m) // eps.denominator))


def partition_cap(eps, m):
    e = 1 - eps
    return max(1, (e.numerator * m) // e.denominator)


# --------------------------------------------------------------- oracles

def naive_check_L(pres, eps):
    # literal scan of every tuple of size-s sets
    m, ell, s = pres.m, pres.ell, set_size(eps, pres.m)
    rels = pres.relators
    for sets in product(combinations(range(1, m + 1), s), repeat=ell):
        hit = any(all(r[i] in sets[i] for i in range(ell)) for r in rels)
        if not hit:
            return sets
    return "holds"


def naive_check_SL(pres, eps):
    m, cap = pres.m, partition_cap(eps, pres.m)
    rels = pres.relators
    for size in range(1, cap + 1):
        for u in combinations(range(1, m + 1), size):
            us = set(u)
            ok = any(r[0] in us and all(x not in us for x in r[1:])
                     for r in rels)
            if not ok:
                return u
    return "holds"


# ------------------------------------------------------ letter condition

def test_L_all_words_holds():
    pres = make_presentation(2, 3, all_positive_words(2, 3))
    assert check_L_exact(pres, EPS) == "holds"


def test_L_missing_word_gives_its_witness():
    words = [w for w in all_positive_words(2, 3) if w != (1, 2, 2)]
    pres = make_presentation(2, 3, words)
    got = check_L_exact(pres, EPS)
    assert got == LWitness(sets=((1,), (2,), (2,)))
    assert verify_L_witness(pres, got, EPS)


def test_L_empty_presentation():
    pres = make_presentation(3, 3, [])
    got = check_L_exact(pres, EPS)
    assert got == LWitness(sets=((1,), (1,), (1,)))
    assert verify_L_witness(pres, got, EPS)


def test_L_signed_needs_support_mode():
    pres = make_presentation(2, 3, [(1, -2, 1)])
    with pytest.raises(DomainError):
        check_L_exact(pres, EPS)


def test_L_budget():
    pres = make_presentation(6, 3, all_positive_words(6, 3))
    with pytest.raises(BudgetExceededError):
        check_L_exact(pres, Fraction(1, 3), budget=3)


def test_L_memo_cap(monkeypatch):
    # GOLDEN_L's m=8, p=0.3 search: 168 relators, charged 14 words per
    # memo entry, 116 636 nodes and fewer than 2 400 entries. A cap of
    # 10^5 words (7 142 entries) is counted against again and again and
    # moves no node count; 10^4 words (714 entries) is exceeded.
    pres = sample("positive", ModelParams(8, 3, 0.3, 0))
    eps = Fraction(1, 3)
    monkeypatch.setattr(fa_certificates, "_DENSE_CAP", 10**5)
    assert check_L_against_reference(pres, eps) == 116_636
    monkeypatch.setattr(fa_certificates, "_DENSE_CAP", 10**4)
    with pytest.raises(BudgetExceededError) as err:
        check_L_exact(pres, eps, budget=10**12)
    assert (err.value.check, err.value.limit) == ("check_L_exact", 10**4)


def test_L_bad_epsilon():
    pres = make_presentation(2, 3, [])
    for bad in (0, 1, Fraction(5, 4), -1):
        with pytest.raises(DomainError):
            check_L_exact(pres, bad)


# ------------------------------------------------------- split condition

def test_SL_pair_holds():
    pres = make_presentation(2, 3, [(1, 2, 2), (2, 1, 1)])
    assert check_SL_exact(pres, EPS) == "holds"


def test_SL_missing_direction():
    pres = make_presentation(2, 3, [(1, 2, 2)])
    got = check_SL_exact(pres, EPS)
    assert got == SLWitness(U=(2,), V=(1,))
    assert verify_SL_witness(pres, got, EPS)


def test_SL_empty_presentation():
    got = check_SL_exact(make_presentation(3, 3, []), EPS)
    assert got == SLWitness(U=(1,), V=(2, 3))
    assert verify_SL_witness(make_presentation(3, 3, []), got, EPS)


def test_SL_budget(monkeypatch):
    # the full cube holds after the root and five dead children; a sixth
    # child would force five generators into U, past cap = 4
    pres = make_presentation(6, 3, all_positive_words(6, 3))
    monkeypatch.setattr(fa_certificates, "SL_NODE_BUDGET", 6)
    assert check_SL_exact(pres, Fraction(1, 3)) == "holds"
    monkeypatch.setattr(fa_certificates, "SL_NODE_BUDGET", 5)
    with pytest.raises(BudgetExceededError) as err:
        check_SL_exact(pres, Fraction(1, 3))
    assert (err.value.check, err.value.limit) == ("check_SL_exact", 5)
    # the search has no size limit of its own
    monkeypatch.undo()
    pres = make_presentation(23, 3, [tuple([g] * 3) for g in range(1, 24)])
    assert check_SL_exact(pres, EPS) == SLWitness(U=(1,),
                                                  V=tuple(range(2, 24)))


def pair_words(m):
    """(g, h, h) for all g != h: every split is matched."""
    return [(g, h, h) for g in range(1, m + 1) for h in range(1, m + 1)
            if g != h]


def test_SL_holds_at_m40():
    pres = make_presentation(40, 3, pair_words(40))
    assert check_SL_exact(pres, EPS) == "holds"
    assert check_SL_exact(pres, Fraction(1, 3)) == "holds"


def test_SL_witness_at_m40():
    # no relator starts with 1, so the split {1} is unmatched
    words = [w for w in pair_words(40) if w[0] != 1]
    pres = make_presentation(40, 3, words)
    got = check_SL_exact(pres, EPS)
    assert got == SLWitness(U=(1,), V=tuple(range(2, 41)))
    assert verify_SL_witness(pres, got, EPS)


def test_SL_default_budget_ends_at_m40():
    # this one holds, after about 131 000 nodes
    pres = sample("positive", ModelParams(40, 4, 0.0003, 0))
    with pytest.raises(BudgetExceededError) as err:
        check_SL_exact(pres, Fraction(1, 3))
    assert (err.value.check, err.value.limit) == ("check_SL_exact",
                                                  SL_NODE_BUDGET)


def test_cascade_runs_SL_past_the_default_gate():
    pres = make_presentation(40, 3, pair_words(40))
    assert "check_SL_exact" in decide_verdict(pres, EPS).skipped
    dec = decide_verdict(pres, EPS, Budgets(sl_max_m=40))
    assert "check_SL_exact" not in dec.skipped + dec.budget_errors
    assert dec.sl_result == "holds"


def test_SL_signed_rejected():
    pres = make_presentation(2, 3, [(1, -2, 1)])
    with pytest.raises(DomainError):
        check_SL_exact(pres, EPS)


# --------------------------------------------------- dual-route scanning

@st.composite
def positive_presentations(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    ell = draw(st.integers(min_value=1, max_value=3))
    pool = all_positive_words(m, ell)
    k = draw(st.integers(min_value=0, max_value=min(len(pool), 8)))
    idxs = draw(st.lists(st.integers(0, len(pool) - 1),
                         min_size=k, max_size=k, unique=True))
    return make_presentation(m, ell, [pool[i] for i in idxs])


@settings(max_examples=200, deadline=None)
@given(positive_presentations(),
       st.sampled_from([Fraction(1, 100), Fraction(1, 3), Fraction(1, 2)]))
def test_L_matches_naive(pres, eps):
    got = check_L_exact(pres, eps)
    want = naive_check_L(pres, eps)
    if want == "holds":
        assert got == "holds"
    else:
        assert isinstance(got, LWitness)
        assert verify_L_witness(pres, got, eps)


@settings(max_examples=200, deadline=None)
@given(positive_presentations(),
       st.sampled_from([Fraction(1, 100), Fraction(1, 3), Fraction(1, 2)]))
def test_SL_matches_naive(pres, eps):
    got = check_SL_exact(pres, eps)
    want = naive_check_SL(pres, eps)
    if want == "holds":
        assert got == "holds"
    else:
        assert isinstance(got, SLWitness)
        assert verify_SL_witness(pres, got, eps)


def test_SL_matches_reference_scan():
    # answer and witness: the unmatched split of smallest U bitmask
    rng = np.random.default_rng(20)
    epsilons = [Fraction(1, 100), Fraction(1, 3), Fraction(1, 2)]
    n_holds = 0
    for _ in range(1000):
        m, ell = int(rng.integers(1, 15)), int(rng.integers(2, 5))
        eps = epsilons[int(rng.integers(3))]
        k = int(rng.integers(0, 3 * m * m + 1))
        pres = make_presentation(m, ell, rng.integers(1, m + 1, (k, ell)))
        want = reference_check_SL(pres, eps)
        assert check_SL_exact(pres, eps) == want
        n_holds += want == "holds"
    assert 300 <= n_holds <= 700


def test_SL_crowded_splits_match_reference_scan():
    # relators (a, T) for every 6-set T and a outside it: a side is
    # unmatched exactly when it has more than cap = 6 of the 12 generators,
    # so the search walks hundreds of unmatched sets before it answers
    words = [(a,) + T for T in combinations(range(1, 13), 6)
             for a in range(1, 13) if a not in T]
    eps = Fraction(1, 2)
    pres = make_presentation(12, 7, words)
    want = reference_check_SL(pres, eps)
    assert check_SL_exact(pres, eps) == want == "holds"
    pres = make_presentation(12, 7, [w for w in words if w[0] != 12])
    got = check_SL_exact(pres, eps)
    assert got == reference_check_SL(pres, eps) == SLWitness(
        U=(12,), V=tuple(range(1, 12)))


@st.composite
def wider_presentations(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    ell = draw(st.integers(min_value=1, max_value=4))
    letters = list(range(1, m + 1))
    words = draw(st.lists(st.lists(st.sampled_from(letters), min_size=ell,
                                   max_size=ell).map(tuple),
                          max_size=40))
    return make_presentation(m, ell, words)


def check_L_against_reference(pres, eps):
    """Same result and witness as the reference, and the same budget
    cut-off: its node count passes and one node fewer raises."""
    want, nodes = reference_check_L(pres, eps)
    assert check_L_exact(pres, eps) == want
    assert check_L_exact(pres, eps, budget=nodes) == want
    if nodes:
        with pytest.raises(BudgetExceededError):
            check_L_exact(pres, eps, budget=nodes - 1)
    return nodes


@settings(max_examples=200, deadline=None)
@given(wider_presentations(),
       st.sampled_from([Fraction(1, 100), Fraction(1, 3), Fraction(1, 2)]))
# the last position is reached twice with the same compatible relators,
# so the dead memo must skip its second count
@example(make_presentation(3, 3, [(1, 2, 3), (1, 3, 2), (1, 3, 3),
                                  (2, 2, 2), (3, 2, 1)]), Fraction(1, 2))
# one letter: the root is the last position and counts its candidates
@example(make_presentation(3, 1, [(1,), (2,), (3,)]), Fraction(1, 2))
# two letters: the root frame counts the last position for each candidate
@example(make_presentation(3, 2, [(1, 2), (2, 3), (3, 1), (2, 1)]),
         Fraction(1, 2))
# the last position pads a witness after an earlier candidate was counted
@example(make_presentation(2, 3, [(1, 1, 1), (1, 1, 2), (1, 2, 2),
                                  (2, 1, 1)]), Fraction(1, 2))
def test_L_matches_reference_search(pres, eps):
    check_L_against_reference(pres, eps)


# m, p, seed of sample("positive", ...) at eps = 1/3, with the number of
# candidate sets the reference search visits (None: past the default budget)
GOLDEN_L = [
    (8, 0.3, 0, 116_636),
    (8, 0.5, 0, 177_898),
    (8, 0.7, 0, 178_773),
    (10, 0.12, 0, 121_896),
    (10, 0.15, 1, 407_579),
    (12, 0.12, 0, 102_788),
    (12, 0.18, 2, 294_393),
    (12, 0.18, 1, None),
]


@pytest.mark.parametrize("m, p, seed, nodes", GOLDEN_L)
def test_golden_L_against_reference(m, p, seed, nodes):
    pres = sample("positive", ModelParams(m, 3, p, seed))
    eps = Fraction(1, 3)
    if nodes is None:
        with pytest.raises(BudgetExceededError):
            reference_check_L(pres, eps)
        with pytest.raises(BudgetExceededError):
            check_L_exact(pres, eps)
        return
    assert check_L_against_reference(pres, eps) == nodes


def test_golden_L_holds_past_default_budget():
    # the reference search visits 9 305 310 candidate sets here
    pres = sample("positive", ModelParams(10, 3, 0.7, 0))
    eps = Fraction(1, 3)
    assert check_L_exact(pres, eps, budget=9_305_310) == "holds"
    with pytest.raises(BudgetExceededError):
        check_L_exact(pres, eps, budget=9_305_309)


@settings(max_examples=120, deadline=None)
@given(positive_presentations(), st.data())
def test_monotone_under_more_relators(pres, data):
    pool = all_positive_words(pres.m, pres.ell)
    extra_n = data.draw(st.integers(0, min(4, len(pool))))
    extra = data.draw(st.lists(st.integers(0, len(pool) - 1),
                               min_size=extra_n, max_size=extra_n,
                               unique=True))
    bigger = make_presentation(
        pres.m, pres.ell,
        list(pres.relators) + [pool[i] for i in extra])
    if check_L_exact(pres, EPS) == "holds":
        assert check_L_exact(bigger, EPS) == "holds"
    if check_SL_exact(pres, EPS) == "holds":
        assert check_SL_exact(bigger, EPS) == "holds"


# ------------------------------------------------------------- verdicts

def test_verdict_free():
    rep = cascade_report(make_presentation(3, 3, [(1, 2, 3)]))
    assert rep.verdict == VERDICT_FREE
    assert rep.rank == 2
    assert isinstance(rep.free_certificate, EliminationCertificate)


def test_verdict_free_beats_splitting():
    # one eliminable generator plus two unused ones: freeness wins
    rep = cascade_report(make_presentation(4, 3, [(1, 2, 1)]))
    assert rep.verdict == VERDICT_FREE
    assert rep.rank == 3


def test_verdict_splits():
    rep = cascade_report(make_presentation(4, 3, [(1, 1, 1)]))
    assert rep.verdict == VERDICT_SPLITS
    assert rep.unused_generators == (2, 3, 4)
    unused = unused_generators(make_presentation(4, 3, [(1, 1, 1)]))
    assert unused.tolist() == [2, 3, 4]
    assert unused.dtype == np.int64 and not unused.flags.writeable


def test_verdict_fa_on_full_cube():
    pres = make_presentation(2, 3, all_positive_words(2, 3))
    rep = cascade_report(pres)
    assert rep.verdict == VERDICT_FA
    assert rep.l_holds and rep.sl_holds
    assert not surjects_onto_Z(pres)


def test_verdict_unknown_with_budget_flag():
    pres = make_presentation(23, 3, [tuple([g] * 3) for g in range(1, 24)])
    rep = cascade_report(pres)
    assert rep.verdict == VERDICT_UNKNOWN
    assert rep.budget_exceeded


def test_verdict_unknown_for_signed_non_free():
    pres = make_presentation(2, 4, [(1, 1, -2, -2), (2, 2, -1, -1),
                                    (1, 2, 1, 2), (2, 1, 2, 1)])
    rep = cascade_report(pres)
    assert rep.verdict == VERDICT_UNKNOWN
    assert rep.l_holds is None and rep.sl_holds is None


def test_exploratory_epsilon_flag():
    pres = make_presentation(2, 3, all_positive_words(2, 3))
    assert not cascade_report(pres).exploratory_epsilon
    assert cascade_report(pres, eps=Fraction(1, 3)).exploratory_epsilon


def test_witness_json_round_trips():
    lw = LWitness(sets=((1, 3), (2, 4)))
    assert LWitness.from_json_dict(lw.to_json_dict()) == lw
    sw = SLWitness(U=(2,), V=(1, 3))
    assert SLWitness.from_json_dict(sw.to_json_dict()) == sw
    rep = cascade_report(make_presentation(3, 3, [(1, 2, 3)]))
    d = rep.to_json_dict()
    assert d["verdict"] == VERDICT_FREE
    assert d["epsilon"] == "1/100"


# ----------------------------------------- soundness across the p range

def test_soundness_over_random_presentations():
    # free-with-positive-rank and the two-condition certificate must
    # never coexist, and the certificate must kill every map onto Z
    n_seen = 0
    n_fa = 0
    for m, ell in ((2, 3), (3, 3), (2, 4)):
        for p in (0.02, 0.1, 0.3, 0.6, 0.9, 1.0):
            for seed in range(60):
                pres = sample_positive(
                    ModelParams(m=m, ell=ell, param=p, seed=seed))
                rep = cascade_report(pres)
                cert = certify_free(pres)
                n_seen += 1
                free_positive = (isinstance(cert, EliminationCertificate)
                                 and cert.final_rank >= 1)
                assert not (free_positive and rep.verdict == VERDICT_FA)
                if rep.verdict == VERDICT_FA:
                    n_fa += 1
                    assert not surjects_onto_Z(pres)
    assert n_seen >= 1000
    assert n_fa >= 1  # the scan must actually exercise the certificate
