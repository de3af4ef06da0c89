from __future__ import annotations

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randgroup.freeness import (
    EliminationCertificate,
    StuckReport,
    certify_free,
    replay_certificate,
)
from randgroup.model import ModelParams, make_presentation, sample_binomial

from oracles import find_elimination, naive_certify


@lru_cache(maxsize=None)
def word_pool(m, ell):
    letters = [x for g in range(1, m + 1) for x in (g, -g)]
    out = []
    for w in product(letters, repeat=ell):
        ok = all(w[i] != -w[i + 1] for i in range(ell - 1))
        if ok and w[-1] != -w[0]:
            out.append(w)
    return out


# ---------------------------------------------------------- find_elimination

def test_find_all_single_occurrences_takes_smallest_generator():
    assert find_elimination([(1, 2, 3)]) == (1, (1, 2, 3))


def test_find_skips_generators_shared_between_relators():
    # 1 and 2 occur in both relators; 3 is the smallest single-occurrence
    assert find_elimination([(1, 2, 3), (1, 2, 4)]) == (3, (1, 2, 3))


def test_find_skips_repeated_generator():
    assert find_elimination([(1, 1, 2)]) == (2, (1, 1, 2))


def test_find_commutator_inadmissible():
    assert find_elimination([(1, 2, -1, -2)]) is None


def test_find_respects_active_set():
    assert find_elimination([(1, 2, 3)], active_generators={2, 3}) == (2, (1, 2, 3))


# --------------------------------------------------------------- certify

def test_certify_single_relator():
    cert = certify_free(make_presentation(3, 3, [(1, 2, 3)]))
    assert isinstance(cert, EliminationCertificate)
    assert cert.final_rank == 2
    assert cert.steps == ((1, (1, 2, 3)),)


def test_certify_no_relators():
    cert = certify_free(make_presentation(2, 3, []))
    assert cert == EliminationCertificate(steps=(), final_rank=2)


def test_certify_two_step_chain():
    # generator 1 is shared, so the first admissible generator is 2;
    # removing (1,2,3) leaves (4,4,1) where 1 now occurs once
    pres = make_presentation(4, 3, [(1, 2, 3), (4, 4, 1)])
    cert = certify_free(pres)
    assert isinstance(cert, EliminationCertificate)
    assert cert.steps == ((2, (1, 2, 3)), (1, (4, 4, 1)))
    assert cert.final_rank == 2


def test_certify_stuck_commutator():
    pres = make_presentation(2, 4, [(1, 2, -1, -2)])
    rep = certify_free(pres)
    assert isinstance(rep, StuckReport)
    assert rep.remaining_relators == ((1, 2, -1, -2),)
    assert rep.remaining_generators == (1, 2)
    assert not rep.rank_negative


def test_certify_rank_negative_flag():
    rels = [(1, 1, 2), (2, 2, 1), (1, 2, 1), (2, 1, 1), (1, 2, 2)]
    rep = certify_free(make_presentation(2, 3, rels))
    assert isinstance(rep, StuckReport)
    assert rep.rank_negative


# ---------------------------------------------------------------- replay

def test_replay_round_trip():
    pres = make_presentation(4, 3, [(1, 2, 3), (4, 4, 1)])
    cert = certify_free(pres)
    assert replay_certificate(pres, cert)


def test_replay_rejects_breaking_reorder():
    pres = make_presentation(4, 3, [(1, 2, 3), (4, 4, 1)])
    cert = certify_free(pres)
    flipped = EliminationCertificate(steps=cert.steps[::-1],
                                     final_rank=cert.final_rank)
    # eliminating 1 first is inadmissible: it occurs in both relators
    assert not replay_certificate(pres, flipped)


def test_replay_rejects_omitted_relator():
    pres = make_presentation(4, 3, [(1, 2, 3), (4, 4, 1)])
    cert = certify_free(pres)
    short = EliminationCertificate(steps=cert.steps[:1],
                                   final_rank=cert.final_rank)
    assert not replay_certificate(pres, short)


def test_replay_rejects_foreign_relator():
    pres = make_presentation(3, 3, [(1, 2, 3)])
    bogus = EliminationCertificate(steps=((1, (1, 2, -3)),), final_rank=2)
    assert not replay_certificate(pres, bogus)


def test_replay_rejects_wrong_rank():
    pres = make_presentation(3, 3, [(1, 2, 3)])
    cert = certify_free(pres)
    wrong = EliminationCertificate(steps=cert.steps, final_rank=1)
    assert not replay_certificate(pres, wrong)


def test_certificate_json_round_trip():
    pres = make_presentation(4, 3, [(1, 2, 3), (4, 4, 1)])
    cert = certify_free(pres)
    assert EliminationCertificate.from_json_dict(cert.to_json_dict()) == cert


# ------------------------------------------------------------- properties

@st.composite
def small_presentations(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    ell = draw(st.integers(min_value=1, max_value=4))
    pool = word_pool(m, ell)
    k = draw(st.integers(min_value=0, max_value=min(len(pool), 7)))
    idxs = draw(st.lists(st.integers(0, len(pool) - 1),
                         min_size=k, max_size=k, unique=True))
    return make_presentation(m, ell, [pool[i] for i in idxs])


@settings(max_examples=250, deadline=None)
@given(small_presentations())
def test_engine_matches_reference_and_replays(pres):
    got = certify_free(pres)
    ref = naive_certify(pres)
    if isinstance(got, EliminationCertificate):
        assert got == ref
        assert got.final_rank == pres.m - len(pres)
        assert replay_certificate(pres, got)
    else:
        assert isinstance(ref, StuckReport)
        assert got.remaining_relators == ref.remaining_relators
        assert got.remaining_generators == ref.remaining_generators
        # stuckness is real: no admissible pair among the residue
        assert find_elimination(got.remaining_relators,
                                got.remaining_generators) is None
        assert got.n_remaining >= 1


def test_zero_density_always_certifies_full_rank():
    for seed in range(5):
        pres = sample_binomial(ModelParams(m=6, ell=3, param=0.0, seed=seed))
        cert = certify_free(pres)
        assert cert == EliminationCertificate(steps=(), final_rank=6)


def test_moderate_scale_consistency():
    pres = sample_binomial(ModelParams(m=40, ell=3, param=2e-4, seed=123))
    got = certify_free(pres)
    ref = naive_certify(pres)
    if isinstance(got, EliminationCertificate):
        assert got == ref and replay_certificate(pres, got)
    else:
        assert got.remaining_relators == ref.remaining_relators
