from __future__ import annotations

import dataclasses
import math
import pickle
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randgroup import freeness
from randgroup.experiments import decide_verdict, run_trial
from randgroup.freeness import (
    EliminationCertificate,
    StuckReport,
    certify_free,
    replay_certificate,
)
from randgroup.model import ModelParams, make_presentation, sample_binomial

from oracles import find_elimination, naive_certify, reference_certify_free


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


# ------------------------------------------------- the pre-int-list loop

def _binomial(m, ell, p, seed):
    return sample_binomial(ModelParams(m=m, ell=ell, param=p, seed=seed))


def _same_as_reference(pres):
    got = certify_free(pres)
    ref = reference_certify_free(pres)
    assert type(got) is type(ref)
    assert got.to_json_dict() == ref.to_json_dict()
    return got


def test_matches_reference_loop_free_at_scale():
    m = 30_000
    cert = _same_as_reference(_binomial(m, 3, 0.1 * m ** -2.0, 5))
    assert isinstance(cert, EliminationCertificate)
    gens = [g for g, _ in cert.steps]
    assert len(gens) >= 10**3 and gens != sorted(gens)


@pytest.mark.parametrize("ell", [3, 4, 5])
@pytest.mark.parametrize("c", [0.2, 0.5])
def test_matches_reference_loop_stuck(ell, c):
    m = 3000
    for seed in range(2):
        pres = _binomial(m, ell, c * m ** (1.0 - ell), seed)
        rep = _same_as_reference(pres)
        assert isinstance(rep, StuckReport)
        if (ell, c) == (3, 0.2):  # stuck midway, after some steps
            assert 0 < rep.n_remaining < len(pres)


STEP_ZERO = (300, 4, math.log(300) * 300 ** -3.0, 1)


def test_matches_reference_loop_stuck_at_step_zero():
    pres = _binomial(*STEP_ZERO)
    rep = _same_as_reference(pres)
    assert isinstance(rep, StuckReport) and rep.n_remaining == len(pres)


@pytest.mark.parametrize("rels", [
    [(4, 4, 1)],
    [(1, 2, 3), (4, 4, 1)],
    [(1, 1, 2), (2, 3, 3)],
    [(1, 1, 2), (2, 3, 4)],
    # 2 is pushed as its count passes through 1, and is dead when popped
    [(2, 2, 3), (1, 3, 4)],
    [(2, 2, 2), (1, 2, 3)],
    [(1, 1, 1, 2), (2, 2, 3, 3), (3, 1, 4, 4)],
    [(1, 2, -1, -2), (3, 3, 1, 4)],
])
def test_matches_reference_loop_repeated_generators(rels):
    _same_as_reference(make_presentation(4, len(rels[0]), rels))


def test_matches_reference_loop_small_samples():
    for m, ell, seed in product((2, 3, 5), (3, 4), range(20)):
        _same_as_reference(_binomial(m, ell, 0.5 / (2 * m) ** (ell - 1),
                                     seed))


def test_certificate_contract():
    """A certificate whose steps are built on first read behaves like
    one built from a tuple."""
    pres = make_presentation(6, 3, [(1, 2, 3), (4, 4, 1), (5, -6, 2)])

    def fresh():
        cert = certify_free(pres)
        assert "steps" not in vars(cert)
        return cert

    eager = EliminationCertificate(steps=fresh().steps, final_rank=3)
    assert eager.steps == ((3, (1, 2, 3)), (1, (4, 4, 1)),
                           (2, (5, -6, 2)))
    assert fresh() == eager and eager == fresh()
    assert hash(fresh()) == hash(eager)
    assert fresh() != dataclasses.replace(eager, final_rank=2)
    cert = fresh()
    short = dataclasses.replace(cert, steps=cert.steps[:-1])
    assert short == EliminationCertificate(eager.steps[:-1], 3)
    assert not replay_certificate(pres, short)
    assert dataclasses.replace(fresh(), final_rank=2).steps == eager.steps
    assert EliminationCertificate.from_json_dict(
        fresh().to_json_dict()) == eager
    assert replay_certificate(pres, fresh())
    assert pickle.loads(pickle.dumps(fresh())) == eager
    assert repr(fresh()) == repr(eager)


# ------------------------------------------------- the peel and the order

def _same_as_both(pres):
    got = _same_as_reference(pres)
    ref = naive_certify(pres)
    if isinstance(got, EliminationCertificate):
        assert got == ref
    else:
        assert (got.remaining_relators, got.remaining_generators,
                got.rank_negative) == (ref.remaining_relators,
                                       ref.remaining_generators,
                                       ref.rank_negative)
    return got


def test_stuck_generators_follow_the_smallest_first_order():
    # the heap takes 2, then 1 (now single), and 5 dies with (1, 5);
    # pivoting on every single generator of the first round, 2 and 5,
    # would leave (1, 3, 4)
    pres = make_presentation(5, 2, [(1, 5), (1, 2), (3, 4), (3, -4)])
    rep = _same_as_both(pres)
    assert isinstance(rep, StuckReport)
    assert rep.remaining_generators == (3, 4, 5)
    assert rep.remaining_relators == ((3, 4), (3, -4))
    assert not rep.rank_negative


@pytest.mark.parametrize("m, rels", [
    # 1 and 2 are single in one relator: it goes once, and 3 stays at 2
    (4, [(1, 2, 3), (3, 4, 4), (3, -4, -4)]),
    (5, [(1, 2, 3), (1, 2, -3), (3, 4, 4), (3, -4, -4), (5, 5, 5)]),
    # every letter single: one round clears both relators
    (6, [(1, 2, 3), (4, 5, 6)]),
    # 3 goes from 2 to 0 in one round, through two relators
    (6, [(1, 3, 5), (2, 3, 6)]),
    # 2 and 3 pass through 1 within their relators' round
    (4, [(1, 2, 2), (3, 3, 4)]),
    (5, [(1, 2, 2), (2, 3, 3), (4, 4, 5), (-4, -4, 5)]),
    (5, [(1, 2, 2, 3), (2, 3, 4, 4), (4, 5, 5, 5)]),
    (4, [(1, 1, 2), (-1, -1, 2), (2, 3, 3), (3, 4, 4)]),
])
def test_peel_edges_match_both_references(m, rels):
    _same_as_both(make_presentation(m, len(rels[0]), rels))


def _refuse_order(pres):
    raise AssertionError("the ordered elimination loop ran")


@pytest.mark.parametrize("m, ell, p, seed", [
    (30_000, 3, 0.1 * 30_000 ** -2.0, 5),  # free
    (3000, 3, 0.2 * 3000 ** -2.0, 0),      # stuck midway
    STEP_ZERO,
])
def test_verdict_cascade_never_orders(monkeypatch, m, ell, p, seed):
    params = ModelParams(m=m, ell=ell, param=p, seed=seed)
    pres = sample_binomial(params)
    ref = reference_certify_free(pres)
    free = isinstance(ref, EliminationCertificate)
    monkeypatch.setattr(freeness, "_elimination_order", _refuse_order)

    record = run_trial("binomial", params)
    assert record.free == free
    assert record.final_rank == (ref.final_rank if free else None)
    cert = decide_verdict(pres).certificate
    if free:
        assert cert.final_rank == ref.final_rank
        with pytest.raises(AssertionError):
            cert.steps
    else:
        assert (cert.n_remaining, cert.rank_negative) == (
            ref.n_remaining, ref.rank_negative)
        assert cert.remaining_matrix.tolist() == ref.remaining_matrix.tolist()
        assert repr(cert) == repr(ref)
        with pytest.raises(AssertionError):
            cert.remaining_generators
