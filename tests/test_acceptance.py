"""End-to-end acceptance gate.

One test per criterion, numbered 1 through 12; each prints a single
PASS line with the measured quantity next to its threshold. Thresholds
and runtime budgets are asserted, never logged-and-ignored.
"""

from __future__ import annotations

import itertools
import math
import resource
import time
from fractions import Fraction

import numpy as np
import scipy.stats

from randgroup.abelianization import (abelian_invariants, smith_normal_form,
                                      surjects_onto_Z)
from randgroup.experiments import SweepConfig, run_trial, sweep
from randgroup.fa_certificates import (check_L_exact, check_SL_exact,
                                       verify_L_witness, verify_SL_witness)
from randgroup.freeness import certify_free, EliminationCertificate, \
    replay_certificate
from randgroup.hypergraph import verify_edge_lower_bound
from randgroup.model import ModelParams, make_presentation, make_rng, sample
from randgroup.words import count_cyclically_reduced

from oracles import sample_uniform_word

EPS_DEFAULT = Fraction(1, 100)


# --------------------------------------------------------- criterion 1

def _naive_cyclically_reduced_count(m: int, ell: int) -> int:
    letters = [g for g in range(1, m + 1)] + [-g for g in range(1, m + 1)]
    n = 0
    for word in itertools.product(letters, repeat=ell):
        if any(word[i] == -word[i + 1] for i in range(ell - 1)):
            continue
        if ell > 1 and word[-1] == -word[0]:
            continue
        n += 1
    return n


def test_criterion_01_word_count_oracle():
    t0 = time.perf_counter()
    for m in (1, 2, 3):
        for ell in range(1, 7):
            assert count_cyclically_reduced(m, ell) == \
                _naive_cyclically_reduced_count(m, ell), (m, ell)
    assert count_cyclically_reduced(2, 3) == 28
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[PASS] 1: closed-form word counts match exhaustive "
          f"enumeration for m<=3, ell<=6 in {elapsed:.2f}s (< 5s)")


# --------------------------------------------------------- criterion 2

def test_criterion_02_sampler_uniformity():
    t0 = time.perf_counter()
    rng = make_rng(20260822)
    counts: dict = {}
    for _ in range(10**6):
        w = sample_uniform_word(2, 3, rng)
        counts[w] = counts.get(w, 0) + 1
    assert len(counts) == 28
    assert all(_naive_cyclically_reduced_count_word(w) for w in counts)
    _, pvalue = scipy.stats.chisquare(list(counts.values()))
    elapsed = time.perf_counter() - t0
    assert pvalue > 1e-3
    assert elapsed < 10.0
    print(f"[PASS] 2: 10^6 uniform draws, chi-square p={pvalue:.3f} "
          f"(> 0.001), all draws cyclically reduced, {elapsed:.1f}s (< 10s)")


def _naive_cyclically_reduced_count_word(word) -> bool:
    ell = len(word)
    if any(word[i] == -word[i + 1] for i in range(ell - 1)):
        return False
    return ell == 1 or word[-1] != -word[0]


# --------------------------------------------------------- criterion 3

def test_criterion_03_relator_count_lower_bound():
    m, ell = 200, 3
    p = 4.0 * m ** (1 - ell)
    hits = 0
    for seed in range(100):
        pres = sample("binomial", ModelParams(m=m, ell=ell, param=p,
                                              seed=seed))
        if len(pres) >= 3 * m:
            hits += 1
    frac = hits / 100
    assert frac >= 0.95
    print(f"[PASS] 3: at p = 4*m^(1-l), |R| >= 3m in {frac:.2f} "
          f"of 100 trials (>= 0.95)")


# --------------------------------------------------------- criterion 4

def test_criterion_04_unused_generator_regime():
    m, ell = 400, 3
    p = (1 / ell) * 2.0 ** (-ell - 2) * math.log(m) * m ** (1 - ell)
    from randgroup.fa_certificates import unused_generators
    hits = 0
    for seed in range(100):
        pres = sample("binomial", ModelParams(m=m, ell=ell, param=p,
                                              seed=seed))
        if len(unused_generators(pres)) >= math.isqrt(m) // 2:
            hits += 1
    frac = hits / 100
    assert frac >= 0.9
    print(f"[PASS] 4: at the low-density bound, >= sqrt(m)/2 unused "
          f"generators in {frac:.2f} of 100 trials (>= 0.9)")


# --------------------------------------------------------- criterion 5

def test_criterion_05_regime_separation():
    t0 = time.perf_counter()
    m, ell = 100, 3
    p_low = 0.05 * m ** (1 - ell)
    p_high = 20.0 * math.log(m) * m ** (1 - ell)
    analyses = frozenset({"abelianization"})

    def frac_stats(p):
        free = surj = 0
        for seed in range(100):
            rec = run_trial("binomial",
                            ModelParams(m=m, ell=ell, param=p, seed=seed),
                            analyses=analyses)
            free += rec.free
            surj += bool(rec.surjects_Z)
        return free / 100, surj / 100

    frac_free_low, _ = frac_stats(p_low)
    frac_free_high, frac_surj_high = frac_stats(p_high)
    elapsed = time.perf_counter() - t0
    assert frac_free_low - frac_free_high >= 0.5
    assert frac_surj_high <= 0.1
    assert elapsed < 120.0
    print(f"[PASS] 5: frac_free {frac_free_low:.2f} vs {frac_free_high:.2f} "
          f"(gap >= 0.5), frac_surjZ(high) = {frac_surj_high:.2f} (<= 0.1), "
          f"{elapsed:.0f}s (< 120s)")


# --------------------------------------------------------- criterion 6

def test_criterion_06_certificate_soundness():
    ell = 3
    configs = []
    for m in (3, 8, 20):
        for c in (0.5, 4.0, 20.0 * math.log(m)):
            configs.append(("binomial", m, min(1.0, c * m ** (1 - ell))))
    for m, p in ((3, 0.02), (3, 0.15), (5, 0.02), (5, 0.15)):
        configs.append(("positive", m, p))
    for m, d in ((4, 0.1), (4, 0.3), (10, 0.1), (10, 0.3)):
        configs.append(("uniform_count", m, d))
    total = free = 0
    for model, m, param in configs:
        for seed in range(60):
            pres = sample(model, ModelParams(m=m, ell=ell, param=param,
                                             seed=seed))
            total += 1
            cert = certify_free(pres)
            if isinstance(cert, EliminationCertificate):
                free += 1
                assert replay_certificate(pres, cert)
                inv = abelian_invariants(pres)
                assert inv.betti == cert.final_rank
                assert inv.torsion == ()
    assert total >= 1000
    print(f"[PASS] 6: {free} freeness certificates out of {total} "
          f"presentations all replay and match abelian invariants; "
          f"zero violations")


# --------------------------------------------------------- criterion 7

def _det(mat) -> int:
    if len(mat) == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1:]
                                             for row in mat[1:]])
               for j in range(len(mat)))


def _snf_oracle(mat) -> tuple:
    rows, cols = len(mat), len(mat[0]) if mat else 0
    diags = []
    g_prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                sub = [[mat[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, _det(sub))
        if g == 0:
            break
        diags.append(g // g_prev)
        g_prev = g
    return tuple(diags)


def _random_unimodular_conjugates(rng, mat):
    a = [row[:] for row in mat]
    rows, cols = len(a), len(a[0])
    for _ in range(8):
        which = rng.integers(0, 4)
        if which == 0 and rows > 1:
            i, j = rng.choice(rows, size=2, replace=False)
            c = int(rng.integers(-2, 3))
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        elif which == 1 and cols > 1:
            i, j = rng.choice(cols, size=2, replace=False)
            c = int(rng.integers(-2, 3))
            for row in a:
                row[i] += c * row[j]
        elif which == 2 and rows > 1:
            i, j = rng.choice(rows, size=2, replace=False)
            a[i], a[j] = a[j], a[i]
        else:
            i = int(rng.integers(0, cols))
            for row in a:
                row[i] = -row[i]
    return a


def test_criterion_07_snf_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        mat = [[int(rng.integers(-3, 4)) for _ in range(cols)]
               for _ in range(rows)]
        got = smith_normal_form(mat)
        assert got == _snf_oracle(mat), mat
        shuffled = _random_unimodular_conjugates(rng, mat)
        assert smith_normal_form(shuffled) == got, (mat, shuffled)
    print("[PASS] 7: 200 random matrices match the minor-gcd oracle and "
          "are invariant under unimodular moves; zero mismatches")


# --------------------------------------------------------- criterion 8

def _naive_L(pres, eps) -> bool:
    m, ell = pres.m, pres.ell
    s = max(1, math.ceil(m * eps))
    rels = pres.relators
    for combo in itertools.product(
            itertools.combinations(range(1, m + 1), s), repeat=ell):
        if not any(all(w[i] in combo[i] for i in range(ell)) for w in rels):
            return False
    return True


def _naive_SL(pres, eps) -> bool:
    m = pres.m
    cap = max(1, math.floor((1 - eps) * m))
    gens = range(1, m + 1)
    for size in range(1, cap + 1):
        for u in itertools.combinations(gens, size):
            uset = set(u)
            if not any(w[0] in uset and not (set(w[1:]) & uset)
                       for w in pres.relators):
                return False
    return True


def test_criterion_08_fa_checker_oracle():
    rng = np.random.default_rng(88)
    mismatches = 0
    for trial in range(100):
        m = int(rng.integers(2, 7))
        universe = list(itertools.product(range(1, m + 1), repeat=3))
        k = int(rng.integers(0, min(25, len(universe)) + 1))
        picks = rng.choice(len(universe), size=k, replace=False)
        rels = [universe[i] for i in picks]
        pres = make_presentation(m, 3, rels, model_tag="positive")
        for eps in (EPS_DEFAULT, Fraction(1, 3)):
            got_l = check_L_exact(pres, eps)
            if (got_l == "holds") != _naive_L(pres, eps):
                mismatches += 1
            elif got_l != "holds":
                assert verify_L_witness(pres, got_l, eps)
            got_sl = check_SL_exact(pres, eps)
            if (got_sl == "holds") != _naive_SL(pres, eps):
                mismatches += 1
            elif got_sl != "holds":
                assert verify_SL_witness(pres, got_sl, eps)
    assert mismatches == 0
    print("[PASS] 8: pruned position and split checkers agree with naive "
          "enumeration on 100 random positive presentations; "
          "zero mismatches")


# --------------------------------------------------------- criterion 9

def test_criterion_09_certificate_exclusivity():
    config = SweepConfig(ms=(4, 5), ell=3, model="positive",
                         grid=(0.005, 0.02, 0.08, 0.3, 1.0), trials=35,
                         master_seed=424242)
    result = sweep(config)
    verdicts = {"FreeCertified", "SplitsWitness", "FACertified", "Unknown"}
    n_fa = n_free_pos_rank = 0
    for rec, point in ((r, result.points[r.point_index])
                       for r in result.records):
        assert rec.verdict in verdicts
        if rec.verdict == "FACertified":
            n_fa += 1
            assert rec.surjects_Z is False
        if rec.verdict == "FreeCertified" and rec.final_rank >= 1:
            n_free_pos_rank += 1
            pres = sample("positive", ModelParams(m=point.m, ell=point.ell,
                                                  param=point.p,
                                                  seed=rec.seed))
            both = (check_L_exact(pres, EPS_DEFAULT) == "holds"
                    and check_SL_exact(pres, EPS_DEFAULT) == "holds")
            assert not both
    assert n_fa >= 1 and n_free_pos_rank >= 1
    print(f"[PASS] 9: {len(result.records)} sweep trials, {n_fa} "
          f"fixed-point certificates never co-occur with freeness "
          f"({n_free_pos_rank} free cross-checked), and each implies no "
          f"surjection onto Z; zero violations")


# -------------------------------------------------------- criterion 10

def test_criterion_10_edge_bound_inequality():
    t0 = time.perf_counter()
    checked = 0
    for ell in range(3, 21):
        for k in range(ell + 1, 10**4 + 1):
            assert verify_edge_lower_bound(ell, k), (ell, k)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[PASS] 10: edge-count inequality holds at all {checked} "
          f"(ell, k) pairs, exact integers, {elapsed:.2f}s (< 5s)")


# -------------------------------------------------------- criterion 11

def test_criterion_11_large_instance_performance():
    m, ell = 10**4, 4
    p = math.log(m) * m ** (1 - ell)
    analyses = frozenset({"diagnostics", "abelianization"})
    records = []
    walls = []
    for _ in range(2):
        t0 = time.perf_counter()
        rec = run_trial("binomial", ModelParams(m=m, ell=ell, param=p,
                                                seed=2026),
                        analyses=analyses)
        walls.append(time.perf_counter() - t0)
        records.append(rec.to_json_dict() | {"wall_time": 0})
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    assert max(walls) < 60.0
    assert peak_gb < 4.0
    assert records[0] == records[1]
    assert records[0]["surjects_Z"] is not None
    print(f"[PASS] 11: m=10^4, l=4 trial ran twice in "
          f"{max(walls):.1f}s (< 60s) and {peak_gb:.2f}GB (< 4GB) "
          f"with identical records")


# -------------------------------------------------------- criterion 12

def test_criterion_12_sweep_worker_determinism():
    config = SweepConfig(ms=(5, 7), ell=3, model="binomial",
                         grid=(0.0, 0.03), trials=5, master_seed=31337)
    csv1 = sweep(config, workers=1).csv_text()
    csv8 = sweep(config, workers=8).csv_text()
    assert csv1.encode() == csv8.encode()
    print("[PASS] 12: sweep CSV byte-identical across 1 and 8 workers")
