from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randgroup.abelianization as abz
from randgroup import experiments
from randgroup.errors import (DomainError, NoCrossingError,
                              NonMonotoneTrendError)
from randgroup.experiments import (
    ALL_ANALYSES,
    Budgets,
    CSV_HEADER,
    GridPoint,
    PointSummary,
    SweepConfig,
    ThresholdEstimate,
    TrialRecord,
    estimate_threshold,
    run_trial,
    summarize_point,
    sweep,
    trial_seed,
    wilson_interval,
)
from randgroup.model import ModelParams, sample

from oracles import reference_fa_verdict


def mk_config(**kw):
    base = dict(ms=(4,), ell=3, model="binomial", grid=(0.0,),
                grid_kind="p", trials=3, master_seed=9)
    base.update(kw)
    return SweepConfig(**base)


# ------------------------------------------------------------ run_trial

def test_trial_zero_density():
    params = ModelParams(m=5, ell=3, param=0.0, seed=1)
    rec = run_trial("binomial", params)
    assert rec.free and rec.final_rank == 5
    assert rec.n_relators == 0 and rec.chi == -4
    assert rec.unused_count == 5
    assert rec.verdict == "FreeCertified"


def test_trial_full_positive_cube():
    params = ModelParams(m=2, ell=3, param=1.0, seed=3)
    rec = run_trial("positive", params)
    assert rec.n_relators == 8
    assert rec.unused_count == 0
    assert rec.chi == 1 - 2 + 8
    assert rec.verdict == "FACertified"
    assert rec.l_holds and rec.sl_holds
    assert rec.surjects_Z is False
    assert rec.diagnostics is not None


def test_trial_is_deterministic():
    params = ModelParams(m=6, ell=3, param=0.05, seed=123)
    a = run_trial("binomial", params)
    b = run_trial("binomial", params)
    assert a.to_json_dict() | {"wall_time": 0} == \
        b.to_json_dict() | {"wall_time": 0}


def test_trial_skip_markers():
    rec = run_trial("binomial", ModelParams(m=4, ell=3, param=0.0, seed=0),
                    analyses=frozenset())
    assert set(rec.skipped) == {"diagnostics", "abelianization", "fa"}
    assert rec.surjects_Z is None and rec.diagnostics is None


def test_trial_size_gate_markers():
    # positive model dense enough to be neither free nor split
    params = ModelParams(m=40, ell=3, param=0.01, seed=5)
    rec = run_trial("positive", params, budgets=Budgets())
    assert not rec.free and rec.unused_count == 0
    assert "check_L_exact" in rec.skipped
    assert "check_SL_exact" in rec.skipped
    assert rec.verdict == "Unknown"


def test_trial_budget_error_recorded():
    params = ModelParams(m=3, ell=3, param=1.0, seed=0)
    rec = run_trial("positive", params, budgets=Budgets(l_nodes=2))
    assert rec.budget_errors == ("check_L_exact",)
    assert rec.verdict == "Unknown"


def test_trial_surjection_budget_error_recorded(monkeypatch):
    monkeypatch.setattr(abz, "_DENSE_CAP", 1000)
    params = ModelParams(m=600, ell=3, param=2.9e-6, seed=2026)
    rec = run_trial("binomial", params, analyses=frozenset({"abelianization"}))
    assert rec.budget_errors == ("surjects_onto_Z",)
    assert rec.surjects_Z is None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.floats(0.0, 1.0), st.integers(0, 50))
def test_trial_verdict_matches_composite(m, p, seed):
    params = ModelParams(m=m, ell=3, param=p, seed=seed)
    rec = run_trial("positive", params)
    rep = reference_fa_verdict(sample("positive", params))
    assert rec.verdict == rep.verdict
    assert rec.chi == 1 - m + rec.n_relators


# ---------------------------------------------------------------- sweep

def test_sweep_empty_grid_gives_empty_table():
    cfg = mk_config(grid=())
    res = sweep(cfg)
    assert res.csv_text() == CSV_HEADER + "\n"
    assert res.records == ()


def test_sweep_zero_density_all_free():
    cfg = mk_config(ms=(5,), grid=(0.0,), trials=10)
    res = sweep(cfg)
    s = res.summaries[0]
    assert s.frac_free == 1.0
    assert s.trials == 10
    assert s.verdict_histogram == {"FreeCertified": 10}


def test_sweep_regime_contrast():
    cfg = SweepConfig(ms=(100,), ell=3, model="binomial",
                      grid=((0.05, 0.0), (20.0, 1.0)),
                      grid_kind="c_log_pow", trials=50, master_seed=4,
                      analyses=frozenset())
    res = sweep(cfg)
    low, high = res.summaries
    assert low.p < high.p
    assert low.frac_free > high.frac_free


def test_sweep_worker_count_invariance():
    cfg = mk_config(ms=(6,), grid=(0.01, 0.08), trials=6, master_seed=77)
    res1 = sweep(cfg, workers=1)
    res3 = sweep(cfg, workers=3)
    assert res1.csv_text() == res3.csv_text()
    assert [r.seed for r in res1.records] == [r.seed for r in res3.records]


def test_sweep_pool_never_exceeds_task_count(monkeypatch):
    sizes = []

    class InlinePool:
        """Records its size and maps in this process."""

        def __init__(self, n, mp_context=None):
            sizes.append(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
    cfg = mk_config(grid=(0.01,), trials=2)
    res = sweep(cfg, workers=64)
    assert sizes == [2]
    assert res.csv_text() == sweep(cfg, workers=1).csv_text()


DYING_SWEEP = """
import os, sys
from randgroup import cli, experiments
task = experiments._sweep_task
def dying(args):
    if args[3] == 1:
        os._exit(3)
    return task(args)
experiments._sweep_task = dying
sys.exit(cli.main(["sweep", "--ms", "5", "-l", "3", "--model", "binomial",
                   "--grid", "0.01", "--trials", "4", "--threads", "2",
                   "--analyses", "none"]))
"""


def test_dead_worker_fails_sweep_instead_of_hanging():
    # in a subprocess with a timeout, so that a hang fails this test
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", DYING_SWEEP], env=env,
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 < 30
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: a sweep worker died")


def test_sweep_rejects_epsilon_outside_unit_interval():
    with pytest.raises(DomainError):
        mk_config(eps=Fraction(3, 2)).validate()
    with pytest.raises(DomainError):
        mk_config(eps=Fraction(0)).validate()
    mk_config(eps=Fraction(1, 3)).validate()


def test_sweep_aggregates_recomputable():
    cfg = mk_config(ms=(4, 6), grid=(0.02, 0.2), trials=8, master_seed=1)
    res = sweep(cfg)
    assert len(res.records) == len(res.points) * cfg.trials
    for pi, summ in enumerate(res.summaries):
        recs = [r for r in res.records if r.point_index == pi]
        redone = summarize_point(res.points[pi], recs)
        assert redone == summ
        assert sum(summ.verdict_histogram.values()) == cfg.trials
        for frac in (summ.frac_free, summ.frac_R_ge_3m,
                     summ.frac_unused_ge_halfsqrtm, summ.frac_FA,
                     summ.frac_unknown):
            assert 0.0 <= frac <= 1.0


def test_sweep_grid_kinds_and_validation():
    with pytest.raises(DomainError):
        mk_config(trials=0).validate()
    with pytest.raises(DomainError):
        mk_config(model="manual").validate()
    with pytest.raises(DomainError):
        mk_config(grid=(1.5,)).validate()
    with pytest.raises(DomainError):
        mk_config(ms=()).validate()
    with pytest.raises(DomainError):
        mk_config(analyses=frozenset({"nope"})).validate()
    with pytest.raises(DomainError):
        SweepConfig(ms=(2,), ell=2, model="binomial",
                    grid=((100.0, 1.0),), grid_kind="c_log_pow").validate()
    cfg = SweepConfig(ms=(4,), ell=3, model="binomial", grid=(0.5,),
                      grid_kind="density", trials=1)
    cfg.validate()
    [pt] = cfg.points()
    assert math.isclose(pt.p, 4.0 ** (3 * (0.5 - 1.0)))


def test_sweep_writes_files(tmp_path):
    cfg = mk_config(trials=4)
    csv_path = tmp_path / "out.csv"
    jsonl_path = tmp_path / "rows.jsonl"
    res = sweep(cfg, csv_path=str(csv_path), jsonl_path=str(jsonl_path))
    assert csv_path.read_text() == res.csv_text()
    rows = [json.loads(line)
            for line in jsonl_path.read_text().splitlines()]
    assert len(rows) == 4
    assert all(r["chi"] == 1 - 4 + r["n_relators"] for r in rows)


def test_csv_header_is_fixed():
    assert CSV_HEADER == (
        "m,ell,model,p,d_equiv,trials,frac_free,frac_free_ci_lo,"
        "frac_free_ci_hi,mean_R,sd_R,frac_R_ge_3m,frac_unused_ge_halfsqrtm,"
        "frac_surjZ,frac_L,frac_SL,frac_FA,frac_unknown")
    cfg = mk_config()
    res = sweep(cfg)
    lines = res.csv_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(res.summaries)
    assert all(len(line.split(",")) == len(CSV_HEADER.split(","))
               for line in lines[1:])


def test_trial_seed_derivation():
    a = trial_seed(5, 0, 0)
    assert a == trial_seed(5, 0, 0)
    assert len({trial_seed(5, pi, ti)
                for pi in range(8) for ti in range(8)}) == 64


# ------------------------------------------------------ wilson interval

def test_wilson_known_value():
    lo, hi = wilson_interval(5, 10)
    assert round(lo, 4) == 0.2366
    assert round(hi, 4) == 0.7634
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == 1.0


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 60), st.data())
def test_wilson_contains_point_estimate(n, data):
    k = data.draw(st.integers(0, n))
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0


# -------------------------------------------------- threshold estimation

def mk_summary(p, frac, trials=10):
    return PointSummary(
        m=8, ell=3, model="binomial", p=p, d_equiv=None, trials=trials,
        frac_free=frac, frac_free_ci_lo=0.0, frac_free_ci_hi=1.0,
        mean_R=0.0, sd_R=0.0, frac_R_ge_3m=0.0,
        frac_unused_ge_halfsqrtm=0.0, frac_surjZ=None, frac_L=None,
        frac_SL=None, frac_FA=0.0, frac_unknown=1.0 - frac,
        verdict_histogram={})


def test_threshold_interpolation():
    pts = [mk_summary(1.0, 1.0), mk_summary(2.0, 0.9),
           mk_summary(3.0, 0.2), mk_summary(4.0, 0.0)]
    est = estimate_threshold(pts, "frac_free", level=0.5)
    assert abs(est.crossing - 18 / 7) < 1e-12
    assert (est.grid_lo, est.grid_hi) == (2.0, 3.0)
    assert (est.frac_lo, est.frac_hi) == (0.9, 0.2)
    assert est.ci_halfwidth_lo > 0


def test_threshold_no_crossing():
    pts = [mk_summary(x, 1.0) for x in (1.0, 2.0, 3.0)]
    with pytest.raises(NoCrossingError):
        estimate_threshold(pts, "frac_free")


def test_threshold_non_monotone():
    pts = [mk_summary(1.0, 0.0), mk_summary(2.0, 1.0)]
    with pytest.raises(NonMonotoneTrendError):
        estimate_threshold(pts, "frac_free")


def test_threshold_small_inversion_tolerated():
    pts = [mk_summary(1.0, 0.9, trials=10), mk_summary(2.0, 1.0, trials=10),
           mk_summary(3.0, 0.2, trials=10), mk_summary(4.0, 0.0, trials=10)]
    est = estimate_threshold(pts, "frac_free")
    assert 2.0 < est.crossing < 3.0


def test_threshold_increasing_direction():
    pts = [mk_summary(1.0, 0.1), mk_summary(2.0, 0.9)]
    est = estimate_threshold(pts, "frac_free", level=0.5,
                             direction="increasing")
    assert abs(est.crossing - 1.5) < 1e-12
    assert (est.frac_lo, est.frac_hi) == (0.1, 0.9)


def test_threshold_missing_statistic():
    pts = [mk_summary(1.0, 1.0), mk_summary(2.0, 0.0)]
    with pytest.raises(DomainError):
        estimate_threshold(pts, "frac_L")


def test_threshold_json():
    pts = [mk_summary(1.0, 1.0), mk_summary(2.0, 0.0)]
    est = estimate_threshold(pts, "frac_free")
    d = est.to_json_dict()
    assert set(d) == {"crossing", "grid_lo", "grid_hi", "frac_lo",
                      "frac_hi", "ci_halfwidth_lo", "ci_halfwidth_hi"}
