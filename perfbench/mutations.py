"""Show that every check in checks.py rejects a deliberately wrong output.

    python3 perfbench/mutations.py

Runs each workload's check on small instances: first on the real
outputs, where it must pass, then on copies with one thing broken (a
certificate step swapped, a CSV fraction changed, a letter flipped in a
file, ...), where it must fail. Exits 0 only if every clean output
passes and every broken one is caught.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from randgroup import cli, experiments  # noqa: E402
from randgroup.freeness import EliminationCertificate, certify_free  # noqa: E402
from randgroup.model import ModelParams, sample  # noqa: E402

results: list[tuple[str, bool]] = []


def expect(name: str, ok: bool, fn, *args) -> None:
    """Run a check; ok says whether it should pass."""
    try:
        fn(*args)
        passed = True
    except checks.CheckFailed:
        passed = False
    results.append((name, passed == ok))
    print(f"{'ok  ' if passed == ok else 'FAIL'} {name}: "
          f"{'passes' if passed else 'rejected'}")


def replaced(rec, **kw):
    return dataclasses.replace(rec, **kw)


def dense() -> None:
    m, ell = 40, 4
    p = math.log(m) * m ** -3.0
    params = ModelParams(m=m, ell=ell, param=p, seed=5)
    rec = experiments.run_trial("binomial", params, analyses=frozenset(
        {"diagnostics", "abelianization"}))
    mat = sample("binomial", params).relator_matrix
    run = checks.check_dense_trial
    expect("dense: clean", True, run, rec, mat, m, ell, p)
    dup = mat.copy()
    dup[1] = dup[0]
    expect("dense: duplicate relator", False, run, rec, dup, m, ell, p)
    cancel = mat.copy()
    cancel[0, -1] = -cancel[0, 0]
    expect("dense: relator not cyclically reduced", False, run, rec, cancel,
           m, ell, p)
    wide = mat.copy()
    wide[0, 0] = m + 1
    expect("dense: letter out of range", False, run, rec, wide, m, ell, p)
    expect("dense: |R| outside the binomial band", False, run, rec, mat, m,
           ell, 2 * p)
    expect("dense: n_relators off by one", False, run,
           replaced(rec, n_relators=rec.n_relators + 1), mat, m, ell, p)
    expect("dense: chi off by one", False, run,
           replaced(rec, chi=rec.chi + 1), mat, m, ell, p)
    expect("dense: unused count off by one", False, run,
           replaced(rec, unused_count=rec.unused_count + 1), mat, m, ell, p)
    diag = dict(rec.diagnostics)
    tc = diag["type_counts"]
    diag["type_counts"] = {"1": tc["1"] + 1, "2": tc["2"] - 1, "3": tc["3"]}
    expect("dense: type counts moved", False, run,
           replaced(rec, diagnostics=diag), mat, m, ell, p)
    # one generator never used: the group surely maps onto Z
    holed = mat[(np.abs(mat) != 1).all(axis=1)]
    holed_rec = replaced(rec, n_relators=len(holed), chi=1 - m + len(holed),
                         unused_count=checks.unused_count(holed, m),
                         surjects_Z=False, diagnostics={
                             **rec.diagnostics, "type_counts": dict(zip(
                                 "123", checks.type_counts(holed, ell)))})
    expect("dense: surjects_Z False with an unused generator", False, run,
           holed_rec, holed, m, ell, len(holed) / checks.cyclic_word_count(
               m, ell))


def sparse() -> None:
    m, ell = 3000, 3
    p = 0.1 * m ** -2.0
    params = ModelParams(m=m, ell=ell, param=p, seed=7)
    rec = experiments.run_trial("binomial", params)
    pres = sample("binomial", params)
    mat = pres.relator_matrix
    cert = certify_free(pres)
    assert isinstance(cert, EliminationCertificate), "expected a free trial"
    run = checks.check_sparse_trial
    expect("sparse: clean", True, run, rec, mat, m, ell, p, cert)
    steps = list(cert.steps)
    steps[0], steps[-1] = steps[-1], steps[0]
    expect("sparse: first and last certificate step swapped", False, run,
           rec, mat, m, ell, p, dataclasses.replace(cert, steps=tuple(steps)))
    g, r = cert.steps[0]
    other = next(abs(x) for x in r if abs(x) != g)
    bad = ((other, r),) + cert.steps[1:]
    expect("sparse: step eliminates the wrong generator", False, run, rec,
           mat, m, ell, p, dataclasses.replace(cert, steps=bad))
    expect("sparse: certificate misses its last step", False, run, rec, mat,
           m, ell, p, dataclasses.replace(cert, steps=cert.steps[:-1]))
    expect("sparse: final rank off by one", False, run,
           replaced(rec, final_rank=rec.final_rank + 1), mat, m, ell, p, cert)
    expect("sparse: not certified free", False, run,
           replaced(rec, free=False), mat, m, ell, p, cert)
    expect("sparse: free but surjects_Z False", False, run,
           replaced(rec, surjects_Z=False), mat, m, ell, p, cert)


def fa() -> None:
    cfg = experiments.SweepConfig(
        ms=(8,), ell=3, model="positive", grid=(0.02, 0.3, 0.7),
        grid_kind="p", trials=4, master_seed=11, eps=Fraction(1, 3),
        analyses=frozenset({"abelianization", "fa"}))
    res = experiments.sweep(cfg, workers=1)
    points = [(pt.m, pt.ell, pt.p) for pt in cfg.points()]
    mats = [sample("positive", ModelParams(m=8, ell=3, param=points[
        r.point_index][2], seed=r.seed)).relator_matrix for r in res.records]
    hists = [s.verdict_histogram for s in res.summaries]
    csv_text = res.csv_text()
    run = checks.check_fa_sweep
    expect("fa: clean", True, run, res.records, csv_text, hists, points,
           mats, cfg.eps)
    lines = csv_text.splitlines()
    cols = lines[0].split(",")
    row = lines[-1].split(",")
    i = cols.index("frac_FA")
    row[i] = repr(float(row[i]) - 0.25)
    changed = "\n".join(lines[:-1] + [",".join(row)]) + "\n"
    expect("fa: CSV frac_FA changed", False, run, res.records, changed,
           hists, points, mats, cfg.eps)
    row = lines[1].split(",")
    i = cols.index("mean_R")
    row[i] = repr(float(row[i]) + 1.0)
    changed = "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"
    expect("fa: CSV mean_R changed", False, run, res.records, changed,
           hists, points, mats, cfg.eps)
    searched = next(k for k, r in enumerate(res.records)
                    if r.l_holds is not None)
    for field in ("l_holds", "sl_holds"):
        recs = list(res.records)
        recs[searched] = replaced(recs[searched], **{
            field: not getattr(recs[searched], field)})
        expect(f"fa: one {field} flipped", False, run, recs, csv_text,
               hists, points, mats, cfg.eps)
    recs = list(res.records)
    recs[0] = replaced(recs[0], verdict="FACertified")
    expect("fa: one verdict changed", False, run, recs, csv_text, hists,
           points, mats, cfg.eps)
    moved = [dict(h) for h in hists]
    key = next(iter(moved[0]))
    moved[0][key] += 1
    expect("fa: verdict histogram changed", False, run, res.records,
           csv_text, moved, points, mats, cfg.eps)
    # the brute-force oracles themselves: with no relator starting in
    # {1, 2, 3}, that set at position 0 is an L hole and {1} an SL hole
    mat = mats[-1]
    gone = mat[mat[:, 0] > 3]
    expect("fa: brute-force L on the full matrix", True, checks.require,
           checks.l_holds(mat, 8, 3), "L fails")
    expect("fa: brute-force L sees a hole", False, checks.require,
           checks.l_holds(gone, 8, 3), "L fails")
    expect("fa: brute-force SL sees a hole", False, checks.require,
           checks.sl_holds(gone, 8, 5), "SL fails")


def cli_files() -> None:
    m, ell, seed = 60, 4, 3
    p = math.log(m) * m ** -3.0
    tmp = tempfile.mkdtemp(prefix="mut-", dir=os.path.join(HERE, "out"))
    try:
        path = os.path.join(tmp, "s.pres")
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(["sample", "-m", str(m), "-l", str(ell), "--p", repr(p),
                      "--seed", str(seed), "-o", path])
            outs = []
            for cmd in ("analyze", "certify-free"):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    cli.main([cmd, path])
                outs.append(buf.getvalue())
        with open(path) as fh:
            pres_text = fh.read()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sampled = sample("binomial", ModelParams(m=m, ell=ell, param=p,
                                             seed=seed)).relator_matrix
    analyze_text, certify_text = outs
    run = checks.check_cli_roundtrip
    expect("cli: clean", True, run, pres_text, analyze_text, certify_text,
           sampled, m, ell)
    head, body = pres_text.split("\n", 1)
    first, rest = body.split("\n", 1)
    letters = first.split()
    letters[1] = str(-int(letters[1]))
    flipped = "\n".join([head, " ".join(letters), rest])
    expect("cli: one letter flipped in the file", False, run, flipped,
           analyze_text, certify_text, sampled, m, ell)
    rep = json.loads(analyze_text)
    rep["diagnostics"]["double_edge_count"] += 1
    expect("cli: analyze double_edge_count off by one", False, run,
           pres_text, json.dumps(rep), certify_text, sampled, m, ell)
    rep = json.loads(analyze_text)
    rep["diagnostics"]["type_counts"]["3"] -= 1
    expect("cli: analyze type counts do not sum to |R|", False, run,
           pres_text, json.dumps(rep), certify_text, sampled, m, ell)
    cert = json.loads(certify_text)
    assert cert["stuck"], "the dense presentation should stall"
    bogus = dict(cert, remaining_relators=cert["remaining_relators"][1:]
                 + [[1, 2, 3, 4] if [1, 2, 3, 4] not in
                    cert["remaining_relators"] else [1, 2, 3, 5]])
    expect("cli: stuck report lists a relator not in the input", False, run,
           pres_text, analyze_text, json.dumps(bogus), sampled, m, ell)
    short = dict(cert, remaining_relators=cert["remaining_relators"][1:])
    expect("cli: stuck report drops a relator", False, run, pres_text,
           analyze_text, json.dumps(short), sampled, m, ell)
    # keep only relators with generator 1, so some generator occurs once
    one = [r for r in cert["remaining_relators"] if 1 in map(abs, r)][:1]
    expect("cli: remaining generator occurs once", False, run, pres_text,
           analyze_text, json.dumps(dict(cert, remaining_relators=one)),
           sampled, m, ell)
    expect("cli: rank_negative flipped", False, run, pres_text,
           analyze_text, json.dumps(dict(cert, rank_negative=not cert[
               "rank_negative"])), sampled, m, ell)


def main() -> int:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for part in (dense, sparse, fa, cli_files):
        part()
    bad = [name for name, ok in results if not ok]
    print(f"{len(results) - len(bad)}/{len(results)} as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
