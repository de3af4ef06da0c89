from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import reference_report_json
from test_golden_verdicts import GOLDEN_CHECK_FA
from randgroup import abelianization, cli, experiments
from randgroup.cli import _emit, build_parser, main
from randgroup.fa_certificates import DEFAULT_EPSILON, SL_MAX_M
from randgroup.freeness import (EliminationCertificate, StuckReport,
                                certify_free)
from randgroup.hypergraph import diagnostics
from randgroup.model import (ModelParams, load_presentation,
                             make_presentation, sample, save_presentation)
from randgroup.words import is_cyclically_reduced


SRC = os.path.dirname(os.path.dirname(experiments.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_pres(tmp_path, text, name="x.pres"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_sample_then_analyze_counts_relators(tmp_path, capsys):
    target = str(tmp_path / "t.pres")
    code, _, err = run(capsys, "sample", "-m", "2", "-l", "3", "--p", "1",
                       "--model", "positive", "--seed", "7", "-o", target)
    assert code == 0 and "|R|=8" in err
    code, out, _ = run(capsys, "analyze", target)
    assert code == 0
    assert json.loads(out)["n_relators"] == 8


def test_sample_same_flags_byte_identical(tmp_path, capsys):
    paths = [str(tmp_path / f"s{i}.pres") for i in range(2)]
    for p in paths:
        code, _, _ = run(capsys, "sample", "-m", "6", "-l", "4", "--p",
                         "0.001", "--seed", "42", "-o", p)
        assert code == 0
    a, b = (open(p, "rb").read() for p in paths)
    assert a == b and len(a) > 0


def test_analyze_round_trips_diagnostics(tmp_path, capsys):
    target = str(tmp_path / "r.pres")
    run(capsys, "sample", "-m", "5", "-l", "3", "--p", "0.02",
        "--seed", "3", "-o", target)
    code, out, _ = run(capsys, "analyze", target)
    assert code == 0
    with open(target) as fh:
        pres = load_presentation(fh)
    assert json.loads(out)["diagnostics"] == json.loads(
        json.dumps(diagnostics(pres).to_json_dict()))


def test_certify_free_rank_two(tmp_path, capsys):
    path = write_pres(tmp_path, "3 3 manual 0.0 0\n1 2 3\n")
    code, out, err = run(capsys, "certify-free", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["final_rank"] == 2
    assert "rank 2" in err


def test_certify_free_stuck_report(tmp_path, capsys):
    path = write_pres(tmp_path, "2 4 manual 0.0 0\n1 2 1 2\n1 1 2 2\n")
    code, out, _ = run(capsys, "certify-free", path)
    assert code == 0
    assert json.loads(out)["stuck"] is True


def test_check_fa_on_full_cube(tmp_path, capsys):
    target = str(tmp_path / "cube.pres")
    run(capsys, "sample", "-m", "2", "-l", "3", "--p", "1",
        "--model", "positive", "--seed", "1", "-o", target)
    code, out, _ = run(capsys, "check-fa", target)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "FACertified"
    assert doc["exploratory_epsilon"] is False


def test_check_fa_exploratory_epsilon(tmp_path, capsys):
    path = write_pres(tmp_path, "2 3 positive 1.0 0\n"
                      "1 1 1\n1 1 2\n1 2 1\n1 2 2\n"
                      "2 1 1\n2 1 2\n2 2 1\n2 2 2\n")
    code, out, _ = run(capsys, "check-fa", path, "--epsilon", "1/3")
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon"] == "1/3"
    assert doc["exploratory_epsilon"] is True
    code, _, _ = run(capsys, "check-fa", path, "--epsilon", "7/5")
    assert code == 2
    code, out, err = run(capsys, "check-fa", path, "--epsilon", "1/0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_check_fa_rejects_huge_epsilon_exponent_at_once(tmp_path, capsys):
    path = write_pres(tmp_path, "2 3 positive 1.0 0\n1 1 1\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "check-fa", path, "--epsilon", "1e-10000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_check_fa_skips_L_with_SL(tmp_path, capsys, monkeypatch):
    # at 22 < m <= 30 the report blanks L anyway, so L must not run
    target = str(tmp_path / "m25.pres")
    run(capsys, "sample", "-m", "25", "-l", "3", "--p", "0.05",
        "--model", "positive", "--seed", "1", "-o", target)
    calls = []
    monkeypatch.setattr(experiments, "check_L_exact",
                        lambda *a, **k: calls.append(a))
    code, out, _ = run(capsys, "check-fa", target)
    assert code == 0 and calls == []
    doc = json.loads(out)
    assert doc["budget_exceeded"] is True and doc["l_holds"] is None


def long_relators(tmp_path, ell):
    # m = 2: the relator 1^ell and the ell words with a single 2
    rows = [["1"] * ell] + [["2" if j == i else "1" for j in range(ell)]
                            for i in range(ell)]
    body = "".join(" ".join(row) + "\n" for row in rows)
    return write_pres(tmp_path, f"2 {ell} positive 0.5 0\n" + body,
                      name=f"long{ell}.pres")


def test_check_fa_budgets_relators_past_the_recursion_depth(tmp_path, capsys):
    # the L search opens a frame per position: ell = 1200 used to die
    # with a RecursionError traceback
    code, out, _ = run(capsys, "check-fa", long_relators(tmp_path, 1200))
    assert code == 0
    doc = json.loads(out)
    assert doc["budget_exceeded"] is True and doc["verdict"] == "Unknown"
    # below the depth bound the search runs as before, byte for byte
    code, out, _ = run(capsys, "check-fa", long_relators(tmp_path, 400))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "c3790c4a0086109c535e356f21ac9de04430ae3eae2582c9ad7ee25b0204f82c"


def test_abelianize_output(tmp_path, capsys):
    path = write_pres(tmp_path, "2 4 manual 0.0 0\n1 1 2 2\n")
    code, out, _ = run(capsys, "abelianize", path)
    assert code == 0
    assert json.loads(out) == {"betti": 1, "torsion": [2]}


def test_enumerate_streams_all_words(capsys):
    code, out, err = run(capsys, "enumerate", "-m", "2", "-l", "3")
    assert code == 0
    words = [tuple(int(t) for t in line.split())
             for line in out.splitlines()]
    assert len(words) == 28 and len(set(words)) == 28
    assert all(is_cyclically_reduced(w) for w in words)
    assert "28" in err


def test_enumerate_long_words_streams():
    # the words are never all printed: read the first line and stop
    proc = subprocess.Popen(
        [sys.executable, "-m", "randgroup.cli", "enumerate", "-m", "2",
         "-l", "1200"], env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        first = proc.stdout.readline()
    finally:
        proc.kill()
        proc.wait()
    assert first == " ".join(["1"] * 1200) + "\n"


def test_package_runs_as_a_module(tmp_path):
    path = write_pres(tmp_path, "5 2 manual 0.0 0\n1 5\n1 2\n3 4\n3 -4\n")
    outs = []
    for module in ("randgroup", "randgroup.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "certify-free", path],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["remaining_generators"] == [3, 4, 5]


@pytest.mark.parametrize("p", ["0.5", "1"])
def test_sample_long_relators_one_generator(capsys, p):
    code, out, _ = run(capsys, "sample", "-m", "1", "-l", "1500", "--p", p,
                       "--seed", "3")
    assert code == 0
    relators = set(load_presentation(io.StringIO(out)).relators)
    both = {(1,) * 1500, (-1,) * 1500}
    assert relators <= both
    if p == "1":
        assert relators == both


NO_SCIPY = """
import importlib, json, pkgutil, sys
import randgroup
from randgroup import cli
for info in pkgutil.iter_modules(randgroup.__path__):
    importlib.import_module("randgroup." + info.name)
code = cli.main(["analyze", sys.argv[1]])
print(json.dumps([name for name in sys.modules
                  if name.split(".")[0] == "scipy"]))
sys.exit(code)
"""


def test_package_runs_without_scipy(tmp_path):
    path = write_pres(tmp_path, "7 3 manual 0.0 0\n1 2 3\n3 4 5\n5 -6 1\n")
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, path],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    report, loaded = proc.stdout.splitlines()
    assert json.loads(report)["diagnostics"]["component_count"] == 2
    assert json.loads(loaded) == []


def test_cli_import_loads_no_process_pool():
    # only a sweep needs the pool modules, and each cold start would
    # compile them
    code = ("import json, sys, randgroup.cli\n"
            "print(json.dumps([name for name in sys.modules if name in "
            "('multiprocessing', 'concurrent.futures')]))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "sample", "-m", "2", "-l", "3")[0] == 2
    assert run(capsys, "sample", "-m", "2", "-l", "3", "--p", "2.0",
               "--seed", "0", "-o", str(tmp_path / "y"))[0] == 2
    assert run(capsys, "sample", "-m", "2", "-l", "3", "--p", "0.5",
               "--model", "uniform_count", "-o",
               str(tmp_path / "z"))[0] == 2
    assert run(capsys, "analyze", str(tmp_path / "missing.pres"))[0] == 2
    code, out, err = run(capsys, "sweep", "--ms", "4", "-l", "3", "--model",
                         "binomial", "--grid", "0.0", "--trials", "1",
                         "--threads", "1", "--epsilon", "1/0")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_malformed_file_reports_line(tmp_path, capsys):
    path = write_pres(tmp_path, "2 3 binomial 0.1 0\n1 1 -1\n")
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("command", ["analyze", "certify-free", "check-fa"])
def test_letter_past_int32_reports_line(tmp_path, capsys, command):
    # the header's m admits the letter, the int32 relator matrix does not
    path = write_pres(tmp_path,
                      "10000000000 3 binomial 0.5 7\n1 2147483648 1\n")
    code, out, err = run(capsys, command, path)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "line 2: letter out of range" in err


def test_cap_error_gives_structured_json(tmp_path, capsys):
    path = write_pres(tmp_path, "300000001 3 manual 0.0 0\n1 2 3\n")
    code, out, _ = run(capsys, "abelianize", path)
    assert code == 1
    assert json.loads(out)["error"] == "BudgetExceededError"
    assert json.loads(out)["check"] == "incidence_index"
    assert json.loads(out)["limit"] == 2 * 10**8


@pytest.mark.parametrize("command", ["analyze", "certify-free", "check-fa"])
def test_huge_generator_count_hits_cap_before_allocating(tmp_path, capsys,
                                                         command):
    path = write_pres(tmp_path, "1000000000000 3 binomial 0.5 7\n1 2 1\n")
    code, out, err = run(capsys, command, path)
    assert code == 1 and err == ""
    assert json.loads(out)["error"] == "BudgetExceededError"
    assert json.loads(out)["check"] == "incidence_index"
    assert json.loads(out)["limit"] == 2 * 10**8


@pytest.mark.parametrize("argv, check, limit", [
    (["abelianize", "300000001 3 manual 0.0 0\n1 2 3\n"],
     "incidence_index", 2 * 10**8),
    (["analyze", "1000000000000 3 binomial 0.5 7\n1 2 1\n"],
     "incidence_index", 2 * 10**8),
    (["certify-free", "1000000000000 3 binomial 0.5 7\n1 2 1\n"],
     "incidence_index", 2 * 10**8),
    (["check-fa", "1000000000000 3 binomial 0.5 7\n1 2 1\n"],
     "incidence_index", 2 * 10**8),
    (["sample", "-m", "40", "-l", "6", "--density", "0.9"], "sample", 10**7),
    (["sample", "-m", "1000000", "-l", "100", "--model", "uniform_count",
      "--density", "0.9"], "sample", 10**7),
    # a universe past 2^63 - 1, where the count is Poisson(3.2e14)
    (["sample", "-m", "10000", "-l", "5", "--p", "1e-7"], "sample", 10**7),
])
def test_every_limit_prints_one_json_line(tmp_path, capsys, argv, check,
                                          limit):
    if argv[0] != "sample":
        argv = [argv[0], write_pres(tmp_path, argv[1])]
    code, out, err = run(capsys, *argv)
    assert code == 1 and err == ""
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report.pop("message").startswith(
        f"budget exceeded in {check} (limit {limit})")
    assert report == {"error": "BudgetExceededError", "check": check,
                      "limit": limit}


def test_abelianize_past_the_solve_cap_prints_one_json_line(tmp_path, capsys,
                                                            monkeypatch):
    # one seed column at m=2: the 2-entry solve is past a cap of 1
    monkeypatch.setattr(abelianization, "_DENSE_CAP", 1)
    path = write_pres(tmp_path, "2 3 manual 0.0 0\n1 1 2\n1 2 2\n")
    code, out, err = run(capsys, "abelianize", path)
    assert code == 1 and err == ""
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report.pop("message").startswith(
        "budget exceeded in abelian_invariants (limit 1)")
    assert report == {"error": "BudgetExceededError",
                      "check": "abelian_invariants", "limit": 1}


@pytest.mark.parametrize("argv", [
    # beyond the relator cap at d=0.9, and beyond the incidence index cap
    ["--ms", "40", "-l", "6", "--grid", "0.1,0.5,0.9",
     "--grid-kind", "density"],
    ["--ms", "300000000", "-l", "3", "--grid", "1e-25"],
    # (ln 1)^-1, and (ln 3)^1e308
    ["--ms", "1", "-l", "3", "--grid", "1:-1", "--grid-kind", "c_log_pow"],
    ["--ms", "3", "-l", "3", "--grid", "1:1e308", "--grid-kind", "c_log_pow"],
    # beyond the relator cap in a universe past 2^63 - 1
    ["--ms", "10000", "-l", "5", "--grid", "1e-7"],
])
def test_sweep_refuses_a_bad_point_before_any_trial(tmp_path, capsys, argv):
    target = tmp_path / "s.csv"
    t0 = time.perf_counter()
    code, out, err = run(capsys, "sweep", "--model", "binomial", "--trials",
                         "3", "--threads", "1", "-o", str(target), *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not target.exists()


def test_sample_at_p_zero_past_float_range_draws_nothing(capsys):
    # the universe (2m-1)^ell is past float range
    code, out, err = run(capsys, "sample", "-m", "1000000", "-l", "60",
                         "--p", "0")
    assert code == 0
    assert out == "1000000 60 binomial 0.0 0\n"
    assert err.endswith("|R|=0\n")


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    plain = str(tmp_path / "a.pres")
    run(capsys, "sample", "-m", "4", "-l", "3", "--p", "0.05", "-o", plain)
    monkeypatch.setenv("RANDGROUP_SEED", "99")
    enved = str(tmp_path / "b.pres")
    run(capsys, "sample", "-m", "4", "-l", "3", "--p", "0.05", "-o", enved)
    explicit = str(tmp_path / "c.pres")
    run(capsys, "sample", "-m", "4", "-l", "3", "--p", "0.05",
        "--seed", "99", "-o", explicit)
    assert open(enved).read() == open(explicit).read()
    assert "seed 99" not in open(plain).read().splitlines()[0]
    assert open(plain).read().splitlines()[0].endswith(" 0")


def test_uniform_count_density_flag(tmp_path, capsys):
    target = str(tmp_path / "u.pres")
    code, _, err = run(capsys, "sample", "-m", "3", "-l", "4", "--density",
                       "0.25", "--model", "uniform_count", "--seed", "5",
                       "-o", target)
    assert code == 0
    with open(target) as fh:
        pres = load_presentation(fh)
    assert len(pres) == int(5.0 ** (4 * 0.25))


def test_sweep_config_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "ms": [4], "ell": 3, "model": "binomial", "grid": [0.0, 0.05],
        "trials": 6, "master_seed": 2, "analyses": ["abelianization"]}))
    out_csv = tmp_path / "out.csv"
    code, _, err = run(capsys, "sweep", "--config", str(cfg), "--trials",
                       "3", "--threads", "1", "-o", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[5] == "3"
    assert "2 grid points x 3 trials" in err


def test_sweep_stdout_and_thread_invariance(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "ms": [5], "ell": 3, "model": "positive", "grid": [0.01],
        "trials": 5, "master_seed": 8}))
    code1, out1, _ = run(capsys, "sweep", "--config", str(cfg),
                         "--threads", "1")
    code2, out2, _ = run(capsys, "sweep", "--config", str(cfg),
                         "--threads", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0].startswith("m,ell,model,p,")


def test_sweep_config_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run(capsys, "sweep", "--config", str(cfg))[0] == 2
    cfg.write_text(json.dumps({"ms": [4], "ell": 3}))
    assert run(capsys, "sweep", "--config", str(cfg))[0] == 2
    cfg.write_text(json.dumps({"ms": [4], "ell": 3, "model": "binomial",
                               "grid": [0.0], "bogus": 1}))
    assert run(capsys, "sweep", "--config", str(cfg))[0] == 2
    # values of the wrong JSON type
    for bad in ({"ms": 5}, {"grid": 0.1}, {"trials": None},
                {"analyses": 5}, {"epsilon": "1/0"},
                # integer settings are JSON integers, never rounded
                {"ms": [4.7]}, {"ms": [True]}, {"ell": 3.9}, {"ell": True},
                {"trials": 2.9}, {"master_seed": -1}):
        cfg.write_text(json.dumps({**SWEEP_BASE, **bad}))
        code, out, err = run(capsys, "sweep", "--config", str(cfg),
                             "--threads", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
    cfg.write_text(json.dumps(SWEEP_BASE))
    for threads in ("0", "-3"):
        code, out, err = run(capsys, "sweep", "--config", str(cfg),
                             "--threads", threads)
        assert code == 2 and out == ""
        assert err == f"error: --threads must be at least 1, got {threads}\n"


SWEEP_BASE = {"ms": [4], "ell": 3, "model": "positive", "grid": [0.05],
              "trials": 2}


@pytest.mark.parametrize("kind, grid", [("p", "0.01"), ("c_log_pow", "1:1")])
def test_uniform_count_sweep_needs_density_grid(capsys, kind, grid):
    code, out, err = run(capsys, "sweep", "--ms", "20", "-l", "3", "--model",
                         "uniform_count", "--grid-kind", kind, "--grid", grid,
                         "--trials", "1", "--threads", "1")
    assert code == 2 and out == ""
    assert err == f"error: uniform_count takes densities, not {kind} values\n"


def test_readme_config_table_lists_the_config_keys():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("### Sweep configuration")[1].split("\n## ")[0]
    keys = re.findall(r"^\| `(\w+)` ", section, flags=re.M)
    assert keys == list(experiments.CONFIG_KEYS)


def test_sweep_flags_are_named_by_config_keys():
    dests = set(vars(build_parser().parse_args(["sweep"]))) - {
        "subcommand", "func", "config", "output", "jsonl", "threads"}
    assert dests == set(experiments.CONFIG_KEYS) - {"budgets"}


@pytest.mark.parametrize("budgets, fragment", [
    ({"bogus": 1}, "unknown budgets keys ['bogus']"),
    ([1, 2], "config budgets must be a JSON object"),
    ({"l_nodes": -1}, "budget l_nodes must be a non-negative integer"),
    ({"l_max_m": 2.5}, "budget l_max_m must be a non-negative integer"),
])
def test_sweep_bad_budgets_exit_2(tmp_path, capsys, budgets, fragment):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SWEEP_BASE, "budgets": budgets}))
    code, out, err = run(capsys, "sweep", "--config", str(cfg),
                         "--threads", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert fragment in err


def test_sweep_budgets_at_limits_run(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SWEEP_BASE, "budgets": {
        "sl_max_m": 26, "l_max_m": 0, "l_nodes": 0}}))
    code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--threads", "1")
    assert code == 0 and len(out.splitlines()) == 2


def test_sweep_runs_split_search_past_m26(tmp_path, capsys):
    # the split search has no size limit of its own
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ms": [40], "ell": 3, "model": "positive",
                               "grid": [0.03], "trials": 2, "budgets": {
                                   "sl_max_m": 40, "l_max_m": 0}}))
    jsonl = tmp_path / "r.jsonl"
    code, out, _ = run(capsys, "sweep", "--config", str(cfg), "--threads",
                       "1", "--jsonl", str(jsonl))
    assert code == 0 and len(out.splitlines()) == 2
    recs = [json.loads(line) for line in jsonl.read_text().splitlines()]
    # SL ran and answered; only the gated L search was skipped
    assert all(isinstance(r["sl_holds"], bool) and not r["budget_errors"]
               for r in recs)
    assert [r["skipped"] for r in recs] == [["check_L_exact"]] * 2


def test_emit_writes_the_json_text_in_slices(capsys):
    # past one 1 MiB slice, with a slice boundary inside a string
    obj = {"b": "x" * (3 * 2**20 + 5), "a": list(range(10))}
    _emit(obj)
    assert capsys.readouterr().out == json.dumps(obj, sort_keys=True) + "\n"


@pytest.mark.parametrize("array", [
    np.arange(-3, 5),
    np.array([], dtype=np.int64),
    np.array([7], dtype=np.int32),
    np.array([[1, -2, 3]], dtype=np.int32),
    np.arange(-6, 6, dtype=np.int32).reshape(4, 3),
    np.zeros((0, 4), dtype=np.int32),
    np.array([[2**31 - 1], [-2**31]], dtype=np.int32),
    # past one block of rows, through both the table and no table
    np.arange(-9000, 9000).reshape(-1, 2) % 7 - 3,
    np.arange(3 * 10**4) * 70_001 - 10**9,
])
def test_emit_streams_int_arrays_as_their_lists(capsys, array):
    obj = {"b": array, "a": None, "c": {"z": array, "y": [1, 2]}}
    _emit(obj)
    want = {"b": array.tolist(), "a": None,
            "c": {"z": array.tolist(), "y": [1, 2]}}
    assert capsys.readouterr().out == json.dumps(want, sort_keys=True) + "\n"


def _certify_free_bytes(capsys, path):
    assert main(["certify-free", str(path)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("pres", [
    make_presentation(6, 3, []),
    make_presentation(6, 3, [(1, 2, 3)]),
    make_presentation(5, 2, [(1, 5), (1, 2), (3, 4), (3, -4)]),
    make_presentation(10**6, 4, [(10**6, 1, 10**6, 1),
                                 (-(10**6 - 1), 2, 10**6 - 1, 2)]),
    sample("binomial", ModelParams(2000, 3, 0.1 * 2000 ** -2.0, 11)),
    sample("binomial", ModelParams(50, 3, 0.12 * 50 ** -2.0, 0)),
    sample("binomial", ModelParams(3000, 4, 2e-10, 7)),
    sample("positive", ModelParams(8, 5, 0.01, 4)),
], ids=["empty", "one_step", "stuck_small", "stuck_near_m", "free_m2000",
        "stuck_m50", "stuck_m3000", "positive"])
def test_certify_free_bytes_match_the_json_of_lists(tmp_path, capsys, pres):
    path = tmp_path / "x.pres"
    with open(path, "w", encoding="ascii") as fh:
        save_presentation(pres, fh)
    assert _certify_free_bytes(capsys, path) == reference_report_json(
        certify_free(pres))


@pytest.mark.parametrize("k", [1, 8192, 8193])
def test_emitted_reports_match_at_block_edges(capsys, k):
    rows = (np.arange(4 * k, dtype=np.int32).reshape(k, 4) % 2001) - 1000
    rows[rows == 0] = 1000
    steps = tuple((int(r[0]), tuple(r.tolist())) for r in np.abs(rows))
    cert = EliminationCertificate(steps=steps, final_rank=3)
    stuck = StuckReport(rows, tuple(range(1, k + 1)), "no admissible pair")
    for report, fields in ((cert, cli._certificate_fields(cert)),
                           (stuck, stuck.json_fields())):
        _emit(fields)
        assert capsys.readouterr().out == reference_report_json(report)


# the golden check-fa files, and a free one of 1599 steps to stream
CHECK_FA_FILES = [("free_m2000", lambda: sample(
    "binomial", ModelParams(2000, 3, 0.1 * 2000 ** -2.0, 11)), None,
    "FreeCertified")] + [row[:4] for row in GOLDEN_CHECK_FA]


@pytest.mark.parametrize("make, eps, verdict",
                         [row[1:] for row in CHECK_FA_FILES],
                         ids=[row[0] for row in CHECK_FA_FILES])
def test_check_fa_prints_the_decision_fields(tmp_path, capsys, make, eps,
                                             verdict):
    pres = make()
    path = tmp_path / "x.pres"
    with open(path, "w", encoding="ascii") as fh:
        save_presentation(pres, fh)
    argv = ("check-fa", str(path)) + (() if eps is None
                                      else ("--epsilon", eps))
    code, out, _ = run(capsys, *argv)
    fields = experiments.decide_verdict(
        pres, DEFAULT_EPSILON if eps is None else Fraction(eps),
        experiments.Budgets(l_max_m=SL_MAX_M)).fa_fields()
    assert code == 0 and fields["verdict"] == verdict
    if fields["free_certificate"] is not None:
        fields["free_certificate"] = fields["free_certificate"].to_json_dict()
    assert out == json.dumps(fields, sort_keys=True) + "\n"


# runs the CLI, then prints its peak RSS in KiB to stderr. The child's
# ru_maxrss would not do: on Linux it starts from the parent's peak
PEAK_RSS = """import sys
from randgroup.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line for line in fh if line.startswith("VmHWM:")).split()[1],
          file=sys.stderr)
sys.exit(code)
"""


def _stuck_file(path, m):
    # no generator occurs once, so every one of 1..m is left
    path.write_text(f"{m} 4 manual 0.0 0\n1 2 1 2\n3 -4 3 -4\n"
                    f"{-m} {m - 1} {-m} {m - 1}\n")


def _stuck_text(m):
    """The certify-free output for _stuck_file(m), in pieces."""
    yield ('{"rank_negative": false, "reason": "no admissible '
           'generator-relator pair", "remaining_generators": [')
    for lo in range(1, m + 1, 10**6):
        yield (", " if lo > 1 else "") + ", ".join(
            map(str, range(lo, min(lo + 10**6, m + 1))))
    yield (f'], "remaining_relators": [[1, 2, 1, 2], [3, -4, 3, -4], '
           f'[{-m}, {m - 1}, {-m}, {m - 1}]], "stuck": true}}\n')


def test_certify_free_streams_twenty_million_generators(tmp_path, capsys):
    small = tmp_path / "small.pres"
    _stuck_file(small, 1000)
    with open(small, encoding="ascii") as fh:
        report = certify_free(load_presentation(fh))
    oracle = reference_report_json(report)
    assert "".join(_stuck_text(1000)) == oracle
    assert _certify_free_bytes(capsys, small) == oracle

    m = 2 * 10**7
    path, out = tmp_path / "huge.pres", tmp_path / "huge.json"
    _stuck_file(path, m)
    with open(out, "wb") as fh:
        proc = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, "certify-free", str(path)],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=fh,
            stderr=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # json.dumps of the generator list peaked at 1.3 GB
    assert int(proc.stderr.split()[-1]) <= 600 * 1024
    want = hashlib.sha256()
    for piece in _stuck_text(m):
        want.update(piece.encode("ascii"))
    got = hashlib.sha256()
    with open(out, "rb") as fh:
        for chunk in iter(lambda: fh.read(2**24), b""):
            got.update(chunk)
    assert got.hexdigest() == want.hexdigest()


def test_bad_seed_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RANDGROUP_SEED", "abc")
    target = str(tmp_path / "s.pres")
    for argv in (["sample", "-m", "4", "-l", "3", "--p", "0.05", "-o", target],
                 ["sweep", "--ms", "4", "-l", "3", "--model", "binomial",
                  "--grid", "0.0", "--trials", "1", "--threads", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: RANDGROUP_SEED must be an integer, got 'abc'\n"
    # an explicit seed does not read the variable
    code, _, _ = run(capsys, "sample", "-m", "4", "-l", "3", "--p", "0.05",
                     "--seed", "3", "-o", target)
    assert code == 0


def test_sweep_given_seed_does_not_read_env(tmp_path, capsys, monkeypatch):
    argv = ["sweep", "--ms", "4", "-l", "3", "--model", "binomial",
            "--grid", "0.0,0.05", "--trials", "2", "--threads", "1"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"master_seed": 3}))
    plain = tmp_path / "plain.csv"
    assert run(capsys, *argv, "--seed", "3", "-o", str(plain))[0] == 0
    monkeypatch.setenv("RANDGROUP_SEED", "abc")
    for given in (["--seed", "3"], ["--config", str(cfg)]):
        out_csv = tmp_path / "enved.csv"
        code, out, err = run(capsys, *argv, *given, "-o", str(out_csv))
        assert code == 0 and out == ""
        assert out_csv.read_bytes() == plain.read_bytes()
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: RANDGROUP_SEED must be an integer, got 'abc'\n"


def test_sweep_pure_flag_invocation(capsys):
    code, out, _ = run(capsys, "sweep", "--ms", "4", "-l", "3", "--model",
                       "binomial", "--grid", "0.0", "--trials", "2",
                       "--threads", "1", "--analyses", "none")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "4" and row[6] == "1.0"
