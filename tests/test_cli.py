from __future__ import annotations

import json
import time

import pytest

from randgroup import experiments
from randgroup.cli import main
from randgroup.hypergraph import diagnostics
from randgroup.model import load_presentation
from randgroup.words import is_cyclically_reduced


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


def test_cap_error_gives_structured_json(tmp_path, capsys):
    path = write_pres(tmp_path, "300000001 3 manual 0.0 0\n1 2 3\n")
    code, out, _ = run(capsys, "abelianize", path)
    assert code == 1
    assert json.loads(out)["error"] == "CapExceededError"


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
                {"analyses": 5}, {"epsilon": "1/0"}):
        cfg.write_text(json.dumps({**SWEEP_BASE, **bad}))
        code, out, err = run(capsys, "sweep", "--config", str(cfg),
                             "--threads", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")


SWEEP_BASE = {"ms": [4], "ell": 3, "model": "positive", "grid": [0.05],
              "trials": 2}


@pytest.mark.parametrize("budgets, fragment", [
    ({"bogus": 1}, "unknown budgets keys ['bogus']"),
    ([1, 2], "config budgets must be a JSON object"),
    ({"l_nodes": -1}, "budget l_nodes must be a non-negative integer"),
    ({"l_max_m": 2.5}, "budget l_max_m must be a non-negative integer"),
    ({"sl_max_m": 27}, "budget sl_max_m=27 exceeds the split scan limit 26"),
    ({"sl_max_m": 40}, "budget sl_max_m=40 exceeds the split scan limit 26"),
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


def test_sweep_pure_flag_invocation(capsys):
    code, out, _ = run(capsys, "sweep", "--ms", "4", "-l", "3", "--model",
                       "binomial", "--grid", "0.0", "--trials", "2",
                       "--threads", "1", "--analyses", "none")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "4" and row[6] == "1.0"
