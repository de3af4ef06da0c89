"""Golden bytes of the verdict cascade, through both of its callers.

``check-fa`` stdout is pinned for one presentation per report branch,
and fixed-seed positive sweeps with the FA searches are pinned by their
CSV bytes and their JSONL records less ``wall_time``. The m values 8,
24 and 31 cover the searched, the SL-skipped and the both-skipped
paths of the default budgets. ``certify-free`` stdout is pinned for a
long elimination chain and for one that sticks midway.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product

import pytest

from randgroup.cli import main
from randgroup.experiments import Budgets, SweepConfig, sweep
from randgroup.model import (ModelParams, make_presentation, sample,
                             save_presentation)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _positive_words(m, ell, first=None):
    return [w for w in product(range(1, m + 1), repeat=ell)
            if first is None or w[0] in first]


def _positive(m, p, seed):
    return lambda: sample("positive", ModelParams(m, 3, p, seed))


# name, presentation, --epsilon (None for the default), verdict, digest
GOLDEN_CHECK_FA = [
    ("free", lambda: make_presentation(3, 3, [(1, 2, 3)]), None,
     "FreeCertified", "2722f6fb2a797674"),
    ("free_beats_splitting", lambda: make_presentation(4, 3, [(1, 2, 1)]),
     None, "FreeCertified", "1b3066fd46c811c2"),
    ("splits", lambda: make_presentation(4, 3, [(1, 1, 1)]), None,
     "SplitsWitness", "7dc31fe0d885461c"),
    ("fa_full_cube", lambda: make_presentation(2, 3, _positive_words(2, 3)),
     None, "FACertified", "59120a28dec46bc9"),
    ("signed_unknown", lambda: make_presentation(
        2, 4, [(1, 1, -2, -2), (2, 2, -1, -1), (1, 2, 1, 2), (2, 1, 2, 1)]),
     None, "Unknown", "6b3a8db4590abe86"),
    # check_L_exact fails and check_SL_exact fails
    ("l_and_sl_witness", _positive(3, 0.1, 0), None, "Unknown",
     "4e9f163fae241934"),
    # check_L_exact fails, check_SL_exact holds
    ("l_witness", _positive(3, 0.1, 22), None, "Unknown",
     "ab2c0b7cb1ec6ae2"),
    # every word starting in {2, 3, 4}: L holds, the split U={1} is unmatched
    ("sl_witness", lambda: make_presentation(
        4, 3, _positive_words(4, 3, first={2, 3, 4})), "1/3", "Unknown",
     "abd972db7b54404a"),
    ("fa_random_eps_third", _positive(6, 0.7, 0), "1/3", "FACertified",
     "2414c524d623bf8a"),
    ("budget_m23", lambda: make_presentation(
        23, 3, [(g, g, g) for g in range(1, 24)]), None, "Unknown",
     "7e9e7d798e8d6d0e"),
    ("budget_m25", _positive(25, 0.05, 1), None, "Unknown",
     "7e9e7d798e8d6d0e"),
    ("budget_m31", _positive(31, 0.05, 1), None, "Unknown",
     "7e9e7d798e8d6d0e"),
    ("fa_full_cube_eps_third",
     lambda: make_presentation(2, 3, _positive_words(2, 3)), "1/3",
     "FACertified", "2414c524d623bf8a"),
]


@pytest.mark.parametrize("make, eps, verdict, digest",
                         [row[1:] for row in GOLDEN_CHECK_FA],
                         ids=[row[0] for row in GOLDEN_CHECK_FA])
def test_golden_check_fa_bytes(tmp_path, capsys, make, eps, verdict, digest):
    path = tmp_path / "pres.txt"
    with open(path, "w", encoding="ascii") as fh:
        save_presentation(make(), fh)
    argv = ["check-fa", str(path)]
    if eps is not None:
        argv += ["--epsilon", eps]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["verdict"] == verdict
    assert _digest(out) == digest


def _binomial(m, ell, c, seed):
    return lambda: sample("binomial",
                          ModelParams(m, ell, c * m ** (1.0 - ell), seed))


# name, presentation, certificate kind, digest
GOLDEN_CERTIFY_FREE = [
    # 1599 steps, not in ascending generator order
    ("free_chain_m2000", _binomial(2000, 3, 0.1, 11), "steps",
     "a1284b126e784ab7"),
    # 27 of 44 relators eliminated, 17 left
    ("stuck_midway_m50", _binomial(50, 3, 0.12, 0), "stuck",
     "686b4b3e9e44c71e"),
]


@pytest.mark.parametrize("make, kind, digest",
                         [row[1:] for row in GOLDEN_CERTIFY_FREE],
                         ids=[row[0] for row in GOLDEN_CERTIFY_FREE])
def test_golden_certify_free_bytes(tmp_path, capsys, make, kind, digest):
    path = tmp_path / "pres.txt"
    with open(path, "w", encoding="ascii") as fh:
        save_presentation(make(), fh)
    assert main(["certify-free", str(path)]) == 0
    out = capsys.readouterr().out
    assert kind in json.loads(out)
    assert _digest(out) == digest


def _records_less_wall_time(result) -> str:
    lines = []
    for rec in result.records:
        d = rec.to_json_dict()
        del d["wall_time"]
        lines.append(json.dumps(d, sort_keys=True) + "\n")
    return "".join(lines)


# name, sweep settings, CSV digest, JSONL digest (records less wall_time)
GOLDEN_SWEEPS = [
    ("m8_searched", dict(ms=(8,), grid=(0.02, 0.1, 0.3, 0.7, 0.95),
                         trials=6, master_seed=606),
     "573b4cd0252135de", "d4cba13cc08761fc"),
    ("m8_eps_third", dict(ms=(8,), grid=(0.3, 0.7), trials=4,
                          master_seed=607, eps=Fraction(1, 3)),
     "aa45353cd6debf1b", "31032378b54fea75"),
    ("m8_l_budget", dict(ms=(8,), grid=(0.3, 0.7, 0.95), trials=4,
                         master_seed=606, budgets=Budgets(l_nodes=40)),
     "8c0b61650a0f185c", "5b1f5da3c50d6bde"),
    ("m24_sl_skipped", dict(ms=(24,), grid=(0.0005, 0.002, 0.01, 0.05),
                            trials=4, master_seed=606),
     "71a0c8fbafeb0b9d", "6db18bf8c002f9e7"),
    ("m24_fa_only", dict(ms=(24,), grid=(0.002, 0.01), trials=3,
                         master_seed=608, analyses=frozenset({"fa"})),
     "64e60e1979854a37", "6613716f475a5f72"),
    ("m31_both_skipped", dict(ms=(31,), grid=(0.0005, 0.002, 0.01),
                              trials=4, master_seed=606),
     "ab6aec1b7b4faeaf", "c98c717e634d56b5"),
]


@pytest.mark.parametrize("settings, csv_digest, jsonl_digest",
                         [row[1:] for row in GOLDEN_SWEEPS],
                         ids=[row[0] for row in GOLDEN_SWEEPS])
def test_golden_fa_sweep_bytes(settings, csv_digest, jsonl_digest):
    result = sweep(SweepConfig(ell=3, model="positive", **settings))
    assert _digest(result.csv_text()) == csv_digest
    assert _digest(_records_less_wall_time(result)) == jsonl_digest
