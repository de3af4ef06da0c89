"""The four workloads, one per regime of the random-group lab.

Each workload makes its inputs from the seed in ``prepare``, does its
whole work once per call of ``run_round`` (the part that is timed) and
checks the outputs of a round in ``check``. Every call into randgroup
goes through a module attribute (``experiments.run_trial``,
``cli.main``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
import tempfile
from fractions import Fraction

from randgroup import cli, experiments
from randgroup.experiments import SweepConfig, trial_seed
from randgroup.freeness import certify_free
from randgroup.model import ModelParams, sample

import checks


def derive_seed(seed: int, name: str) -> int:
    """A 62-bit model seed from the benchmark seed and the workload."""
    return random.Random(f"{name}:{seed}").getrandbits(62)


def _record_key(rec) -> dict:
    d = rec.to_json_dict()
    del d["wall_time"]  # timing, not output
    return d


class Workload:
    name = ""
    ops_per_round = 1
    root = "round"  # name of the span around one round when traced
    # weights of calibrate.py's pieces: the kinds of work the round does
    speed_mix: dict

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def run_round(self):
        """Return (output, failed operations)."""
        raise NotImplementedError

    def fingerprint(self, output):
        """What must be equal between the rounds of one run."""
        raise NotImplementedError

    def check(self, output) -> None:
        raise NotImplementedError

    def layer_extras(self, output) -> dict:
        """Per-layer counts the round's output carries, not its spans."""
        return {}

    def cleanup(self) -> None:
        pass


class _Trial(Workload):
    model = "binomial"

    def run_round(self):
        rec = experiments.run_trial(self.model, self.params,
                                    analyses=self.analyses)
        return rec, int(bool(rec.budget_errors))

    def fingerprint(self, rec):
        return _record_key(rec)


class DenseTrial(_Trial):
    """Binomial model at ell=4, m=5000, p = log(m) m^-3: about 6.8e5
    relators, decided by the dense mod-p rank of the surjection test."""
    name = "dense_trial"
    m, ell = 5000, 4
    speed_mix = {"python": 0.5, "blas": 0.5}
    analyses = frozenset({"diagnostics", "abelianization"})

    def prepare(self, seed):
        self.p = math.log(self.m) * self.m ** -3.0
        self.params = ModelParams(m=self.m, ell=self.ell, param=self.p,
                                  seed=derive_seed(seed, self.name))

    def check(self, rec):
        pres = sample(self.model, self.params)
        checks.check_dense_trial(rec, pres.relator_matrix, self.m, self.ell,
                                 self.p)


class SparseTrial(_Trial):
    """Binomial model at ell=3, m=3e5, p = 0.1 m^-2: about 2.4e5
    relators, certified free by a long elimination chain."""
    name = "sparse_trial"
    m, ell = 300_000, 3
    speed_mix = {"python": 0.8, "numpy": 0.2}
    analyses = experiments.ALL_ANALYSES

    def prepare(self, seed):
        self.p = 0.1 * self.m ** -2.0
        self.params = ModelParams(m=self.m, ell=self.ell, param=self.p,
                                  seed=derive_seed(seed, self.name))

    def check(self, rec):
        pres = sample(self.model, self.params)
        checks.check_sparse_trial(rec, pres.relator_matrix, self.m,
                                  self.ell, self.p, certify_free(pres))


class FASweep(Workload):
    """Phase 2 of scripts/threshold_sweep.py: positive model, m=8,
    ell=3, slack 1/3, 7 grid points x 30 trials, abelianization + fa."""
    name = "fa_sweep"
    root = "experiments.sweep"
    speed_mix = {"python": 1.0}
    grid = (0.001, 0.005, 0.02, 0.1, 0.3, 0.5, 0.7)
    trials = 30
    ops_per_round = len(grid) * trials

    def prepare(self, seed):
        self.config = SweepConfig(
            ms=(8,), ell=3, model="positive", grid=self.grid, grid_kind="p",
            trials=self.trials, master_seed=derive_seed(seed, self.name),
            eps=Fraction(1, 3),
            analyses=frozenset({"abelianization", "fa"}))

    def run_round(self):
        result = experiments.sweep(self.config, workers=1)
        out = (result, result.csv_text())
        return out, sum(bool(r.budget_errors) for r in result.records)

    def fingerprint(self, out):
        result, csv_text = out
        return csv_text, [_record_key(r) for r in result.records]

    def check(self, out):
        result, csv_text = out
        cfg = self.config
        points = [(pt.m, pt.ell, pt.p) for pt in cfg.points()]
        matrices = []
        for rec in result.records:
            m, ell, p = points[rec.point_index]
            seed = trial_seed(cfg.master_seed, rec.point_index,
                              rec.trial_index)
            checks.require(rec.seed == seed, "trial seed differs")
            matrices.append(sample(cfg.model, ModelParams(
                m=m, ell=ell, param=p, seed=seed)).relator_matrix)
        checks.check_fa_sweep(
            result.records, csv_text,
            [s.verdict_histogram for s in result.summaries], points,
            matrices, cfg.eps)


class CLIRoundtrip(Workload):
    """sample -o FILE, analyze FILE, certify-free FILE through
    randgroup.cli.main, on an ell=4 presentation of the dense regime
    (m=3000, p = log(m) m^-3, about 3.8e5 relators)."""
    name = "cli_roundtrip"
    m, ell = 3000, 4
    speed_mix = {"python": 0.7, "numpy": 0.3}
    ops_per_round = 3

    def prepare(self, seed):
        self.p = math.log(self.m) * self.m ** -3.0
        self.seed = derive_seed(seed, self.name)
        out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "out")
        os.makedirs(out_dir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=out_dir)
        self.files = {k: os.path.join(self.tmp, k)
                      for k in ("sample.pres", "analyze.json",
                                "certify.json")}
        pres = self.files["sample.pres"]
        self.commands = (
            (["sample", "-m", str(self.m), "-l", str(self.ell), "--p",
              repr(self.p), "--seed", str(self.seed), "-o", pres], None),
            (["analyze", pres], self.files["analyze.json"]),
            (["certify-free", pres], self.files["certify.json"]),
        )

    def run_round(self):
        failed = 0
        for argv, stdout_path in self.commands:
            with contextlib.ExitStack() as stack:
                if stdout_path is not None:
                    fh = stack.enter_context(open(stdout_path, "w"))
                    stack.enter_context(contextlib.redirect_stdout(fh))
                stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
                failed += cli.main(argv) != 0
        return self.files, failed

    def fingerprint(self, files):
        out = {}
        for name, path in files.items():
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    def check(self, files):
        texts = {}
        for name, path in files.items():
            with open(path, "r", encoding="ascii") as fh:
                texts[name] = fh.read()
        sampled = sample("binomial", ModelParams(
            m=self.m, ell=self.ell, param=self.p, seed=self.seed))
        checks.check_cli_roundtrip(
            texts["sample.pres"], texts["analyze.json"],
            texts["certify.json"], sampled.relator_matrix, self.m, self.ell)

    def layer_extras(self, files):
        return {"cli.output_bytes": sum(os.path.getsize(p)
                                        for p in files.values())}

    def cleanup(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (DenseTrial, SparseTrial, FASweep,
                                 CLIRoundtrip)}
