"""Monte Carlo sweeps over presentation density.

A sweep is a grid of (generator count, probability) points, each
sampled independently a fixed number of times and pushed through the
analysis stack: relator count and Euler characteristic, hypergraph
diagnostics, the freeness certificate, the integer surjection test,
and the two FA search conditions where budgets allow. Per-point
aggregates then localize where certified freeness dies off and where
the fixed-point certificate takes over.

Determinism is the design anchor: every trial derives its generator
seed from (master seed, point index, trial index), workers return
keyed records, and aggregation consumes them in key order, so the
CSV bytes do not depend on the worker count. Heavy checks are never
silently dropped: a trial records which analyses were skipped by
budget rule and which aborted on a budget error.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from fractions import Fraction
from numbers import Real
from typing import Optional, Sequence, Union

import numpy as np

from .abelianization import surjects_onto_Z_details
from .errors import (BudgetExceededError, DomainError, NoCrossingError,
                     NonMonotoneTrendError)
from .fa_certificates import (DEFAULT_EPSILON, L_NODE_BUDGET, SL_MAX_M,
                              VERDICT_FA, VERDICT_FREE, VERDICT_SPLITS,
                              VERDICT_UNKNOWN, LWitness, SLWitness,
                              _as_eps, check_L_exact, check_SL_exact,
                              unused_generators)
from .freeness import EliminationCertificate, StuckReport, certify_free
from .hypergraph import _DENSE_CAP, diagnostics
from .model import (MAX_RELATORS, MODEL_TAGS, ModelParams, Presentation,
                    _mean_count, density_to_p, euler_characteristic,
                    p_to_density, sample, uniform_count_size, universe_size)
from .words import is_integer

Z95 = 1.959963984540054

ALL_ANALYSES = frozenset({"diagnostics", "abelianization", "fa"})

GRID_KINDS = ("p", "density", "c_log_pow")


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise DomainError(message)


@dataclass(frozen=True)
class Budgets:
    """Size gates for the expensive per-trial analyses."""
    l_max_m: int = 30
    sl_max_m: int = SL_MAX_M
    l_nodes: int = L_NODE_BUDGET

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            _check(is_integer(value) and value >= 0, f"budget {f.name} must "
                   f"be a non-negative integer, got {value!r}")


def _holds(result) -> Optional[bool]:
    return None if result is None else result == "holds"


@dataclass(frozen=True)
class Decision:
    """What decided a verdict, at the epsilon the searches ran at. A
    search result is "holds", a witness, or None when the search did
    not run or raised."""
    certificate: Union[EliminationCertificate, StuckReport]
    unused: np.ndarray
    l_result: Union[str, LWitness, None]
    sl_result: Union[str, SLWitness, None]
    verdict: str
    skipped: tuple[str, ...]
    budget_errors: tuple[str, ...]
    eps: Fraction

    def fa_fields(self) -> dict:
        """check-fa's JSON object, with a free verdict's certificate as
        an object; a skipped or aborted search blanks both searches."""
        exceeded = bool(self.skipped or self.budget_errors)
        l_res = None if exceeded else self.l_result
        sl_res = None if exceeded else self.sl_result
        cert = self.certificate if self.verdict == VERDICT_FREE else None
        return {
            "verdict": self.verdict,
            "rank": cert.final_rank if cert else None,
            "unused_generators": [] if cert else self.unused.tolist(),
            "free_certificate": cert,
            "l_holds": _holds(l_res), "sl_holds": _holds(sl_res),
            "l_witness": (l_res.to_json_dict()
                          if isinstance(l_res, LWitness) else None),
            "sl_witness": (sl_res.to_json_dict()
                           if isinstance(sl_res, SLWitness) else None),
            "epsilon": str(self.eps),
            "exploratory_epsilon": self.eps != DEFAULT_EPSILON,
            "budget_exceeded": exceeded,
        }


def decide_verdict(pres: Presentation, eps=DEFAULT_EPSILON,
                   budgets: Budgets = Budgets(),
                   run_fa: bool = True) -> Decision:
    """The verdict cascade: free, then a free splitting, then FA.

    The two searches are defined for all-positive relators only and run
    within the size gates of ``budgets``; every other presentation, and
    every gated or aborted search, leaves the verdict Unknown.
    """
    cert = certify_free(pres)
    unused = unused_generators(pres)
    free = isinstance(cert, EliminationCertificate)
    skipped, budget_errors = [], []

    def search(name, m_limit, check, **kwargs):
        if pres.m > m_limit:
            skipped.append(name)
            return None
        try:
            return check(pres, eps, **kwargs)
        except BudgetExceededError:
            budget_errors.append(name)
            return None

    l_res = sl_res = None
    if not run_fa:
        skipped.append("fa")
    elif not (free or len(unused)) and pres.all_positive:
        l_res = search("check_L_exact", budgets.l_max_m, check_L_exact,
                       budget=budgets.l_nodes)
        sl_res = search("check_SL_exact", budgets.sl_max_m, check_SL_exact)
    verdict = (VERDICT_FREE if free else VERDICT_SPLITS if len(unused)
               else VERDICT_FA if l_res == "holds" and sl_res == "holds"
               else VERDICT_UNKNOWN)
    return Decision(cert, unused, l_res, sl_res, verdict, tuple(skipped),
                    tuple(budget_errors), Fraction(eps))


def _check_keys(given, names, what: str) -> None:
    unknown = set(given) - set(names)
    _check(not unknown, f"unknown {what} keys {sorted(unknown)}")


def _is_number(x) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class SweepConfig:
    """The settings of a sweep; a config file holds them under
    CONFIG_KEYS, in JSON form (see from_json_dict)."""
    ms: tuple[int, ...]
    ell: int
    model: str
    grid: tuple
    grid_kind: str = "p"
    trials: int = 20
    master_seed: int = 0
    eps: Fraction = DEFAULT_EPSILON
    analyses: frozenset = ALL_ANALYSES
    budgets: Budgets = field(default_factory=Budgets)

    @classmethod
    def from_json_dict(cls, settings: dict) -> "SweepConfig":
        """The validated config of a config file's JSON object.

        No value is coerced: validate sees each one as given, but
        "budgets" read as a Budgets. Once valid, the lists read as
        tuples, the epsilon text as a Fraction and the analyses as a set.
        """
        _check_keys(settings, CONFIG_KEYS, "config")
        values = {f.name: settings[key]
                  for f, key in zip(fields(cls), CONFIG_KEYS)
                  if key in settings}
        missing = [f.name for f in fields(cls) if f.name not in values
                   and f.default is MISSING is f.default_factory]
        _check(not missing, f"sweep config needs {missing}")
        if "budgets" in values:
            budgets = values["budgets"]
            _check(isinstance(budgets, dict),
                   "config budgets must be a JSON object")
            _check_keys(budgets, [f.name for f in fields(Budgets)], "budgets")
            values["budgets"] = Budgets(**budgets)
        config = cls(**values)
        config.validate()
        return replace(config, ms=tuple(config.ms),
                       grid=tuple(tuple(g) if isinstance(g, list) else g
                                  for g in config.grid),
                       eps=_as_eps(config.eps),
                       analyses=frozenset(config.analyses))

    def validate(self) -> None:
        """The one check of the settings' types and ranges. Integer
        settings are Python or numpy integers, never bools or floats;
        lists pass where tuples are held."""
        ms, grid, kind = self.ms, self.grid, self.grid_kind
        _check(isinstance(ms, (list, tuple)) and len(ms) > 0
               and all(is_integer(m) and 1 <= m < _DENSE_CAP for m in ms),
               f"ms must be a non-empty list of integers in [1, {_DENSE_CAP})"
               f", the incidence index cap, got {ms!r}")
        _check(is_integer(self.ell) and self.ell >= 1,
               f"ell must be a positive integer, got {self.ell!r}")
        _check(self.model in MODEL_TAGS and self.model != "manual",
               f"unknown sweep model {self.model!r}")
        _check(kind in GRID_KINDS, f"unknown grid kind {kind!r}")
        _check(is_integer(self.trials) and self.trials >= 1,
               f"trials must be a positive integer, got {self.trials!r}")
        _check(is_integer(self.master_seed) and self.master_seed >= 0,
               "master_seed must be a non-negative integer, "
               f"got {self.master_seed!r}")
        # a float is rejected: 0.1 is not exactly 1/10
        _check(isinstance(self.eps, (Fraction, str)),
               f"epsilon must be a Fraction or a string such as '1/3', "
               f"got {self.eps!r}")
        _as_eps(self.eps)
        _check(isinstance(self.analyses, (list, tuple, set, frozenset))
               and all(isinstance(a, str) and a in ALL_ANALYSES
                       for a in self.analyses),
               f"analyses must be a subset of {sorted(ALL_ANALYSES)}, "
               f"got {self.analyses!r}")
        _check(isinstance(self.budgets, Budgets),
               f"budgets must be a Budgets, got {self.budgets!r}")
        pairs = kind == "c_log_pow"
        _check(isinstance(grid, (list, tuple)) and all(
            isinstance(g, (list, tuple)) and len(g) == 2
            and all(map(_is_number, g)) if pairs else _is_number(g)
            for g in grid),
            f"a {kind} grid is a list of "
            f"{'[c, a] pairs' if pairs else 'numbers'}, got {grid!r}")
        for pt in self.points():
            _check(0.0 <= pt.p <= 1.0,
                   f"grid resolves to p={pt.p} outside [0,1] at m={pt.m}")
            _check(_relator_bound(pt) <= MAX_RELATORS, f"p={pt.p} at "
                   f"m={pt.m} exceeds the relator cap {MAX_RELATORS}")

    def points(self) -> list["GridPoint"]:
        return [GridPoint(m=m, ell=self.ell, model=self.model,
                          p=_resolve_p(self.grid_kind, raw, m, self.ell),
                          param=sampler_param(self.model, self.grid_kind,
                                              raw, m, self.ell))
                for m in self.ms for raw in self.grid]


# a config file's keys: SweepConfig's fields, with eps under "epsilon"
CONFIG_KEYS = tuple("epsilon" if f.name == "eps" else f.name
                    for f in fields(SweepConfig))


def _resolve_p(kind: str, raw, m: int, ell: int) -> float:
    if kind == "p":
        return float(raw)
    if kind == "density":
        return density_to_p(m, ell, float(raw))
    c, a = raw
    try:
        return float(c) * math.log(m) ** float(a) * float(m) ** (1 - ell)
    except ArithmeticError:
        raise DomainError(f"grid entry {raw!r} gives no p at m={m}") from None


def _relator_bound(pt: "GridPoint") -> float:
    """A point's relator count, or the top of its Binomial's 8-sigma band."""
    try:
        if pt.model == "uniform_count":
            return uniform_count_size(pt.m, pt.ell, pt.param)
    except BudgetExceededError:  # past float range
        return math.inf
    n = universe_size(pt.m, pt.ell, pt.model == "positive")
    mean = _mean_count(n, pt.p)
    return mean + 8.0 * math.sqrt(mean)


def sampler_param(model: str, kind: str, raw, m: int, ell: int) -> float:
    """The sampler's parameter for a value of a grid kind, from a sweep
    grid or from ``randgroup sample``: the density d for uniform_count,
    which takes densities only, and the probability p otherwise."""
    if model != "uniform_count":
        return _resolve_p(kind, raw, m, ell)
    _check(kind == "density",
           f"uniform_count takes densities, not {kind} values")
    return float(raw)


@dataclass(frozen=True)
class GridPoint:
    """One grid entry at one m: its probability p, and the sampler's
    parameter, which is p but for uniform_count, where it is d."""
    m: int
    ell: int
    model: str
    p: float
    param: float


@dataclass(frozen=True)
class TrialRecord:
    point_index: int
    trial_index: int
    seed: int
    n_relators: int
    chi: int
    free: bool
    final_rank: Optional[int]
    unused_count: int
    surjects_Z: Optional[bool]
    l_holds: Optional[bool]
    sl_holds: Optional[bool]
    verdict: str
    diagnostics: Optional[dict]
    skipped: tuple[str, ...]
    budget_errors: tuple[str, ...]
    wall_time: float

    def to_json_dict(self) -> dict:
        return asdict(self) | {"skipped": list(self.skipped),
                               "budget_errors": list(self.budget_errors)}


def trial_seed(master_seed: int, point_index: int, trial_index: int) -> int:
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(point_index, trial_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_trial(model: str, params: ModelParams,
              eps=DEFAULT_EPSILON,
              analyses: frozenset = ALL_ANALYSES,
              budgets: Budgets = Budgets(),
              point_index: int = 0, trial_index: int = 0) -> TrialRecord:
    """Sample one presentation and run the enabled analysis stack."""
    t0 = time.perf_counter()
    pres = sample(model, params)
    decision = decide_verdict(pres, eps, budgets, "fa" in analyses)
    free = decision.verdict == VERDICT_FREE
    skipped: list[str] = []
    budget_errors: list[str] = []

    diag = None
    if "diagnostics" in analyses:
        diag = diagnostics(pres).summary_dict()
    else:
        skipped.append("diagnostics")

    surj: Optional[bool] = None
    if "abelianization" in analyses:
        try:
            surj = surjects_onto_Z_details(pres).surjects
        except BudgetExceededError:
            budget_errors.append("surjects_onto_Z")
    else:
        skipped.append("abelianization")

    return TrialRecord(
        point_index=point_index,
        trial_index=trial_index,
        seed=params.seed,
        n_relators=len(pres),
        chi=euler_characteristic(pres),
        free=free,
        final_rank=decision.certificate.final_rank if free else None,
        unused_count=len(decision.unused),
        surjects_Z=surj,
        l_holds=_holds(decision.l_result),
        sl_holds=_holds(decision.sl_result),
        verdict=decision.verdict,
        diagnostics=diag,
        skipped=tuple(skipped) + decision.skipped,
        budget_errors=tuple(budget_errors) + decision.budget_errors,
        wall_time=time.perf_counter() - t0,
    )


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    ph = successes / n
    z2 = Z95 * Z95
    den = 1.0 + z2 / n
    center = (ph + z2 / (2 * n)) / den
    half = Z95 * math.sqrt(ph * (1 - ph) / n + z2 / (4 * n * n)) / den
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class PointSummary:
    m: int
    ell: int
    model: str
    p: float
    d_equiv: Optional[float]
    trials: int
    frac_free: float
    frac_free_ci_lo: float
    frac_free_ci_hi: float
    mean_R: float
    sd_R: float
    frac_R_ge_3m: float
    frac_unused_ge_halfsqrtm: float
    frac_surjZ: Optional[float]
    frac_L: Optional[float]
    frac_SL: Optional[float]
    frac_FA: float
    frac_unknown: float
    verdict_histogram: dict

    def csv_row(self) -> str:
        # int and str fields as written, the others as repr(float) or empty
        def text(f):
            x = getattr(self, f.name)
            if f.type in ("int", "str"):
                return str(x)
            return "" if x is None else repr(float(x))

        return ",".join(text(f) for f in fields(self)[:-1])


# the summary's fields are the CSV columns, in order, but for the last
# one, verdict_histogram, which the CSV leaves out
CSV_HEADER = ",".join(f.name for f in fields(PointSummary)[:-1])


def summarize_point(point: GridPoint, records: Sequence[TrialRecord]
                    ) -> PointSummary:
    n = len(records)
    m = point.m
    n_free = sum(r.free for r in records)
    ci_lo, ci_hi = wilson_interval(n_free, n)
    sizes = [r.n_relators for r in records]
    mean_r = sum(sizes) / n
    sd_r = (math.sqrt(sum((x - mean_r) ** 2 for x in sizes) / (n - 1))
            if n > 1 else 0.0)
    hist: dict = {}
    for r in records:
        hist[r.verdict] = hist.get(r.verdict, 0) + 1

    def frac_of(flag_values):
        vals = list(flag_values)
        if all(v is None for v in vals):
            return None
        return sum(v is True for v in vals) / n

    d_equiv = None
    if m >= 2 and 0.0 < point.p <= 1.0:
        d_equiv = p_to_density(m, point.ell, point.p)
    return PointSummary(
        m=m, ell=point.ell, model=point.model, p=point.p, d_equiv=d_equiv,
        trials=n,
        frac_free=n_free / n, frac_free_ci_lo=ci_lo, frac_free_ci_hi=ci_hi,
        mean_R=mean_r, sd_R=sd_r,
        frac_R_ge_3m=sum(r.n_relators >= 3 * m for r in records) / n,
        # unused >= sqrt(m)/2, compared in integers to dodge rounding
        frac_unused_ge_halfsqrtm=sum(
            (2 * r.unused_count) ** 2 >= m for r in records) / n,
        frac_surjZ=frac_of(r.surjects_Z for r in records),
        frac_L=frac_of(r.l_holds for r in records),
        frac_SL=frac_of(r.sl_holds for r in records),
        frac_FA=sum(r.verdict == VERDICT_FA for r in records) / n,
        frac_unknown=sum(r.verdict == VERDICT_UNKNOWN for r in records) / n,
        verdict_histogram=hist,
    )


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    points: tuple[GridPoint, ...]
    summaries: tuple[PointSummary, ...]
    records: tuple[TrialRecord, ...]

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(s.csv_row() for s in self.summaries)
        return "\n".join(lines) + "\n"

    def records_jsonl(self) -> str:
        return "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n"
                       for r in self.records)


def _sweep_task(args):
    config, points, pi, ti = args
    pt = points[pi]
    params = ModelParams(m=pt.m, ell=pt.ell, param=pt.param,
                         seed=trial_seed(config.master_seed, pi, ti))
    return run_trial(pt.model, params, eps=config.eps,
                     analyses=config.analyses, budgets=config.budgets,
                     point_index=pi, trial_index=ti)


# the process pool class; None stands for concurrent.futures', imported
# by each sweep that starts a pool, so that importing this module loads
# no process machinery (tests put an inline pool here)
ProcessPoolExecutor = None


def pool_size(workers: int, n_tasks: int) -> int:
    """Worker count of a sweep: fork starts all at once, so <= cores."""
    return max(1, min(workers, n_tasks, os.cpu_count() or 1))


def sweep(config: SweepConfig, workers: int = 1,
          csv_path: Optional[str] = None,
          jsonl_path: Optional[str] = None) -> SweepResult:
    """Run the full grid; byte-identical output for any worker count,
    except the measured ``wall_time`` of each JSONL record."""
    config.validate()
    points = config.points()
    tasks = [(config, points, pi, ti)
             for pi in range(len(points)) for ti in range(config.trials)]
    size = pool_size(workers, len(tasks))
    if size == 1:
        records = [_sweep_task(t) for t in tasks]
    else:
        import multiprocessing
        pool_class = ProcessPoolExecutor
        if pool_class is None:
            from concurrent.futures import ProcessPoolExecutor as pool_class
        # a worker that dies raises BrokenProcessPool here
        chunk = max(1, len(tasks) // (4 * size))
        with pool_class(
                size, mp_context=multiprocessing.get_context("fork")) as pool:
            records = list(pool.map(_sweep_task, tasks, chunksize=chunk))
    records.sort(key=lambda r: (r.point_index, r.trial_index))
    by_point: list[list[TrialRecord]] = [[] for _ in points]
    for r in records:
        by_point[r.point_index].append(r)
    summaries = tuple(summarize_point(points[pi], by_point[pi])
                      for pi in range(len(points)))
    result = SweepResult(config=config, points=tuple(points),
                         summaries=summaries, records=tuple(records))
    if csv_path is not None:
        with open(csv_path, "w") as fh:
            fh.write(result.csv_text())
    if jsonl_path is not None:
        with open(jsonl_path, "w") as fh:
            fh.write(result.records_jsonl())
    return result


# -------------------------------------------------- threshold estimation

@dataclass(frozen=True)
class ThresholdEstimate:
    crossing: float
    grid_lo: float
    grid_hi: float
    frac_lo: float
    frac_hi: float
    ci_halfwidth_lo: float
    ci_halfwidth_hi: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def estimate_threshold(result_or_summaries, statistic: str,
                       level: float = 0.5, m: Optional[int] = None,
                       direction: str = "decreasing") -> ThresholdEstimate:
    """Interpolate where a per-point fraction crosses a level.

    The points are taken in grid order (optionally restricted to one
    m) and must trend in the stated direction; up to two adjacent
    inversions are tolerated when each is smaller than twice the
    standard error of the difference, anything worse is an error.
    """
    if direction not in ("decreasing", "increasing"):
        raise DomainError(f"unknown direction {direction!r}")
    summaries = getattr(result_or_summaries, "summaries", result_or_summaries)
    pts = [s for s in summaries if m is None or s.m == m]
    _check(len(pts) >= 2, "need at least two grid points")
    ys = []
    for s in pts:
        y = getattr(s, statistic)
        _check(y is not None, f"statistic {statistic!r} was not computed")
        ys.append(float(y))
    xs = [s.p for s in pts]
    ns = [s.trials for s in pts]
    sign = 1.0 if direction == "decreasing" else -1.0
    zs = [sign * y for y in ys]
    zlevel = sign * level

    inversions = 0
    for i in range(len(zs) - 1):
        gap = zs[i + 1] - zs[i]
        if gap <= 0:
            continue
        se = math.sqrt(ys[i] * (1 - ys[i]) / ns[i]
                       + ys[i + 1] * (1 - ys[i + 1]) / ns[i + 1])
        if gap >= 2 * se or inversions >= 2:
            raise NonMonotoneTrendError(
                f"{statistic} moves against the {direction} trend by "
                f"{gap:.4g} from grid point {i} to {i + 1}")
        inversions += 1

    for i in range(len(zs) - 1):
        if zs[i] >= zlevel > zs[i + 1]:
            frac = ((zs[i] - zlevel) / (zs[i] - zs[i + 1])
                    if zs[i] != zs[i + 1] else 0.0)
            lo_ci = wilson_interval(round(ys[i] * ns[i]), ns[i])
            hi_ci = wilson_interval(round(ys[i + 1] * ns[i + 1]), ns[i + 1])
            return ThresholdEstimate(
                crossing=xs[i] + frac * (xs[i + 1] - xs[i]),
                grid_lo=xs[i], grid_hi=xs[i + 1],
                frac_lo=ys[i], frac_hi=ys[i + 1],
                ci_halfwidth_lo=(lo_ci[1] - lo_ci[0]) / 2,
                ci_halfwidth_hi=(hi_ci[1] - hi_ci[0]) / 2)
    raise NoCrossingError(
        f"{statistic} never crosses {level} on the grid")
