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
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .abelianization import surjects_onto_Z_details
from .errors import (BudgetExceededError, DomainError, NoCrossingError,
                     NonMonotoneTrendError)
from .fa_certificates import (DEFAULT_EPSILON, L_NODE_BUDGET, SL_MAX_M,
                              SL_SCAN_LIMIT, VERDICT_FA, VERDICT_FREE,
                              VERDICT_SPLITS, VERDICT_UNKNOWN, FAReport,
                              LWitness, SLWitness, _as_eps, check_L_exact,
                              check_SL_exact, unused_generators)
from .freeness import EliminationCertificate, StuckReport, certify_free
from .hypergraph import diagnostics
from .model import (MODEL_TAGS, ModelParams, Presentation, density_to_p,
                    euler_characteristic, p_to_density, sample)

Z95 = 1.959963984540054

ALL_ANALYSES = frozenset({"diagnostics", "abelianization", "fa"})

CSV_HEADER = ("m,ell,model,p,d_equiv,trials,frac_free,frac_free_ci_lo,"
              "frac_free_ci_hi,mean_R,sd_R,frac_R_ge_3m,"
              "frac_unused_ge_halfsqrtm,frac_surjZ,frac_L,frac_SL,frac_FA,"
              "frac_unknown")

GRID_KINDS = ("p", "density", "c_log_pow")


@dataclass(frozen=True)
class Budgets:
    """Size gates for the expensive per-trial analyses."""
    l_max_m: int = 30
    sl_max_m: int = SL_MAX_M
    l_nodes: int = L_NODE_BUDGET

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise DomainError(f"budget {f.name} must be a non-negative "
                                  f"integer, got {value!r}")
        if self.sl_max_m > SL_SCAN_LIMIT:
            raise DomainError(f"budget sl_max_m={self.sl_max_m} exceeds the "
                              f"split scan limit {SL_SCAN_LIMIT}")


def _holds(result) -> Optional[bool]:
    return None if result is None else result == "holds"


@dataclass(frozen=True)
class Decision:
    """What decided a verdict. A search result is "holds", a witness,
    or None when the search did not run or raised."""
    certificate: Union[EliminationCertificate, StuckReport]
    unused: tuple[int, ...]
    l_result: Union[str, LWitness, None]
    sl_result: Union[str, SLWitness, None]
    verdict: str
    skipped: tuple[str, ...]
    budget_errors: tuple[str, ...]

    def fa_report(self, eps=DEFAULT_EPSILON) -> FAReport:
        """The check-fa report; a skipped or aborted search blanks both."""
        eps = Fraction(eps)
        exceeded = bool(self.skipped or self.budget_errors)
        l_res = None if exceeded else self.l_result
        sl_res = None if exceeded else self.sl_result
        cert = self.certificate if self.verdict == VERDICT_FREE else None
        return FAReport(
            verdict=self.verdict, free_certificate=cert,
            rank=cert.final_rank if cert else None,
            unused_generators=() if cert else self.unused,
            l_holds=_holds(l_res), sl_holds=_holds(sl_res),
            l_witness=l_res if isinstance(l_res, LWitness) else None,
            sl_witness=sl_res if isinstance(sl_res, SLWitness) else None,
            epsilon=eps, exploratory_epsilon=eps != DEFAULT_EPSILON,
            budget_exceeded=exceeded)


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
    elif not (free or unused) and pres.all_positive:
        l_res = search("check_L_exact", budgets.l_max_m, check_L_exact,
                       budget=budgets.l_nodes)
        sl_res = search("check_SL_exact", budgets.sl_max_m, check_SL_exact,
                        max_m=budgets.sl_max_m)
    verdict = (VERDICT_FREE if free else VERDICT_SPLITS if unused
               else VERDICT_FA if l_res == "holds" and sl_res == "holds"
               else VERDICT_UNKNOWN)
    return Decision(cert, unused, l_res, sl_res, verdict, tuple(skipped),
                    tuple(budget_errors))


@dataclass(frozen=True)
class SweepConfig:
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

    def validate(self) -> None:
        if not self.ms:
            raise DomainError("at least one generator count is required")
        if any(m < 1 for m in self.ms):
            raise DomainError("generator counts must be positive")
        if self.ell < 1:
            raise DomainError("relator length must be positive")
        if self.model not in MODEL_TAGS or self.model == "manual":
            raise DomainError(f"unknown sweep model {self.model!r}")
        if self.grid_kind not in GRID_KINDS:
            raise DomainError(f"unknown grid kind {self.grid_kind!r}")
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        _as_eps(self.eps)
        unknown = set(self.analyses) - ALL_ANALYSES
        if unknown:
            raise DomainError(f"unknown analyses {sorted(unknown)}")
        for pt in self.points():
            if not 0.0 <= pt.p <= 1.0:
                raise DomainError(
                    f"grid resolves to p={pt.p} outside [0,1] at m={pt.m}")

    def points(self) -> list["GridPoint"]:
        out = []
        for m in self.ms:
            for raw in self.grid:
                out.append(GridPoint(m=m, ell=self.ell, model=self.model,
                                     p=_resolve_p(self.grid_kind, raw, m,
                                                  self.ell)))
        return out


def _resolve_p(kind: str, raw, m: int, ell: int) -> float:
    if kind == "p":
        return float(raw)
    if kind == "density":
        return density_to_p(m, ell, float(raw))
    c, a = raw
    return float(c) * math.log(m) ** float(a) * float(m) ** (1 - ell)


@dataclass(frozen=True)
class GridPoint:
    m: int
    ell: int
    model: str
    p: float


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
        return {
            "point_index": self.point_index,
            "trial_index": self.trial_index,
            "seed": self.seed,
            "n_relators": self.n_relators,
            "chi": self.chi,
            "free": self.free,
            "final_rank": self.final_rank,
            "unused_count": self.unused_count,
            "surjects_Z": self.surjects_Z,
            "l_holds": self.l_holds,
            "sl_holds": self.sl_holds,
            "verdict": self.verdict,
            "diagnostics": self.diagnostics,
            "skipped": list(self.skipped),
            "budget_errors": list(self.budget_errors),
            "wall_time": self.wall_time,
        }


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
        def num(x):
            return "" if x is None else repr(float(x))

        return ",".join([
            str(self.m), str(self.ell), self.model, repr(float(self.p)),
            num(self.d_equiv), str(self.trials),
            num(self.frac_free), num(self.frac_free_ci_lo),
            num(self.frac_free_ci_hi), num(self.mean_R), num(self.sd_R),
            num(self.frac_R_ge_3m), num(self.frac_unused_ge_halfsqrtm),
            num(self.frac_surjZ), num(self.frac_L), num(self.frac_SL),
            num(self.frac_FA), num(self.frac_unknown),
        ])

    def to_json_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "m", "ell", "model", "p", "d_equiv", "trials", "frac_free",
            "frac_free_ci_lo", "frac_free_ci_hi", "mean_R", "sd_R",
            "frac_R_ge_3m", "frac_unused_ge_halfsqrtm", "frac_surjZ",
            "frac_L", "frac_SL", "frac_FA", "frac_unknown")}
        d["verdict_histogram"] = dict(self.verdict_histogram)
        return d


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

    def to_json_dict(self) -> dict:
        return {
            "model": self.config.model,
            "ell": self.config.ell,
            "trials": self.config.trials,
            "master_seed": self.config.master_seed,
            "epsilon": str(self.config.eps),
            "points": [s.to_json_dict() for s in self.summaries],
        }

    def records_jsonl(self) -> str:
        return "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n"
                       for r in self.records)


def _sweep_task(args):
    config, points, pi, ti = args
    pt = points[pi]
    params = ModelParams(m=pt.m, ell=pt.ell, param=pt.p,
                         seed=trial_seed(config.master_seed, pi, ti))
    return run_trial(pt.model, params, eps=config.eps,
                     analyses=config.analyses, budgets=config.budgets,
                     point_index=pi, trial_index=ti)


def sweep(config: SweepConfig, workers: int = 1,
          csv_path: Optional[str] = None,
          jsonl_path: Optional[str] = None) -> SweepResult:
    """Run the full grid; byte-identical output for any worker count,
    except the measured ``wall_time`` of each JSONL record."""
    config.validate()
    points = config.points()
    tasks = [(config, points, pi, ti)
             for pi in range(len(points)) for ti in range(config.trials)]
    if workers <= 1 or len(tasks) <= 1:
        records = [_sweep_task(t) for t in tasks]
    else:
        # a worker that dies raises BrokenProcessPool here
        chunk = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(
                min(workers, len(tasks)),
                mp_context=multiprocessing.get_context("fork")) as pool:
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
        return {k: getattr(self, k) for k in (
            "crossing", "grid_lo", "grid_hi", "frac_lo", "frac_hi",
            "ci_halfwidth_lo", "ci_halfwidth_hi")}


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
    if len(pts) < 2:
        raise DomainError("need at least two grid points")
    ys = []
    for s in pts:
        y = getattr(s, statistic)
        if y is None:
            raise DomainError(f"statistic {statistic!r} was not computed")
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
