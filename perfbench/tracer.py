"""Spans around the calls into randgroup's layers, kept in memory.

The tracer replaces a module attribute (say ``randgroup.experiments.
check_L_exact``) by a wrapper that records one span per call: name,
start, end and the span it was called from. The package's own code
looks these names up at call time, so ``run_trial``, ``sweep`` and the
CLI handlers go through the wrappers unchanged. Nothing under ``src/``
is edited; ``uninstall`` puts the original functions back.

Per-layer metrics are computed from the spans of one round at a time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

# deciding tiers of surjects_onto_Z_details, one counter each
SURJ_TIERS = (
    "no_relators",
    "fewer_nonzero_rows_than_generators",
    "zero_exponent_column",
    "total_exponent_sums_all_zero",
    "full_rank_mod_p",
    "integer_elimination",
    "rank_deficient_mod_two_primes",
    "aggregated_rank_deficient_mod_two_primes",
)

# name of every per-layer metric with its unit and better direction,
# in the order they are printed
PER_LAYER = (
    ("model.sample_s", "s", "lower"),
    ("model.relators", "count", "lower"),
    ("model.save_s", "s", "lower"),
    ("model.load_s", "s", "lower"),
    ("freeness.certify_free_s", "s", "lower"),
    ("freeness.elimination_steps", "count", "higher"),
    ("freeness.stuck_json_s", "s", "lower"),
    ("hypergraph.diagnostics_s", "s", "lower"),
    ("abelianization.surjects_onto_Z_s", "s", "lower"),
    *((f"abelianization.method.{t}", "count", "higher") for t in SURJ_TIERS),
    ("abelianization.method.other", "count", "lower"),
    ("abelianization.inexact", "count", "lower"),
    ("fa_certificates.unused_generators_s", "s", "lower"),
    ("fa_certificates.check_L_s", "s", "lower"),
    ("fa_certificates.check_L_calls", "count", "higher"),
    ("fa_certificates.check_SL_s", "s", "lower"),
    ("fa_certificates.check_SL_calls", "count", "higher"),
    ("fa_certificates.budget_exceeded", "count", "lower"),
    ("experiments.run_trial_s", "s", "lower"),
    ("experiments.orchestration_s", "s", "lower"),
    ("experiments.summarize_s", "s", "lower"),
    ("cli.sample_s", "s", "lower"),
    ("cli.analyze_s", "s", "lower"),
    ("cli.certify_free_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.round_s", "s", "lower"),
    ("trace.round_scaled_s", "s", "lower"),
    ("trace.leaf_sum_s", "s", "lower"),
)

# span name -> per-layer time metric it adds to
_TIME_METRIC = {
    "model.sample": "model.sample_s",
    "model.save_presentation": "model.save_s",
    "model.load_presentation": "model.load_s",
    "freeness.certify_free": "freeness.certify_free_s",
    "freeness.StuckReport.to_json": "freeness.stuck_json_s",
    "hypergraph.diagnostics": "hypergraph.diagnostics_s",
    "abelianization.surjects_onto_Z_details":
        "abelianization.surjects_onto_Z_s",
    "fa_certificates.unused_generators":
        "fa_certificates.unused_generators_s",
    "fa_certificates.check_L_exact": "fa_certificates.check_L_s",
    "fa_certificates.check_SL_exact": "fa_certificates.check_SL_s",
    "experiments.run_trial": "experiments.run_trial_s",
    "experiments.summarize_point": "experiments.summarize_s",
    "cli.sample": "cli.sample_s",
    "cli.analyze": "cli.analyze_s",
    "cli.certify-free": "cli.certify_free_s",
    "cli._emit": "cli.emit_s",
}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    counts: dict


class Tracer:
    """Records nested spans; the innermost open span is the parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call fn inside a span; return (result, span)."""
        sp = Span(len(self.spans), name, 0.0, 0.0,
                  self._stack[-1] if self._stack else None, {})
        self.spans.append(sp)
        self._stack.append(sp.sid)
        sp.start = time.perf_counter()
        try:
            return fn(*args, **kwargs), sp
        except BaseException as exc:
            sp.counts["raised"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name,
             count: Optional[Callable] = None) -> None:
        """Route module.attr through a span named name, or name(args)
        if it is callable; count(args, result) adds counters to the
        span after the call returns."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result, sp = self.span(name(args) if callable(name) else name,
                                   original, *args, **kwargs)
            if count is not None:
                sp.counts.update(count(args, result))
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Idempotent."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([{"id": s.sid, "name": s.name, "start": s.start,
                        "end": s.end, "parent": s.parent, **s.counts}
                       for s in self.spans], fh)
            fh.write("\n")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer where the package
    calls them: in experiments (run_trial's stack and the sweep) and in
    the CLI handlers."""
    from randgroup import cli, experiments
    from randgroup.freeness import EliminationCertificate, StuckReport

    def steps(args, cert):
        done = (len(cert.steps) if isinstance(cert, EliminationCertificate)
                else len(args[0]) - cert.n_remaining)
        return {"steps": done}

    def surj(args, report):
        return {"method": report.method, "inexact": int(not report.exact)}

    def relators(args, pres):
        return {"relators": len(pres)}

    for module in (experiments, cli):
        tracer.wrap(module, "sample", "model.sample", relators)
        tracer.wrap(module, "certify_free", "freeness.certify_free", steps)
        tracer.wrap(module, "diagnostics", "hypergraph.diagnostics")
    for attr in ("unused_generators", "check_L_exact", "check_SL_exact"):
        tracer.wrap(experiments, attr, f"fa_certificates.{attr}")
    tracer.wrap(experiments, "surjects_onto_Z_details",
                "abelianization.surjects_onto_Z_details", surj)
    tracer.wrap(experiments, "run_trial", "experiments.run_trial")
    tracer.wrap(experiments, "summarize_point", "experiments.summarize_point")
    tracer.wrap(cli, "save_presentation", "model.save_presentation")
    tracer.wrap(cli, "load_presentation", "model.load_presentation")
    tracer.wrap(cli, "_emit", "cli._emit")
    tracer.wrap(cli, "main", lambda args: f"cli.{args[0][0]}")
    tracer.wrap(StuckReport, "to_json_dict", "freeness.StuckReport.to_json")


def round_metrics(spans: list[Span], root: Span) -> dict:
    """Per-layer metrics of one round, from the spans under its root."""
    out = {name: 0 for name, _, _ in PER_LAYER}
    inside = [s for s in spans if root.start <= s.start and s.end <= root.end
              and s is not root]
    parents = {s.parent for s in inside}
    for s in inside:
        dur = s.end - s.start
        if s.name in _TIME_METRIC:
            out[_TIME_METRIC[s.name]] += dur
        if s.sid not in parents:
            out["trace.leaf_sum_s"] += dur
        c = s.counts
        if s.name == "model.sample":
            out["model.relators"] += c.get("relators", 0)
        elif s.name == "freeness.certify_free":
            out["freeness.elimination_steps"] += c.get("steps", 0)
        elif s.name == "abelianization.surjects_onto_Z_details":
            if "method" in c:
                tier = c["method"] if c["method"] in SURJ_TIERS else "other"
                out[f"abelianization.method.{tier}"] += 1
                out["abelianization.inexact"] += c["inexact"]
        elif s.name in ("fa_certificates.check_L_exact",
                        "fa_certificates.check_SL_exact"):
            key = "check_SL" if s.name.endswith("SL_exact") else "check_L"
            out[f"fa_certificates.{key}_calls"] += 1
            if c.get("raised") == "BudgetExceededError":
                out["fa_certificates.budget_exceeded"] += 1
    out["trace.round_s"] = root.end - root.start
    if root.name == "experiments.sweep":
        out["experiments.orchestration_s"] = (
            out["trace.round_s"] - out["experiments.run_trial_s"])
    return out
