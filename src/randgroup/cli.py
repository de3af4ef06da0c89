"""Command-line frontend for sampling, analysis, certification, and sweeps.

Machine-readable results (JSON, CSV) go to standard output; one-line
human summaries go to standard error. Exit codes: 0 on success, 1 when
an analysis blows a resource budget, 2 on usage or file-format errors.
The default seed is 0 unless the RANDGROUP_SEED environment variable
overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from fractions import Fraction

from .abelianization import abelian_invariants
from .errors import (BudgetExceededError, CapExceededError, DomainError,
                     PresentationFormatError)
from .experiments import (ALL_ANALYSES, Budgets, SweepConfig,
                          decide_verdict, sweep)
from .fa_certificates import DEFAULT_EPSILON, SL_MAX_M
from .freeness import EliminationCertificate, certify_free
from .hypergraph import diagnostics
from .model import (MODEL_TAGS, ModelParams, euler_characteristic,
                    load_presentation, sample, save_presentation)
from .words import iter_cyclically_reduced, word_to_text


def _default_seed() -> int:
    text = os.environ.get("RANDGROUP_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise DomainError(
            f"RANDGROUP_SEED must be an integer, got {text!r}") from None


def _load(path: str):
    if path == "-":
        return load_presentation(sys.stdin)
    with open(path, "r", encoding="ascii") as fh:
        return load_presentation(fh)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _parse_eps(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except ZeroDivisionError:
        raise DomainError(f"epsilon has a zero denominator: {text}") from None
    if not 0 < eps < 1:
        raise DomainError(f"epsilon must lie in (0,1), got {text}")
    return eps


# ------------------------------------------------------------ handlers

def _cmd_sample(args) -> int:
    if args.m < 1 or args.ell < 1:
        raise DomainError("need -m >= 1 and -l >= 1")
    if args.model == "uniform_count":
        if args.p is not None:
            raise DomainError("uniform_count takes --density, not --p")
        param = args.density
    elif args.density is not None:
        from .model import density_to_p
        param = density_to_p(args.m, args.ell, args.density)
    else:
        param = args.p
        if not 0.0 <= param <= 1.0:
            raise DomainError(f"--p must lie in [0,1], got {param}")
    seed = _default_seed() if args.seed is None else args.seed
    pres = sample(args.model,
                  ModelParams(m=args.m, ell=args.ell, param=param, seed=seed))
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            save_presentation(pres, fh)
    else:
        save_presentation(pres, sys.stdout)
    print(f"sampled m={args.m} ell={args.ell} model={args.model} "
          f"|R|={len(pres)}", file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    pres = _load(args.file)
    _emit({"m": pres.m, "ell": pres.ell, "model": pres.model_tag,
           "n_relators": len(pres), "chi": euler_characteristic(pres),
           "all_positive": pres.all_positive,
           "diagnostics": diagnostics(pres).to_json_dict()})
    print(f"m={pres.m} ell={pres.ell} |R|={len(pres)}", file=sys.stderr)
    return 0


def _cmd_certify_free(args) -> int:
    # the presentation, and the index it caches, go before the emit
    cert = certify_free(_load(args.file))
    _emit(cert.to_json_dict())
    if isinstance(cert, EliminationCertificate):
        print(f"free of rank {cert.final_rank}", file=sys.stderr)
    else:
        print("elimination stuck; freeness undecided", file=sys.stderr)
    return 0


def _cmd_check_fa(args) -> int:
    pres = _load(args.file)
    eps = _parse_eps(args.epsilon)
    # the report blanks L whenever SL is skipped, so L is gated with SL
    report = decide_verdict(pres, eps,
                            Budgets(l_max_m=SL_MAX_M)).fa_report(eps)
    _emit(report.to_json_dict())
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return 0


def _cmd_abelianize(args) -> int:
    pres = _load(args.file)
    inv = abelian_invariants(pres)
    _emit(inv.to_json_dict())
    print(f"betti={inv.betti} torsion={list(inv.torsion)}",
          file=sys.stderr)
    return 0


def _grid_entry(kind: str, token: str):
    if kind == "c_log_pow":
        c, _, a = token.partition(":")
        if not _:
            raise DomainError(
                f"c_log_pow grid entries look like C:A, got {token!r}")
        return (float(c), float(a))
    return float(token)


def _cmd_sweep(args) -> int:
    settings: dict = {}
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            try:
                settings = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"bad config file: {exc}") from None
        if not isinstance(settings, dict):
            raise DomainError("config file must hold a JSON object")
    known = {"ms", "ell", "model", "grid", "grid_kind", "trials",
             "master_seed", "epsilon", "analyses", "budgets"}
    unknown = set(settings) - known
    if unknown:
        raise DomainError(f"unknown config keys {sorted(unknown)}")

    # command-line flags win over config-file values
    kind = args.grid_kind or settings.get("grid_kind", "p")
    if args.ms is not None:
        settings["ms"] = [int(tok) for tok in args.ms.split(",")]
    if args.ell is not None:
        settings["ell"] = args.ell
    if args.model is not None:
        settings["model"] = args.model
    if args.grid is not None:
        settings["grid"] = [_grid_entry(kind, tok)
                            for tok in args.grid.split(",")]
    if args.trials is not None:
        settings["trials"] = args.trials
    if args.seed is not None:
        settings["master_seed"] = args.seed
    if args.epsilon is not None:
        settings["epsilon"] = args.epsilon
    if args.analyses is not None:
        settings["analyses"] = ([] if args.analyses == "none"
                                else args.analyses.split(","))
    settings["grid_kind"] = kind

    for key in ("ms", "ell", "model", "grid"):
        if key not in settings:
            raise DomainError(f"sweep needs {key!r} from config or flags")
    budget_settings = settings.get("budgets", {})
    if not isinstance(budget_settings, dict):
        raise DomainError("config budgets must be a JSON object")
    unknown = set(budget_settings) - {f.name for f in fields(Budgets)}
    if unknown:
        raise DomainError(f"unknown budgets keys {sorted(unknown)}")
    budgets = Budgets(**budget_settings)
    try:
        config = SweepConfig(
            ms=tuple(int(m) for m in settings["ms"]),
            ell=int(settings["ell"]),
            model=str(settings["model"]),
            grid=tuple(tuple(g) if isinstance(g, list) else g
                       for g in settings["grid"]),
            grid_kind=kind,
            trials=int(settings.get("trials", 20)),
            master_seed=int(settings.get("master_seed", _default_seed())),
            eps=_parse_eps(str(settings.get("epsilon", DEFAULT_EPSILON))),
            analyses=frozenset(settings.get("analyses", ALL_ANALYSES)),
            budgets=budgets,
        )
        config.validate()
    except TypeError as exc:
        raise DomainError(f"bad config value type: {exc}") from None
    workers = args.threads if args.threads else (os.cpu_count() or 1)
    result = sweep(config, workers=workers, csv_path=args.output,
                   jsonl_path=args.jsonl)
    if not args.output:
        sys.stdout.write(result.csv_text())
    print(f"{len(result.points)} grid points x {config.trials} trials "
          f"on {workers} workers", file=sys.stderr)
    return 0


def _cmd_enumerate(args) -> int:
    if args.m < 1 or args.ell < 1:
        raise DomainError("need -m >= 1 and -l >= 1")
    n = 0
    for word in iter_cyclically_reduced(args.m, args.ell):
        print(word_to_text(word))
        n += 1
    print(f"{n} cyclically reduced words", file=sys.stderr)
    return 0


# -------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randgroup",
        description="Random group presentations: sampling, certificates, "
                    "abelianization, and Monte Carlo sweeps.",
        epilog="RANDGROUP_SEED in the environment overrides the default "
               "seed (0) for sample and sweep.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample", help="draw one presentation, write it out")
    p.add_argument("-m", type=int, required=True, dest="m",
                   help="number of generators")
    p.add_argument("-l", "--ell", type=int, required=True, dest="ell",
                   help="relator length")
    how = p.add_mutually_exclusive_group(required=True)
    how.add_argument("--p", type=float, dest="p", default=None,
                     help="inclusion probability")
    how.add_argument("--density", type=float, dest="density", default=None,
                     help="density exponent (converted per model)")
    p.add_argument("--model", choices=[t for t in MODEL_TAGS
                                       if t != "manual"],
                   default="binomial")
    p.add_argument("--seed", type=int, default=None,
                   help="seed (default: RANDGROUP_SEED or 0)")
    p.add_argument("-o", dest="output", default=None,
                   help="output file (default: stdout)")
    p.set_defaults(func=_cmd_sample)

    for name, func, blurb in (
            ("analyze", _cmd_analyze, "relator hypergraph diagnostics"),
            ("certify-free", _cmd_certify_free,
             "generator/relator elimination certificate"),
            ("abelianize", _cmd_abelianize,
             "Betti number and torsion of the abelianization")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("file", help="presentation file, or - for stdin")
        p.set_defaults(func=func)

    p = sub.add_parser("check-fa", help="fixed-point certificate report")
    p.add_argument("file", help="presentation file, or - for stdin")
    p.add_argument("--epsilon", default=str(DEFAULT_EPSILON),
                   help="slack fraction, exact rational (default 1/100)")
    p.set_defaults(func=_cmd_check_fa)

    p = sub.add_parser("sweep", help="Monte Carlo sweep over a grid")
    p.add_argument("--config", default=None,
                   help="JSON config file (flags win on conflict)")
    p.add_argument("-o", dest="output", default=None,
                   help="CSV output file (default: stdout)")
    p.add_argument("--jsonl", default=None,
                   help="also write per-trial records as JSON lines")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: hardware parallelism)")
    p.add_argument("--ms", default=None, help="comma-separated m values")
    p.add_argument("-l", "--ell", type=int, default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--grid", default=None,
                   help="comma-separated grid entries (C:A pairs for "
                        "c_log_pow)")
    p.add_argument("--grid-kind", dest="grid_kind", default=None,
                   choices=["p", "density", "c_log_pow"])
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: RANDGROUP_SEED or 0)")
    p.add_argument("--epsilon", default=None)
    p.add_argument("--analyses", default=None,
                   help="comma-separated subset of "
                        "diagnostics,abelianization,fa; 'none' disables")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("enumerate",
                       help="stream every cyclically reduced word")
    p.add_argument("-m", type=int, required=True, dest="m")
    p.add_argument("-l", "--ell", type=int, required=True, dest="ell")
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PresentationFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, CapExceededError) as exc:
        _emit({"error": type(exc).__name__,
               "message": str(exc),
               "check": getattr(exc, "check", None),
               "limit": getattr(exc, "limit", None)})
        return 1
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
