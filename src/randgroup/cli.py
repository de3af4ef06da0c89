"""Command-line frontend for sampling, analysis, certification, and sweeps.

Machine-readable results (JSON, CSV) go to standard output; one-line
human summaries go to standard error. Exit codes: 0 on success, 1 when
an analysis blows a resource budget or a sweep worker dies, 2 on usage
or file-format errors.
The default seed is 0 unless the RANDGROUP_SEED environment variable
overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator

import numpy as np

from .abelianization import abelian_invariants
from .errors import BudgetExceededError, DomainError
from .experiments import (CONFIG_KEYS, GRID_KINDS, Budgets, SweepConfig,
                          decide_verdict, pool_size, sampler_param, sweep)
from .fa_certificates import DEFAULT_EPSILON, SL_MAX_M, _as_eps
from .freeness import EliminationCertificate, certify_free
from .hypergraph import diagnostics
from .model import (MODEL_TAGS, ModelParams, euler_characteristic,
                    load_presentation, rows_text, sample,
                    save_presentation)
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


def _json_rows(matrix: np.ndarray, first: str, seps: tuple[str, ...],
               last: str) -> Iterator[str]:
    """JSON text of a list with one item per row of an int matrix, in blocks.

    ``first`` opens the list and its first item, ``seps[j]`` follows
    column j (the last one ends an item and opens the next), and
    ``last`` ends the final item and the list.
    """
    if not matrix.size:
        yield json.dumps(matrix.tolist())
        return
    yield first
    blocks = rows_text(matrix, seps)
    held = next(blocks)
    for block in blocks:
        yield held
        held = block
    yield held[:-len(seps[-1])] + last


def _json_array(array: np.ndarray) -> Iterator[str]:
    """``json.dumps(array.tolist())`` of a 1-D or 2-D int array, in blocks."""
    if array.ndim == 1:
        return _json_rows(array[:, None], "[", (", ",), "]")
    return _json_rows(array, "[[", (", ",) * (array.shape[1] - 1) + ("], [",),
                      "]]")


def _certificate_fields(cert: EliminationCertificate) -> dict:
    """``cert.to_json_dict()``, but with the steps as JSON text in blocks,
    from the rows [generator | relator] of ``cert.step_matrix()``."""
    steps = cert.step_matrix()
    return {"final_rank": cert.final_rank,
            "steps": _json_rows(steps, '[{"generator": ',
                                (', "relator": [',)
                                + (", ",) * (steps.shape[1] - 2)
                                + (']}, {"generator": ',), "]}]")}


def _write_json(out, value) -> None:
    if isinstance(value, dict):
        out.write("{")
        for i, key in enumerate(sorted(value)):
            out.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(out, value[key])
        out.write("}")
    elif isinstance(value, np.ndarray):
        out.writelines(_json_array(value))
    elif isinstance(value, Iterator):
        out.writelines(value)
    else:
        out.write(json.dumps(value, sort_keys=True))


def _emit(obj: dict) -> None:
    """Write ``json.dumps(obj, sort_keys=True)`` and a newline to stdout.

    Dicts are written key by key. An int ndarray value is written as the
    JSON list of its rows, and an iterator value as the JSON text it
    yields; both stream block by block through ``model.rows_text``, so a
    large report is held neither as Python lists nor as one string.
    """
    _write_json(sys.stdout, obj)
    sys.stdout.write("\n")


# ------------------------------------------------------------ handlers

def _cmd_sample(args) -> int:
    if args.m < 1 or args.ell < 1:
        raise DomainError("need -m >= 1 and -l >= 1")
    kind, value = (("p", args.p) if args.p is not None
                   else ("density", args.density))
    param = sampler_param(args.model, kind, value, args.m, args.ell)
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
    cert = certify_free(_load(args.file))
    if isinstance(cert, EliminationCertificate):
        fields = _certificate_fields(cert)
        summary = f"free of rank {cert.final_rank}"
    else:
        fields = cert.json_fields()
        summary = "elimination stuck; freeness undecided"
    # the presentation, and the index it caches, go before the emit
    del cert
    _emit(fields)
    print(summary, file=sys.stderr)
    return 0


def _cmd_check_fa(args) -> int:
    eps = _as_eps(args.epsilon)
    pres = _load(args.file)
    # the report blanks L whenever SL is skipped, so L is gated with SL
    fields = decide_verdict(pres, eps, Budgets(l_max_m=SL_MAX_M)).fa_fields()
    if fields["free_certificate"] is not None:
        fields["free_certificate"] = _certificate_fields(
            fields["free_certificate"])
    _emit(fields)
    print(f"verdict: {fields['verdict']}", file=sys.stderr)
    return 0


def _cmd_abelianize(args) -> int:
    pres = _load(args.file)
    inv = abelian_invariants(pres)
    _emit(inv.to_json_dict())
    print(f"betti={inv.betti} torsion={list(inv.torsion)}",
          file=sys.stderr)
    return 0


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _grid_list(text: str) -> list:
    """Grid entries: numbers, and C:A read as the pair [c, a]."""
    return [[float(x) for x in tok.split(":")] if ":" in tok else float(tok)
            for tok in text.split(",")]


def _name_list(text: str) -> list[str]:
    return [] if text == "none" else text.split(",")


def _cmd_sweep(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise DomainError(f"--threads must be at least 1, got {args.threads}")
    settings = {}
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            try:
                given = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"bad config file: {exc}") from None
        if not isinstance(given, dict):
            raise DomainError("config file must hold a JSON object")
        settings.update(given)
    # the sweep flags are named by their config keys, and win over the file
    settings.update((key, value) for key, value in vars(args).items()
                    if key in CONFIG_KEYS and value is not None)
    if "master_seed" not in settings:
        settings["master_seed"] = _default_seed()
    config = SweepConfig.from_json_dict(settings)
    workers = args.threads or os.cpu_count() or 1
    # imported here, not at start: only a sweep can break a process pool
    from concurrent.futures.process import BrokenProcessPool
    try:
        result = sweep(config, workers=workers, csv_path=args.output,
                       jsonl_path=args.jsonl)
    except BrokenProcessPool as exc:
        print(f"error: a sweep worker died: {exc}", file=sys.stderr)
        return 1
    if not args.output:
        sys.stdout.write(result.csv_text())
    print(f"{len(result.points)} grid points x {config.trials} trials "
          f"on {pool_size(workers, len(result.records))} workers",
          file=sys.stderr)
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
    # each flag's dest is its config key, and it parses into its JSON form
    p.add_argument("--ms", type=_int_list, default=None,
                   help="comma-separated m values")
    p.add_argument("-l", "--ell", type=int, default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--grid", type=_grid_list, default=None,
                   help="comma-separated grid entries (C:A pairs for "
                        "c_log_pow)")
    p.add_argument("--grid-kind", dest="grid_kind", default=None,
                   choices=GRID_KINDS)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", dest="master_seed", type=int, default=None,
                   help="master seed (default: RANDGROUP_SEED or 0)")
    p.add_argument("--epsilon", default=None)
    p.add_argument("--analyses", type=_name_list, default=None,
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
    except BudgetExceededError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc),
               "check": exc.check, "limit": exc.limit})
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
