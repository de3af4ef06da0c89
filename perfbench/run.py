"""Benchmark of the randgroup lab: one workload per run, one process.

    python3 perfbench/run.py --workload dense_trial --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The run times one cold set-up, from the process's start (read
from /proc, 10 ms resolution) until randgroup is imported and the
inputs are made. It then repeats whole rounds of the workload until
they took ``--seconds`` at the reference speed, checks the outputs of
the rounds, and prints one JSON object as the last line of stdout.

With ``--trace 0`` the metrics are the end-to-end ones: the median
round time at the reference speed of the machine ``scaled_wall_s``
(calibrate.py), ``peak_rss_mb`` (the process's peak resident memory
once the first round is done) and ``setup_s``. With ``--trace 1`` the
calls into each layer are timed by spans and the metrics are the
per-layer ones, each the median over rounds; the spans are written to
``perfbench/out/``. Wall-clock and scaled round times go to stderr. See
perfbench/README.md.
"""

import time

T0 = time.perf_counter()


def process_age() -> float:
    """Seconds from the process's start to now (10 ms resolution), from
    /proc; 0 where that is not available."""
    import os
    try:
        with open("/proc/self/stat") as fh:
            start = int(fh.read().rsplit(")", 1)[1].split()[19])
        return (time.clock_gettime(time.CLOCK_BOOTTIME)
                - start / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


AGE_AT_T0 = process_age()

import os  # noqa: E402

# One thread everywhere: on two shared cores a second BLAS thread waits
# on the other core, which measures the neighbours (and at m=5000 made
# the dense rank no faster). Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("dense_trial", "sparse_trial", "fa_sweep", "cli_roundtrip")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="keep starting rounds until they took this many "
                    "seconds at the reference speed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_rounds(wl, seconds: float, tracer, sampler) -> dict:
    """Repeat whole rounds until they took ``seconds`` at the reference
    speed; a round that raises counts all its operations as failed.
    Each round is timed twice: in wall seconds less the sampler's
    pieces, and at the reference speed (calibrate.py)."""
    import tracer as tr
    r = {"times": [], "scaled": [], "samples": [], "layers": [],
         "fingerprints": [], "attempted": 0, "failed": 0, "output": None,
         "peak_rss_mb": None}

    def timed(fn):
        t = time.perf_counter()
        sampler.start()
        try:
            return fn()
        finally:
            r["scaled"].append(sampler.stop())
            r["samples"].append(sampler.samples)
            r["times"].append(time.perf_counter() - t - sampler.overhead_s)

    # Stop on reference seconds, not wall seconds: the same code then
    # runs the same number of rounds however fast the host is just now.
    while not r["scaled"] or sum(r["scaled"]) < seconds:
        gc.collect()
        r["attempted"] += wl.ops_per_round
        try:
            if tracer:
                (output, bad), root = timed(
                    lambda: tracer.span(wl.root, wl.run_round))
            else:
                output, bad = timed(wl.run_round)
        except Exception:
            traceback.print_exc()
            r["failed"] += wl.ops_per_round
            r["output"] = None
            continue
        if r["peak_rss_mb"] is None:
            # after the first round: later rounds can only add heap
            # fragmentation, which varies from run to run
            r["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        r["failed"] += bad
        r["output"] = output
        r["fingerprints"].append(wl.fingerprint(output))
        if tracer:
            r["layers"].append({**tr.round_metrics(tracer.spans, root),
                                "trace.round_scaled_s": r["scaled"][-1],
                                **wl.layer_extras(output)})
    return r


def outputs_correct(wl, r) -> bool:
    """Every round gave the same outputs, and the last ones pass the
    workload's checks (a check that crashes has failed)."""
    import checks
    if r["output"] is None:
        return True  # no round succeeded; only failures to report
    try:
        checks.require(all(fp == r["fingerprints"][0]
                           for fp in r["fingerprints"]),
                       "rounds of one run gave different outputs")
        wl.check(r["output"])
    except Exception as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "randgroup", "__init__.py")):
        print(f"error: no randgroup package under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import calibrate
    import tracer as tr
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    wl.prepare(args.seed)
    setup_s = AGE_AT_T0 + time.perf_counter() - T0

    tracer = tr.Tracer() if args.trace else None
    try:
        sampler = calibrate.SpeedSampler(wl.speed_mix)
        if tracer:
            tr.install(tracer)
        try:
            r = run_rounds(wl, args.seconds, tracer, sampler)
        finally:
            if tracer:
                tracer.uninstall()  # the checks are not traced
        correct = outputs_correct(wl, r)
    finally:
        wl.cleanup()

    times = r["times"]
    scaled = r["scaled"]
    print(f"{args.workload} seed {args.seed}: {len(times)} rounds, "
          f"wall seconds {[round(x, 3) for x in times]}, "
          f"scaled seconds {[round(x, 3) for x in scaled]}, "
          f"speed samples {r['samples']}", file=sys.stderr)
    if tracer:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(
            out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
        metrics = {name: {"value": statistics.median(
                              x[name] for x in r["layers"])
                          if r["layers"] else 0, "unit": unit}
                   for name, unit, _ in tr.PER_LAYER}
    else:
        peak = r["peak_rss_mb"] or resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "scaled_wall_s": {"value": statistics.median(scaled),
                              "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
