"""Independent checks of the outputs each workload produces.

Nothing here calls randgroup's analysis code. Each check recomputes
what it compares against from the relator matrix, by its own counting
or brute force, or tests a property the output must have. A failed
check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np

Z95 = 1.959963984540054


class CheckFailed(AssertionError):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ------------------------------------------------------------ relators

def cyclic_word_count(m: int, ell: int) -> int:
    """Cyclically reduced words of length ell over m generators."""
    return (2 * m - 1) ** ell + m + (m - 1) * (-1) ** ell


def row_keys(mat: np.ndarray, m: int) -> np.ndarray:
    """One int64 per row: the letters shifted to 0..2m, read base 2m+1."""
    base = 2 * m + 1
    require(base ** mat.shape[1] < 2**63, "rows too wide to pack")
    keys = np.zeros(len(mat), dtype=np.int64)
    for col in np.asarray(mat, dtype=np.int64).T:
        keys = keys * base + (col + m)
    return keys


def check_relator_matrix(mat: np.ndarray, m: int, ell: int) -> None:
    """Distinct, cyclically reduced words over generators 1..m."""
    require(mat.ndim == 2 and mat.shape[1] == ell,
            f"relator matrix has shape {mat.shape}, expected (k, {ell})")
    a = np.abs(mat)
    require(((a >= 1) & (a <= m)).all(), "letter out of range 1..m")
    # letter j followed (cyclically) by its inverse cancels
    cancels = mat == -np.roll(mat, -1, axis=1)
    require(not cancels.any(), "relator not cyclically reduced")
    require(len(np.unique(row_keys(mat, m))) == len(mat),
            "relators are not distinct")


def require_binomial_band(k: int, n: int, p: float, z: float = 8.0) -> None:
    mean = n * p
    sd = math.sqrt(n * p * (1.0 - p))
    require(abs(k - mean) <= z * sd + 1.0,
            f"|R|={k} outside {mean:.0f} +/- {z:g} sd ({sd:.0f})")


def distinct_per_row(mat: np.ndarray) -> np.ndarray:
    s = np.sort(np.abs(mat), axis=1)
    return 1 + (np.diff(s, axis=1) != 0).sum(axis=1)


def type_counts(mat: np.ndarray, ell: int) -> tuple[int, int, int]:
    """(type 1, type 2, type 3): type 3 uses ell distinct generators,
    type 2 one fewer, type 1 the rest."""
    d = distinct_per_row(mat)
    t3 = int((d == ell).sum())
    t2 = int((d == ell - 1).sum())
    return (len(mat) - t2 - t3, t2, t3)


def unused_count(mat: np.ndarray, m: int) -> int:
    return m - len(np.unique(np.abs(mat))) if len(mat) else m


def double_edge_count(mat: np.ndarray, m: int) -> int:
    """Generator sets used by at least two relators."""
    s = np.sort(np.abs(mat), axis=1)
    s[:, 1:][np.diff(s, axis=1) == 0] = 0  # keep one copy of each
    keys = row_keys(np.sort(s, axis=1), m)
    _, counts = np.unique(keys, return_counts=True)
    return int((counts >= 2).sum())


def exponent_entries(mat: np.ndarray, m: int):
    """Nonzero net exponents as (relator id, generator, exponent)."""
    k, ell = mat.shape
    rid = np.repeat(np.arange(k, dtype=np.int64), ell)
    key = rid * (m + 1) + np.abs(mat).ravel()
    uniq, inv = np.unique(key, return_inverse=True)
    vals = np.bincount(inv, weights=np.sign(mat).ravel()).astype(np.int64)
    keep = vals != 0
    return uniq[keep] // (m + 1), uniq[keep] % (m + 1), vals[keep]


def require_nonsurjection_possible(mat: np.ndarray, m: int) -> None:
    """Conditions without which the exponent matrix could not have
    rank m, so the group would surely map onto Z."""
    rows, gens, _ = exponent_entries(mat, m)
    require(len(np.unique(rows)) >= m,
            "surjects_Z is False with fewer than m nonzero exponent rows")
    require(len(np.unique(gens)) == m,
            "surjects_Z is False with a generator of zero exponent throughout")
    require(np.sign(mat).sum(axis=1).any(),
            "surjects_Z is False though every exponent sum is zero")


def peel(mat: np.ndarray, m: int) -> np.ndarray:
    """Relators left when every relator holding a generator that occurs
    exactly once is dropped, repeatedly. Mask over rows."""
    g = np.abs(mat)
    alive = np.ones(len(mat), dtype=bool)
    while True:
        counts = np.bincount(g[alive].ravel(), minlength=m + 1)
        hit = alive & (counts[g] == 1).any(axis=1)
        if not hit.any():
            return alive
        alive &= ~hit


def replay_elimination(mat: np.ndarray, m: int, steps) -> None:
    """Each step removes a present relator through a generator that
    occurs exactly once among the relators still present."""
    left = Counter(row_keys(mat, m).tolist())
    counts = np.bincount(np.abs(mat).ravel(), minlength=m + 1).tolist()
    base = 2 * m + 1
    gone = set()
    for n, (g, r) in enumerate(steps):
        key = 0
        for x in r:  # row_keys, one row at a time
            key = key * base + x + m
        require(len(r) == mat.shape[1] and left[key] == 1,
                f"step {n}: relator {r} is not present")
        require(g not in gone and counts[g] == 1,
                f"step {n}: generator {g} does not occur exactly once")
        require(sum(abs(x) == g for x in r) == 1,
                f"step {n}: generator {g} is not in relator {r} once")
        del left[key]
        for x in r:
            counts[abs(x)] -= 1
        gone.add(g)
    require(not left, f"{len(left)} relators left after the last step")


# ---------------------------------------------------------- trial checks

def check_dense_trial(rec, mat: np.ndarray, m: int, ell: int,
                      p: float) -> None:
    check_relator_matrix(mat, m, ell)
    k = len(mat)
    require(rec.n_relators == k, f"n_relators {rec.n_relators} != {k}")
    require_binomial_band(k, cyclic_word_count(m, ell), p)
    require(rec.chi == 1 - m + k, f"chi {rec.chi} != {1 - m + k}")
    require(rec.unused_count == unused_count(mat, m), "unused count differs")
    require(rec.diagnostics is not None, "diagnostics missing")
    tc = rec.diagnostics["type_counts"]
    require((tc["1"], tc["2"], tc["3"]) == type_counts(mat, ell),
            f"type counts {tc} differ from the recount")
    require(not rec.free or k <= m, "free with more relators than generators")
    require(rec.surjects_Z is not None, "surjection not decided")
    if rec.surjects_Z is False:
        require_nonsurjection_possible(mat, m)
    require(not rec.budget_errors, f"budget errors {rec.budget_errors}")


def check_sparse_trial(rec, mat: np.ndarray, m: int, ell: int, p: float,
                       cert) -> None:
    check_relator_matrix(mat, m, ell)
    k = len(mat)
    require(rec.n_relators == k, f"n_relators {rec.n_relators} != {k}")
    require_binomial_band(k, cyclic_word_count(m, ell), p)
    require(rec.unused_count == unused_count(mat, m), "unused count differs")
    require(rec.free, "the sparse presentation was not certified free")
    replay_elimination(mat, m, cert.steps)
    require(cert.final_rank == m - k and rec.final_rank == m - k,
            f"final rank {rec.final_rank} != m - |R| = {m - k}")
    require(rec.surjects_Z is True,
            "a free group of positive rank must map onto Z")
    require(not rec.budget_errors, f"budget errors {rec.budget_errors}")


# ------------------------------------------------------ FA by brute force

def set_size(eps: Fraction, m: int) -> int:
    return max(1, math.ceil(eps * m))


def split_cap(eps: Fraction, m: int) -> int:
    return max(1, math.floor((1 - eps) * m))


def l_holds(mat: np.ndarray, m: int, s: int) -> bool:
    """Every choice of one s-set of generators per position contains
    some relator letter by letter; tries all C(m, s)^ell choices."""
    ell = mat.shape[1]
    present = np.zeros((m,) * ell)
    present[tuple((mat - 1).T)] = 1.0
    sets = np.zeros((math.comb(m, s), m))
    for i, c in enumerate(combinations(range(m), s)):
        sets[i, list(c)] = 1.0
    hits = present
    for _ in range(ell):  # contract position 0, append the set axis
        hits = np.tensordot(hits, sets, axes=([0], [1]))
    return bool((hits > 0).all())


def sl_holds(mat: np.ndarray, m: int, cap: int) -> bool:
    """Every split (U, rest) with 1 <= |U| <= cap has a relator whose
    first letter is in U and whose other letters are not; tries all
    2^m subsets U."""
    u = np.arange(1, 1 << m, dtype=np.int64)
    size = np.array([bin(x).count("1") for x in u.tolist()])
    u = u[size <= cap]
    first = np.int64(1) << (mat[:, 0].astype(np.int64) - 1)
    tail = np.zeros(len(mat), dtype=np.int64)
    for col in mat[:, 1:].T:
        tail |= np.int64(1) << (col.astype(np.int64) - 1)
    matched = ((u[:, None] & first) != 0) & ((u[:, None] & tail) == 0)
    return bool(matched.any(axis=1).all())


def fa_outcome(mat: np.ndarray, m: int, eps: Fraction) -> dict:
    """Verdict of one positive presentation, decided from scratch."""
    if len(mat) == 0 or not peel(mat, m).any():
        return {"free": True, "l": None, "sl": None,
                "verdict": "FreeCertified"}
    if unused_count(mat, m):
        return {"free": False, "l": None, "sl": None,
                "verdict": "SplitsWitness"}
    lh = l_holds(mat, m, set_size(eps, m))
    slh = sl_holds(mat, m, split_cap(eps, m))
    return {"free": False, "l": lh, "sl": slh,
            "verdict": "FACertified" if lh and slh else "Unknown"}


def wilson(successes: int, n: int) -> tuple[float, float]:
    ph = successes / n
    z2 = Z95 * Z95
    den = 1.0 + z2 / n
    center = (ph + z2 / (2 * n)) / den
    half = Z95 * math.sqrt(ph * (1 - ph) / n + z2 / (4 * n * n)) / den
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_fa_sweep(records, csv_text: str, histograms, points,
                   matrices, eps: Fraction) -> None:
    """records: the sweep's trial records in key order; matrices: the
    relator matrix of each trial; points: (m, ell, p) per grid point."""
    require(len(records) == len(matrices), "record count differs")
    outcomes = []
    for rec, mat in zip(records, matrices):
        m = points[rec.point_index][0]
        own = fa_outcome(mat, m, eps)
        outcomes.append(own)
        where = f"trial ({rec.point_index}, {rec.trial_index})"
        require(rec.n_relators == len(mat), f"{where}: n_relators differs")
        require(rec.unused_count == unused_count(mat, m),
                f"{where}: unused count differs")
        require(rec.free == own["free"], f"{where}: free differs")
        require(rec.l_holds == own["l"],
                f"{where}: L outcome {rec.l_holds} != {own['l']}")
        require(rec.sl_holds == own["sl"],
                f"{where}: SL outcome {rec.sl_holds} != {own['sl']}")
        require(rec.verdict == own["verdict"],
                f"{where}: verdict {rec.verdict} != {own['verdict']}")
        require(not (rec.free and rec.surjects_Z is not True),
                f"{where}: free but not mapping onto Z")
        require(not rec.budget_errors, f"{where}: budget errors")

    rows = list(csv.DictReader(io.StringIO(csv_text)))
    require(len(rows) == len(points), "CSV row count differs")
    for pi, (row, (m, ell, p)) in enumerate(zip(rows, points)):
        recs = [r for r in records if r.point_index == pi]
        own = [o for r, o in zip(records, outcomes) if r.point_index == pi]
        n = len(recs)
        sizes = [len(matrices[i]) for i, r in enumerate(records)
                 if r.point_index == pi]
        mean = sum(sizes) / n
        n_free = sum(o["free"] for o in own)
        lo, hi = wilson(n_free, n)

        def frac(key):
            vals = [o[key] for o in own]
            if all(v is None for v in vals):
                return None
            return sum(v is True for v in vals) / n

        expect = {
            "m": m, "ell": ell, "p": p, "trials": n,
            "frac_free": n_free / n, "frac_free_ci_lo": lo,
            "frac_free_ci_hi": hi, "mean_R": mean,
            "sd_R": math.sqrt(sum((x - mean) ** 2 for x in sizes) / (n - 1)),
            "frac_R_ge_3m": sum(x >= 3 * m for x in sizes) / n,
            "frac_unused_ge_halfsqrtm": sum(
                unused_count(matrices[i], m) >= math.sqrt(m) / 2
                for i, r in enumerate(records) if r.point_index == pi) / n,
            "frac_surjZ": sum(r.surjects_Z is True for r in recs) / n,
            "frac_L": frac("l"), "frac_SL": frac("sl"),
            "frac_FA": sum(o["verdict"] == "FACertified" for o in own) / n,
            "frac_unknown": sum(o["verdict"] == "Unknown" for o in own) / n,
        }
        for key, want in expect.items():
            got = row.get(key)
            require(got is not None, f"CSV lacks column {key}")
            if want is None:
                require(got == "", f"point {pi}: {key}={got!r}, expected empty")
            else:
                require(got != "" and _close(float(got), float(want)),
                        f"point {pi}: {key}={got} but records give {want}")
        hist = Counter(o["verdict"] for o in own)
        require(dict(histograms[pi]) == dict(hist),
                f"point {pi}: verdict histogram {histograms[pi]} != {hist}")


# ------------------------------------------------------------ CLI files

def read_presentation(text: str) -> tuple[list[str], np.ndarray]:
    """Header fields and relator matrix of a presentation file."""
    head, _, body = text.partition("\n")
    fields = head.split()
    require(len(fields) == 5, f"bad header {head!r}")
    ell = int(fields[1])
    flat = np.array(body.split(), dtype=np.int64)
    require(len(flat) % ell == 0, "relator lines of uneven length")
    return fields, flat.reshape(-1, ell)


def check_cli_roundtrip(pres_text: str, analyze_text: str,
                        certify_text: str, sampled: np.ndarray,
                        m: int, ell: int) -> None:
    fields, mat = read_presentation(pres_text)
    require(int(fields[0]) == m and int(fields[1]) == ell,
            f"header says m={fields[0]} ell={fields[1]}")
    require(mat.shape == sampled.shape and np.array_equal(mat, sampled),
            "file relators differ from the sampled relator matrix")
    k = len(mat)

    rep = json.loads(analyze_text)
    require(rep["n_relators"] == k, "analyze n_relators differs")
    require(rep["chi"] == 1 - m + k, "analyze chi differs")
    tc = rep["diagnostics"]["type_counts"]
    require(sum(tc.values()) == k, f"type counts {tc} do not sum to {k}")
    require((tc["1"], tc["2"], tc["3"]) == type_counts(mat, ell),
            f"type counts {tc} differ from the recount")
    require(rep["diagnostics"]["double_edge_count"]
            == double_edge_count(mat, m), "double edge count differs")

    cert = json.loads(certify_text)
    if not cert.get("stuck"):
        replay_elimination(mat, m, [(s["generator"], tuple(s["relator"]))
                                    for s in cert["steps"]])
        require(cert["final_rank"] == m - k, "final rank differs")
        return
    rem = np.array(cert["remaining_relators"], dtype=np.int64
                   ).reshape(-1, ell)
    require(len(rem) > 0, "stuck report without relators")
    keys = row_keys(rem, m)
    require(np.isin(keys, row_keys(mat, m)).all(),
            "a remaining relator is not an input relator")
    require(len(np.unique(keys)) == len(keys), "remaining relators repeat")
    counts = np.bincount(np.abs(rem).ravel(), minlength=m + 1)
    require(not (counts == 1).any(),
            "a remaining generator occurs exactly once")
    require(set(np.unique(np.abs(rem)).tolist())
            <= set(cert["remaining_generators"]),
            "a remaining relator uses an eliminated generator")
    core = row_keys(mat[peel(mat, m)], m)
    require(np.array_equal(np.sort(core), np.sort(keys)),
            "remaining relators differ from the peeled core")
    require(cert["rank_negative"]
            == (len(rem) > len(cert["remaining_generators"])),
            "rank_negative flag differs")
