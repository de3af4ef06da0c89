"""Modular rank engine versus a transparent reference elimination."""

import numpy as np
import pytest

from randgroup._modrank import PRIME_A, PRIME_B

from oracles import rank_mod_p


def oracle_rank(A, p):
    # textbook row reduction over GF(p), one int64 row update at a time,
    # every entry reduced after each update (products stay below 2^38)
    rows = np.asarray(A, dtype=np.int64) % p
    n, m = rows.shape
    rank = 0
    for j in range(m):
        if rank == n:
            break
        nz = np.flatnonzero(rows[rank:, j])
        if len(nz) == 0:
            continue
        piv = rank + int(nz[0])
        rows[[rank, piv]] = rows[[piv, rank]]
        rows[rank] = rows[rank] * pow(int(rows[rank, j]), p - 2, p) % p
        for i in range(rank + 1, n):
            c = rows[i, j]
            if c:
                rows[i] = (rows[i] - c * rows[rank]) % p
        rank += 1
    return rank


def random_matrix(rng, n, m, style):
    if style == "dense":
        return rng.integers(-50, 50, size=(n, m))
    if style == "low_rank":
        r = max(1, min(n, m) // 2)
        left = rng.integers(-4, 4, size=(n, r)).astype(np.float64)
        right = rng.integers(-4, 4, size=(r, m)).astype(np.float64)
        return (left @ right).astype(np.int64)
    if style == "sparse":
        a = rng.integers(-3, 4, size=(n, m))
        a[rng.random(size=(n, m)) < 0.8] = 0
        return a
    # duplicated and scaled rows
    a = rng.integers(-9, 10, size=(n, m))
    for _ in range(n // 2):
        i, j = rng.integers(0, n, size=2)
        a[i] = a[j] * int(rng.integers(-2, 3))
    return a


STYLES = ("dense", "low_rank", "sparse", "copies")


@pytest.mark.parametrize("p", [PRIME_A, PRIME_B])
@pytest.mark.parametrize("style", STYLES)
def test_rank_matches_reference(p, style):
    # a fixed seed per case: a str hash is salted per process
    rng = np.random.default_rng((p, STYLES.index(style)))
    for _ in range(12):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 40))
        a = random_matrix(rng, n, m, style)
        assert rank_mod_p(a, p) == oracle_rank(a, p)


@pytest.mark.parametrize("shape", [(70, 70), (64, 130), (200, 65), (129, 128),
                                   (65, 64), (600, 530), (513, 700), (530, 512)])
def test_panel_boundary_shapes(shape):
    # sizes straddling multiples of the 64-column panel width
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    a = random_matrix(rng, *shape, "low_rank")
    assert rank_mod_p(a, PRIME_A) == oracle_rank(a, PRIME_A)


@pytest.mark.parametrize("shape", [(70, 70), (64, 130), (129, 128)])
def test_row_swaps_across_panels(shape):
    # duplicated rows leave zeros on the diagonal, so pivots come from
    # row swaps, whose multipliers must follow them into the trailing
    # update
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    a = random_matrix(rng, *shape, "copies")
    assert rank_mod_p(a, PRIME_A) == oracle_rank(a, PRIME_A)


def test_zero_and_identity():
    assert rank_mod_p(np.zeros((5, 7), dtype=np.int64), PRIME_A) == 0
    assert rank_mod_p(np.eye(9, dtype=np.int64), PRIME_A) == 9


def test_multiple_of_prime_is_zero():
    a = np.diag([PRIME_A, 2 * PRIME_A, 3 * PRIME_A]).astype(np.int64)
    assert rank_mod_p(a, PRIME_A) == 0
    assert rank_mod_p(a, PRIME_B) == 3
