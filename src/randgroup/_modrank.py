"""Dense matrix rank over a prime field, in float64 BLAS.

The prime sits below 2^19, so a product of two reduced entries is
under 2^38 and a float64 cell can absorb one such product per pivot,
about 30000 of them, before leaving the exact-integer window below
2^53. Modular reductions are therefore deferred: cells accumulate raw
integer values across updates and are reduced only when a pivot
actually needs them. Off-pivot cells merely stay congruent to the true
values, which is all a rank computation ever reads.

Elimination is blocked once: each 64-column panel is eliminated
column by column, then one product pushes its multipliers through the
whole trailing block, so throughput is BLAS-bound.

The one caller is the rational-rank decision, which ranks the
compressed peeled core of the exponent matrix (abelianization's
_core_rank) mod primes below 2^19: full rank mod p certifies full rank
over the rationals outright, and on a deficit the caller reads the
first kernel vector of the eliminated core, lifts it to the integers
over several primes and checks it exactly. A whole integer matrix is
ranked through the reference wrapper rank_mod_p in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np

PRIME_A = 524287
PRIME_B = 524269
_INNER = 64
# (_MAX_DIM + _INNER) * (PRIME_A - 1)^2 < 2^53
_MAX_DIM = 30000


def _red(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p into [0, p), elementwise, for exact-integer float64 input.

    Multiply-floor beats fmod by an order of magnitude here. The
    computed quotient can be off by one either way, so two masked
    fixups finish the job; everything stays exact because q*p is below
    2^52.
    """
    q = np.floor(a * (1.0 / p))
    r = a - q * p
    np.add(r, p, out=r, where=r < 0)
    np.subtract(r, p, out=r, where=r >= p)
    return r


def _sweep_and_update(M: np.ndarray, L: np.ndarray, top: int, mid: int,
                      j1: int, p: int) -> None:
    """Forward-substitute the pivot rows' trailing parts, then one
    product pushes every update below. Rows top..mid hold the pivots L
    describes; everything past column j1 is the trailing block."""
    npiv = mid - top
    for t in range(npiv):
        coeff = L[t, :t]
        if t and coeff.any():
            M[top + t, j1:] -= coeff @ M[top:top + t, j1:]
        M[top + t, j1:] = _red(M[top + t, j1:], p)
    if mid < M.shape[0]:
        M[mid:, j1:] -= L[npiv:] @ M[top:mid, j1:]


def _eliminate(M: np.ndarray, p: int) -> int:
    """Rank mod p of M (float64, entries in [0, p)), eliminated in place."""
    n, m = M.shape
    if min(n, m) > _MAX_DIM:
        raise ValueError(f"dimension {min(n, m)} exceeds the exactness bound "
                         f"{_MAX_DIM} for p={p}")
    r = 0
    for j0 in range(0, m, _INNER):
        if r >= n:
            break
        j1 = min(j0 + _INNER, m)
        r0 = r
        lcols: list[np.ndarray] = []
        for j in range(j0, j1):
            colred = _red(M[r:, j], p)
            nz = np.nonzero(colred)[0]
            if len(nz) == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                # partial-width swaps are sound: the skipped left
                # parts of both rows are multiples of p and are
                # never read again before the final reduction
                M[[r, pr], j0:] = M[[pr, r], j0:]
                colred[[0, pr - r]] = colred[[pr - r, 0]]
                for lc in lcols:
                    lc[[r - r0, pr - r0]] = lc[[pr - r0, r - r0]]
            M[r, j:j1] = _red(M[r, j:j1], p)
            inv = float(pow(int(M[r, j]), p - 2, p))
            mult = _red(colred[1:] * inv, p)
            if j + 1 < j1:
                M[r + 1:, j + 1:j1] -= np.outer(mult, M[r, j + 1:j1])
            M[r + 1:, j] = 0.0
            lcol = np.zeros(n - r0)
            lcol[r + 1 - r0:] = mult
            lcols.append(lcol)
            r += 1
        if lcols and j1 < m:
            _sweep_and_update(M, np.column_stack(lcols), r0, r, j1, p)
    return r


def _kernel_vector(M: np.ndarray, r: int, p: int) -> tuple[int, np.ndarray]:
    """First free column f of an M that _eliminate left with rank r < its
    width, and the kernel vector y mod p with y[f] = 1 and zeros past f,
    by back substitution: the columns before f pivot rows 0..f-1."""
    U = _red(M[:r], p).astype(np.int64)
    lead = np.argmax(U != 0, axis=1)
    late = np.flatnonzero(lead != np.arange(r))
    f = int(late[0]) if len(late) else r
    y = np.zeros(M.shape[1], dtype=np.int64)
    y[f] = 1
    for t in range(f - 1, -1, -1):
        dot = int(U[t, t + 1:f + 1] @ y[t + 1:f + 1])
        y[t] = -dot * pow(int(U[t, t]), -1, p) % p
    return f, y
