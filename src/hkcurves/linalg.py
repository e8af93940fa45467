"""Exact matrix rank over GF(p^k).

A matrix is a plain 2-d numpy array of element *indices* (the base-p
encoding of coefficient vectors), passed with its field.  Rank dispatches
to one of three exact kernels:

* GF(2): rows packed into bytes, elimination by vectorized XOR -- the
  fast path that carries the characteristic-2 workload;
* GF(p), p odd: integer elimination with outer-product updates and lazy
  modular reduction (only pivot row/column are reduced each step; entry
  growth is bounded, so the dtype is chosen once up front; a pivot
  updates only the rows that change);
* GF(p^k), k >= 2: restriction of scalars -- each entry is replaced by the
  k x k multiplication matrix of the element over GF(p), built once per
  distinct entry of the matrix, and the prime field kernels finish the
  job (the GF(p)-rank is exactly k times the GF(p^k)-rank).

A pure-Python elimination over FieldElement values (`rank_generic`) is
kept as the reference implementation for differential testing.

`order_basis_degrees` is the one kernel over GF(p)[x]: the shifted degrees
of a reduced approximant basis, from which the engine reads the syzygy
degrees of (x^q, y^q, z^q).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .gf import FieldElement, FieldSpec


def _index_dtype(order: int):
    if order <= 256:
        return np.uint8
    if order <= 65536:
        return np.uint16
    return np.int64


def rank(idx: np.ndarray, field: FieldSpec) -> int:
    """Exact rank over `field` of a 2-d array of element indices; 0 for empty shapes."""
    if idx.size == 0:
        return 0
    mat = idx if field.k == 1 else restrict_scalars(idx, field)
    r = rank_gf2(mat != 0) if field.p == 2 else rank_modp(mat, field.p)
    if r % field.k:  # pragma: no cover - mathematically impossible
        raise AssertionError("restriction-of-scalars rank not divisible by k")
    return r // field.k


def rank_gf2(mat: np.ndarray) -> int:
    """Rank of a boolean/0-1 matrix over GF(2) via byte-packed elimination."""
    m, n = mat.shape
    if m == 0 or n == 0:
        return 0
    work = np.packbits(mat.astype(bool), axis=1)
    r = 0
    for c in range(n):
        byte, bit = c >> 3, 0x80 >> (c & 7)
        col = work[r:, byte] & bit
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            work[[r, piv]] = work[[piv, r]]
        below = work[r + 1:, byte] & bit
        hits = np.nonzero(below)[0]
        if hits.size:
            work[r + 1 + hits] ^= work[r]
        r += 1
        if r == m:
            break
    return r


def _elim_dtype(p: int, mindim: int):
    bound = (p - 1) + (mindim + 1) * (p - 1) ** 2
    if bound < 30000:
        return np.int16
    if bound < 2**31 - 1:
        return np.int32
    if bound < 2**63 - 1:
        return np.int64
    return object  # exact Python integers


def rank_modp(mat: np.ndarray, p: int) -> int:
    """Rank over GF(p), p odd (works for p = 2 as well, only slower).

    Entries grow between reductions; only the pivot row and column are
    reduced mod p at each step, and the dtype is sized so the accumulated
    magnitude (p-1) + min(m,n)*(p-1)^2 never overflows: past int64 the
    entries are Python integers.  Only rows nonzero in the pivot column change.
    """
    m, n = mat.shape
    if m == 0 or n == 0:
        return 0
    work = mat.astype(_elim_dtype(p, min(m, n)))
    r = 0
    for c in range(n):
        col = work[r:, c]
        np.remainder(col, p, out=col)
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            work[[r, piv]] = work[[piv, r]]
        row = work[r, c:]
        np.remainder(row, p, out=row)
        rows = r + 1 + np.flatnonzero(work[r + 1:, c])
        if rows.size and n - c > 1:
            fac = work[rows, c] * pow(int(work[r, c]), p - 2, p) % p
            work[rows, c + 1:] -= fac[:, None] * work[r, c + 1:][None, :]
        r += 1
        if r == m:
            break
    return r


def mul_matrix(elem: FieldElement) -> np.ndarray:
    """k x k matrix over GF(p) of multiplication by `elem`, columns indexed by
    the basis 1, t, ..., t^(k-1)."""
    field = elem.spec
    out = np.zeros((field.k, field.k), dtype=np.int64)
    basis, t = field.one(), field.gen()
    for j in range(field.k):
        out[:, j] = (elem * basis).coeffs
        basis = basis * t
    return out


def restrict_scalars(idx: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Blow an index matrix over GF(p^k) up to a (km) x (kn) matrix over GF(p).

    Block (i, j) is mul_matrix of entry (i, j); one is built per distinct entry.
    """
    m, n = idx.shape
    k = field.k
    values, where = np.unique(idx.ravel(), return_inverse=True)
    table = np.array(
        [mul_matrix(field.from_index(int(v))) for v in values], dtype=_index_dtype(field.p)
    ).reshape(-1, k, k)
    blocks = table[where.reshape(m, n)]  # (m, n, k, k)
    return np.ascontiguousarray(blocks.transpose(0, 2, 1, 3).reshape(m * k, n * k))


def order_basis_degrees(series: np.ndarray, shifts: Sequence[int], p: int) -> list[int]:
    """Shifted row degrees of a reduced order basis over GF(p)[x].

    `series[e]` is the coefficient of x^e in an m x n polynomial matrix F, for
    e below the order.  The returned degrees are those of a basis of
    {v in GF(p)[x]^m : v F = 0 mod x^order}, reduced for `shifts`: the degree
    of row i is max_l(deg P_il + shifts[l]).  Iterative algorithm of
    Beckermann and Labahn (SIAM J. Matrix Anal. Appl. 15, 1994): at each
    order the rows of the residual P F are eliminated against each other in
    order of increasing degree, and the rows that stay nonzero are multiplied
    by x.  Only the residual and the degrees are tracked, never P itself.
    """
    res = np.array(series, dtype=np.int64) % p
    order, m, _ = res.shape
    deg = list(shifts)
    for s in range(order):
        const = res[s].copy()
        if not const.any():
            continue
        trans = np.eye(m, dtype=np.int64)
        pivots: list[tuple[int, int, int]] = []  # (row, column, inverse of the pivot)
        for i in sorted(range(m), key=deg.__getitem__):
            for r, c, inv in pivots:
                fac = int(const[i, c]) * inv % p
                if fac:
                    const[i] = (const[i] - fac * const[r]) % p
                    trans[i] = (trans[i] - fac * trans[r]) % p
            nz = np.flatnonzero(const[i])
            if nz.size:
                c = int(nz[0])
                pivots.append((i, c, pow(int(const[i, c]), p - 2, p)))
        res[s:] = trans @ res[s:] % p
        for i, _, _ in pivots:  # multiply by x, truncated at the order
            res[s + 1:, i] = res[s:-1, i].copy()
            res[s, i] = 0
            deg[i] += 1
    return deg


def rank_generic(idx: np.ndarray, field: FieldSpec) -> int:
    """Reference Gaussian elimination on FieldElement values.

    Partial pivoting means "first nonzero entry" -- there is no magnitude
    to compare in exact arithmetic.  Quadratic-ish Python speed; meant for
    cross-checking the packed kernels, not production sizes.
    """
    rows = [[field.from_index(int(v)) for v in row] for row in idx]
    nrows, ncols = idx.shape
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        prow = rows[r]
        for i in range(r + 1, nrows):
            lead = rows[i][c]
            if lead:
                factor = lead * inv
                rows[i] = [a - factor * b for a, b in zip(rows[i], prow)]
        r += 1
        if r == nrows:
            break
    return r


__all__ = [
    "rank",
    "rank_gf2",
    "rank_modp",
    "rank_generic",
    "restrict_scalars",
    "mul_matrix",
    "order_basis_degrees",
]
