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
  k x k multiplication matrix of the element over GF(p) (`mul_matrix`,
  powers of the modulus' companion matrix applied to its coefficients),
  built once per distinct entry of the matrix, and the prime field
  kernels finish the job (the GF(p)-rank is exactly k times the
  GF(p^k)-rank).

A pure-Python elimination over FieldElement values (`rank_generic`) is
kept as the reference implementation for differential testing.

`order_basis_degrees` is the one kernel over GF(p)[x]: the shifted degrees
of a reduced approximant basis, from which the engine reads the syzygy
degrees of (x^q, y^q, z^q).  It keeps each row of the residual contiguous
and eliminates the constant coefficient on Python ints, so one pivot
costs one update of one row's tail.
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
    the basis 1, t, ..., t^(k-1).

    Column j is C^j a mod p, for a the coefficients of `elem` and C the
    companion matrix of the modulus (multiplication by t): each column is
    the previous one shifted up a degree, with t^k replaced by the modulus.
    """
    field = elem.spec
    p, k = field.p, field.k
    out = np.empty((k, k), dtype=np.int64)
    col = list(elem.coeffs)
    for j in range(k):
        out[:, j] = col
        top = col[-1]
        col = [(a - top * c) % p for a, c in zip([0] + col[:-1], field.modulus)]
    return out


def restrict_scalars(idx: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Blow an index matrix over GF(p^k) up to a (km) x (kn) matrix over GF(p).

    Block (i, j) is mul_matrix of entry (i, j); one is built per distinct entry.
    On a field of at most 65536 elements the distinct entries are marked in
    a boolean array of the field's size and renumbered through a lookup
    table of the index dtype: one array shaped and typed like `idx`, where
    np.unique, kept for larger fields, sorts m*n entries and returns an
    int64 inverse of m*n more.
    """
    m, n = idx.shape
    k = field.k
    if field.order <= 65536:
        present = np.zeros(field.order, dtype=bool)
        present[idx] = True
        values = np.flatnonzero(present)
        lookup = np.zeros(field.order, dtype=idx.dtype)
        lookup[values] = np.arange(values.size)
        where = lookup[idx]
    else:
        values, where = np.unique(idx, return_inverse=True)
        where = where.reshape(m, n)
    table = np.array(
        [mul_matrix(field.from_index(int(v))) for v in values], dtype=_index_dtype(field.p)
    ).reshape(-1, k, k)
    blocks = table[where]  # (m, n, k, k)
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
    Degree i belongs to row i: the list is not sorted.

    The residual is stored row-major, (m, order, n).  At order s the m x n
    constant is eliminated on Python ints (rows by increasing degree, ties
    by index, each against the earlier pivots), and each elimination is
    applied to that row's tail only, res[i, s:] -= fac * res[r, s:],
    reduced mod p at once (over GF(2), where fac = 1, res[i, s:] ^= res[r, s:]).
    A pivot row is therefore reduced before it serves, every operand is
    below p, and the int64 arithmetic is exact while p^2 + p < 2^63.
    """
    res = np.array(np.asarray(series).transpose(1, 0, 2), dtype=np.int64, order="C")
    res %= p  # in place: the series and this one copy are the peak
    m, order, _ = res.shape
    deg = list(shifts)
    for s in range(order):
        const = res[:, s].tolist()
        if not any(map(any, const)):
            continue
        pivots: list[tuple[int, int, int]] = []  # (row, column, inverse of the pivot)
        for i in sorted(range(m), key=deg.__getitem__):
            row = const[i]
            for r, c, inv in pivots:
                fac = row[c] * inv % p
                if fac:
                    row = [(a - fac * b) % p for a, b in zip(row, const[r])]
                    tail = res[i, s:]
                    if p == 2:  # fac = 1, and 0/1 entries subtract by xor
                        tail ^= res[r, s:]
                    else:
                        tail -= fac * res[r, s:]
                        tail %= p
            const[i] = row
            lead = next(filter(None, row), 0)
            if lead:  # the first nonzero entry is the first one equal to it
                pivots.append((i, row.index(lead), pow(lead, p - 2, p)))
        rows = [i for i, _, _ in pivots]  # multiply by x, truncated at the order
        res[rows, s + 1:] = res[rows, s:-1]
        res[rows, s] = 0
        for i in rows:
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
