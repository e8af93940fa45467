import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcurves.gf import FieldSpec
from hkcurves.linalg import (
    _elim_dtype,
    mul_matrix,
    order_basis_degrees,
    rank,
    rank_generic,
    rank_gf2,
    rank_modp,
    restrict_scalars,
)


def random_matrix(field: FieldSpec, nrows: int, ncols: int, rng) -> np.ndarray:
    return rng.integers(0, field.order, size=(nrows, ncols))


def matmul(a: np.ndarray, b: np.ndarray, field: FieldSpec) -> np.ndarray:
    """Exact product of index arrays by FieldElement arithmetic, for the rank property tests."""
    if a.shape[1] != b.shape[0]:
        raise ValueError("shape mismatch")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = field.zero()
            for t in range(a.shape[1]):
                acc = acc + field.from_index(int(a[i, t])) * field.from_index(int(b[t, j]))
            out[i, j] = acc.index()
    return out


FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(7),
          FieldSpec(2, 2), FieldSpec(3, 2)]


@st.composite
def small_matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(0, 10))
    n = draw(st.integers(0, 10))
    data = draw(st.lists(st.integers(0, field.order - 1), min_size=m * n, max_size=m * n))
    return np.array(data, dtype=np.int64).reshape(m, n), field


class TestRankBasics:
    def test_empty_shapes(self, gf5):
        assert rank(np.zeros((0, 4), dtype=np.int64), gf5) == 0
        assert rank(np.zeros((4, 0), dtype=np.int64), gf5) == 0

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_identity(self, field):
        n = 7
        m = np.eye(n, dtype=np.int64)  # index 1 is the element 1
        assert rank(m, field) == n

    def test_random_gf2_cross_paths(self, gf2):
        rng = np.random.default_rng(1234)
        m = random_matrix(gf2, 50, 70, rng)
        assert rank(m, gf2) == rank_generic(m, gf2)

    def test_rank_one_outer_product(self, gf3):
        rng = np.random.default_rng(5)
        u = rng.integers(1, 3, size=8)
        v = rng.integers(1, 3, size=9)
        m = (np.outer(u, v) % 3).astype(np.int64)
        assert rank(m, gf3) == 1


class TestDifferential:
    """The packed kernels must agree with pure-Python elimination everywhere."""

    @settings(max_examples=120, deadline=None)
    @given(small_matrices())
    def test_fast_equals_generic(self, m):
        idx, field = m
        assert rank(idx, field) == rank_generic(idx, field)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_rank_of_transpose(self, m):
        idx, field = m
        assert rank(idx, field) == rank(idx.T.copy(), field)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(FIELDS), st.integers(1, 5), st.integers(1, 5),
           st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_rank_product_bound(self, field, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(field, m, k, rng)
        b = random_matrix(field, k, n, rng)
        assert rank(matmul(a, b, field), field) <= min(rank(a, field), rank(b, field))


class TestKernels:
    def test_gf2_bitpacked_matches_modp(self):
        rng = np.random.default_rng(99)
        mat = rng.integers(0, 2, size=(40, 60))
        assert rank_gf2(mat != 0) == rank_modp(mat, 2)

    def test_modp_handles_wide_and_tall(self):
        rng = np.random.default_rng(7)
        mat = rng.integers(0, 5, size=(30, 7))
        assert rank_modp(mat, 5) == rank_modp(mat.T, 5)

    def test_restriction_of_scalars_rank_scaling(self, gf4, gf9):
        rng = np.random.default_rng(11)
        for field in (gf4, gf9):
            m = random_matrix(field, 6, 8, rng)
            blown = restrict_scalars(m, field)
            r_prime = rank_modp(blown, field.p) if field.p != 2 else rank_gf2(blown != 0)
            assert r_prime == field.k * rank(m, field)

    @pytest.mark.parametrize("field", [FieldSpec(503, 2), FieldSpec(2, 12)],
                             ids=["503^2", "2^12"])
    def test_restrict_scalars_matches_mul_matrix_blocks(self, field):
        rng = np.random.default_rng(5)
        k = field.k
        idx = rng.integers(0, field.order, size=(5, 7))
        idx[1] = idx[0]  # repeated entries share one table slot
        blown = restrict_scalars(idx, field)
        assert blown.shape == (5 * k, 7 * k)
        for i in range(5):
            for j in range(7):
                block = blown[i * k:(i + 1) * k, j * k:(j + 1) * k]
                assert np.array_equal(block, mul_matrix(field.from_index(int(idx[i, j]))))

    @pytest.mark.parametrize("field", [FieldSpec(2, 2), FieldSpec(3, 2), FieldSpec(2, 16)], ids=str)
    def test_restrict_scalars_keeps_narrow_indices(self, field):
        # the engine's index arrays are uint8/uint16; the renumbering keeps that dtype
        rng = np.random.default_rng(8)
        idx = rng.integers(0, field.order, size=(9, 4))
        idx[:, 0] = 0
        narrow = idx.astype(np.uint8 if field.order <= 256 else np.uint16)
        assert np.array_equal(restrict_scalars(narrow, field), restrict_scalars(idx, field))

    @pytest.mark.parametrize("field", [FieldSpec(2, 3), FieldSpec(3, 2)], ids=str)
    def test_mul_matrix_multiplies(self, field):
        p = field.p
        for a in field.elements():
            mat = mul_matrix(a)
            for b in field.elements():
                got = mat @ np.array(b.coeffs, dtype=np.int64) % p
                assert got.tolist() == list((a * b).coeffs)

    def test_entry_growth_stays_exact_for_larger_p(self):
        # p large enough that lazy reduction would overflow a narrow dtype
        p = 251
        rng = np.random.default_rng(3)
        mat = rng.integers(0, p, size=(60, 60))
        field = FieldSpec(p)
        m = mat.astype(np.int64)
        assert rank(m, field) == rank_generic(m, field)

    def test_extension_field_with_p_above_256(self):
        # multiplication matrices over GF(257^2) have entries up to p - 1 = 256
        field = FieldSpec(257, 2)
        top = field.order - 1  # p - 1 in both coordinates
        rows = [[top, 256, top - 256], [257 + 256, top, 256]]
        for third in ([top, top, top], [0, 0, 0]):
            m = np.zeros((3, 3), dtype=np.int64)
            m[:2] = rows
            for j in range(3):  # a third row: the sum of the first two, plus `third`
                e = field.from_index(int(m[0, j])) + field.from_index(int(m[1, j]))
                m[2, j] = (e + field.from_index(third[j])).index()
            assert rank(m, field) == rank_generic(m, field)

    @pytest.mark.parametrize("p", [2147483647, 4294967311])
    def test_entry_growth_past_int64(self, p):
        # (p-1) + (min(m,n)+1)(p-1)^2 exceeds 2^63: elimination needs exact integers
        field = FieldSpec(p)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            top = rng.integers(p - 1000, p, size=(4, 6))
            comb = rng.integers(p - 1000, p, size=(2, 4))
            low = [[sum(int(c) * int(t) for c, t in zip(row, col)) % p for col in top.T]
                   for row in comb]
            m = np.vstack([top, np.array(low, dtype=np.int64)])
            assert rank(m, field) == rank_generic(m, field) == 4


def reference_order_basis_degrees(series, shifts, p):
    """The order-basis kernel with an explicit m x m transform, on Python ints.

    Same elimination order as `order_basis_degrees`: rows by increasing
    degree, ties by index, each reduced against the earlier pivots; the
    transform is then applied to the whole residual at once.
    """
    res = [[[int(v) % p for v in row] for row in coeff] for coeff in series]  # [e][i][l]
    order, m, n = len(res), len(shifts), len(res[0][0])
    deg = list(shifts)
    for s in range(order):
        const = [list(row) for row in res[s]]
        if not any(map(any, const)):
            continue
        trans = [[int(i == j) for j in range(m)] for i in range(m)]
        pivots = []
        for i in sorted(range(m), key=deg.__getitem__):
            for r, c, inv in pivots:
                fac = const[i][c] * inv % p
                if fac:
                    const[i] = [(a - fac * b) % p for a, b in zip(const[i], const[r])]
                    trans[i] = [(a - fac * b) % p for a, b in zip(trans[i], trans[r])]
            c = next((c for c, a in enumerate(const[i]) if a), None)
            if c is not None:
                pivots.append((i, c, pow(const[i][c], p - 2, p)))
        for e in range(s, order):
            res[e] = [[sum(trans[i][j] * res[e][j][l] for j in range(m)) % p for l in range(n)]
                      for i in range(m)]
        for i, _, _ in pivots:
            for e in range(order - 1, s, -1):
                res[e][i] = list(res[e - 1][i])
            res[s][i] = [0] * n
            deg[i] += 1
    return deg


@st.composite
def order_basis_inputs(draw):
    """(series, shifts, p), some constant rows zero, repeated or scaled copies."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 2**31 - 1]))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2 * n + 1))
    order = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = rng.integers(0, p, size=(order, m, n))
    for i in range(m):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "scaled"]))
        j = draw(st.integers(0, max(i - 1, 0)))
        if kind == "zero":
            series[0, i] = 0
        elif kind == "repeat" and i:
            series[0, i] = series[0, j]
        elif kind == "scaled" and i:  # a multiple of a whole earlier row
            series[:, i] = series[:, j] * draw(st.integers(0, p - 1)) % p
    shifts = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    return series, shifts, p


class TestOrderBasis:
    @settings(max_examples=150, deadline=None)
    @given(order_basis_inputs())
    def test_matches_reference_per_row(self, case):
        series, shifts, p = case
        want = reference_order_basis_degrees(series, shifts, p)
        assert order_basis_degrees(series, shifts, p) == want

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    def test_degree_sum_is_the_order(self, p, n, order, seed):
        # rows of [G; -I] span everything mod x^0, so the reduced basis of
        # {(c, r) : c G = r mod x^order} has determinant degree n * order
        rng = np.random.default_rng(seed)
        series = np.zeros((order, 2 * n, n), dtype=np.int64)
        series[:, :n] = rng.integers(0, p, size=(order, n, n))
        series[0, n:] = (p - 1) * np.eye(n, dtype=np.int64)
        shifts = [int(s) for s in rng.integers(0, 4, size=2 * n)]
        degs = order_basis_degrees(series, shifts, p)
        assert all(dg >= s for dg, s in zip(degs, shifts))
        assert sum(degs) - sum(shifts) == n * order

    def test_scalar_example(self):
        # c * (1 + x) = r mod x^3 over GF(2), shifts 0: the reduced basis
        # (1, 1 + x), (1 + x + x^2, 1) has degrees 1 and 2
        series = np.zeros((3, 2, 1), dtype=np.int64)
        series[0, 0, 0] = series[1, 0, 0] = 1
        series[0, 1, 0] = 1
        assert sorted(order_basis_degrees(series, [0, 0], 2)) == [1, 2]


def sparse_matrix(p: int, nrows: int, ncols: int, density: float, rng) -> np.ndarray:
    """Entries nonzero with probability `density`, uniform in 1..p-1."""
    mask = rng.random((nrows, ncols)) < density
    return np.where(mask, rng.integers(1, p, size=(nrows, ncols)), 0)


class TestSparseRowUpdate:
    """rank_modp updates only the rows with a nonzero entry in the pivot column."""

    # p = 101 runs the int32 elimination dtype on every shape below
    @pytest.mark.parametrize("p", [3, 5, 7, 101])
    def test_random_sparse_matches_generic(self, p):
        rng = np.random.default_rng(p)
        field = FieldSpec(p)
        for density in (0.05, 0.15, 0.4):
            for _ in range(4):
                m, n = (int(v) for v in rng.integers(4, 25, size=2))
                assert (_elim_dtype(p, min(m, n)) is np.int32) == (p == 101)
                full = sparse_matrix(p, m, n, density, rng)
                inner = min(m, n) - 2  # a product through it has rank at most inner
                low = sparse_matrix(p, m, inner, 2 * density, rng) @ \
                    sparse_matrix(p, inner, n, 2 * density, rng) % p
                for mat in (full, low):
                    assert rank_modp(mat, p) == rank_generic(mat, field)
                assert rank_modp(low, p) <= inner

    @pytest.mark.parametrize("p", [3, 5, 7, 101])
    def test_columns_with_nonzeros_only_above_the_pivot_row(self, p):
        # [[U, X], [0, Y]], U unit upper triangular: after the k pivots of U,
        # each zero column of Y has its nonzeros only above the pivot row
        rng = np.random.default_rng(p)
        field = FieldSpec(p)
        k, m, n = 6, 9, 8
        upper = np.triu(sparse_matrix(p, k, k, 0.5, rng), 1) + np.eye(k, dtype=np.int64)
        x = rng.integers(1, p, size=(k, n))
        y = sparse_matrix(p, m, n, 0.5, rng)
        y[:, ::2] = 0
        y[-1] = (2 * y[0] + y[1]) % p  # rank-deficient
        mat = np.block([[upper, x], [np.zeros((m, k), dtype=np.int64), y]])
        want = k + rank_generic(y, field)
        assert rank_modp(mat, p) == rank_generic(mat, field) == want
