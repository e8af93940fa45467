import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcurves import engine
from hkcurves.engine import (
    DENSE_CELL_LIMIT,
    EngineError,
    HKSample,
    ResourceLimitError,
    SampleCache,
    block_rank,
    colength,
    colength_naive,
    graded_block,
    hk_sequence,
    oracle_cutoff,
    samples_to_csv,
    samples_to_json,
    smooth_check,
    syzygy_degrees,
    truncated_basis,
    truncated_count,
)
from hkcurves.gf import FieldSpec
from hkcurves.poly import PlaneCurve, parse_poly

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(2, 2), FieldSpec(5), FieldSpec(2, 3)]

# no shear over GF(2) makes it monic in z: it passes through every GF(2)-point
ALL_POINTS_CUBIC = "x^2*y + x*y^2 + x^2*z + x*z^2 + y^2*z + y*z^2"
MONSKY2_T = "[1,0]*x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z"  # monsky2, alpha = t in GF(4)
MONSKY3_T = "z^4 - x*y*(x+y)*(x+[1,0]*y)"  # monsky3, lambda = t in GF(9)


def monomials_of_degree(d):
    return [(a, b, d - a - b) for a in range(d + 1) for b in range(d - a + 1)]


def colength_by_blocks(f, q, method):
    """HK(q) with every block ranked by `method`, up to colength's first zero piece."""
    total = 0
    for j in range(3 * (q - 1) + 1):
        piece = truncated_count(j, q) - block_rank(f, j - f.d, q, method)
        if piece == 0:
            break
        total += piece
    return total


@st.composite
def random_forms(draw, max_degree=5):
    spec = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, max_degree))
    mons = monomials_of_degree(d)
    chosen = draw(st.lists(st.sampled_from(mons), min_size=1,
                           max_size=min(7, len(mons)), unique=True))
    terms = {m: spec.from_index(draw(st.integers(1, spec.order - 1))) for m in chosen}
    from hkcurves.poly import HomogeneousPoly
    return HomogeneousPoly(spec, terms)


class TestTruncatedBasis:
    def test_degree_zero(self):
        assert truncated_basis(0, 7) == [(0, 0, 0)]

    def test_examples(self):
        assert set(truncated_basis(2, 2)) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
        assert truncated_basis(3, 2) == [(1, 1, 1)]

    def test_sorted_ascending(self):
        for n, q in [(5, 3), (9, 4), (0, 2)]:
            basis = truncated_basis(n, q)
            assert basis == sorted(basis)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 30), st.integers(1, 9))
    def test_count_formula(self, n, q):
        assert truncated_count(n, q) == len(truncated_basis(n, q))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8))
    def test_partition_of_the_cube(self, q):
        assert sum(truncated_count(n, q) for n in range(3 * (q - 1) + 1)) == q**3


class TestColengthClosedForms:
    def test_linear_form_gives_q_squared(self, gf5, gf2):
        assert colength(parse_poly("x", gf5), 1).colength == 1
        assert colength(parse_poly("x", gf5), 5).colength == 25
        assert colength(parse_poly("x", gf2), 4).colength == 16

    def test_xy_at_q2(self, gf2):
        assert colength(parse_poly("x*y", gf2), 2).colength == 6

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("q", [3, 9, 27])
    def test_monomial_power(self, gf3, d, q):
        if q >= d:
            assert colength(parse_poly(f"x^{d}", gf3), q).colength == d * q * q

    def test_rejects_non_power_of_char(self, gf5):
        with pytest.raises(EngineError):
            colength(parse_poly("x", gf5), 10)
        with pytest.raises(EngineError):
            colength(parse_poly("x", gf5), 4)


class TestOracleEquivalence:
    """colength must equal the grading-free oracle wherever the oracle runs."""

    def test_monsky_quartic(self, monsky2_g1):
        for q in (1, 2, 4, 8):
            assert colength(monsky2_g1, q).colength == colength_naive(monsky2_g1, q).colength

    def test_char3_quartic(self, monsky3_f2):
        for q in (1, 3, 9):
            assert colength(monsky3_f2, q).colength == colength_naive(monsky3_f2, q).colength

    def test_nodal_cubic(self, nodal_cubic):
        assert colength(nodal_cubic, 5).colength == colength_naive(nodal_cubic, 5).colength

    @settings(max_examples=25, deadline=None)
    @given(random_forms())
    def test_random_forms(self, f):
        # the per-characteristic cutoffs (8, 9, 5) are themselves powers of p,
        # so the largest admissible oracle size is always a valid q
        cutoff = {2: 8, 3: 9}.get(f.spec.p, 5)
        want = colength_naive(f, cutoff).colength
        assert colength(f, cutoff).colength == want
        # and once more with every sample on the syzygy route
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(engine, "DENSE_CELL_LIMIT", 0)
            assert colength(f, cutoff).colength == want

    @pytest.mark.parametrize("text", [
        "x^5 + y^5 + z^5 + [1,0]*x^2*y^2*z",
        "x^4*y + y^4*z + z^4*x + [0,1]*x^3*z^2",
        "z^6 + x*y*(x^4 + [1,1]*y^4) + x^3*y^2*z",
    ])
    def test_formula_at_q1_and_below_the_degree(self, gf4, text):
        # over GF(4) every sample takes the syzygy route; q = 1 and d > q
        # are the edge cases of the formula
        f = parse_poly(text, gf4)
        for q in (1, 2, 4, 8):
            assert colength(f, q).colength == colength_naive(f, q).colength

    def test_oracle_cutoff_guard(self, monsky2_g1):
        with pytest.raises(ResourceLimitError):
            colength_naive(monsky2_g1, 16)


class TestStructuralInvariants:
    def test_variable_permutation_invariance(self, gf5):
        f = parse_poly("y^2*z - x^3 - x^2*z", gf5)
        g = parse_poly("z^2*x - y^3 - y^2*x", gf5)  # cyclic (x,y,z) -> (y,z,x)
        for q in (5, 25):
            assert colength(f, q).colength == colength(g, q).colength

    def test_base_field_extension_invariance(self, gf2, gf4):
        text = "x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z"
        f2 = parse_poly(text, gf2)
        f4 = parse_poly(text, gf4)
        for q in (2, 4, 8):
            assert colength(f2, q).colength == colength(f4, q).colength

    def test_colength_bounds(self, monsky2_g1):
        for q in (2, 4, 8, 16):
            c = colength(monsky2_g1, q).colength
            assert 0 <= c <= q**3

    def test_sanity_envelope(self, monsky2_g1, monsky3_f2, nodal_cubic):
        # HK(q) never falls below the 3d/4 floor by more than O(q)
        for f, qs in ((monsky2_g1, (2, 4, 8, 16)), (monsky3_f2, (3, 9, 27)),
                      (nodal_cubic, (5, 25))):
            d = f.d
            for q in qs:
                c = colength(f, q).colength
                assert 4 * c >= 3 * d * q * q - 12 * d * q

    def test_monsky_sequences_pinned(self, monsky2_g1, monsky3_f2):
        # regression pins, originally cross-checked against the naive oracle
        seq = hk_sequence(monsky2_g1, 4)
        assert [s.colength for s in seq] == [1, 8, 44, 196, 784]
        seq = hk_sequence(monsky3_f2, 3)
        assert [s.colength for s in seq] == [1, 27, 252, 2268]

    def test_formula_agrees_with_dense_blocks(self, monsky2_g1, nodal_cubic, monsky3_f2,
                                              gf2, gf4, gf9, monkeypatch):
        cases = [
            (monsky2_g1, 8),
            (nodal_cubic, 5),
            (monsky3_f2, 9),
            # GF(4) monsky2 member (alpha = t) and GF(9) monsky3 member (lambda = t)
            (parse_poly("[1,0]*x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z", gf4), 8),
            (parse_poly("z^4 - x*y*(x+y)*(x+[1,0]*y)", gf9), 9),
            # no pure power of a variable: needs the shear
            (parse_poly("x*y*z + x^2*y + y^2*z", gf2), 8),
            # vanishes on all of P^2(GF(2)): needs the shear over GF(4)
            (parse_poly(ALL_POINTS_CUBIC, gf2), 8),
        ]
        monkeypatch.setattr(engine, "DENSE_CELL_LIMIT", 0)  # every sample on the formula
        for f, q_max in cases:
            q = 1
            while q <= q_max:
                want = colength_naive(f, q).colength
                assert colength(f, q).colength == colength_by_blocks(f, q, "dense") == want
                q *= f.spec.p

    def test_form_through_every_rational_point(self, gf2, monkeypatch):
        f = parse_poly(ALL_POINTS_CUBIC, gf2)
        monkeypatch.setattr(engine, "DENSE_CELL_LIMIT", 0)  # every sample on the formula
        for q, want in ((1, 1), (2, 8), (4, 40), (8, 176)):
            assert colength(f, q).colength == want
            assert colength_by_blocks(f, q, "dense") == want
            assert colength_naive(f, q).colength == want

    def test_block_rank_is_dense_only(self, monsky2_g1):
        with pytest.raises(ValueError):
            block_rank(monsky2_g1, 3, 4, "staircase")

    def test_large_extension_field(self, gf2):
        # k = 11: a field of order 2048
        big = FieldSpec(2, 11)
        f = parse_poly("z^2 + x*y", big)
        assert colength(f, 32).colength == colength(parse_poly("z^2 + x*y", gf2), 32).colength == 1536

    @pytest.mark.parametrize("q", [2, 4, 8, 16, 32])
    def test_colength_from_syzygy_degrees(self, monsky2_g1, gf4, q):
        for f in (monsky2_g1, parse_poly("[1,0]*x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z", gf4)):
            b = syzygy_degrees(f, q)
            d = f.d
            assert len(b) == 2 * d
            closed = sum(j * j for j in range(d)) - 3 * sum((q + j) ** 2 for j in range(d))
            assert colength(f, q).colength == (closed + sum(x * x for x in b)) // 2

    def test_constant_form_has_no_syzygy_degrees(self, gf2):
        with pytest.raises(EngineError):
            syzygy_degrees(parse_poly("1", gf2), 4)

    def test_extension_fields_skip_dense_elimination(self, gf4, gf9):
        # over GF(p^k), k >= 2, every block comes from the syzygy degrees
        cases = [
            (parse_poly(MONSKY2_T, gf4), 32),
            (parse_poly(MONSKY3_T, gf9), 27),
            # no pure power of a variable: needs the shear
            (parse_poly("x*y*z + x^2*y + [1,0]*y^2*z", gf4), 32),
        ]
        for f, q_max in cases:
            q = f.spec.p
            while q <= q_max:
                got = colength(f, q).colength
                assert got == colength_by_blocks(f, q, "dense")
                if q <= oracle_cutoff(f.spec.p):
                    assert got == colength_naive(f, q).colength
                q *= f.spec.p

    def test_deep_pins(self, monsky2_g1, monsky3_f2):
        assert colength(monsky2_g1, 256).colength == 200704
        assert colength(monsky3_f2, 243).colength == 183708

    def test_graded_block_shape_and_entries(self, monsky2_g1):
        blk = graded_block(monsky2_g1, 3, 4)
        dom, cod = truncated_basis(3, 4), truncated_basis(3 + monsky2_g1.d, 4)
        assert blk.shape == (len(cod), len(dom))
        # entry (mu, m) is the coefficient of mu/m in f
        m = dom[0]
        for i, mu in enumerate(cod):
            t = (mu[0] - m[0], mu[1] - m[1], mu[2] - m[2])
            want = monsky2_g1.terms.get(t)
            got = monsky2_g1.spec.from_index(int(blk[i, 0]))
            if want is None:
                assert not got
            else:
                assert got == want


def block_cells(n, d, q):
    """Cells of the degree-n block of a degree-d form."""
    return truncated_count(n, q) * truncated_count(n + d, q)


def prime_powers(limit):
    primes = [p for p in range(2, limit + 1) if all(p % r for r in range(2, p))]
    return sorted(p ** e for p in primes for e in range(1, limit.bit_length()) if p ** e <= limit)


class TestPerSampleRouting:
    """A prime-field sample is ranked densely or from its syzygy degrees as a whole."""

    def test_large_samples_build_no_graded_block(self, monsky3_f2, monsky2_g1, monkeypatch):
        cases = [(monsky3_f2, 27, 2268), (monsky2_g1, 32, 3136)]
        for f, q, _ in cases:
            # the blocks colength ranks fall on both sides of the limit
            cells = [block_cells(n, f.d, q) for n in range(q - f.d, 3 * (q - 1) - f.d + 1)]
            assert min(c for c in cells if c) <= DENSE_CELL_LIMIT < max(cells)

        def refuse(*args):
            raise AssertionError("dense block built for a sample with a large block")

        monkeypatch.setattr(engine, "graded_block", refuse)
        for f, q, want in cases:
            assert colength(f, q).colength == want

    def test_small_sample_stays_dense(self, nodal_cubic, monkeypatch):
        q = 25
        mid = (3 * (q - 1) - nodal_cubic.d) // 2
        assert block_cells(mid, nodal_cubic.d, q) == 217_620 <= DENSE_CELL_LIMIT

        def refuse(*args):
            raise AssertionError("syzygy degrees computed for a sample with small blocks")

        with monkeypatch.context() as patched:
            patched.setattr(engine, "syzygy_degrees", refuse)
            dense = [colength(nodal_cubic, qq).colength for qq in (1, 5, q)]
        assert dense == [1, colength_naive(nodal_cubic, 5).colength, 1449]
        monkeypatch.setattr(engine, "DENSE_CELL_LIMIT", 0)
        assert [colength(nodal_cubic, qq).colength for qq in (1, 5, q)] == dense

    def test_middle_block_is_the_largest(self):
        for q in prime_powers(256):
            for d in range(1, 12):
                j_max = 3 * (q - 1)
                largest = max((block_cells(n, d, q) for n in range(j_max - d + 1)), default=0)
                mid = (j_max - d) // 2
                assert block_cells(mid, d, q) == largest, (q, d)


class TestHKSequence:
    def test_linear_form_over_gf2(self, gf2):
        seq = hk_sequence(parse_poly("x", gf2), 3)
        assert [s.colength for s in seq] == [1, 4, 16, 64]
        assert [s.q for s in seq] == [1, 2, 4, 8]

    def test_single_sample(self, gf2):
        seq = hk_sequence(parse_poly("x", gf2), 0)
        assert len(seq) == 1 and seq[0] == HKSample(0, 1, 1)

    def test_nodal_cubic_ratio_approaches_seven_thirds(self, nodal_cubic):
        seq = hk_sequence(PlaneCurve(nodal_cubic), 2)
        assert [s.colength for s in seq] == [1, 55, 1449]
        ratios = [s.colength / s.q**2 for s in seq[1:]]
        assert abs(ratios[-1] - 7 / 3) < abs(ratios[0] - 7 / 3)

    def test_max_q_guard_preserves_partial(self, nodal_cubic):
        with pytest.raises(ResourceLimitError) as exc:
            hk_sequence(nodal_cubic, 3, max_q=25)
        assert [s.q for s in exc.value.partial] == [1, 5, 25]

    def test_extension_field_needs_no_graded_block(self, gf4, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense block built over GF(4)")

        monkeypatch.setattr(engine, "graded_block", refuse)
        seq = hk_sequence(parse_poly("x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z", gf4), 4)
        assert [s.colength for s in seq] == [1, 8, 44, 196, 784]
        seq = hk_sequence(parse_poly(MONSKY2_T, gf4), 5)
        assert [s.colength for s in seq] == [1, 8, 44, 188, 764, 3076]


class TestSmoothCheck:
    def test_monsky_quartics_are_smooth(self, monsky2_g1, monsky3_f2):
        assert smooth_check(PlaneCurve(monsky2_g1)) is True
        assert smooth_check(PlaneCurve(monsky3_f2)) is True

    def test_nodal_cubic_is_singular(self, nodal_cubic):
        assert smooth_check(PlaneCurve(nodal_cubic)) is False

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_nonreduced_power_is_singular(self, gf5, d):
        assert smooth_check(PlaneCurve(parse_poly(f"x^{d}", gf5))) is False

    def test_fermat_like(self, gf5):
        # x^4+y^4+z^4 is smooth away from characteristic 2
        assert smooth_check(PlaneCurve(parse_poly("x^4 + y^4 + z^4", gf5))) is True

    def test_smooth_conic(self, gf5):
        assert smooth_check(PlaneCurve(parse_poly("x*z - y^2", gf5))) is True

    @pytest.mark.parametrize("p", [2147483647, 4294967311])
    def test_nodal_cubic_over_large_prime(self, p):
        # the nodal cubic with its node moved to [1:2:1]
        f = parse_poly("(y-2*z)^2*z - (x-z)^3 - (x-z)^2*z", FieldSpec(p))
        assert smooth_check(PlaneCurve(f)) is False


class TestEmissionAndCache:
    def test_csv_shape(self):
        samples = [HKSample(0, 1, 1), HKSample(1, 2, 6)]
        assert samples_to_csv(samples) == "n,q,colength\n0,1,1\n1,2,6\n"

    def test_json_round_trip(self):
        samples = [HKSample(1, 3, 20)]
        data = json.loads(samples_to_json(samples))
        assert data == [{"n": 1, "q": 3, "colength": 20}]

    def test_cache_extend_equals_fresh(self, tmp_path, nodal_cubic):
        path = tmp_path / "cache.jsonl"
        cache = SampleCache(str(path))
        first = hk_sequence(nodal_cubic, 1, cache=cache)
        cache2 = SampleCache(str(path))
        extended = hk_sequence(nodal_cubic, 2, cache=cache2)
        fresh = hk_sequence(nodal_cubic, 2)
        assert extended == fresh
        assert extended[: len(first)] == first
        # the cache file is line-oriented JSON
        lines = path.read_text().strip().splitlines()
        assert all(json.loads(line)["poly"] for line in lines)

    def test_cache_distinguishes_fields(self, tmp_path, gf2, gf4):
        path = tmp_path / "cache.jsonl"
        cache = SampleCache(str(path))
        f2 = parse_poly("x*y", gf2)
        hk_sequence(f2, 1, cache=cache)
        f4 = parse_poly("x*y", gf4)
        assert cache.get(f4, 2) is None
