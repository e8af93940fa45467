import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcurves.gf import (
    FieldError,
    FieldSpec,
    d_lambda,
    default_modulus,
    embed,
    frobenius_orbit_degree,
    m_alpha,
    parse_field,
)

SMALL_FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(2, 2),
                FieldSpec(3, 2), FieldSpec(2, 3), FieldSpec(7)]


def elements_of(spec):
    return st.integers(0, spec.order - 1).map(spec.from_index)


field_and_elems = st.sampled_from(SMALL_FIELDS).flatmap(
    lambda s: st.tuples(st.just(s), elements_of(s), elements_of(s), elements_of(s))
)


class TestFieldSpec:
    def test_default_moduli_match_known_tables(self):
        assert default_modulus(2, 2) == (1, 1, 1)      # t^2 + t + 1
        assert default_modulus(2, 3) == (1, 1, 0, 1)   # t^3 + t + 1
        assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
        assert default_modulus(3, 2) == (1, 0, 1)      # t^2 + 1

    def test_rejects_nonprime_characteristic(self):
        with pytest.raises(FieldError):
            FieldSpec(6)

    def test_rejects_reducible_modulus(self):
        with pytest.raises(FieldError):
            FieldSpec(2, 2, [1, 0, 1])  # (t+1)^2
        with pytest.raises(FieldError):
            FieldSpec(3, 2, [1, 0, 2])  # t^2 + 2 = (t+1)(t+2)

    def test_rejects_nonmonic(self):
        with pytest.raises(FieldError):
            FieldSpec(3, 2, [2, 0, 1])

    def test_parse_round_trip(self):
        for text in ["GF(2)", "GF(7)", "GF(2^2; modulus=1,1,1)", "GF(3^2; modulus=1,0,1)"]:
            assert str(parse_field(text)) == text
        assert parse_field("GF(2^4)") == FieldSpec(2, 4)

    def test_parse_garbage(self):
        for bad in ["GF(x)", "F(2)", "GF(2^2; mod=1,1,1)", "GF(2;1)"]:
            with pytest.raises(FieldError):
                parse_field(bad)

    def test_element_serialization_msb_first(self):
        f4 = FieldSpec(2, 2)
        a = f4.element([1, 0])  # t
        assert a == f4.gen()
        assert str(a) == "1,0"
        assert f4.element(1) == f4.one()


class TestArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(field_and_elems)
    def test_field_axioms(self, fea):
        spec, a, b, c = fea
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == spec.one()

    @settings(max_examples=60, deadline=None)
    @given(field_and_elems)
    def test_frobenius_closes_at_k(self, fea):
        spec, a, _, _ = fea
        assert a ** (spec.p ** spec.k) == a

    @settings(max_examples=60, deadline=None)
    @given(field_and_elems)
    def test_index_round_trip(self, fea):
        spec, a, _, _ = fea
        assert spec.from_index(a.index()) == a

    def test_gf4_multiplication_table(self, gf4):
        t = gf4.gen()
        assert t * t == t + gf4.one()
        assert t ** 3 == gf4.one()


class TestFrobeniusOrbit:
    def test_prime_field_elements_are_fixed(self, gf3):
        assert frobenius_orbit_degree(gf3.element(2)) == 1

    def test_gf4_generator_has_degree_two(self, gf4):
        a = gf4.gen()
        assert a * a != a          # a^2 != a
        assert a ** 4 == a         # a^4 = a
        assert frobenius_orbit_degree(a) == 2

    def test_zero_is_fixed(self):
        assert frobenius_orbit_degree(FieldSpec(2, 4).zero()) == 1

    @settings(max_examples=80, deadline=None)
    @given(field_and_elems)
    def test_orbit_degree_divides_k(self, fea):
        spec, a, _, _ = fea
        assert spec.k % frobenius_orbit_degree(a) == 0


def artin_schreier_roots(alpha):
    """Every root of lambda^2 + lambda = alpha in GF(2^(2k)), by brute force."""
    big = FieldSpec(2, 2 * alpha.spec.k)
    target = embed(alpha, big)
    return [lam for lam in big.elements() if lam * lam + lam == target]


class TestArtinSchreier:
    """m(alpha) against the degree of a root of lambda^2 + lambda = alpha."""

    def test_alpha_one_needs_gf4(self, gf2):
        roots = artin_schreier_roots(gf2.element(1))
        assert [frobenius_orbit_degree(lam) for lam in roots] == [2, 2]
        assert m_alpha(gf2.element(1)) == 2

    def test_gf4_generator_lands_in_gf16(self, gf4):
        alpha = gf4.gen()
        assert alpha.trace() == 1
        roots = artin_schreier_roots(alpha)
        assert [frobenius_orbit_degree(lam) for lam in roots] == [4, 4]
        assert m_alpha(alpha) == 4

    def test_solution_identity(self):
        # GF(2^(2k)) holds both roots for every alpha in GF(2^k); they differ by 1
        for k in (1, 2, 3, 4):
            spec = FieldSpec(2, k)
            for idx in range(1, spec.order):
                alpha = spec.from_index(idx)
                roots = artin_schreier_roots(alpha)
                assert len(roots) == 2
                assert {frobenius_orbit_degree(lam) for lam in roots} == {m_alpha(alpha)}


class TestInvariants:
    def test_m_alpha_examples(self, gf2, gf4):
        assert m_alpha(gf2.element(1)) == 2
        assert m_alpha(gf4.gen()) == 4

    def test_m_alpha_rejects_zero(self, gf2):
        with pytest.raises(FieldError):
            m_alpha(gf2.element(0))

    def test_m_alpha_rejects_odd_char(self, gf3):
        with pytest.raises(FieldError):
            m_alpha(gf3.element(1))

    def test_m_alpha_constant_on_orbits(self):
        spec = FieldSpec(2, 3)
        for idx in range(1, spec.order):
            a = spec.from_index(idx)
            assert m_alpha(a * a) == m_alpha(a)

    def test_d_lambda_examples(self, gf3, gf9):
        assert d_lambda(gf3.element(2)) == 1
        assert d_lambda(gf9.gen()) == 2

    def test_d_lambda_rejects_zero_one(self, gf3):
        for v in (0, 1):
            with pytest.raises(FieldError):
                d_lambda(gf3.element(v))

    def test_d_lambda_rejects_other_char(self, gf5):
        with pytest.raises(FieldError):
            d_lambda(gf5.element(2))

    def test_d_lambda_constant_on_orbits(self, gf9):
        for idx in range(gf9.order):
            lam = gf9.from_index(idx)
            if lam == gf9.zero() or lam == gf9.one():
                continue
            assert d_lambda(lam ** 3) == d_lambda(lam)


class TestEmbedding:
    def test_prime_subfield_embedding(self, gf2, gf4):
        assert embed(gf2.element(1), gf4) == gf4.one()

    def test_embedding_is_ring_hom(self, gf4):
        big = FieldSpec(2, 4)
        for i in range(4):
            for j in range(4):
                a, b = gf4.from_index(i), gf4.from_index(j)
                assert embed(a * b, big) == embed(a, big) * embed(b, big)
                assert embed(a + b, big) == embed(a, big) + embed(b, big)

    @pytest.mark.parametrize("src, dst", [
        (FieldSpec(3, 2), FieldSpec(3, 4)),
        (FieldSpec(5, 2), FieldSpec(5, 4)),
        (FieldSpec(7, 2), FieldSpec(7, 4)),
        (FieldSpec(3, 2), FieldSpec(3, 2, modulus=[1, 1, 2])),
    ], ids=["3^2-3^4", "5^2-5^4", "7^2-7^4", "3^2-3^2"])
    def test_odd_characteristic_embedding_is_ring_hom(self, src, dst):
        image = [embed(src.from_index(i), dst) for i in range(src.order)]
        assert len(set(image)) == src.order
        assert image[src.one().index()] == dst.one()
        for i in range(src.order):
            for j in range(src.order):
                a, b = src.from_index(i), src.from_index(j)
                assert image[(a * b).index()] == image[i] * image[j]
                assert image[(a + b).index()] == image[i] + image[j]

    def test_no_embedding_when_degrees_incompatible(self, gf4):
        with pytest.raises(FieldError):
            embed(gf4.gen(), FieldSpec(2, 3))

    def test_large_target_uses_splitting(self):
        src = FieldSpec(2, 8)
        dst = FieldSpec(2, 16)  # order 65536: the root is found by equal-degree splitting
        img = embed(src.gen(), dst)
        assert frobenius_orbit_degree(img) == 8
