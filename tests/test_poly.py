import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcurves.gf import FieldSpec
from hkcurves.poly import (
    MAX_PARSE_DEGREE,
    HomogeneousPoly,
    InhomogeneousError,
    ParseError,
    PlaneCurve,
    Poly,
    PolyError,
    ZeroPolynomialError,
    multiplicity_at,
    parse_poly,
    partial,
    to_origin,
)

FIELDS = [FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(2, 2), FieldSpec(3, 2)]


def monomials_of_degree(d):
    return [(a, b, d - a - b) for a in range(d + 1) for b in range(d - a + 1)]


@st.composite
def homogeneous_polys_over(draw, spec, degree=None, max_degree=5):
    d = degree if degree is not None else draw(st.integers(1, max_degree))
    mons = monomials_of_degree(d)
    chosen = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=min(6, len(mons)),
                           unique=True))
    terms = {}
    for m in chosen:
        idx = draw(st.integers(1, spec.order - 1))
        terms[m] = spec.from_index(idx)
    return HomogeneousPoly(spec, terms)


@st.composite
def homogeneous_polys(draw, max_degree=5):
    spec = draw(st.sampled_from(FIELDS))
    return draw(homogeneous_polys_over(spec, max_degree=max_degree))


@st.composite
def poly_pairs(draw, same_degree=False, max_degree=3):
    spec = draw(st.sampled_from(FIELDS))
    d = draw(st.integers(1, max_degree))
    f = draw(homogeneous_polys_over(spec, degree=d))
    g = draw(homogeneous_polys_over(spec, degree=d if same_degree else None,
                                    max_degree=max_degree))
    return f, g


def d_any(f: Poly, v: str) -> Poly:
    out = partial(f, v)
    return Poly(f.spec, out.terms) if out is not None else Poly.zero(f.spec)


class TestParse:
    def test_monsky_quartic_five_terms(self, gf2, monsky2_g1):
        assert monsky2_g1.d == 4
        assert len(monsky2_g1.terms) == 5
        expected = {(2, 2, 0), (0, 0, 4), (1, 1, 2), (3, 0, 1), (0, 3, 1)}
        assert set(monsky2_g1.terms) == expected

    def test_simple_linear(self, gf5):
        f = parse_poly("x + y", gf5)
        assert f.d == 1 and len(f.terms) == 2

    def test_inhomogeneous_reports_degrees(self, gf5):
        with pytest.raises(InhomogeneousError) as exc:
            parse_poly("x^2 + y^3", gf5)
        assert exc.value.degrees == (2, 3)

    def test_zero_polynomial(self, gf5):
        with pytest.raises(ZeroPolynomialError):
            parse_poly("x - x", gf5)

    def test_char_cancellation_to_zero(self, gf2):
        with pytest.raises(ZeroPolynomialError):
            parse_poly("x + x", gf2)

    def test_syntax_errors(self, gf5):
        for bad in ["x +", "(x + y", "x ^ y", "w^2", "x 2"]:
            with pytest.raises(ParseError):
                parse_poly(bad, gf5)

    def test_coefficient_reduction(self, gf3):
        f = parse_poly("4*x^2 - y^2", gf3)
        assert f.coefficient((2, 0, 0)) == gf3.element(1)
        assert f.coefficient((0, 2, 0)) == gf3.element(2)

    def test_bracket_coefficients(self, gf4):
        f = parse_poly("[1,0]*x^2 + [1,1]*y*z", gf4)
        assert f.coefficient((2, 0, 0)) == gf4.gen()

    def test_degree_bound_is_checked_before_expanding(self, gf5):
        assert parse_poly("x^32*y^32", gf5).d == MAX_PARSE_DEGREE == 64
        assert parse_poly("(x^8)^8", gf5).d == 64
        for bad in ["x^32*y^33", "(x^8)^9", "(x+y+z)^3000", "x*(x+y+z)^64"]:
            with pytest.raises(ParseError, match="exceeds the bound 64"):
                parse_poly(bad, gf5)

    def test_double_star_power(self, gf5):
        assert parse_poly("x**2 + y*z", gf5) == parse_poly("x^2 + y*z", gf5)

    @settings(max_examples=100, deadline=None)
    @given(homogeneous_polys())
    def test_parse_print_round_trip(self, f):
        back = parse_poly(str(f), f.spec)
        assert back == f
        assert str(back) == str(f)


class TestPartial:
    def test_char2_square_dies(self, gf2):
        assert partial(parse_poly("x^2*y^2", gf2), "x") is None

    def test_partial_of_monsky_quartic(self, gf2, monsky2_g1):
        assert partial(monsky2_g1, "x") == parse_poly("y*z^2 + x^2*z", gf2)
        assert partial(monsky2_g1, "y") == parse_poly("x*z^2 + y^2*z", gf2)
        assert partial(monsky2_g1, "z") == parse_poly("x^3 + y^3", gf2)

    def test_exponent_mod_p(self, gf3):
        assert partial(parse_poly("z^4", gf3), "z") == parse_poly("z^3", gf3)

    @settings(max_examples=100, deadline=None)
    @given(homogeneous_polys())
    def test_euler_relation(self, f):
        spec = f.spec
        acc = Poly.zero(spec)
        for v in ("x", "y", "z"):
            pf = partial(f, v)
            if pf is not None:
                acc = acc + Poly.variable(spec, v) * pf
        assert acc == Poly.constant(spec, f.d % spec.p) * f

    @settings(max_examples=80, deadline=None)
    @given(poly_pairs())
    def test_leibniz_rule(self, pair):
        f, g = pair
        for v in ("x", "y", "z"):
            assert d_any(f * g, v) == d_any(f, v) * g + f * d_any(g, v)

    @settings(max_examples=80, deadline=None)
    @given(poly_pairs(same_degree=True))
    def test_linearity(self, pair):
        f, g = pair
        for v in ("x", "y", "z"):
            assert d_any(f + g, v) == d_any(f, v) + d_any(g, v)


class TestMultiplicity:
    def test_nodal_cubic_origin(self, nodal_cubic):
        assert multiplicity_at(nodal_cubic, (0, 0, 1)) == 2

    def test_triple_point(self, triple_point_quartic):
        assert multiplicity_at(triple_point_quartic, (0, 0, 1)) == 3

    def test_smooth_point_of_line(self, gf5):
        assert multiplicity_at(parse_poly("x", gf5), (0, 1, 0)) == 1

    def test_point_off_curve(self, nodal_cubic):
        assert multiplicity_at(nodal_cubic, (1, 1, 1)) == 0

    def test_translated_singularity(self, gf5):
        # node moved to [1:1:1]
        f = parse_poly("(y - z)^2*z - (x - z)^3 - (x - z)^2*z", gf5)
        assert multiplicity_at(f, (1, 1, 1)) == 2

    def test_rejects_origin(self, nodal_cubic):
        with pytest.raises(PolyError):
            multiplicity_at(nodal_cubic, (0, 0, 0))


class TestToOrigin:
    @pytest.mark.parametrize("point, images", [
        ((1, 0, 0), ("z", "y", "x")),
        ((0, 1, 0), ("x", "z", "y")),
        ((2, 3, 1), ("x + 2*z", "y + 3*z", "z")),
        ((2, 4, 2), ("x + z", "y + 2*z", "z")),
        ((4, 1, 0), ("x + 4*z", "z", "y")),
        ((3, 3, 0), ("x + z", "z", "y")),
    ])
    def test_images(self, gf5, point, images):
        assert to_origin(gf5, point) == [parse_poly(t, gf5) for t in images]

    @pytest.mark.parametrize("point", [(0, 0, 1), (1, 0, 0), (2, 1, 0), (3, 4, 1), (1, 2, 3)])
    def test_z_power_coefficient_is_the_value_at_the_point(self, nodal_cubic, point):
        spec = nodal_cubic.spec
        g = nodal_cubic.substitute(to_origin(spec, point))
        chart = max(i for i, c in enumerate(point) if c)
        scaled = [spec.element(c) * spec.element(point[chart]).inverse() for c in point]
        assert g.coefficient((0, 0, 3)) == nodal_cubic.evaluate(scaled)
        assert multiplicity_at(g, (0, 0, 1)) == multiplicity_at(nodal_cubic, point)

    def test_rejects_origin(self, gf5):
        with pytest.raises(PolyError):
            to_origin(gf5, (0, 0, 0))


class TestPlaneCurve:
    def test_degree_guard(self, gf5):
        with pytest.raises(PolyError):
            PlaneCurve(parse_poly("x + y", gf5))

    def test_properties(self, nodal_cubic):
        c = PlaneCurve(nodal_cubic)
        assert c.d == 3 and c.p == 5 and c.irreducible_asserted
