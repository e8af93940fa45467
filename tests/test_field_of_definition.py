"""The engine computes each curve over its field of definition.

A form typed into GF(p^k) whose coefficients lie in GF(p^e) is rewritten
over GF(p^e) before the syzygy route and the smoothness rank; these tests
compare that against the same kernels run over the typed field, against
the naive oracle, and against pinned parent outputs.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hkcurves import engine
from hkcurves.cli import main
from hkcurves.engine import (
    ResourceLimitError,
    colength,
    colength_naive,
    hk_sequence,
    oracle_cutoff,
    smooth_check,
    syzygy_degrees,
)
from hkcurves.gf import FieldError, FieldSpec, descend, embed, frobenius_orbit_degree
from hkcurves.linalg import order_basis_degrees
from hkcurves.poly import HomogeneousPoly, PlaneCurve, parse_poly

# (p, e, k): coefficients in GF(p^e), typed into GF(p^k)
SUBFIELDS = [(2, 1, 2), (2, 1, 3), (2, 2, 4), (3, 1, 2), (3, 2, 4), (5, 1, 2)]

G1 = "x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z"
# no shear over GF(2) makes it monic in z: it passes through every GF(2)-point
ALL_POINTS_CUBIC = "x^2*y + x*y^2 + x^2*z + x*z^2 + y^2*z + y*z^2"


def typed_field_degrees(f, q):
    """syzygy_degrees without the descent: the order basis over the typed field."""
    g = engine._monic_in_z(f)
    k = g.spec.k
    shifts = [q + i for i in range(f.d) for _ in range(k)] * 2
    return tuple(sorted(order_basis_degrees(engine._syzygy_series(g, q), shifts, f.spec.p))[::k])


def typed(text, p, e, k):
    """The form `text` over GF(p^e), embedded into GF(p^k)."""
    f = parse_poly(text, FieldSpec(p, e))
    big = FieldSpec(p, k)
    return HomogeneousPoly(big, {m: embed(c, big) for m, c in f.terms.items()})


@st.composite
def subfield_forms(draw):
    """A form with coefficients in GF(p^e), typed into GF(p^k); some lack z^d."""
    p, e, k = draw(st.sampled_from(SUBFIELDS))
    sub, big = FieldSpec(p, e), FieldSpec(p, k)
    d = draw(st.integers(1, 4))
    mons = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    if not draw(st.booleans()):  # no z^d term: the point search moves a point
        mons.remove((0, 0, d))
    chosen = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=6, unique=True))
    coeffs = draw(st.lists(st.integers(1, sub.order - 1), min_size=len(chosen),
                           max_size=len(chosen)))
    return HomogeneousPoly(big, {m: embed(sub.from_index(c), big) for m, c in zip(chosen, coeffs)})


class TestDescent:
    @settings(max_examples=60, deadline=None)
    @given(subfield_forms())
    @example(typed(ALL_POINTS_CUBIC, 2, 1, 2))  # the search moves GF(2) up to GF(4)
    @example(typed("x*y*z + x^2*y", 2, 1, 3))  # its point off the curve is [1:1:0]
    def test_equals_the_typed_field(self, f):
        p = f.spec.p
        e = math.lcm(*(frobenius_orbit_degree(c) for c in f.terms.values()))
        assert engine._over_field_of_definition(f).spec.k == e
        q = 1
        while q <= max(oracle_cutoff(p), 27):
            assert syzygy_degrees(f, q) == typed_field_degrees(f, q)
            if q <= oracle_cutoff(p):
                assert colength(f, q) == colength_naive(f, q)
            q *= p

    @pytest.mark.parametrize("p,e,k", SUBFIELDS)
    def test_monsky_member_keeps_its_sequence(self, p, e, k):
        # alpha = 1 and lambda = 2 lie in the prime field
        text = G1 if p == 2 else "z^4 - x*y*(x+y)*(x+2*y)"
        f = typed(text, p, e, k)
        assert engine._over_field_of_definition(f).spec == FieldSpec(p)
        base = parse_poly(text, FieldSpec(p))
        n = {2: 6, 3: 4, 5: 3}[p]
        assert hk_sequence(f, n) == hk_sequence(base, n)

    @pytest.mark.parametrize("text,p", [
        ("[1,0]*x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z", 2),  # alpha = t generates GF(4)
        ("z^4 - x*y*(x+y)*(x+[1,0]*y)", 3),  # lambda = t generates GF(9)
    ], ids=["monsky2-t", "monsky3-t"])
    def test_generating_coefficients_are_not_descended(self, text, p):
        f = parse_poly(text, FieldSpec(p, 2))
        assert engine._over_field_of_definition(f) is f

    def test_lcm_of_two_subfields_is_the_whole_field(self):
        # a coefficient of degree 2 and one of degree 3 generate GF(2^6)
        big = FieldSpec(2, 6)
        a = embed(FieldSpec(2, 2).gen(), big)
        b = embed(FieldSpec(2, 3).gen(), big)
        f = HomogeneousPoly(big, {(0, 0, 2): big.one(), (1, 1, 0): a, (2, 0, 0): b})
        assert engine._over_field_of_definition(f) is f
        g = HomogeneousPoly(big, {(0, 0, 2): big.one(), (1, 1, 0): a})
        assert engine._over_field_of_definition(g).spec == FieldSpec(2, 2)

    def test_syzygy_series_runs_on_the_subfield(self, monkeypatch):
        seen = []
        series = engine._syzygy_series

        def spy(g, q):
            seen.append(g.spec)
            return series(g, q)

        monkeypatch.setattr(engine, "_syzygy_series", spy)
        f = typed(G1, 2, 1, 8)
        assert colength(f, 64).colength == colength(parse_poly(G1, FieldSpec(2)), 64).colength
        assert seen and set(seen) == {FieldSpec(2)}

    def test_smooth_check_ranks_over_the_subfield(self, monkeypatch):
        fields = []
        rank = engine.rank

        def spy(idx, field):
            fields.append(field)
            return rank(idx, field)

        monkeypatch.setattr(engine, "rank", spy)
        for k in (1, 4, 8):
            f = typed("x^7 + y^7 + z^7 + x^2*y^3*z^2", 2, 1, k)
            assert smooth_check(PlaneCurve(f)) is True
        nodal = typed("y^2*z - x^3 - x^2*z", 5, 1, 2)
        assert smooth_check(PlaneCurve(nodal)) is False
        assert fields == [FieldSpec(2)] * 3 + [FieldSpec(5)]


class TestDescend:
    @pytest.mark.parametrize("small,big", [
        (FieldSpec(2, 2), FieldSpec(2, 4)),
        (FieldSpec(3, 2), FieldSpec(3, 4)),
        (FieldSpec(2), FieldSpec(2, 4)),
        (FieldSpec(3, 2), FieldSpec(3, 2, modulus=[1, 1, 2])),
    ], ids=["GF(4)-GF(16)", "GF(9)-GF(81)", "GF(2)-GF(16)", "GF(9)-GF(9)'"])
    def test_inverts_embed(self, small, big):
        for a in small.elements():
            assert descend(embed(a, big), small) == a

    @pytest.mark.parametrize("small,big", [
        (FieldSpec(2, 2), FieldSpec(2, 4)),
        (FieldSpec(3, 2), FieldSpec(3, 4)),
    ], ids=["GF(4)-GF(16)", "GF(9)-GF(81)"])
    def test_refuses_elements_outside_the_subfield(self, small, big):
        image = {embed(a, big) for a in small.elements()}
        outside = [b for b in big.elements() if b not in image]
        assert len(outside) == big.order - small.order
        for b in outside:
            with pytest.raises(FieldError):
                descend(b, small)

    def test_refuses_a_field_that_is_not_a_subfield(self):
        with pytest.raises(FieldError):
            descend(FieldSpec(2, 4).one(), FieldSpec(2, 3))
        with pytest.raises(FieldError):
            descend(FieldSpec(2, 4).one(), FieldSpec(3))


class TestMemoryGuard:
    def test_degree_eight_form_is_refused_before_allocating(self):
        # 32 q (kd)^2 = 32 * (10^9 + 7) * 64 bytes: about 2 TB
        f = parse_poly("x^8 + y^8 + x*y^7 + x^3*y^2*z^3", FieldSpec(1000000007))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="needs about 2048000014336 bytes"):
                hk_sequence(f, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_budget_follows_the_address_space_limit(self, monkeypatch):
        if engine.resource is None:
            pytest.skip("no RLIMIT_AS on this platform")
        monkeypatch.setattr(engine.resource, "getrlimit", lambda which: (1 << 20, 1 << 30))
        assert engine._memory_budget() == 1 << 20
        f = parse_poly(G1, FieldSpec(2))
        # 32 * 64 * 16 = 32768 bytes fits; 32 * 4096 * 16 does not
        assert syzygy_degrees(f, 64)
        with pytest.raises(ResourceLimitError, match="memory and address space"):
            syzygy_degrees(f, 4096)

    def test_unknown_physical_memory_leaves_the_address_space(self, monkeypatch):
        monkeypatch.setattr(engine.os, "sysconf", lambda name: -1)
        if engine.resource is not None:
            unlimited = engine.resource.RLIM_INFINITY
            monkeypatch.setattr(engine.resource, "getrlimit", lambda which: (unlimited, unlimited))
        assert engine._memory_budget() == np.iinfo(np.intp).max

    def test_prediction_uses_the_descended_field(self, monkeypatch):
        # over GF(2^8) the typed field would predict 64 times more than GF(2)
        monkeypatch.setattr(engine, "_memory_budget", lambda: 32 * 64 * 16)
        assert syzygy_degrees(typed(G1, 2, 1, 8), 64) == syzygy_degrees(parse_poly(G1, FieldSpec(2)), 64)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommandLine:
    def test_prime_field_product_exits_3(self, capsys):
        code, out, err = run(["compute", "--field", "GF(1000000007)", "--poly", "x*y",
                              "--nmax", "1"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("resource limit:") and "needs about 128000000896 bytes" in err
        assert "Traceback" not in err

    def test_monsky2_over_gf16_csv_is_pinned(self, capsys):
        code, out, _ = run(["family", "monsky2", "--k", "4", "--nmax", "6"], capsys)
        assert code == 0
        assert out == (
            "param,invariant,predicted,measured,agree\n"
            '"0,0,0,1",2,49/16,,ambiguous\n'
            '"0,0,1,0",4,769/256,,ambiguous\n'
            '"0,1,1,0",4,769/256,,ambiguous\n'
            '"1,0,0,0",8,196609/65536,,ambiguous\n'
            '"1,0,0,1",8,196609/65536,,ambiguous\n'
        )

    def test_gf256_member_runs_as_over_gf2(self, capsys):
        argv = ["compute", "--poly", G1, "--nmax", "8"]
        code, deep, _ = run([*argv, "--field", "GF(2^8)"], capsys)
        assert code == 0
        code, base, _ = run([*argv, "--field", "GF(2)"], capsys)
        assert code == 0 and deep == base
        assert deep.splitlines()[-1] == "8,256,200704"
