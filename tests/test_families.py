from fractions import Fraction as F

import pytest

from hkcurves.classify import candidate_set, estimate_mu
from hkcurves.engine import smooth_check
from hkcurves.families import (
    FamilyError,
    monsky_char2,
    monsky_char3,
    singular_curve,
    singular_family,
    singular_prediction,
    sweep_monsky2,
    sweep_monsky3,
    sweep_singular,
    sweep_to_csv,
)
from hkcurves.poly import multiplicity_at, parse_poly


class TestMonskyChar2:
    def test_alpha_one(self, gf2, monsky2_g1):
        pred = monsky_char2(gf2.element(1))
        assert pred.predicted_hkm == F(49, 16)
        assert pred.predicted_s == 2 and pred.predicted_l == 4
        assert pred.curve.f == monsky2_g1

    def test_gf4_generator(self, gf4):
        pred = monsky_char2(gf4.gen())
        assert pred.predicted_hkm == 3 + F(1, 4**4) == F(769, 256)
        assert pred.predicted_s == 4

    def test_rejects_zero(self, gf2):
        with pytest.raises(FamilyError):
            monsky_char2(gf2.element(0))

    def test_rejects_wrong_characteristic(self, gf3):
        with pytest.raises(FamilyError):
            monsky_char2(gf3.element(1))

    def test_curves_are_smooth(self, gf2, gf4):
        assert smooth_check(monsky_char2(gf2.element(1)).curve)
        assert smooth_check(monsky_char2(gf4.gen()).curve)

    def test_prediction_lies_in_candidate_set(self, gf2, gf4):
        for alpha in (gf2.element(1), gf4.gen()):
            pred = monsky_char2(alpha)
            values = {c.mu for c in candidate_set(4, 2, pred.predicted_s, smooth=True)}
            assert pred.predicted_hkm in values


class TestMonskyChar3:
    def test_lambda_two(self, gf3, monsky3_f2):
        pred = monsky_char3(gf3.element(2))
        assert pred.predicted_hkm == F(28, 9)
        assert pred.predicted_s == 1 and pred.predicted_l == 4
        assert pred.curve.f == monsky3_f2

    def test_gf9_generator(self, gf9):
        pred = monsky_char3(gf9.gen())
        assert pred.predicted_hkm == 3 + F(1, 81) == F(244, 81)
        assert pred.predicted_s == 2

    def test_rejects_zero_and_one(self, gf3):
        for v in (0, 1):
            with pytest.raises(FamilyError):
                monsky_char3(gf3.element(v))

    def test_rejects_wrong_characteristic(self, gf2):
        with pytest.raises(FamilyError):
            monsky_char3(gf2.element(1))

    def test_curves_are_smooth(self, gf3, gf9):
        assert smooth_check(monsky_char3(gf3.element(2)).curve)
        assert smooth_check(monsky_char3(gf9.gen()).curve)

    def test_expansion_matches_parsed_text(self, gf9):
        lam = gf9.gen()
        pred = monsky_char3(lam)
        manual = parse_poly("z^4 - x*y*(x+y)*(x+[1,0]*y)", gf9)
        assert pred.curve.f == manual

    def test_prediction_lies_in_candidate_set(self, gf3, gf9):
        for lam in (gf3.element(2), gf9.gen()):
            pred = monsky_char3(lam)
            values = {c.mu for c in candidate_set(4, 3, pred.predicted_s, smooth=True)}
            assert pred.predicted_hkm in values


class TestSingularPrediction:
    def test_values(self):
        assert singular_prediction(3, 2) == F(7, 3)
        assert singular_prediction(4, 3) == F(13, 4)
        assert singular_prediction(4, 2) == F(3)

    def test_half_degree_gives_strongly_semistable_floor(self):
        for d in (2, 4, 6, 8):
            assert singular_prediction(d, d // 2) == F(3 * d, 4)

    def test_domain_errors(self):
        with pytest.raises(FamilyError):
            singular_prediction(4, 1)   # below d/2
        with pytest.raises(FamilyError):
            singular_prediction(4, 4)   # multiplicity = degree
        with pytest.raises(FamilyError):
            singular_prediction(1, 1)

    def test_representative_curve(self, gf5):
        curve = singular_curve(4, 3, gf5)
        assert multiplicity_at(curve.f, (0, 0, 1)) == 3
        assert curve.d == 4

    def test_no_representative_when_gcd_nontrivial(self, gf5):
        with pytest.raises(FamilyError):
            singular_curve(4, 2, gf5)

    def test_family_bundles_l(self, gf5):
        fam = singular_family(3, 2, gf5)
        assert fam.predicted_l == 1 and fam.predicted_s == 0
        assert fam.predicted_hkm == F(7, 3)


class TestSweeps:
    def test_monsky3_k1_agrees_at_depth_four(self):
        rows = sweep_monsky3(1, 4)
        assert len(rows) == 1  # lambda = 2 is the only admissible element of GF(3)
        assert rows[0].agree == "true"
        assert rows[0].measured == F(28, 9)
        assert rows[0].invariant == 1

    def test_monsky3_too_shallow_is_ambiguous_not_false(self):
        rows = sweep_monsky3(1, 2)
        assert rows[0].agree == "ambiguous"
        assert rows[0].measured is None

    def test_singular_sweep(self, gf5):
        rows = sweep_singular(3, 2, gf5, 3)
        assert rows[0].agree == "true" and rows[0].measured == F(7, 3)

    def test_orbit_dedup(self):
        # GF(4): alpha = 1 plus one representative of {t, t+1}
        rows_params = [r.param for r in sweep_monsky2(2, 2)]
        assert len(rows_params) == 2

    def test_result_objects_have_no_instance_dict(self, gf3):
        # a sweep keeps every row: slots keep each one small
        row = sweep_monsky3(1, 2)[0]
        report = row.report
        objects = [row, report, report.samples[0], report.top_candidates[0],
                   estimate_mu(report.samples), monsky_char3(gf3.element(2))]
        assert [type(o).__name__ for o in objects] == [
            "SweepRow", "HKReport", "HKSample", "Candidate", "MuEstimate", "FamilyPrediction"]
        for obj in objects:
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_csv_shape(self, gf5):
        rows = sweep_singular(3, 2, gf5, 3)
        text = sweep_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "param,invariant,predicted,measured,agree"
        assert len(lines) == 2 and lines[1].endswith("true")


@pytest.mark.slow
class TestDeepSweeps:
    """End-to-end runs at depth; tens of seconds to minutes each."""

    def test_monsky2_k1_full_depth(self):
        rows = sweep_monsky2(1, 7)
        assert rows[0].agree == "true" and rows[0].measured == F(49, 16)

    def test_monsky3_gf9_never_contradicts(self):
        # d(lambda) = 2 needs n_max >= 6 (q = 729) for a verdict, which is out
        # of desk scale over GF(9); at n_max = 4 the margins must hold the
        # classifier to "ambiguous" rather than a wrong exact value
        rows = sweep_monsky3(2, 4)
        # lambda = 2 plus three orbit representatives outside GF(3)
        assert len(rows) == 4
        assert all(row.agree in ("true", "ambiguous") for row in rows)

    def test_monsky2_gf4_never_contradicts(self):
        rows = sweep_monsky2(2, 5)
        assert all(row.agree in ("true", "ambiguous") for row in rows)
