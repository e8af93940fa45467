import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkcurves.classify import (
    NOT_SEMISTABLE,
    SEMISTABLE_NOT_STRONGLY,
    STRONGLY_SEMISTABLE,
    Candidate,
    ClassifyError,
    alpha_from_hkm,
    candidate_set,
    estimate_mu,
    report_to_dict,
    slopes,
    snap_classify,
)
from hkcurves.engine import HKSample


def synthetic(mu, p, n_max, noise=None, rng=None):
    """Samples floor(mu q^2) + noise with |noise| <= q, noise-free q = 1."""
    out = [HKSample(0, 1, 1)]
    for n in range(1, n_max + 1):
        q = p**n
        e = 0 if noise is None else noise(q, rng)
        out.append(HKSample(n, q, max(0, int(mu * q * q) + e)))
    return out


def two_loop_candidate_set(d, p, s_cut, smooth=None):
    """A frozen copy of the two-loop enumeration, kept as the reference."""
    base = F(3 * d, 4)
    raw = [Candidate(STRONGLY_SEMISTABLE, base)]
    if smooth is not True:
        for l in range(1, d):
            if (l - d) % 2 == 0:
                raw.append(Candidate(NOT_SEMISTABLE, base + F(l * l, 4 * d), 0, l))
    l_max = d * (d - 3)
    for s in range(1, s_cut + 1):
        for l in range(1, l_max + 1):
            if (l - p * d) % 2 == 0:
                mu = base + F(l * l, 4 * d * p ** (2 * s))
                raw.append(Candidate(SEMISTABLE_NOT_STRONGLY, mu, s, l))
    raw = [c for c in raw if c.mu < d]

    by_mu = {}
    for c in raw:
        by_mu.setdefault(c.mu, []).append(c)
    merged = []
    for mu, group in by_mu.items():
        group.sort(key=lambda c: (-(c.s if c.s is not None else -1), c.l or 0))
        primary = group[0]
        if len(group) > 1:
            primary = Candidate(primary.case, primary.mu, primary.s, primary.l,
                                tuple(group[1:]))
        merged.append(primary)
    merged.sort(key=lambda c: c.mu)
    return tuple(merged)


class TestCandidateSet:
    def test_quartic_p3_smooth_setcut2(self):
        values = {c.mu for c in candidate_set(4, 3, 2, smooth=True)}
        assert values == {F(3), F(3) + F(1, 36), F(3) + F(1, 9),
                          F(3) + F(1, 324), F(3) + F(1, 81)}

    def test_smooth_conic_is_rigid(self):
        cands = candidate_set(2, 5, 3)
        assert [c.mu for c in cands] == [F(3, 2)]
        assert cands[0].case == STRONGLY_SEMISTABLE

    def test_nodal_cubic_candidate_present(self):
        cands = candidate_set(3, 5, 2, smooth=False)
        node = [c for c in cands if c.case == NOT_SEMISTABLE]
        assert len(node) == 1 and node[0].l == 1 and node[0].mu == F(7, 3)

    def test_smooth_excludes_case_two(self):
        cands = candidate_set(5, 3, 2, smooth=True)
        assert all(c.case != NOT_SEMISTABLE for c in cands)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("s_cut", [1, 2, 3])
    def test_quartic_conformance(self, p, s_cut):
        got = {c.mu for c in candidate_set(4, p, s_cut, smooth=True)}
        want = {F(3)}
        for s in range(1, s_cut + 1):
            want.add(F(3) + F(1, p ** (2 * s)))          # l = 4
            want.add(F(3) + F(1, 4 * p ** (2 * s)))      # l = 2
        assert got == want

    def test_values_pairwise_distinct_and_case1_minimal(self):
        for d in range(2, 9):
            for p in (2, 3, 5):
                cands = candidate_set(d, p, 3)
                values = [c.mu for c in cands]
                assert len(values) == len(set(values))
                assert min(values) == F(3 * d, 4)
                assert cands[0].case == STRONGLY_SEMISTABLE

    def test_collision_merge_keeps_largest_s_primary(self):
        c = next(c for c in candidate_set(4, 2, 3, smooth=True) if c.mu == F(49, 16))
        assert (c.s, c.l) == (2, 4)
        assert [(a.s, a.l) for a in c.alternates] == [(1, 2)]

    def test_case3_exact_alpha_identity(self):
        # 2d*mu - d^2 = d^2/2 + l^2/(2 p^(2s)) for every enumerated candidate
        for d in (3, 4, 5, 6, 7, 8):
            for p in (2, 3, 5):
                for c in candidate_set(d, p, 3):
                    if c.case != SEMISTABLE_NOT_STRONGLY:
                        continue
                    lhs = 2 * d * c.mu - d * d
                    rhs = F(d * d, 2) + F(c.l * c.l, 2 * p ** (2 * c.s))
                    assert lhs == rhs

    def test_values_stay_below_degree(self):
        for d in range(2, 9):
            for p in (2, 3, 5):
                assert all(c.mu < d for c in candidate_set(d, p, 3))

    def test_determinism(self):
        a = candidate_set(6, 3, 2)
        b = candidate_set(6, 3, 2)
        assert a == b

    def test_memoized_as_one_shared_tuple(self):
        a = candidate_set(4, 2, 3, True)
        assert isinstance(a, tuple)
        assert candidate_set(4, 2, 3, True) is a

    @pytest.mark.parametrize("smooth", [None, True, False])
    def test_equals_the_two_loop_enumeration(self, smooth):
        for d in range(2, 13):
            for p in (2, 3, 5, 7, 11, 13):
                for s_cut in range(1, 8):
                    assert candidate_set(d, p, s_cut, smooth) == \
                        two_loop_candidate_set(d, p, s_cut, smooth), (d, p, s_cut)

    def test_interpretations_put_the_primary_first(self):
        c = next(c for c in candidate_set(4, 2, 3, smooth=True) if c.mu == F(49, 16))
        assert c.interpretations == (c, *c.alternates)
        assert [(i.s, i.l) for i in c.interpretations] == [(2, 4), (1, 2)]


class TestEstimateMu:
    def test_exact_conic_data(self):
        samples = [HKSample(n, 2**n, 3 * 4**n // 2) for n in range(1, 5)]
        est = estimate_mu(samples)
        assert est.mu == F(3, 2)
        # radius shrinks as depth grows
        deeper = estimate_mu(samples + [HKSample(5, 32, 3 * 1024 // 2)])
        assert deeper.radius < est.radius

    def test_exact_monomial_data(self):
        samples = [HKSample(n, 3**n, 4 * 9**n) for n in range(0, 4)]
        assert estimate_mu(samples).mu == F(4)

    def test_requires_two_usable_samples(self):
        with pytest.raises(ClassifyError):
            estimate_mu([HKSample(0, 1, 1), HKSample(1, 5, 55)])

    def test_slack_must_be_nonnegative(self):
        samples = [HKSample(n, 2**n, 3 * 4**n // 2) for n in range(1, 4)]
        with pytest.raises(ClassifyError, match="slack"):
            estimate_mu(samples, K=-1)
        assert estimate_mu(samples, K=0).radius < estimate_mu(samples, K=1).radius

    def test_two_usable_samples_fall_back_to_ratio(self):
        samples = [HKSample(1, 5, 55), HKSample(2, 25, 1449)]
        est = estimate_mu(samples)
        assert est.mu == F(1449 - 55, 625 - 25)

    def test_radius_covers_linear_deviation_model(self):
        # HK(q) = mu q^2 + c q stays inside mu +- radius for |c| <= K
        mu, c, p = F(7, 3), 1, 5
        samples = [HKSample(n, p**n, int(mu * p ** (2 * n)) + c * p**n)
                   for n in range(1, 4)]
        est = estimate_mu(samples)
        assert abs(est.mu - mu) <= est.radius

    def test_monsky3_engine_values_within_radius(self):
        # colengths of f_lambda(2) over GF(3), oracle-validated up to q = 9
        samples = [HKSample(0, 1, 1), HKSample(1, 3, 27), HKSample(2, 9, 252),
                   HKSample(3, 27, 2268), HKSample(4, 81, 20412)]
        est = estimate_mu(samples)
        assert abs(est.mu - F(28, 9)) <= est.radius


class TestAlphaAndSlopes:
    def test_alpha_examples(self):
        assert alpha_from_hkm(F(3), 4) == 8
        assert alpha_from_hkm(F(7, 3), 3) == 5

    def test_alpha_floor(self):
        with pytest.raises(ClassifyError):
            alpha_from_hkm(F(1), 4)

    def test_alpha_minimum_iff_strongly_semistable_value(self):
        for d in (2, 4, 6):
            assert alpha_from_hkm(F(3 * d, 4), d) == F(d * d, 2)

    def test_slopes_examples(self):
        assert slopes(1, 4, 4, 3) == (F(-4), F(-8))
        assert slopes(0, 1, 3, 11) == (F(-1), F(-2))

    def test_slopes_parity_error(self):
        with pytest.raises(ClassifyError):
            slopes(1, 3, 4, 2)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 3), st.integers(2, 8), st.sampled_from([2, 3, 5]),
           st.integers(1, 20))
    def test_slope_sum_and_gap(self, s, d, p, l):
        ref = d if s == 0 else p * d
        if (l - ref) % 2 != 0:
            return
        l1, m1 = slopes(s, l, d, p)
        assert l1 + m1 == -d * p**s
        assert l1 - m1 == l
        assert l1.denominator == 1 and m1.denominator == 1


class TestSnapClassify:
    def test_exact_case1_data_accepted(self):
        rep = snap_classify(synthetic(F(3), 7, 4), 4, 7, smooth=True)
        assert rep.accepted and rep.hkm == F(3)
        assert rep.chosen.case == STRONGLY_SEMISTABLE
        assert rep.strongly_semistable_through is not None

    def test_monsky_values_snap(self):
        rep = snap_classify(synthetic(F(49, 16), 2, 7), 4, 2, smooth=True)
        assert rep.accepted and rep.hkm == F(49, 16)
        assert (rep.chosen.s, rep.chosen.l) == (2, 4)
        assert rep.hn_slopes == (F(-6), F(-10))

    def test_nodal_value_snaps_case2(self):
        rep = snap_classify(synthetic(F(7, 3), 5, 3), 3, 5, smooth=False)
        assert rep.accepted and rep.chosen.case == NOT_SEMISTABLE
        assert (rep.chosen.s, rep.chosen.l) == (0, 1)
        assert rep.hn_slopes == (F(-1), F(-2))

    def test_shallow_data_is_ambiguous(self):
        rep = snap_classify(synthetic(F(49, 16), 2, 3), 4, 2, smooth=True)
        assert not rep.accepted
        assert rep.status == "ambiguous"
        assert len(rep.top_candidates) == 2
        assert rep.hkm is None and rep.alpha is None

    def test_accepted_reports_satisfy_bounds(self):
        reports = [
            snap_classify(synthetic(F(3), 7, 4), 4, 7, smooth=True),
            snap_classify(synthetic(F(49, 16), 2, 7), 4, 2, smooth=True),
            snap_classify(synthetic(F(7, 3), 5, 3), 3, 5, smooth=False),
        ]
        for rep in reports:
            assert rep.accepted
            assert rep.hkm >= F(3 * rep.d, 4)
            assert rep.hkm < rep.d
            assert rep.alpha == 2 * rep.d * rep.hkm - rep.d**2

    def test_case2_blocker_forces_ambiguity(self):
        # data consistent with 3d/4 but too shallow to rule out instability
        rep = snap_classify(synthetic(F(3), 2, 2), 4, 2, smooth=None)
        assert not rep.accepted

    def test_wrong_smoothness_assertion_yields_ambiguity(self):
        # nodal-cubic colengths over GF(5); asserting smoothness removes the
        # one candidate the data supports, and nothing else may be accepted
        samples = [HKSample(0, 1, 1), HKSample(1, 5, 55), HKSample(2, 25, 1449),
                   HKSample(3, 125, 36415)]
        rep = snap_classify(samples, 3, 5, smooth=True)
        assert not rep.accepted
        assert any("not within the error radius" in n for n in rep.notes)
        honest = snap_classify(samples, 3, 5, smooth=False)
        assert honest.accepted and honest.hkm == F(7, 3)

    def test_determinism(self):
        samples = synthetic(F(28, 9), 3, 4)
        a = report_to_dict(snap_classify(samples, 4, 3, smooth=True))
        b = report_to_dict(snap_classify(samples, 4, 3, smooth=True))
        assert a == b

    def test_report_serialization_shape(self):
        rep = snap_classify(synthetic(F(28, 9), 3, 4), 4, 3, smooth=True)
        data = report_to_dict(rep)
        assert data["status"] == "classified"
        assert data["hkm"] == {"num": 28, "den": 9, "decimal": 28 / 9}
        assert data["chosen"]["s"] == 1 and data["chosen"]["l"] == 4
        assert len(data["samples"]) == 5

    def test_report_key_order_is_pinned(self):
        # the order of HKReport's and Candidate's fields is the report schema
        rep = snap_classify(synthetic(F(28, 9), 3, 4), 4, 3, smooth=True)
        data = report_to_dict(rep)
        assert list(data) == [
            "curve", "d", "p", "samples", "status", "mu_estimate", "radius", "chosen",
            "hkm", "alpha", "hn_slopes", "margin", "top_candidates", "unexcluded_tail",
            "strongly_semistable_through", "notes",
        ]
        for cand in [data["chosen"], *data["top_candidates"]]:
            assert list(cand) == ["case", "mu", "s", "l", "alternates"]
        assert list(data["samples"][0]) == ["n", "q", "colength"]
        assert list(data["hkm"]) == ["num", "den", "decimal"]
        assert data["hn_slopes"] == [
            {"num": -4, "den": 1, "decimal": -4.0}, {"num": -8, "den": 1, "decimal": -8.0},
        ]


def admissible_tuples(rng):
    """Random generator tuples for the synthetic round trip."""
    while True:
        p = rng.choice([2, 3, 5, 7])
        d = rng.randint(2, 8)
        case = rng.choice([1, 2, 3])
        if case == 1:
            return p, d, STRONGLY_SEMISTABLE, rng.randint(1, 2), None
        if case == 2:
            ls = [l for l in range(1, d) if (l - d) % 2 == 0]
            if not ls:
                continue
            return p, d, NOT_SEMISTABLE, rng.randint(1, 2), rng.choice(ls)
        s = rng.randint(1, 2)
        # HKM of an irreducible plane curve stays below d: 2l < d*p^s
        ls = [l for l in range(1, d * (d - 3) + 1)
              if (l - p * d) % 2 == 0 and 2 * l < d * p**s]
        if not ls:
            continue
        return p, d, SEMISTABLE_NOT_STRONGLY, s, rng.choice(ls)


class TestSyntheticRoundTrip:
    def test_no_false_exact_answers(self):
        rng = random.Random(20260808)
        accepted = 0
        missnaps = []
        for _ in range(200):
            p, d, case, s, l = admissible_tuples(rng)
            base = F(3 * d, 4)
            if case == STRONGLY_SEMISTABLE:
                mu = base
            elif case == NOT_SEMISTABLE:
                mu = base + F(l * l, 4 * d)
            else:
                mu = base + F(l * l, 4 * d * p ** (2 * s))
            smooth = True if case != NOT_SEMISTABLE and rng.random() < 0.5 else None
            n_max = s + 3
            noise = lambda q, r: r.randint(-q, q)
            samples = synthetic(mu, p, n_max, noise=noise, rng=rng)
            rep = snap_classify(samples, d, p, smooth=smooth)
            if not rep.accepted:
                continue
            accepted += 1
            if rep.chosen.case == STRONGLY_SEMISTABLE:
                # a bounded claim: contradiction only if the generator
                # destabilizes within the verified range
                if case == NOT_SEMISTABLE:
                    missnaps.append((p, d, case, s, l, "case2 swallowed"))
                elif case == SEMISTABLE_NOT_STRONGLY and s <= rep.strongly_semistable_through:
                    missnaps.append((p, d, case, s, l, "folded too shallow"))
            else:
                interpretations = {(rep.chosen.case, rep.chosen.s, rep.chosen.l)}
                interpretations |= {(a.case, a.s, a.l) for a in rep.chosen.alternates}
                if rep.hkm != mu:
                    missnaps.append((p, d, case, s, l, f"wrong mu {rep.hkm}"))
                elif case != STRONGLY_SEMISTABLE and (case, s if case == SEMISTABLE_NOT_STRONGLY else 0, l) not in interpretations:
                    missnaps.append((p, d, case, s, l, "tuple not among interpretations"))
        assert missnaps == [], missnaps
        # the test must not be vacuous
        assert accepted >= 50

    def test_satisfiable_margin_implies_recovery(self):
        # exact synthetic data at generous depth always recovers
        cases = [
            (2, 4, F(49, 16), SEMISTABLE_NOT_STRONGLY, 7),
            (3, 4, F(28, 9), SEMISTABLE_NOT_STRONGLY, 4),
            (5, 3, F(7, 3), NOT_SEMISTABLE, 3),
            # at n_max = 4 a first-pullback destabilization of the sextic is
            # still inside the K=1 deviation envelope; depth 5 separates it
            (3, 6, F(9, 2), STRONGLY_SEMISTABLE, 5),
        ]
        for p, d, mu, case, n_max in cases:
            rep = snap_classify(synthetic(mu, p, n_max), d, p,
                                smooth=(case != NOT_SEMISTABLE) or None)
            assert rep.accepted, (p, d, mu)
            assert rep.hkm == mu
            assert rep.chosen.case == case
