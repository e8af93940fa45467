"""Snap HK sample sequences onto the exact trichotomy for plane curves.

A plane curve of degree d has HK multiplicity 3d/4 when its kernel bundle
is strongly semistable, and 3d/4 + l^2/(4d p^(2s)) otherwise: s is the
first Frobenius pullback that destabilizes it (s = 0: the bundle itself
is not semistable), 0 < l < d at s = 0 and 0 < l <= d(d-3) at s >= 1,
and l = d mod 2 at s = 0, l = pd mod 2 after.  The classifier enumerates
every admissible exact value, estimates the multiplicity from the two
largest samples, and accepts a candidate only when the estimated error is
beaten by half the gap to the nearest rival; otherwise it reports
Ambiguous with the contenders.  All arithmetic is in
exact rationals: candidate gaps shrink like p^(-2s) and floats would
alias them.

The 3d/4 value is an accumulation point of the s-series, so candidates
whose offset from 3d/4 sinks below the noise floor can never be excluded
by data of finite depth.  An accepted strongly-semistable verdict is
therefore a bounded claim -- "no destabilization detectable through s*
pullbacks" -- with the folded sub-resolution candidates recorded on the
report rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Sequence

from .engine import HKSample, to_json

STRONGLY_SEMISTABLE = "strongly_semistable"
NOT_SEMISTABLE = "not_semistable"
SEMISTABLE_NOT_STRONGLY = "semistable_not_strongly"


class ClassifyError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Candidate:
    """One admissible exact HK multiplicity with its bundle interpretation.

    `s` is None for the strongly semistable case, 0 when the bundle itself
    is unstable, and the first destabilizing Frobenius iterate otherwise.
    Distinct (case, s, l) tuples can share one mu; the extras live in
    `alternates` and the report surfaces them -- HK data alone cannot
    separate them.
    """

    case: str
    mu: Fraction
    s: int | None = None
    l: int | None = None
    alternates: tuple["Candidate", ...] = ()

    @property
    def interpretations(self) -> tuple["Candidate", ...]:
        """Every (case, s, l) reading of this value, the primary one first."""
        return (self, *self.alternates)

    def describe(self) -> str:
        if self.case == STRONGLY_SEMISTABLE:
            return f"{self.case} (mu={self.mu})"
        return f"{self.case} (mu={self.mu}, s={self.s}, l={self.l})"


def _parity(d: int, p: int, s: int) -> int:
    """l must be congruent to this mod 2: d for the bundle itself, pd after a pullback."""
    return d if s == 0 else p * d


@lru_cache(maxsize=32)
def candidate_set(
    d: int, p: int, s_cut: int, smooth: bool | None = None
) -> tuple[Candidate, ...]:
    """All admissible exact HKM values for degree d, char p, s <= s_cut.

    smooth=True removes the not-semistable case (the kernel bundle of a
    nonsingular plane curve is semistable).  Values above d are dropped:
    an irreducible plane curve of degree > 1 has HK multiplicity < d, so
    they cannot occur.  Equal-value collisions are merged, the largest-s
    interpretation kept primary and the rest attached as alternates.

    Memoized: the result is an immutable tuple shared by every caller with
    the same arguments, so the reports of a sweep point at the same
    Candidate and Fraction objects instead of holding copies.
    """
    if d <= 1:
        raise ClassifyError("classification needs degree > 1")
    if s_cut < 1:
        raise ClassifyError("s_cut must be >= 1")
    base = Fraction(3 * d, 4)
    raw = [
        Candidate(SEMISTABLE_NOT_STRONGLY if s else NOT_SEMISTABLE, mu, s, l)
        for s in range(1 if smooth is True else 0, s_cut + 1)
        for l in range(1, d if s == 0 else d * (d - 3) + 1)
        if (l - _parity(d, p, s)) % 2 == 0
        and (mu := base + Fraction(l * l, 4 * d * p ** (2 * s))) < d
    ]
    raw.sort(key=lambda c: (c.mu, -c.s, c.l))
    merged = [Candidate(STRONGLY_SEMISTABLE, base)]
    for _, group in groupby(raw, key=lambda c: c.mu):
        primary, *rest = group
        merged.append(replace(primary, alternates=tuple(rest)) if rest else primary)
    return tuple(merged)


@dataclass(frozen=True, slots=True)
class MuEstimate:
    """Successive-difference estimate of HKM with an exact error radius."""

    mu: Fraction
    radius: Fraction
    q_max: int


def estimate_mu(samples: Sequence[HKSample], K: Fraction | int = 1) -> MuEstimate:
    """mu_hat = (HK(pq) - HK(q)) / ((pq)^2 - q^2) at the deepest pair.

    If HK(q) = mu q^2 + e(q) with |e| <= Kq + 1 (the +1 absorbs integer
    rounding of mu q^2), the deepest difference quotient is within
    K*p/((p-1) q_max) + 2p^2/((p^2-1) q_max^2) of mu; that bound is the
    radius, plus the spread between the last two quotients as an empirical
    stability term.  An accepted classification can therefore never be
    wrong under the deviation model: the radius dominates the estimator
    error outright.  Needs at least two samples with n >= 1 (q = 1 carries
    no slope information); with exactly two, the plain ratio at the
    smaller q stands in for the previous quotient.
    """
    K = Fraction(K)
    if K < 0:
        raise ClassifyError(f"the slack K must be >= 0, got {K}")
    usable = sorted((s for s in samples if s.n >= 1), key=lambda s: s.n)
    if len(usable) < 2:
        raise ClassifyError("need at least two samples with n >= 1")
    for a, b in zip(usable, usable[1:]):
        if b.n != a.n + 1:
            raise ClassifyError("samples must cover consecutive Frobenius iterates")
    p = usable[1].q // usable[0].q

    def quotient(a: HKSample, b: HKSample) -> Fraction:
        return Fraction(b.colength - a.colength, b.q**2 - a.q**2)

    mu_last = quotient(usable[-2], usable[-1])
    if len(usable) >= 3:
        mu_prev = quotient(usable[-3], usable[-2])
    else:
        mu_prev = Fraction(usable[-2].colength, usable[-2].q ** 2)
    q_max = usable[-1].q
    radius = (
        abs(mu_last - mu_prev)
        + K * Fraction(p, (p - 1) * q_max)
        + Fraction(2 * p * p, (p * p - 1) * q_max * q_max)
    )
    return MuEstimate(mu_last, radius, q_max)


def alpha_from_hkm(hkm: Fraction, d: int) -> Fraction:
    """Invert HKM = (d^2 + alpha)/2d; errors below the 3d/4 floor."""
    hkm = Fraction(hkm)
    if hkm < Fraction(3 * d, 4):
        raise ClassifyError(f"hkm = {hkm} is below the lower bound 3d/4 = {Fraction(3*d,4)}")
    return 2 * d * hkm - d * d


def slopes(s: int, l: int, d: int, p: int) -> tuple[Fraction, Fraction]:
    """Degrees of the destabilizing sub and quotient line bundle of F^(s*)V.

    deg L1 = -(d/2) p^s + l/2 and deg M1 = -(d/2) p^s - l/2; their sum is
    p^s * deg V = -d p^s and their difference is l.  The stated parity of
    l makes both integers.
    """
    if s < 0 or l <= 0:
        raise ClassifyError("need s >= 0 and l > 0")
    if (l - _parity(d, p, s)) % 2 != 0:
        raise ClassifyError(
            f"parity violation: l = {l} must be congruent to {'d' if s == 0 else 'pd'} (mod 2)"
        )
    half_sum = Fraction(-d * p**s, 2)
    return (half_sum + Fraction(l, 2), half_sum - Fraction(l, 2))


@dataclass(slots=True)
class HKReport:
    """Classification outcome for one curve."""

    curve: str
    d: int
    p: int
    samples: list[HKSample]
    status: str  # "classified" | "ambiguous"
    mu_estimate: Fraction
    radius: Fraction
    chosen: Candidate | None = None
    hkm: Fraction | None = None
    alpha: Fraction | None = None
    hn_slopes: tuple[Fraction, Fraction] | None = None
    margin: Fraction | None = None
    top_candidates: list[Candidate] = field(default_factory=list)
    unexcluded_tail: list[Candidate] = field(default_factory=list)
    strongly_semistable_through: int | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.status == "classified"


def snap_classify(
    samples: Sequence[HKSample],
    d: int,
    p: int,
    smooth: bool | None = None,
    K: Fraction | int = 1,
    curve_name: str = "",
) -> HKReport:
    """Pick the exact candidate nearest the estimate, or report Ambiguous.

    Acceptance requires the total error bound (distance to the candidate
    plus the radius) to stay under half the gap to the nearest rival.  For
    the strongly semistable candidate the rivals crowding within twice the
    error bound are destabilizations too deep to see at this q; they fold
    into a bounded acceptance ("strongly semistable through s*") and are
    listed on the report.  A not-semistable candidate inside that zone
    blocks acceptance instead: semistability itself would be undecided.
    """
    est = estimate_mu(samples, K)
    s_cut = max(s.n for s in samples)
    cands = candidate_set(d, p, s_cut, smooth)
    notes: list[str] = []

    if est.mu < Fraction(3 * d, 4) - est.radius:
        notes.append(
            f"estimate {est.mu} sits below the 3d/4 lower bound beyond the radius; "
            "data inconsistent with an irreducible plane curve"
        )

    ranked = sorted(cands, key=lambda c: (abs(est.mu - c.mu), c.mu))
    best = ranked[0]
    err = abs(est.mu - best.mu) + est.radius

    report = HKReport(
        curve=curve_name,
        d=d,
        p=p,
        samples=list(samples),
        status="ambiguous",
        mu_estimate=est.mu,
        radius=est.radius,
        top_candidates=ranked[:2],
        notes=notes,
    )

    # a true curve's estimate lies within the radius of its exact value, so
    # an estimate farther than that from every candidate signals data the
    # model does not cover (e.g. a wrongly asserted smoothness flag)
    if abs(est.mu - best.mu) > est.radius:
        notes.append(
            "estimate is not within the error radius of any admissible exact value; "
            "check the smoothness/irreducibility assertions or deepen the samples"
        )
        return report

    if best.alternates:
        notes.append(
            "HK data cannot separate interpretations sharing this multiplicity: "
            + "; ".join(a.describe() for a in best.alternates)
        )

    folded: list[Candidate] = []
    if best.case == STRONGLY_SEMISTABLE:
        zone = [c for c in cands if c is not best and abs(c.mu - best.mu) <= 2 * err]
        blockers = [c for c in zone if NOT_SEMISTABLE in {i.case for i in c.interpretations}]
        if blockers:
            notes.append(
                "a not-semistable candidate lies within the resolution of this data; "
                "deeper samples needed"
            )
            report.top_candidates = [best, blockers[0]]
            return report
        folded = zone

    gap = min((abs(c.mu - best.mu) for c in cands if c is not best and c not in folded),
              default=None)
    if gap is not None and not err < gap / 2:
        return report
    if best.case == STRONGLY_SEMISTABLE:
        # the semistable-through bound must honor every interpretation of a
        # folded value, not just the primary one
        s_star = min((i.s for c in folded for i in c.interpretations), default=s_cut + 1) - 1
        if s_star < 1:
            # even a first-pullback destabilization is below the noise floor;
            # the value claim would be empty, so stay ambiguous
            notes.append("data too shallow to separate 3d/4 from a destabilization at s = 1")
            return report
        report.unexcluded_tail = sorted(folded, key=lambda c: (c.s, c.l))
        report.strongly_semistable_through = s_star
        if folded:
            notes.append(
                f"strong semistability verified through s = {s_star}; destabilization at "
                f"s >= {s_star + 1} would sit below the noise floor of this sample depth"
            )
        else:
            notes.append(f"strong semistability verified through s = {s_star} (= s_cut)")
    else:
        report.hn_slopes = slopes(best.s, best.l, d, p)
    report.status = "classified"
    report.chosen = best
    report.hkm = best.mu
    report.alpha = alpha_from_hkm(best.mu, d)
    report.margin = None if gap is None else gap / 2 - err
    return report


def report_to_dict(report: HKReport) -> dict:
    """The report as JSON-ready data: HKReport's fields in declaration order."""
    return to_json(report)
