"""Named curve families with closed-form HK predictions.

Two quartic families with explicitly known multiplicities drive the
end-to-end validation: in characteristic 2 the curves
alpha*x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z have HKM = 3 + 4^(-m(alpha))
where m(alpha) is the degree over GF(2) of a solution of
lambda^2 + lambda = alpha, and in characteristic 3 the curves
z^4 - x*y*(x+y)*(x+lambda*y) have HKM = 3 + 3^(-2*d(lambda)) with
d(lambda) the degree of lambda over GF(3).  Matching those against the
trichotomy forces l = 4 and s = m (resp. s = d), which is what the
classifier should recover from raw colength data.  Both constructors
check their parameter and build the curve and prediction 3 + p^(-2s)
through one helper, `_quartic`.

Curves with a point of multiplicity r >= d/2 give the third family:
HKM = 3d/4 + (2r-d)^2/4d, strongly semistable at r = d/2 and destabilized
already at s = 0 (with l = 2r - d) for r > d/2.  The built-in
representatives stop at degree MAX_PARSE_DEGREE, like every parsed form.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .classify import HKReport, snap_classify
from .engine import hk_sequence
from .gf import FieldElement, FieldSpec, d_lambda, m_alpha
from .poly import MAX_PARSE_DEGREE, VARS, HomogeneousPoly, PlaneCurve, Poly


class FamilyError(ValueError):
    pass


@dataclass(slots=True)
class FamilyPrediction:
    curve: PlaneCurve
    predicted_hkm: Fraction
    predicted_s: int | None  # None marks strong semistability (s = infinity)
    predicted_l: int
    param: str = ""


def _xyz(spec: FieldSpec) -> tuple[Poly, ...]:
    return tuple(Poly.variable(spec, v) for v in VARS)


def _quartic(f: Poly, name: str, s: int, param: FieldElement) -> FamilyPrediction:
    """A smooth Monsky quartic: HKM = 3 + p^(-2s), destabilized at s with l = 4."""
    curve = PlaneCurve(HomogeneousPoly.from_poly(f), known_smooth=True, name=name)
    return FamilyPrediction(curve, 3 + Fraction(1, curve.p ** (2 * s)), s, 4, str(param))


def monsky_char2(alpha: FieldElement) -> FamilyPrediction:
    """Characteristic-2 quartic with HKM = 3 + 4^(-m(alpha)), alpha != 0."""
    if alpha.spec.p != 2:
        raise FamilyError("this family lives in characteristic 2")
    if not alpha:
        raise FamilyError("alpha must be nonzero")
    x, y, z = _xyz(alpha.spec)
    f = alpha * x**2 * y**2 + z**4 + x * y * z**2 + (x**3 + y**3) * z
    return _quartic(f, f"monsky2(alpha={alpha})", m_alpha(alpha), alpha)


def monsky_char3(lam: FieldElement) -> FamilyPrediction:
    """Characteristic-3 quartic with HKM = 3 + 3^(-2 d(lambda)), lambda not in {0,1}."""
    spec = lam.spec
    if spec.p != 3:
        raise FamilyError("this family lives in characteristic 3")
    if lam == spec.zero() or lam == spec.one():
        raise FamilyError("lambda must avoid {0, 1}")
    x, y, z = _xyz(spec)
    f = z**4 - x * y * (x + y) * (x + lam * y)
    return _quartic(f, f"monsky3(lambda={lam})", d_lambda(lam), lam)


def singular_prediction(d: int, r: int) -> Fraction:
    """HKM of an irreducible degree-d curve with a multiplicity-r point, r >= d/2."""
    if d <= 1:
        raise FamilyError("need degree > 1")
    if 2 * r < d:
        raise FamilyError(f"prediction requires r >= d/2, got r={r}, d={d}")
    if r >= d:
        raise FamilyError(f"a multiplicity-{r} point forces degree > {r}")
    return Fraction(3 * d, 4) + Fraction((2 * r - d) ** 2, 4 * d)


def singular_curve(d: int, r: int, spec: FieldSpec) -> PlaneCurve:
    """Built-in representative y^r z^(d-r) - x^d, multiplicity r at [0:0:1].

    The binomial is irreducible over the closure exactly when gcd(d, r) = 1,
    so other parameter pairs have no built-in curve (the prediction formula
    is still available for user-supplied equations).  The degree is bounded
    by MAX_PARSE_DEGREE, as every parsed form is: classification enumerates
    about d^2/2 candidates per Frobenius level.
    """
    if d > MAX_PARSE_DEGREE:
        raise FamilyError(f"singular family degree {d} exceeds the bound {MAX_PARSE_DEGREE}")
    if not (1 <= r < d):
        raise FamilyError(f"need 1 <= r < d, got r={r}, d={d}")
    if math.gcd(d, r) != 1:
        raise FamilyError(
            f"no built-in representative for (d={d}, r={r}): y^r z^(d-r) - x^d "
            "factors when gcd(d, r) > 1"
        )
    x, y, z = _xyz(spec)
    f = y**r * z ** (d - r) - x**d
    return PlaneCurve(
        HomogeneousPoly.from_poly(f),
        known_smooth=False,
        name=f"singular(d={d},r={r})",
    )


def singular_family(d: int, r: int, spec: FieldSpec) -> FamilyPrediction:
    curve = singular_curve(d, r, spec)
    l = 2 * r - d
    return FamilyPrediction(curve, singular_prediction(d, r), None if l == 0 else 0, l, f"d={d},r={r}")


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class SweepRow:
    param: str
    invariant: int | None  # predicted s: m(alpha), d(lambda); singular rows 0, or None if 2r = d
    predicted: Fraction
    measured: Fraction | None
    agree: str  # "true" | "false" | "ambiguous"
    report: HKReport


def _orbit_representatives(spec: FieldSpec, exclude: set[int]) -> list[FieldElement]:
    """One element per Frobenius orbit, the smallest index representing each.

    `exclude` must be a union of orbits (here: fixed elements).  Each new
    orbit is marked in one walk, which ends where it started.
    """
    seen = set(exclude)
    reps = []
    for idx in range(spec.order):
        if idx not in seen:
            b = spec.from_index(idx)
            reps.append(b)
            while (i := b.index()) not in seen:
                seen.add(i)
                b = b.frobenius()
    return reps


def _measure(pred: FamilyPrediction, n_max: int) -> SweepRow:
    curve = pred.curve
    samples = hk_sequence(curve, n_max)
    report = snap_classify(samples, curve.d, curve.p, smooth=curve.known_smooth,
                           curve_name=curve.name)
    measured = report.hkm  # None unless the report is accepted
    agree = "ambiguous" if measured is None else "true" if measured == pred.predicted_hkm else "false"
    return SweepRow(pred.param, pred.predicted_s, pred.predicted_hkm, measured, agree, report)


def sweep_monsky2(k: int, n_max: int) -> list[SweepRow]:
    reps = _orbit_representatives(FieldSpec(2, k), exclude={0})
    return [_measure(monsky_char2(alpha), n_max) for alpha in reps]


def sweep_monsky3(k: int, n_max: int) -> list[SweepRow]:
    spec = FieldSpec(3, k)
    reps = _orbit_representatives(spec, exclude={spec.zero().index(), spec.one().index()})
    return [_measure(monsky_char3(lam), n_max) for lam in reps]


def sweep_singular(d: int, r: int, spec: FieldSpec, n_max: int) -> list[SweepRow]:
    return [_measure(singular_family(d, r, spec), n_max)]


def sweep_to_csv(rows: Iterable[SweepRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["param", "invariant", "predicted", "measured", "agree"])
    for row in rows:
        writer.writerow([
            row.param,
            "" if row.invariant is None else row.invariant,
            str(row.predicted),
            "" if row.measured is None else str(row.measured),
            row.agree,
        ])
    return out.getvalue()
