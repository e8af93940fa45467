"""Exact Hilbert-Kunz multiplicities of plane curves over finite fields,
with Frobenius semistability classification of the kernel bundle."""

__version__ = "0.1.0"

from .classify import (
    Candidate,
    HKReport,
    MuEstimate,
    alpha_from_hkm,
    candidate_set,
    estimate_mu,
    slopes,
    snap_classify,
)
from .engine import (
    HKSample,
    SampleCache,
    colength,
    colength_naive,
    graded_block,
    hk_sequence,
    smooth_check,
    truncated_basis,
    truncated_count,
)
from .families import (
    FamilyPrediction,
    monsky_char2,
    monsky_char3,
    singular_curve,
    singular_family,
    singular_prediction,
)
from .gf import (
    FieldElement,
    FieldSpec,
    d_lambda,
    embed,
    frobenius_orbit_degree,
    m_alpha,
    parse_field,
)
from .linalg import rank, rank_generic
from .poly import (
    HomogeneousPoly,
    Monomial,
    PlaneCurve,
    Poly,
    multiplicity_at,
    parse_poly,
    partial,
)

__all__ = [
    "__version__",
    "FieldSpec", "FieldElement", "parse_field", "embed",
    "frobenius_orbit_degree", "m_alpha", "d_lambda",
    "Poly", "HomogeneousPoly", "PlaneCurve", "Monomial",
    "parse_poly", "partial", "multiplicity_at",
    "rank", "rank_generic",
    "HKSample", "SampleCache",
    "truncated_basis", "truncated_count", "graded_block",
    "colength", "colength_naive", "hk_sequence", "smooth_check",
    "Candidate", "HKReport", "MuEstimate",
    "candidate_set", "estimate_mu", "snap_classify", "alpha_from_hkm", "slopes",
    "FamilyPrediction", "monsky_char2", "monsky_char3",
    "singular_prediction", "singular_curve", "singular_family",
]
