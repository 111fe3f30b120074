"""Closed-form ln(exp(X) exp(Y)) on structure-constant Lie algebras."""

from .algebra import (
    AntisymmetryViolation,
    DimensionMismatch,
    IndexOutOfRange,
    JacobiViolation,
    LieElement,
    NilpotencyVerdict,
    StructureConstants,
    Subspace,
    as_fraction,
    validate,
)
from .closed_form import (
    BchResult,
    BivariateSeries,
    ClassificationMismatch,
    NoClosedFormAvailable,
    NonConvergence,
    bch_closed_form,
    case1_build,
    closed_form_terms,
    f_scalar,
    f_series,
)
from .detect import (
    CaseClassification,
    CaseTag,
    RankOneFactorization,
    classify_pair,
    factorize_rank_one,
    is_derived_abelian,
)
from .oracle import (
    ExpansionResidualTooLarge,
    LogDomainError,
    MatrixRep,
    bch_integral_series,
    bch_series_terms,
    builtin_catalog,
    matrix_bch,
    matrix_exp,
    matrix_log,
)

__version__ = "0.1.0"
