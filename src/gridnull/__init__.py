"""Exact analysis of structured grids over fields.

Finite subsets of a field carry a nullity: the number of leading
coefficients of their vanishing polynomial that are zero.  Products of
highly null sets admit sharper polynomial-method results than generic
grids, and this package computes all of them exactly: witness search,
coefficient extraction by weighted sums, interpolation, sum vanishing,
sumset dichotomies, and plane-intersection counts, each backed by naive
oracles and exhaustive scans.
"""

from .errors import (
    CharacteristicZero,
    DegreeBoundViolated,
    DimensionMismatch,
    DivisionByZero,
    EmptyFactorList,
    EmptySet,
    EvenQ,
    ExponentOutOfRange,
    FieldNotRationals,
    GridNullError,
    InfiniteField,
    LambdaExceedsNullity,
    MissingValue,
    MixedFields,
    NonPrimeModulus,
    NotExtensionField,
    NotPrimeField,
    OrderDoesNotDivide,
    ParseError,
    PointNotOnGrid,
    PreconditionViolated,
    ReducibleModulus,
    ScanTooLarge,
    SingletonFactor,
    SizeBoundExceeded,
    UnknownVariable,
    UnsupportedDegree,
    ZeroShift,
    ZeroVector,
)
from .field import (
    ExtensionField,
    FieldCtx,
    FieldElement,
    PrimeField,
    Rationals,
    parse_field,
    trace,
)
from .poly import (
    MINUS_INFINITY,
    Monomial,
    MultiPoly,
    UniPoly,
    char_poly,
    format_poly,
    parse_element,
    parse_poly,
    raise_degree,
)
from .nullity import (
    FiniteSet,
    MomentTable,
    complete_moments,
    elementary_moments,
    parse_set,
    power_sums,
    weight,
)
from .grids import (
    Grid,
    additive_coset,
    grid_make,
    multiplicative_coset,
    parse_factor,
    parse_grid,
    trace_zero_set,
)
from .reports import CoefficientReport, ScanReport, WitnessReport, to_dict
from .theorems import (
    cauchy_davenport,
    cct_coefficient,
    extract_coefficient,
    gcn_check,
    grid_sum,
    interpolate,
    plane_grid_count,
    plane_scan,
    punctured_check,
)
from .scans import (
    OracleConfig,
    enumerate_additive_subgroups,
    ore_form_check,
    redei_scan,
    scd_scan,
)

__version__ = "0.1.0"

# The brute-force references only the tests call; no import path loads them
_REFERENCES = {
    "coefficient_oracle", "exp_series_check", "moments_bruteforce",
    "sylvester_rhs_bruteforce", "sylvester_sum_bruteforce",
}


def __getattr__(name):
    """A reference exported from .oracle, imported on its first use (PEP 562)."""
    if name not in _REFERENCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    return getattr(oracle, name)
