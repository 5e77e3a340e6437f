"""Result records produced by the theorem engines and scans.

Engines evaluate unconditionally and report hypothesis flags alongside the
computed data, so falsification probes are first-class: a report with a
broken bound is still a complete, serializable answer.
"""

from __future__ import annotations

import sys
from typing import NamedTuple, Optional

from .errors import GridNullError
from .field import FieldElement
from .poly import Monomial


class WitnessReport(NamedTuple):
    """Outcome of a non-vanishing witness search over a grid."""

    hypothesis_ok: bool
    qualifying_monomials: tuple
    witness: Optional[tuple]
    zero_count: int
    nonzero_count: int
    total_degree: object
    joint_nullity: int
    grid_sizes: tuple
    singleton_warning: bool


class CoefficientReport(NamedTuple):
    """Weighted grid sum versus the stored top-monomial coefficient."""

    target: Monomial
    weighted_sum: FieldElement
    direct_coefficient: FieldElement
    degree_bound_ok: bool
    total_degree: object
    degree_bound: int
    joint_nullity: int
    singleton_warning: bool


class ScanReport(NamedTuple):
    """Aggregate verdict of a scan or single structured check.

    counterexamples stays empty on passing runs; a failing run records the
    offending instances verbatim.
    """

    name: str
    instances: int
    verdict: bool
    details: dict
    counterexamples: tuple = ()


def _normalize(value):
    """Tuples of scalars stay tuples (points, monomials); tuples holding
    containers become lists (collections of such).  Leaves that JSON cannot
    hold, such as field elements and MINUS_INFINITY, become display strings.
    An int too long to print under Python's int/str limit raises."""
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalize(v) for v in value]
    if isinstance(value, tuple):
        if not value or any(isinstance(x, (tuple, list, dict)) for x in value):
            return [_normalize(x) for x in value]
        return tuple(_normalize(x) for x in value)
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:
            raise GridNullError(
                "cannot print an integer with more digits than the int/str conversion limit"
                f" of {sys.get_int_max_str_digits()}"
            ) from None
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def to_dict(report) -> dict:
    """JSON-ready dict of a report record or a plain dict, fields in order."""
    if not isinstance(report, dict):
        report = report._asdict()
    return _normalize(report)
