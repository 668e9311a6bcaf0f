"""kahlap: exact Kahler Laplacian powers at a chart center.

Computes powers of the Kahler Laplacian of catalog metrics at the origin of
normal coordinates, entirely over the rationals, and decides by exact
linear algebra whether they are polynomial in the complex Euclidean
Laplacian -- inferring the polynomials or refuting with a witness pair.
"""

__version__ = "0.1.0"

from .jets import (
    BiIndex,
    ConstantTermError,
    DegreeOverflowError,
    DimensionMismatchError,
    InsufficientOrderError,
    Jet,
    KahlapError,
)
from .geometry import (
    DegenerateMetricError,
    EinsteinData,
    MetricJet,
    einstein_data,
    metric_from_potential,
    normality_report,
    trace_identity_check,
)
from .laplacian import (
    NotEinsteinError,
    euclidean_moments,
    power_at_origin,
    powers_at_origin,
    second_power_check,
    third_power_rhs,
)
from .catalog import (
    CatalogGateError,
    Custom,
    DualOf,
    Flat,
    FubiniStudy,
    Hyperbolic,
    Polydisc,
    PotentialSpec,
    Product,
    Radial,
    SpecParseError,
    TypeI,
    TypeIDual,
    TypeIII,
    TypeIV,
    diagonal_restriction_check,
    dual_potential,
    parse_spec,
    potential,
)
from .inference import (
    CONSISTENT,
    REFUTED,
    UNDERDETERMINED,
    PowerPolynomial,
    PropertyReport,
    TestFamily,
    Verdict,
    Witness,
    build_test_family,
    duality_negation_checks,
    infer,
    third_power_summary,
    verify_property,
)

__all__ = [name for name in dir() if not name.startswith("_")]
