"""Signed-sum lacunary chaos toolkit.

Critical lacunarity constants, chaos index sets over lacunary
sequences, exact Walsh shift identities and coefficient recovery,
L^p norms and Riesz products for trigonometric chaos, interval-set
energy bounds, and extremal ratio search.
"""

from .errors import (
    AliasingError,
    BoundViolationError,
    InsufficientDataError,
    InsufficientTermsError,
    InvalidInputError,
    InvalidOrderError,
    InvalidRowError,
    InvalidSequenceError,
    InvalidSupportError,
    LacunaError,
    PreconditionError,
    ResourceError,
    UndefinedGradientError,
    UndefinedRatioError,
)
from .extremal import (
    BlowupReport,
    ChaosFamily,
    ExtremalConfig,
    ExtremalResult,
    GrowthReport,
    blowup_probe,
    growth_exponent,
    maximize_ratio,
    ratio_gradient,
    trig_family,
    walsh_family,
)
from .inverse import (
    ExperimentReport,
    InverseParsevalReport,
    SummationMatrix,
    TrigContext,
    WalshContext,
    alpha_threshold,
    build_summation_matrix,
    inverse_bound_experiment,
    inverse_parseval_check,
)
from .lacunary import (
    ChaosIndexSet,
    HeadPartitionReport,
    LacunarySequence,
    SignedRepresentation,
    counterexample_sequence,
    critical_lambda,
    critical_lambda_bracket,
    dyadic_sequence,
    empirical_mixed_bound,
    enumerate_index_set,
    geometric_sequence,
    head_partition,
    mixed_count_table,
    mixed_representation_count,
    representations,
    validate_lacunary,
)
from .measure import IntervalSet, energy_on_set, interval_fourier
from .trig import (
    GridEvaluation,
    TrigPolynomial,
    cos_product_expand,
    decorate_with_walsh_signs,
    evaluate_grid,
    grid_to_coefficients,
    khintchine_ratio,
    lp_norm_trig,
    lp_norm_walsh,
    modulation_projection,
    riesz_product,
)
from .walsh import (
    DyadicPoint,
    WalshIndex,
    WalshPolynomial,
    find_alpha,
    rademacher,
    recover_coefficient,
    shift_sum,
    shift_sum_bulk,
    walsh_eval,
)

__version__ = "0.1.0"
