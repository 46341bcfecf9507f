"""Signed-sum lacunary chaos toolkit.

Critical lacunarity constants, chaos index sets over lacunary
sequences, exact Walsh shift identities and coefficient recovery,
L^p norms and Riesz products for trigonometric chaos, interval-set
energy bounds, and extremal ratio search.

Exports resolve on first use (PEP 562), so ``import lacuna`` loads no
submodule and the exact integer modules never load numpy; only the
float engines (``engine`` and ``extremal``) import it.
"""

import importlib

_EXPORTS = {
    "errors": (
        "AliasingError",
        "BoundViolationError",
        "InsufficientDataError",
        "InsufficientTermsError",
        "InvalidInputError",
        "InvalidOrderError",
        "InvalidRowError",
        "InvalidSequenceError",
        "InvalidSupportError",
        "LacunaError",
        "PreconditionError",
        "ResourceError",
        "UndefinedGradientError",
        "UndefinedRatioError",
    ),
    "extremal": (
        "BlowupReport",
        "ChaosFamily",
        "ExtremalConfig",
        "ExtremalResult",
        "GrowthReport",
        "blowup_probe",
        "growth_exponent",
        "maximize_ratio",
        "ratio_gradient",
        "trig_family",
        "walsh_family",
    ),
    "inverse": (
        "ExperimentReport",
        "InverseParsevalReport",
        "SummationMatrix",
        "TrigContext",
        "WalshContext",
        "alpha_threshold",
        "build_summation_matrix",
        "inverse_bound_experiment",
        "inverse_parseval_check",
    ),
    "lacunary": (
        "ChaosIndexSet",
        "HeadPartitionReport",
        "LacunarySequence",
        "SignedRepresentation",
        "counterexample_sequence",
        "critical_lambda",
        "critical_lambda_bracket",
        "dyadic_sequence",
        "empirical_mixed_bound",
        "enumerate_index_set",
        "geometric_sequence",
        "head_partition",
        "mixed_count_table",
        "mixed_representation_count",
        "representations",
        "validate_lacunary",
    ),
    "measure": ("IntervalSet", "energy_on_set", "interval_fourier"),
    "trig": (
        "TrigPolynomial",
        "cos_product_expand",
        "decorate_with_walsh_signs",
        "khintchine_ratio",
        "lp_norm_trig",
        "lp_norm_walsh",
        "modulation_projection",
        "riesz_product",
    ),
    "walsh": (
        "DyadicPoint",
        "WalshIndex",
        "WalshPolynomial",
        "find_alpha",
        "rademacher",
        "recover_coefficient",
        "shift_sum",
        "shift_sum_bulk",
        "walsh_eval",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
