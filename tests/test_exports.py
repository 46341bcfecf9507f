"""The package's lazy exports: every public name resolves, on first use,
to the object its module defines, and ``import lacuna`` alone loads no
submodule and no numpy."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import lacuna

EXPORTS = {
    "errors": (
        "AliasingError", "BoundViolationError", "InsufficientDataError",
        "InsufficientTermsError", "InvalidInputError", "InvalidOrderError",
        "InvalidRowError", "InvalidSequenceError", "InvalidSupportError",
        "LacunaError", "PreconditionError", "ResourceError",
        "UndefinedGradientError", "UndefinedRatioError",
    ),
    "extremal": (
        "BlowupReport", "ChaosFamily", "ExtremalConfig", "ExtremalResult",
        "GrowthReport", "blowup_probe", "growth_exponent", "maximize_ratio",
        "ratio_gradient", "trig_family", "walsh_family",
    ),
    "inverse": (
        "ExperimentReport", "InverseParsevalReport", "SummationMatrix",
        "TrigContext", "WalshContext", "alpha_threshold",
        "build_summation_matrix", "inverse_bound_experiment",
        "inverse_parseval_check",
    ),
    "lacunary": (
        "ChaosIndexSet", "HeadPartitionReport", "LacunarySequence",
        "SignedRepresentation", "counterexample_sequence", "critical_lambda",
        "critical_lambda_bracket", "dyadic_sequence", "empirical_mixed_bound",
        "enumerate_index_set", "geometric_sequence", "head_partition",
        "mixed_count_table", "mixed_representation_count", "representations",
        "validate_lacunary",
    ),
    "measure": ("IntervalSet", "energy_on_set", "interval_fourier"),
    "trig": (
        "TrigPolynomial", "cos_product_expand", "decorate_with_walsh_signs",
        "khintchine_ratio", "lp_norm_trig", "lp_norm_walsh",
        "modulation_projection", "riesz_product",
    ),
    "walsh": (
        "DyadicPoint", "WalshIndex", "WalshPolynomial", "find_alpha",
        "rademacher", "recover_coefficient", "shift_sum", "shift_sum_bulk",
        "walsh_eval",
    ),
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_every_export_is_its_module_object():
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"lacuna.{module}")
        for name in names:
            assert getattr(lacuna, name) is getattr(source, name), name


def test_all_and_dir_list_exactly_the_exports():
    assert len(NAMES) == 70
    assert sorted(lacuna.__all__) == NAMES
    assert dir(lacuna) == NAMES


def test_star_import_binds_every_export():
    namespace = {}
    exec("from lacuna import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES
    assert namespace["critical_lambda"] is lacuna.critical_lambda


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        lacuna.nope
    with pytest.raises(ImportError):
        exec("from lacuna import nope", {})


def test_version_is_unchanged():
    assert lacuna.__version__ == "0.1.0"


def test_import_alone_loads_no_submodule_and_no_numpy():
    src = str(Path(lacuna.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import lacuna; "
        "print(sorted(m for m in sys.modules if m.startswith('lacuna')), "
        "'numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "['lacuna'] False"
