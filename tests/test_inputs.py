"""Input-domain tests: every public entry point refuses a bad exponent,
order, key, count, index, digit position, sign, frequency list, trig
coefficient, bound d, search setting, blowup budget or a trig key past the
float range with a typed error, and the accepted integer forms keep working.

Each rule lives in one helper (``lacunary._as_exponent``, ``_as_int``
behind ``_as_order`` and every count, index, digit position and
frequency, ``_as_key``, ``_as_sign``, ``_as_terms`` for every sequence,
``_ratio_violation`` for every lacunarity ratio, ``trig._as_frequencies``, ``trig._as_oversample``,
``measure._as_float`` and ``inverse._alpha_threshold_exact``), so these
cases pin the helpers through the functions that call them.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import (
    DyadicPoint,
    ExtremalConfig,
    IntervalSet,
    InvalidInputError,
    InvalidOrderError,
    InvalidSequenceError,
    LacunarySequence,
    ResourceError,
    SignedRepresentation,
    TrigContext,
    TrigPolynomial,
    WalshContext,
    WalshIndex,
    WalshPolynomial,
    blowup_probe,
    build_summation_matrix,
    counterexample_sequence,
    critical_lambda_bracket,
    dyadic_sequence,
    energy_on_set,
    enumerate_index_set,
    geometric_sequence,
    growth_exponent,
    interval_fourier,
    inverse_bound_experiment,
    inverse_parseval_check,
    lp_norm_trig,
    lp_norm_walsh,
    maximize_ratio,
    mixed_representation_count,
    modulation_projection,
    rademacher,
    ratio_gradient,
    representations,
    riesz_product,
    trig_family,
    validate_lacunary,
    walsh_family,
)
from lacuna.lacunary import _ratio_violation

SEQ = geometric_sequence(4, 4)
TRIG = TrigPolynomial({20: 1.0, 68: 0.5})
WALSH = WalshPolynomial({6: 1.0, 10: -0.5})
FULL = IntervalSet.full()
THIRD = IntervalSet.parse("0/1:1/3")


def _trig_check(order, d):
    return inverse_parseval_check(TRIG, FULL, TrigContext(SEQ, order, d=d))


def _experiment(n_max):
    matrix = build_summation_matrix("prefix-of-rearrangement", order=[20, 68])
    context = TrigContext(SEQ, 2, d=1)
    return inverse_bound_experiment(TRIG.coefficients, matrix, FULL, context, n_max=n_max)


def _exponent_cases():
    iset = walsh_family(2, 4).index_set()
    calls = {
        "lp_norm_trig": lambda p: lp_norm_trig(TRIG, p),
        "lp_norm_walsh": lambda p: lp_norm_walsh(WALSH, p),
        "maximize_ratio": lambda p: maximize_ratio(iset, p),
        "ratio_gradient": lambda p: ratio_gradient({6: 1.0}, iset, p),
        "growth_exponent": lambda p: growth_exponent(iset, [4, 8, 16, p]),
        "blowup_probe": lambda p: blowup_probe(2, p, [2, 4]),
    }
    for name, call in calls.items():
        for p in (math.nan, math.inf, -math.inf):
            yield pytest.param(
                lambda call=call, p=p: call(p), InvalidInputError, id=f"{name}-p={p}"
            )


BAD_INPUTS = [
    *_exponent_cases(),
    pytest.param(lambda: TrigPolynomial({20.7: 1.0}), InvalidInputError, id="trig-key-20.7"),
    pytest.param(lambda: WalshPolynomial({6.9: 1.0}), InvalidInputError, id="walsh-key-6.9"),
    # the key is checked before a zero coefficient is dropped
    pytest.param(
        lambda: TrigPolynomial({20.7: 0, 4: 1.0}), InvalidInputError, id="trig-key-20.7-zero"
    ),
    pytest.param(
        lambda: WalshPolynomial({6.9: 0, 6: 1.0}), InvalidInputError, id="walsh-key-6.9-zero"
    ),
    pytest.param(
        lambda: validate_lacunary([4.0, 16], 3), InvalidSequenceError, id="lacunary-term-4.0"
    ),
    pytest.param(
        lambda: TrigPolynomial.from_json_dict({"coefficients": [{"freq": 20.7, "re": 1.0}]}),
        InvalidInputError,
        id="trig-json-freq-20.7",
    ),
    pytest.param(
        lambda: WalshPolynomial.from_json_dict({"coefficients": [{"value_m": 6.9, "coeff": 1.0}]}),
        InvalidInputError,
        id="walsh-json-value_m-6.9",
    ),
    pytest.param(
        lambda: build_summation_matrix("nested-sets", sets=[[20.7], [20.7, 68]]),
        InvalidInputError,
        id="nested-set-key-20.7",
    ),
    pytest.param(
        lambda: build_summation_matrix("custom", rows=[{20.9: 1.0}]),
        InvalidInputError,
        id="custom-row-key-20.9",
    ),
    pytest.param(
        lambda: build_summation_matrix("custom", rows=[{"20.9": 1.0}]),
        InvalidInputError,
        id="custom-row-key-string-20.9",
    ),
    pytest.param(
        lambda: modulation_projection(4.5, [4, 16]), InvalidInputError, id="projection-m-4.5"
    ),
    pytest.param(
        lambda: modulation_projection(4, [0, 4]), InvalidInputError, id="projection-freq-0"
    ),
    pytest.param(
        lambda: modulation_projection(4, [4, 4]), InvalidInputError, id="projection-freq-repeated"
    ),
    pytest.param(
        lambda: inverse_parseval_check(WALSH, FULL, WalshContext(order=2.5)),
        InvalidOrderError,
        id="walsh-context-order-2.5",
    ),
    pytest.param(lambda: _trig_check(1, 1), InvalidOrderError, id="trig-context-order-1"),
    pytest.param(lambda: _trig_check(2, 0), InvalidInputError, id="trig-context-d-0"),
    pytest.param(lambda: _trig_check(2, -1), InvalidInputError, id="trig-context-d-minus-1"),
    pytest.param(
        lambda: enumerate_index_set(SEQ, 1.5), InvalidOrderError, id="enumerate-order-1.5"
    ),
    pytest.param(
        lambda: maximize_ratio(walsh_family(2, 4), 4, ExtremalConfig(restarts=2, seed=-1)),
        InvalidInputError,
        id="extremal-seed-minus-1",
    ),
    pytest.param(
        lambda: maximize_ratio(walsh_family(2, 4), 4, ExtremalConfig(restarts=2, seed=1.5)),
        InvalidInputError,
        id="extremal-seed-1.5",
    ),
    pytest.param(lambda: blowup_probe(2, 4, [2], seed=-1), InvalidInputError, id="blowup-seed-minus-1"),
    pytest.param(lambda: blowup_probe(2, 4, [2.7]), InvalidInputError, id="blowup-budget-2.7"),
    pytest.param(lambda: blowup_probe(2, 4, ["4"]), InvalidInputError, id="blowup-budget-string-4"),
    *(
        pytest.param(
            lambda kw={"restarts": 2, name: value}: maximize_ratio(
                trig_family(SEQ, 1), 4, ExtremalConfig(**kw)
            ),
            InvalidInputError,
            id=f"extremal-{name}-{value}",
        )
        for name, value in (("restarts", 2.5), ("max_iter", 2.5), ("oversample", 8.5))
    ),
    pytest.param(
        lambda: lp_norm_trig(TRIG, 3, oversample=8.5), InvalidInputError, id="lp-oversample-8.5"
    ),
    pytest.param(
        lambda: energy_on_set(TrigPolynomial({10**400: 1.0, 1: 1.0}), THIRD),
        ResourceError,
        id="energy-key-10^400",
    ),
    pytest.param(
        lambda: energy_on_set(TrigPolynomial({2**1023: 1.0, -(2**1023): 1.0}), THIRD),
        ResourceError,
        id="energy-key-difference-2^1024",
    ),
    pytest.param(
        lambda: interval_fourier(THIRD, 10**400), ResourceError, id="interval-fourier-10^400"
    ),
    pytest.param(
        lambda: interval_fourier(THIRD, 10.5), InvalidInputError, id="interval-fourier-10.5"
    ),
    # counts, indices and digit positions: each went through its own
    # check, or none, and crashed or answered for a fractional value
    *(
        pytest.param(call, InvalidInputError, id=name)
        for name, call in {
            "geometric-length-2.5": lambda: geometric_sequence(3, 2.5),
            "dyadic-max-exponent-2.5": lambda: dyadic_sequence(2.5),
            "lambda-bracket-bits-2.5": lambda: critical_lambda_bracket(3, 2.5),
            "counterexample-m-max-20.5": lambda: counterexample_sequence(2, 20.5),
            "rademacher-index-1.5": lambda: rademacher(1.5, DyadicPoint(1, 3)),
            "walsh-exponent-budget-8.5": lambda: maximize_ratio(walsh_family(2, 8.5), 4),
            "walsh-index-exponent-2.5": lambda: WalshIndex((2.5, 1)),
            "experiment-n-max-2.5": lambda: _experiment(2.5),
            "representations-m-12.5": lambda: representations(SEQ, 12.5, 2),
            "mixed-count-m-12.5": lambda: mixed_representation_count(SEQ, 12.5, 1),
            "dyadic-point-numerator-1.5": lambda: DyadicPoint(1.5, 2),
            "experiment-n-max-minus-3": lambda: _experiment(-3),
            "prefix-length-minus-1": lambda: SEQ.prefix(-1),
            "representation-index-minus-1": lambda: SignedRepresentation.build(
                SEQ.terms, (2, 0, -1), (1, 1, 1)
            ),
            "dyadic-point-at-scale-2.5": lambda: DyadicPoint(1, 2).at_scale(2.5),
            "representation-index-past-the-end": lambda: SignedRepresentation.build(
                (4, 16, 64), (3, 0), (1, 1)
            ),
            "representation-no-indices": lambda: SignedRepresentation.build(SEQ.terms, (), ()),
            "projection-freq-4.0": lambda: modulation_projection(20, [4.0, 16]),
            "walsh-family-budget-below-order": lambda: walsh_family(3, 2),
            "trig-family-without-sequence": lambda: trig_family(None, 1),
        }.items()
    ),
    # one sign rule (lacunary._as_sign, which riesz_product shares): the
    # integers +1 and -1 only; a float sign made a float value
    *(
        pytest.param(
            lambda sign=sign: SignedRepresentation.build(SEQ.terms, (1, 0), (sign, 1)),
            InvalidInputError,
            id=f"representation-sign-{sign!r}",
        )
        for sign in (1.0, True, Fraction(1), "1")
    ),
    # one coefficient rule: a trig coefficient is a numbers.Complex
    *(
        pytest.param(
            lambda c=c: TrigPolynomial({4: c}), InvalidInputError, id=f"trig-coefficient-{c!r}"
        )
        for c in ("1", None, [1.0])
    ),
]


@pytest.mark.parametrize("call, error", BAD_INPUTS)
def test_bad_input_raises_its_typed_error_without_warning(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


def test_integer_keys_keep_their_accepted_forms():
    expected = {20: 1.0, 68: 0.5, 80: 0.25}
    keys = ("20", np.int64(68), 80.0)
    assert TrigPolynomial(dict(zip(keys, expected.values()))).coefficients == expected
    walsh = WalshPolynomial({"6": 1.0, np.int32(10): 2.0, 12.0: 3.0})
    assert walsh.coefficients == {6: 1.0, 10: 2.0, 12: 3.0}
    rows = [{"20": 1.0}, {"20": 1.0, 68.0: 0.5}]
    assert build_summation_matrix("custom", rows=rows).rows == ({20: 1.0}, {20: 1.0, 68: 0.5})
    nested = build_summation_matrix("nested-sets", sets=[["20"], [20, "68"]])
    assert nested.rows == ({20: 1.0}, {20: 1.0, 68: 1.0})
    data = {"coefficients": [{"freq": "20", "re": 1.0}]}
    assert TrigPolynomial.from_json_dict(data).coefficients == {20: 1.0 + 0j}
    assert modulation_projection(20.0, [4, 16]) == modulation_projection(20, [4, 16])
    # numpy integer frequencies and signs give the int results
    assert modulation_projection(20, [np.int64(4), 16]) == modulation_projection(20, [4, 16])
    riesz = riesz_product([4, 16], [1, -1])
    assert riesz_product([np.int64(4), np.int32(16)], [1, -1]) == riesz
    assert riesz_product([4, 16], [np.int64(1), np.int32(-1)]) == riesz
    rep = SignedRepresentation.build(SEQ.terms, (np.int64(1), 0), (np.int64(1), -1))
    assert rep == SignedRepresentation.build(SEQ.terms, (1, 0), (1, -1))
    assert all(type(v) is int for v in (*rep.indices, *rep.signs, rep.value, rep.head))
    # any numbers.Complex is a trig coefficient
    coeffs = {4: Fraction(1, 2), 16: np.complex128(1j), 20: np.float32(0.5), 64: 2}
    assert TrigPolynomial(coeffs).coefficients == coeffs
    # a numpy int past 2^62 is widened, not wrapped in the phase reduction
    middle = IntervalSet.parse("1/3:2/3")
    k = 2**62 + 1
    assert interval_fourier(middle, np.int64(k)) == interval_fourier(middle, k)
    # numpy integer counts, indices and digit positions give the int results
    i64, i32 = np.int64, np.int32
    assert THIRD.dyadic_translate(i64(2)) == THIRD.dyadic_translate(2)
    seq = geometric_sequence(i64(3), i32(4))
    assert seq == geometric_sequence(3, 4)
    assert all(type(t) is int for t in geometric_sequence(i64(3), 40).terms)  # no wrap
    assert dyadic_sequence(i32(5)) == dyadic_sequence(5)
    assert critical_lambda_bracket(i64(3), i64(32)) == critical_lambda_bracket(3, 32)
    assert counterexample_sequence(i64(2), i64(20)) == counterexample_sequence(2, 20)
    assert enumerate_index_set(SEQ, i64(2)).entries == enumerate_index_set(SEQ, 2).entries
    assert representations(SEQ, i64(12), 2) == representations(SEQ, 12, 2)
    assert mixed_representation_count(SEQ, i64(12), 1) == 1  # 12 = 16 - 4
    point = DyadicPoint(i64(3), i64(3))
    assert point == DyadicPoint(3, 3) and type(point.numerator) is int
    assert point.digit(i64(2)) == point.digit(2)
    assert rademacher(i64(2), point) == rademacher(2, point)
    assert point.xor_pow2(i64(1)) == point.xor_pow2(1)
    assert point.at_scale(i64(5)) == point.at_scale(5) == point
    assert SEQ.prefix(i64(2)) == SEQ.prefix(2)
    assert validate_lacunary([i64(4), 16], 3) == validate_lacunary([4, 16], 3)
    assert validate_lacunary([i64(4), 8], 3)["first_violation"]["pair"] == (4, 8)
    terms = LacunarySequence([True, i32(4)], 3).terms
    assert terms == (1, 4) and all(type(t) is int for t in terms)
    assert WalshIndex((i64(3), i32(1))).value == 10
    config = ExtremalConfig(restarts=i64(2), max_iter=i64(5), seed=i64(7), oversample=i64(8))
    assert config.to_json_dict() == ExtremalConfig(2, 5, 0.5, 7, 8).to_json_dict()
    assert all(type(v) is int for k, v in config.to_json_dict().items() if k != "step")
    assert repr(_experiment(i64(1))) == repr(_experiment(1))
    assert len(_experiment(1).rows) == 1


@st.composite
def _ratio_cases(draw):
    """Positive terms and a rational lam, with some ratios exactly lam."""
    lam = draw(st.fractions(min_value=Fraction(1, 2), max_value=8, max_denominator=2**70))
    terms = [draw(st.integers(1, 2**64)) * lam.denominator**8]
    for _ in range(draw(st.integers(0, 7))):
        if draw(st.booleans()) and terms[-1] % lam.denominator == 0:
            terms.append(terms[-1] // lam.denominator * lam.numerator)
        else:
            terms.append(draw(st.integers(1, 2**200)))
    return terms, lam


@settings(max_examples=300, deadline=None)
@given(_ratio_cases())
def test_ratio_violation_agrees_with_the_fraction_comparison(case):
    terms, lam = case
    expected = next(
        (i for i in range(len(terms) - 1) if Fraction(terms[i + 1], terms[i]) <= lam), None
    )
    assert _ratio_violation(terms, lam) == expected
