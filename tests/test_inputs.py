"""Input-domain tests: every public entry point refuses a bad exponent,
order, key, frequency list, bound d, search setting, blowup budget or a
trig key past the float range with a typed error, and the accepted key
forms keep working.

Each rule lives in one helper (``lacunary._as_exponent``, ``_as_order``,
``_as_key``, ``trig._as_frequencies``, ``trig._as_oversample``,
``measure._as_float`` and ``inverse._alpha_threshold_exact``), so these
cases pin the helpers through the functions that call them.
"""

import math
import warnings

import numpy as np
import pytest

from lacuna import (
    ExtremalConfig,
    IntervalSet,
    InvalidInputError,
    InvalidOrderError,
    ResourceError,
    TrigContext,
    TrigPolynomial,
    WalshContext,
    WalshPolynomial,
    blowup_probe,
    build_summation_matrix,
    energy_on_set,
    enumerate_index_set,
    geometric_sequence,
    growth_exponent,
    interval_fourier,
    inverse_parseval_check,
    lp_norm_trig,
    lp_norm_walsh,
    maximize_ratio,
    modulation_projection,
    ratio_gradient,
    trig_family,
    walsh_family,
)

SEQ = geometric_sequence(4, 4)
TRIG = TrigPolynomial({20: 1.0, 68: 0.5})
WALSH = WalshPolynomial({6: 1.0, 10: -0.5})
FULL = IntervalSet.full()
THIRD = IntervalSet.parse("0/1:1/3")


def _trig_check(order, d):
    return inverse_parseval_check(TRIG, FULL, TrigContext(SEQ, order, d=d))


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
    # a numpy int past 2^62 is widened, not wrapped in the phase reduction
    middle = IntervalSet.parse("1/3:2/3")
    k = 2**62 + 1
    assert interval_fourier(middle, np.int64(k)) == interval_fourier(middle, k)
