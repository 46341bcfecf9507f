"""Walsh character and shift-sum tests.

The sign oracles below recompute Walsh values from the raw binary
expansion with nothing but string slicing, so every library identity is
checked against an implementation that shares no code with it.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from lacuna import (
    DyadicPoint,
    IntervalSet,
    InvalidInputError,
    InvalidOrderError,
    WalshIndex,
    WalshPolynomial,
    find_alpha,
    rademacher,
    recover_coefficient,
    shift_sum,
    shift_sum_bulk,
    walsh_eval,
)
from lacuna.engine import _CellSpace
from lacuna.walsh import _krawtchouk, _log_quotient, _max_scale, _nearest_root, _reversed_masks


def oracle_digit(x: Fraction, k: int) -> int:
    """k-th binary digit of x in [0,1), right-continuous convention."""
    return int(x * 2**k) % 2


def oracle_walsh(m: int, x: Fraction) -> int:
    sign = 1
    k = 1
    while m >> k or k <= m.bit_length():
        if (m >> k) & 1 and oracle_digit(x, k):
            sign = -sign
        k += 1
        if k > 64:
            break
    return sign


def oracle_shift_sum(n: int, m: int, alpha: Fraction) -> int:
    exps = [k for k in range(1, 64) if (m >> k) & 1]
    total = 0
    for signs in itertools.product((0, 1), repeat=len(exps)):
        x = alpha
        parity = 0
        for s, k in zip(signs, exps):
            if s:
                d = oracle_digit(x, k)
                x = x + Fraction(1, 2**k) * (1 - 2 * d)  # flip digit k
                parity ^= 1
        v = oracle_walsh(n, x)
        total += -v if parity else v
    return total


# --- points and characters ------------------------------------------------


def test_rademacher_basic_values():
    assert rademacher(1, DyadicPoint.from_fraction(Fraction(0))) == 1
    assert rademacher(1, DyadicPoint.from_fraction(Fraction(1, 2))) == -1
    assert rademacher(3, DyadicPoint.from_fraction(Fraction(5, 8))) == -1


def test_walsh_eval_small_example():
    m = WalshIndex.from_value(6)
    assert walsh_eval(m, DyadicPoint.from_fraction(Fraction(0))) == 1
    assert walsh_eval(m, DyadicPoint.from_fraction(Fraction(1, 4))) == -1
    assert walsh_eval(m, DyadicPoint.from_fraction(Fraction(3, 4))) == 1


def test_walsh_eval_matches_string_oracle():
    denom = 32
    for m in (2, 4, 6, 10, 12, 20, 26):
        idx = WalshIndex.from_value(m)
        for i in range(denom):
            x = Fraction(i, denom)
            got = walsh_eval(idx, DyadicPoint.from_fraction(x))
            assert got == oracle_walsh(m, x), (m, x)


def test_walsh_digit_flip_identity():
    """Flipping digit k multiplies w_m by -1 exactly when bit k of m is
    set; exhaustive on the scale-5 grid."""
    for m in (2, 6, 12, 22):
        idx = WalshIndex.from_value(m)
        for i in range(32):
            p = DyadicPoint(i, 5)
            for k in (1, 2, 3, 4, 5):
                flipped = p.xor_pow2(k)
                lhs = walsh_eval(idx, flipped)
                rhs = walsh_eval(idx, p) * (-1 if (m >> k) & 1 else 1)
                assert lhs == rhs


def test_dyadic_point_equality_across_scales():
    a = DyadicPoint.from_fraction(Fraction(1, 2))
    b = DyadicPoint.from_fraction(Fraction(1, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert a.at_scale(6).scale == 6
    assert DyadicPoint.parse("3/8").as_fraction() == Fraction(3, 8)


def test_dyadic_point_zero_float_and_foreign_equality():
    assert DyadicPoint(0, 3) == DyadicPoint.zero()
    assert hash(DyadicPoint(0, 3)) == hash(DyadicPoint.zero())
    assert float(DyadicPoint(3, 3)) == 0.375
    assert DyadicPoint(1, 1).__eq__(0.5) is NotImplemented
    assert DyadicPoint(1, 1) != 0.5


def test_dyadic_point_at_a_coarser_scale():
    coarse = DyadicPoint(4, 4).at_scale(2)
    assert (coarse.numerator, coarse.scale) == (1, 2)
    assert coarse.as_fraction() == Fraction(1, 4)
    with pytest.raises(InvalidInputError):
        DyadicPoint(3, 4).at_scale(2)  # 3/16 needs four digits


def test_dyadic_point_rejects_bad_values():
    with pytest.raises(InvalidInputError):
        DyadicPoint.from_fraction(Fraction(1, 3))
    with pytest.raises(InvalidInputError):
        DyadicPoint.parse("7/5")
    with pytest.raises(InvalidInputError):
        DyadicPoint.from_fraction(Fraction(9, 8))


def test_walsh_index_validation():
    idx = WalshIndex.from_value(20)
    assert idx.exponents == (4, 2)
    assert idx.order == 2
    assert idx.value == 20
    with pytest.raises(InvalidInputError):
        WalshIndex.from_value(1)
    with pytest.raises(InvalidInputError):
        WalshIndex.from_value(0)


# --- polynomials ----------------------------------------------------------


def test_cell_masks_are_the_reversed_masks():
    def reversed_mask(m, scale):
        # cell index bit (scale - k) is binary digit k of the point
        return sum(1 << (scale - k) for k in WalshIndex.from_value(m).exponents) if m else 0

    rng = np.random.default_rng(26)
    supports = [[], [0], [0, 2], [1 << 24], [0, 2 + (1 << 24)]]
    for scale in (1, 2, 5, 12, 20, 24):
        values = 2 * rng.integers(0, 1 << scale, size=40)
        supports.append(sorted({0, 1 << scale, *map(int, values)}))
    for values in supports:
        scale = _max_scale(values)
        want = [reversed_mask(m, scale) for m in values]
        assert _CellSpace(values)._masks.tolist() == want, values
    # shift_sum_bulk's masks reach scale 62
    values = [2 * int(v) for v in rng.integers(0, 1 << 61, size=40)] + [1 << 62, 0]
    assert _reversed_masks(values, 62).tolist() == [reversed_mask(m, 62) for m in values]


def test_cell_values_match_evaluate():
    poly = WalshPolynomial({6: 1.5, 10: -0.25, 0: 2.0})
    values = poly.cell_values()
    scale = poly.max_scale
    for i in range(1 << scale):
        assert values[i] == pytest.approx(
            poly.evaluate(DyadicPoint(i, scale)), abs=1e-12
        )


def test_evaluate_with_fraction_coefficients_equals_cell_values():
    # dyadic-rational coefficients keep every partial sum exact, so the
    # point evaluation and the transform must agree bit for bit
    poly = WalshPolynomial(
        {0: Fraction(1, 8), 6: Fraction(3, 4), 10: Fraction(-5, 16), 24: Fraction(7, 2)}
    )
    values = poly.cell_values()
    scale = poly.max_scale
    for i in range(1 << scale):
        got = poly.evaluate(DyadicPoint(i, scale))
        assert type(got) is float and got == values[i], i


def test_cell_values_of_constant_and_zero():
    assert WalshPolynomial({0: 2.0}).cell_values().tolist() == [2.0]
    assert WalshPolynomial({}).cell_values().tolist() == [0.0]


def test_polynomial_rejects_non_real_coefficients():
    for bad in (1j, complex(2.0, 0.0), np.complex128(1.0), "1.5", None):
        with pytest.raises(InvalidInputError):
            WalshPolynomial({6: bad})
    poly = WalshPolynomial({6: Fraction(1, 2), 10: np.float64(2.0), 12: 3, 2: 0.0})
    assert poly.coefficients == {6: Fraction(1, 2), 10: 2.0, 12: 3}


def test_polynomial_roundtrip_and_norm():
    poly = WalshPolynomial({6: 2.5, 20: -1.25})
    again = WalshPolynomial.from_json_dict(poly.to_json_dict())
    assert again.coefficients == poly.coefficients
    assert poly.norm2() == pytest.approx((2.5**2 + 1.25**2) ** 0.5, abs=1e-12)


def test_polynomial_json_dumps_any_real_coefficient():
    poly = WalshPolynomial({6: Fraction(1, 2), 10: 3, 12: np.float64(-0.25)})
    data = json.loads(json.dumps(poly.to_json_dict()))
    assert data == {
        "coefficients": [
            {"value_m": 6, "coeff": 0.5},
            {"value_m": 10, "coeff": 3.0},
            {"value_m": 12, "coeff": -0.25},
        ]
    }
    assert WalshPolynomial.from_json_dict(data).coefficients == poly.coefficients


# --- signed shift sums ----------------------------------------------------


def test_shift_sum_diagonal_and_off_diagonal():
    m = WalshIndex.from_value(6)
    zero = DyadicPoint.zero()
    assert shift_sum(m, m, zero) == 4
    assert shift_sum(WalshIndex.from_value(10), m, zero) == 0


def test_shift_sum_matches_oracle_on_grid():
    indices = [6, 10, 12, 18, 20, 24]
    for n, m in itertools.product(indices, repeat=2):
        for i in range(16):
            alpha = Fraction(i, 16)
            got = shift_sum(
                WalshIndex.from_value(n),
                WalshIndex.from_value(m),
                DyadicPoint.from_fraction(alpha),
            )
            assert got == oracle_shift_sum(n, m, alpha), (n, m, alpha)


def test_shift_sum_exact_selection_property():
    """The sum is +-2^l on the diagonal and 0 off it, with zero
    tolerance, for random alphas and all small order-2 index pairs."""
    rng = np.random.default_rng(42)
    indices = [v for v in range(2, 64) if v % 2 == 0 and bin(v).count("1") == 2]
    for _ in range(20):
        alpha = DyadicPoint(int(rng.integers(0, 256)), 8)
        n = WalshIndex.from_value(int(rng.choice(indices)))
        m = WalshIndex.from_value(int(rng.choice(indices)))
        s = shift_sum(n, m, alpha)
        if n.value == m.value:
            assert abs(s) == 4
        else:
            assert s == 0


def test_shift_sum_order_mismatch():
    with pytest.raises(InvalidOrderError):
        shift_sum(WalshIndex.from_value(14), WalshIndex.from_value(6), DyadicPoint.zero())


def test_shift_sum_bulk_matches_scalar():
    rng = np.random.default_rng(3)
    ns = [WalshIndex.from_value(v) for v in (6, 10, 18, 34)]
    m = WalshIndex.from_value(10)
    alphas = [DyadicPoint(int(rng.integers(0, 64)), 6) for _ in range(17)]
    table = shift_sum_bulk(ns, m, alphas)
    assert table.shape == (17, 4)
    for i, alpha in enumerate(alphas):
        for j, n in enumerate(ns):
            assert table[i, j] == shift_sum(n, m, alpha)


def test_shift_sum_bulk_scale_cap():
    big = WalshIndex.from_value(1 << 63)
    with pytest.raises(Exception):
        shift_sum_bulk([big], big, [DyadicPoint.zero()])


# --- translate-and-intersect search ---------------------------------------


def test_find_alpha_full_circle():
    E = IntervalSet([(0, 1)])
    point = find_alpha(E, (2, 1))
    assert point is not None
    assert point.as_fraction() == 0


def test_find_alpha_four_fifths_set():
    E = IntervalSet([(0, Fraction(4, 5))])
    point = find_alpha(E, (2, 1))
    assert point is not None
    assert point.as_fraction() == 0
    # all four digit-flip shifts must sit inside E
    for bits in range(4):
        shifted = point
        if bits & 1:
            shifted = shifted.xor_pow2(2)
        if bits & 2:
            shifted = shifted.xor_pow2(1)
        assert E.contains(shifted.as_fraction())


def test_find_alpha_single_exponent():
    E = IntervalSet([(0, Fraction(7, 10))])
    point = find_alpha(E, (1,))
    assert point is not None
    assert point.as_fraction() == 0


def test_find_alpha_refines_the_scale_until_a_point_fits():
    # the surviving interval [1/7, 2/13) is 1/91 wide: no multiple of 2^-5
    # or 2^-6 lies in it, and 19/2^7 is the first
    E = IntervalSet.parse("1/7:2/13,9/14:17/26")
    point = find_alpha(E, (1,))
    assert point.as_fraction() == Fraction(19, 2**7)
    assert E.contains(point.as_fraction())
    assert E.contains(point.xor_pow2(1).as_fraction())


def test_find_alpha_shift_membership_property():
    rng = np.random.default_rng(11)
    for _ in range(10):
        # a fat random set: one gap of width < 1/8
        gap_start = Fraction(int(rng.integers(0, 100)), 128)
        gap = Fraction(int(rng.integers(1, 12)), 128)
        E = IntervalSet([(0, gap_start), (gap_start + gap, 1)])
        point = find_alpha(E, (3, 2, 1))
        assert point is not None
        for bits in range(8):
            shifted = point
            for j, k in enumerate((3, 2, 1)):
                if (bits >> j) & 1:
                    shifted = shifted.xor_pow2(k)
            assert E.contains(shifted.as_fraction())


def test_find_alpha_empty_recursion():
    # [0, 2/5) meets its digit-1 flip in a set too thin to survive
    E = IntervalSet([(0, Fraction(2, 5))])
    assert find_alpha(E, (1,)) is None


def test_find_alpha_input_validation():
    E = IntervalSet([(0, 1)])
    with pytest.raises(InvalidInputError):
        find_alpha(E, ())
    with pytest.raises(InvalidInputError):
        find_alpha(E, (1, 2))
    with pytest.raises(InvalidInputError):
        find_alpha(E, (2, 0))


# --- coefficient recovery -------------------------------------------------


def test_recover_single_term():
    poly = WalshPolynomial({6: 2.5})
    got = recover_coefficient(poly, WalshIndex.from_value(6), DyadicPoint.zero())
    assert got == 2.5


def test_recover_zero_polynomial():
    poly = WalshPolynomial({})
    got = recover_coefficient(poly, WalshIndex.from_value(6), DyadicPoint.zero())
    assert got == 0.0


def test_recover_two_terms():
    poly = WalshPolynomial({6: 2.5, 10: 1.1})
    alpha = DyadicPoint.from_fraction(Fraction(5, 8))
    assert recover_coefficient(poly, WalshIndex.from_value(6), alpha) == 2.5
    assert recover_coefficient(poly, WalshIndex.from_value(10), alpha) == 1.1


def test_recover_roundtrip_is_float_exact():
    """Dyadic-rational coefficients survive the signed-sum average with
    no rounding at all, so equality here is ==, not approx."""
    rng = np.random.default_rng(99)
    indices = [v for v in range(2, 256) if v % 2 == 0 and bin(v).count("1") == 2]
    for _ in range(50):
        support = rng.choice(indices, size=4, replace=False)
        coeffs = {
            int(v): float(rng.integers(-64, 65)) / 16.0 for v in support
        }
        poly = WalshPolynomial(coeffs)
        alpha = DyadicPoint(int(rng.integers(0, 512)), 9)
        for v, c in coeffs.items():
            got = recover_coefficient(poly, WalshIndex.from_value(v), alpha)
            assert got == c, (v, c, got)


def test_recover_from_callable():
    def sampler(p: DyadicPoint) -> float:
        return 3.0 * walsh_eval(WalshIndex.from_value(12), p)

    got = recover_coefficient(sampler, WalshIndex.from_value(12), DyadicPoint.zero())
    assert got == 3.0


def fraction_nearest_root(num: int, den: int, q: int) -> float:
    """The reference ``_nearest_root``: each midpoint compared as a ``Fraction``."""
    target = Fraction(num, den)
    root = math.exp(_log_quotient(num, den) / q)
    while True:
        up, down = math.nextafter(root, math.inf), math.nextafter(root, 0.0)
        if ((Fraction(root) + Fraction(up)) / 2) ** q < target:
            root = up
        elif ((Fraction(root) + Fraction(down)) / 2) ** q > target:
            root = down
        else:
            return root


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_nearest_root_matches_the_fraction_midpoints(l):
    """The integer midpoint test gives the doubles of the Fraction one on the
    Krawtchouk moments behind the even-p ratios of full families: every
    even q from 4 to 64 up to n = 1000, q = 128, 512 and 1024 on every
    fourth n up to 40 and at 100 and 200, and three q at n = 4000, whose
    moments dominate the cost."""
    for n in [*range(l, 41), 100, 200, 1000, 4000]:
        weights, levels = _krawtchouk(n, l)
        size = math.comb(n, l)
        q_list = [4, 16, 64] if n > 1000 else range(4, 65, 2)
        q_list = [*q_list, 128, 512, 1024] if n in (*range(l, 41, 4), 100, 200) else q_list
        for q in q_list:
            num = sum(w * v**q for w, v in zip(weights, levels))
            den = size ** (q // 2) << n
            assert _nearest_root(num, den, q) == fraction_nearest_root(num, den, q), (n, q)
