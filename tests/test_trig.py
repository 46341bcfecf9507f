"""Trigonometric polynomial, norm, and Riesz product tests.

Norm oracles: p = 2 is Parseval (exact); p = 4 of a + a* has the closed
form from expanding the fourth power; everything else is cross-checked
by independent dense quadrature at a different grid size.
"""

import itertools
import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacuna import (
    AliasingError,
    DyadicPoint,
    IntervalSet,
    InvalidInputError,
    InvalidSupportError,
    ResourceError,
    TrigPolynomial,
    UndefinedRatioError,
    WalshPolynomial,
    cos_product_expand,
    decorate_with_walsh_signs,
    dyadic_sequence,
    energy_on_set,
    enumerate_index_set,
    geometric_sequence,
    khintchine_ratio,
    lp_norm_trig,
    lp_norm_walsh,
    modulation_projection,
    riesz_product,
)
from lacuna.engine import _GridSpace
from lacuna.walsh import _full_shape, _krawtchouk_ratio


def _symmetric_ratio(values, p):
    shape = _full_shape(values)
    return None if shape is None else _krawtchouk_ratio(*shape, p)


def synthesize(poly: TrigPolynomial, N: int) -> np.ndarray:
    """poly on the N-point grid j/N, as the norms and the search take it."""
    space = _GridSpace(poly.coefficients, N)
    return space.values([complex(c) for c in poly.coefficients.values()])


def oracle_lp(poly: TrigPolynomial, p: float, n: int = 40011) -> float:
    """Riemann sum on a deliberately unrelated odd grid size."""
    u = (np.arange(n) + 0.5) / n
    vals = np.zeros(n, dtype=complex)
    for m, c in poly.coefficients.items():
        vals += complex(c) * np.exp(2j * np.pi * m * u)
    return float(np.mean(np.abs(vals) ** p) ** (1 / p))


# --- grids ----------------------------------------------------------------


def test_grid_single_exponential_is_roots_of_unity():
    values = synthesize(TrigPolynomial({1: 1.0}), 8)
    want = np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.allclose(values, want, atol=1e-12)


def test_grid_constant():
    values = synthesize(TrigPolynomial({0: 3.5}), 4)
    assert np.allclose(values, 3.5, atol=1e-14)


def test_grid_two_sided_cosine():
    values = synthesize(TrigPolynomial({1: 1.0, -1: 1.0}), 8)
    want = 2 * np.cos(2 * np.pi * np.arange(8) / 8)
    assert np.allclose(values, want, atol=1e-12)


def test_grid_requires_enough_points():
    with pytest.raises(AliasingError):
        synthesize(TrigPolynomial({4: 1.0}), 8)


def test_grid_coefficients_refuse_aliased_frequencies():
    with pytest.raises(AliasingError):
        _GridSpace([4, 8], 16)


def test_grid_roundtrip():
    poly = TrigPolynomial({4: 1.5 - 0.5j, -16: 2.0, 20: 0.125j})
    values = synthesize(poly, 64)
    back = _GridSpace([4, -16, 20], 64).adjoint_mean(values)
    for m, b in zip([4, -16, 20], back):
        assert b == pytest.approx(complex(poly.coefficients[m]), abs=1e-12)


# --- norms ----------------------------------------------------------------


def test_lp_single_character_has_constant_modulus():
    poly = TrigPolynomial({7: 3 - 4j})
    for p in (1, 2, 3, 4, 6.5):
        assert lp_norm_trig(poly, p) == pytest.approx(5.0, abs=1e-13)


def test_lp_cosine_fourth_moment():
    # integral of (2cos)^4 = 6, so the 4-norm is 6^(1/4)
    poly = TrigPolynomial({3: 1.0, -3: 1.0})
    assert lp_norm_trig(poly, 4) == pytest.approx(6**0.25, abs=1e-12)


def test_lp_two_is_exact_parseval():
    poly = TrigPolynomial({4: 1.5, -16: 2j, 64: 0.25})
    want = math.sqrt(1.5**2 + 4 + 0.25**2)
    assert lp_norm_trig(poly, 2) == want
    # Walsh too: no cells, so no rounding in the ratio and no scale cap
    rng = np.random.default_rng(0)
    for _ in range(20):
        walsh = WalshPolynomial({m: rng.standard_normal() for m in (6, 10, 12, 18, 20, 24)})
        assert lp_norm_walsh(walsh, 2) == walsh.norm2()
        assert khintchine_ratio(walsh, 2) == 1.0
    assert lp_norm_walsh(WalshPolynomial({2**30: 1.5}), 2) == 1.5


def test_lp_monotone_in_p():
    poly = TrigPolynomial({4: 1.0, 16: -0.5, 64: 0.25j})
    norms = [lp_norm_trig(poly, p) for p in (1, 2, 3, 4, 6, 8)]
    for a, b in zip(norms, norms[1:]):
        assert a <= b + 1e-12


def test_lp_oversample_stability():
    poly = TrigPolynomial({4: 1.0, 16: 1.0, 64: 1.0})
    a = lp_norm_trig(poly, 3, oversample=8)
    b = lp_norm_trig(poly, 3, oversample=16)
    assert a == pytest.approx(b, abs=1e-6)
    assert a == pytest.approx(oracle_lp(poly, 3), abs=1e-6)


@pytest.mark.parametrize("signed", [False, True])
def test_lp_at_even_p_matches_a_fine_grid(signed):
    """At even p the norm runs on the smaller exact grid; it agrees with
    the plain quadrature at oversample 64."""
    rng = np.random.default_rng(11 + signed)
    for _ in range(10):
        keys = rng.choice(np.arange(-400 if signed else 1, 401), size=7, replace=False)
        poly = TrigPolynomial({int(m): complex(*rng.standard_normal(2)) for m in keys})
        fine = np.abs(synthesize(poly, 64 * (2 * poly.degree + 1)))
        for p in (4, 6, 8, 16):
            want = float(np.mean(fine**p)) ** (1 / p)
            assert lp_norm_trig(poly, p) == pytest.approx(want, rel=1e-12), p


def test_next_smooth_matches_brute_force():
    from lacuna.trig import _next_smooth

    def smooth(k):
        for f in (2, 3, 5):
            while k % f == 0:
                k //= f
        return k == 1

    want = None
    for n in range(10**4, 0, -1):
        if smooth(n):
            want = n
        assert _next_smooth(n) == want, n


def test_grid_cap_raises_before_allocating():
    import tracemalloc

    values = enumerate_index_set(geometric_sequence(3, 20), 2, "positive").values()
    poly = TrigPolynomial({m: 1.0 for m in values})
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            lp_norm_trig(poly, 3)
        with pytest.raises(ResourceError):
            synthesize(poly, 8 * (2 * poly.degree + 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # p = 2 needs no grid, so the cap does not apply
    assert lp_norm_trig(poly, 2) == poly.norm2()
    # the cap is 2^24 points; the space allocates nothing until it evaluates
    assert _GridSpace([1], 1 << 24).size == 1 << 24
    with pytest.raises(ResourceError):
        _GridSpace([1], (1 << 24) + 1)


def test_lp_validation():
    poly = TrigPolynomial({4: 1.0})
    with pytest.raises(InvalidInputError):
        lp_norm_trig(poly, 0.5)
    with pytest.raises(InvalidInputError):
        lp_norm_trig(poly, 3, oversample=2)
    assert lp_norm_trig(TrigPolynomial({}), 3) == 0.0


def test_walsh_lp_norms():
    assert lp_norm_walsh(WalshPolynomial({6: 1.0}), 4) == pytest.approx(1.0, abs=1e-14)
    # (w2 + w4)^4 averages to 8: values are +-2 on half the cells, 0 elsewhere
    poly = WalshPolynomial({2: 1.0, 4: 1.0})
    assert lp_norm_walsh(poly, 4) == pytest.approx(8**0.25, abs=1e-13)
    assert lp_norm_walsh(WalshPolynomial({}), 4) == 0.0


def test_walsh_lp_on_an_equal_full_family_is_the_krawtchouk_sum():
    for l, n in ((1, 9), (2, 10), (3, 8)):
        values = enumerate_index_set(dyadic_sequence(n), l, "dyadic").values()
        for c in (0.3, -2, Fraction(1, 3)):
            poly = WalshPolynomial({m: c for m in values})
            scale = abs(float(c)) * math.sqrt(len(values))
            for p in (1, 3, 4, 5.5, 8, 32):
                want = _symmetric_ratio(values, p)
                assert lp_norm_walsh(poly, p) / scale == pytest.approx(want, rel=1e-15)
                assert khintchine_ratio(poly, p) == pytest.approx(want, rel=3e-16)


def test_walsh_lp_on_an_equal_full_family_has_no_cell_cap():
    values = enumerate_index_set(dyadic_sequence(26), 2, "dyadic").values()
    equal = WalshPolynomial({m: 1.0 for m in values})
    assert lp_norm_walsh(equal, 8) > 0
    assert khintchine_ratio(equal, 8) == pytest.approx(_symmetric_ratio(values, 8), rel=3e-16)
    # a partial family, or one unequal coefficient, still takes the cells
    for coeffs in (
        {m: 1.0 for m in values[1:]},
        {**{m: 1.0 for m in values}, values[0]: 2.0},
    ):
        with pytest.raises(ResourceError, match="scale 24"):
            lp_norm_walsh(WalshPolynomial(coeffs), 8)


def test_walsh_lp_cells_number_two_to_the_distinct_digits():
    # digits 30 and 1: values +-1 +-2 on 4 cells, far below the cap
    poly = WalshPolynomial({2**30: 1.0, 2: 2.0})
    assert lp_norm_walsh(poly, 3) == pytest.approx(14 ** (1 / 3), rel=1e-15)
    assert khintchine_ratio(poly, 3) == pytest.approx(14 ** (1 / 3) / 5**0.5, rel=1e-15)
    # r1 (r30 + 1): +-2 on half the cells, 0 elsewhere
    poly = WalshPolynomial({2**30 + 2: 1.0, 2: 1.0})
    assert lp_norm_walsh(poly, 3) == pytest.approx(4 ** (1 / 3), rel=1e-15)
    assert khintchine_ratio(poly, 3) == pytest.approx(4 ** (1 / 3) / 2**0.5, rel=1e-15)


def test_walsh_lp_relabelled_digits_match_the_full_cells():
    from lacuna.engine import _CellSpace, _lp_norm
    from lacuna.walsh import _compact_digits

    rng = np.random.default_rng(18)
    for _ in range(40):
        digits = rng.choice(np.arange(1, 17), size=int(rng.integers(2, 7)), replace=False)
        coeffs = {}
        for _ in range(int(rng.integers(1, 9))):
            order = int(rng.integers(1, min(3, len(digits)) + 1))
            chosen = rng.choice(digits, size=order, replace=False)
            coeffs[sum(1 << int(k) for k in chosen)] = float(rng.standard_normal())
        poly = WalshPolynomial(coeffs)
        for p in (1, 3, 4, 7.5):
            full = _lp_norm(poly, p, lambda: _CellSpace(list(poly.coefficients)))
            assert lp_norm_walsh(poly, p) == pytest.approx(full, rel=1e-13), (coeffs, p)
    # digits already 1..n: the same map, so the norm is bit-identical
    coeffs = {6: 0.5, 10: -1.25, 12: 2.0, 18: 0.75, 20: -0.5, 24: 1.5}
    assert _compact_digits(coeffs) is coeffs
    poly = WalshPolynomial(coeffs)
    assert lp_norm_walsh(poly, 3) == _lp_norm(poly, 3, lambda: _CellSpace(list(coeffs)))


def test_lp_norms_do_not_overflow_at_large_p():
    # cell values 150 and -50: 150**200 is far past the float range
    coeffs = {6: 50, 10: 50, 12: 50}
    cells = WalshPolynomial(coeffs).cell_values()
    total = sum(int(v) ** 200 for v in cells)  # exact, Python integers
    exact = math.exp((math.log(total) - math.log(len(cells))) / 200)
    got = lp_norm_walsh(WalshPolynomial(coeffs), 200)
    assert got == pytest.approx(exact, rel=1e-12)
    trig = lp_norm_trig(TrigPolynomial(coeffs), 200)
    unit = lp_norm_trig(TrigPolynomial({m: 1 for m in coeffs}), 200)
    assert math.isfinite(trig)
    assert trig == pytest.approx(50 * unit, rel=1e-12)


# --- moment-comparison ratios ---------------------------------------------


def test_ratio_single_term_is_one():
    assert khintchine_ratio(TrigPolynomial({5: 2.0}), 4) == pytest.approx(1.0, abs=1e-12)
    assert khintchine_ratio(WalshPolynomial({6: 3.0}), 4) == pytest.approx(1.0, abs=1e-12)


def test_ratio_zero_polynomial_rejected():
    with pytest.raises(UndefinedRatioError):
        khintchine_ratio(TrigPolynomial({}), 4)
    with pytest.raises(UndefinedRatioError):
        khintchine_ratio(WalshPolynomial({}), 4)


def test_ratio_walsh_chaos_respects_moment_bound():
    """Order-l Walsh chaos obeys ||S||_p <= (p-1)^(l/2) ||S||_2."""
    rng = np.random.default_rng(5)
    seq = dyadic_sequence(6)
    for l in (2, 3):
        iset = enumerate_index_set(seq, l, "dyadic")
        values = sorted(iset.values())
        for _ in range(10):
            support = rng.choice(values, size=min(6, len(values)), replace=False)
            poly = WalshPolynomial(
                {int(v): float(rng.standard_normal()) for v in support}
            )
            for p in (3, 4, 6):
                assert khintchine_ratio(poly, p) <= (p - 1) ** (l / 2) + 1e-9


def test_ratio_trig_chaos_respects_moment_bound():
    rng = np.random.default_rng(6)
    seq = geometric_sequence(4, 6)
    l = 2
    iset = enumerate_index_set(seq, l, "signed")
    values = sorted(iset.values())
    for _ in range(10):
        support = rng.choice(values, size=6, replace=False)
        poly = TrigPolynomial(
            {
                int(v): complex(rng.standard_normal(), rng.standard_normal())
                for v in support
            }
        )
        for p in (3, 4, 6):
            assert khintchine_ratio(poly, p) <= (8 * (p - 1)) ** (l / 2) + 1e-6


# --- scale-safe mass and norm ---------------------------------------------

# pair sums of 4, 16, 64, 256 and order-2 indices over five digits
TRIG_KEYS = (20, 68, 80, 260, 272, 320)
WALSH_KEYS = (6, 10, 12, 18, 20, 24, 34, 36, 40, 48)
SCALE_SETS = (IntervalSet.parse("0/1:1/3"), IntervalSet.parse("1/7:2/3,5/6:99/100"))
_MAGNITUDE = st.floats(1e-3, 1e3)
_REAL = st.tuples(_MAGNITUDE, st.booleans()).map(lambda m: -m[0] if m[1] else m[0])


def test_mass_and_norm_are_the_direct_sums_bit_for_bit():
    """Power-of-two scaling changes no bit where the squares are normal:
    the mass equals the direct sum of squares, on floats, ints, Fractions
    and numpy scalars over many magnitudes."""
    rng = np.random.default_rng(36)
    kinds = (
        lambda x: x,
        lambda x: int(x * 1e6),
        lambda x: Fraction(int(x * 1e6), int(rng.integers(1, 10**6))),
        lambda x: np.float32(rng.standard_normal()),
        np.float64,
        lambda x: np.int64(math.fmod(x * 1e6, 2.0**62)),
    )
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-100, 100)
        n = int(rng.integers(1, len(WALSH_KEYS) + 1))
        values = [
            kinds[int(rng.integers(len(kinds)))](rng.standard_normal() * scale)
            for _ in range(n)
        ]
        walsh = WalshPolynomial(dict(zip(WALSH_KEYS, values)))
        want = float(sum(float(a) ** 2 for a in walsh.coefficients.values()))
        assert walsh.mass == want
        assert walsh.norm2() == math.sqrt(want)
        trig = TrigPolynomial({m: v * (1 + 1j) for m, v in zip(TRIG_KEYS, values)})
        want = float(sum(abs(complex(c)) ** 2 for c in trig.coefficients.values()))
        assert trig.mass == want
        assert trig.norm2() == math.sqrt(want)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_REAL, _REAL), min_size=1, max_size=len(TRIG_KEYS)),
    st.lists(_REAL, min_size=1, max_size=len(WALSH_KEYS)),
    st.integers(-600, 600),
)
def test_norm_and_ratio_are_scale_free_under_powers_of_two(trig, walsh, k):
    """t = 2^k with |k| up to 600: past 540 the unscaled squares of unit
    coefficients overflow or underflow, and the scaled ones stay exact.
    The L^p norms scale by t and the energies by t^2 bit for bit wherever
    that is normal; an energy past the float range raises."""
    t = 2.0**k
    for S in (
        TrigPolynomial({m: complex(*c) for m, c in zip(TRIG_KEYS, trig)}),
        WalshPolynomial(dict(zip(WALSH_KEYS, walsh))),
    ):
        tS = type(S)({m: t * c for m, c in S.coefficients.items()})
        assert tS.norm2() == t * S.norm2()
        assert khintchine_ratio(tS, 4) == khintchine_ratio(S, 4)
        lp_norm = lp_norm_trig if isinstance(S, TrigPolynomial) else lp_norm_walsh
        for p in (3, 4):
            assert lp_norm(tS, p) == t * lp_norm(S, p)
        for E in SCALE_SETS:
            try:
                want = math.ldexp(energy_on_set(S, E), 2 * k)
            except OverflowError:
                with pytest.raises(ResourceError, match="energy"):
                    energy_on_set(tS, E)
                continue
            if abs(want) >= sys.float_info.min:
                assert energy_on_set(tS, E) == want


def test_norms_and_energies_near_the_float_limit():
    # the grid values reach 2e308, past the range; the norms do not
    assert lp_norm_trig(TrigPolynomial({1: 1e308, 2: 1e308}), 4) == 1.5650845800732875e308
    assert lp_norm_walsh(WalshPolynomial({6: 1e308, 10: 1e308}), 4) == 1.681792830507429e308
    # an equal full family takes the Krawtchouk path at the same scale
    full = {6: 2.0**1000, 10: 2.0**1000, 12: 2.0**1000}
    unit = lp_norm_walsh(WalshPolynomial({m: 1.0 for m in full}), 4)
    assert lp_norm_walsh(WalshPolynomial(full), 4) == 2.0**1000 * unit
    with pytest.raises(ResourceError, match="L\\^4 norm"):
        lp_norm_walsh(WalshPolynomial({m: 1e308 for m in full}), 4)
    E = IntervalSet.parse("0/1:1/2")
    for kind in (TrigPolynomial, WalshPolynomial):
        for coeffs in ({4: 1e300, 16: 1e300}, {4: 10**400}):
            with pytest.raises(ResourceError, match="energy"):
                energy_on_set(kind(coeffs), E)


def test_extreme_coefficients_keep_their_norms_and_ratios():
    unit = khintchine_ratio(TrigPolynomial({4: 1.0, 16: 1.0}), 4)
    tiny = TrigPolynomial({4: 1e-200, 16: 1e-200})
    assert tiny.norm2() == pytest.approx(math.sqrt(2) * 1e-200, rel=1e-15)
    assert khintchine_ratio(tiny, 4) == pytest.approx(unit, rel=1e-15)
    walsh_unit = khintchine_ratio(WalshPolynomial({6: 1.0, 10: 1.0}), 4)
    walsh_tiny = WalshPolynomial({6: 1e-200, 10: 1e-200})
    assert khintchine_ratio(walsh_tiny, 4) == pytest.approx(walsh_unit, rel=1e-15)
    # the mass 1e400 overflows, the norm and the ratio do not
    for S in (TrigPolynomial({4: 1e200, 16: 1.0}), WalshPolynomial({6: 1e200, 10: 1.0})):
        assert S.norm2() == 1e200
        assert khintchine_ratio(S, 4) == pytest.approx(1.0, rel=1e-15)
        with pytest.raises(ResourceError, match="coefficient mass"):
            S.mass
    # exact ints and Fractions are scaled before their one rounding
    exact = TrigPolynomial({4: Fraction(1, 10**200), 16: Fraction(-1, 10**200)})
    assert exact.norm2() == pytest.approx(math.sqrt(2) * 1e-200, rel=1e-15)
    assert TrigPolynomial({4: 10**200}).norm2() == 1e200
    with pytest.raises(ResourceError, match="L\\^2 norm"):
        TrigPolynomial({4: 10**400}).norm2()


# --- cosine products and Riesz weights ------------------------------------


def test_cos_expand_single_frequency():
    poly = cos_product_expand([5])
    assert poly.coefficients == {5: Fraction(1, 2), -5: Fraction(1, 2)}


def test_cos_expand_two_frequencies():
    poly = cos_product_expand([4, 16])
    want = {
        20: Fraction(1, 4),
        -20: Fraction(1, 4),
        12: Fraction(1, 4),
        -12: Fraction(1, 4),
    }
    assert dict(poly.coefficients) == want


def test_cos_expand_three_lacunary_has_no_constant():
    poly = cos_product_expand([4, 16, 64])
    assert 0 not in poly.coefficients
    assert len(poly.coefficients) == 8
    assert all(c == Fraction(1, 8) for c in poly.coefficients.values())


def test_cos_expand_validation():
    with pytest.raises(InvalidInputError):
        cos_product_expand([4, 4])
    with pytest.raises(InvalidInputError):
        cos_product_expand([])
    with pytest.raises(InvalidInputError):
        cos_product_expand([4, -16])


def test_cos_expand_matches_pointwise_product():
    freqs = [4, 16, 64]
    poly = cos_product_expand(freqs)
    for x in np.linspace(0, 1, 37, endpoint=False):
        direct = np.prod([math.cos(2 * math.pi * n * x) for n in freqs])
        series = sum(
            complex(c) * np.exp(2j * np.pi * m * x)
            for m, c in poly.coefficients.items()
        )
        assert series.imag == pytest.approx(0.0, abs=1e-10)
        assert series.real == pytest.approx(direct, abs=1e-10)


def test_riesz_single_factor():
    poly = riesz_product([5], [1])
    assert poly.coefficients == {
        0: Fraction(1),
        5: Fraction(1, 2),
        -5: Fraction(1, 2),
    }


def test_riesz_constant_coefficient_exactly_one():
    poly = riesz_product([4, 16, 64, 256], [1, -1, 1, -1])
    assert poly.coefficients[0] == Fraction(1)


def test_riesz_is_nonnegative_on_grid():
    poly = riesz_product([4, 16, 64], [-1, 1, -1])
    values = synthesize(poly, 512)
    assert np.min(values.real) >= -1e-9
    assert np.max(np.abs(values.imag)) < 1e-10


def test_riesz_matches_pointwise_product():
    freqs = [5, 17, 64]
    signs = [1, -1, 1]
    poly = riesz_product(freqs, signs)
    for x in np.linspace(0, 1, 29, endpoint=False):
        direct = np.prod(
            [1 + e * math.cos(2 * math.pi * n * x) for n, e in zip(freqs, signs)]
        )
        series = sum(
            complex(c) * np.exp(2j * np.pi * m * x)
            for m, c in poly.coefficients.items()
        )
        assert series.real == pytest.approx(direct, abs=1e-10)


def test_riesz_validation():
    with pytest.raises(InvalidInputError):
        riesz_product([4, 8], [1, 1])  # ratio 2 is not > 3
    with pytest.raises(InvalidInputError):
        riesz_product([4, 16], [1])
    with pytest.raises(InvalidInputError):
        riesz_product([4, 16], [1, 2])
    with pytest.raises(ResourceError):
        riesz_product([4**k for k in range(1, 14)], [1] * 13)
    with pytest.raises(ResourceError):
        riesz_product([4**k for k in range(1, 22)], [1] * 21)


def test_riesz_cap_admits_twelve_factors(monkeypatch):
    # the 3**12-term expansion itself takes seconds, so stop at its call
    monkeypatch.setattr("lacuna.trig._expand_product", lambda freqs, weights, keep: len(freqs))
    assert riesz_product([4**k for k in range(1, 13)], [1] * 12) == 12


@pytest.mark.parametrize("sign", [1.0, -1.0, True, Fraction(1), "1"])
def test_riesz_rejects_signs_that_are_not_integers(sign):
    with pytest.raises(InvalidInputError):
        riesz_product([4, 16], [sign, -1])


# --- modulation projection ------------------------------------------------


def test_modulation_projection_examples():
    assert modulation_projection(12, [4, 16]) == Fraction(1, 4)
    assert modulation_projection(20, [4, 16]) == Fraction(1, 4)
    assert modulation_projection(13, [4, 16]) == Fraction(0)
    assert modulation_projection(0, [4, 16]) == Fraction(0)


def test_modulation_projection_all_combinations():
    freqs = [4, 16, 64]
    for signs in itertools.product((1, -1), repeat=3):
        m = sum(e * n for e, n in zip(signs, freqs))
        assert modulation_projection(m, freqs) == Fraction(1, 8)


def test_modulation_projection_quadrature_oracle():
    """gamma equals the midpoint-rule integral of
    e^{2 pi i m u} * prod cos(2 pi n_j u), which is exact because the
    integrand has degree far below the grid size."""
    freqs = [4, 16, 64]
    n = 2**10
    u = (np.arange(n) + 0.5) / n
    prod = np.prod([np.cos(2 * np.pi * f * u) for f in freqs], axis=0)
    for m in (44, 76, -56, 13, 0):
        gamma = float(np.mean(np.exp(2j * np.pi * m * u) * prod).real)
        assert float(modulation_projection(m, freqs)) == pytest.approx(
            gamma, abs=1e-8
        )


def test_modulation_projection_warns_off_lacunary():
    with pytest.warns(UserWarning):
        modulation_projection(6, [2, 4])


def test_modulation_projection_of_thirty_factors_skips_the_full_expansion():
    # the full cosine expansion would carry 2**30 terms
    freqs = [4**k for k in range(1, 31)][::-1]
    freqs[3], freqs[17] = freqs[17], freqs[3]  # any order is accepted
    m = sum((-1) ** (k * k // 3) * 4**k for k in range(1, 31))
    start = time.perf_counter()
    assert modulation_projection(m, freqs) == Fraction(1, 2**30)
    assert modulation_projection(-m, freqs) == Fraction(1, 2**30)
    for off in (m + 1, m + 4, 0, 4, sum(freqs) + 4):
        assert modulation_projection(off, freqs) == 0
    assert time.perf_counter() - start < 0.5


@pytest.mark.filterwarnings("ignore:frequency list is not 3-lacunary")
@pytest.mark.parametrize("freqs", [[1, 2, 3, 4, 5], [5, 3, 1, 2], [2, 4, 6, 8, 10, 12], [3, 7, 9]])
def test_modulation_projection_matches_the_full_expansion(freqs):
    full = cos_product_expand(freqs).coefficients
    for m in range(-sum(freqs) - 2, sum(freqs) + 3):
        assert modulation_projection(m, freqs) == full.get(m, 0)


# --- Walsh-sign decoration ------------------------------------------------


def test_decorate_identity_at_zero():
    seq = geometric_sequence(4, 3)
    iset = enumerate_index_set(seq, 2, "signed")
    poly = TrigPolynomial({12: 1.5, 20: -0.5j})
    out = decorate_with_walsh_signs(poly, iset, DyadicPoint.zero())
    assert out.coefficients == poly.coefficients


def test_decorate_is_involution():
    seq = geometric_sequence(4, 3)
    iset = enumerate_index_set(seq, 2, "signed")
    poly = TrigPolynomial({12: 1.5, 20: -0.5j, 48: 2.0})
    t = DyadicPoint.from_fraction(Fraction(5, 8))
    once = decorate_with_walsh_signs(poly, iset, t)
    twice = decorate_with_walsh_signs(once, iset, t)
    assert twice.coefficients == poly.coefficients
    assert once.norm2() == pytest.approx(poly.norm2(), abs=1e-14)


def test_decorate_rejects_missing_frequency():
    seq = geometric_sequence(4, 3)
    iset = enumerate_index_set(seq, 2, "signed")
    poly = TrigPolynomial({7: 1.0})
    with pytest.raises(InvalidSupportError):
        decorate_with_walsh_signs(poly, iset, DyadicPoint.zero())
