"""Trigonometric polynomial, norm, and Riesz product tests.

Norm oracles: p = 2 is Parseval (exact); p = 4 of a + a* has the closed
form from expanding the fourth power; everything else is cross-checked
by independent dense quadrature at a different grid size.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lacuna import (
    AliasingError,
    DyadicPoint,
    InvalidInputError,
    InvalidSupportError,
    ResourceError,
    TrigPolynomial,
    UndefinedRatioError,
    WalshPolynomial,
    cos_product_expand,
    decorate_with_walsh_signs,
    dyadic_sequence,
    enumerate_index_set,
    evaluate_grid,
    geometric_sequence,
    grid_to_coefficients,
    khintchine_ratio,
    lp_norm_trig,
    lp_norm_walsh,
    modulation_projection,
    riesz_product,
)


def oracle_lp(poly: TrigPolynomial, p: float, n: int = 40011) -> float:
    """Riemann sum on a deliberately unrelated odd grid size."""
    u = (np.arange(n) + 0.5) / n
    vals = np.zeros(n, dtype=complex)
    for m, c in poly.coefficients.items():
        vals += complex(c) * np.exp(2j * np.pi * m * u)
    return float(np.mean(np.abs(vals) ** p) ** (1 / p))


# --- grids ----------------------------------------------------------------


def test_grid_single_exponential_is_roots_of_unity():
    poly = TrigPolynomial({1: 1.0})
    grid = evaluate_grid(poly, 8)
    want = np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.allclose(grid.values, want, atol=1e-12)


def test_grid_constant():
    poly = TrigPolynomial({0: 3.5})
    grid = evaluate_grid(poly, 4)
    assert np.allclose(grid.values, 3.5, atol=1e-14)


def test_grid_two_sided_cosine():
    poly = TrigPolynomial({1: 1.0, -1: 1.0})
    grid = evaluate_grid(poly, 8)
    want = 2 * np.cos(2 * np.pi * np.arange(8) / 8)
    assert np.allclose(grid.values, want, atol=1e-12)


def test_grid_requires_enough_points():
    poly = TrigPolynomial({4: 1.0})
    with pytest.raises(AliasingError):
        evaluate_grid(poly, 8)


def test_grid_coefficients_refuse_aliased_frequencies():
    grid = evaluate_grid(TrigPolynomial({4: 1.0}), 16)
    with pytest.raises(AliasingError):
        grid_to_coefficients(grid, [4, 8])


def test_grid_roundtrip():
    poly = TrigPolynomial({4: 1.5 - 0.5j, -16: 2.0, 20: 0.125j})
    grid = evaluate_grid(poly, 64)
    back = grid_to_coefficients(grid, [4, -16, 20])
    for m, c in poly.coefficients.items():
        assert back[m] == pytest.approx(complex(c), abs=1e-12)


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
        fine = np.abs(evaluate_grid(poly, 64 * (2 * poly.degree + 1)).values)
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
            evaluate_grid(poly, 8 * (2 * poly.degree + 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # p = 2 needs no grid, so the cap does not apply
    assert lp_norm_trig(poly, 2) == poly.norm2()
    # the cap is 2^24 points; the space allocates nothing until it evaluates
    from lacuna.trig import _GridSpace

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
    from lacuna.walsh import _symmetric_ratio

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
    from lacuna.walsh import _symmetric_ratio

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
    grid = evaluate_grid(poly, 512)
    assert np.min(grid.values.real) >= -1e-9
    assert np.max(np.abs(grid.values.imag)) < 1e-10


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
