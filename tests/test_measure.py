"""Interval-set and energy tests.

Fourier coefficients of indicator functions have closed forms on single
intervals; the quadrature oracle below cross-checks the analytic energy
path with a midpoint rule, which is exact for trigonometric polynomials
of degree below the grid size.  The pair-sum oracle is the per-pair
double sum over ``interval_fourier`` that the Gram form replaced.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from lacuna import (
    DyadicPoint,
    IntervalSet,
    InvalidInputError,
    ResourceError,
    TrigPolynomial,
    WalshPolynomial,
    energy_on_set,
    enumerate_index_set,
    find_alpha,
    geometric_sequence,
    interval_fourier,
)
from lacuna.measure import _BLOCK


def oracle_interval_fourier(intervals, k):
    """Direct antiderivative of e^{2 pi i k x} over a union of intervals."""
    if k == 0:
        return sum(float(b) - float(a) for a, b in intervals)
    total = 0j
    for a, b in intervals:
        w = 2j * math.pi * k
        total += (cmath.exp(w * float(b)) - cmath.exp(w * float(a))) / w
    return total


def pair_sum_energy(poly, E):
    """The per-pair double sum of c_t conj(c_s) times the exact-phase
    interval_fourier(E, t - s), each difference taken once."""
    phi = {}
    total = 0j
    for t, ct in poly.coefficients.items():
        for s, cs in poly.coefficients.items():
            if t - s not in phi:
                phi[t - s] = interval_fourier(E, t - s)
            total += complex(ct) * complex(cs).conjugate() * phi[t - s]
    return total.real


def random_trig(keys, seed):
    rng = np.random.default_rng(seed)
    return TrigPolynomial({k: complex(*rng.standard_normal(2)) for k in keys})


def oracle_trig_energy(poly, intervals, n=2**17):
    """Midpoint quadrature of |S|^2 over the set.  The mask endpoints are
    grid-aligned, so the error is the usual O(h^2) midpoint residual."""
    u = (np.arange(n) + 0.5) / n
    vals = np.zeros(n, dtype=complex)
    for freq, c in poly.coefficients.items():
        vals += complex(c) * np.exp(2j * np.pi * freq * u)
    mask = np.zeros(n, dtype=bool)
    for a, b in intervals:
        mask |= (u >= float(a)) & (u < float(b))
    return float(np.sum(np.abs(vals[mask]) ** 2) / n)


# --- interval set algebra -------------------------------------------------


def test_canonicalization_merges_and_sorts():
    E = IntervalSet([(Fraction(1, 2), Fraction(3, 4)), (0, Fraction(1, 2))])
    assert E.intervals == ((Fraction(0), Fraction(3, 4)),)
    assert E.measure == Fraction(3, 4)


def test_invalid_intervals_rejected():
    with pytest.raises(InvalidInputError):
        IntervalSet([(Fraction(1, 2), Fraction(1, 4))])
    with pytest.raises(InvalidInputError):
        IntervalSet([(Fraction(-1, 4), Fraction(1, 4))])
    with pytest.raises(InvalidInputError):
        IntervalSet([(0, Fraction(3, 2))])


def test_complement_and_involution():
    E = IntervalSet([(0, Fraction(4, 5))])
    C = E.complement()
    assert C.intervals == ((Fraction(4, 5), Fraction(1)),)
    assert C.complement().intervals == E.intervals
    assert E.measure + C.measure == 1


def test_translate_wraps_around():
    E = IntervalSet([(0, Fraction(4, 5))])
    T = E.translate(Fraction(1, 4))
    assert T.intervals == (
        (Fraction(0), Fraction(1, 20)),
        (Fraction(1, 4), Fraction(1)),
    )
    assert T.measure == E.measure


def test_arg_string_roundtrip():
    E = IntervalSet([(0, Fraction(1, 4)), (Fraction(1, 2), Fraction(9, 10))])
    assert IntervalSet.parse(E.to_arg_string()).intervals == E.intervals
    with pytest.raises(InvalidInputError):
        IntervalSet.parse("1/2")


def test_intersect():
    E = IntervalSet([(0, Fraction(1, 2))])
    F = IntervalSet([(Fraction(1, 4), Fraction(3, 4))])
    G = E.intersect(F)
    assert G.intervals == ((Fraction(1, 4), Fraction(1, 2)),)
    assert E.intersect(IntervalSet([])).measure == 0


def test_dyadic_translate_is_pointwise_digit_flip():
    """Flipping digit k agrees with XOR by 2^-k on a fine sample grid."""
    E = IntervalSet([(0, Fraction(1, 4)), (Fraction(3, 8), Fraction(1, 2))])
    for k in (1, 2, 3):
        T = E.dyadic_translate(k)
        assert T.measure == E.measure
        scale = 6
        denom = 1 << scale
        mask = 1 << (scale - k)
        for i in range(denom):
            x = Fraction(2 * i + 1, 2 * denom)  # cell midpoints, never on edges
            shifted = Fraction(i ^ mask, denom) + Fraction(1, 2 * denom)
            in_E = any(a <= x < b for a, b in E.intervals)
            in_T = any(a <= shifted < b for a, b in T.intervals)
            assert in_E == in_T, (k, x)


def test_dyadic_translate_is_involution():
    E = IntervalSet([(Fraction(1, 8), Fraction(5, 8)), (Fraction(3, 4), Fraction(13, 16))])
    for k in (1, 2, 4):
        assert E.dyadic_translate(k).dyadic_translate(k).intervals == E.intervals
    with pytest.raises(InvalidInputError):
        E.dyadic_translate(0)


def _per_cell_digit_flip(E, k):
    """Reference digit flip: every scale-k cell piece moved on its own."""
    step = Fraction(1, 2**k)
    out = []
    for a, b in E.intervals:
        cell = a // step
        while a < b:
            end = (cell + 1) * step
            delta = step if cell % 2 == 0 else -step
            out.append((a + delta, min(b, end) + delta))
            a, cell = end, cell + 1
    return IntervalSet(out)


def test_dyadic_translate_matches_per_cell_flip():
    rng = np.random.default_rng(7)
    for _ in range(600):
        k = int(rng.integers(1, 9))
        den = int(rng.choice([2 ** int(rng.integers(0, 11)), int(rng.integers(1, 60))]))
        ends = sorted(Fraction(int(x), den) for x in rng.integers(0, den + 1, 6))
        E = IntervalSet(list(zip(ends[::2], ends[1::2])))
        assert E.dyadic_translate(k) == _per_cell_digit_flip(E, k), (E, k)


def test_dyadic_translate_at_a_fine_digit():
    # 2^40 cells: a walk over every cell would never finish
    E = IntervalSet([(0, Fraction(15, 16))])
    assert E.dyadic_translate(40) == E
    F = IntervalSet([(Fraction(1, 3), Fraction(2, 3))])
    T = F.dyadic_translate(40)
    assert T.measure == F.measure
    step = Fraction(1, 2**40)
    for end in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        for j in range(-3, 4):
            x = (end // step + j) * step + step / 3
            flipped = x + (step if (x // step) % 2 == 0 else -step)
            assert T.contains(flipped) == F.contains(x), (end, j)
    point = find_alpha(E, (40, 1))
    assert point is not None and E.contains(point.as_fraction())


# --- indicator Fourier coefficients --------------------------------------


def test_interval_fourier_zero_mode_is_measure():
    E = IntervalSet([(0, Fraction(2, 7)), (Fraction(1, 2), Fraction(5, 8))])
    assert interval_fourier(E, 0) == pytest.approx(float(E.measure), abs=1e-15)


def test_interval_fourier_full_circle_vanishes():
    E = IntervalSet([(0, 1)])
    for k in (1, -3, 17):
        assert abs(interval_fourier(E, k)) < 1e-15


def test_interval_fourier_half_circle():
    E = IntervalSet([(0, Fraction(1, 2))])
    got = interval_fourier(E, 1)
    assert got == pytest.approx(1j / math.pi, abs=1e-15)


def test_interval_fourier_matches_antiderivative():
    E = IntervalSet([(Fraction(1, 7), Fraction(2, 5)), (Fraction(3, 4), Fraction(9, 10))])
    for k in range(-6, 7):
        want = oracle_interval_fourier(E.intervals, k)
        assert interval_fourier(E, k) == pytest.approx(want, abs=1e-13)


def test_interval_fourier_conjugate_symmetry():
    E = IntervalSet([(Fraction(1, 3), Fraction(2, 3))])
    for k in (1, 2, 5):
        assert interval_fourier(E, -k) == pytest.approx(
            interval_fourier(E, k).conjugate(), abs=1e-15
        )


def test_fourier_bessel_inequality():
    E = IntervalSet([(0, Fraction(7, 8))])
    C = E.complement()
    total = sum(abs(interval_fourier(C, k)) ** 2 for k in range(-200, 201))
    assert total <= float(C.measure) + 1e-12


# --- energy on sets -------------------------------------------------------


def test_trig_energy_full_circle_is_parseval():
    poly = TrigPolynomial({4: 1.5, -16: 2j, 64: -0.5 + 0.25j})
    E = IntervalSet([(0, 1)])
    want = sum(abs(c) ** 2 for c in poly.coefficients.values())
    assert energy_on_set(poly, E) == pytest.approx(want, abs=1e-12)


def test_trig_energy_single_frequency():
    poly = TrigPolynomial({7: 2 - 1j})
    E = IntervalSet([(Fraction(1, 5), Fraction(4, 7))])
    want = abs(2 - 1j) ** 2 * float(E.measure)
    assert energy_on_set(poly, E) == pytest.approx(want, abs=1e-12)


def test_trig_energy_two_frequencies_half_circle():
    # |e^{2 pi i x} + e^{4 pi i x}|^2 integrates to 1 on [0, 1/2): the
    # cross term 2cos(2 pi x) cancels over the half period
    poly = TrigPolynomial({1: 1, 2: 1})
    E = IntervalSet([(0, Fraction(1, 2))])
    assert energy_on_set(poly, E) == pytest.approx(1.0, abs=1e-12)


def test_trig_energy_matches_quadrature():
    rng = np.random.default_rng(7)
    freqs = [4, -4, 16, -16, 20, -12]
    for _ in range(5):
        coeffs = {
            f: complex(rng.standard_normal(), rng.standard_normal()) for f in freqs
        }
        poly = TrigPolynomial(coeffs)
        E = IntervalSet([(Fraction(1, 16), Fraction(3, 8)), (Fraction(1, 2), Fraction(13, 16))])
        want = oracle_trig_energy(poly, E.intervals)
        assert energy_on_set(poly, E) == pytest.approx(want, abs=1e-8)


def test_trig_energy_complement_identity():
    poly = TrigPolynomial({4: 1.0, 16: -0.5, 64: 0.25j})
    E = IntervalSet([(Fraction(1, 7), Fraction(5, 7))])
    total = sum(abs(c) ** 2 for c in poly.coefficients.values())
    got = energy_on_set(poly, E) + energy_on_set(poly, E.complement())
    assert got == pytest.approx(total, abs=1e-10)


def test_trig_energy_matches_pair_sum_on_an_asymmetric_support():
    # E is not symmetric under x -> -x and the support is not symmetric
    # under k -> -k, so the form conj(c)^T Phi c (the energy of S(-x) on
    # -E) differs from c^T Phi conj(c) here
    E = IntervalSet(
        [(Fraction(1, 7), Fraction(3, 5)), (Fraction(2, 3), Fraction(9, 11)),
         (Fraction(12, 13), Fraction(37, 39))]
    )
    for seed in range(4):
        poly = random_trig([-5, 3, 17, 40, 121, 300, 1025, -4097], seed)
        for F in (E, E.complement()):
            want = pair_sum_energy(poly, F)
            assert energy_on_set(poly, F) == pytest.approx(want, rel=1e-13, abs=0)


def test_trig_energy_with_keys_past_two_to_the_63():
    # adjacent keys near 4^40 round to one float; their difference must
    # be taken in integers
    keys = [2**53 + 1, 2**53 + 4, 2**63 - 1, 2**63 + 2, 2**63 + 7, 4**40 - 3, 4**40, 4**40 + 1]
    keys += [4**40 + 4**39 - 4**38, -(4**40) - 5]
    E = IntervalSet([(Fraction(1, 3), Fraction(5, 7)), (Fraction(7, 9), Fraction(999, 1000))])
    poly = random_trig(keys, 1)
    for F in (E, E.complement()):
        got = energy_on_set(poly, F)
        assert math.isfinite(got)
        assert got == pytest.approx(pair_sum_energy(poly, F), rel=1e-13, abs=0)


def test_trig_energy_across_row_blocks_on_the_276_pair_sums():
    # the pair sums of geometric_sequence(4, 24) are 276 keys, more than
    # one row block, on a full circle with one gap
    keys = enumerate_index_set(geometric_sequence(4, 24), 2, "positive").values()
    assert len(keys) > _BLOCK
    poly = random_trig(keys, 2)
    E = IntervalSet([(0, Fraction(1733, 4096)), (Fraction(2011, 4096), 1)])
    total = 0.0
    for F in (E, E.complement()):
        got = energy_on_set(poly, F)
        assert got == pytest.approx(pair_sum_energy(poly, F), rel=1e-13, abs=0)
        total += got
    assert total == pytest.approx(poly.mass, abs=1e-10)


def test_trig_energy_near_the_float_limit_without_overflow():
    # t - s = 2^1022 - 1 is in range, but 2 pi (t - s) is not
    poly = TrigPolynomial({2**1022: 1.0, 1: 1.0})
    assert energy_on_set(poly, IntervalSet.parse("0/1:1/3")) == pytest.approx(2 / 3, abs=1e-12)


def test_energy_is_a_python_float():
    E = IntervalSet([(Fraction(1, 4), Fraction(2, 3))])
    for poly in (
        TrigPolynomial({4: 1.0, 16: 0.5j}),
        TrigPolynomial({}),
        WalshPolynomial({6: 1.0, 10: -0.5}),
    ):
        assert type(energy_on_set(poly, E)) is float


def test_walsh_energy_with_non_dyadic_endpoints():
    poly = WalshPolynomial({6: Fraction(3, 2), 2: Fraction(-1, 2)})
    E = IntervalSet([(Fraction(1, 3), Fraction(4, 5))])
    # exact piecewise oracle: the polynomial is constant on dyadic cells
    scale = poly.max_scale
    denom = 1 << scale
    total = Fraction(0)
    for i in range(denom):
        a, b = Fraction(i, denom), Fraction(i + 1, denom)
        lo = max(a, Fraction(1, 3))
        hi = min(b, Fraction(4, 5))
        if lo < hi:
            v = poly.evaluate(DyadicPoint(i, scale))
            total += Fraction(v) ** 2 * (hi - lo)
    assert energy_on_set(poly, E) == pytest.approx(float(total), abs=1e-12)


def test_walsh_energy_full_circle_is_parseval():
    poly = WalshPolynomial({0: 0.25, 6: 1.5, 10: -2.0})
    E = IntervalSet([(0, 1)])
    want = sum(c**2 for c in (0.25, 1.5, -2.0))
    assert energy_on_set(poly, E) == pytest.approx(want, abs=1e-12)


def test_walsh_energy_at_the_scale_cap():
    poly = WalshPolynomial({2**20: 1.0, 6: 0.5})
    assert poly.max_scale == 20
    assert energy_on_set(poly, IntervalSet.full()) == pytest.approx(1.25, abs=1e-12)
    E = IntervalSet(
        [(Fraction(1, 3), Fraction(5, 7)), (Fraction(7, 9), Fraction(999_999, 10**6))]
    )
    got = energy_on_set(poly, E) + energy_on_set(poly, E.complement())
    assert got == pytest.approx(poly.mass, abs=1e-10)


def test_walsh_energy_of_a_thin_interval_keeps_relative_accuracy():
    # a width-1e-6 piece far from 0 must not be the difference of two
    # running sums near the full mass
    poly = WalshPolynomial({2**13: 1.0, 6: 0.5, 2: -0.25})
    a = Fraction(1, 2) + Fraction(1, 3 * 2**14)
    E = IntervalSet([(a, a + Fraction(1, 10**6))])
    v = poly.evaluate(DyadicPoint(2**12, 13))
    want = float(Fraction(v) ** 2 / 10**6)
    assert energy_on_set(poly, E) == pytest.approx(want, rel=1e-14, abs=0)


def test_walsh_energy_cap_precedes_cell_evaluation(monkeypatch):
    import lacuna.walsh

    def refuse(self, vec):
        raise AssertionError("cells evaluated before the scale cap")

    monkeypatch.setattr(lacuna.walsh._CellSpace, "values", refuse)
    with pytest.raises(ResourceError):
        energy_on_set(WalshPolynomial({2**22: 1.0}), IntervalSet.full())


def test_energy_rejects_unknown_polynomial():
    E = IntervalSet([(0, 1)])
    with pytest.raises(InvalidInputError):
        energy_on_set({"not": "a poly"}, E)
