"""Inverse Parseval bound and summation-matrix tests.

The check itself is a comparison of two quantities the measure tests
already pin down (set energy and coefficient mass), so most of the work
here is exercising the decision logic: thresholds, support validation,
and the per-row experiment bookkeeping.
"""

from fractions import Fraction

import numpy as np
import pytest

from lacuna import (
    BoundViolationError,
    IntervalSet,
    InvalidInputError,
    InvalidOrderError,
    InvalidRowError,
    InvalidSupportError,
    TrigContext,
    TrigPolynomial,
    WalshContext,
    WalshPolynomial,
    alpha_threshold,
    build_summation_matrix,
    energy_on_set,
    enumerate_index_set,
    geometric_sequence,
    inverse_bound_experiment,
    inverse_parseval_check,
)
from lacuna.inverse import ExperimentRow


def big_set(gap_num: int, gap_den: int) -> IntervalSet:
    """[0,1) minus a single gap of width gap_num/gap_den."""
    g = Fraction(gap_num, gap_den)
    return IntervalSet([(0, Fraction(1, 2)), (Fraction(1, 2) + g, 1)])


# --- threshold ------------------------------------------------------------


def test_alpha_threshold_values():
    assert alpha_threshold(2, 1) == 0.875
    assert alpha_threshold(4, 1) == 0.96875
    assert alpha_threshold(2, 2) == 1 - 1 / 16


def test_alpha_threshold_monotone():
    values = [alpha_threshold(l, 1) for l in range(2, 9)]
    for a, b in zip(values, values[1:]):
        assert a < b
    assert alpha_threshold(3, 1) < alpha_threshold(3, 3)


def test_alpha_threshold_validation():
    with pytest.raises(InvalidOrderError):
        alpha_threshold(1, 1)
    with pytest.raises(InvalidInputError):
        alpha_threshold(2, 0)


# --- the check ------------------------------------------------------------


def trig_ctx(d=1):
    return TrigContext(sequence=geometric_sequence(4, 6), order=2, d=d)


def test_check_full_circle_is_parseval_equality_case():
    poly = TrigPolynomial({20: 1.0, 68: -0.5})
    report = inverse_parseval_check(poly, IntervalSet([(0, 1)]), trig_ctx())
    assert report.measure_ok
    assert report.energy == pytest.approx(report.coefficient_mass, abs=1e-12)
    assert report.lower_constant == pytest.approx(0.5, abs=1e-14)
    assert report.passed


def test_check_single_frequency_on_fat_set():
    # one character: energy = |E| * mass > (|E| - 1/2) * mass always
    poly = TrigPolynomial({20: 2.0})
    E = big_set(1, 16)
    report = inverse_parseval_check(poly, E, trig_ctx())
    assert report.passed
    assert report.threshold == 0.875
    assert report.energy == pytest.approx(float(E.measure) * 4.0, abs=1e-10)


def test_check_trig_random_instances_pass():
    rng = np.random.default_rng(12)
    seq = geometric_sequence(4, 6)
    ctx = TrigContext(sequence=seq, order=2, d=1)
    values = [20, 68, 80, 272, 320, 1088]  # pairwise positive sums of 4^k
    for _ in range(20):
        support = rng.choice(values, size=4, replace=False)
        poly = TrigPolynomial(
            {
                int(v): complex(rng.standard_normal(), rng.standard_normal())
                for v in support
            }
        )
        E = big_set(1, int(rng.integers(16, 64)))
        report = inverse_parseval_check(poly, E, ctx)
        assert report.measure_ok
        assert report.passed, (support, float(E.measure))


def test_check_walsh_random_instances_pass():
    rng = np.random.default_rng(13)
    ctx = WalshContext(order=2)
    values = [v for v in range(2, 1024) if v % 2 == 0 and bin(v).count("1") <= 2]
    for _ in range(20):
        support = rng.choice(values, size=5, replace=False)
        poly = WalshPolynomial({int(v): float(rng.standard_normal()) for v in support})
        E = big_set(1, 1024)  # walsh threshold at order 2 is 1 - 2^-8
        report = inverse_parseval_check(poly, E, ctx)
        assert report.measure_ok
        assert report.passed


def test_check_measure_below_threshold_flags():
    poly = TrigPolynomial({20: 1.0})
    report = inverse_parseval_check(poly, big_set(1, 4), trig_ctx())
    assert not report.measure_ok
    assert not report.passed


def test_check_type_mismatch():
    with pytest.raises(InvalidInputError):
        inverse_parseval_check(
            WalshPolynomial({6: 1.0}), IntervalSet([(0, 1)]), trig_ctx()
        )
    with pytest.raises(InvalidInputError):
        inverse_parseval_check(
            TrigPolynomial({20: 1.0}), IntervalSet([(0, 1)]), WalshContext(order=2)
        )
    with pytest.raises(InvalidInputError):
        inverse_parseval_check(TrigPolynomial({20: 1.0}), IntervalSet([(0, 1)]), object())
    mat = build_summation_matrix("prefix-of-rearrangement", order=[20])
    with pytest.raises(InvalidInputError):
        inverse_bound_experiment({20: 1.0}, mat, IntervalSet([(0, 1)]), object())


def test_check_support_violations():
    # 12 = 16 - 4 is a signed combination but not a positive sum
    with pytest.raises(InvalidSupportError):
        inverse_parseval_check(
            TrigPolynomial({12: 1.0}), IntervalSet([(0, 1)]), trig_ctx()
        )
    with pytest.raises(InvalidSupportError):
        inverse_parseval_check(
            WalshPolynomial({14: 1.0}), IntervalSet([(0, 1)]), WalshContext(order=2)
        )


def test_check_walsh_low_order_rejected():
    with pytest.raises(InvalidOrderError):
        inverse_parseval_check(
            WalshPolynomial({2: 1.0}), IntervalSet([(0, 1)]), WalshContext(order=1)
        )
    # the experiment applies the same rule, before support or rows
    for coeffs in ({2: 1.0}, {6: 1.0}):
        mat = build_summation_matrix("prefix-of-rearrangement", order=list(coeffs))
        with pytest.raises(InvalidOrderError):
            inverse_bound_experiment(
                coeffs, mat, IntervalSet([(0, 1)]), WalshContext(order=1)
            )


def test_experiment_rejects_complex_walsh_coefficient_past_n_max():
    coeffs = {6: 1.0, 10: 1j}
    mat = build_summation_matrix("prefix-of-rearrangement", order=[6, 10])
    with pytest.raises(InvalidInputError):
        inverse_bound_experiment(
            coeffs, mat, IntervalSet([(0, 1)]), WalshContext(order=2), n_max=1
        )


def test_check_zero_polynomial_notes():
    report = inverse_parseval_check(
        TrigPolynomial({}), IntervalSet([(0, 1)]), trig_ctx()
    )
    assert any("zero polynomial" in n for n in report.notes)
    assert not report.passed  # strict inequality cannot hold at 0 > 0


def test_check_d_is_measured_when_missing():
    ctx = TrigContext(sequence=geometric_sequence(4, 6), order=2)
    report = inverse_parseval_check(
        TrigPolynomial({20: 1.0}), IntervalSet([(0, 1)]), ctx
    )
    assert any("d=1" in n for n in report.notes)
    assert report.threshold == 0.875


def test_check_notes_a_witness_at_or_below_the_critical_ratio():
    # the default witness of geometric_sequence(2, .) is 1, below every critical ratio
    ctx = TrigContext(sequence=geometric_sequence(2, 6), order=2, d=1)
    report = inverse_parseval_check(TrigPolynomial({6: 1.0}), IntervalSet([(0, 1)]), ctx)
    assert report.notes == (
        "sequence witness does not exceed the order-3 critical ratio; "
        "the lower bound is not guaranteed",
    )


def test_report_json_uses_pass_key():
    report = inverse_parseval_check(
        TrigPolynomial({20: 1.0}), IntervalSet([(0, 1)]), trig_ctx()
    )
    data = report.to_json_dict()
    assert data["pass"] is True
    assert set(data) == {
        "energy",
        "coefficient_mass",
        "threshold",
        "lower_constant",
        "pass",
        "measure_ok",
        "notes",
    }


# --- summation matrices ---------------------------------------------------


def test_prefix_matrix_rows_grow():
    mat = build_summation_matrix("prefix-of-rearrangement", order=[20, 68, 80])
    assert mat.kind == "indicator"
    assert len(mat.rows) == 3
    assert set(mat.rows[2]) == {20, 68, 80}


def test_matrix_rows_and_key_order_for_every_kind():
    # prefix rows keep the listing order, nested rows are sorted, custom
    # rows keep their own order and drop zero entries
    prefix = build_summation_matrix("prefix-of-rearrangement", order=[80, 20, 68])
    assert [list(row.items()) for row in prefix.rows] == [
        [(80, 1.0)],
        [(80, 1.0), (20, 1.0)],
        [(80, 1.0), (20, 1.0), (68, 1.0)],
    ]
    nested = build_summation_matrix("nested-sets", sets=[[68, 20], [80, 20, 68, 68]])
    assert [list(row.items()) for row in nested.rows] == [
        [(20, 1.0), (68, 1.0)],
        [(20, 1.0), (68, 1.0), (80, 1.0)],
    ]
    custom = build_summation_matrix(
        "custom", rows=[{68: -0.5, "20": "0.25", 5: 0.0}, {}], bound=0.5
    )
    assert [list(row.items()) for row in custom.rows] == [[(68, -0.5), (20, 0.25)], []]
    assert [m.kind for m in (prefix, nested, custom)] == ["indicator"] * 2 + ["custom"]
    assert (prefix.bound, custom.bound) == (1.0, 0.5)
    # every kind's entries meet the bound
    with pytest.raises(BoundViolationError):
        build_summation_matrix("nested-sets", sets=[[20], [20, 68]], bound=0.5)
    with pytest.raises(InvalidRowError):
        build_summation_matrix("custom", rows=[{20: None}])


def test_prefix_matrix_rejects_duplicates():
    with pytest.raises(InvalidInputError):
        build_summation_matrix("prefix-of-rearrangement", order=[20, 20, 80])


def test_nested_matrix_validation():
    mat = build_summation_matrix("nested-sets", sets=[[20], [20, 68]])
    assert len(mat.rows) == 2
    with pytest.raises(InvalidInputError):
        build_summation_matrix("nested-sets", sets=[[20, 68], [68]])


def test_indicator_bound_must_cover_one():
    with pytest.raises(BoundViolationError):
        build_summation_matrix("prefix-of-rearrangement", order=[20], bound=0.5)


def test_custom_matrix_validation():
    mat = build_summation_matrix(
        "custom", rows=[{20: 0.5}, {20: 1.0, 68: -0.25}], bound=1.0
    )
    assert mat.kind == "custom"
    assert mat.rows[1][68] == -0.25
    with pytest.raises(BoundViolationError):
        build_summation_matrix("custom", rows=[{20: 2.0}], bound=1.0)
    with pytest.raises(InvalidRowError):
        build_summation_matrix("custom", rows=[[20, 1.0]], bound=1.0)
    with pytest.raises(InvalidRowError):
        build_summation_matrix("custom", rows=[{20: float("nan")}], bound=1.0)
    with pytest.raises(InvalidInputError):
        build_summation_matrix("no-such-kind")


# --- the experiment -------------------------------------------------------


def test_experiment_full_circle_rows_are_masked_parseval():
    coeffs = {20: 1.0 + 0j, 68: -2.0 + 0j, 80: 0.5j}
    mat = build_summation_matrix("prefix-of-rearrangement", order=[20, 68, 80])
    report = inverse_bound_experiment(
        coeffs, mat, IntervalSet([(0, 1)]), trig_ctx()
    )
    assert report.hypothesis_met
    masses = [1.0, 5.0, 5.25]
    for row, want in zip(report.rows, masses):
        assert row.mass == pytest.approx(want, abs=1e-12)
        assert row.energy == pytest.approx(want, abs=1e-10)
        assert row.passed


def test_experiment_zero_coefficients():
    coeffs = {20: 0.0 + 0j, 68: 0.0 + 0j}
    mat = build_summation_matrix("prefix-of-rearrangement", order=[20, 68])
    report = inverse_bound_experiment(coeffs, mat, big_set(1, 32), trig_ctx())
    for row in report.rows:
        assert row.energy == 0.0
        assert row.mass == 0.0
        assert not row.passed  # 0 > 0 is false; vacuous rows stay unflagged
    assert report.implied_mass_bound == pytest.approx(0.0, abs=1e-15)


def test_experiment_hypothesis_not_met_is_reported_not_failed():
    coeffs = {20: 1.0 + 0j}
    mat = build_summation_matrix("prefix-of-rearrangement", order=[20])
    report = inverse_bound_experiment(
        coeffs, mat, big_set(1, 4), trig_ctx()
    )
    assert not report.hypothesis_met
    assert report.to_json_dict()["hypothesis"] == "not met"
    assert len(report.rows) == 1


def test_experiment_implied_bound_matches_best_row():
    coeffs = {20: 1.5 + 0j, 68: -0.5 + 0j}
    mat = build_summation_matrix("prefix-of-rearrangement", order=[20, 68])
    E = big_set(1, 64)
    ctx = trig_ctx()
    report = inverse_bound_experiment(coeffs, mat, E, ctx)
    c = float(E.measure) - 0.5
    best = max(r.energy for r in report.rows)
    assert report.implied_mass_bound == pytest.approx(best / c, abs=1e-12)
    # converse reading: actual masked mass is within the implied bound
    assert report.rows[-1].mass <= report.implied_mass_bound + 1e-9


def test_experiment_row_json_shape():
    coeffs = {6: 1.0, 10: -0.5}
    mat = build_summation_matrix("prefix-of-rearrangement", order=[6, 10])
    report = inverse_bound_experiment(
        coeffs, mat, IntervalSet([(0, 1)]), WalshContext(order=2)
    )
    data = report.to_json_dict()
    assert [set(r) for r in data["rows"]] == [
        {"n", "energy", "mass", "bound", "pass"}
    ] * 2
    assert data["rows"][0]["n"] == 1


def test_experiment_row_selecting_nothing_has_float_mass():
    mat = build_summation_matrix("custom", rows=[{20: 1.0}, {80: 0.5}])
    for coeffs, ctx in (({20: 1.0 + 0j}, trig_ctx()), ({6: 1.0}, WalshContext(2))):
        report = inverse_bound_experiment(coeffs, mat, IntervalSet([(0, 1)]), ctx)
        empty = report.to_json_dict()["rows"][1]
        assert (empty["energy"], empty["mass"], empty["bound"]) == (0.0, 0.0, 0.0)
        assert type(empty["mass"]) is float
        assert not empty["pass"]


def test_experiment_rows_sum_each_row_in_its_key_order():
    # a row's mass is summed in the row's key order (the listing for a
    # prefix matrix, sorted for a nested one), so both are pinned by repr
    rng = np.random.default_rng(3)
    seq = geometric_sequence(4, 6)
    values = sorted(enumerate_index_set(seq, 2, "positive").values())
    coeffs = {
        m: complex(*rng.standard_normal(2)) * 10.0 ** rng.integers(-4, 4) for m in values
    }
    order = [int(m) for m in rng.permutation(values)]
    E, ctx = big_set(1, 64), trig_ctx()
    c = float(E.measure) - 0.5
    prefix = build_summation_matrix("prefix-of-rearrangement", order=order)
    nested = build_summation_matrix("nested-sets", sets=[order[:n] for n in (3, 9, 15)])
    for matrix, keys in (
        (prefix, [order[:n] for n in range(1, len(order) + 1)]),
        (nested, [sorted(order[:n]) for n in (3, 9, 15)]),
    ):
        want = []
        for n, row in enumerate(keys, start=1):
            S = TrigPolynomial({m: 1.0 * coeffs[m] for m in row})
            energy = energy_on_set(S, E)
            want.append(ExperimentRow(n, energy, S.mass, c * S.mass, energy > c * S.mass))
        report = inverse_bound_experiment(coeffs, matrix, E, ctx)
        assert repr(report.rows) == repr(tuple(want))


def test_experiment_n_max_truncates():
    coeffs = {20: 1.0 + 0j, 68: 1.0 + 0j, 80: 1.0 + 0j}
    mat = build_summation_matrix("prefix-of-rearrangement", order=[20, 68, 80])
    report = inverse_bound_experiment(
        coeffs, mat, IntervalSet([(0, 1)]), trig_ctx(), n_max=2
    )
    assert len(report.rows) == 2


def test_experiment_energy_consistent_with_direct_evaluation():
    coeffs = {6: 1.0, 20: -2.0}
    mat = build_summation_matrix("nested-sets", sets=[[6], [6, 20]])
    E = IntervalSet([(0, Fraction(63, 64))])
    report = inverse_bound_experiment(coeffs, mat, E, WalshContext(order=2))
    last = report.rows[-1]
    direct = energy_on_set(WalshPolynomial(coeffs), E)
    assert last.energy == pytest.approx(direct, abs=1e-12)
