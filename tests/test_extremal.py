"""Extremal ratio search tests.

The gradient has a closed form for a single frequency (the objective is
|c|^p there) and every multi-frequency instance is checked against
central finite differences.  Optimizer results are only ever asserted
against certified quantities: the equal-coefficient warm start, known
upper bounds, and bitwise rerun equality.
"""

import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, product
from math import gamma, pi, sqrt

import numpy as np
import pytest

from lacuna import (
    ChaosFamily,
    ExtremalConfig,
    ExtremalResult,
    InsufficientDataError,
    InsufficientTermsError,
    InvalidInputError,
    InvalidOrderError,
    InvalidSequenceError,
    InvalidSupportError,
    ResourceError,
    SignedRepresentation,
    TrigPolynomial,
    UndefinedGradientError,
    WalshPolynomial,
    blowup_probe,
    counterexample_sequence,
    dyadic_sequence,
    enumerate_index_set,
    geometric_sequence,
    growth_exponent,
    khintchine_ratio,
    maximize_ratio,
    ratio_gradient,
    representations,
    trig_family,
    walsh_family,
)
from lacuna import extremal, lacunary
from lacuna.engine import _CellSpace
from lacuna.extremal import RunSummary, _power_state
from lacuna.walsh import _krawtchouk_ratio, _symmetric_ratio


def objective(space, vec, p):
    """The search's objective F = mean |S|^p over the grid or cells."""
    return float(np.mean(np.abs(space.values(vec)) ** p))


def numeric_gradient(coeffs, index_set, p, h=1e-6):
    """Central finite differences of the grid objective F."""
    from lacuna.extremal import _make_space

    values = index_set.values()
    space = _make_space(values, index_set.is_dyadic, 8)

    def pack(cmap):
        if space.dtype is complex:
            return np.array([complex(cmap.get(m, 0.0)) for m in values])
        return np.array([float(cmap.get(m, 0.0)) for m in values])

    base = pack(coeffs)
    out = {}
    for i, m in enumerate(values):
        bumped = base.copy()
        bumped[i] = base[i] + h
        up = objective(space, bumped, p)
        bumped[i] = base[i] - h
        down = objective(space, bumped, p)
        g = (up - down) / (2 * h)
        if space.dtype is complex:
            bumped = base.copy()
            bumped[i] = base[i] + 1j * h
            up_i = objective(space, bumped, p)
            bumped[i] = base[i] - 1j * h
            down_i = objective(space, bumped, p)
            g = g + 1j * (up_i - down_i) / (2 * h)
        out[m] = g
    return out


def walsh_pairs(budget):
    return enumerate_index_set(
        __import__("lacuna").dyadic_sequence(budget), 2, "dyadic"
    )


# --- gradient -------------------------------------------------------------


def test_gradient_single_frequency_closed_form():
    """With one frequency the objective is |c|^p, whose radial
    derivative is p*|c|^(p-1)."""
    seq = geometric_sequence(4, 3)
    iset = enumerate_index_set(seq, 1, "positive")
    m = sorted(iset.values())[0]
    for c, p in ((1.5, 4.0), (0.7, 3.0), (2.0, 6.0)):
        grad = ratio_gradient({m: c}, iset, p)
        want = p * c ** (p - 1)
        assert grad[m].real == pytest.approx(want, rel=1e-9)
        assert abs(grad[m].imag) < 1e-9


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    # ten dyadic instances
    iset_w = walsh_pairs(6)
    w_values = sorted(iset_w.values())
    for _ in range(10):
        support = rng.choice(w_values, size=5, replace=False)
        coeffs = {int(v): float(rng.standard_normal()) for v in support}
        got = ratio_gradient(coeffs, iset_w, 4.0)
        want = numeric_gradient(coeffs, iset_w, 4.0)
        for m in want:
            scale = max(1.0, abs(want[m]))
            assert abs(got[m] - want[m]) / scale < 1e-5, m
    # ten trig instances
    seq = geometric_sequence(4, 5)
    iset_t = enumerate_index_set(seq, 2, "signed")
    t_values = sorted(iset_t.values())
    for _ in range(10):
        support = rng.choice(t_values, size=5, replace=False)
        coeffs = {
            int(v): complex(rng.standard_normal(), rng.standard_normal())
            for v in support
        }
        got = ratio_gradient(coeffs, iset_t, 4.0)
        want = numeric_gradient(coeffs, iset_t, 4.0)
        for m in want:
            scale = max(1.0, abs(want[m]))
            assert abs(got[m] - want[m]) / scale < 1e-5, m


def test_gradient_homogeneity():
    """F is p-homogeneous, so doubling the vector scales the gradient
    by 2^(p-1)."""
    iset = walsh_pairs(5)
    values = sorted(iset.values())[:4]
    coeffs = {m: 0.5 + 0.25 * i for i, m in enumerate(values)}
    doubled = {m: 2 * c for m, c in coeffs.items()}
    g1 = ratio_gradient(coeffs, iset, 4.0)
    g2 = ratio_gradient(doubled, iset, 4.0)
    for m in coeffs:
        assert g2[m] == pytest.approx(2**3 * g1[m], rel=1e-9)


def test_gradient_validation():
    iset = walsh_pairs(4)
    with pytest.raises(UndefinedGradientError):
        ratio_gradient({}, iset, 4.0)
    with pytest.raises(UndefinedGradientError):
        ratio_gradient({6: 0.0}, iset, 4.0)
    with pytest.raises(InvalidSupportError):
        ratio_gradient({2: 1.0}, iset, 4.0)  # order 1, not in the pair chaos
    with pytest.raises(InvalidInputError):
        ratio_gradient({6: 1.0}, iset, 2.0)


def test_gradient_past_the_float_range_raises_resource_error():
    # all ones on six pair indices: M = 6, and 6^399 overflows a float
    iset = walsh_family(2, 4).index_set()
    ones = {m: 1.0 for m in iset.values()}
    assert all(np.isfinite(g) for g in ratio_gradient(ones, iset, 300.0).values())
    with pytest.raises(ResourceError):
        ratio_gradient(ones, iset, 400.0)


def test_gradient_underflow_raises_resource_error():
    # Euler: <c, grad F> = p F > 0, so an all-zero gradient at a nonzero
    # vector is underflow; here M = 6e-3 and M^299 is below the float range
    iset = walsh_family(2, 4).index_set()
    small = {m: 1e-3 for m in iset.values()}
    assert any(g != 0 for g in ratio_gradient(small, iset, 100.0).values())
    with pytest.raises(ResourceError, match="underflow"):
        ratio_gradient(small, iset, 300.0)


# --- maximize -------------------------------------------------------------


def test_maximize_single_value_is_trivial():
    seq = geometric_sequence(4, 3)
    iset = enumerate_index_set(seq, 1, "positive")
    single = enumerate_index_set(seq.prefix(1), 1, "positive")
    result = maximize_ratio(single, 4.0)
    assert result.ratio == 1.0
    assert len(iset.values()) == 3  # sanity: full set is larger
    [coeff] = result.coefficients.values()
    assert type(coeff) is complex and coeff == 1
    [coeff] = maximize_ratio(walsh_family(1, 1), 4.0).coefficients.values()
    assert type(coeff) is float and coeff == 1


def test_maximize_respects_khintchine_ceiling():
    iset = walsh_pairs(6)
    result = maximize_ratio(iset, 4.0, ExtremalConfig(restarts=2, max_iter=40, seed=0))
    # order-2 dyadic chaos at p=4 obeys (p-1)^(l/2) = 3
    assert result.ratio <= 3.0 + 1e-9
    assert result.ratio >= 1.0


def test_maximize_beats_equal_start():
    iset = walsh_pairs(5)
    values = sorted(iset.values())
    n = len(values)
    equal = WalshPolynomial({m: 1.0 / np.sqrt(n) for m in values})
    warm = khintchine_ratio(equal, 4.0)
    result = maximize_ratio(iset, 4.0, ExtremalConfig(restarts=1, max_iter=40, seed=0))
    assert result.ratio >= warm - 1e-9


def test_maximize_result_is_scale_invariant_certificate():
    """The reported ratio must reproduce under khintchine_ratio on the
    returned coefficients."""
    seq = geometric_sequence(4, 4)
    iset = enumerate_index_set(seq, 2, "signed")
    result = maximize_ratio(iset, 4.0, ExtremalConfig(restarts=1, max_iter=40, seed=1))
    poly = TrigPolynomial(result.coefficients)
    again = khintchine_ratio(poly, 4.0)
    assert again == pytest.approx(result.ratio, rel=1e-6)


def test_maximize_empty_support_rejected():
    seq = geometric_sequence(4, 3)
    iset = enumerate_index_set(seq, 2, "positive")

    class Hollow:
        pass

    with pytest.raises(InvalidInputError, match="expected a ChaosFamily or ChaosIndexSet"):
        maximize_ratio(Hollow(), 4.0)


def test_maximize_deterministic_rerun():
    iset = walsh_pairs(5)
    cfg = ExtremalConfig(restarts=2, max_iter=30, seed=7)
    a = maximize_ratio(iset, 4.0, cfg)
    b = maximize_ratio(iset, 4.0, cfg)
    assert a.ratio == b.ratio
    assert a.coefficients == b.coefficients
    assert a.iterations == b.iterations
    assert a.to_json_dict() == b.to_json_dict()


def test_power_iteration_never_lowers_objective():
    """Each power step c <- grad F / |grad F| keeps F non-decreasing, and
    the max-scaled log F equals the reference objective."""
    from lacuna.extremal import _make_space, _power_state, _random_start

    values = trig_family(geometric_sequence(2, 8), 1).index_set().values()
    space = _make_space(sorted(values), False, 8)
    vec = _random_start(space, (5, 1))
    objectives = []
    for _ in range(15):
        log_f, _, grad, _ = _power_state(space, vec, 8.0)
        objectives.append(objective(space, vec, 8.0))
        assert log_f == pytest.approx(np.log(objectives[-1]), abs=1e-12)
        vec = grad / np.linalg.norm(grad)
    assert all(b >= a for a, b in zip(objectives, objectives[1:]))
    assert objectives[-1] > objectives[0]


def test_equal_start_is_stationary_on_full_dyadic_family():
    result = maximize_ratio(walsh_family(2, 10), 8.0, ExtremalConfig(restarts=1))
    assert result.stop_reason == "stationary"
    assert result.iterations == 1
    assert result.converged
    assert result.to_json_dict()["stop_reason"] == "stationary"


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_symmetric_ratio_matches_the_cells(l):
    for n in range(l + 1, 13):
        values = walsh_family(l, n).index_set().values()
        space = _CellSpace(values)
        equal = np.full(len(values), 1.0 / np.sqrt(len(values)))
        for p in (2.5, 3, 4, 5.5, 8, 32):
            want = _power_state(space, equal, p)[1]
            assert _symmetric_ratio(values, p) == pytest.approx(want, rel=1e-14), (n, p)


@pytest.mark.parametrize("l, n, p", [(1, 7, 4), (2, 8, 8), (3, 9, 6), (2, 10, 32)])
def test_symmetric_ratio_at_even_p_is_the_nearest_double(l, n, p):
    """||S||_p^p over all 2^n sign patterns, in exact integers, then its
    p-th root to 60 digits: the double nearest it is the helper's."""
    subsets = list(combinations(range(n), l))
    total = 0
    for signs in product((1, -1), repeat=n):
        total += sum(int(np.prod([signs[i] for i in a])) for a in subsets) ** p
    moment = Fraction(total, 2**n) / Fraction(len(subsets)) ** (p // 2)
    with localcontext() as ctx:
        ctx.prec = 60
        root = (Decimal(moment.numerator) / Decimal(moment.denominator)) ** (Decimal(1) / p)
    values = walsh_family(l, n).index_set().values()
    assert _symmetric_ratio(values, p) == float(root)


def test_symmetric_ratio_finite_at_two_thousand_digits():
    """At n = 2000 the binomial weights pass the float range.  The ratio
    of a Rademacher sum stays under the Gaussian's, Haagerup's sharp
    Khintchine constant, and at n = 2000 within a percent of it."""
    values = [1 << k for k in range(1, 2001)]
    for p in (32, 33.5):
        ratio = _symmetric_ratio(values, p)
        gaussian = sqrt(2) * (gamma((p + 1) / 2) / sqrt(pi)) ** (1 / p)
        assert 0.99 * gaussian < ratio < gaussian


def test_symmetric_ratio_grows_at_the_bonami_rate():
    values = walsh_family(2, 200).index_set().values()
    ps = [4, 8, 16, 32]
    slope = np.polyfit(np.log(ps), np.log([_symmetric_ratio(values, p) for p in ps]), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.01)  # p^(l/2)


def test_full_dyadic_family_at_one_restart_has_no_cell_cap():
    fam = walsh_family(2, 30)
    values = fam.index_set().values()
    result = maximize_ratio(fam, 4, ExtremalConfig(restarts=1))
    assert result.ratio == _symmetric_ratio(values, 4)
    assert result.runs == (RunSummary("equal", 1, "stationary", result.ratio),)
    assert set(result.coefficients.values()) == {1.0 / len(values) ** 0.5}
    report = growth_exponent(fam, [4, 8, 16, 32], ExtremalConfig(restarts=1))
    assert report.skipped == () and report.ratios == report.probe_ratios
    with pytest.raises(ResourceError):
        maximize_ratio(fam, 4, ExtremalConfig(restarts=2))


def test_partial_dyadic_family_takes_the_cell_path():
    full = walsh_family(2, 30).index_set()
    values = full.values()
    assert _symmetric_ratio(values[1:], 4) is None
    # as many values over as many digits, one of them of order 3
    assert _symmetric_ratio(sorted(values[1:] + [2 + 4 + 8]), 4) is None
    partial = replace(full, entries={m: full.entries[m] for m in values[1:]})
    with pytest.raises(ResourceError):
        maximize_ratio(partial, 4, ExtremalConfig(restarts=1))


def _refuse_index_sets(patch):
    def refuse(*args, **kwargs):
        raise AssertionError("an index set was built")

    patch.setattr(ChaosFamily, "index_set", refuse)
    patch.setattr(lacunary, "enumerate_index_set", refuse)
    patch.setattr(extremal, "enumerate_index_set", refuse)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_full_family_ratios_from_n_and_l_are_the_enumerated_ones(l):
    p_list = [3, 4, 5.5, 8, 16, 32, 64]
    for n in (l + 1, 9, 17, 32):
        fam = walsh_family(l, n)
        want = [_symmetric_ratio(fam.index_set().values(), p) for p in p_list]
        report = growth_exponent(fam, p_list, ExtremalConfig(restarts=1))
        assert list(report.ratios) == want, n
        assert list(report.probe_ratios) == want, n


def test_full_family_at_one_restart_builds_no_index_set(monkeypatch):
    with monkeypatch.context() as patch:
        _refuse_index_sets(patch)
        report = growth_exponent(
            walsh_family(3, 1000), [4, 8, 16, 32, 64], ExtremalConfig(restarts=1)
        )
        result = maximize_ratio(walsh_family(2, 300), 4, ExtremalConfig(restarts=1))
    assert report.skipped == () and report.ratios == report.probe_ratios
    assert 1.5 < report.probe_slope < 1.6  # towards p^(l/2)
    assert result.ratio == _krawtchouk_ratio(300, 2, 4)
    assert result.runs == (RunSummary("equal", 1, "stationary", result.ratio),)
    assert len(result.coefficients) == 300 * 299 // 2


def test_full_values_are_the_index_set_values():
    for n in range(1, 10):
        for l in range(1, n + 1):
            want = walsh_family(l, n).index_set().values()
            assert extremal._full_values(n, l) == want, (n, l)


@pytest.mark.parametrize(
    "family, error",
    [
        (ChaosFamily(geometric_sequence(3, 6), 2, "dyadic"), InvalidSequenceError),
        (ChaosFamily(dyadic_sequence(3), 5, "dyadic"), InsufficientTermsError),
        (ChaosFamily(dyadic_sequence(3), 0, "dyadic"), InvalidOrderError),
        (ChaosFamily(dyadic_sequence(3), 2.5, "dyadic"), InvalidOrderError),
    ],
)
def test_dyadic_family_shape_errors_are_the_enumeration_errors(family, error):
    with pytest.raises(error) as enumerated:
        family.index_set()
    for restarts in (1, 2):
        cfg = ExtremalConfig(restarts=restarts)
        for search in (
            lambda: growth_exponent(family, [3, 4, 6, 8], cfg),
            lambda: maximize_ratio(family, 4, cfg),
        ):
            with pytest.raises(error) as raised:
                search()
            assert str(raised.value) == str(enumerated.value)


def test_seeded_restarts_past_the_cell_cap_fail_before_enumeration(monkeypatch):
    fam = walsh_family(3, 120)
    cfg = ExtremalConfig(restarts=2)
    with monkeypatch.context() as patch:
        _refuse_index_sets(patch)
        with pytest.raises(InsufficientDataError) as info:
            growth_exponent(fam, [3, 4, 6, 8], cfg)
        with pytest.raises(ResourceError, match="scale 24"):
            maximize_ratio(fam, 4, cfg)
    assert info.value.skipped == tuple((p, "ResourceError") for p in (3.0, 4.0, 6.0, 8.0))


def test_full_family_coefficient_cap_before_any_build(monkeypatch):
    # C(5794, 2) = 16,782,321 coefficients, just past 2^24
    def refuse(*args, **kwargs):
        raise AssertionError("built past the cap")

    with monkeypatch.context() as patch:
        _refuse_index_sets(patch)
        patch.setattr(extremal, "_full_values", refuse)
        patch.setattr(extremal, "_krawtchouk_ratio", refuse)
        with pytest.raises(ResourceError, match="2\\^24"):
            maximize_ratio(walsh_family(2, 5794), 4, ExtremalConfig(restarts=1))


def test_stop_at_max_iter_is_not_converged():
    fam = trig_family(geometric_sequence(2, 8), 1)
    result = maximize_ratio(fam, 8.0, ExtremalConfig(restarts=1, max_iter=1))
    assert result.stop_reason == "max-iter"
    assert not result.converged
    assert result.to_json_dict()["converged"] is False


def test_maximize_keeps_seed_commit_gain_on_trig_family():
    # the gain the earlier line-search ascent found here, truncated to 1e-9
    fam = trig_family(geometric_sequence(2, 8), 1)
    values = fam.index_set().values()
    equal = TrigPolynomial({m: 1.0 / np.sqrt(len(values)) for m in values})
    probe = khintchine_ratio(equal, 8.0)
    result = maximize_ratio(fam, 8.0, ExtremalConfig(restarts=2, max_iter=60, seed=0))
    assert result.ratio >= probe * 1.002826613 - 1e-9
    assert result.converged


def test_trig_search_grid_is_five_smooth():
    from lacuna.extremal import _make_space

    values = trig_family(geometric_sequence(2, 11), 1).index_set().values()
    # 8 * (2 * 2048 + 1) = 32776 = 2^3 * 17 * 241 rounds up to 3^8 * 5
    assert _make_space(values, False, 8).size == 32805
    # at even p the exact grid on keys 2..2048: N > (p / 2) * 2046 and
    # N > 4096, rounded up to 5-smooth, when under the oversample one
    sizes = {4: 4320, 8: 8192, 16: 16384, 32: 32768, 3: 32805, 64: 32805, 6.5: 32805}
    for p, want in sizes.items():
        assert _make_space(values, False, 8, p).size == want, p
    rng = np.random.default_rng(3)
    for _ in range(200):
        keys = sorted(set(rng.integers(-5000, 5000, size=int(rng.integers(1, 9))).tolist()))
        for p in (3, 4, 6, 8, 16, 32, 64):
            assert _make_space(keys, False, 8, p).size <= _make_space(keys, False, 8).size


def test_extremal_trig_runs_keep_their_iterations_and_stop_reasons():
    """The exact grid at even p leaves every run of the seed-1 search on
    the benchmark's trig family where the oversample grid left it."""
    fam = trig_family(geometric_sequence(2, 11), 1)
    cfg = ExtremalConfig(restarts=2, max_iter=60, seed=1)
    earlier = {
        4: [(1, "stationary"), (60, "max-iter")],
        8: [(55, "small-gain"), (60, "max-iter")],
        16: [(13, "small-gain"), (17, "small-gain")],
        32: [(6, "small-gain"), (8, "small-gain")],
    }
    for p, want in earlier.items():
        runs = maximize_ratio(fam, p, cfg).runs
        assert [(run.iterations, run.stop_reason) for run in runs] == want, p


def test_maximize_on_smooth_grid_keeps_exact_quadrature_ratios():
    # p * degree stays under the grid size at p = 4, 8 and 16, so the
    # quadrature is exact on the old and the rounded-up grid alike
    fam = trig_family(geometric_sequence(2, 11), 1)
    cfg = ExtremalConfig(restarts=2, max_iter=60, seed=1)
    earlier = {4: 1.175456745021064, 8: 1.5013764516866268, 16: 2.0372411523384604}
    for p, want in earlier.items():
        assert maximize_ratio(fam, p, cfg).ratio == pytest.approx(want, rel=1e-10)


def test_result_summarizes_every_start():
    fam = trig_family(geometric_sequence(2, 8), 1)
    cfg = ExtremalConfig(restarts=3, max_iter=20, seed=4)
    result = maximize_ratio(fam, 8.0, cfg)
    assert len(result.runs) == cfg.restarts
    assert [run.start for run in result.runs] == ["equal", 1, 2]
    assert max(run.ratio for run in result.runs) == result.ratio
    best = next(run for run in result.runs if run.ratio == result.ratio)
    assert (best.iterations, best.stop_reason) == (result.iterations, result.stop_reason)
    runs = result.to_json_dict()["runs"]
    assert runs[0] == {
        "start": "equal",
        "iterations": result.runs[0].iterations,
        "stop_reason": result.runs[0].stop_reason,
        "ratio": result.runs[0].ratio,
    }
    assert [r["start"] for r in runs] == ["equal", 1, 2]
    single = maximize_ratio(trig_family(geometric_sequence(4, 1), 1), 4.0, cfg)
    assert [run.to_json_dict() for run in single.runs] == [
        {"start": "equal", "iterations": 0, "stop_reason": "stationary", "ratio": 1.0}
    ]


def test_result_json_keeps_zero_coefficients():
    run = (RunSummary("equal", 0, "stationary", 1.0),)
    walsh = ExtremalResult({10: 1.0, 6: 0.0}, 1.0, 4.0, 0, "stationary", "walsh", run)
    assert walsh.to_json_dict()["coefficients"] == [
        {"value_m": 6, "coeff": 0.0},
        {"value_m": 10, "coeff": 1.0},
    ]
    trig = ExtremalResult({4: 1 + 2j, 2: 0j}, 1.0, 4.0, 0, "stationary", "trig", run)
    assert trig.to_json_dict()["coefficients"] == [
        {"freq": 2, "re": 0.0, "im": 0.0},
        {"freq": 4, "re": 1.0, "im": 2.0},
    ]


def test_maximize_ratio_finite_at_large_p():
    fam = walsh_family(2, 10)
    values = fam.index_set().values()
    equal = WalshPolynomial({m: 1.0 / np.sqrt(len(values)) for m in values})
    result = maximize_ratio(fam, 400.0)
    assert np.isfinite(result.ratio)
    assert result.ratio >= khintchine_ratio(equal, 400.0) - 1e-9
    # |S| <= sum |c_m| <= sqrt(n) |c|_2 bounds every L^p/L^2 ratio
    assert result.ratio <= np.sqrt(len(values)) + 1e-9


def test_maximize_accepts_family_directly():
    result = maximize_ratio(
        walsh_family(2, 5), 4.0, ExtremalConfig(restarts=1, max_iter=20, seed=0)
    )
    assert result.ratio >= 1.0


# --- growth fits ----------------------------------------------------------


def test_growth_and_blowup_keep_only_ratios(monkeypatch):
    """Only maximize_ratio builds an ExtremalResult; growth_exponent and
    blowup_probe read each search's best ratio, and that ratio is
    maximize_ratio's bit for bit."""
    cases = (
        (trig_family(geometric_sequence(2, 8), 1), ExtremalConfig(restarts=2)),
        (walsh_family(2, 8), ExtremalConfig(restarts=1)),
    )
    p_list = [3, 4, 6, 8]

    def refuse(*args, **kwargs):
        raise AssertionError("a search result was built")

    with monkeypatch.context() as patch:
        patch.setattr(extremal, "ExtremalResult", refuse)
        patch.setattr(extremal, "RunSummary", refuse)
        reports = [growth_exponent(fam, p_list, cfg) for fam, cfg in cases]
        blowup_probe(2, 4.0, [4, 8])
    for (fam, cfg), report in zip(cases, reports):
        assert report.p_values == tuple(map(float, p_list))
        for p, ratio in zip(p_list, report.ratios):
            assert ratio == maximize_ratio(fam, p, cfg).ratio, p


def test_growth_single_value_family_is_flat():
    seq = geometric_sequence(4, 1)
    fam = trig_family(seq, 1)
    report = growth_exponent(fam, [3, 4, 6, 8], ExtremalConfig(restarts=1, max_iter=10))
    assert report.slope == pytest.approx(0.0, abs=1e-12)
    assert report.ratios == (1.0, 1.0, 1.0, 1.0)


def test_growth_validation():
    fam = walsh_family(2, 5)
    with pytest.raises(InvalidInputError):
        growth_exponent(fam, [3, 4, 6])  # too few exponents
    with pytest.raises(InvalidInputError):
        growth_exponent(fam, [2, 3, 4, 6])  # p must exceed 2
    with pytest.raises(InvalidInputError):
        growth_exponent("nonsense", [3, 4, 6, 8])


def test_growth_all_exponents_fail_raises():
    # exponent budget 30 forces the seeded restart's cells past the scale
    # cap, and degree 3^20 + 3^19 a grid of 7.4e10 points past the 2^24
    # grid cap, so every p fails inside the loop and the fit has nothing
    # to work with
    cases = (
        (walsh_family(2, 30), ExtremalConfig(restarts=2, max_iter=5)),
        (trig_family(geometric_sequence(3, 20), 2), ExtremalConfig(restarts=1, max_iter=5)),
    )
    for fam, cfg in cases:
        with pytest.raises(InsufficientDataError) as info:
            growth_exponent(fam, [3, 4, 6, 8], cfg)
        skipped = tuple((p, "ResourceError") for p in (3.0, 4.0, 6.0, 8.0))
        assert info.value.skipped == skipped


def test_growth_slope_tracks_probe_for_symmetric_family():
    """On a full order-2 dyadic family the all-equal vector is a
    critical point of every p-objective, so the optimized and probe
    slopes coincide."""
    fam = walsh_family(2, 10)
    cfg = ExtremalConfig(restarts=1, max_iter=30, step=0.5, seed=0)
    report = growth_exponent(fam, [3, 4, 6, 8], cfg)
    assert report.slope == pytest.approx(report.probe_slope, abs=5e-3)
    assert report.residual < 0.05
    assert report.skipped == () and report.to_json_dict()["skipped"] == []
    for p, ratio in zip(report.p_values, report.ratios):
        assert ratio <= (p - 1) ** 1.0 + 1e-9


# --- blowup probe ----------------------------------------------------------


def _searched_supports(monkeypatch, *args):
    """Run blowup_probe(*args) and return each support it searches, the
    critical one first at every budget."""
    supports = []
    search = extremal._maximize_over_values

    def spy(values, *rest):
        supports.append(list(values))
        return search(values, *rest)

    monkeypatch.setattr(extremal, "_maximize_over_values", spy)
    blowup_probe(*args)
    return supports


@pytest.mark.parametrize("l", [2, 3])
def test_blowup_critical_frequencies_are_certified_signed_sums(monkeypatch, l):
    """The critical side searches the b smallest of +-m, m >= 3^l, and each
    is the construction's witness, an order-l signed sum of its terms."""
    top = 15
    critical = _searched_supports(monkeypatch, l, 4.0, [4, top])[-2]
    seq, cover = counterexample_sequence(l, 3**l + (top + 1) // 2 - 1)
    assert sorted(map(abs, critical)) == [3**l + i // 2 for i in range(top)]
    assert len(set(critical)) == top
    for v in critical:
        witness = cover["witnesses"][abs(v)]
        sign = 1 if v > 0 else -1
        signs = [sign * s for s in witness["signs"]]
        rep = SignedRepresentation.build(seq.terms, witness["indices"], signs)
        assert rep.value == v and rep.order == l
        assert rep in representations(seq, v, l)


def test_blowup_critical_slope_exceeds_control_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = blowup_probe(2, 4.0, [8, 16, 32, 64], seed=0)
    assert report.slope_critical > report.slope_control
    assert report.critical_nondecreasing


def test_blowup_control_grid_cap_before_any_search(monkeypatch):
    """At l = 2 and p = 4 the 400 smallest control sums, +-1.43e7 at
    most, need a grid of 5.76e7 points."""

    def search(*args):
        raise AssertionError("a search ran before the grid cap was checked")

    monkeypatch.setattr(extremal, "_maximize_over_values", search)
    with pytest.raises(ResourceError, match="2\\^24"):
        blowup_probe(2, 4.0, [8, 400], seed=0)


def test_blowup_cap_check_sizes_the_grid_as_its_searches_do(monkeypatch):
    made = []
    make_space = extremal._make_space

    def spy(values, dyadic, oversample, p=None):
        space = make_space(values, dyadic, oversample, p)
        made.append((sorted(values), space.size))
        return space

    monkeypatch.setattr(extremal, "_make_space", spy)
    blowup_probe(2, 4.0, [6, 12], seed=0)
    checked, *searched = made
    assert checked in searched
    assert checked[1] < make_space(checked[0], False, 8).size
    # +-K keys: the p = 4 grid needs N > 4K, the oversample one 8(2K + 1)
    fits = [-2_000_000, 1, 2_000_000]
    assert make_space(fits, False, 8, 4.0).size == 8_100_000 <= 1 << 24
    with pytest.raises(ResourceError, match="2\\^24"):
        make_space(fits, False, 8)
    with pytest.raises(ResourceError, match="2\\^24"):
        make_space([-5_000_000, 1, 5_000_000], False, 8, 4.0)


def test_blowup_single_budget():
    report = blowup_probe(2, 4.0, [1], seed=0)
    assert len(report.rows) == 1
    assert report.rows[0].budget == 1
    assert report.rows[0].ratio_critical == 1.0
    assert report.rows[0].ratio_control == 1.0
    assert report.critical_nondecreasing
    assert report.slope_critical is None and report.slope_control is None


def test_blowup_deterministic_and_monotone_budgets():
    a = blowup_probe(2, 4.0, [2, 4, 6], seed=3)
    b = blowup_probe(2, 4.0, [2, 4, 6], seed=3)
    assert a.to_json_dict() == b.to_json_dict()
    assert [r.budget for r in a.rows] == [2, 4, 6]
    # growing budgets can only widen the feasible set for the search
    ratios = [r.ratio_critical for r in a.rows]
    assert all(y >= x - 1e-6 for x, y in zip(ratios, ratios[1:]))


def test_blowup_validation():
    with pytest.raises(InvalidOrderError):
        blowup_probe(1, 4.0, [1])
    with pytest.raises(InvalidInputError):
        blowup_probe(2, 2.0, [1])
    with pytest.raises(InvalidInputError):
        blowup_probe(2, 4.0, [])
    with pytest.raises(InvalidInputError):
        blowup_probe(2, 4.0, [0, 2])
