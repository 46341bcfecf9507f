"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"ACCEPTANCE-NN name: PASS/FAIL" line (run pytest with -s to see them).
Expected values come from closed forms, independent oracles written
inline, or exact arithmetic; optimizer outputs are only compared with
certified bounds and bitwise reruns.  Runtime ceilings are asserted.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np

from lacuna import (
    DyadicPoint,
    ExtremalConfig,
    IntervalSet,
    TrigContext,
    TrigPolynomial,
    WalshContext,
    WalshIndex,
    WalshPolynomial,
    blowup_probe,
    counterexample_sequence,
    critical_lambda,
    dyadic_sequence,
    energy_on_set,
    enumerate_index_set,
    find_alpha,
    geometric_sequence,
    growth_exponent,
    inverse_parseval_check,
    lp_norm_trig,
    lp_norm_walsh,
    maximize_ratio,
    modulation_projection,
    ratio_gradient,
    recover_coefficient,
    shift_sum_bulk,
    trig_family,
    walsh_family,
)
from lacuna.cli import main as cli_main


class _gate:
    """Context manager printing the one-line verdict for a criterion."""

    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE-{self.number:02d} {self.name}: {verdict}")
        return False


def bisect_root(f, lo: float, hi: float, steps: int = 200) -> float:
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_acceptance_01_critical_constants():
    with _gate(1, "critical-constants"):
        t0 = time.perf_counter()
        golden = (1 + 5**0.5) / 2
        assert abs(critical_lambda(3) - golden) < 1e-12

        def cubic(x):
            return x**3 - x**2 - x - 1

        tribonacci = bisect_root(cubic, 1.0, 2.0)
        assert abs(critical_lambda(4) - tribonacci) < 1e-12

        for l in range(3, 13):
            def poly(x, l=l):
                return x ** (l - 1) - sum(x**j for j in range(l - 1))

            oracle = bisect_root(poly, 1.0, 2.0)
            assert abs(critical_lambda(l) - oracle) < 1e-12

        values = [critical_lambda(l) for l in range(2, 13)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 2 for v in values)
        assert time.perf_counter() - t0 < 1.0


def test_acceptance_02_shift_sum_exactness():
    with _gate(2, "signed-shift-sum-exactness"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for l in (2, 3, 4):
            iset = enumerate_index_set(dyadic_sequence(10), l, "dyadic")
            indices = [WalshIndex.from_value(v) for v in sorted(iset.values())]
            alphas = [DyadicPoint(int(rng.integers(0, 1 << 12)), 12) for _ in range(100)]
            for m in indices:
                table = shift_sum_bulk(indices, m, alphas)
                for j, n in enumerate(indices):
                    column = table[:, j]
                    if n.value == m.value:
                        assert np.all(np.abs(column) == 2**l), (l, m.value)
                    else:
                        assert np.all(column == 0), (l, n.value, m.value)
        assert time.perf_counter() - t0 < 30.0


def test_acceptance_03_modulation_projection():
    with _gate(3, "modulation-projection-dichotomy"):
        t0 = time.perf_counter()
        terms = [4**k for k in range(1, 7)]
        reachable_cache = {}
        for s in (1, 2, 3, 4):
            for subset in itertools.combinations(terms, s):
                reachable = set()
                for signs in itertools.product((1, -1), repeat=s):
                    m = sum(e * n for e, n in zip(signs, subset))
                    reachable.add(m)
                    got = modulation_projection(m, subset)
                    assert got == Fraction(1, 2**s), (subset, m)
                reachable_cache[subset] = reachable

        rng = np.random.default_rng(33)
        subsets = list(reachable_cache)
        checked = 0
        while checked < 500:
            subset = subsets[int(rng.integers(0, len(subsets)))]
            m = int(rng.integers(-6000, 6001))
            if m in reachable_cache[subset]:
                continue
            assert modulation_projection(m, subset) == 0, (subset, m)
            checked += 1

        # quadrature cross-check: midpoint rule on 2**15 points is exact
        # for the integrand's degree (< 11000), so 1e-8 is pure roundoff
        n = 2**15
        u = (np.arange(n) + 0.5) / n
        for subset in [(4, 16), (64, 1024), (4, 16, 64, 256), (16, 256, 1024, 4096)]:
            prod = np.prod([np.cos(2 * np.pi * f * u) for f in subset], axis=0)
            sample = sorted(reachable_cache[subset])[:3]
            for m in list(sample) + [7, -1111]:
                gamma = float(np.mean(np.exp(2j * np.pi * m * u) * prod).real)
                assert abs(float(modulation_projection(m, subset)) - gamma) < 1e-8
        assert time.perf_counter() - t0 < 30.0


def test_acceptance_04_representation_properties():
    with _gate(4, "representation-uniqueness-window"):
        t0 = time.perf_counter()
        seq = geometric_sequence(4, 8)
        for l in (2, 3):
            star = enumerate_index_set(seq, l, "signed-star")
            for m, reps in star.entries.items():
                assert len(reps) == 1, (l, m)
            from lacuna import representations

            assert representations(seq, 0, l) == []
            positive = enumerate_index_set(seq, l, "positive-star")
            for m, reps in positive.entries.items():
                assert len(reps) == 1, (l, m)

        # negative control: the base-2 ladder has colliding signed sums
        ladder = geometric_sequence(2, 8, lam=Fraction(3, 2))
        collisions = enumerate_index_set(ladder, 2, "signed-star")
        assert any(len(reps) > 1 for reps in collisions.entries.values())

        from lacuna import empirical_mixed_bound, mixed_count_table

        d = empirical_mixed_bound(seq, 2)
        assert d == 1
        table = mixed_count_table(seq, 2)
        assert all(count <= d for count in table.values())
        assert time.perf_counter() - t0 < 60.0


def test_acceptance_05_khintchine_bounds():
    with _gate(5, "khintchine-moment-caps"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(55)
        for l in (2, 3):
            values = sorted(enumerate_index_set(dyadic_sequence(10), l, "dyadic").values())
            for _ in range(200):
                support = rng.choice(values, size=8, replace=False)
                poly = WalshPolynomial(
                    {int(v): float(rng.standard_normal()) for v in support}
                )
                norm2 = poly.norm2()
                for p in (3, 4, 6, 8):
                    cap = (p - 1) ** (l / 2) * norm2
                    assert lp_norm_walsh(poly, p) <= cap + 1e-9

        l = 2
        values = sorted(enumerate_index_set(geometric_sequence(4, 6), l, "signed").values())
        for _ in range(200):
            support = rng.choice(values, size=6, replace=False)
            poly = TrigPolynomial(
                {
                    int(v): complex(rng.standard_normal(), rng.standard_normal())
                    for v in support
                }
            )
            norm2 = poly.norm2()
            for p in (3, 4, 6, 8):
                cap = (8 * (p - 1)) ** (l / 2) * norm2
                assert lp_norm_trig(poly, p) <= cap * (1 + 1e-6)
        assert time.perf_counter() - t0 < 120.0


def _fat_set(rng, max_gap_cells: int, denom: int = 4096) -> IntervalSet:
    width = int(rng.integers(1, max_gap_cells + 1))
    start = int(rng.integers(0, denom - width))
    a = Fraction(start, denom)
    b = Fraction(start + width, denom)
    pieces = []
    if a > 0:
        pieces.append((Fraction(0), a))
    if b < 1:
        pieces.append((b, Fraction(1)))
    return IntervalSet(pieces)


def test_acceptance_06_inverse_parseval():
    with _gate(6, "inverse-parseval-lower-bound"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(66)
        seq = geometric_sequence(4, 6)
        ctx = TrigContext(sequence=seq, order=2, d=1)
        pair_sums = sorted(enumerate_index_set(seq, 2, "positive").values())
        for _ in range(100):
            support = rng.choice(pair_sums, size=5, replace=False)
            poly = TrigPolynomial(
                {
                    int(v): complex(rng.standard_normal(), rng.standard_normal())
                    for v in support
                }
            )
            E = _fat_set(rng, max_gap_cells=511)  # keeps |E| > 7/8
            report = inverse_parseval_check(poly, E, ctx)
            assert report.measure_ok
            assert report.passed
            total = energy_on_set(poly, E) + energy_on_set(poly, E.complement())
            assert abs(total - report.coefficient_mass) < 1e-10

        wctx = WalshContext(order=2)
        walsh_values = [
            v for v in range(2, 2048) if v % 2 == 0 and bin(v).count("1") <= 2
        ]
        for _ in range(100):
            support = rng.choice(walsh_values, size=5, replace=False)
            poly = WalshPolynomial(
                {int(v): float(rng.standard_normal()) for v in support}
            )
            E = _fat_set(rng, max_gap_cells=15)  # keeps |E| > 1 - 2^-8
            report = inverse_parseval_check(poly, E, wctx)
            assert report.measure_ok
            assert report.passed
            total = energy_on_set(poly, E) + energy_on_set(poly, E.complement())
            assert abs(total - report.coefficient_mass) < 1e-10
        assert time.perf_counter() - t0 < 60.0


def test_acceptance_07_coefficient_recovery():
    with _gate(7, "walsh-coefficient-recovery"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        pair_values = [
            v for v in range(2, 512) if v % 2 == 0 and bin(v).count("1") == 2
        ]
        for _ in range(50):
            support = rng.choice(pair_values, size=5, replace=False)
            coeffs = {
                int(v): float(rng.integers(-64, 65)) / 16.0 for v in support
            }
            poly = WalshPolynomial(coeffs)
            alpha = DyadicPoint(int(rng.integers(0, 1 << 9)), 9)
            for v, c in coeffs.items():
                got = recover_coefficient(poly, WalshIndex.from_value(v), alpha)
                assert got == c, (v, c, got)

        zero = WalshPolynomial({})
        for v in pair_values[:5]:
            assert recover_coefficient(zero, WalshIndex.from_value(v), DyadicPoint.zero()) == 0.0

        # translate-and-intersect search succeeds on every fat multi-gap set
        for exps in ((2, 1), (3, 2, 1)):
            l = len(exps)
            budget = Fraction(1, 2**l) - Fraction(1, 64)  # total gap < 2^-l
            for _ in range(20):
                gaps = []
                remaining = budget
                for _ in range(int(rng.integers(1, 8))):
                    if remaining <= Fraction(1, 1024):
                        break
                    w = Fraction(int(rng.integers(1, 1 + int(remaining * 1024) // 2)), 1024)
                    start = Fraction(int(rng.integers(0, 1024 - 1)), 1024)
                    gaps.append((start, min(start + w, Fraction(1))))
                    remaining -= w
                E = IntervalSet([(0, 1)])
                for a, b in gaps:
                    gap_set = IntervalSet([(a, b)])
                    E = E.intersect(gap_set.complement())
                assert len(E.intervals) <= 8
                assert E.measure > 1 - Fraction(1, 2**l)
                assert find_alpha(E, exps) is not None
        assert time.perf_counter() - t0 < 30.0


def test_acceptance_08_counterexample_coverage():
    with _gate(8, "critical-counterexample-coverage"):
        t0 = time.perf_counter()
        for l in (2, 3):
            m_max = 3**l + 50
            seq, report = counterexample_sequence(l, m_max)
            assert report["lacunary_ok"]
            assert report["coverage_ok"]
            assert report["missing"] == []
            assert report["first_violation"] is None
            terms = seq.terms
            assert all(a < b for a, b in zip(terms, terms[1:]))
            for m in range(3**l, m_max + 1):
                witness = report["witnesses"][m]
                total = sum(
                    s * terms[i] for s, i in zip(witness["signs"], witness["indices"])
                )
                assert total == m, (l, m)
        assert time.perf_counter() - t0 < 10.0


def test_acceptance_09_extremal_search():
    with _gate(9, "extremal-gradient-and-growth"):
        t0 = time.perf_counter()
        from lacuna.extremal import _make_space

        rng = np.random.default_rng(99)

        def objective(space, vec, p):
            return float(np.mean(np.abs(space.values(vec)) ** p))

        def finite_difference(coeffs, iset, p, h=1e-6):
            values = iset.values()
            space = _make_space(values, iset.is_dyadic, 8)
            if space.dtype is complex:
                base = np.array([complex(coeffs.get(m, 0.0)) for m in values])
            else:
                base = np.array([float(coeffs.get(m, 0.0)) for m in values])
            out = {}
            for i, m in enumerate(values):
                probe = base.copy()
                probe[i] = base[i] + h
                up = objective(space, probe, p)
                probe[i] = base[i] - h
                down = objective(space, probe, p)
                g = (up - down) / (2 * h)
                if space.dtype is complex:
                    probe = base.copy()
                    probe[i] = base[i] + 1j * h
                    up_i = objective(space, probe, p)
                    probe[i] = base[i] - 1j * h
                    down_i = objective(space, probe, p)
                    g = g + 1j * (up_i - down_i) / (2 * h)
                out[m] = g
            return out

        iset_w = enumerate_index_set(dyadic_sequence(6), 2, "dyadic")
        w_values = sorted(iset_w.values())
        iset_t = enumerate_index_set(geometric_sequence(4, 5), 2, "signed")
        t_values = sorted(iset_t.values())
        for k in range(20):
            if k < 10:
                support = rng.choice(w_values, size=5, replace=False)
                coeffs = {int(v): float(rng.standard_normal()) for v in support}
                iset = iset_w
            else:
                support = rng.choice(t_values, size=5, replace=False)
                coeffs = {
                    int(v): complex(rng.standard_normal(), rng.standard_normal())
                    for v in support
                }
                iset = iset_t
            got = ratio_gradient(coeffs, iset, 4.0)
            want = finite_difference(coeffs, iset, 4.0)
            for m in want:
                scale = max(1.0, abs(want[m]))
                assert abs(got[m] - want[m]) / scale < 1e-5, (k, m)

        cfg_w = ExtremalConfig(restarts=1, max_iter=60, step=0.5, seed=0)
        walsh_report = growth_exponent(walsh_family(2, 22), [4, 8, 16, 32], cfg_w)
        assert 0.75 <= walsh_report.slope <= 1.25, walsh_report.slope

        cfg_t = ExtremalConfig(restarts=2, max_iter=60, step=0.5, seed=0)
        trig_report = growth_exponent(
            trig_family(geometric_sequence(2, 12), 1), [4, 8, 16, 32], cfg_t
        )
        assert 0.3 <= trig_report.slope <= 0.7, trig_report.slope
        assert time.perf_counter() - t0 < 300.0


def test_acceptance_10_determinism(tmp_path, capsys):
    with _gate(10, "seeded-rerun-determinism"):
        cases = [
            [
                "growth", "--family", "walsh", "--l", "2",
                "--exponent-budget", "5", "--p-list", "3,4,6,8",
                "--restarts", "2", "--max-iter", "20", "--seed", "11",
            ],
            [
                "extremal", "--family", "walsh", "--l", "2",
                "--exponent-budget", "6", "--p", "4",
                "--restarts", "3", "--max-iter", "25", "--seed", "5",
            ],
            ["blowup", "--l", "2", "--p", "4", "--degree-list", "1,3", "--seed", "2"],
        ]
        for i, argv in enumerate(cases):
            a = tmp_path / f"case{i}_a.json"
            b = tmp_path / f"case{i}_b.json"
            assert cli_main(argv + ["--output", str(a)]) == 0
            assert cli_main(argv + ["--output", str(b)]) == 0
            capsys.readouterr()
            assert a.read_bytes() == b.read_bytes(), argv[0]
            assert json.loads(a.read_text())["schema_version"] == "1"

        iset = enumerate_index_set(dyadic_sequence(6), 2, "dyadic")
        cfg = ExtremalConfig(restarts=3, max_iter=25, seed=5)
        r1 = maximize_ratio(iset, 4.0, cfg)
        r2 = maximize_ratio(iset, 4.0, cfg)
        assert r1.to_json_dict() == r2.to_json_dict()

        b1 = blowup_probe(2, 4.0, [1, 3], seed=2)
        b2 = blowup_probe(2, 4.0, [1, 3], seed=2)
        assert b1.to_json_dict() == b2.to_json_dict()
