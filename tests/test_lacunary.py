"""Lacunary-core tests.

Derived expectations are produced by independent oracles defined at the
top of this file (brute-force enumeration, closed-form roots, scipy
bisection) before being compared with the library.
"""

import gc
import hashlib
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from lacuna import lacunary
from lacuna import (
    ChaosIndexSet,
    HeadPartitionReport,
    InsufficientTermsError,
    InvalidInputError,
    InvalidOrderError,
    InvalidSequenceError,
    LacunarySequence,
    PreconditionError,
    ResourceError,
    SignedRepresentation,
    counterexample_sequence,
    critical_lambda,
    critical_lambda_bracket,
    dyadic_sequence,
    empirical_mixed_bound,
    enumerate_index_set,
    geometric_sequence,
    head_partition,
    mixed_count_table,
    mixed_representation_count,
    representations,
    validate_lacunary,
)
from lacuna.lacunary import VARIANTS

GOLDEN = (1 + math.sqrt(5)) / 2


def oracle_critical(l: int) -> float:
    """Independent root of x^(l-1) = x^(l-2) + ... + 1 via scipy."""

    def f(x):
        return x ** (l - 1) - sum(x**j for j in range(l - 1))

    return brentq(f, 1.0 + 1e-9, 2.0, xtol=1e-15, rtol=8.9e-16)


def oracle_signed_sums(terms, l, exact_order=True):
    """All values of eps_1 n_{k_1} + ... with distinct indices, brute force."""
    orders = [l] if exact_order else range(1, l + 1)
    values = {}
    for s in orders:
        for combo in itertools.combinations(range(len(terms)), s):
            for signs in itertools.product((1, -1), repeat=s):
                v = sum(e * terms[i] for e, i in zip(signs, combo))
                values.setdefault(v, []).append((combo, signs))
    return values


# --- critical constants ---------------------------------------------------


def test_critical_lambda_degenerate_order_two():
    assert critical_lambda(2) == 1.0


def test_critical_lambda_golden_and_tribonacci():
    assert critical_lambda(3) == pytest.approx(GOLDEN, abs=1e-14)
    # tribonacci constant: the real root of x^3 = x^2 + x + 1
    roots = np.roots([1, -1, -1, -1])
    tribonacci = float(max(r.real for r in roots if abs(r.imag) < 1e-12))
    assert critical_lambda(4) == pytest.approx(tribonacci, abs=1e-13)


def test_critical_lambda_against_scipy_oracle():
    for l in range(3, 13):
        assert critical_lambda(l) == pytest.approx(oracle_critical(l), abs=1e-12)


def test_critical_lambda_monotone_below_two():
    values = [critical_lambda(l) for l in range(2, 13)]
    for a, b in zip(values, values[1:]):
        assert a < b
    assert all(v < 2 for v in values)


def test_critical_lambda_is_correctly_rounded():
    for l in range(2, 30):
        lo, hi = critical_lambda_bracket(l, bits=200)
        assert float(lo) == float(hi)
        assert critical_lambda(l) == float(lo), l


def test_critical_lambda_rejects_low_order():
    with pytest.raises(InvalidOrderError):
        critical_lambda(1)


def test_critical_bracket_contains_root():
    for l, bits in ((3, 30), (4, 64), (7, 80)):
        lo, hi = critical_lambda_bracket(l, bits)
        assert hi - lo <= Fraction(1, 2**bits)
        root = oracle_critical(l)
        assert float(lo) <= root <= float(hi) or abs(float(lo) - root) < 1e-14
    assert critical_lambda_bracket(2) == (Fraction(1), Fraction(1))


def bisection_bracket(l: int, bits: int) -> tuple[Fraction, Fraction]:
    """Plain bisection over the numerators N / 2^bits in [1, 2] on the sign
    of x^l - 2 x^{l-1} + 1, which is negative on (1, lambda_l) and
    positive on (lambda_l, 2]."""
    lo, hi = 1 << bits, 2 << bits
    two, one = 2 << bits, 1 << (bits * l)
    for _ in range(bits):
        mid = (lo + hi) >> 1
        if mid ** (l - 1) * (mid - two) + one < 0:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


@pytest.mark.parametrize("l", range(3, 9))
def test_critical_bracket_equals_bisection(l):
    for bits in (1, 2, 3, 50, 51, 64, 100, 1000, 3018):
        assert critical_lambda_bracket(l, bits) == bisection_bracket(l, bits), bits


# --- validation and sequence type ----------------------------------------


def test_validate_lacunary_pass_and_fail():
    assert validate_lacunary([4, 16, 64], 3)["ok"] is True
    report = validate_lacunary([2, 4, 8], 3)
    assert report["ok"] is False
    assert report["first_violation"]["pair"] == (2, 4)
    assert report["first_violation"]["index"] == 0


def test_validate_lacunary_bad_inputs():
    with pytest.raises(InvalidSequenceError):
        validate_lacunary([5, 5, 25], 1.5)
    with pytest.raises(InvalidSequenceError):
        validate_lacunary([], 2)
    with pytest.raises(InvalidSequenceError):
        validate_lacunary([0, 3], 2)


def test_sequence_constructor_enforces_witness():
    seq = LacunarySequence((4, 16, 64), lam=Fraction(3))
    assert seq.prefix(2).terms == (4, 16)
    with pytest.raises(InvalidSequenceError):
        LacunarySequence((4, 8), lam=Fraction(3))
    # the witness comparison is exact: ratio 3 is not > 3
    with pytest.raises(InvalidSequenceError):
        LacunarySequence((3, 9), lam=Fraction(3))


# --- enumeration ----------------------------------------------------------


def test_enumerate_signed_pairs_matches_brute_force():
    seq = LacunarySequence((4, 16, 64), lam=Fraction(3))
    iset = enumerate_index_set(seq, 2, "signed")
    oracle = oracle_signed_sums((4, 16, 64), 2)
    assert sorted(iset.values()) == sorted(oracle)
    assert sorted(abs(v) for v in iset.values()) == sorted(
        [12, 12, 20, 20, 48, 48, 60, 60, 68, 68, 80, 80]
    )
    for m, reps in iset.entries.items():
        assert len(reps) == 1
        assert reps[0].value == m


def test_enumerate_dyadic_smallest_values():
    iset = enumerate_index_set(dyadic_sequence(4), 2, "dyadic")
    assert sorted(iset.values())[:6] == [6, 10, 12, 18, 20, 24]


def test_enumerate_positive_pairs():
    seq = LacunarySequence((1, 2, 4), lam=Fraction(1, 2))
    iset = enumerate_index_set(seq, 2, "positive")
    assert sorted(iset.values()) == [3, 5, 6]


def test_enumerate_star_union_and_counts():
    seq = geometric_sequence(4, 5)
    star = enumerate_index_set(seq, 3, "signed-star")
    joined = set()
    for s in (1, 2, 3):
        joined |= set(enumerate_index_set(seq, s, "signed").values())
    assert set(star.values()) == joined
    # exhaustiveness: total stored representations for the exact-order
    # signed variant is 2^l * C(n, l)
    exact = enumerate_index_set(seq, 3, "signed")
    total = sum(len(r) for r in exact.entries.values())
    assert total == 2**3 * math.comb(5, 3)


def test_enumerate_insufficient_terms():
    seq = geometric_sequence(4, 3)
    with pytest.raises(InsufficientTermsError):
        enumerate_index_set(seq, 4, "signed")
    with pytest.raises(InvalidInputError):
        enumerate_index_set(seq, 2, "no-such-variant")


@pytest.mark.parametrize(
    "indices, signs",
    [
        ((), ()),
        ((2, 1), (1,)),
        ((2, 1), (1, 2)),
        ((1, 1), (1, -1)),
        ((1, 2), (1, -1)),
    ],
    ids=["empty", "length-mismatch", "sign-2", "repeated-index", "increasing-indices"],
)
def test_public_representation_constructor_still_checks(indices, signs):
    with pytest.raises(InvalidInputError):
        SignedRepresentation(indices, signs, 0, 0)


def test_representations_have_slots_and_no_dict():
    rep = enumerate_index_set(geometric_sequence(4, 3), 2).entries[12][0]
    assert not hasattr(rep, "__dict__")
    with pytest.raises(AttributeError):
        rep.value = 13


@pytest.mark.parametrize("variant", VARIANTS)
def test_enumerated_representations_equal_the_checked_build(variant):
    if variant.startswith("dyadic"):
        seq = dyadic_sequence(6)  # sums of distinct powers of two are unique
    else:
        # close terms, so many values have several representations to sort
        seq = LacunarySequence(range(1, 9), lam=Fraction(1, 2))
    iset = enumerate_index_set(seq, 3, variant)
    if not variant.startswith("dyadic"):
        assert any(len(reps) > 1 for reps in iset.entries.values())
    for m, reps in iset.entries.items():
        for r in reps:
            assert r == SignedRepresentation.build(seq.terms, r.indices, r.signs)
            assert r.value == m
        assert list(reps) == sorted(reps, key=lambda r: (r.order, r.indices, r.signs))


def reference_index_set(seq, l, variant):
    """Every SignedRepresentation.build of the variant's sign patterns,
    grouped by value in enumeration order, each value's list sorted."""
    star = variant.endswith("-star")
    sign_choices = (1, -1) if variant.startswith("signed") else (1,)
    grouped = {}
    for s in range(1, l + 1) if star else (l,):
        for combo in itertools.combinations(range(len(seq.terms)), s):
            for signs in itertools.product(sign_choices, repeat=s):
                rep = SignedRepresentation.build(seq.terms, combo[::-1], signs)
                grouped.setdefault(rep.value, []).append(rep)
    key = lambda r: (r.order, r.indices, r.signs)  # noqa: E731
    return {v: tuple(sorted(reps, key=key)) for v, reps in grouped.items()}


@pytest.mark.parametrize("variant", VARIANTS)
def test_enumerate_index_set_equals_the_grouped_reference(variant):
    if variant.startswith("dyadic"):
        cases = [(dyadic_sequence(6), False)]
    else:
        # range(1, 9) collides on many values; powers of 4 collide on none
        cases = [
            (LacunarySequence(range(1, 9), lam=Fraction(1, 2)), True),
            (geometric_sequence(4, 6), False),
        ]
    for seq, collides in cases:
        iset = enumerate_index_set(seq, 3, variant)
        want = reference_index_set(seq, 3, variant)
        assert iset.entries == want
        assert list(iset.entries) == list(want)
        reps = sum(len(r) for r in want.values())
        assert (len(want) < reps) == collides


def test_enumeration_builds_no_object_per_representation():
    seq = geometric_sequence(4, 20)
    reps = 2**3 * math.comb(20, 3)  # 9120, every value distinct
    before = len(gc.get_objects())
    iset = enumerate_index_set(seq, 3)
    grown = len(gc.get_objects()) - before
    assert len(iset) == reps
    assert grown < reps // 2, grown


def reference_json(iset, plain):
    """to_json_dict as it reads off a plain value -> representations dict."""
    return {
        "variant": iset.variant,
        "order": iset.order,
        "sequence": list(iset.sequence.terms),
        "entries": [
            {
                "value": v,
                "representations": [
                    {"indices": list(r.indices), "signs": list(r.signs)} for r in plain[v]
                ],
            }
            for v in sorted(plain)
        ],
    }


def reference_heads(seq, l, plain):
    """The head partition of a plain dict, in Fraction arithmetic: blocks by
    the first representation's signed 1-based lead position, in the order
    of the sorted values."""
    tail = sum(Fraction(seq.lam) ** -t for t in range(1, l))
    a, b = 1 - tail, 1 + tail
    blocks, ambiguous, violations = {}, [], []
    for v in sorted(plain):
        heads = [r.signs[0] * (r.indices[0] + 1) for r in plain[v]]
        if len(set(heads)) > 1:
            ambiguous.append(v)
        blocks.setdefault(heads[0], []).append(v)
        leads = [seq.terms[r.indices[0]] for r in plain[v]]
        if not all(a * n < abs(v) < b * n for n in leads):
            violations.append(v)
    return HeadPartitionReport(
        order=l,
        a=a,
        b=b,
        blocks={j: tuple(vals) for j, vals in blocks.items()},
        ambiguous=tuple(ambiguous),
        containment_ok=not violations,
        violations=tuple(violations),
    )


def test_hand_built_index_sets_match_the_dict_they_came_from():
    distinct = enumerate_index_set(geometric_sequence(4, 6), 3)
    # 5 = 3 + 2 = 8 - 3 and 3 = 5 - 2 = 8 - 5 collide above lambda_2 = 1
    colliding = enumerate_index_set(LacunarySequence((2, 3, 5, 8), Fraction(7, 5)), 2)
    assert any(len(reps) > 1 for reps in colliding.entries.values())
    cases = []
    for full in (distinct, colliding):
        plain = dict(full.entries.items())
        cases.append((full, plain))
        # keys and each value's representations in reverse: kept as given
        backwards = {v: reps[::-1] for v, reps in reversed(plain.items())}
        cases.append((full, backwards))
        # a subset through dataclasses.replace
        values = full.values()
        cases.append((full, {m: full.entries[m] for m in values[1::2]}))
    # hand-set values against lam = 2, a = 1/2, b = 3/2: 24 lies on lead
    # 16's upper bound, and 40 leads with 64 but lies outside lead 16's
    # bounds in its second representation, whose head differs
    seq = LacunarySequence((4, 16, 64), lam=2)
    rep = SignedRepresentation
    odd = {
        40: (rep((2, 0), (1, 1), 40, 64), rep((1, 0), (1, 1), 40, 16)),
        9: (rep((1, 0), (1, 1), 9, 16),),
        24: (rep((1, 0), (1, 1), 24, 16),),
        -9: (rep((1, 0), (-1, 1), -9, -16),),
    }
    cases.append((ChaosIndexSet("signed", 2, seq, {}), odd))
    assert reference_heads(seq, 2, odd).violations == (24, 40)
    assert reference_heads(seq, 2, odd).ambiguous == (40,)
    for full, plain in cases:
        for built in (
            ChaosIndexSet(full.variant, full.order, full.sequence, plain),
            replace(full, entries=plain),
        ):
            assert built.entries == plain and plain == built.entries
            assert list(built.entries) == list(plain)
            assert list(built.entries.items()) == list(plain.items())
            assert all(built.entries.get(v) == reps for v, reps in plain.items())
            assert built.entries.get(0.5) is None and 0.5 not in built
            assert len(built) == len(plain)
            values = built.values()
            assert values == sorted(plain)
            values.append(0)  # the next call is a fresh list
            assert built.values() == sorted(plain)
            assert built.to_json_dict() == reference_json(built, plain)
            report = head_partition(built)
            want = reference_heads(full.sequence, full.order, plain)
            assert report == want
            assert list(report.blocks) == list(want.blocks)
    # the enumerated sets themselves agree with their dicts
    for full in (distinct, colliding):
        assert head_partition(full) == reference_heads(
            full.sequence, full.order, dict(full.entries.items())
        )


def test_hand_built_representation_must_lead_with_a_sequence_term():
    seq = geometric_sequence(4, 3)
    past = SignedRepresentation((3, 0), (1, 1), 260, 256)
    wrong_head = SignedRepresentation((1, 0), (1, 1), 20, 17)
    for rep in (past, wrong_head):
        with pytest.raises(InvalidInputError, match="lead with a signed term"):
            ChaosIndexSet("signed", 2, seq, {rep.value: (rep,)})


# --- representations ------------------------------------------------------


def test_representations_unique_on_three_lacunary():
    seq = geometric_sequence(4, 4)
    reps = representations(seq, 12, 2)
    assert len(reps) == 1
    assert reps[0].indices == (1, 0)
    assert reps[0].signs == (1, -1)
    assert reps[0].head == 16


def test_representations_zero_empty_on_three_lacunary():
    seq = geometric_sequence(4, 4)
    assert representations(seq, 0, 4) == []


def test_representations_collision_below_three():
    # ratio 2 is not 3-lacunary: 2 = 2 = 4 - 2 shows uniqueness needs > 3
    seq = geometric_sequence(2, 4, lam=Fraction(3, 2))
    reps = representations(seq, 2, 2)
    assert len(reps) == 2
    shapes = {(r.indices, r.signs) for r in reps}
    assert ((0,), (1,)) in shapes
    assert ((1, 0), (1, -1)) in shapes


def test_representations_exhaustive_window_uniqueness():
    """Over a 3-lacunary prefix every reachable value has exactly one
    at-most-l signed representation."""
    seq = geometric_sequence(4, 8)
    for l in (2, 3):
        star = enumerate_index_set(seq, l, "signed-star")
        for m, reps in star.entries.items():
            assert len(reps) == 1, f"value {m} has {len(reps)} representations"
        assert representations(seq, 0, l) == []


def test_representations_match_star_enumeration_for_every_variant():
    # ratio 2 is not 3-lacunary, so many values have several representations
    cases = (
        (geometric_sequence(2, 6, lam=Fraction(3, 2)), ("signed", "positive")),
        (dyadic_sequence(6), ("dyadic",)),
    )
    for seq, variants in cases:
        for l in (1, 2, 3):
            for variant in variants:
                star = enumerate_index_set(seq, l, variant + "-star")
                for m in range(-130, 131):
                    want = list(star.entries.get(m, ()))
                    assert representations(seq, m, l, variant) == want, (variant, l, m)


def test_positive_star_unique_above_next_critical():
    # positive-sum uniqueness needs lambda > lambda_{l+1}; ratio 4
    # clears the order-3 constant
    seq = geometric_sequence(4, 7)
    star = enumerate_index_set(seq, 2, "positive-star")
    for m, reps in star.entries.items():
        assert len(reps) == 1, m


# --- mixed counts ---------------------------------------------------------


def oracle_mixed_count(terms, m, l):
    count = 0
    n = len(terms)
    for s in range(l + 1):
        for t in range(l + 1):
            for plus in itertools.combinations(range(n), s):
                rest = [i for i in range(n) if i not in plus]
                for minus in itertools.combinations(rest, t):
                    v = sum(terms[i] for i in plus) - sum(terms[i] for i in minus)
                    if v == m:
                        count += 1
    return count


def test_mixed_count_matches_brute_force():
    seq = geometric_sequence(4, 3)
    for m in (0, 12, 20, 84, 7, -48):
        assert mixed_representation_count(seq, m, 2) == oracle_mixed_count(
            (4, 16, 64), m, 2
        )


def test_mixed_count_zero_and_unreachable():
    seq = geometric_sequence(4, 3)
    assert mixed_representation_count(seq, 0, 2) == 1
    assert mixed_representation_count(seq, 10**9, 2) == 0


def test_mixed_count_warns_below_critical():
    seq = geometric_sequence(2, 4, lam=Fraction(3, 2))
    with pytest.warns(UserWarning):
        mixed_representation_count(seq, 6, 2)


def test_empirical_bound_is_max_of_table():
    seq = geometric_sequence(4, 6)
    table = mixed_count_table(seq, 2)
    bound = empirical_mixed_bound(seq, 2)
    assert bound == max(table.values())
    assert bound == 1  # signed-digit uniqueness for the base-4 ladder
    assert all(v <= bound for v in table.values())


def test_mixed_table_resource_guard():
    seq = geometric_sequence(2, 24, lam=Fraction(3, 2))
    with pytest.raises(ResourceError):
        mixed_count_table(seq, 6)


# --- head partition -------------------------------------------------------


def test_head_partition_order_two_bounds():
    seq = geometric_sequence(4, 3)
    iset = enumerate_index_set(seq, 2, "signed")
    report = head_partition(iset)
    assert report.a == Fraction(2, 3)
    assert report.b == Fraction(4, 3)
    assert report.containment_ok
    assert report.ambiguous == ()
    # 20 and 12 both carry head +16, the j=+2 block
    assert 20 in report.blocks[2]
    assert 12 in report.blocks[2]
    assert Fraction(32, 3) < 20 < Fraction(64, 3)
    assert Fraction(32, 3) < 12 < Fraction(64, 3)


def test_head_partition_blocks_partition_the_set():
    seq = geometric_sequence(4, 5)
    iset = enumerate_index_set(seq, 3, "signed")
    report = head_partition(iset)
    seen = []
    for members in report.blocks.values():
        seen.extend(members)
    assert sorted(seen) == sorted(iset.values())
    assert len(seen) == len(set(seen))


def test_head_partition_order_one_equality():
    seq = geometric_sequence(4, 4)
    iset = enumerate_index_set(seq, 1, "signed")
    report = head_partition(iset)
    assert report.containment_ok
    for j, members in report.blocks.items():
        for m in members:
            assert abs(m) == seq.terms[abs(j) - 1]


def test_head_partition_bounds_are_strict():
    # lam = 2 at order 2 gives a = 1/2 and b = 3/2; lead 16 makes the
    # bounds 8 and 24, which are outside, and 9 inside
    seq = LacunarySequence((4, 16, 64), lam=2)
    lead_16 = {m: (SignedRepresentation((1, 0), (1, 1), m, 16),) for m in (8, 9, 24)}
    iset = ChaosIndexSet(variant="signed", order=2, sequence=seq, entries=lead_16)
    report = head_partition(iset)
    assert (report.a, report.b) == (Fraction(1, 2), Fraction(3, 2))
    assert report.violations == (8, 24)
    assert not report.containment_ok
    assert report.blocks == {2: (8, 9, 24)}


def test_head_partition_lists_values_with_two_heads_as_ambiguous():
    # lam = 7/5 at order 2 gives a = 2/7 and b = 12/7: 5 = 3 + 2 = 8 - 3
    # lies inside the bounds of both heads 3 and 8, and 11 = 8 + 3 has one
    seq = LacunarySequence((2, 3, 5, 8), lam=Fraction(7, 5))
    build = SignedRepresentation.build
    entries = {
        5: (build(seq.terms, (1, 0), (1, 1)), build(seq.terms, (3, 1), (1, -1))),
        11: (build(seq.terms, (3, 1), (1, 1)),),
    }
    iset = ChaosIndexSet(variant="signed", order=2, sequence=seq, entries=entries)
    report = head_partition(iset)
    assert (report.a, report.b) == (Fraction(2, 7), Fraction(12, 7))
    assert report.ambiguous == (5,)
    assert report.blocks == {2: (5,), 4: (11,)}
    assert report.containment_ok and report.violations == ()


def test_head_partition_rejects_subcritical():
    iset = enumerate_index_set(dyadic_sequence(4), 2, "dyadic")
    with pytest.raises(PreconditionError):
        head_partition(iset)


# --- counterexample construction -----------------------------------------


def test_counterexample_order_two_single_m():
    seq, report = counterexample_sequence(2, 9)
    assert seq.terms == (10**18 + 3, 10**18 + 12)
    assert report["coverage_ok"]
    assert report["lacunary_ok"]
    assert report["witnesses"][9]["signs"] == [1, -1]
    n2, n1 = seq.terms[1], seq.terms[0]
    assert n2 - n1 == 9


def test_counterexample_order_two_window():
    seq, report = counterexample_sequence(2, 20)
    assert report["m_min"] == 9 and report["m_max"] == 20
    assert report["missing"] == []
    terms = seq.terms
    assert all(a < b for a, b in zip(terms, terms[1:]))
    values = set()
    for i, j in itertools.combinations(range(len(terms)), 2):
        values.add(terms[j] - terms[i])
    for m in range(9, 21):
        assert m in values


def test_counterexample_order_three():
    seq, report = counterexample_sequence(3, 30)
    assert report["coverage_ok"] and report["lacunary_ok"]
    lo = Fraction(report["lambda_bracket"][0])
    for a, b in zip(seq.terms, seq.terms[1:]):
        assert Fraction(b, a) > lo


def test_counterexample_order_three_is_pinned():
    # pinned digests of the decimal terms and of the bracket; lambda_3 is
    # the golden ratio, the root of x^2 = x + 1 in (1, 2)
    seq, report = counterexample_sequence(3, 120)
    terms = ",".join(map(str, seq.terms)).encode()
    bracket = ",".join(report["lambda_bracket"]).encode()
    assert len(seq.terms) == 3 * (120 - 27 + 1)
    assert hashlib.sha256(terms).hexdigest() == (
        "a69ef3c4f922477e020c207bf4c33a589ce9013a3fa6b5130377057488576c0a"
    )
    assert report["bracket_bits"] == 1220
    assert hashlib.sha256(bracket).hexdigest() == (
        "0f710dfa82fb73fb9bdcceeb2ed130bbcc8dc56336854db61210e457416ff5d4"
    )
    lo, hi = map(Fraction, report["lambda_bracket"])
    assert hi - lo == Fraction(1, 2**1220)
    assert lo * lo < lo + 1 and hi * hi > hi + 1


def reference_counterexample(l, m_max):
    """counterexample_sequence with division floors and a checked
    LacunarySequence, for an order and m_max that it accepts."""
    lo_m = 3**l
    bits = int(3.33 * l * m_max) + 2 * l + 16
    for _attempt in range(4):
        lo, hi = critical_lambda_bracket(l, bits)
        groups = {}
        for m in range(lo_m, m_max + 1):
            scale = 10 ** (m * l)
            floors = [
                (scale * lo.numerator**k // lo.denominator**k, k) for k in range(1, l)
            ]
            if any(f != scale * hi.numerator**k // hi.denominator**k for f, k in floors):
                break
            group = [f + 3**k for f, k in floors]
            groups[m] = group + [m + sum(group)]
        else:
            break
        bits *= 2
    merged = [t for m in range(lo_m, m_max + 1) for t in groups[m]]
    bad = [i for i in range(len(merged) - 1) if Fraction(merged[i + 1], merged[i]) <= hi]
    first_violation = None
    if bad:
        first_violation = {"index": bad[0], "pair": (merged[bad[0]], merged[bad[0] + 1])}
    witnesses, missing = {}, []
    for m in range(lo_m, m_max + 1):
        group = groups[m]
        indices = [merged.index(t) for t in reversed(group)]
        if group[-1] - sum(group[:-1]) != m or indices != sorted(indices, reverse=True):
            missing.append(m)
        else:
            witnesses[m] = {"indices": indices, "signs": [1] + [-1] * (l - 1)}
    seq = LacunarySequence(merged, lo if l > 2 else Fraction(1))
    return seq, {
        "order": l,
        "m_min": lo_m,
        "m_max": m_max,
        "bracket_bits": bits,
        "lambda_bracket": [str(lo), str(hi)],
        "lacunary_ok": first_violation is None,
        "first_violation": first_violation,
        "coverage_ok": not missing,
        "missing": missing,
        "witnesses": witnesses,
    }


@pytest.mark.parametrize(
    "l, m_max",
    # l * m_max == 3000 is the largest accepted size
    [(2, 9), (2, 40), (2, 1500), (3, 27), (3, 31), (3, 150)]
    + [(4, 81), (4, 95), (5, 243), (5, 250)],
)
def test_counterexample_equals_the_division_reference(l, m_max, monkeypatch):
    want_seq, want = reference_counterexample(l, m_max)
    checks = []
    violation = lacunary._ratio_violation

    def spy(terms, lam):
        checks.append(lam)
        return violation(terms, lam)

    monkeypatch.setattr(lacunary, "_ratio_violation", spy)
    seq, report = counterexample_sequence(l, m_max)
    assert (seq.terms, seq.lam, type(seq.lam)) == (want_seq.terms, want_seq.lam, Fraction)
    assert report == want and report["lacunary_ok"]
    assert checks == [Fraction(report["lambda_bracket"][1])]  # one check, against hi


def test_counterexample_keeps_the_checked_sequence_on_a_violation(monkeypatch):
    # a violation against hi is reported, and the sequence is still built
    # against lo with every ratio checked
    violation = lacunary._ratio_violation
    calls = []

    def first_pair_fails(terms, lam):
        calls.append(lam)
        return 0 if len(calls) == 1 else violation(terms, lam)

    monkeypatch.setattr(lacunary, "_ratio_violation", first_pair_fails)
    seq, report = counterexample_sequence(3, 30)
    lo, hi = map(Fraction, report["lambda_bracket"])
    assert calls == [hi, lo]
    assert report["first_violation"] == {"index": 0, "pair": seq.terms[:2]}
    assert not report["lacunary_ok"] and seq.lam == lo


def test_counterexample_guards():
    with pytest.raises(InvalidInputError):
        counterexample_sequence(2, 5)
    with pytest.raises(InvalidOrderError):
        counterexample_sequence(1, 10)
    with pytest.raises(ResourceError):
        counterexample_sequence(2, 2000)
    # 6 * 3**6 > 3000: at l = 6 no m_max is both large enough and in reach
    with pytest.raises(ResourceError):
        counterexample_sequence(6, 3**6)


# --- randomized window sanity --------------------------------------------


def test_random_prefixes_roundtrip_representations():
    rng = np.random.default_rng(20240817)
    for _ in range(25):
        length = int(rng.integers(2, 6))
        base = int(rng.integers(4, 9))
        seq = geometric_sequence(base, length)
        l = int(rng.integers(1, min(3, length) + 1))
        iset = enumerate_index_set(seq, l, "signed")
        m = int(rng.choice(sorted(iset.values())))
        found = representations(seq, m, l)
        assert any(r.value == m for r in found)
        oracle = oracle_signed_sums(seq.terms, l, exact_order=False)
        assert len(found) == len(oracle[m])
