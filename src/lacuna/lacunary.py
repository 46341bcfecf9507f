"""Integer combinatorics of lacunary sequences.

Critical growth ratios, signed l-wise sum index sets, representation
counting, head partitions, and the critical counterexample construction
whose order-l signed sums cover a full integer range.

All rational comparisons are exact and never use floats: witnesses
and head-block bounds are `fractions.Fraction`s, and both lacunarity
(n_{k+1} / n_k > lam, by `_ratio_violation`) and head containment
a*n < |m| < b*n are checked on cross-multiplied integers.
"""

from __future__ import annotations

import itertools
import math
import numbers
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    InsufficientTermsError,
    InvalidInputError,
    InvalidOrderError,
    InvalidSequenceError,
    PreconditionError,
    ResourceError,
)

VARIANTS = (
    "signed",
    "signed-star",
    "positive",
    "positive-star",
    "dyadic",
    "dyadic-star",
)


def _as_fraction(x) -> Fraction:
    """Exact conversion; floats convert via their binary expansion."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        return Fraction(x)
    raise InvalidInputError(f"cannot interpret {x!r} as an exact rational")


def _as_int(n, least: int, what: str, error=InvalidInputError) -> int:
    """int(n), once n is an integer (numpy integers included) >= least;
    a count, index or digit position, named ``what`` in the error."""
    if type(n) is not int:
        if not isinstance(n, numbers.Integral):
            raise error(f"{what} must be an integer >= {least}, got {n!r}")
        n = int(n)
    if n < least:
        raise error(f"{what} must be an integer >= {least}, got {n}")
    return n


def _as_sign(s) -> int:
    """int(s), once s is the integer +1 or -1 (numpy integers included,
    bools and floats not)."""
    if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s not in (-1, 1):
        raise InvalidInputError(f"signs must be the integers +1 or -1, got {s!r}")
    return int(s)


def _as_order(l, least: int = 2) -> int:
    """The chaos order l as an int, once it is an integer >= least."""
    return _as_int(l, least, "order", InvalidOrderError)


def _as_exponent(p, search: bool = False):
    """p itself, once finite with p >= 1, or p > 2 for an extremal search."""
    if not isinstance(p, numbers.Real) or not math.isfinite(p):
        raise InvalidInputError(f"p must be a finite number, got {p!r}")
    if search and p <= 2:
        raise InvalidInputError("p must exceed 2")
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    return p


def _as_key(m) -> int:
    """A frequency or column key as an int: ints, numpy ints, integral
    floats and decimal strings (JSON object keys) are accepted."""
    if type(m) is int:
        return m
    if isinstance(m, numbers.Integral) or (isinstance(m, float) and m.is_integer()):
        return int(m)
    if isinstance(m, str):
        try:
            return int(m)
        except ValueError:
            pass
    raise InvalidInputError(f"key {m!r} is not an integer")


def _critical_sign(l: int, num: int, bits: int) -> int:
    # p(x) = x^{l-1} - (x^{l-2} + ... + x + 1) is increasing on [1, 2], and
    # (x - 1) p(x) = x^l - 2 x^{l-1} + 1 has its sign for x > 1; this is
    # that product at x = num / 2^bits, times 2^(bits l)
    return num ** (l - 1) * (num - (2 << bits)) + (1 << (bits * l))


def critical_lambda(l: int) -> float:
    """Critical lacunarity ratio for order ``l >= 2`` signed sums.

    The value is the unique root in (1, 2] of
    ``x**(l-1) == x**(l-2) + ... + x + 1`` (exactly 1.0 for ``l == 2``),
    returned as the double that both ends of a ``critical_lambda_bracket``
    round to; the bracket starts at 64 bits and doubles until they agree.
    """
    bits = 64
    while True:
        lo, hi = critical_lambda_bracket(l, bits)
        if float(lo) == float(hi):
            return float(lo)
        bits *= 2


def critical_lambda_bracket(l: int, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Dyadic rational bracket (lo, hi) with lo <= lambda_l <= hi.

    The bracket width is 2**-bits (zero for ``l == 2``, where the value
    is exactly 1).  Useful when floors of huge multiples of lambda_l
    must be certified.

    ``lo * 2**bits`` is the largest numerator whose `_critical_sign` is
    negative, floor(lambda_l * 2**bits), and ``hi`` is one step above it:
    the bracket a bisection over the numerators would reach.  It is found
    in O(log bits) big-integer steps: float Newton from x = 2 (the
    polynomial is convex and increasing on [lambda_l, 2], so it descends
    onto lambda_l), integer Newton steps on `_critical_sign` at precisions
    that double up to ``bits``, then exact sign steps to that numerator.
    """
    l = _as_order(l)
    bits = _as_int(bits, 1, "bits")
    if l == 2:
        return Fraction(1), Fraction(1)
    # the Newton step f/f' for f = x^l - 2 x^{l-1} + 1, with f and f'
    # divided by x^{l-2} so that no power overflows for large l
    x = 2.0
    for _ in range(64):
        step = x * (x - 2 + x ** (1 - l)) / (l * x - 2 * (l - 1))
        if not step > 0:
            break
        x -= step
    # each precision is half the next plus 16 guard bits, so one Newton
    # step per precision keeps the numerator within a unit or two
    ladder = []
    k = bits
    while k > 48:
        ladder.append(k)
        k = (k >> 1) + 16
    num = int(x * (1 << k))
    for p in reversed(ladder):
        num <<= p - k
        k = p
        slope = num ** (l - 2) * (l * num - (l - 1) * (2 << k))
        num -= _critical_sign(l, num, k) // slope
    num = min(max(num, (1 << bits) + 1), (2 << bits) - 1)
    while _critical_sign(l, num, bits) >= 0:
        num -= 1
    while _critical_sign(l, num + 1, bits) < 0:
        num += 1
    return Fraction(num, 1 << bits), Fraction(num + 1, 1 << bits)


def _ratio_violation(terms, lam: Fraction) -> int | None:
    """The first i with terms[i+1] / terms[i] <= lam, or None, for positive
    terms; compared as terms[i+1] * lam.den <= lam.num * terms[i]."""
    num, den = lam.numerator, lam.denominator
    for i in range(len(terms) - 1):
        if terms[i + 1] * den <= num * terms[i]:
            return i
    return None


def _as_terms(terms: Iterable[int]) -> tuple[int, ...]:
    """terms as Python ints, once a nonempty, strictly increasing run of
    positive integers (numpy integers included)."""
    terms = tuple(_as_int(t, 1, "term", InvalidSequenceError) for t in terms)
    if not terms:
        raise InvalidSequenceError("sequence must be nonempty")
    for i in range(len(terms) - 1):
        if terms[i + 1] <= terms[i]:
            raise InvalidSequenceError(
                f"terms must be strictly increasing, got {terms[i]} then {terms[i + 1]}"
            )
    return terms


def validate_lacunary(terms: Iterable[int], lam) -> dict:
    """Check ``n_{k+1}/n_k > lam`` for every consecutive pair, exactly.

    Returns a report dict ``{"ok": bool, "first_violation": ...}`` where
    the violation entry holds the 0-based pair index and the pair
    itself.  Structural problems (empty input, non-positive or
    non-increasing terms) raise ``InvalidSequenceError`` instead of
    being reported.
    """
    terms = _as_terms(terms)
    i = _ratio_violation(terms, _as_fraction(lam))
    violation = None if i is None else {"index": i, "pair": (terms[i], terms[i + 1])}
    return {"ok": i is None, "first_violation": violation}


@dataclass(frozen=True)
class LacunarySequence:
    """Strictly increasing positive integers with an exact ratio witness.

    ``lam`` is stored as a `Fraction`; every consecutive ratio is
    required to exceed it.  The interesting regime is ``lam > 1`` but
    any positive witness is accepted (the degenerate critical value for
    order 2 is exactly 1).
    """

    terms: tuple[int, ...]
    lam: Fraction

    def __init__(self, terms: Iterable[int], lam):
        object.__setattr__(self, "terms", _as_terms(terms))
        object.__setattr__(self, "lam", _as_fraction(lam))
        if self.lam <= 0:
            raise InvalidSequenceError("lacunarity witness must be positive")
        i = _ratio_violation(self.terms, self.lam)
        if i is not None:
            raise InvalidSequenceError(
                f"ratio {self.terms[i + 1]}/{self.terms[i]} does not exceed witness {self.lam}"
            )

    @classmethod
    def _trusted(cls, terms: tuple[int, ...], lam: Fraction) -> "LacunarySequence":
        """A sequence from Python int terms already known to be positive and
        strictly increasing, with every ratio above lam > 0, set without
        the re-check."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "terms", terms)
        object.__setattr__(seq, "lam", lam)
        return seq

    def __len__(self) -> int:
        return len(self.terms)

    def prefix(self, n: int) -> "LacunarySequence":
        return LacunarySequence(self.terms[: _as_int(n, 1, "prefix length")], self.lam)


def geometric_sequence(ratio: int, length: int, lam=None) -> LacunarySequence:
    """Terms ratio, ratio^2, ..., ratio^length with a default witness ratio-1."""
    ratio = _as_int(ratio, 2, "ratio")
    length = _as_int(length, 1, "length")
    if lam is None:
        lam = Fraction(ratio - 1)
    return LacunarySequence(tuple(ratio**k for k in range(1, length + 1)), lam)


def dyadic_sequence(max_exponent: int) -> LacunarySequence:
    """Powers of two 2, 4, ..., 2**max_exponent."""
    max_exponent = _as_int(max_exponent, 1, "max_exponent")
    return LacunarySequence(tuple(2**k for k in range(1, max_exponent + 1)), Fraction(1))


@dataclass(frozen=True, slots=True)
class SignedRepresentation:
    """One signed sum eps_1*n_{k_1} + ... + eps_s*n_{k_s}.

    ``indices`` are strictly decreasing 0-based positions into the
    parent sequence; ``head`` is the signed leading term
    ``signs[0] * terms[indices[0]]``.  Instances carry four slots and
    no ``__dict__``.
    """

    indices: tuple[int, ...]
    signs: tuple[int, ...]
    value: int
    head: int

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(_as_int(i, 0, "index") for i in self.indices))
        object.__setattr__(self, "signs", tuple(map(_as_sign, self.signs)))
        if len(self.indices) != len(self.signs) or not self.indices:
            raise InvalidInputError("indices and signs must be nonempty, same length")
        if any(
            self.indices[i] <= self.indices[i + 1] for i in range(len(self.indices) - 1)
        ):
            raise InvalidInputError("indices must be strictly decreasing")

    @property
    def order(self) -> int:
        return len(self.indices)

    @classmethod
    def _trusted(cls, indices, signs, value, head) -> "SignedRepresentation":
        """The enumerators' constructor: fields they have just built
        correctly, set through the slot descriptors without the re-check."""
        rep = object.__new__(cls)
        _set_indices(rep, indices)
        _set_signs(rep, signs)
        _set_value(rep, value)
        _set_head(rep, head)
        return rep

    @classmethod
    def build(cls, terms, indices, signs) -> "SignedRepresentation":
        """The sum of signs[j] * terms[indices[j]], once the constructor's
        checks pass and every index lies inside terms."""
        rep = cls(tuple(indices), tuple(signs), 0, 0)
        indices, signs = rep.indices, rep.signs
        if indices[0] >= len(terms):
            raise InvalidInputError(f"index {indices[0]} is past the {len(terms)} terms")
        value = sum(s * terms[i] for i, s in zip(indices, signs))
        return cls._trusted(indices, signs, value, signs[0] * terms[indices[0]])


_set_indices, _set_signs, _set_value, _set_head = (
    SignedRepresentation.__dict__[name].__set__
    for name in ("indices", "signs", "value", "head")
)


def _normalize_variant(variant: str) -> tuple[str, bool]:
    if variant not in VARIANTS:
        raise InvalidInputError(
            f"unknown variant {variant!r}, expected one of {', '.join(VARIANTS)}"
        )
    star = variant.endswith("-star")
    return (variant[: -len("-star")] if star else variant), star


def _require_dyadic_ladder(seq: LacunarySequence) -> None:
    expected = tuple(2**k for k in range(1, len(seq.terms) + 1))
    if seq.terms != expected:
        raise InvalidSequenceError(
            "dyadic variants require the base sequence 2, 4, ..., 2^n"
        )


def _index_shape(seq: LacunarySequence, l, variant: str) -> tuple[str, bool, int]:
    """The base variant, the star flag and the order of an enumeration of
    seq, once the order fits in its terms and a dyadic variant's
    sequence is the ladder 2, 4, ..., 2^n."""
    base, star = _normalize_variant(variant)
    l = _as_order(l, 1)
    if l > len(seq.terms):
        raise InsufficientTermsError(
            f"order {l} exceeds available prefix of {len(seq.terms)} terms"
        )
    if base == "dyadic":
        _require_dyadic_ladder(seq)
    return base, star, l


class _Entries(Mapping):
    """The read-only value -> representations map of a `ChaosIndexSet`,
    stored as columns with one item per representation.

    ``_values``, ``_indices`` and ``_signs`` hold each representation's
    value, index tuple and sign tuple; ``_where`` maps each value, in key
    order, to its representation's position, or to the tuple of its
    positions when it has several.  A lookup builds the value's
    representations, with head signs[0] * terms[indices[0]].
    """

    __slots__ = ("_terms", "_values", "_indices", "_signs", "_where", "_sorted")

    def __init__(self, terms, values, indices, signs, where):
        self._terms = terms
        self._values = values
        self._indices = indices
        self._signs = signs
        self._where = where
        self._sorted = None

    @classmethod
    def from_mapping(cls, terms, entries: Mapping) -> "_Entries":
        """The columns of a plain value -> representations mapping, in its
        key and representation order."""
        values, indices, signs, where = [], [], [], {}
        for value, reps in entries.items():
            start = len(values)
            for r in reps:
                i = r.indices[0]
                if i >= len(terms) or r.head != r.signs[0] * terms[i]:
                    raise InvalidInputError(
                        f"representation {r} does not lead with a signed term of the sequence"
                    )
                values.append(r.value)
                indices.append(r.indices)
                signs.append(r.signs)
            stop = len(values)
            where[value] = start if stop == start + 1 else tuple(range(start, stop))
        return cls(terms, values, indices, signs, where)

    def _sorted_values(self) -> list:
        if self._sorted is None:
            self._sorted = sorted(self._where)
        return self._sorted

    def __getitem__(self, value) -> tuple[SignedRepresentation, ...]:
        where = self._where[value]
        reps = []
        for p in (where,) if type(where) is int else where:
            indices, signs = self._indices[p], self._signs[p]
            head = signs[0] * self._terms[indices[0]]
            reps.append(SignedRepresentation._trusted(indices, signs, self._values[p], head))
        return tuple(reps)

    def __iter__(self):
        return iter(self._where)

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, value) -> bool:
        return value in self._where

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class ChaosIndexSet:
    """All values of (signed) l-wise sums over a sequence prefix.

    ``entries`` is a read-only Mapping from each reachable value to the
    tuple of all its representations; star variants union the orders
    1..l.  It is stored as columns (see `enumerate_index_set`), and a
    value's `SignedRepresentation`s are built each time it is looked up:
    equal across lookups, but not the same objects.  A plain Mapping
    passed in is converted into the same columns once, keeping its key
    and representation order; each representation must lead with a
    signed term of ``sequence``.  ``values()`` sorts the keys once per
    set and returns a fresh list on every call.
    """

    variant: str
    order: int
    sequence: LacunarySequence
    entries: Mapping[int, tuple[SignedRepresentation, ...]]

    def __post_init__(self):
        if not isinstance(self.entries, _Entries):
            entries = _Entries.from_mapping(self.sequence.terms, self.entries)
            object.__setattr__(self, "entries", entries)

    def values(self) -> list[int]:
        return list(self.entries._sorted_values())

    def __contains__(self, m: int) -> bool:
        return m in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_dyadic(self) -> bool:
        return self.variant.startswith("dyadic")

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "order": self.order,
            "sequence": list(self.sequence.terms),
            "entries": [
                {
                    "value": v,
                    "representations": [
                        {"indices": list(r.indices), "signs": list(r.signs)}
                        for r in self.entries[v]
                    ],
                }
                for v in self.values()
            ],
        }


_REP_SORT_KEY = lambda r: (r.order, r.indices, r.signs)  # noqa: E731


def _combination_sums(terms, signed, start, depth, below, low, values, index_col) -> None:
    """Extend ``values`` by the sums of every combination that puts ``depth``
    more indices, increasing from ``start``, above the indices ``below``
    (whose sums are ``low``), and ``index_col`` by each sum's index tuple,
    in `itertools.combinations` order and each combination's sums in
    `itertools.product` sign order."""
    for c in range(start, len(terms) - depth + 1):
        t = terms[c]
        indices = (c,) + below
        # the sign of c, the leading term, varies slowest
        sums = [x + t for x in low] + [x - t for x in low] if signed else [low[0] + t]
        if depth > 1:
            _combination_sums(terms, signed, c + 1, depth - 1, indices, sums, values, index_col)
        else:
            values.extend(sums)
            index_col.extend((indices,) * len(sums))


def enumerate_index_set(
    seq: LacunarySequence,
    l: int,
    variant: str = "signed",
) -> ChaosIndexSet:
    """Exhaustively enumerate every value reachable from a sequence; pass
    ``seq.prefix(n)`` to use only its first n terms.

    Parameters
    ----------
    seq : LacunarySequence
    l : int
        Sum order (exact order for plain variants, maximum for -star).
    variant : str
        One of ``signed``, ``positive``, ``dyadic`` or their ``-star``
        forms.  Dyadic variants additionally require ``seq`` to be the
        ladder 2, 4, ..., 2^n.

    Returns
    -------
    ChaosIndexSet
        With ALL representations of every value, not just one witness,
        each value's in (order, indices, signs) order; keys follow the
        first representation of each value.

    The set is kept as columns, one item per representation in
    enumeration order (combinations in `itertools.combinations` order,
    then sign patterns in `itertools.product` order): its value; its
    index tuple, one per combination and shared by that combination's
    2^s sign patterns; and its sign tuple, one per pattern and shared by
    every combination.  No object is built per representation.  A
    combination's signed sums extend those of its lower indices, which
    are taken once for every combination sharing them.  A map takes each
    value to its position; a collided value, one with several
    representations, maps to the tuple of its positions, sorted by
    (order, indices, signs).
    """
    base, star, l = _index_shape(seq, l, variant)
    terms = seq.terms
    signed = base == "signed"
    n = len(terms)
    values: list[int] = []
    index_col: list[tuple[int, ...]] = []
    sign_col: list[tuple[int, ...]] = []
    for s in range(1, l + 1) if star else (l,):
        _combination_sums(terms, signed, 0, s, (), [0], values, index_col)
        patterns = tuple(itertools.product((1, -1) if signed else (1,), repeat=s))
        sign_col += patterns * math.comb(n, s)
    where = dict(zip(values, range(len(values))))
    if len(where) < len(values):
        # each key holds its last position so far; gather the earlier ones
        groups: dict[int, list[int]] = {}
        for p in [p for p, v in enumerate(values) if where[v] != p]:
            groups.setdefault(values[p], [where[values[p]]]).append(p)
        for v, positions in groups.items():
            where[v] = tuple(
                sorted(positions, key=lambda p: (len(index_col[p]), index_col[p], sign_col[p]))
            )
    entries = _Entries(terms, values, index_col, sign_col, where)
    return ChaosIndexSet(variant=variant, order=l, sequence=seq, entries=entries)


def _top_sums(terms):
    """top_sum(i, k): the sum of the k largest of the increasing terms at
    positions 0..i, the most a depth-first walk below i can still add."""
    prefix_sums = list(itertools.accumulate(terms, initial=0))

    def top_sum(i: int, k: int) -> int:
        k = min(k, i + 1)
        return prefix_sums[i + 1] - prefix_sums[i + 1 - k]

    return top_sum


def _signed_walk(terms, target: int, slots: int, pos: int, neg: int):
    """Every choice of at most ``slots`` distinct positions, at most ``pos``
    of them signed + and ``neg`` signed -, whose signed sum of ``terms``
    is ``target``, as a tuple of (position, sign) pairs with decreasing
    positions; the empty choice is yielded when target is 0."""
    top_sum = _top_sums(terms)

    def walk(i, slots, pos, neg, target, chosen):
        if target == 0:
            yield chosen
        if slots == 0 or i < 0:
            return
        if target > top_sum(i, min(slots, pos)) or -target > top_sum(i, min(slots, neg)):
            return
        for j in range(i, -1, -1):
            if pos:
                yield from walk(
                    j - 1, slots - 1, pos - 1, neg, target - terms[j], chosen + ((j, 1),)
                )
            if neg:
                yield from walk(
                    j - 1, slots - 1, pos, neg - 1, target + terms[j], chosen + ((j, -1),)
                )

    return walk(len(terms) - 1, slots, pos, neg, target, ())


def representations(
    seq: LacunarySequence, m: int, l: int, variant: str = "signed"
) -> list[SignedRepresentation]:
    """All representations of ``m`` using at most ``l`` terms.

    The search is exhaustive (depth-first with a largest-remaining-sum
    prune); an empty list is a valid answer.  ``variant`` selects the
    sign discipline; star suffixes are accepted and equivalent here
    since orders 1..l are always explored.
    """
    base, _ = _normalize_variant(variant)
    m = _as_key(m)
    l = _as_order(l, 1)
    if base == "dyadic":
        _require_dyadic_ladder(seq)
    terms = seq.terms
    found = []
    for chosen in _signed_walk(terms, m, l, l, l if base == "signed" else 0):
        if chosen:
            indices, signs = zip(*chosen)
            head = signs[0] * terms[indices[0]]
            found.append(SignedRepresentation._trusted(indices, signs, m, head))
    return sorted(found, key=_REP_SORT_KEY)


def _head_bounds(lam: Fraction, order: int) -> tuple[Fraction, Fraction]:
    """(1 - tail, 1 + tail) with tail = sum_{t=1..order-1} lam^{-t}, exactly.

    An order-``order`` sum with leading term n lies strictly between
    the two multiples of n, and the lower one is positive exactly when
    lam exceeds the order-``order`` critical ratio.
    """
    tail = sum((lam**-t for t in range(1, order)), Fraction(0))
    return 1 - tail, 1 + tail


def mixed_representation_count(seq: LacunarySequence, m: int, l: int) -> int:
    """Count representations ``m = sum_{A} n_j - sum_{B} n_k``.

    A and B are disjoint index sets of size at most ``l`` each; the
    empty pair counts once for ``m == 0``.  Emits a warning when the
    sequence witness does not exceed the order-(l+1) critical ratio,
    where no uniform bound is promised.
    """
    m = _as_key(m)
    l = _as_order(l, 1)
    if _head_bounds(seq.lam, l + 1)[0] <= 0:
        warnings.warn(
            "lacunarity witness does not exceed the order-%d critical ratio; "
            "mixed representation counts may grow with the prefix" % (l + 1),
            stacklevel=2,
        )
    return sum(1 for _ in _signed_walk(seq.terms, m, 2 * l, l, l))


def mixed_count_table(seq: LacunarySequence, l: int) -> dict[int, int]:
    """Exhaustive value -> mixed-representation-count map for the whole window."""
    l = _as_order(l, 1)
    n = len(seq.terms)
    states = 0
    for s in range(l + 1):
        for t in range(l + 1):
            if s + t <= n:
                states += math.comb(n, s) * math.comb(n - s, t)
    if states > 5_000_000:
        raise ResourceError(
            f"mixed enumeration needs {states} sign patterns; shrink the prefix"
        )
    table: dict[int, int] = {}
    for pos_size in range(l + 1):
        for pos in itertools.combinations(range(n), pos_size):
            rest = [i for i in range(n) if i not in pos]
            base_val = sum(seq.terms[i] for i in pos)
            for neg_size in range(l + 1):
                for neg in itertools.combinations(rest, neg_size):
                    v = base_val - sum(seq.terms[i] for i in neg)
                    table[v] = table.get(v, 0) + 1
    return table


def empirical_mixed_bound(seq: LacunarySequence, l: int) -> int:
    """Largest mixed representation count over the full reachable window."""
    table = mixed_count_table(seq, l)
    return max(table.values())


@dataclass(frozen=True)
class HeadPartitionReport:
    """Partition of an index set by the signed leading term.

    Block keys are signed 1-based sequence positions ``j``: block ``+j``
    holds the values whose canonical representation leads with
    ``+n_j``, block ``-j`` with ``-n_j``.  ``a`` and ``b`` are the
    exact rational bounds such that every member m of block ``+-j``
    satisfies ``a*n_j < |m| < b*n_j`` (with equality semantics for
    pure order-1 sets, where a == b == 1).
    """

    order: int
    a: Fraction
    b: Fraction
    blocks: Mapping[int, tuple[int, ...]]
    ambiguous: tuple[int, ...]
    containment_ok: bool
    violations: tuple[int, ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "a": str(self.a),
            "b": str(self.b),
            "blocks": {str(j): list(vals) for j, vals in sorted(self.blocks.items())},
            "ambiguous": list(self.ambiguous),
            "containment_ok": self.containment_ok,
            "violations": list(self.violations),
        }


def head_partition(index_set: ChaosIndexSet) -> HeadPartitionReport:
    """Group every value of an index set by its signed leading term.

    Values are assigned to the block of their canonical (first, in the
    deterministic enumeration order) representation; the two-sided
    containment is then asserted for EVERY representation, so the
    report certifies the full head-dominance property.  ``a`` and ``b``
    are split once into numerators and denominators, and containment is
    checked on cross-multiplied integers (a_n*lead < a_d*|m| and
    b_d*|m| < b_n*lead), with no `Fraction` arithmetic.  Heads and lead
    positions are read from the set's columns.  The bounds are monotone
    in |m|, so a block's canonical representations are checked through
    its smallest and largest |m|, and value by value only when one of
    those fails; the other representations of a collided value are
    checked one by one.  Values whose representations disagree on the
    head are listed as ambiguous.

    Raises ``PreconditionError`` when the sequence witness does not
    exceed the critical ratio for the set's order (the lower bound
    ``a`` would not be positive).
    """
    seq = index_set.sequence
    l = index_set.order
    a, b = _head_bounds(seq.lam, l)
    if l >= 2 and a <= 0:
        raise PreconditionError(
            f"witness {seq.lam} is at or below the order-{l} critical ratio; "
            "head blocks are not separated"
        )
    # a*lead < |v| < b*lead, cross-multiplied into integers, with a_n*lead
    # and b_n*lead taken once per term
    a_n, a_d = a.numerator, a.denominator
    b_n, b_d = b.numerator, b.denominator
    terms = seq.terms
    lower = [a_n * t for t in terms]
    upper = [b_n * t for t in terms]
    entries = index_set.entries
    where, index_col, sign_col = entries._where, entries._indices, entries._signs

    def head(p: int) -> int:
        return sign_col[p][0] * (index_col[p][0] + 1)

    def outside(i: int, mag: int) -> bool:
        return not (terms[i] == mag if l == 1 else lower[i] < a_d * mag and b_d * mag < upper[i])

    # each value joins the block of its canonical, first, representation
    firsts = [w if type(w) is int else w[0] for w in where.values()]
    keys = list(map(head, firsts))
    grouped: dict[int, list[int]] = {key: [] for key in keys}
    for value, key in zip(where, keys):
        grouped[key].append(value)
    # the bounds hold for every |m| of a block when they hold for its
    # smallest and largest
    violations = set()
    for key, members in grouped.items():
        i = abs(key) - 1
        mags = list(map(abs, members))
        if outside(i, min(mags)) or outside(i, max(mags)):
            violations.update(v for v, mag in zip(members, mags) if outside(i, mag))
    # the other representations, present when the columns outnumber
    # the values
    ambiguous = []
    if len(entries._values) > len(where):
        for value, positions in where.items():
            if type(positions) is not int:
                if any(head(p) != head(positions[0]) for p in positions):
                    ambiguous.append(value)
                if any(outside(index_col[p][0], abs(value)) for p in positions):
                    violations.add(value)
    ambiguous.sort()
    # blocks hold sorted values and come in the order of their smallest one
    blocks = sorted((sorted(members), key) for key, members in grouped.items())
    return HeadPartitionReport(
        order=l,
        a=a,
        b=b,
        blocks={key: tuple(members) for members, key in blocks},
        ambiguous=tuple(ambiguous),
        containment_ok=not violations,
        violations=tuple(sorted(violations)),
    )


def counterexample_sequence(l: int, m_max: int) -> tuple[LacunarySequence, dict]:
    """Critically lacunary sequence whose order-l signed sums cover a range.

    For every m in [3**l, m_max] a group of l terms is emitted:
    ``n_k(m) = floor(10**(m*l) * lambda_l**k) + 3**k`` for k < l and
    ``n_l(m) = m + n_{l-1}(m) + ... + n_1(m)``, so that
    ``m = n_l(m) - n_{l-1}(m) - ... - n_1(m)`` exactly.

    The floors are certified with a dyadic rational bracket of
    lambda_l whose width is small against the floor arguments; its
    power-of-two denominators make each floor a right shift.  The merged
    sequence's lacunarity is verified once, pair by pair against the
    bracket's upper end, which every ratio must exceed, and so the
    witness lo <= hi (1 at l = 2) holds too.  Returns the sequence and
    a coverage report.
    """
    l = _as_order(l)
    lo_m = 3**l
    m_max = _as_int(m_max, lo_m, "m_max")
    if l * m_max > 3000:
        raise ResourceError(
            "terms would exceed 10**3000; shrink m_max (big integers stay exact "
            "but arithmetic time grows quadratically)"
        )

    bits = int(3.33 * l * m_max) + 2 * l + 16
    for _attempt in range(4):
        lo, hi = critical_lambda_bracket(l, bits)
        # (numerator^k, log2 of denominator^k) of each end and 3^k, taken
        # once per bracket: both denominators are powers of two
        lo_b, hi_b = lo.denominator.bit_length() - 1, hi.denominator.bit_length() - 1
        powers = [
            (lo.numerator**k, k * lo_b, hi.numerator**k, k * hi_b, 3**k)
            for k in range(1, l)
        ]
        groups: dict[int, list[int]] = {}
        certified = True
        scale, step = 10 ** (lo_m * l), 10**l
        for m in range(lo_m, m_max + 1):
            group = []
            for lo_n, lo_s, hi_n, hi_s, offset in powers:
                f_lo = scale * lo_n >> lo_s
                if f_lo != scale * hi_n >> hi_s:
                    certified = False
                    break
                group.append(f_lo + offset)
            if not certified:
                break
            group.append(m + sum(group))
            groups[m] = group
            scale *= step
        if certified:
            break
        bits *= 2
    else:
        raise ResourceError("could not certify floors at the tried bracket widths")

    merged: list[int] = []
    for m in range(lo_m, m_max + 1):
        merged.extend(groups[m])
    # ratio > hi >= lambda_l certifies criticality (hi = lambda_2 = 1 at l = 2)
    i = _ratio_violation(merged, hi)
    witness = lo if l > 2 else Fraction(1)
    first_violation = None
    if i is None:
        # positive terms with every ratio above hi >= 1 and hi >= witness
        seq = LacunarySequence._trusted(tuple(merged), witness)
    else:
        first_violation = {"index": i, "pair": (merged[i], merged[i + 1])}
        seq = LacunarySequence(merged, witness)

    positions = {t: i for i, t in enumerate(merged)}
    witnesses = {}
    missing = []
    for m in range(lo_m, m_max + 1):
        group = groups[m]
        value = group[-1] - sum(group[:-1])
        indices = [positions[t] for t in reversed(group)]
        signs = [1] + [-1] * (l - 1)
        if value != m or any(
            indices[i] <= indices[i + 1] for i in range(len(indices) - 1)
        ):
            missing.append(m)
        else:
            witnesses[m] = {"indices": indices, "signs": signs}

    report = {
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
    return seq, report
