"""Exact algebra of finite unions of half-open intervals in [0, 1).

Endpoints are `fractions.Fraction` end to end.  Floating point enters
in the unit phases e(k x) = exp(2 pi i k x), each taken from k x mod 1
reduced exactly in integers (`_turns`), in what is built from them
(`interval_fourier` and the trig energy's Gram form), and in the Walsh
energy's cell sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, ResourceError
from .lacunary import _as_fraction, _as_int, _as_key
from .trig import TrigPolynomial
from .walsh import WalshPolynomial, _scaled, _unscale

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class IntervalSet:
    """Sorted disjoint half-open intervals [a_i, b_i) inside [0, 1).

    Construction canonicalizes: intervals are sorted, overlapping or
    touching pieces are merged, empty pieces dropped.  The empty set is
    the zero-interval value and the full circle is the single interval
    [0, 1).
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, intervals=()):
        cleaned = []
        for a, b in intervals:
            a = _as_fraction(a)
            b = _as_fraction(b)
            if not (_ZERO <= a and b <= _ONE):
                raise InvalidInputError(f"interval [{a}, {b}) leaves [0, 1)")
            if a > b:
                raise InvalidInputError(f"interval [{a}, {b}) is reversed")
            if a < b:
                cleaned.append((a, b))
        cleaned.sort()
        merged: list[list[Fraction]] = []
        for a, b in cleaned:
            if merged and a <= merged[-1][1]:
                if b > merged[-1][1]:
                    merged[-1][1] = b
            else:
                merged.append([a, b])
        object.__setattr__(self, "intervals", tuple((a, b) for a, b in merged))

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls(((_ZERO, _ONE),))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def parse(cls, text: str) -> "IntervalSet":
        """Parse "0/1:4/5,9/10:1/1" style interval lists."""
        text = text.strip()
        if not text:
            return cls.empty()
        pieces = []
        for chunk in text.split(","):
            ends = chunk.split(":")
            if len(ends) != 2:
                raise InvalidInputError(f"bad interval chunk {chunk!r}")
            pieces.append(ends)
        return cls(pieces)

    @property
    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), _ZERO)

    def contains(self, x) -> bool:
        x = _as_fraction(x)
        return any(a <= x < b for a, b in self.intervals)

    def is_empty(self) -> bool:
        return not self.intervals

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo = max(a, c)
                hi = min(b, d)
                if lo < hi:
                    out.append((lo, hi))
        return IntervalSet(out)

    def complement(self) -> "IntervalSet":
        out = []
        cursor = _ZERO
        for a, b in self.intervals:
            if cursor < a:
                out.append((cursor, a))
            cursor = b
        if cursor < _ONE:
            out.append((cursor, _ONE))
        return IntervalSet(out)

    def translate(self, s) -> "IntervalSet":
        """Shift by s modulo 1, splitting the piece that wraps."""
        s = _as_fraction(s) % 1
        out = []
        for a, b in self.intervals:
            a2, b2 = a + s, b + s
            if b2 <= _ONE:
                out.append((a2, b2))
            elif a2 >= _ONE:
                out.append((a2 - 1, b2 - 1))
            else:
                out.append((a2, _ONE))
                out.append((_ZERO, b2 - 1))
        return IntervalSet(out)

    def dyadic_translate(self, k: int) -> "IntervalSet":
        """Flip the k-th binary digit of every point (an involution).

        On each scale-k cell pair [2j, 2j+2) 2^-k the map swaps the two
        cells by translations of +-2^-k, so whole pairs map onto themselves
        and only the end pieces of an interval, at most four cells, move.
        Endpoints stay rational and the measure is preserved.
        """
        k = _as_int(k, 1, "digit position")
        step = Fraction(1, 2**k)
        out = []
        pair = 2 * step
        for a, b in self.intervals:
            lo = min(-(-a // pair) * pair, b)  # first pair edge at or after a
            hi = max(b // pair * pair, lo)  # last pair edge, not before lo
            out.append((lo, hi))  # whole pairs, empty when lo == hi
            for x, y in ((a, lo), (hi, b)):
                cell = x // step
                while x < y:
                    end = (cell + 1) * step
                    delta = step if cell % 2 == 0 else -step
                    out.append((x + delta, min(y, end) + delta))
                    x, cell = end, cell + 1
        return IntervalSet(out)

    def to_arg_string(self) -> str:
        """Inverse of parse: the --set flag format a:b,c:d."""
        return ",".join(f"{a}:{b}" for a, b in self.intervals)


def _turns(k: int, x: Fraction) -> float:
    """k * x mod 1 in [0, 1), reduced exactly in integers before its one
    rounding, so large k times fine endpoints lose no accuracy."""
    return k * x.numerator % x.denominator / x.denominator


def _as_float(k: int) -> float:
    """A frequency k or t - s as a float; ResourceError past the float range."""
    try:
        return float(k)
    except OverflowError:
        bits = int(k).bit_length()
        raise ResourceError(f"frequency of {bits} bits passes the float range") from None


def interval_fourier(E: IntervalSet, k: int) -> complex:
    """Exact closed form of the integral of e^{2 pi i k x} over E.

    For k == 0 this is the measure.  Phases are reduced modulo 1 in
    exact integer arithmetic (`_turns`) before exponentiation.  k is
    taken as an integer key (`_as_key`), and a k past the float range
    raises ``ResourceError``.
    """
    k = _as_key(k)
    if k == 0:
        return complex(float(E.measure), 0.0)
    total = 0j
    for a, b in E.intervals:
        total += cmath.exp(2j * cmath.pi * _turns(k, b)) - cmath.exp(
            2j * cmath.pi * _turns(k, a)
        )
    return total / (2j * cmath.pi * _as_float(k))


# rows of the Gram form held at once, so memory is O(_BLOCK * n), not n^2
_BLOCK = 256


def _trig_prefix_energies(coefficients: dict, E: IntervalSet) -> list[float]:
    """Energy over E of each prefix of coefficients in key order, from the
    empty one; the last entry is the energy of them all.

    Entry n sums, for each of the first n keys j, the new row of the Gram
    form Phi_ts = phi_E(t - s): 2 Re sum_{k<j} c_j Phi_jk conj(c_k) +
    |E| |c_j|^2 (c_j, not its conjugate, on the left: the other way is
    the energy of S(-x) on -E).  Only the lower triangle is built, in
    blocks of _BLOCK rows, so memory is O(_BLOCK n).  The sum runs at
    the scale of ``walsh._scaled``; each entry is scaled back by 4**e.
    """
    import numpy as np

    keys = list(coefficients)
    _as_float(max(keys, default=0) - min(keys, default=0))  # so every t - s fits
    ends = [x for interval in E.intervals for x in interval]
    turns = np.array([_turns(k, x) for k in keys for x in ends])
    phases = np.exp(2j * np.pi * turns).reshape(len(keys), len(ends))
    signed = phases * np.tile([-1.0, 1.0], len(E.intervals))
    conj_t = phases.conj().T
    # object dtype keeps the keys Python ints: t - s is exact past 2^63,
    # and only the difference is rounded to float
    key_col = np.array(keys, dtype=object)
    measure = float(E.measure)
    scaled, e = _scaled(coefficients.values())
    c = np.array(scaled, dtype=complex)
    gains = [np.zeros(1)]
    for lo in range(0, len(c), _BLOCK):
        hi = min(lo + _BLOCK, len(c))
        d = (key_col[lo:hi, None] - key_col[:hi]).astype(float)
        # by d first: 2 pi d overflows for d near the float limit; d is 0
        # only on the diagonal, which tril drops
        phi = (signed[lo:hi] @ conj_t[:, :hi]) / np.where(d == 0, 1.0, d) / (2j * np.pi)
        cross = c[lo:hi] * (np.tril(phi, lo - 1) @ c[:hi].conj())
        gains.append(2 * cross.real + measure * np.abs(c[lo:hi]) ** 2)
    return [_unscale(x, 2 * e, "energy") for x in np.cumsum(np.concatenate(gains)).tolist()]


def _walsh_energy(S: WalshPolynomial, E: IntervalSet) -> float:
    # Per interval: the two partial end cells, plus one pairwise numpy sum
    # over the whole cells between them, so each piece is summed from its
    # own start and nothing cancels; all at the scale of walsh._scaled.
    import numpy as np

    from .engine import _CellSpace

    scaled, e = _scaled(S.coefficients.values())
    n = 1 << S.max_scale
    sq = np.square(_CellSpace(S.coefficients).values(scaled))
    total = 0.0
    for a, b in E.intervals:
        i, j = math.floor(a * n), math.floor(b * n)
        if i == j:
            total += sq[i] * float(b - a)
            continue
        total += sq[i] * float(Fraction(i + 1, n) - a) + sq[i + 1 : j].sum() / n
        if j < n:
            total += sq[j] * float(b - Fraction(j, n))
    return _unscale(float(total), 2 * e, "energy")


def energy_on_set(S, E: IntervalSet) -> float:
    """Integral of |S|^2 over E.

    Trigonometric polynomials use the Gram form c^T Phi conj(c) with
    Phi_ts = phi_E(t - s), the integral of e((t - s) x) over E: |E| on the
    diagonal, and off it the sum over endpoints of e(t x) conj(e(s x))
    (+ at each b, - at each a) over 2 pi i (t - s), with t - s exact in
    integers.  The unit phases e(k x) are built once, each from k x mod 1
    reduced exactly (`_turns`).  The form is read as one running sum in
    key order over its lower triangle, each key adding 2 Re of its row
    below the diagonal plus |E| |c_t|^2, in blocks of 256 rows, so memory
    is O(256 n) for n coefficients.  `inverse_bound_experiment` reads
    every prefix energy of an indicator matrix off the same running sum
    (`_trig_prefix_energies`).  Each phase is correct to a few ulps, so
    the absolute error is of order (#intervals + n) eps (sum_t |c_t|)^2.
    On the 276 pair sums of ``geometric_sequence(4, 24)`` with Gaussian
    coefficients, on [0, 1) minus one gap and on the gap, three draws
    came within 4.4e-16 relative of a 40-digit reference.  A t - s past
    the float range raises ``ResourceError``.

    Walsh polynomials integrate their piecewise-constant cells against
    exact cell/E overlaps, with the whole cells of each interval summed
    pairwise (relative error of order log2(cells) ulps, since every term
    is nonnegative); past scale 24 the cells raise ``ResourceError``.
    Both kinds sum the coefficients at the mass's scale 2**-e
    (``walsh._scaled``) and scale back by 4**e once: an energy past the
    float range raises ``ResourceError`` naming the energy.
    """
    if isinstance(S, TrigPolynomial):
        return _trig_prefix_energies(S.coefficients, E)[-1]
    if isinstance(S, WalshPolynomial):
        return _walsh_energy(S, E)
    raise InvalidInputError("energy_on_set expects a trig or Walsh polynomial")
