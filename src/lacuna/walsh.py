"""Exact dyadic-point arithmetic, Rademacher/Walsh evaluation, the
signed shift-sum identity, shifted-set search, and coefficient recovery.

No floating point is used on the group side: points are dyadic
rationals, XOR is digit-wise, and shift sums are plain integers.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .errors import InvalidInputError, InvalidOrderError, ResourceError
from .lacunary import _as_fraction, _as_int, _as_key

if TYPE_CHECKING:
    import numpy as np

    from .measure import IntervalSet


@dataclass(frozen=True, eq=False)
class DyadicPoint:
    """numerator / 2**scale in [0, 1); equality is value equality."""

    numerator: int
    scale: int

    def __post_init__(self) -> None:
        numerator = _as_int(self.numerator, 0, "numerator")
        scale = _as_int(self.scale, 0, "scale")
        if numerator >= 1 << scale:
            raise InvalidInputError(
                f"dyadic point needs 0 <= numerator < 2**scale, "
                f"got {numerator}/2**{scale}"
            )
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "scale", scale)

    def _canonical(self) -> tuple[int, int]:
        num, sc = self.numerator, self.scale
        if num == 0:
            return 0, 0
        while num % 2 == 0:
            num //= 2
            sc -= 1
        return num, sc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyadicPoint):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __float__(self) -> float:
        return self.numerator / (1 << self.scale)

    def __repr__(self) -> str:
        return f"DyadicPoint({self.numerator}/2**{self.scale})"

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.scale)

    @classmethod
    def zero(cls) -> "DyadicPoint":
        return cls(0, 0)

    @classmethod
    def from_fraction(cls, value) -> "DyadicPoint":
        """The dyadic rational value in [0, 1), read by the rational rule
        ``lacunary._as_fraction``, as a Fraction, int, float or "3/8"."""
        fr = _as_fraction(value)
        if not 0 <= fr < 1:
            raise InvalidInputError(f"point {fr} is outside [0, 1)")
        den = fr.denominator
        scale = den.bit_length() - 1
        if 1 << scale != den:
            raise InvalidInputError(f"{fr} is not a dyadic rational")
        return cls(fr.numerator, scale)

    @classmethod
    def parse(cls, text: str) -> "DyadicPoint":
        """``from_fraction`` of the stripped text."""
        return cls.from_fraction(text.strip())

    def at_scale(self, scale: int) -> "DyadicPoint":
        scale = _as_int(scale, 0, "scale")
        if scale >= self.scale:
            return DyadicPoint(self.numerator << (scale - self.scale), scale)
        shift = self.scale - scale
        if self.numerator % (1 << shift):
            raise InvalidInputError(f"{self!r} is not representable at scale {scale}")
        return DyadicPoint(self.numerator >> shift, scale)

    def digit(self, k: int) -> int:
        """k-th binary digit (k >= 1), terminating-expansion convention."""
        k = _as_int(k, 1, "digit position")
        if k > self.scale:
            return 0
        return (self.numerator >> (self.scale - k)) & 1

    def xor_pow2(self, k: int) -> "DyadicPoint":
        """Flip digit k, i.e. XOR with 2**-k."""
        k = _as_int(k, 1, "digit position")
        scale = max(self.scale, k)
        num = self.at_scale(scale).numerator ^ (1 << (scale - k))
        return DyadicPoint(num, scale)


def _sign(exponents: Iterable[int], x: DyadicPoint) -> int:
    """(-1)**(sum of the binary digits of x at the given positions)."""
    parity = 0
    for k in exponents:
        parity ^= x.digit(k)
    return -1 if parity else 1


def rademacher(n: int, x: DyadicPoint) -> int:
    """(-1)**(n-th binary digit of x); right-continuous at dyadic points."""
    return _sign((n,), x)


@dataclass(frozen=True)
class WalshIndex:
    """Dyadic-sum frequency m = 2**k_1 + ... + 2**k_s, k_1 > ... > k_s >= 1."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(_as_int(k, 1, "exponent") for k in self.exponents)
        if not exps:
            raise InvalidInputError("index needs at least one exponent")
        if any(exps[i] <= exps[i + 1] for i in range(len(exps) - 1)):
            raise InvalidInputError("exponents must be strictly decreasing")
        object.__setattr__(self, "exponents", exps)

    @property
    def value(self) -> int:
        return sum(1 << k for k in self.exponents)

    @property
    def order(self) -> int:
        return len(self.exponents)

    @classmethod
    def from_value(cls, m: int) -> "WalshIndex":
        if m < 2 or m % 2:
            raise InvalidInputError(
                f"index value must be even and >= 2, got {m} "
                "(binary ones must sit at positions >= 1)"
            )
        exps = tuple(k for k in range(m.bit_length() - 1, 0, -1) if (m >> k) & 1)
        return cls(exps)


def walsh_eval(m: WalshIndex, x: DyadicPoint) -> int:
    """Product of rademacher(k, x) over the exponents of m."""
    return _sign(m.exponents, x)


def _exponents_of(m: int) -> tuple[int, ...]:
    if m == 0:
        return ()
    return WalshIndex.from_value(m).exponents


def _reversed_masks(values_m: Sequence[int], scale: int) -> np.ndarray:
    """Each value's digit mask with its digits reversed, as int64: cell
    index bit scale - k is binary digit k of the point, k = 1 .. scale,
    so scale must stay below 63."""
    import numpy as np

    values = np.array(values_m, dtype=np.int64)
    masks = np.zeros(len(values), dtype=np.int64)
    for k in range(1, scale + 1):
        masks |= (values >> k & 1) << (scale - k)
    return masks


def _max_scale(values_m) -> int:
    return max((m.bit_length() - 1 for m in values_m if m), default=0)


def _compact_digits(coefficients: Mapping[int, float]) -> Mapping[int, float]:
    """The coefficients with their n distinct digit positions relabelled
    1..n in order, the same map when they already are.

    A Walsh polynomial's law depends only on the joint law of the
    Rademachers it uses, so every L^p norm survives the relabelling,
    and the cells number 2**n, not 2**max_scale.
    """
    digits = sorted({k for m in coefficients for k in _exponents_of(m)})
    if not digits or digits[-1] == len(digits):
        return coefficients
    rank = {k: i for i, k in enumerate(digits, start=1)}
    return {
        sum(1 << rank[k] for k in _exponents_of(m)): a for m, a in coefficients.items()
    }


# even integer exponents up to this one take the exact integer moment
_EXACT_P_MAX = 1024
_LN2 = math.log(2.0)


def _quotient_pow2(num: int, den: int, k: int) -> float:
    """num * 2**k / den for ints of any size, rounded once."""
    return (num << k) / den if k >= 0 else num / (den << -k)


def _log_quotient(num: int, den: int) -> float:
    """log(num / den) for positive ints of any size, to a few ulps of the
    result rather than of log(num)."""
    shift = num.bit_length() - den.bit_length()
    return math.log(_quotient_pow2(num, den, -shift)) + shift * _LN2


def _nearest_root(num: int, den: int, q: int) -> float:
    """The double nearest (num / den) ** (1 / q), for positive ints."""
    root = math.exp(_log_quotient(num, den) / q)
    while True:
        up, down = math.nextafter(root, math.inf), math.nextafter(root, 0.0)
        # midpoints (a + b) / 2d over the largest denominator d, cross-multiplied
        ratios = [x.as_integer_ratio() for x in (root, up, down)]
        d = max(den_x for _, den_x in ratios)
        a, b, c = (num_x * (d // den_x) for num_x, den_x in ratios)
        if (a + b) ** q * den < num << q * d.bit_length():
            root = up
        elif (a + c) ** q * den > num << q * d.bit_length():
            root = down
        else:
            return root


@functools.lru_cache(maxsize=4)
def _krawtchouk(n: int, l: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The weights C(n, k) and the levels K_l(k; n) = sum_j (-1)^j C(k, j)
    C(n - k, l - j) for k = 0 .. n, built once per (n, l)."""
    weights = [1]
    for k in range(n):
        weights.append(weights[-1] * (n - k) // (k + 1))
    levels = tuple(
        sum((-1) ** j * math.comb(k, j) * math.comb(n - k, l - j) for j in range(l + 1))
        for k in range(n + 1)
    )
    return tuple(weights), levels


def _full_shape(values_m: Sequence[int]) -> tuple[int, int] | None:
    """(n, l) when values_m are every order-l index over their n digit
    positions, else None."""
    order = values_m[0].bit_count()
    n = functools.reduce(operator.or_, values_m).bit_count()
    if not order or len(values_m) != math.comb(n, order) or any(
        m.bit_count() != order for m in values_m
    ):
        return None
    return n, order


def _krawtchouk_ratio(n: int, l: int, p) -> float:
    """The L^p/L^2 ratio of the all-equal sum of every order-l index over
    n digit positions.

    Such a sum of products of l of n Rademachers depends only on the
    number k of minus signs, where it is the Krawtchouk value K_l(k; n).
    So ||S||_p^p = 2^-n sum_k C(n, k) |K_l(k; n)|^p, and the ratio is its
    p-th root over C(n, l)^(1/2): O(n l) integer work, no cells.  An even
    integer p up to ``_EXACT_P_MAX`` sums exactly and rounds once, to the
    nearest double; any other p takes a log-sum-exp scaled by its
    largest term, which is finite for every p.
    """
    weights, levels = _krawtchouk(n, l)
    size = math.comb(n, l)
    if float(p).is_integer() and p % 2 == 0 and p <= _EXACT_P_MAX:
        q = int(p)
        moment = sum(w * v**q for w, v in zip(weights, levels))
        return _nearest_root(moment, size ** (q // 2) << n, q)
    logs = [
        _log_quotient(w, 1 << n) + p / 2 * _log_quotient(v * v, size)
        for w, v in zip(weights, levels)
        if v
    ]
    top = max(logs)
    return math.exp((top + math.log(math.fsum(math.exp(t - top) for t in logs))) / p)


def _exponent(c) -> int:
    """An e with 2**(e-2) <= max(|Re c|, |Im c|) < 2**e for a nonzero c,
    exact for ints and Fractions of any size."""
    if not isinstance(c, (float, complex)) and isinstance(c, numbers.Rational):
        return int(abs(c.numerator)).bit_length() - int(c.denominator).bit_length() + 1
    z = complex(c)
    return math.frexp(max(abs(z.real), abs(z.imag)))[1]


def _times_pow2(c, k: int):
    """c * 2**k as a double, complex when its imaginary part is nonzero:
    ints and Fractions are shifted exactly before their one rounding."""
    if not isinstance(c, (float, complex)) and isinstance(c, numbers.Rational):
        return _quotient_pow2(int(c.numerator), int(c.denominator), k)
    z = complex(c)
    if z.imag:
        return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
    return math.ldexp(z.real, k)


def _scaled(values) -> tuple[list, int]:
    """values times 2**-e as doubles, and e, the largest ``_exponent`` of
    the nonzero ones: every part lands below 1, whatever the scale.  A
    power of two scales a double exactly while it stays normal, so what
    is computed from the scaled values and scaled back agrees bit for
    bit with the direct computation wherever both see normal doubles."""
    values = list(values)
    e = max((_exponent(c) for c in values if c), default=0)
    return [_times_pow2(c, -e) for c in values], e


def _unscale(x: float, e: int, what: str) -> float:
    """x * 2**e: 0.0 below the float range, ResourceError naming what above."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        raise ResourceError(f"{what} {x:.6g} * 2**{e} passes the float range") from None


def _scaled_mass(values) -> tuple[float, int]:
    scaled, e = _scaled(values)
    return float(sum(abs(z) ** 2 for z in scaled)), e


def _mass(values) -> float:
    """Sum of squared moduli of values, in their order: the L^2 norm
    squared of a coefficient map, summed at the scale of ``_scaled`` and
    scaled back once."""
    total, e = _scaled_mass(values)
    return _unscale(total, 2 * e, "coefficient mass")


def _norm(values) -> float:
    """The square root of ``_mass``, taken before the scale comes back,
    so it is finite wherever the largest value is."""
    total, e = _scaled_mass(values)
    return _unscale(math.sqrt(total), e, "L^2 norm")


@dataclass(frozen=True)
class WalshPolynomial:
    """Finite real combination of Walsh functions, keyed by index value.

    Keys are 0 (the constant) or even integers whose binary ones sit at
    positions >= 1.  Coefficients are ``numbers.Real`` (floats, ints,
    ``Fraction``s, numpy floats); zero coefficients are dropped, and a
    NaN or infinite one raises ``InvalidInputError``.  The polynomial is
    piecewise constant on the 2**max_scale cells of [0, 1).
    """

    coefficients: Mapping[int, float]

    def __init__(self, coefficients: Mapping[int, float]):
        cleaned = {}
        for m, a in coefficients.items():
            m = _as_key(m)
            _exponents_of(m)  # validates the key
            if not isinstance(a, numbers.Real):
                raise InvalidInputError(f"Walsh coefficient {a!r} at {m} is not real")
            if not isinstance(a, (int, Fraction)) and not math.isfinite(a):
                raise InvalidInputError(f"Walsh coefficient {a!r} at {m} is not finite")
            if a:
                cleaned[m] = a
        object.__setattr__(self, "coefficients", cleaned)

    @property
    def max_scale(self) -> int:
        return _max_scale(self.coefficients)

    def evaluate(self, x: DyadicPoint) -> float:
        total = 0.0
        for m, a in self.coefficients.items():
            total += _sign(_exponents_of(m), x) * a
        return total

    def cell_values(self) -> np.ndarray:
        """Values on the 2**max_scale cells, via the fast transform."""
        from .engine import _CellSpace

        return _CellSpace(self.coefficients).values(list(self.coefficients.values()))

    @property
    def mass(self) -> float:
        """Sum of squared coefficients, the L^2 norm squared (``_mass``)."""
        return _mass(self.coefficients.values())

    def norm2(self) -> float:
        return _norm(self.coefficients.values())

    def to_json_dict(self) -> dict:
        return {"coefficients": _walsh_rows(self.coefficients)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "WalshPolynomial":
        try:
            coeffs = {_as_key(c["value_m"]): float(c["coeff"]) for c in data["coefficients"]}
        except (KeyError, TypeError, OverflowError) as exc:
            raise InvalidInputError(f"malformed Walsh polynomial: {exc!r}") from exc
        return cls(coeffs)


def _walsh_rows(coefficients: Mapping[int, float]) -> list[dict]:
    """JSON rows {"value_m", "coeff"} in index order, zeros included."""
    return [{"value_m": m, "coeff": float(coefficients[m])} for m in sorted(coefficients)]


def _flip_orbit(alpha: DyadicPoint, exponents: Sequence[int]):
    """The 2**l digit-flip shifts of alpha, each with the parity of its
    flips: for bits = 0 .. 2**l - 1, bit j flips digit exponents[j]."""
    for bits in range(1 << len(exponents)):
        point = alpha
        parity = 0
        for j, k in enumerate(exponents):
            if (bits >> j) & 1:
                point = point.xor_pow2(k)
                parity ^= 1
        yield point, parity


def _orbit_sum(f: Callable[[DyadicPoint], float], alpha: DyadicPoint, exponents):
    """Sum of f over the digit-flip orbit of alpha, each shift signed by
    the parity of its flips."""
    total = 0
    for point, parity in _flip_orbit(alpha, exponents):
        v = f(point)
        total += -v if parity else v
    return total


def shift_sum(n: WalshIndex, m: WalshIndex, alpha: DyadicPoint) -> int:
    """Signed sum of w_n over the 2**l XOR-shifts of alpha by m's digits.

    Exact integer arithmetic; the value is 0 unless n == m, in which
    case it is +-2**l.  Orders of n and m must agree.
    """
    l = m.order
    if n.order != l:
        raise InvalidOrderError(
            f"index orders differ: {n.order} vs {l}; the identity needs equal orders"
        )
    return _orbit_sum(lambda x: walsh_eval(n, x), alpha, m.exponents)


def shift_sum_bulk(
    ns: Sequence[WalshIndex], m: WalshIndex, alphas: Sequence[DyadicPoint]
) -> np.ndarray:
    """shift_sum for many n and alpha at once; shape (len(alphas), len(ns)).

    Vectorized over int64 bit masks, so all exponents and alpha scales
    must stay below 63.
    """
    import numpy as np

    scale = max(
        [m.exponents[0]]
        + [n.exponents[0] for n in ns]
        + [a.scale for a in alphas]
    )
    if scale > 62:
        raise ResourceError("bulk shift sums are capped at scale 62; go scalar")
    a_bits = np.array([a.at_scale(scale).numerator for a in alphas], dtype=np.int64)
    n_masks = _reversed_masks([n.value for n in ns], scale)
    orbit = list(_flip_orbit(DyadicPoint(0, scale), m.exponents))
    sub_masks = np.array([point.numerator for point, _ in orbit], dtype=np.int64)
    sub_signs = np.array([-1 if parity else 1 for _, parity in orbit], dtype=np.int64)
    shifted = a_bits[:, None] ^ sub_masks[None, :]
    hits = np.bitwise_count(
        shifted[:, :, None].astype(np.uint64) & n_masks[None, None, :].astype(np.uint64)
    ).astype(np.int64)
    walsh_signs = 1 - 2 * (hits & 1)
    return np.einsum("s,asn->an", sub_signs, walsh_signs)


def find_alpha(
    E: IntervalSet, exponents: Sequence[int]
) -> DyadicPoint | None:
    """Point whose 2**l digit-flip shifts all stay inside E, if one exists.

    Runs the intersection recursion E_{j+1} = E_j meet (E_j shifted by
    digit k_{j+1}); when the final set is nonempty the leftmost
    sufficiently fine dyadic point of it is returned, otherwise None.
    A nonempty result is guaranteed when |E| > 1 - 2**-l.
    """
    exps = WalshIndex(tuple(exponents)).exponents
    current = E
    for k in exps:
        current = current.intersect(current.dyadic_translate(k))
    if current.is_empty():
        return None
    a, b = current.intervals[0]
    scale = max(exps[0], _endpoint_scale(a), _endpoint_scale(b)) + 1
    while True:
        step = Fraction(1, 1 << scale)
        num = -((-a) // step)  # ceil(a / step)
        candidate = num * step
        if candidate < b:
            point = DyadicPoint(num, scale)
            break
        scale += 1
    for shifted, _ in _flip_orbit(point, exps):
        if not E.contains(shifted.as_fraction()):
            raise RuntimeError("internal: shifted point escaped the source set")
    return point


def _endpoint_scale(x: Fraction) -> int:
    den = x.denominator
    scale = den.bit_length() - 1
    if 1 << scale == den:
        return scale
    return den.bit_length()


def recover_coefficient(
    S: WalshPolynomial | Callable[[DyadicPoint], float],
    m: WalshIndex,
    alpha: DyadicPoint,
) -> float:
    """Read off the coefficient of w_m from point values of S.

    Exact for polynomials supported on indices of order exactly
    m.order: all other terms cancel in the signed shift sum.  Mixed
    lower orders do not cancel in general, and indices containing all
    of m's exponents plus extras never arise at equal order.
    """
    value_at = S.evaluate if isinstance(S, WalshPolynomial) else lambda p: float(S(p))
    return _orbit_sum(value_at, alpha, m.exponents) / shift_sum(m, m, alpha)
