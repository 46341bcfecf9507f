"""Trigonometric and Walsh polynomial numerics.

L^p norms (exact where the structure permits, quadrature on the grid
or the cells of ``engine`` otherwise), the grid sizes the quadrature
and the search take, cosine-product expansion, Riesz products with
exact dyadic-rational coefficients, the modulation projection factor,
and Walsh-sign decoration of chaos sums.
"""

from __future__ import annotations

import cmath
import math
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    InvalidInputError,
    InvalidSupportError,
    ResourceError,
    UndefinedRatioError,
)
from .lacunary import (
    ChaosIndexSet,
    _as_exponent,
    _as_int,
    _as_key,
    _as_sign,
    _ratio_violation,
)
from .walsh import DyadicPoint, WalshPolynomial, _compact_digits, _full_shape, _sign
from .walsh import _krawtchouk_ratio, _mass, _norm, _scaled, _unscale


@dataclass(frozen=True)
class TrigPolynomial:
    """Sparse finite map frequency -> coefficient.

    Coefficients are ``numbers.Complex``, `Fraction`s and numpy scalars
    included; the exact rational kind survives the symbolic operations
    (cosine products, Riesz expansion, projection) and is coerced to
    complex only at grid synthesis time.  Zero coefficients are dropped,
    and a NaN or infinite one raises ``InvalidInputError``.
    """

    coefficients: Mapping[int, complex]

    def __init__(self, coefficients: Mapping[int, complex]):
        cleaned = {}
        for m, c in coefficients.items():
            m = _as_key(m)
            if not isinstance(c, numbers.Complex):
                raise InvalidInputError(f"trig coefficient {c!r} at {m} is not a number")
            if not isinstance(c, (int, Fraction)) and not cmath.isfinite(c):
                raise InvalidInputError(f"trig coefficient {c!r} at {m} is not finite")
            if c != 0:
                cleaned[m] = c
        object.__setattr__(self, "coefficients", cleaned)

    @property
    def degree(self) -> int:
        if not self.coefficients:
            return 0
        return max(abs(m) for m in self.coefficients)

    @property
    def mass(self) -> float:
        """Sum of squared coefficient moduli, the L^2 norm squared (``_mass``)."""
        return _mass(self.coefficients.values())

    def norm2(self) -> float:
        return _norm(self.coefficients.values())

    def __len__(self) -> int:
        return len(self.coefficients)

    def to_json_dict(self) -> dict:
        return {"coefficients": _trig_rows(self.coefficients)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrigPolynomial":
        try:
            coeffs = {
                _as_key(c["freq"]): complex(float(c["re"]), float(c.get("im", 0.0)))
                for c in data["coefficients"]
            }
        except (KeyError, TypeError, OverflowError) as exc:
            raise InvalidInputError(f"malformed trig polynomial: {exc!r}") from exc
        return cls(coeffs)


def _trig_rows(coefficients: Mapping[int, complex]) -> list[dict]:
    """JSON rows {"freq", "re", "im"} in frequency order, zeros included."""
    rows = []
    for m in sorted(coefficients):
        c = complex(coefficients[m])
        rows.append({"freq": m, "re": c.real, "im": c.imag})
    return rows


def _as_oversample(oversample) -> int:
    """The grid oversampling factor, an integer >= 4 (below 4 risks aliasing)."""
    return _as_int(oversample, 4, "oversample")


def _lattice(freqs) -> list[int]:
    """The frequencies k = (m - r) / g, in the order given, of a support
    whose frequencies m all lie on r + g * Z: g the gcd of the gaps m - min
    (1 for a single frequency), r = min mod g.  Then |S(x)| = |T(g x)| for
    T on the k, so every L^p mean and gradient entry of S is T's."""
    freqs = list(freqs)
    low = min(freqs, default=0)
    g = math.gcd(*(m - low for m in freqs)) or 1
    return [(m - low % g) // g for m in freqs]


def _grid_size(degree: int, oversample: int) -> int:
    """Points of the quadrature grid for a polynomial of the given degree."""
    return _as_oversample(oversample) * (2 * degree + 1)


def _exact_size(freqs, p, size: int) -> int:
    """``size``, or at even integer p a smaller grid that is still exact.

    S is the polynomial on freqs, which both callers reduce first
    (``_lattice``).  At p = 2q, |S|^p = S^q conj(S)^q has frequencies of
    modulus at most q * (max - min) over freqs, and |S|^(p-2) S lands
    within that distance of every frequency of S.  So on N > q * (max -
    min) points the grid mean of |S|^p is exact and the adjoint of
    |S|^(p-2) S aliases onto no frequency of S.  The smallest 5-smooth N
    above that span and above 2 * degree replaces ``size`` when it is
    smaller; any other p keeps ``size``.
    """
    if float(p).is_integer() and p % 2 == 0:
        least = max(int(p) // 2 * (max(freqs) - min(freqs)), 2 * max(map(abs, freqs)))
        if least < size:
            return min(size, _next_smooth(least + 1))
    return size


def _next_smooth(n: int) -> int:
    """Smallest 5-smooth integer (2^a 3^b 5^c) at or above n >= 1, a size
    at which the FFT runs several times faster than at a nearby size with
    a large prime factor."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def lp_norm_trig(S: TrigPolynomial, p: float, oversample: int = 8) -> float:
    """L^p norm over [0, 1), finite p >= 1, by uniform-grid quadrature.

    Frequencies r + g * k are reduced to the k (``_lattice``), which
    leaves the norm unchanged; degree, max and min below are the k's.
    The grid has oversample * (2*degree + 1) points.  At even integer
    p = 2q the quadrature is exact on N > q * (max - min) points, and
    the grid is the smallest 5-smooth such N above 2 * degree when that
    is smaller; it is never larger.  p == 2 bypasses the grid and
    returns the exact Parseval value.  The grid takes the coefficients
    scaled as in ``engine._lp_norm``: a norm past the float range raises
    ``ResourceError``, and a non-trig ``S`` ``InvalidInputError``.
    """
    from .engine import _GridSpace, _lp_norm

    if not isinstance(S, TrigPolynomial):
        raise InvalidInputError("lp_norm_trig expects a trig polynomial")
    freqs = _lattice(S.coefficients)
    N = _grid_size(max(map(abs, freqs), default=0), oversample)
    return _lp_norm(S, p, lambda: _GridSpace(freqs, _exact_size(freqs, p, N)))


def lp_norm_walsh(S: WalshPolynomial, p: float) -> float:
    """Exact L^p norm, finite p >= 1, via the cell values; p == 2 is Parseval.

    The n distinct digit positions of the support are relabelled 1..n
    first (``walsh._compact_digits``), which leaves the norm unchanged,
    so the cells number 2**n and the cap of 2**24 cells applies to n,
    not to the finest digit.  When every coefficient is equal and the
    support is every order-l index over its digit positions, the norm
    is the L^2 norm times the Krawtchouk-sum ratio of
    ``walsh._krawtchouk_ratio``: no cells are built, so no cell cap
    applies.  Either way the coefficients are scaled as in
    ``engine._lp_norm``: a norm past the float range raises
    ``ResourceError``, and a non-Walsh ``S`` ``InvalidInputError``.
    """
    from .engine import _CellSpace, _lp_norm

    if not isinstance(S, WalshPolynomial):
        raise InvalidInputError("lp_norm_walsh expects a Walsh polynomial")
    p = _as_exponent(p)
    if p != 2 and len(set(S.coefficients.values())) == 1:
        shape = _full_shape(list(S.coefficients))
        if shape is not None:
            vec, e = _scaled(S.coefficients.values())
            return _unscale(_krawtchouk_ratio(*shape, p) * _norm(vec), e, f"L^{p:g} norm")
    return _lp_norm(S, p, lambda: _CellSpace(list(_compact_digits(S.coefficients))))


def khintchine_ratio(S, p: float) -> float:
    """||S||_p / ||S||_2 for a trig or Walsh polynomial."""
    if isinstance(S, TrigPolynomial):
        lp_norm = lp_norm_trig
    elif isinstance(S, WalshPolynomial):
        lp_norm = lp_norm_walsh
    else:
        raise InvalidInputError("khintchine_ratio expects a trig or Walsh polynomial")
    denom = S.norm2()
    if denom == 0.0:
        raise UndefinedRatioError("ratio of the zero polynomial is undefined")
    return lp_norm(S, p) / denom


def _as_frequencies(freqs: Sequence[int]) -> list[int]:
    """freqs as ints, once a nonempty list of distinct positive integers."""
    freqs = [_as_int(n, 1, "frequency") for n in freqs]
    if not freqs:
        raise InvalidInputError("need at least one frequency")
    if len(set(freqs)) != len(freqs):
        raise InvalidInputError("frequencies must be distinct")
    return freqs


def _expand_product(freqs, weights, keep: bool, target=None) -> TrigPolynomial:
    """Exact expansion of prod_j (keep + 2 w_j cos(2 pi n_j x)), with the
    bool ``keep`` as the constant term 1 or 0 of every factor.  Given a
    ``target``, each factor drops the keys k with |target - k| above the
    sum of the remaining frequencies, which cannot reach the target, so
    only the target's coefficient is complete."""
    coeffs: dict[int, Fraction] = {0: Fraction(1)}
    reach = sum(freqs)
    for n, w in zip(freqs, weights):
        reach -= n
        nxt = dict(coeffs) if keep else {}
        for m, c in coeffs.items():
            for mm in (m + n, m - n):
                nxt[mm] = nxt.get(mm, Fraction(0)) + c * w
        if target is not None:
            nxt = {k: c for k, c in nxt.items() if abs(target - k) <= reach}
        coeffs = nxt
    return TrigPolynomial(coeffs)


def cos_product_expand(freqs: Sequence[int]) -> TrigPolynomial:
    """Exact exponential-basis expansion of prod_j cos(2 pi n_j x).

    Coefficients are dyadic rationals 2**-s summed over coinciding
    signed combinations; for a 3-lacunary frequency list all 2**s
    combinations are distinct and every coefficient is exactly 2**-s.
    """
    freqs = _as_frequencies(freqs)
    return _expand_product(freqs, [Fraction(1, 2)] * len(freqs), keep=False)


def riesz_product(freqs: Sequence[int], signs: Sequence[int]) -> TrigPolynomial:
    """Exact expansion of prod_j (1 + eps_j cos(2 pi n_j x)).

    The frequency list must be 3-lacunary, which keeps every signed
    combination distinct: the constant coefficient is then exactly 1
    and the product is a nonnegative unit-mass weight.  The expansion
    carries 3**n exact terms and is capped at n = 12 factors (531,441
    terms, 3.5 to 4.4 s on a 2-vCPU Xeon; 11 factors take 1.3 s).  More
    raise ``ResourceError`` before any term is built.
    """
    freqs = _as_frequencies(freqs)
    signs = [_as_sign(s) for s in signs]
    if len(freqs) != len(signs):
        raise InvalidInputError("freqs and signs must have equal length")
    if len(freqs) > 12:  # each further factor triples the time
        raise ResourceError(
            f"expansion would carry 3**{len(freqs)} terms; shrink the factor list"
        )
    if _ratio_violation(sorted(freqs), Fraction(3)) is not None:
        raise InvalidInputError("Riesz product requires a 3-lacunary frequency list")
    return _expand_product(freqs, [Fraction(1, 2) * eps for eps in signs], keep=True)


def modulation_projection(m: int, freqs: Sequence[int]) -> Fraction:
    """Factor gamma with integral(e^{2 pi i m(x+u)} prod cos(2 pi n_j u) du)
    equal to gamma * e^{2 pi i m x}.

    Computed symbolically by frequency matching in the exact cosine
    expansion: 2**-s when m is a signed combination of the s
    distinct positive frequencies, else 0.  The clean dichotomy relies on
    a 3-lacunary frequency list; other lists are accepted with a warning,
    and the matched (possibly accumulated) coefficient is returned as is.

    Only m's coefficient is expanded: the factors go largest first, each
    dropping the keys the rest cannot carry to m.  On a 3-lacunary list
    one key at most survives each factor, so the cost is linear in s;
    other lists can keep up to all 2**s keys.
    """
    m = _as_key(m)
    freqs = sorted(_as_frequencies(freqs), reverse=True)
    if _ratio_violation(freqs[::-1], Fraction(3)) is not None:
        warnings.warn(
            "frequency list is not 3-lacunary; the projection factor may "
            "accumulate several signed combinations",
            stacklevel=2,
        )
    half = [Fraction(1, 2)] * len(freqs)
    expansion = _expand_product(freqs, half, keep=False, target=m)
    return expansion.coefficients.get(m, Fraction(0))


def decorate_with_walsh_signs(
    S: TrigPolynomial, index_set: ChaosIndexSet, t: DyadicPoint
) -> TrigPolynomial:
    """Multiply each coefficient by the Rademacher product of its index set.

    Every frequency of S must have exactly one representation in
    ``index_set``; the sign is the product of rademacher(j, t) over the
    representation's 1-based sequence positions j.  Applying the map
    twice with the same t restores S.
    """
    out = {}
    for m, c in S.coefficients.items():
        reps = index_set.entries.get(m)
        if reps is None:
            raise InvalidSupportError(f"frequency {m} is not in the index set")
        if len(reps) != 1:
            raise InvalidSupportError(
                f"frequency {m} has {len(reps)} representations; need exactly one"
            )
        out[m] = c * _sign([idx + 1 for idx in reps[0].indices], t)
    return TrigPolynomial(out)
