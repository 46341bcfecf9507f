"""Inverse Parseval checks on interval sets and finite-truncation
experiments under general row-finite summation matrices.

The energy of a chaos polynomial over a near-full set is compared
against an explicit lower constant times the coefficient mass; the
experiment driver replays that bound row by row for a summation
matrix, which is how the finite data certifies the coefficient
conclusions that the limit statements promise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    BoundViolationError,
    InvalidInputError,
    InvalidRowError,
    InvalidSupportError,
)
from .lacunary import (
    LacunarySequence,
    _as_int,
    _as_key,
    _as_order,
    _head_bounds,
    empirical_mixed_bound,
    representations,
)
from .measure import IntervalSet, _trig_prefix_energies, energy_on_set
from .trig import TrigPolynomial
from .walsh import WalshIndex, WalshPolynomial


def alpha_threshold(l: int, d: int) -> float:
    """Measure threshold 1 - 1/(d * 2**(l+1)) for the trig-side bound."""
    return float(_alpha_threshold_exact(_as_order(l), d))


def _alpha_threshold_exact(l: int, d: int) -> Fraction:
    """1 - 1/(d * 2**(l+1)) for a checked order l, once d is an integer >= 1."""
    d = _as_int(d, 1, "representation bound d")
    return 1 - Fraction(1, d * 2 ** (l + 1))


@dataclass(frozen=True)
class TrigContext:
    """Positive-sum chaos of order >= 2 over a lacunary sequence, with the
    mixed representation bound d >= 1 (computed from the sequence window
    when not supplied)."""

    sequence: LacunarySequence
    order: int
    d: int | None = None

    polynomial = TrigPolynomial

    def _bound(self, S) -> tuple[Fraction, float, list[str]]:
        """Exact measure threshold 1 - 1/(d*2^(l+1)), margin 1/2 and
        notes, once S is checked to be a positive-sum chaos polynomial."""
        if not isinstance(S, TrigPolynomial):
            raise InvalidInputError("trig context expects a TrigPolynomial")
        l = _as_order(self.order)
        for m in S.coefficients:
            if not representations(self.sequence, m, l, "positive"):
                raise InvalidSupportError(
                    f"frequency {m} is not a positive sum of at most {l} sequence terms"
                )
        notes = []
        if _head_bounds(self.sequence.lam, l + 1)[0] <= 0:
            notes.append(
                "sequence witness does not exceed the order-%d critical ratio; "
                "the lower bound is not guaranteed" % (l + 1)
            )
        d = self.d
        if d is None:
            d = empirical_mixed_bound(self.sequence, self.order)
            notes.append(f"d={d} measured over the sequence window")
        return _alpha_threshold_exact(l, d), 0.5, notes


@dataclass(frozen=True)
class WalshContext:
    """Dyadic chaos of orders 1..order."""

    order: int

    polynomial = WalshPolynomial

    def _bound(self, S) -> tuple[Fraction, float, list[str]]:
        """Exact measure threshold 1 - 2^(-4l), margin l^(-1/4) and notes,
        once S is checked to be a dyadic chaos of orders 1..l, l >= 2."""
        if not isinstance(S, WalshPolynomial):
            raise InvalidInputError("walsh context expects a WalshPolynomial")
        l = _as_order(self.order)
        for m in S.coefficients:
            if m == 0 or WalshIndex.from_value(m).order > l:
                raise InvalidSupportError(
                    f"index {m} is not a dyadic sum of 1..{l} powers"
                )
        notes = ["walsh threshold 1-2^-%d in force (margin constant l^-1/4)" % (4 * l)]
        return 1 - Fraction(1, 2 ** (4 * l)), l**-0.25, notes


_CONTEXTS = (TrigContext, WalshContext)


@dataclass(frozen=True)
class InverseParsevalReport:
    energy: float
    coefficient_mass: float
    threshold: float
    lower_constant: float
    passed: bool
    measure_ok: bool
    notes: tuple[str, ...] = field(default=())

    def to_json_dict(self) -> dict:
        return {
            "energy": self.energy,
            "coefficient_mass": self.coefficient_mass,
            "threshold": self.threshold,
            "lower_constant": self.lower_constant,
            "pass": self.passed,
            "measure_ok": self.measure_ok,
            "notes": list(self.notes),
        }


def inverse_parseval_check(S, E: IntervalSet, context) -> InverseParsevalReport:
    """Check energy(S over E) > c * coefficient mass.

    The lower constant is |E| - 1/2 in the trig context (measure
    threshold 1 - 1/(d*2^(l+1))) and |E| - l^(-1/4) in the Walsh
    context (threshold 1 - 2^(-4l): the Walsh margin constant needs
    the complement smaller than 2^(-4l), which is stricter than the
    trig-side threshold).  ``passed`` requires both the measure
    condition and the strict energy inequality.
    """
    if not isinstance(context, _CONTEXTS):
        raise InvalidInputError("context must be TrigContext or WalshContext")
    threshold, margin, notes = context._bound(S)
    lower_constant = float(E.measure) - margin
    mass = S.mass
    if mass == 0:
        notes.append("zero polynomial: the strict inequality is vacuously absent")
    energy = energy_on_set(S, E)
    measure_ok = E.measure > threshold
    passed = bool(measure_ok and energy > lower_constant * mass)
    return InverseParsevalReport(
        energy=energy,
        coefficient_mass=mass,
        threshold=float(threshold),
        lower_constant=lower_constant,
        passed=passed,
        measure_ok=bool(measure_ok),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class SummationMatrix:
    """Row-finite summation matrix with a uniform entry bound.

    Rows are finite maps m -> t_{n,m}.  The indicator kind marks
    membership in a growing family of sets.  The column-limit condition
    (entries tending to 1 down each column) is a limit statement that
    finitely many rows cannot certify, so it is not checked.
    """

    rows: tuple
    bound: float
    kind: str


def build_summation_matrix(
    kind: str,
    order: Sequence[int] | None = None,
    sets: Sequence[Sequence[int]] | None = None,
    rows: Sequence[Mapping[int, float]] | None = None,
    bound: float = 1.0,
) -> SummationMatrix:
    """Construct and validate a summation matrix.

    kinds:
      - "prefix-of-rearrangement": indicator rows of the nested family
        order[:1], order[:2], ... of a duplicate-free listing ``order``;
      - "nested-sets": indicator rows of an increasing family ``sets``;
      - "custom": explicit ``rows``.
    Every row of every kind must be a finite map whose entries are
    finite and bounded by ``bound`` in absolute value.
    """
    try:
        bound = float(bound)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"bound {bound!r} is not a number") from exc
    if bound <= 0 or not math.isfinite(bound):
        raise InvalidInputError("bound must be positive and finite")
    if kind == "prefix-of-rearrangement":
        if order is None:
            raise InvalidInputError("prefix kind needs an order listing")
        order = [_as_key(m) for m in order]
        if len(set(order)) != len(order):
            raise InvalidInputError("order listing must be duplicate-free")
        sets = [order[:n] for n in range(1, len(order) + 1)]
    elif kind == "nested-sets":
        if sets is None:
            raise InvalidInputError("nested kind needs the set family")
        try:
            sets = [sorted(set(map(_as_key, s))) for s in sets]
        except TypeError as exc:
            raise InvalidInputError("nested kind needs lists of integers") from exc
    elif kind != "custom":
        raise InvalidInputError(f"unknown matrix kind {kind!r}")
    if kind != "custom":
        for i in range(len(sets) - 1):
            if not set(sets[i]) <= set(sets[i + 1]):
                raise InvalidInputError(
                    f"set {i} is not contained in set {i + 1}; family must grow"
                )
        rows = [dict.fromkeys(s, 1.0) for s in sets]
    elif rows is None:
        raise InvalidInputError("custom kind needs explicit rows")
    built: list[dict[int, float]] = []
    for i, row in enumerate(rows):
        if not isinstance(row, Mapping):
            raise InvalidRowError(f"row {i} is not a finite map")
        cleaned = {}
        for m, t in row.items():
            m = _as_key(m)
            try:
                t = float(t)
            except TypeError as exc:
                raise InvalidRowError(f"row {i} has a non-numeric entry at {m}") from exc
            if not math.isfinite(t):
                raise InvalidRowError(f"row {i} has a non-finite entry at {m}")
            if abs(t) > bound:
                raise BoundViolationError(
                    f"row {i} entry {t} at column {m} exceeds bound {bound}"
                )
            if t != 0.0:
                cleaned[m] = t
        built.append(cleaned)
    matrix_kind = "indicator" if kind != "custom" else "custom"
    return SummationMatrix(rows=tuple(built), bound=bound, kind=matrix_kind)


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    energy: float
    mass: float
    bound: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "energy": self.energy,
            "mass": self.mass,
            "bound": self.bound,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ExperimentReport:
    threshold: float
    lower_constant: float
    hypothesis_met: bool
    rows: tuple[ExperimentRow, ...]
    implied_mass_bound: float | None

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "lower_constant": self.lower_constant,
            "hypothesis_met": self.hypothesis_met,
            "hypothesis": "met" if self.hypothesis_met else "not met",
            "implied_mass_bound": self.implied_mass_bound,
            "rows": [r.to_json_dict() for r in self.rows],
        }


def inverse_bound_experiment(
    coeffs: Mapping[int, complex],
    matrix: SummationMatrix,
    E: IntervalSet,
    context,
    n_max: int | None = None,
) -> ExperimentReport:
    """Replay the inverse Parseval bound for each matrix row.

    Row n forms S_n = sum_m t_{n,m} c_m e_m, measures its energy over
    E and compares with c * sum |t_{n,m} c_m|^2.  When the measure
    hypothesis fails the rows are still produced but the report is
    flagged "not met" rather than failed.  ``implied_mass_bound`` is the
    converse reading: masked mass is at most energy / c, so vanishing
    energies force vanishing coefficients.  ``n_max``, an integer >= 1,
    stops the replay after that many rows.  Keys of ``coeffs`` are read
    as `_as_key` reads them, so "20" and 20 name one column.

    In a `TrigContext`, the rows of an indicator matrix (the prefix and
    nested kinds) take their energies from one Gram form over the
    columns in the order they join: row n's energy is the running sum
    of each new column's lower-triangle row.  It carries the error that
    `energy_on_set` states, of order (#intervals + n) eps (sum |c|)^2
    over the row's n coefficients, and may differ from a per-row
    `energy_on_set` in the last bits.  Custom rows and a `WalshContext`
    call `energy_on_set` once per row.
    """
    if not isinstance(context, _CONTEXTS):
        raise InvalidInputError("context must be TrigContext or WalshContext")
    polynomial = context.polynomial(coeffs)
    threshold, margin, _ = context._bound(polynomial)
    coeffs = polynomial.coefficients
    lower_constant = float(E.measure) - margin
    hypothesis_met = E.measure > threshold
    rows = matrix.rows if n_max is None else matrix.rows[: _as_int(n_max, 1, "n_max")]
    joined = None
    if isinstance(context, TrigContext) and matrix.kind == "indicator":
        joined = _joined_columns(rows, coeffs)
    if joined is None:
        polynomials = [
            context.polynomial(
                {m: t * coeffs[m] for m, t in row.items() if m in coeffs and t != 0}
            )
            for row in rows
        ]
        energies = [energy_on_set(S_n, E) for S_n in polynomials]
        masses = [S_n.mass for S_n in polynomials]
    else:
        columns, counts = joined
        prefix = _trig_prefix_energies({m: coeffs[m] for m in columns}, E)
        energies = [prefix[count] for count in counts]
        # each row's mass summed in its own key order, as TrigPolynomial.mass
        square = {m: abs(complex(coeffs[m])) ** 2 for m in columns}
        masses = [float(sum(square[m] for m in row if m in square)) for row in rows]
    records = []
    for n, (energy, mass) in enumerate(zip(energies, masses), start=1):
        bound = lower_constant * mass
        records.append(
            ExperimentRow(n, energy, mass, bound, passed=bool(energy > bound))
        )
    implied = None
    if lower_constant > 0 and records:
        implied = max(r.energy for r in records) / lower_constant
    return ExperimentReport(
        threshold=float(threshold),
        lower_constant=lower_constant,
        hypothesis_met=bool(hypothesis_met),
        rows=tuple(records),
        implied_mass_bound=implied,
    )


def _joined_columns(rows, coeffs) -> tuple[list, list] | None:
    """The columns of nested 0/1 rows that coeffs holds, in the order they
    join, and each row's count of them; None when a row has another entry
    or lacks a column of the row before it."""
    columns, counts = {}, []
    for row in rows:
        if any(t != 1.0 for t in row.values()):
            return None
        columns.update(dict.fromkeys(m for m in row if m in coeffs))
        counts.append(sum(m in coeffs for m in row))
        if counts[-1] != len(columns):
            return None
    return list(columns), counts
