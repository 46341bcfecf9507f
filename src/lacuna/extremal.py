"""Numerical search for extremal Khintchine ratios.

Maximizes the L^p over L^2 norm ratio of chaos polynomials with a
power iteration on the unit coefficient sphere, fits the growth
exponent of the best ratio against p, and probes the blow-up of the
ratio against the budget on the certified critical construction of
``lacunary.counterexample_sequence``, beside a ratio-3 geometric
control.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidInputError,
    InvalidSupportError,
    LacunaError,
    ResourceError,
    UndefinedGradientError,
)
from .lacunary import (
    ChaosIndexSet,
    LacunarySequence,
    _as_exponent,
    _as_int,
    _as_order,
    _index_shape,
    counterexample_sequence,
    dyadic_sequence,
    enumerate_index_set,
    geometric_sequence,
)
from .engine import _CELL_SCALE_CAP, _CellSpace, _GridSpace, _require_cell_scale
from .trig import _as_oversample, _exact_size, _grid_size, _next_smooth, _trig_rows
from .walsh import _full_shape, _krawtchouk_ratio, _walsh_rows

# the tangent part of a gradient this much smaller than the gradient is
# roundoff: a seeded start that lands on a symmetric point, such as the
# all-equal vector of a full dyadic family, sits near 2e-16
STATIONARY_TOL = 1e-12
SMALL_GAIN = 1e-10


@dataclass(frozen=True)
class ExtremalConfig:
    """Search settings, checked on construction.  ``oversample`` sizes the
    trig search grid: the smallest 5-smooth size at or above
    oversample * (2 * degree + 1).  At even integer p = 2q, where the
    quadrature is exact on N > q * (max - min) points over the support's
    frequencies, the search takes the smallest 5-smooth such N above
    2 * degree when that is smaller; the grid is never larger."""

    restarts: int = 3
    max_iter: int = 150
    step: float = 0.5
    seed: int = 0
    oversample: int = 8

    def __post_init__(self) -> None:
        for name, least in (("restarts", 1), ("max_iter", 1), ("seed", 0)):
            object.__setattr__(self, name, _as_int(getattr(self, name), least, name))
        if not self.step > 0:
            raise InvalidInputError("step must be positive")
        object.__setattr__(self, "oversample", _as_oversample(self.oversample))

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class RunSummary:
    """One start of the search: "equal" or the restart index, and where
    its ascent ended."""

    start: str | int
    iterations: int
    stop_reason: str  # "stationary", "no-ascent", "small-gain" or "max-iter"
    ratio: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExtremalResult:
    coefficients: dict
    ratio: float
    p: float
    iterations: int
    stop_reason: str  # of the best run
    kind: str
    runs: tuple  # a RunSummary per start, the all-equal start first

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max-iter"

    def to_json_dict(self) -> dict:
        rows = _walsh_rows if self.kind == "walsh" else _trig_rows
        return {
            "p": self.p,
            "ratio": self.ratio,
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "kind": self.kind,
            "coefficients": rows(self.coefficients),
            "runs": [run.to_json_dict() for run in self.runs],
        }


@dataclass(frozen=True)
class ChaosFamily:
    """The search's support: the order-l ``variant`` sums of a sequence."""

    sequence: LacunarySequence
    order: int
    variant: str

    def index_set(self) -> ChaosIndexSet:
        return enumerate_index_set(self.sequence, self.order, self.variant)


def walsh_family(l: int, exponent_budget: int) -> ChaosFamily:
    """The order-l dyadic chaos over exponents 1..exponent_budget."""
    l = _as_order(l, 1)
    budget = _as_int(exponent_budget, l, "exponent budget")
    return ChaosFamily(dyadic_sequence(budget), l, "dyadic")


def trig_family(seq: LacunarySequence, l: int) -> ChaosFamily:
    """The positive l-wise sums of seq."""
    if not isinstance(seq, LacunarySequence):
        raise InvalidInputError("trig family needs a LacunarySequence")
    return ChaosFamily(seq, l, "positive")


def _index_set(family) -> ChaosIndexSet:
    """The index set of a family, or the index set itself, once nonempty."""
    if isinstance(family, ChaosFamily):
        family = family.index_set()
    elif not isinstance(family, ChaosIndexSet):
        raise InvalidInputError("expected a ChaosFamily or ChaosIndexSet")
    if not len(family):
        raise InvalidInputError("empty index set")
    return family


def _full_values(n: int, l: int) -> list[int]:
    """The sorted order-l indices over the digits 1..n: the ``values()``
    of ``walsh_family(l, n).index_set()``, built without it."""
    # combinations of the digits taken from the top come in falling order
    powers = [1 << k for k in range(n, 0, -1)]
    values = [sum(c) for c in itertools.combinations(powers, l)]
    values.reverse()
    return values


def _support(family, config: ExtremalConfig):
    """The sorted values, the dyadic flag and the shape (n, l) of a search
    support that is every order-l index over n digits, else None.

    A ``ChaosFamily`` of variant "dyadic" is such a support over the
    digits 1..n once it passes the shape checks of
    ``enumerate_index_set``.  It has no values (None) where the search
    needs none: at ``restarts=1``, and for seeded restarts past the cell
    cap, which fail for every p before they would read them.
    """
    if isinstance(family, ChaosFamily) and family.variant == "dyadic":
        _, _, l = _index_shape(family.sequence, family.order, family.variant)
        n = len(family.sequence.terms)
        if config.restarts == 1 or n > _CELL_SCALE_CAP:
            return None, True, (n, l)
    index_set = _index_set(family)
    values = index_set.values()
    dyadic = index_set.is_dyadic
    return values, dyadic, _full_shape(values) if dyadic else None


def _make_space(values, dyadic: bool, oversample: int, p=None):
    """The cells of a dyadic support, else the smallest 5-smooth grid at or
    above oversample * (2 * degree + 1) points, or, given an exponent p,
    the smaller exact grid of ``trig._exact_size`` where p is an even
    integer."""
    if dyadic:
        return _CellSpace(values)
    degree = max(abs(m) for m in values)
    size = _next_smooth(_grid_size(degree, oversample))
    return _GridSpace(values, size if p is None else _exact_size(values, p, size))


def ratio_gradient(coeffs: dict, index_set: ChaosIndexSet, p: float) -> dict:
    """Gradient of F(c) = mean |S_c|^p over the search's grid at p
    (``ExtremalConfig.oversample``, or the exact grid at even p).

    The returned complex entry at m packs dF/dRe(c_m) + i dF/dIm(c_m);
    for dyadic supports the coefficients are real and so is the
    gradient.  Entries cover every index-set frequency, with absent
    coefficients treated as zero.
    """
    p = _as_exponent(p, search=True)
    index_set = _index_set(index_set)
    values = index_set.values()
    extra = set(coeffs) - set(values)
    if extra:
        raise InvalidSupportError(f"coefficients outside the index set: {sorted(extra)}")
    if all(c == 0 for c in coeffs.values()) or not coeffs:
        raise UndefinedGradientError("gradient is undefined at the zero vector")
    space = _make_space(values, index_set.is_dyadic, ExtremalConfig.oversample, p)
    vec = np.array([space.dtype(coeffs.get(m, 0.0)) for m in values])
    _, _, grad, scale = _power_state(space, vec, p)
    with np.errstate(over="ignore", invalid="ignore"):
        grad *= p * np.float64(scale) ** (p - 1)
    if not np.isfinite(grad).all():
        raise ResourceError(
            f"gradient at p={p:g} is not finite: p * M^(p-1) with M = {scale:.6g}"
        )
    if not grad.any():
        raise ResourceError(
            f"gradient at p={p:g} underflows to zero: p * M^(p-1) with M = {scale:.6g}"
        )
    return {m: g for m, g in zip(values, grad)}


def _power_state(space, vec: np.ndarray, p: float):
    """log F, the L^p/L^2 ratio, grad F / (p M^(p-1)) and M at vec, for
    F = mean |S|^p over the grid values v of S.

    One forward and one adjoint transform.  M is the largest modulus of
    v, which is scaled by it before any power is taken, so nothing
    overflows at large p: with s = |v|^2 / M^2, F = M^p mean(s^(p/2)),
    and that one moment gives both log F and the ratio.  The search runs
    at p > 2, so s^((p-2)/2) is finite at the zeros of S.
    ``ratio_gradient`` multiplies the gradient back by p M^(p-1); the
    power step only needs its direction.  Work arrays are updated in
    place, and dropped before the adjoint, to keep at most three
    grid-sized arrays alive.
    """
    v = space.values(vec)
    s = np.abs(v)
    m = float(s.max())
    s /= m
    s *= s
    moment = float(np.mean(s ** (p / 2)))
    ratio = moment ** (1.0 / p) / float(np.mean(s)) ** 0.5
    log_f = p * np.log(m) + np.log(moment)
    s **= (p - 2) / 2
    v /= m
    weights = s * v
    del s, v
    return log_f, ratio, space.adjoint_mean(weights), m


def _ascend(space, vec: np.ndarray, state, p: float, max_iter: int):
    """Power iteration c <- grad F(c) / |grad F(c)| from the unit vector vec.

    F is convex, so by Cauchy-Schwarz no step lowers it and no step
    size is needed.  ``state`` is ``_power_state`` at vec.  Returns the
    iterate with the highest ratio (so never worse than the start), that
    ratio, the iteration count and the stop reason.
    """
    log_f, ratio, grad, _ = state
    best_vec, best_ratio = vec, ratio
    for it in range(1, max_iter + 1):
        grad_norm = np.linalg.norm(grad)
        tangent = grad - np.real(np.vdot(vec, grad)) * vec
        if np.linalg.norm(tangent) <= STATIONARY_TOL * grad_norm:
            return best_vec, best_ratio, it, "stationary"
        cand = grad / grad_norm
        cand_log_f, ratio, grad, _ = _power_state(space, cand, p)
        if not cand_log_f > log_f:
            return best_vec, best_ratio, it, "no-ascent"
        gain = np.expm1(cand_log_f - log_f)
        vec, log_f = cand, cand_log_f
        if ratio > best_ratio:
            best_vec, best_ratio = vec, ratio
        if gain < SMALL_GAIN:
            return best_vec, best_ratio, it, "small-gain"
    return best_vec, best_ratio, max_iter, "max-iter"


def _random_start(space, seed_pair) -> np.ndarray:
    rng = np.random.default_rng(seed_pair)
    n = len(space.freqs)
    vec = rng.standard_normal(n).astype(space.dtype)
    if space.dtype is complex:
        vec += 1j * rng.standard_normal(n)
    return vec / np.linalg.norm(vec)


def _maximize_over_values(
    values, dyadic: bool, p: float, config: ExtremalConfig, shape=None
):
    """The runs of the search, each (vector, ratio, iterations, stop
    reason) with the all-equal start first, and the all-equal start's
    ratio, for a p, config and sorted nonempty support that the caller
    has checked, with its ``shape`` (n, l) when it is every order-l index
    over n digits.  The values of such a support may be None, as
    ``_support`` returns them, and so is the vector of its all-equal
    run, which is never built."""
    n = math.comb(*shape) if shape else len(values)
    if n == 1:
        # a single frequency has constant modulus, so the ratio is 1 by
        # definition and no search is needed
        one = np.ones(1, dtype=float if dyadic else complex)
        return [(one, 1.0, 0, "stationary")], 1.0
    probe = _krawtchouk_ratio(*shape, p) if shape else None
    if probe is None or config.restarts > 1:
        if shape:
            # the finest digit is at least n: refused before any value is read
            _require_cell_scale(shape[0])
        space = _make_space(values, dyadic, config.oversample, p)
    if probe is None:
        equal = np.full(n, 1.0 / n**0.5, dtype=space.dtype)
        equal_state = _power_state(space, equal, p)
        probe = float(equal_state[1])
        runs = [_ascend(space, equal, equal_state, p, config.max_iter)]
    else:
        # every order-l index over its digits: the gradient at the
        # all-equal start is permutation invariant, so the start is
        # stationary, and the Krawtchouk sum gives its ratio without cells
        runs = [(None, probe, 1, "stationary")]
    for r in range(1, config.restarts):
        start = _random_start(space, (config.seed, r))
        state = _power_state(space, start, p)
        runs.append(_ascend(space, start, state, p, config.max_iter))
    return runs, probe


def _best_ratio(runs) -> float:
    return float(max(ratio for _, ratio, _, _ in runs))


def maximize_ratio(index_set, p: float, config: ExtremalConfig | None = None):
    """Best found L^p/L^2 ratio over unit coefficient vectors.

    Power iteration on the unit sphere, c <- grad F(c) / |grad F(c)|
    for F(c) = mean |S_c|^p, started from the all-equal vector and from
    seeded Gaussian draws.  Each run stops when the gradient is
    stationary, a step does not raise F, the relative gain falls under
    1e-10, or ``max_iter`` is reached; ``stop_reason`` says which.
    Each run keeps its best iterate and the first run starts at the
    all-equal vector, so the returned ratio never falls below that
    certified warm start.  ``runs`` summarizes every start.

    A full dyadic family, every order-l index over its digit positions,
    skips the search from the all-equal start: symmetry makes that start
    stationary, and the exact Krawtchouk sum gives its ratio (the double
    nearest it for even integer p), so the run stops "stationary" after
    one iteration.  With ``restarts=1`` no cells are built, and such a
    family has no cell cap; seeded restarts still run on the cells, which
    raise ``ResourceError`` past scale 24, checked from n before any
    enumeration.  A ``ChaosFamily`` of variant "dyadic" is full by
    construction: at ``restarts=1`` it is taken from (n, l), no index set
    is built, and the coefficient map runs over the sorted order-l
    indices generated from (n, l); more than 2^24 of them raise
    ``ResourceError`` before any is built.

    Trig supports are searched on the smallest 5-smooth grid at or above
    ``config.oversample * (2 * degree + 1)`` points, a fast FFT size.  At
    even integer p = 2q the quadrature is exact on N > q * (max - min)
    points, over the support's frequencies, and the search takes the
    smallest 5-smooth such N above 2 * degree when that is smaller; the
    grid is never larger.  For any other p a trig ratio carries a
    quadrature error that the result does not report (about 4e-8
    relative at p = 3 on the first-order family of
    ``geometric_sequence(2, 8)``).
    """
    p = _as_exponent(p, search=True)
    config = config or ExtremalConfig()
    values, dyadic, shape = _support(index_set, config)
    if values is None and math.comb(*shape) > 1 << 24:
        raise ResourceError(f"{math.comb(*shape)} coefficients exceed the cap of 2^24")
    runs, _ = _maximize_over_values(values, dyadic, p, config, shape)
    # max keeps the earliest of equal ratios, so ties go to the warm start
    vec, ratio, iterations, stop_reason = max(runs, key=lambda run: run[1])
    if values is None:
        values = _full_values(*shape)
    if vec is None:
        vec = np.full(len(values), 1.0 / len(values) ** 0.5)
    return ExtremalResult(
        coefficients={m: c.item() for m, c in zip(values, vec)},
        ratio=float(ratio),
        p=float(p),
        iterations=iterations,
        stop_reason=stop_reason,
        kind="walsh" if dyadic else "trig",
        runs=tuple(
            RunSummary("equal" if r == 0 else r, iters, reason, float(run_ratio))
            for r, (_, run_ratio, iters, reason) in enumerate(runs)
        ),
    )


@dataclass(frozen=True)
class GrowthReport:
    slope: float
    residual: float
    probe_slope: float
    p_values: tuple
    ratios: tuple
    probe_ratios: tuple
    skipped: tuple = ()  # (p, error class name) of each exponent that failed
    config: ExtremalConfig = field(default_factory=ExtremalConfig)

    def to_json_dict(self) -> dict:
        return {
            "p": list(self.p_values),
            "ratio": list(self.ratios),
            "probe_ratio": list(self.probe_ratios),
            "slope": self.slope,
            "residual": self.residual,
            "probe_slope": self.probe_slope,
            "skipped": [{"p": p, "error": name} for p, name in self.skipped],
            "seed": self.config.seed,
            "config": self.config.to_json_dict(),
        }

    def to_csv_rows(self) -> list:
        return [(float(p), float(r)) for p, r in zip(self.p_values, self.ratios)]


def _fit_line(xs, ys) -> tuple[float, float]:
    coeff = np.polyfit(xs, ys, 1)
    pred = np.polyval(coeff, xs)
    residual = float(np.sqrt(np.mean((np.asarray(ys) - pred) ** 2)))
    return float(coeff[0]), residual


def growth_exponent(
    family, p_list: Sequence[float], config: ExtremalConfig | None = None
) -> GrowthReport:
    """Fit log(best ratio) against log(p).

    The headline slope comes from the optimized ratios.  A secondary
    slope tracks the all-equal probe vector, the classical near-extremal
    shape, to show how much of the growth the search itself adds; its
    ratio comes from the search's first evaluation, not a separate
    transform, and on a full dyadic family from the exact Krawtchouk sum
    of ``maximize_ratio``, so at ``restarts=1`` such a family has no cell
    cap.  There a ``ChaosFamily`` of variant "dyadic" is taken from
    (n, l) and no index set is built, so n may run into the thousands.
    An exponent whose search raises a ``LacunaError`` is left out of the
    fit and listed in ``skipped``.
    """
    p_list = [_as_exponent(p, search=True) for p in p_list]
    if len(p_list) < 4:
        raise InvalidInputError("need at least 4 exponents for a slope fit")
    config = config or ExtremalConfig()
    values, dyadic, shape = _support(family, config)
    used_p = []
    ratios = []
    probe_ratios = []
    skipped = []
    for p in p_list:
        try:
            runs, probe = _maximize_over_values(values, dyadic, p, config, shape)
        except LacunaError as exc:
            skipped.append((float(p), type(exc).__name__))
            continue
        used_p.append(float(p))
        ratios.append(_best_ratio(runs))
        probe_ratios.append(probe)
    if len(used_p) < 2:
        raise InsufficientDataError(
            "fewer than 2 exponents optimized successfully; skipped "
            + ", ".join(f"p={p:g} ({name})" for p, name in skipped),
            skipped=tuple(skipped),
        )
    logs_p = np.log(used_p)
    slope, residual = _fit_line(logs_p, np.log(ratios))
    probe_slope, _ = _fit_line(logs_p, np.log(probe_ratios))
    return GrowthReport(
        slope=slope,
        residual=residual,
        probe_slope=probe_slope,
        p_values=tuple(used_p),
        ratios=tuple(ratios),
        probe_ratios=tuple(probe_ratios),
        skipped=tuple(skipped),
        config=config,
    )


@dataclass(frozen=True)
class BlowupRow:
    budget: int
    ratio_critical: float
    ratio_control: float


@dataclass(frozen=True)
class BlowupReport:
    order: int
    p: float
    rows: tuple
    critical_nondecreasing: bool
    slope_critical: float | None  # None below two budgets
    slope_control: float | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _budget_values(seq: LacunarySequence, l: int, max_budget: int) -> list:
    for length in range(l + 2, len(seq.terms) + 1):
        values = enumerate_index_set(seq.prefix(length), l).values()
        if len(values) >= max_budget:
            return sorted(values, key=abs)
    raise ResourceError(
        f"budget {max_budget} exceeds the {len(values)} enumerable frequencies"
    )


def blowup_probe(
    l: int, p: float, degree_list: Sequence[int], seed: int = 0
) -> BlowupReport:
    """Ratio trend at the critical lacunarity threshold, against a control.

    The critical side runs on the certified construction: the witnesses
    of ``counterexample_sequence(l, 3**l + ceil(B / 2) - 1)``, for the
    largest budget B, make every m from 3**l on an order-l signed sum
    n_l - n_{l-1} - ... - n_1, so budget b keeps the b smallest of the
    frequencies +-m.  The control keeps the b smallest-magnitude order-l
    signed sums of ``geometric_sequence(3, 4 * l + 16)``, at ratio 3.
    Each budget maximizes the ratio over both frequency sets.

    ``slope_critical`` and ``slope_control`` are the log-log slopes of
    ratio against budget (None below two budgets).  For reference,
    consecutive frequencies form a Dirichlet kernel, whose slope tends
    to 1/2 - 1/p.  The trend is reported, never asserted: divergence at
    the threshold is a limit statement.  A control grid above 2^24
    points, sized at p as its searches size it, raises ``ResourceError``
    before any search runs.
    """
    l = _as_order(l)
    p = _as_exponent(p, search=True)
    budgets = sorted({_as_int(b, 1, "degree budget") for b in degree_list})
    if not budgets:
        raise InvalidInputError("need at least one degree budget")
    config = ExtremalConfig(restarts=2, max_iter=80, seed=seed)
    top = budgets[-1]
    control = _budget_values(geometric_sequence(3, 4 * l + 16), l, top)
    # check the control grid's cap before any search; the critical degree
    # grows only linearly in the budget
    _make_space(control[:top], False, config.oversample, p)
    _, cover = counterexample_sequence(l, 3**l + (top + 1) // 2 - 1)
    critical = sorted((s * m for m in cover["witnesses"] for s in (1, -1)), key=abs)
    rows = []
    for budget in budgets:
        ratio_crit, ratio_ctrl = (
            _best_ratio(_maximize_over_values(sorted(side[:budget]), False, p, config)[0])
            for side in (critical, control)
        )
        rows.append(BlowupRow(budget, ratio_crit, ratio_ctrl))
    ratios_crit = [r.ratio_critical for r in rows]
    slopes = [
        _fit_line(np.log(budgets), np.log(side))[0] if len(budgets) > 1 else None
        for side in (ratios_crit, [r.ratio_control for r in rows])
    ]
    return BlowupReport(
        order=l,
        p=float(p),
        rows=tuple(rows),
        critical_nondecreasing=all(
            b >= a - 1e-9 for a, b in zip(ratios_crit, ratios_crit[1:])
        ),
        slope_critical=slopes[0],
        slope_control=slopes[1],
    )
