"""Numerical search for extremal Khintchine ratios.

Maximizes the L^p over L^2 norm ratio of chaos polynomials with a
power iteration on the unit coefficient sphere, fits the growth
exponent of the best ratio against p, and probes the blow-up of the
ratio when the underlying sequence sits at the critical lacunarity
threshold.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidInputError,
    InvalidOrderError,
    InvalidSupportError,
    LacunaError,
    ResourceError,
    UndefinedGradientError,
)
from .lacunary import (
    ChaosIndexSet,
    LacunarySequence,
    critical_lambda_bracket,
    dyadic_sequence,
    enumerate_index_set,
)
from .trig import _GridSpace, _grid_size, _next_smooth
from .walsh import _CellSpace

EPS_REG = 1e-14
# the tangent part of a gradient this much smaller than the gradient is
# roundoff: the all-equal start on a full dyadic family sits near 2e-16
STATIONARY_TOL = 1e-12
SMALL_GAIN = 1e-10


@dataclass(frozen=True)
class ExtremalConfig:
    """Search settings.  ``oversample`` sizes the trig search grid: the
    smallest 5-smooth size at or above oversample * (2 * degree + 1)."""

    restarts: int = 3
    max_iter: int = 150
    step: float = 0.5
    seed: int = 0
    oversample: int = 8

    def validate(self) -> None:
        if self.restarts < 1 or self.max_iter < 1:
            raise InvalidInputError("restarts and max_iter must be positive")
        if not self.step > 0:
            raise InvalidInputError("step must be positive")
        if self.oversample < 4:
            raise InvalidInputError("oversample below 4 risks aliasing")

    def to_json_dict(self) -> dict:
        return {
            "restarts": self.restarts,
            "max_iter": self.max_iter,
            "step": self.step,
            "seed": self.seed,
            "oversample": self.oversample,
        }


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
        if self.kind == "walsh":
            coeffs = [
                {"value_m": m, "coeff": float(c)}
                for m, c in sorted(self.coefficients.items())
            ]
        else:
            coeffs = [
                {"freq": m, "re": float(np.real(c)), "im": float(np.imag(c))}
                for m, c in sorted(self.coefficients.items())
            ]
        return {
            "p": self.p,
            "ratio": self.ratio,
            "iterations": self.iterations,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "kind": self.kind,
            "coefficients": coeffs,
            "runs": [run.to_json_dict() for run in self.runs],
        }


@dataclass(frozen=True)
class ChaosFamily:
    """Support descriptor for the extremal search.

    kind "walsh" spans the order-l dyadic chaos over exponents
    1..exponent_budget; kind "trig" spans the positive l-wise sums of
    the supplied sequence.
    """

    kind: str
    order: int
    exponent_budget: int | None = None
    sequence: LacunarySequence | None = None

    def index_set(self) -> ChaosIndexSet:
        if self.kind == "walsh":
            if self.exponent_budget is None or self.exponent_budget < self.order:
                raise InvalidInputError(
                    "exponent budget must cover at least the chaos order"
                )
            seq = dyadic_sequence(self.exponent_budget)
            return enumerate_index_set(seq, self.order, "dyadic")
        if self.kind == "trig":
            if self.sequence is None:
                raise InvalidInputError("trig family needs a sequence")
            return enumerate_index_set(self.sequence, self.order, "positive")
        raise InvalidInputError(f"unknown family kind {self.kind!r}")


def walsh_family(l: int, exponent_budget: int) -> ChaosFamily:
    return ChaosFamily(kind="walsh", order=l, exponent_budget=exponent_budget)


def trig_family(seq: LacunarySequence, l: int) -> ChaosFamily:
    return ChaosFamily(kind="trig", order=l, sequence=seq)


def _make_space(values, dyadic: bool, oversample: int):
    """The cells of a dyadic support, else the smallest 5-smooth grid at or
    above oversample * (2 * degree + 1) points."""
    if dyadic:
        return _CellSpace(values)
    degree = max(abs(m) for m in values)
    return _GridSpace(values, _next_smooth(_grid_size(degree, oversample)))


def _objective(space, vec: np.ndarray, p: float) -> float:
    v = space.values(vec)
    a = np.abs(v) ** 2 + EPS_REG
    return float(np.mean(a ** (p / 2)))


def ratio_gradient(
    coeffs: dict, index_set: ChaosIndexSet, p: float, grid_oversample: int = 8
) -> dict:
    """Gradient of F(c) = mean (|S_c|^2 + eps)^(p/2) over the grid.

    The returned complex entry at m packs dF/dRe(c_m) + i dF/dIm(c_m);
    for dyadic supports the coefficients are real and so is the
    gradient.  Entries cover every index-set frequency, with absent
    coefficients treated as zero.
    """
    if p <= 2:
        raise InvalidInputError("p must exceed 2")
    values = index_set.values()
    if not values:
        raise InvalidInputError("empty index set")
    extra = set(coeffs) - set(values)
    if extra:
        raise InvalidSupportError(f"coefficients outside the index set: {sorted(extra)}")
    if all(c == 0 for c in coeffs.values()) or not coeffs:
        raise UndefinedGradientError("gradient is undefined at the zero vector")
    space = _make_space(values, index_set.is_dyadic, grid_oversample)
    if space.complex_coeffs:
        vec = np.array([complex(coeffs.get(m, 0.0)) for m in values])
    else:
        vec = np.array([float(coeffs.get(m, 0.0)) for m in values])
    _, _, grad, scale = _power_state(space, vec, p)
    grad *= p * scale ** (p - 1)
    return {m: g for m, g in zip(values, grad)}


def _power_state(space, vec: np.ndarray, p: float):
    """log F, the L^p/L^2 ratio, grad F / (p M^(p-1)) and M at vec.

    One forward and one adjoint transform.  M is the largest modulus of
    the grid values, which are scaled by it before any power is taken,
    so nothing overflows at large p: F = M^p mean(((|v|^2 + eps) /
    M^2)^(p/2)).  ``ratio_gradient`` multiplies the gradient back by
    p M^(p-1); the power step only needs its direction.  Work arrays are
    updated in place, and dropped before the adjoint, to keep at most
    three grid-sized arrays alive.
    """
    v = space.values(vec)
    s = np.abs(v)
    m = float(s.max())
    s /= m
    s *= s
    ratio = float(np.mean(s ** (p / 2))) ** (1.0 / p) / float(np.mean(s)) ** 0.5
    s += EPS_REG / m**2
    log_f = p * np.log(m) + np.log(float(np.mean(s ** (p / 2))))
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


def _equal_start(space) -> np.ndarray:
    n = len(space.freqs)
    if space.complex_coeffs:
        return np.full(n, 1.0 / n**0.5, dtype=complex)
    return np.full(n, 1.0 / n**0.5, dtype=float)


def _random_start(space, seed_pair) -> np.ndarray:
    rng = np.random.default_rng(seed_pair)
    n = len(space.freqs)
    if space.complex_coeffs:
        vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        vec = rng.standard_normal(n)
    return vec / np.linalg.norm(vec)


def _maximize_over_values(values, dyadic: bool, p: float, config: ExtremalConfig):
    """Best ratio over the restarts, and the all-equal start's ratio."""
    if p <= 2:
        raise InvalidInputError("p must exceed 2")
    config.validate()
    values = sorted(values)
    if not values:
        raise InvalidInputError("empty index set")
    kind = "walsh" if dyadic else "trig"
    if len(values) == 1:
        # a single frequency has constant modulus, so the ratio is 1 by
        # definition and no search is needed
        coeff = 1.0 if dyadic else complex(1.0)
        result = ExtremalResult(
            coefficients={values[0]: coeff},
            ratio=1.0,
            p=float(p),
            iterations=0,
            stop_reason="stationary",
            kind=kind,
            runs=(RunSummary("equal", 0, "stationary", 1.0),),
        )
        return result, 1.0
    space = _make_space(values, dyadic, config.oversample)
    equal = _equal_start(space)
    equal_state = _power_state(space, equal, p)
    runs = [_ascend(space, equal, equal_state, p, config.max_iter)]
    for r in range(1, config.restarts):
        start = _random_start(space, (config.seed, r))
        state = _power_state(space, start, p)
        runs.append(_ascend(space, start, state, p, config.max_iter))
    summaries = tuple(
        RunSummary("equal" if r == 0 else r, iters, reason, float(ratio))
        for r, (_, ratio, iters, reason) in enumerate(runs)
    )
    # max keeps the earliest of equal ratios, so ties go to the warm start
    best_vec, best_ratio, best_iters, best_reason = max(runs, key=lambda run: run[1])
    if space.complex_coeffs:
        coefficients = {m: complex(c) for m, c in zip(values, best_vec)}
    else:
        coefficients = {m: float(c) for m, c in zip(values, best_vec)}
    result = ExtremalResult(
        coefficients=coefficients,
        ratio=float(best_ratio),
        p=float(p),
        iterations=best_iters,
        stop_reason=best_reason,
        kind=kind,
        runs=summaries,
    )
    return result, float(equal_state[1])


def maximize_ratio(index_set, p: float, config: ExtremalConfig | None = None):
    """Best found L^p/L^2 ratio over unit coefficient vectors.

    Power iteration on the unit sphere, c <- grad F(c) / |grad F(c)|
    for F(c) = mean (|S_c|^2 + eps)^(p/2), started from the all-equal
    vector and from seeded Gaussian draws.  Each run stops when the
    gradient is stationary, a step does not raise F, the relative gain
    falls under 1e-10, or ``max_iter`` is reached; ``stop_reason`` says
    which.  Each run keeps its best iterate and the first run starts at
    the all-equal vector, so the returned ratio never falls below that
    certified warm start.  ``runs`` summarizes every start.

    Trig supports are searched on the smallest 5-smooth grid at or above
    ``config.oversample * (2 * degree + 1)`` points, a fast FFT size; the
    quadrature is exact for even p with p * degree below that size.
    """
    if isinstance(index_set, ChaosFamily):
        index_set = index_set.index_set()
    if not isinstance(index_set, ChaosIndexSet):
        raise InvalidInputError("expected a ChaosIndexSet or ChaosFamily")
    config = config or ExtremalConfig()
    result, _ = _maximize_over_values(
        index_set.values(), index_set.is_dyadic, p, config
    )
    return result


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
    transform.  An exponent whose search raises a ``LacunaError`` is
    left out of the fit and listed in ``skipped``.
    """
    p_list = list(p_list)
    if len(p_list) < 4:
        raise InvalidInputError("need at least 4 exponents for a slope fit")
    if any(p <= 2 for p in p_list):
        raise InvalidInputError("all exponents must exceed 2")
    config = config or ExtremalConfig()
    config.validate()
    if isinstance(family, ChaosFamily):
        index_set = family.index_set()
    elif isinstance(family, ChaosIndexSet):
        index_set = family
    else:
        raise InvalidInputError("expected a ChaosFamily or ChaosIndexSet")
    values = index_set.values()
    if not values:
        raise InvalidInputError("empty index set")
    used_p = []
    ratios = []
    probe_ratios = []
    skipped = []
    for p in p_list:
        try:
            result, probe = _maximize_over_values(
                values, index_set.is_dyadic, p, config
            )
        except LacunaError as exc:
            skipped.append((float(p), type(exc).__name__))
            continue
        used_p.append(float(p))
        ratios.append(result.ratio)
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


def near_critical_sequence(l: int, length: int, bump: float = 0.0) -> LacunarySequence:
    """Scaled stand-in for the critical-ratio construction: geometric-ish
    growth one integer step above ratio (critical + bump), started at 3^l
    so that small signed sums stay distinct."""
    if l < 2:
        raise InvalidOrderError("order must be >= 2")
    if length < 1:
        raise InvalidInputError("length must be positive")
    _, hi = critical_lambda_bracket(l, bits=64)
    lam_hat = float(hi) + bump
    terms = [3**l]
    while len(terms) < length:
        terms.append(int(lam_hat * terms[-1]) + 1)
    return LacunarySequence(tuple(terms), lam=Fraction(lam_hat))


@dataclass(frozen=True)
class BlowupRow:
    budget: int
    ratio_critical: float
    ratio_control: float

    def to_json_dict(self) -> dict:
        return {
            "budget": self.budget,
            "ratio_critical": self.ratio_critical,
            "ratio_control": self.ratio_control,
        }


@dataclass(frozen=True)
class BlowupReport:
    order: int
    p: float
    rows: tuple
    critical_nondecreasing: bool
    control_spread: float
    degraded: bool

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "p": self.p,
            "rows": [r.to_json_dict() for r in self.rows],
            "critical_nondecreasing": self.critical_nondecreasing,
            "control_spread": self.control_spread,
            "degraded": self.degraded,
        }


def _budget_values(seq: LacunarySequence, l: int, max_budget: int) -> list:
    length = l + 2
    while True:
        values = enumerate_index_set(seq.prefix(min(length, len(seq.terms))), l).values()
        if len(values) >= max_budget or length >= len(seq.terms):
            break
        length += 1
    if len(values) < max_budget:
        raise ResourceError(
            f"budget {max_budget} exceeds the {len(values)} enumerable frequencies"
        )
    return sorted(values, key=abs)


def blowup_probe(
    l: int, p: float, degree_list: Sequence[int], seed: int = 0
) -> BlowupReport:
    """Ratio trend at the critical lacunarity threshold.

    For each budget the search keeps that many signed l-wise sums
    (smallest magnitudes first) and maximizes the ratio over them; the
    same budgets run on a comfortably lacunary control at ratio
    critical + 0.2.  The trend is reported, never asserted: divergence
    at the threshold is a limit statement.  The exact critical
    construction (``counterexample_sequence(l, 3**l)``) has terms of 60
    bits and more already at l = 2, far beyond any grid, so the
    critical side always runs on ``near_critical_sequence``, with a
    warning and ``degraded`` set.
    """
    if l < 2:
        raise InvalidOrderError("order must be >= 2")
    if p <= 2:
        raise InvalidInputError("p must exceed 2")
    budgets = sorted(set(int(b) for b in degree_list))
    if not budgets or budgets[0] < 1:
        raise InvalidInputError("degree budgets must be positive")
    config = ExtremalConfig(restarts=2, max_iter=80, seed=seed)
    warnings.warn(
        "exact critical construction needs frequencies beyond the grid "
        "budget; degrading to a scaled congruent sequence",
        RuntimeWarning,
    )
    crit_seq = near_critical_sequence(l, 4 * l + 16, bump=0.0)
    control_seq = near_critical_sequence(l, 4 * l + 16, bump=0.2)
    crit_values = _budget_values(crit_seq, l, budgets[-1])
    control_values = _budget_values(control_seq, l, budgets[-1])
    rows = []
    for budget in budgets:
        r_crit, _ = _maximize_over_values(crit_values[:budget], False, p, config)
        r_ctrl, _ = _maximize_over_values(control_values[:budget], False, p, config)
        rows.append(
            BlowupRow(
                budget=budget,
                ratio_critical=r_crit.ratio,
                ratio_control=r_ctrl.ratio,
            )
        )
    ratios_crit = [r.ratio_critical for r in rows]
    nondecreasing = all(
        b >= a - 1e-9 for a, b in zip(ratios_crit, ratios_crit[1:])
    )
    ctrl = [r.ratio_control for r in rows]
    return BlowupReport(
        order=l,
        p=float(p),
        rows=tuple(rows),
        critical_nondecreasing=bool(nondecreasing),
        control_spread=float(max(ctrl) - min(ctrl)),
        degraded=True,
    )
