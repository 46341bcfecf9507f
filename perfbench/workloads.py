"""The benchmark's workloads: seeded inputs, task lists and output checks.

A workload's constructor builds every input from the seed; that is the
work timed as set-up.  ``nominal_pass_s`` is the pass time measured at
the seed commit on a 2-vCPU Intel Xeon VM; it sets how many passes a
run makes.  ``tasks(traced)`` lists one pass.  An untraced
pass makes the calls a user makes; a traced pass makes the same calls
split at module boundaries, and may add diagnostic tasks
(``in_pass=False``) that are timed in the trace but not in the pass.

Checks reuse the repository's own bounds:

- energy(E) + energy(E^c) equals the coefficient mass within 1e-10
  (acceptance-06);
- Walsh norms stay under the Bonami cap (p-1)^(l/2) with the 1e-9 float
  slack of acceptance-05, and the same slack bounds how far a searched
  ratio may sit under its all-equal warm start, which ``maximize_ratio``
  documents as never lost;
- on the trig workload each searched ratio keeps at least the gain over
  its all-equal probe that the seed commit's ascent found
  (``ExtremalTrig.gain_floors``), so a search cut short fails its check
  instead of passing as a speed-up;
- the trig growth slope lies in acceptance-09's window [0.3, 0.7];
- inverse Parseval rows pass, head partitions certify containment, the
  counterexample construction certifies lacunarity and coverage;
- CLI commands exit 0, print the README's documented values, and their
  seeded ``--output`` reports are byte-identical on rerun
  (acceptance-10).
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from lacuna import (
    ExtremalConfig,
    IntervalSet,
    TrigContext,
    TrigPolynomial,
    WalshContext,
    WalshPolynomial,
    build_summation_matrix,
    counterexample_sequence,
    enumerate_index_set,
    energy_on_set,
    geometric_sequence,
    growth_exponent,
    head_partition,
    inverse_bound_experiment,
    inverse_parseval_check,
    khintchine_ratio,
    lp_norm_trig,
    lp_norm_walsh,
    maximize_ratio,
    ratio_gradient,
    trig_family,
    walsh_family,
)

P_LIST = (4, 8, 16, 32)
ENERGY_TOL = 1e-10
FLOAT_SLACK = 1e-9
TRIG_SLOPE_WINDOW = (0.3, 0.7)
SUBPROCESS_TIMEOUT_S = 60


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Task:
    name: str
    run: Callable  # run(tracer) -> output
    check: Callable = lambda out, tracer: None
    in_pass: bool = True


def fat_set(rng, max_gap_cells, denom=4096):
    """[0, 1) minus one seeded gap of 1..max_gap_cells cells of 1/denom."""
    width = int(rng.integers(1, max_gap_cells + 1))
    start = int(rng.integers(0, denom - width))
    a, b = Fraction(start, denom), Fraction(start + width, denom)
    pieces = []
    if a > 0:
        pieces.append((Fraction(0), a))
    if b < 1:
        pieces.append((b, Fraction(1)))
    return IntervalSet(pieces)


def complex_normal(rng):
    return complex(rng.standard_normal(), rng.standard_normal())


# ---------------------------------------------------------------------------
# extremal-walsh and extremal-trig


class _Extremal:
    """growth_exponent over p in P_LIST.

    Traced, the call is replaced by its parts: the index set, one
    maximize_ratio and one all-equal khintchine_ratio probe per p, and
    the slope fit; a unit-cost transform and one ratio_gradient per p at
    a seeded point follow as diagnostics.
    """

    restarts: int
    tasks_are_commands = False
    # least ratio / all-equal-probe gain per p, full and smoke inputs;
    # an exponent not listed keeps the warm start, a gain of 1
    gain_floors = {False: {}, True: {}}

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.family = self.make_family(smoke)
        self.floors = self.gain_floors[smoke]
        self.config = ExtremalConfig(
            restarts=self.restarts, max_iter=60, step=0.5, seed=seed
        )
        self.summary = {}
        self.state = {}

    def begin_pass(self):
        # every pass takes its gradients at the same seeded points
        self.gradient_rng = np.random.default_rng(self.seed)
        self.state = {"ratios": [], "probes": []}

    def tasks(self, traced):
        if not traced:
            return [Task("extremal.growth_exponent", self._growth, self._check_growth)]
        tasks = [Task("extremal.family.index_set", self._index_set)]
        for p in P_LIST:
            tasks.append(Task(f"extremal.p{p}", functools.partial(self._one_p, p)))
        tasks.append(Task("extremal.fit", self._fit, self._check_fit))
        tasks.append(Task("diagnostic.unit_cost", self._unit_cost, in_pass=False))
        for p in P_LIST:
            tasks.append(
                Task(
                    "diagnostic.gradient",
                    functools.partial(self._gradient, p),
                    in_pass=False,
                )
            )
        return tasks

    # untraced ---------------------------------------------------------

    def _growth(self, tracer):
        return growth_exponent(self.family, P_LIST, self.config)

    def _check_growth(self, report, tracer):
        require(
            tuple(report.p_values) == tuple(float(p) for p in P_LIST),
            f"growth_exponent skipped exponents: fitted {report.p_values}",
        )
        for p, ratio, probe in zip(P_LIST, report.ratios, report.probe_ratios):
            self._check_ratio(p, ratio, probe)
        self._check_slope(report.slope)
        self._record(report.ratios, report.probe_ratios, report.slope)

    # traced -----------------------------------------------------------

    def _index_set(self, tracer):
        with tracer.span("lacunary.enumerate_index_set"):
            iset = self.family.index_set()
        tracer.count("lacunary.index_values", len(iset))
        self.state["iset"] = iset
        values = iset.values()
        self.state["equal"] = self.equal_poly(values)
        return iset

    def _one_p(self, p, tracer):
        with tracer.span("extremal.maximize_ratio"):
            result = maximize_ratio(self.state["iset"], p, self.config)
        with tracer.span("trig.khintchine_ratio"):
            probe = khintchine_ratio(self.state["equal"], p)
        self._check_ratio(p, result.ratio, probe)
        self.state["ratios"].append(result.ratio)
        self.state["probes"].append(probe)
        tracer.count("extremal.results")
        tracer.count("extremal.iterations", result.iterations)
        tracer.count("extremal.converged", int(result.converged))
        tracer.count("extremal.improved", int(result.ratio > probe + FLOAT_SLACK))
        tracer.count("extremal.log_ratio_gain", math.log(result.ratio / probe))
        return result

    def _fit(self, tracer):
        logs_p = np.log(np.asarray(P_LIST, dtype=float))
        slope = float(np.polyfit(logs_p, np.log(self.state["ratios"]), 1)[0])
        return slope

    def _check_fit(self, slope, tracer):
        require(len(self.state["ratios"]) == len(P_LIST), "an exponent failed")
        self._check_slope(slope)
        self._record(self.state["ratios"], self.state["probes"], slope)

    def _gradient(self, p, tracer):
        values = self.state["iset"].values()
        coeffs = {m: self.random_coeff(self.gradient_rng) for m in values}
        with tracer.span("extremal.ratio_gradient"):
            grad = ratio_gradient(coeffs, self.state["iset"], p)
        require(len(grad) == len(values), "gradient misses frequencies")
        require(
            all(math.isfinite(abs(g)) for g in grad.values()), "gradient not finite"
        )
        return grad

    # shared -----------------------------------------------------------

    def _check_ratio(self, p, ratio, probe):
        floor = self.floors.get(p, 1.0)
        require(
            ratio >= probe * floor - FLOAT_SLACK,
            f"p={p}: ratio {ratio!r} under {floor} times its all-equal start {probe!r}",
        )

    def _check_slope(self, slope):
        pass

    def _record(self, ratios, probes, slope):
        gain = math.exp(
            sum(math.log(r / q) for r, q in zip(ratios, probes)) / len(ratios)
        )
        self.summary = {"slope": slope, "ratio_gain": gain}


class ExtremalWalsh(_Extremal):
    restarts = 1
    nominal_pass_s = 7.0
    order = 2

    def make_family(self, smoke):
        return walsh_family(self.order, 8 if smoke else 20)

    def equal_poly(self, values):
        return WalshPolynomial({m: 1.0 / math.sqrt(len(values)) for m in values})

    def random_coeff(self, rng):
        return float(rng.standard_normal())

    def _check_ratio(self, p, ratio, probe):
        super()._check_ratio(p, ratio, probe)
        cap = (p - 1) ** (self.order / 2)
        require(
            ratio <= cap + FLOAT_SLACK, f"p={p}: ratio {ratio!r} over Bonami cap {cap}"
        )

    def _unit_cost(self, tracer):
        poly = self.state["equal"]
        scale = poly.max_scale
        with tracer.span("walsh.cell_values"):
            cells = poly.cell_values()
        tracer.count("walsh.cells", 1 << scale)
        tracer.count("walsh.bytes_computed", (1 << scale) * 8 * 2 * scale)
        with tracer.span("trig.lp_norm_walsh"):
            norm = lp_norm_walsh(poly, P_LIST[0])
        require(len(cells) == 1 << scale and math.isfinite(norm), "bad cell values")
        return norm


class ExtremalTrig(_Extremal):
    restarts = 2
    nominal_pass_s = 10.0
    # the equal-start ascent's gains at the seed commit, truncated to 1e-9;
    # they do not depend on the seed (the seeded restart adds under 1e-10)
    gain_floors = {
        False: {8: 1.002833873, 16: 1.002863671},
        True: {8: 1.002826613, 16: 1.001776189},
    }

    def make_family(self, smoke):
        return trig_family(geometric_sequence(2, 8 if smoke else 11), 1)

    def equal_poly(self, values):
        return TrigPolynomial({m: 1.0 / math.sqrt(len(values)) for m in values})

    def random_coeff(self, rng):
        return complex_normal(rng)

    def _check_slope(self, slope):
        lo, hi = TRIG_SLOPE_WINDOW
        require(lo <= slope <= hi, f"trig slope {slope!r} outside [{lo}, {hi}]")

    def _unit_cost(self, tracer):
        with tracer.span("trig.lp_norm_trig"):
            norm = lp_norm_trig(self.state["equal"], P_LIST[0])
        require(math.isfinite(norm), "lp_norm_trig not finite")
        return norm


# ---------------------------------------------------------------------------
# exact-energy


class ExactEnergy:
    """The exact integer and Fraction path, five seeded steps."""

    nominal_pass_s = 5.0
    tasks_are_commands = False

    def __init__(self, seed, smoke, workdir):
        rng = np.random.default_rng(seed)
        self.enum_seq = geometric_sequence(4, 10 if smoke else 40)
        self.cx_args = ((4, 81), (3, 30 if smoke else 300))

        seq = geometric_sequence(4, 6 if smoke else 12)
        self.inv_context = TrigContext(seq, 2, d=1)
        pairs = enumerate_index_set(seq, 2, "positive").values()
        self.inv_coeffs = {m: complex_normal(rng) for m in pairs}
        order = [int(m) for m in rng.permutation(pairs)]
        self.inv_matrix = build_summation_matrix("prefix-of-rearrangement", order=order)
        self.inv_set = fat_set(rng, 511)

        pairs = enumerate_index_set(
            geometric_sequence(4, 8 if smoke else 24), 2, "positive"
        ).values()
        self.trig_poly = TrigPolynomial({m: complex_normal(rng) for m in pairs})
        self.trig_mass = sum(abs(c) ** 2 for c in self.trig_poly.coefficients.values())
        self.trig_set = fat_set(rng, 511)
        self.trig_set_c = self.trig_set.complement()

        values = walsh_family(2, 8 if smoke else 16).index_set().values()
        self.walsh_poly = WalshPolynomial({m: float(rng.standard_normal()) for m in values})
        self.walsh_set = fat_set(rng, 15)
        self.walsh_set_c = self.walsh_set.complement()
        self.summary = {}
        self.state = {}

    def begin_pass(self):
        self.state = {}

    def tasks(self, traced):
        cx = [
            Task(
                "lacunary.counterexample_sequence",
                functools.partial(self._counterexample, l, m_max),
                self._check_counterexample,
            )
            for l, m_max in self.cx_args
        ]
        return [
            Task("lacunary.enumerate_index_set", self._enumerate, self._check_enumerate),
            Task("lacunary.head_partition", self._heads, self._check_heads),
            *cx,
            Task("inverse.inverse_bound_experiment", self._experiment, self._check_experiment),
            Task("measure.energy_on_set", self._trig_energy_in, self._check_trig_in),
            Task("measure.energy_on_set", self._trig_energy_out, self._check_trig_out),
            Task("inverse.inverse_parseval_check", self._walsh_check, self._check_walsh),
            Task("measure.energy_on_set", self._walsh_energy_out, self._check_walsh_out),
        ]

    def _enumerate(self, tracer):
        self.state["iset"] = enumerate_index_set(self.enum_seq, 3, "signed")
        return self.state["iset"]

    def _check_enumerate(self, iset, tracer):
        # every signed triple sum is distinct above the critical ratio
        want = 8 * math.comb(len(self.enum_seq), 3)
        require(len(iset) == want, f"{len(iset)} index values, expected {want}")
        tracer.count("lacunary.index_values", len(iset))

    def _heads(self, tracer):
        return head_partition(self.state["iset"])

    def _check_heads(self, report, tracer):
        require(report.containment_ok, "head partition containment failed")

    def _counterexample(self, l, m_max, tracer):
        return counterexample_sequence(l, m_max)

    def _check_counterexample(self, out, tracer):
        seq, report = out
        require(report["lacunary_ok"], "counterexample not lacunary")
        require(report["coverage_ok"], f"counterexample misses {report['missing']}")
        if tracer.enabled:
            tracer.count(
                "lacunary.counterexample_digits", sum(len(str(t)) for t in seq.terms)
            )

    def _experiment(self, tracer):
        return inverse_bound_experiment(
            self.inv_coeffs, self.inv_matrix, self.inv_set, self.inv_context
        )

    def _check_experiment(self, report, tracer):
        require(report.hypothesis_met, "inverse experiment hypothesis not met")
        passed = sum(r.passed for r in report.rows)
        require(len(report.rows) == len(self.inv_coeffs), "inverse rows missing")
        require(passed == len(report.rows), f"{len(report.rows) - passed} rows failed")
        tracer.count("inverse.rows", len(report.rows))
        tracer.count("inverse.rows_passed", passed)
        tracer.count("measure.coefficient_pairs", sum(n * n for n in range(1, len(report.rows) + 1)))

    def _trig_energy_in(self, tracer):
        return energy_on_set(self.trig_poly, self.trig_set)

    def _check_trig_in(self, energy, tracer):
        self.state["trig_in"] = energy
        tracer.count("measure.coefficient_pairs", len(self.trig_poly) ** 2)

    def _trig_energy_out(self, tracer):
        return energy_on_set(self.trig_poly, self.trig_set_c)

    def _check_trig_out(self, energy, tracer):
        tracer.count("measure.coefficient_pairs", len(self.trig_poly) ** 2)
        total = self.state["trig_in"] + energy
        require(
            abs(total - self.trig_mass) < ENERGY_TOL,
            f"trig energy(E)+energy(E^c) {total!r} != mass {self.trig_mass!r}",
        )

    def _walsh_check(self, tracer):
        return inverse_parseval_check(self.walsh_poly, self.walsh_set, WalshContext(2))

    def _check_walsh(self, report, tracer):
        require(report.measure_ok and report.passed, "walsh inverse Parseval failed")
        self.state["walsh"] = report

    def _walsh_energy_out(self, tracer):
        return energy_on_set(self.walsh_poly, self.walsh_set_c)

    def _check_walsh_out(self, energy, tracer):
        report = self.state["walsh"]
        total = report.energy + energy
        require(
            abs(total - report.coefficient_mass) < ENERGY_TOL,
            f"walsh energy(E)+energy(E^c) {total!r} != mass {report.coefficient_mass!r}",
        )


# ---------------------------------------------------------------------------
# cli-readme

README_LINES = (
    ("lambda", "--l", "3"),
    ("validate", "--terms", "2,4,8", "--lam", "3"),
    ("enumerate", "--terms", "4,16,64", "--lam", "3", "--l", "2"),
    ("reps", "--terms", "4,16,64", "--lam", "3", "--m", "12", "--l", "2"),
    ("heads", "--terms", "4,16,64", "--lam", "3", "--l", "2"),
    ("counterexample", "--l", "2", "--m-max", "20"),
    ("walsh-shift", "--n", "6", "--m", "6", "--alpha", "0/1"),
    ("find-alpha", "--set", "0/1:4/5", "--exponents", "2,1"),
    ("recover", "--poly", "walsh.json", "--m", "6", "--alpha", "3/8"),
    ("norm", "--poly", "walsh.json", "--kind", "walsh", "--p", "4"),
    ("ratio", "--poly", "walsh.json", "--kind", "walsh", "--p", "4"),
    ("riesz", "--freqs", "4,16,64"),
    ("project", "--m", "12", "--freqs", "4,16"),
    ("energy", "--poly", "trig.json", "--kind", "trig", "--set", "0/1:1/2"),
    (
        "inverse-check", "--poly", "trig.json", "--kind", "trig",
        "--set", "0/1:63/64", "--terms", "4,16,64,256", "--lam", "3",
        "--l", "2", "--d", "1",
    ),
    (
        "matrix-experiment", "--coeffs", "trig.json", "--kind", "trig",
        "--set", "0/1:1/1", "--terms", "4,16,64,256", "--lam", "3",
        "--l", "2", "--d", "1", "--matrix-kind", "prefix-of-rearrangement",
        "--order", "20,68",
    ),
    ("extremal", "--family", "walsh", "--l", "2", "--exponent-budget", "6", "--p", "4"),
    (
        "growth", "--family", "walsh", "--l", "2", "--exponent-budget", "8",
        "--p-list", "4,8,16,32", "--format", "csv",
    ),
    ("blowup", "--l", "2", "--p", "4", "--degree-list", "2,4,8"),
)

# order-2 Walsh indices over exponents 1..4, and the positive pair sums
# of 4, 16, 64, 256: the supports the README's poly.json lines accept
WALSH_SUPPORT = (6, 10, 12, 18, 20, 24)
TRIG_SUPPORT = (20, 68, 80, 260, 272, 320)


@contextlib.contextmanager
def _chdir(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


class CliReadme:
    """The README's CLI lines, each a fresh ``python -m lacuna.cli``.

    Traced, the same subprocesses run in spans, and each line also runs
    in-process through ``main(argv)``; the import cost is measured as
    ``import lacuna.cli`` minus a bare interpreter start.
    """

    nominal_pass_s = 5.0
    tasks_are_commands = True

    def __init__(self, seed, smoke, workdir):
        rng = np.random.default_rng(seed)
        self.dir = os.path.join(workdir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        # multiples of 1/16 keep recover's float-exact read-off checkable
        self.walsh_coeffs = {
            m: float(rng.choice([k for k in range(-64, 65) if k])) / 16
            for m in WALSH_SUPPORT
        }
        walsh = {
            "kind": "walsh",
            "coefficients": [{"value_m": m, "coeff": c} for m, c in self.walsh_coeffs.items()],
        }
        trig = {
            "kind": "trig",
            "coefficients": [
                {"freq": m, "re": float(rng.standard_normal()), "im": float(rng.standard_normal())}
                for m in TRIG_SUPPORT
            ],
        }
        for name, data in (("walsh.json", walsh), ("trig.json", trig)):
            with open(os.path.join(self.dir, name), "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        self.env = dict(os.environ)
        self.env.pop("LACUNA_THREADS", None)
        self.reference = {}
        self.summary = {}

    def begin_pass(self):
        pass

    def tasks(self, traced):
        tasks = [
            Task(
                f"cli.{line[0]}",
                functools.partial(self._subprocess, line),
                functools.partial(self._check, line),
            )
            for line in README_LINES
        ]
        if traced:
            tasks += [
                Task(
                    "diagnostic.cli_in_process",
                    functools.partial(self._in_process, line),
                    functools.partial(self._check, line),
                    in_pass=False,
                )
                for line in README_LINES
            ]
            tasks.append(Task("diagnostic.import", self._import_probe, in_pass=False))
        return tasks

    def _output(self, line, tag):
        return f"{line[0]}-{tag}.out"

    def _read(self, name):
        with open(os.path.join(self.dir, name), "rb") as fh:
            return fh.read()

    def _subprocess(self, line, tracer):
        out = self._output(line, "sub")
        proc = subprocess.run(
            [sys.executable, "-m", "lacuna.cli", *line, "--output", out],
            cwd=self.dir,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=SUBPROCESS_TIMEOUT_S,
        )
        require(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-500:]!r}")
        data = self._read(out)
        tracer.count("cli.report_bytes", len(data))
        return data

    def _in_process(self, line, tracer):
        from lacuna.cli import main

        out = self._output(line, "main")
        sink = io.StringIO()
        with _chdir(self.dir), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(
            sink
        ), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with tracer.span("cli.main"):
                code = main([*line, "--output", out])
        require(code == 0, f"main exit {code}: {sink.getvalue()[-500:]!r}")
        return self._read(out)

    def _import_probe(self, tracer):
        for name, code in (("cli.import", "import lacuna.cli"), ("python.bare", "pass")):
            with tracer.span(name):
                subprocess.run(
                    [sys.executable, "-c", code],
                    env=self.env,
                    check=True,
                    timeout=SUBPROCESS_TIMEOUT_S,
                )

    def _check(self, line, data, tracer):
        command = line[0]
        first = self.reference.setdefault(command, data)
        require(data == first, f"{command}: report differs from the first run")
        if command == "matrix-experiment":
            rows = [json.loads(x) for x in data.decode().splitlines()[1:]]
            require(
                all(r["pass"] for r in rows if "pass" in r), "matrix row failed"
            )
            return
        if command == "growth":
            lines = data.decode().splitlines()
            require(lines[0] == "p,ratio" and len(lines) == 1 + len(P_LIST), "bad csv")
            for row in lines[1:]:
                p, ratio = (float(x) for x in row.split(","))
                require(ratio <= (p - 1) + FLOAT_SLACK, f"growth ratio over cap at p={p}")
            return
        report = json.loads(data)
        expected = {
            "lambda": ("value", 1.618033988749895),
            "validate": ("ok", False),
            "walsh-shift": ("value", 4),
            "find-alpha": ("value", "0"),
            "project": ("value", "1/4"),
            "recover": ("value", self.walsh_coeffs[6]),
            "heads": ("containment_ok", True),
            "counterexample": ("coverage_ok", True),
            "inverse-check": ("pass", True),
        }
        if command in expected:
            key, want = expected[command]
            require(report[key] == want, f"{command}: {key}={report[key]!r}, want {want!r}")
        if command == "counterexample":
            require(report["lacunary_ok"], "counterexample not lacunary")


WORKLOADS = {
    "extremal-walsh": ExtremalWalsh,
    "extremal-trig": ExtremalTrig,
    "exact-energy": ExactEnergy,
    "cli-readme": CliReadme,
}
