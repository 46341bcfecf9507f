"""Benchmark for lacuna: one workload per run, against the checkout's src/.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is one process acting as one client in a closed loop: each task
starts when the previous one has ended.  A run builds the workload's
inputs from the seed, then runs as many passes over its task list as
fit in S seconds at the workload's nominal pass time (at least two),
checks every output, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 traced and untraced passes alternate; the metrics are
the per-layer ones, derived from spans that are written as JSONL under
.perfbench_out/.  --smoke swaps in tiny inputs so that every check and
the metric schema run in seconds.  The line before the result carries
provenance, the tail percentiles with their sample counts, and the
failure messages.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import NullTracer, Tracer, span_cost_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES_PER_GAP = 4
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def isolate():
    """Point imports and children at the checkout's src/, one thread each."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def tail(samples):
    """Highest whole percentile with at least TAIL_BEYOND samples above it.

    Nearest-rank percentiles; with fewer than TAIL_BEYOND + 1 samples no
    percentile qualifies and the maximum (percentile 100) is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, n
    q = (100 * (n - TAIL_BEYOND)) // n
    return ordered[max(math.ceil(q * n / 100), 1) - 1], q, n


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def provenance(args):
    import lacuna
    import numpy

    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.split()
    except OSError:
        lines = []
    # a checkout that is not itself a git work tree has no commit to record
    commit = lines[1] if len(lines) == 2 and Path(lines[0]).resolve() == ROOT else None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "lacuna_file": lacuna.__file__,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_probe(args, workdir):
    """Child side of a set-up measurement: build the inputs, say ready."""
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def measure_setup(args, count):
    """Wall times from spawning a fresh interpreter to built inputs."""
    times = []
    for _ in range(count):
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        env = dict(os.environ, PERFBENCH_WORKDIR=workdir)
        start = time.perf_counter()
        with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        shutil.rmtree(workdir, ignore_errors=True)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited {code} before its inputs were built")
        times.append(elapsed)
    return times


class Pass:
    def __init__(self):
        self.seconds = 0.0
        self.task_seconds = []
        self.attempted = 0
        self.failed = 0
        self.failures = []


def run_pass(workload, tracer, traced):
    result = Pass()
    workload.begin_pass()
    for task in workload.tasks(traced):
        result.attempted += 1
        start = time.perf_counter()
        try:
            with tracer.span(task.name):
                out = task.run(tracer)
            elapsed = time.perf_counter() - start
            task.check(out, tracer)
        # a task that raises or fails its check counts as failed; the run goes on
        except Exception as exc:
            elapsed = time.perf_counter() - start
            result.failed += 1
            result.failures.append(f"{task.name}: {type(exc).__name__}: {exc}"[:300])
        if task.in_pass:
            result.seconds += elapsed
            result.task_seconds.append(elapsed)
    return result


def run_passes(workload, seconds, schedule, tracers, min_rounds, between=lambda: None):
    """Run the pass kinds of `schedule` in turn, as many rounds as fit in
    `seconds` at the workload's nominal pass time, and at least `min_rounds`;
    call `between()` before each pass and after the last.

    The count depends on the workload and `seconds` only, so every run
    and every commit takes the same number of samples, and a tail is the
    same percentile throughout."""
    rounds = max(min_rounds, int(seconds // (len(schedule) * workload.nominal_pass_s)))
    done = {kind: [] for kind in schedule}
    for i in range(rounds * len(schedule)):
        kind = schedule[i % len(schedule)]
        tracer = tracers[kind]
        tracer.pass_id = i
        between()
        done[kind].append(run_pass(workload, tracer, traced=tracer.enabled))
    between()
    return done


def end_to_end(args, workload):
    # set-up probes run in the gaps around the passes, so that they sample
    # the host over the whole run; their minimum is the figure least
    # touched by other load on the machine
    setup_times = []

    def probe_setup():
        setup_times.extend(measure_setup(args, 1 if args.smoke else SETUP_PROBES_PER_GAP))

    passes = run_passes(
        workload, args.seconds, ("plain",), {"plain": NullTracer()}, 2, probe_setup
    )["plain"]
    pass_s = [p.seconds for p in passes]
    task_s = [t for p in passes for t in p.task_seconds]
    # a command is one CLI line on cli-readme and the whole job elsewhere
    cmd_s = task_s if workload.tasks_are_commands else pass_s
    completed = sum(len(p.task_seconds) for p in passes) - sum(p.failed for p in passes)
    pass_tail, pass_q, pass_n = tail(pass_s)
    cmd_tail, cmd_q, cmd_n = tail(cmd_s)
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "pass_s_p50": (statistics.median(pass_s), "s"),
        "pass_s_tail": (pass_tail, "s"),
        "tasks_per_s": (completed / sum(pass_s), "1/s"),
        "cmd_s_p50": (statistics.median(cmd_s), "s"),
        "cmd_s_tail": (cmd_tail, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    info = {
        "setup_s": {"statistic": "min", "samples": len(setup_times),
                    "median": statistics.median(setup_times)},
        "pass_s_tail": {"percentile": pass_q, "samples": pass_n},
        "cmd_s_tail": {"percentile": cmd_q, "samples": cmd_n},
    }
    return passes, metrics, info


def per_layer(args, workload):
    from workloads import README_LINES

    tracer = Tracer()
    passes = run_passes(
        workload, args.seconds, ("traced", "plain"), {"traced": tracer, "plain": NullTracer()}, 1
    )
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(trace_file)

    busy = [
        "lacunary.enumerate_index_set", "lacunary.head_partition",
        "lacunary.counterexample_sequence", "walsh.cell_values",
        "trig.lp_norm_walsh", "trig.lp_norm_trig", "trig.khintchine_ratio",
        "extremal.maximize_ratio", "extremal.ratio_gradient",
        "measure.energy_on_set", "inverse.inverse_bound_experiment",
        "inverse.inverse_parseval_check", "cli.main",
    ]
    metrics = {f"{name}.busy_s": (tracer.busy_s(name), "s") for name in busy}
    for name in ("walsh.cell_values", "trig.khintchine_ratio", "extremal.maximize_ratio",
                 "measure.energy_on_set"):
        metrics[f"{name}.calls"] = (tracer.calls(name), "count")
    for name, unit in (
        ("lacunary.index_values", "count"), ("lacunary.counterexample_digits", "count"),
        ("walsh.cells", "count"), ("walsh.bytes_computed", "B"),
        ("extremal.iterations", "count"), ("measure.coefficient_pairs", "count"),
        ("inverse.rows", "count"), ("cli.report_bytes", "B"),
    ):
        metrics[name] = (tracer.total(name), unit)
    metrics["extremal.converged_ratio"] = (tracer.ratio("extremal.converged", "extremal.results"), "ratio")
    metrics["extremal.improved_ratio"] = (tracer.ratio("extremal.improved", "extremal.results"), "ratio")
    log_gain = tracer.ratio("extremal.log_ratio_gain", "extremal.results")
    metrics["extremal.ratio_gain"] = (math.exp(log_gain) if tracer.total("extremal.results") else 0.0, "ratio")
    metrics["inverse.rows_passed_ratio"] = (tracer.ratio("inverse.rows_passed", "inverse.rows"), "ratio")
    import_s = tracer.durations("cli.import")
    bare_s = tracer.durations("python.bare")
    metrics["cli.import_s"] = (
        statistics.median(import_s) - statistics.median(bare_s) if import_s else 0.0, "s")
    for line in README_LINES:
        metrics[f"cli.{line[0]}.s"] = (tracer.busy_s(f"cli.{line[0]}"), "s")
    # the tracer's own cost per traced pass; the traced minus untraced pass
    # time also differs by the split of the calls and by host noise, so it
    # is reported in the info line only
    metrics["trace.overhead_s"] = (tracer.calls() * span_cost_s(), "s")
    all_passes = passes["traced"] + passes["plain"]
    attempted = sum(p.attempted for p in all_passes)
    metrics["fail_ratio"] = (sum(p.failed for p in all_passes) / attempted, "ratio")
    traced_s = [p.seconds for p in passes["traced"]]
    plain_s = [p.seconds for p in passes["plain"]]
    info = {
        "trace_file": str(trace_file.relative_to(ROOT)),
        "pass_s_traced_minus_untraced": {
            "value": statistics.median(traced_s) - statistics.median(plain_s),
            "traced": traced_s,
            "untraced": plain_s,
        },
    }
    return all_passes, metrics, info


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lacuna" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no lacuna package under {SRC}; run from a checkout\n")
        return 2
    isolate()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    if args.setup_probe:
        return setup_probe(args, os.environ["PERFBENCH_WORKDIR"])
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        if args.trace:
            passes, metrics, info = per_layer(args, workload)
        else:
            passes, metrics, info = end_to_end(args, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    info.update(
        provenance=provenance(args),
        passes=len(passes),
        fail_ratio=failed / attempted,
        summary=workload.summary,
        failures=[msg for p in passes for msg in p.failures][:20],
    )
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
