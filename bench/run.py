"""sc3opt benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload solve_k5 --seed 0 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a run whose ops alternate between
untraced and traced.  The line before it is a JSON report with the run's
metadata, quality figures, golden-record drift and any failed checks.
See bench/BENCHMARK.md for the metrics and why each workload exists.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("solve_k5", "solve_k50", "sweep_baselines", "oracle_check")
SETUP_PROBES = 4  # extra fresh-interpreter set-ups behind the setup_s median
TAIL_Q = 0.75  # op_s_tail averages the ops beyond this quantile


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tail(times, q=TAIL_Q):
    """Mean of the slowest ceil((1 - q) * n) times, and how many that is.

    A mean of the slowest fraction, not one order statistic: a solve
    run has 5 to 20 samples, where any single quantile is one solve's time.
    """
    slowest = sorted(times)[len(times) - max(1, math.ceil((1.0 - q) * len(times))) :]
    return statistics.fmean(slowest), len(slowest)


def run_op(wl, inp, index, workdir):
    """(output, wall seconds, error text); errors are recorded, not raised."""
    start = time.perf_counter()
    try:
        out, err = wl.run(inp, index, workdir), None
    except Exception:  # an op that raises counts as failed; the run goes on
        out, err = None, traceback.format_exc(limit=3)
    return out, time.perf_counter() - start, err


def timed_phase(wl, inputs, seconds, workdir):
    """Untraced ops in whole passes over the inputs, so every run times the
    same mix.  Another pass starts only while it should end nearer the
    deadline than stopping now would: the run lasts the nearest whole number
    of passes to ``seconds``, and at least one."""
    records = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for inp in inputs:
            records.append((inp, *run_op(wl, inp, len(records), workdir)))
        now = time.perf_counter()
        if (now - start) + 0.5 * (now - pass_start) > seconds:
            return records, now - start


def traced_phase(wl, inputs, seconds, workdir, tracer):
    """Each input runs untraced, then traced, until the deadline.  Returns
    the untraced and the traced records; spans carry the traced op's index."""
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        i = len(traced)
        inp = inputs[i % len(inputs)]
        plain.append((inp, *run_op(wl, inp, 2 * i, workdir)))
        tracer.op = i
        with tracer:
            traced.append((inp, *run_op(wl, inp, 2 * i + 1, workdir)))
    return plain, traced


def check_records(wl, records, golden):
    """Indices of failed ops with their reasons, and the (input, output)
    pairs that passed."""
    failures, done = [], []
    for i, (inp, out, _, err) in enumerate(records):
        problems = [err] if err else wl.check(inp, out, golden)
        if problems:
            failures.append({"op": i, "problems": problems[:5]})
        else:
            done.append((inp, out))
    return failures, done


def layer_metrics(wl, spans, plain, records):
    """Per-layer ``name: (value, unit)`` from the traced ops' spans and
    outputs; ``plain`` holds the same ops run untraced, for the tracing
    overhead.  BENCHMARK.json lists the same names with their direction."""
    n_ops = len(records)
    calls, op_calls, dur, size = defaultdict(int), defaultdict(int), defaultdict(float), defaultdict(float)
    op_dur = defaultdict(float)
    child_dur = defaultdict(float)
    gen_threads = defaultdict(set)
    for sid, name, t0, t1, parent, op, tid, n in spans:
        calls[name] += 1
        dur[name] += t1 - t0
        size[name] += n
        if parent is not None:
            child_dur[parent] += t1 - t0
        if op >= 0:
            op_calls[name] += 1
            op_dur[name] += t1 - t0
            if name == "cli.generate_scenario":
                gen_threads[op].add(tid)
    sca_self = sum(
        (t1 - t0) - child_dur[sid] for sid, name, t0, t1, *_ in spans if name == "solver.sca_solve"
    )

    def per_call(name, scale):
        return dur[name] / calls[name] * scale if calls[name] else 0.0

    def per_size(name, scale):
        return dur[name] / size[name] * scale if size[name] else 0.0

    from sc3opt import SolverConfig

    solve_traces = [t for _, out, _, err in records if err is None for t in wl.traces(out)]
    rounds = [rec for t in solve_traces for rec in t.iterations[1:]]
    inner = sum(rec.inner_iterations for rec in rounds)
    tol = SolverConfig().inner_tol  # every op solves with the default config
    op_wall = sum(dt for _, _, dt, _ in records)
    cells = sum(wl.cell_seconds(out) for _, out, _, err in records if err is None)
    return {
        "compute.min_compute_time.calls_per_op": (op_calls["compute.min_compute_time"] / n_ops, "count"),
        "compute.min_compute_time.us_per_call": (per_call("compute.min_compute_time", 1e6), "us"),
        "compute.classify_region.calls_per_op": (op_calls["compute.classify_region"] / n_ops, "count"),
        "compute.optimal_split.calls_per_op": (op_calls["compute.optimal_split"] / n_ops, "count"),
        "compute.optimal_split.us_per_call": (per_call("compute.optimal_split", 1e6), "us"),
        "compute.min_compute_time_batch.ns_per_pair": (per_size("compute.min_compute_time_batch", 1e9), "ns"),
        "compute.brute_force_min_time.ms_per_call": (per_call("compute.brute_force_min_time", 1e3), "ms"),
        "surrogate.surrogate_batch.calls_per_op": (op_calls["surrogate.surrogate_batch"] / n_ops, "count"),
        "surrogate.surrogate_batch.us_per_call": (per_call("surrogate.surrogate_batch", 1e6), "us"),
        "surrogate.surrogate_batch.busy_share": (op_dur["surrogate.surrogate_batch"] / op_wall, "fraction"),
        "solver.outer_rounds_per_op": (len(rounds) / n_ops, "count"),
        "solver.inner_iters_per_op": (inner / n_ops, "count"),
        "solver.evals_per_inner_iter": (
            op_calls["surrogate.surrogate_batch"] / inner if inner else 0.0, "count"),
        "solver.inner_stalled_frac": (
            sum(rec.inner_residual > tol for rec in rounds) / len(rounds) if rounds else 0.0, "fraction"),
        "solver.project_budget_simplex.calls_per_op": (op_calls["solver.project_budget_simplex"] / n_ops, "count"),
        "solver.project_budget_simplex.us_per_call": (per_call("solver.project_budget_simplex", 1e6), "us"),
        "solver.make_anchors.us_per_call": (per_call("solver.make_anchors", 1e6), "us"),
        "solver.self_share": (sca_self / dur["solver.sca_solve"] if calls["solver.sca_solve"] else 0.0, "fraction"),
        "solver.check_allocation.ms_per_call": (per_call("solver.check_allocation", 1e3), "ms"),
        "control.build_entropy_params.calls_per_op": (op_calls["control.build_entropy_params"] / n_ops, "count"),
        "control.build_entropy_params.ms_per_call": (per_call("control.build_entropy_params", 1e3), "ms"),
        "cli.generate_scenario.calls_per_op": (op_calls["cli.generate_scenario"] / n_ops, "count"),
        "cli.generate_scenario.ms_per_call": (per_call("cli.generate_scenario", 1e3), "ms"),
        "baselines.power_only_closed_loop.ms_per_call": (per_call("baselines.power_only_closed_loop", 1e3), "ms"),
        "baselines.communication_oriented.ms_per_call": (per_call("baselines.communication_oriented", 1e3), "ms"),
        "baselines.evaluate_allocation.us_per_call": (per_call("baselines.evaluate_allocation", 1e6), "us"),
        "cli.sweep.threads": (max((len(t) for t in gen_threads.values()), default=0), "count"),
        "cli.sweep.busy_over_wall": (cells / op_wall, "ratio"),
        "cli.write_csv.ms_per_call": (per_call("cli.write_csv", 1e3), "ms"),
        "oracle.monte_carlo_loop.cycles_per_s": (
            size["oracle.monte_carlo_loop"] / dur["oracle.monte_carlo_loop"] if calls["oracle.monte_carlo_loop"] else 0.0,
            "1/s"),
        "oracle.grid_search_global.ms_per_call": (per_call("oracle.grid_search_global", 1e3), "ms"),
        "oracle.convexity_probe.ms_per_call": (per_call("oracle.convexity_probe", 1e3), "ms"),
        "trace.overhead_frac": (op_wall / sum(dt for _, _, dt, _ in plain) - 1.0, "fraction"),
    }


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def setup_probe_seconds(args):
    """Set-up time (imports plus input generation) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    inherited_threads = os.environ.pop("SC3_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    if (os.cpu_count() or 1) > nproc:  # the sweep's default pool would oversubscribe
        os.environ["SC3_THREADS"] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import sc3opt  # noqa: F401  (only checks that src/ is importable)
    except ImportError as exc:
        print(f"cannot import sc3opt from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from tracer import CHECK_OP, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = WORK / (args.workload + ("-probe" if args.setup_probe else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer:
            inputs = wl.inputs(args.seed, workdir)
    else:
        inputs = wl.inputs(args.seed, workdir)
    setup_s = time.perf_counter() - T_START
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    with open(BENCH / "golden.json") as fh:
        golden = json.load(fh)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256_16": source_digest(),
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sc3_threads_inherited": inherited_threads,
        "sc3_threads_used": os.environ.get("SC3_THREADS"),
    }
    if tracer:
        plain, records = traced_phase(wl, inputs, args.seconds, workdir, tracer)
        tracer.op = CHECK_OP
        with tracer:
            failures, done = check_records(wl, plain + records, golden)
        layers = layer_metrics(wl, tracer.spans, plain, records)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layers.items()}
        trace_path = WORK / f"trace_{args.workload}.jsonl"
        tracer.dump(trace_path)
        report.update(traced_ops=len(records), spans=len(tracer.spans), trace_file=str(trace_path.relative_to(ROOT)))
        attempted = len(plain) + len(records)
    else:
        setups = [setup_s] + [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
        records, wall = timed_phase(wl, inputs, args.seconds, workdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, done = check_records(wl, records, golden)
        times = [dt for _, _, dt, _ in records]
        tail_s, tail_n = tail(times)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": len(records) / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        report.update(
            ops=len(records),
            timed_wall_s=wall,
            op_s_p50=statistics.median(times),
            tail_quantile=TAIL_Q,
            tail_samples=tail_n,
            op_times_s=[round(dt, 4) for dt in times],
            setup_samples_s=setups,
        )
        attempted = len(records)
    failed = len(failures)
    report["failed_frac"] = failed / attempted
    if done:
        report.update(wl.summary(done, golden))
    report["failures"] = failures[:10]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
