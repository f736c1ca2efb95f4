"""Benchmark of the two user commands, `metasub solve` and `metasub analyze`.

One op is one in-process call of `metasub.cli.main([...])`: load the
instance JSON, parse it, build the oracles, compute, and write the report to
a file. Ops run in a closed loop from one client in this process, cycling
through the workload's seeded instance pool; outputs are checked after the
timed loop.

    python3 bench/run.py --workload solve-div-uniform --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 ops alternate untraced and traced, and it carries the per-layer
metrics from the traced ops. The program is imported from ../src, never from
an installed copy; without it the run exits with code 2.
"""

import os

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREADS:  # must precede the numpy import below
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import scipy

from checks import ANALYZE_TOL, Instance, check_report, strict_json
from tracing import ROOT as ROOT_SPAN, Tracer
from workloads import WORKLOADS, write_pool

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
SPANS_DIR = BENCH_DIR / "out"
MODULES = ("cli", "setfn", "metric", "matroid", "matching", "search", "diag")
EPSILON = 0.1
SETUP_REPS = 5
P90_TAIL = 10  # p90 is reported only with this many samples beyond it

# per-layer metrics taken from span summaries: (span name, fields)
SPAN_METRICS = (
    ("setfn.value", ("calls", "self_s")),
    ("setfn.second_difference", ("calls", "self_s")),
    ("setfn.value_table", ("self_s",)),
    ("matroid.is_independent", ("calls", "self_s", "true_ratio")),
    ("matroid.extend_to_base", ("self_s",)),
    ("matching.max_weight_matching_k", ("calls", "self_s")),
    ("search.best_pair_init", ("self_s",)),
    ("search.local_search", ("self_s",)),
    ("search.matching_step", ("self_s",)),
    ("search.solve", ("self_s",)),
    ("diag.ExactTables", ("calls", "self_s")),
    ("diag.gamma_parameter", ("self_s",)),
    ("diag.classify", ("self_s",)),
    ("diag.check_discrete_integral", ("self_s",)),
    ("diag.verify_lemmas", ("self_s",)),
    ("metric.validate_distance", ("self_s",)),
    ("metric.semi_metric_parameter", ("self_s",)),
    ("metric.is_negative_type", ("self_s",)),
    ("metric.is_sqrt_metric", ("self_s",)),
    ("cli.load_instance", ("self_s",)),
    ("cli.parse_instance", ("self_s",)),
    ("cli.emit", ("self_s",)),
)
FIELD_UNITS = {"calls": "count/op", "self_s": "s/op", "true_ratio": "ratio"}


class ProgramMissing(Exception):
    """The checkout holds no program source to benchmark."""


def load_program() -> dict:
    """Import metasub's modules from the checkout's src directory."""
    if not (SRC / "metasub" / "cli.py").is_file():
        raise ProgramMissing(f"no program source at {SRC / 'metasub'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"metasub.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise ProgramMissing(f"metasub was imported from {origin}, not from {SRC}")
    return modules


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_import() -> float:
    """Wall time of a fresh interpreter importing metasub.cli.

    The wait blocks instead of passing a timeout, because Popen.wait with a
    timeout polls and rounds the time up by as much as 50 ms; a timer kills
    a child that hangs.
    """
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", "import metasub.cli"], env=program_env(),
                             cwd=REPO, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    watchdog = threading.Timer(120, child.kill)
    watchdog.start()
    try:
        _, err = child.communicate()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if child.returncode != 0:
        raise subprocess.CalledProcessError(child.returncode, child.args, stderr=err)
    return elapsed


def op_argv(command: str, instance: Path, out: Path) -> list[str]:
    if command == "solve":
        return ["solve", str(instance), "--epsilon", repr(EPSILON), "--pivot", "first",
                "--out", str(out)]
    return ["analyze", str(instance), "--tolerance", repr(ANALYZE_TOL), "--out", str(out)]


def run_op(cli, argv: list[str], out: Path) -> tuple[float, bytes | None, str | None]:
    """One op: (seconds, report bytes, problem). Stderr is captured."""
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception as exc:  # an op that raises is an error, not a crash of the run
        return time.perf_counter() - t0, None, f"raised {exc!r}"
    except SystemExit as exc:
        return time.perf_counter() - t0, None, f"exited with {exc.code!r}"
    elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, None, f"exit code {code}: {stderr.getvalue().strip()[-300:]}"
    if not out.is_file():
        return elapsed, None, "exit code 0 but no report was written"
    return elapsed, out.read_bytes(), None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in PINNED_THREADS},
    }


def quantiles(times: list[float]) -> dict:
    ordered = sorted(times)
    out = {"n": len(ordered), "p50": statistics.median(ordered)}
    if len(ordered) >= 2:
        p90 = statistics.quantiles(ordered, n=10)[8]
        if sum(t > p90 for t in ordered) >= P90_TAIL:
            out["p90"] = p90
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", spans_dir: Path | None = SPANS_DIR) -> dict:
    """Run one workload; returns the result object and human-readable lines."""
    workload = WORKLOADS[name]
    modules = load_program()
    cli = modules["cli"]
    setup_reps = 0 if trace else SETUP_REPS if scale == "full" else 1
    setup: list[float] = []
    if setup_reps:
        fresh_import()  # untimed: leaves the bytecode cache warm
    tracer = Tracer(modules) if trace else None

    first: dict[int, bytes] = {}  # first report of each instance
    timed: list[tuple[int, bool, float]] = []  # (instance, traced, seconds)
    problems: list[str] = []
    attempted = failed = 0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
        paths, inputs = write_pool(workload, seed, scale, Path(work))
        ok_ops = [0] * len(paths)  # ops whose report matched the first one
        out = Path(work) / "report.json"

        def one_op(idx: int, traced: bool) -> float:
            nonlocal attempted, failed
            argv = op_argv(workload.command, paths[idx], out)
            if traced:
                tracer.install()
            try:
                elapsed, report, problem = run_op(cli, argv, out)
            finally:
                if traced:
                    tracer.uninstall()
            attempted += 1
            if problem is None and idx in first and report != first[idx]:
                problem = "report differs from an earlier op on the same instance"
            if problem is None:
                first.setdefault(idx, report)
                ok_ops[idx] += 1
            else:
                failed += 1
                problems.append(f"instance {idx}: {problem}")
            return elapsed

        # warm-up for lazy imports and caches; its time is discarded, and the
        # first timed op repeats its instance, so every run compares two reports
        one_op(0, False)
        # ops run until their own time adds up to `seconds`; the machine's
        # speed drifts over seconds, so set-up samples are spread evenly
        # between them instead of taken in one burst
        measured = 0.0
        # ops that fail at once add almost no op time; a wall-clock limit ends those runs
        give_up = time.perf_counter() + 2 * seconds + 30
        while len(timed) < 2 or measured < seconds and time.perf_counter() < give_up:
            if len(setup) < setup_reps and measured >= len(setup) * seconds / setup_reps:
                setup.append(fresh_import())
            idx = len(timed) % len(paths)
            traced = trace and len(timed) % 2 == 1
            timed.append((idx, traced, one_op(idx, traced)))
            measured += timed[-1][2]
        while len(setup) < setup_reps:
            setup.append(fresh_import())

        reports: dict[int, dict] = {}
        for idx, report in first.items():
            inst = Instance.from_doc(json.loads(paths[idx].read_bytes()))
            found = check_report(inst, workload.command, report.decode(), EPSILON)
            if found:
                failed += ok_ops[idx]
                problems += [f"instance {idx}: {p}" for p in found]
            else:
                reports[idx] = strict_json(report.decode())

    lines = [
        f"workload {name}  seed {seed}  scale {scale}  trace {int(trace)}  seconds {seconds:g}",
        f"inputs sha256 {inputs} ({len(paths)} instances)",
        "environment " + json.dumps(environment(), sort_keys=True),
    ]
    lines += [f"problem {p}" for p in problems[:20]]
    if trace:
        metrics = layer_metrics(tracer, workload.command, workload.shape(scale).n, reports,
                                timed)
        if spans_dir is not None:
            spans_dir.mkdir(exist_ok=True)
            tracer.write(spans_dir / f"spans-{name}.npz")
            lines.append(f"spans written to {spans_dir / f'spans-{name}.npz'}")
    else:
        metrics, info = end_to_end_metrics(workload.command, setup, reports, timed)
        lines += info
    lines += [f"  {key:<38} {m['value']:.6g} {m['unit']}" for key, m in metrics.items()]
    lines.append(f"  {'error_rate':<38} {failed / attempted:.6g} ({failed}/{attempted} ops)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "lines": lines}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(command: str, setup: list[float], reports: dict,
                       timed: list[tuple[int, bool, float]]) -> tuple[dict, list[str]]:
    """The gated metrics, plus printed-only lines for the op-time quantiles,
    the mean solution value and the counts behind them.

    Throughput comes from the mean op time: the machine's speed shifts
    between levels over seconds, and a run's median op time follows whichever
    level held longest, so it spreads about twice as much from run to run."""
    times = [t for _, _, t in timed]
    q = quantiles(times)
    metrics = {
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    info = [f"setup_s is the median of {len(setup)} fresh-interpreter imports of metasub.cli; "
            f"op times come from {q['n']} timed ops",
            f"  {'op_s.p50':<38} {q['p50']:.6g} s"]
    if "p90" in q:
        info.append(f"  {'op_s.p90':<38} {q['p90']:.6g} s")
    else:
        info.append(f"  op_s.p90 not reported: {q['n']} samples leave fewer than "
                    f"{P90_TAIL} beyond it")
    if command == "solve":
        values = [reports[i]["results"]["chosen"]["value"] for i, _, _ in timed if i in reports]
        if values:
            info.append(f"  {'value.mean':<38} {statistics.fmean(values):.10g} "
                        f"(mean chosen value over {len(values)} ops)")
    return metrics, info


def layer_metrics(tracer: Tracer, command: str, n: int, reports: dict,
                  timed: list[tuple[int, bool, float]]) -> dict:
    """Per-layer metrics over the traced ops; per-op figures are means."""
    summary = tracer.summary()
    traced = [(idx, t) for idx, was_traced, t in timed if was_traced]
    untraced = [t for _, was_traced, t in timed if not was_traced]
    ops = len(traced)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "true": 0}
    metrics = {}
    for span, fields in SPAN_METRICS:
        s = summary.get(span, empty)
        for field in fields:
            if field == "true_ratio":
                value = s["true"] / s["calls"] if s["calls"] else 0.0
            else:
                value = s[field] / ops
            metrics[f"{span}.{field}"] = metric(value, FIELD_UNITS[field])

    # work counters as the report states them, next to the spans' own counts
    iterations = evaluations = matched = swaps = 0
    for idx, _ in traced:
        if command != "solve" or idx not in reports:
            continue
        res = reports[idx]["results"]
        inside = len(res["local_search"]["S"])
        iterations += res["iterations"]
        evaluations += res["evaluations"]
        matched += res["matching_candidate"]["k"]
        swaps += inside * (n - inside)
    metrics["search.iterations"] = metric(iterations / ops, "count/op")
    metrics["search.evaluations"] = metric(evaluations / ops, "count/op")
    metrics["search.accept_ratio"] = metric(
        iterations / evaluations if evaluations else 0.0, "ratio")
    metrics["search.matching_weight_use_ratio"] = metric(
        matched / swaps if swaps else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(t for _, t in traced) / statistics.median(untraced), "ratio")
    root = summary.get(ROOT_SPAN, empty)
    metrics["trace.unaccounted_share"] = metric(
        root["self_s"] / root["total_s"] if root["total_s"] else 0.0, "ratio")
    return metrics


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process; prints each one's metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{key}": m for key, m in result["metrics"].items()})
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(run["lines"]))
    print(json.dumps(run["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
