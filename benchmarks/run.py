"""Benchmark of predsets: one workload, checked, with every metric printed.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload csv-pipeline --seed 1 --seconds 25 --trace 0

Workloads are ``csv-pipeline``, ``sweep-bootstrap`` and ``rules-wide`` (see
``workloads.py``).  Load is a closed loop with one client: one operation at
a time, one process running library code at a time.  With ``--trace 0`` the
run prints the end-to-end metrics; with ``--trace 1`` it wraps the library's
public functions in spans and prints the per-layer metrics.  The
end-to-end timings are corrected for the host's speed drift, which
``hostspeed.py`` measures.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The library is imported from ``src/`` next to this
directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fixed so model files carry a deterministic ``fitted_at``.
SOURCE_DATE_EPOCH = "1609459200"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fresh-interpreter imports per traced run; ``cli.import_s`` is their median.
IMPORT_REPEATS = 3

END_TO_END = (
    ("wall_s", "s"),
    ("fit_s", "s"),
    ("eval_rows_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

KINDS = (
    "top-k", "pointwise-error", "penalized", "average-size", "average-error",
    "hybrid-size", "hybrid-error", "f-score",
)
COMMANDS = ("synth", "calibrate", "predict", "evaluate", "sweep")

#: Spans whose self time is reported as ``<span>.self_s``.
SELF_TIMED = (
    ("io.read_scores", "io.write_scores", "io.write_predictions")
    + tuple(f"cli.{c}" for c in COMMANDS)
    + ("core.ScoreSet", "core.softmax", "core.topk_mask",
       "formulations.pointwise_error_mask", "formulations.rule_mask")
    + tuple(f"calibration.calibrate.{k}" for k in KINDS)
    + ("calibration.fit_temperature", "calibration.fit_fscore",
       "calibration.EmpiricalStepFunction", "evaluation.evaluate",
       "evaluation.sweep", "oracle.synth_generate",
       "oracle.make_distribution", "oracle.sample_scores")
)

PER_LAYER = tuple((f"{name}.self_s", "s") for name in SELF_TIMED) + (
    ("io.read_scores.mb_per_s", "MB/s"),
    ("io.write_scores.mb_per_s", "MB/s"),
    ("cli.import_s", "s"),
    ("core.ScoreSet.calls", "count"),
    ("core.ScoreSet.builds_per_fit", "count"),
    ("formulations.rule_mask.calls_per_op", "count"),
    ("calibration.fscore_iters_per_fit", "count"),
    ("calibration.knots_kept_frac", "ratio"),
    ("evaluation.sweep.ok_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def pin_environment() -> None:
    """One BLAS thread per process (the load is one client on nproc = 2
    cores) and a fixed build date; must run before NumPy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH


def environment_line() -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"env: nproc={os.cpu_count()} cpu={cpu!r} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"SOURCE_DATE_EPOCH={SOURCE_DATE_EPOCH}"
    )


def more_passes(elapsed: float, done: int, seconds: float) -> bool:
    """Whether another pass of the mean duration so far (checks included)
    would end at most half a pass after ``seconds``."""
    return elapsed * (done + 0.5) / done <= seconds


def run_passes(workload, tracer, seconds: float) -> list:
    """At least one pass, then more while :func:`more_passes` allows."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(workload.run_pass(tracer))
        if not more_passes(time.perf_counter() - start, len(results), seconds):
            return results


def run_passes_in_child(workload, tracer, seconds: float):
    """Run the passes in a forked child, so that its peak resident memory
    covers the timed work and the inputs, not the set-ups before it.
    Returns (pass results, peak MB)."""
    from workloads import PassResult

    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            results = run_passes(workload, tracer, seconds)
            payload = {"passes": [asdict(r) for r in results],
                       "margins": workload.margins,
                       "probe": workload.probe.samples}
        except BaseException:  # report to the parent, then exit
            payload = {"error": traceback.format_exc()}
            code = 1
        with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        payload = json.loads(fh.read() or '{"error": "child wrote nothing"}')
    _, status, usage = os.wait4(pid, 0)
    if "error" in payload or os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(payload.get("error", f"pass child exit {status}"))
    workload.margins.update(payload["margins"])
    workload.probe.samples.extend(payload["probe"])
    passes = [PassResult(**p) for p in payload["passes"]]
    return passes, usage.ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def tail_line(label: str, samples) -> str:
    """Median, sample count, and the highest of p90/p99/p99.9 that has at
    least ten samples beyond it."""
    samples = sorted(samples)
    n = len(samples)
    out = f"{label}: n={n} median={median(samples):.6g}s"
    best = None
    for q in (90, 99, 99.9):
        if n * (100 - q) / 100 >= 10:
            best = (q, statistics.quantiles(samples, n=1000)[int(q * 10) - 1])
    if best is None:
        return out + " (no percentile above the median has >=10 samples beyond it)"
    return out + f" p{best[0]:g}={best[1]:.6g}s"


def end_to_end(passes, setup_times, peak_mb, correction: float = 1.0) -> dict:
    """Medians over the run, corrected for the host's speed: times
    divided and rates multiplied by the probe's ``correction``."""
    return {
        "wall_s": median([p.wall_s for p in passes]) / correction,
        "fit_s": median([p.fit_s for p in passes]) / correction,
        "eval_rows_per_s": median(
            [p.eval_rows / p.eval_s for p in passes if p.eval_s > 0] or [0.0])
        * correction,
        "peak_rss_mb": peak_mb,
        "setup_s": median(setup_times) / correction,
    }


def import_seconds() -> float:
    code = (
        "import time; t = time.perf_counter(); import predsets.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout.strip()))
    return median(times)


def per_layer(tracer, n_traced: int, import_s: float, overhead: float) -> dict:
    """Self times and counts per set-up plus one pass; ratios over passes."""
    setup_self, pass_self = tracer.self_times("setup"), tracer.self_times("pass")
    setup_counts = tracer.counters.get("setup", {})
    counts = tracer.counters.get("pass", {})

    def ratio(num, den):
        return num / den if den else 0.0

    fits = sum(
        v for k, v in counts.items()
        if k.startswith("calibration.calibrate.") and k.endswith(".calls")
    )
    out = {
        f"{name}.self_s": setup_self.get(name, 0.0) + pass_self.get(name, 0.0) / n_traced
        for name in SELF_TIMED
    }
    out.update({
        "io.read_scores.mb_per_s": ratio(
            counts.get("io.read_scores.bytes", 0) / 1e6,
            tracer.total_time("io.read_scores", "pass")),
        "io.write_scores.mb_per_s": ratio(
            counts.get("io.write_scores.bytes", 0) / 1e6,
            tracer.total_time("io.write_scores", "pass")),
        "cli.import_s": import_s,
        "core.ScoreSet.calls": setup_counts.get("core.ScoreSet.calls", 0)
        + counts.get("core.ScoreSet.calls", 0) / n_traced,
        "core.ScoreSet.builds_per_fit": ratio(counts.get("core.ScoreSet.calls", 0), fits),
        "formulations.rule_mask.calls_per_op": ratio(
            counts.get("formulations.rule_mask.calls", 0), tracer.ops.get("pass", 0)),
        "calibration.fscore_iters_per_fit": ratio(
            counts.get("calibration.fscore_objective_derivative.calls", 0),
            counts.get("calibration.fit_fscore.calls", 0)),
        "calibration.knots_kept_frac": ratio(
            counts.get("knots.kept", 0), counts.get("knots.in", 0)),
        "evaluation.sweep.ok_frac": ratio(
            counts.get("evaluation.sweep.ok", 0),
            counts.get("evaluation.sweep.points", 0)),
        "trace.overhead_frac": overhead,
    })
    return out


def measure(workload, seconds: float, in_child: bool):
    """Untraced run: set-ups, then timed passes.  Returns (metrics, passes)."""
    from spans import Tracer
    from workloads import clock

    tracer = Tracer(recording=False)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup_times.append(clock(workload.setup, tracer)[1])
        workload.probe.between_ops()
    if in_child:
        passes, peak_mb = run_passes_in_child(workload, tracer, seconds)
    else:
        passes = run_passes(workload, tracer, seconds)
        peak_mb = max(p.peak_mb for p in passes)
    probe = workload.probe
    print("setup_s per set-up: " + ", ".join(f"{t:.4f}" for t in setup_times))
    compute_s, memory_s = probe.medians()
    print(f"host probe: n={len(probe.samples)} compute={compute_s:.4f}s "
          f"memory={memory_s:.4f}s slowdown={probe.slowdown():.4f} "
          f"correction={probe.correction():.4f}; "
          "as measured, before dividing by it: "
          + ", ".join(f"{k}={v:.6g}"
                      for k, v in end_to_end(passes, setup_times, peak_mb).items()))
    return end_to_end(passes, setup_times, peak_mb, probe.correction()), passes


def measure_traced(workload, seconds: float, name: str, seed: int):
    """Traced run: a traced set-up, then untraced and traced passes in
    turn.  Returns (metrics, passes)."""
    from spans import Tracer

    tracer = Tracer()
    import_s = import_seconds()
    with tracer.installed(), tracer.root("setup"):
        workload.setup(tracer)
    plain, traced = [], []
    quiet = Tracer(recording=False)
    start = time.perf_counter()
    while True:
        plain.append(workload.run_pass(quiet))
        with tracer.installed(), tracer.root("pass"):
            traced.append(workload.run_pass(tracer))
        if not more_passes(time.perf_counter() - start, len(traced), seconds):
            break
    overhead = median([p.wall_s for p in traced]) / median([p.wall_s for p in plain]) - 1.0
    out_dir = ROOT / ".bench_work"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{name}-seed{seed}.json"
    tracer.dump(trace_path)
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    for absent in tracer.absent:
        print(f"absent: {absent} (reported as 0)")
    metrics = per_layer(tracer, len(traced), import_s, overhead)
    return metrics, plain + traced


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, shapes=None) -> int:
    """Run one workload; ``shapes`` overrides workload shapes (for tests)."""
    args = parse_args(argv)
    if not (SRC / "predsets" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    shape = (shapes or {}).get(args.workload)
    workload = cls(ROOT, args.seed, shape=shape, in_process=bool(args.trace),
                   env=child_env())
    print(environment_line())
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} shape={json.dumps(workload.shape, default=str)}")
    try:
        if args.trace:
            metrics, passes = measure_traced(
                workload, args.seconds, args.workload, args.seed)
            units = dict(PER_LAYER)
        else:
            in_child = args.workload != "csv-pipeline"
            metrics, passes = measure(workload, args.seconds, in_child)
            units = dict(END_TO_END)
    except Exception:  # noqa: BLE001 - a run that cannot finish prints no result
        traceback.print_exc()
        return 1

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"passes: {len(passes)}; wall_s per pass: "
          + ", ".join(f"{p.wall_s:.4f}" for p in passes))
    print(tail_line("pass wall", [p.wall_s for p in passes]))
    print(tail_line("operation latency", [t for p in passes for t in p.op_s]))
    for stage in sorted({s for p in passes for s in p.stages}):
        print(f"{stage} (median per pass): "
              f"{median([p.stages.get(stage, 0.0) for p in passes]):.4f} s")
    for name, margin in sorted(workload.margins.items()):
        print(f"margin: {name} = {margin:.6g}")
    print(f"ops_failed_frac: {failed / attempted if attempted else 0.0:.6g} "
          f"({failed} of {attempted})")
    for problem in [q for p in passes for q in p.problems][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
