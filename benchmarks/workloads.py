"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
timed pass in ``run_pass``.  A pass times every operation, then checks its
outputs outside the timed region with :mod:`checks`.  Library functions are
looked up on their modules at call time, so the traced run's wrappers apply.

csv-pipeline
    What a CLI user runs: ``synth`` writes three score CSVs, then
    ``calibrate`` (twice), ``predict``, ``evaluate`` and ``sweep`` read them.
    Stresses ``io`` (CSV write and parse) and ``cli``; writes sit beside
    reads so that a read gain paid for by slower writes shows.
sweep-bootstrap
    In-process bootstrap sweeps of the five fitted kinds, then one fit and
    evaluation per grid point on the full calibration set.  No I/O: its time
    goes to many small refits (``calibration``, ``evaluation``,
    ``core.ScoreSet`` revalidation).  An I/O change should leave it idle.
rules-wide
    Every formulation fitted and evaluated in-process at L = 1000 with
    heavy ties (noise 0, rows drawn from a 64-point support).  Stresses the
    per-row sorts of the mask functions and the wide fits; leaves ``io``
    idle and barely touches ``core.ScoreSet``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as textio
import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from checks import CheckFailed, require
from hostspeed import HostProbe

#: Seconds one CLI command may take before it counts as failed.
COMMAND_TIMEOUT_S = 170
#: Runs one CLI command and records its time and peak memory.
TIMED_COMMAND = Path(__file__).resolve().parent / "timed_command.py"


@dataclass
class PassResult:
    """Timings and outcome of one pass.  ``wall_s`` sums the timed
    operations; output checks run outside it."""

    wall_s: float = 0.0
    fit_s: float = 0.0
    eval_s: float = 0.0
    eval_rows: int = 0
    #: Peak resident memory of a pass's CLI commands (csv-pipeline only).
    peak_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    op_s: list = field(default_factory=list)
    stages: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, what: str, why) -> None:
        self.failed += 1
        if isinstance(why, BaseException):
            why = f"{type(why).__name__}: {why}"
        self.problems.append(f"{what}: {why}")

    def timed(self, seconds: float, stage: str | None = None) -> None:
        self.wall_s += seconds
        self.op_s.append(seconds)
        if stage is not None:
            self.stages[stage] = self.stages.get(stage, 0.0) + seconds


def clock(fn, *args, **kwargs):
    """Call ``fn``; returns (result, seconds)."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _report_dict(report) -> dict:
    keys = (
        "n_samples", "avg_error", "avg_size", "recall", "empty_set_rate",
        "per_class_error", "per_class_avg_size",
    )
    return {key: getattr(report, key) for key in keys}


def _spec(kind: str, **params):
    from predsets.formulations import FormulationSpec, Kind

    return FormulationSpec(Kind(kind), **params)


def _note_margin(margins: dict, name: str, value: float) -> None:
    margins[name] = min(value, margins.get(name, math.inf))


def check_fit(kind: str, spec, theta, P, labels) -> dict:
    """Check a fitted cutoff on calibration probabilities ``P``; returns
    the named margins the check measured."""
    if kind == "average-size":
        return {"kbar - size": checks.check_average_size(P, theta, spec.kbar)}
    if kind == "average-error":
        true = P[np.arange(P.shape[0]), labels - 1]
        return {"ebar - error": checks.check_average_error(true, theta, spec.ebar)}
    if kind == "hybrid-size":
        return {
            "kbar - size": checks.check_hybrid_size_fit(P, theta, spec.kbar, spec.k)
        }
    if kind == "hybrid-error":
        margin = checks.check_hybrid_error_fit(P, theta, spec.ebar, spec.eps)
        return {"H_eps total - (1 - ebar)": margin}
    if kind == "f-score":
        residual = checks.check_fscore_fit(P, theta, spec.beta)
        return {"residual tolerance - |residual|": checks.MASS_TOL - abs(residual)}
    require(theta is None, f"{kind}: unexpected fitted threshold")
    return {}


# --- csv-pipeline --------------------------------------------------------------


class CsvPipeline:
    name = "csv-pipeline"
    SHAPE = {
        "classes": 100,
        # rows per split (train, calib, test); 3000 rather than 5000 so that
        # a 30 s run holds three passes or more
        "rows": 3000,
        "noise": 0.3,
        "ebar": 0.1,
        "eps": 0.2,
        "grid": (1.0, 2.0, 4.0),
        "repeats": 3,
        # bootstrap-mean test size of average-size within this share of kbar
        "size_band": 0.1,
    }

    def __init__(self, root: Path, seed: int, shape=None, in_process=False,
                 env=None):
        self.root = Path(root)
        self.seed = int(seed)
        self.shape = {**self.SHAPE, **(shape or {})}
        self.probe = HostProbe()
        self.in_process = in_process
        self.env = env
        self.work = self.root / ".bench_work" / f"{self.name}-{self.seed}"
        self.margins: dict[str, float] = {}
        self._inputs_digest = None
        self._tables = None

    def path(self, name: str) -> str:
        return str(self.work / name)

    def setup(self, tracer) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self._warm_up()

    def commands(self) -> list[tuple[str, str, list[str]]]:
        s, seed, p = self.shape, str(self.seed), self.path
        calib, test = p("data_calib.csv"), p("data_test.csv")
        return [
            ("synth", "synth", [
                "synth", "--template", "dirichlet-like",
                "--classes", str(s["classes"]), "--n", str(3 * s["rows"]),
                "--seed", seed, "--noise", str(s["noise"]),
                "--out-prefix", p("data"),
            ]),
            ("calibrate-average-error", "fit", [
                "calibrate", "--formulation", "average-error",
                "--ebar", str(s["ebar"]), "--scores", calib,
                "--model", p("average_error.model"), "--seed", seed,
            ]),
            ("calibrate-pointwise-error", "fit", [
                "calibrate", "--formulation", "pointwise-error",
                "--eps", str(s["eps"]), "--offset", "auto",
                "--temperature", "fit", "--scores", calib,
                "--model", p("pointwise.model"), "--seed", seed,
            ]),
            ("predict", "eval", [
                "predict", "--model", p("pointwise.model"), "--scores", test,
                "--out", p("predictions.csv"),
            ]),
            ("evaluate", "eval", [
                "evaluate", "--model", p("average_error.model"),
                "--test", test, "--out", p("metrics.txt"),
                "--per-class", p("per_class.csv"),
            ]),
            ("sweep", "fit", [
                "sweep", "--formulation", "average-size",
                "--grid", ",".join(str(v) for v in s["grid"]),
                "--calib", calib, "--test", test, "--out", p("curve.csv"),
                "--repeats", str(s["repeats"]), "--seed", seed,
            ]),
        ]

    def ruled_rows(self, name: str) -> int:
        """Rows a read-side command puts through a fitted rule: the
        calibration rows of ``calibrate``'s self-check, the test rows of
        ``predict`` and ``evaluate``, and the test rows once per grid
        point and repeat of ``sweep``.  All of the read side counts, not
        only ``predict`` and ``evaluate``, so that ``eval_rows_per_s``
        rests on most of a pass rather than on two short commands."""
        s = self.shape
        uses = len(s["grid"]) * s["repeats"] if name == "sweep" else 1
        return s["rows"] * uses

    def _run(self, argv: list[str]):
        """Run one CLI command; returns (exit code, stdout, stderr,
        seconds, peak MB).  The peak is 0 in-process, where it is not
        reported; a subprocess is timed and measured by
        ``timed_command.py``."""
        if self.in_process:
            import predsets.cli

            out, err = textio.StringIO(), textio.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = predsets.cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
            seconds = time.perf_counter() - start
            return code, out.getvalue(), err.getvalue(), seconds, 0.0
        record = self.work / "command.json"
        record.unlink(missing_ok=True)
        cmd = [
            sys.executable, str(TIMED_COMMAND), str(record), str(COMMAND_TIMEOUT_S),
            sys.executable, "-m", "predsets.cli", *argv,
        ]
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=COMMAND_TIMEOUT_S + 10,
        )
        with open(record, encoding="utf-8") as fh:
            measured = json.load(fh)
        return (proc.returncode, proc.stdout, proc.stderr, measured["seconds"],
                measured["peak_mb"])

    def _warm_up(self):
        """Import the package once in a fresh interpreter."""
        if self.in_process:
            import predsets.cli  # noqa: F401
            return
        proc = subprocess.run(
            [sys.executable, "-c", "import predsets.cli"], cwd=self.root,
            env=self.env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
        require(proc.returncode == 0, f"warm-up import failed: {proc.stderr[-300:]}")

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        for old in self.work.iterdir():
            old.unlink()
        outputs = {}
        for name, stage, argv in self.commands():
            res.attempted += 1
            with tracer.op(name):
                try:
                    code, out, err, dt, peak_mb = self._run(argv)
                except Exception as exc:  # a crashed command is a failed op
                    res.fail(name, exc)
                    continue
            res.timed(dt, "synth_s" if stage == "synth" else "pipeline_s")
            res.peak_mb = max(res.peak_mb, peak_mb)
            self.probe.between_ops()
            if stage != "synth":
                res.eval_s += dt
                res.eval_rows += self.ruled_rows(name)
            if stage == "fit":
                res.fit_s += dt
            if code != 0:
                res.fail(name, f"exit {code}: {err.strip()[-300:]}")
            else:
                outputs[name] = out
        for name, out in outputs.items():
            try:
                getattr(self, "check_" + name.replace("-", "_"))(out)
            except Exception as exc:  # noqa: BLE001 - any error is a failed check
                res.fail(name, exc)
        return res

    # --- checks ---------------------------------------------------------------

    def inputs(self):
        """Parsed (train, calib, test) tables; parsed again only when the
        bytes differ from those already checked."""
        digest = hashlib.sha256()
        names = ("data_train.csv", "data_calib.csv", "data_test.csv")
        for name in names:
            with open(self.path(name), "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
        if digest.digest() != self._inputs_digest:
            self._tables = [checks.read_score_csv(self.path(name)) for name in names]
            self._inputs_digest = digest.digest()
        return self._tables

    def _stdout_value(self, out: str, key: str) -> float:
        for line in out.splitlines():
            if line.startswith(key + ":"):
                return float(line.split(":", 1)[1])
        raise CheckFailed(f"stdout lacks {key}")

    def check_synth(self, out: str) -> None:
        for table in self.inputs():
            require(table.n == self.shape["rows"], "synth: row count")
            require(table.L == self.shape["classes"], "synth: class count")
            require(table.logits is not None, "synth: no logits")

    def _model(self, name: str, kind: str) -> dict:
        model = checks.read_key_values(self.path(name))
        require(model.get("kind") == kind, f"{name}: kind {model.get('kind')!r}")
        return model

    def check_calibrate_average_error(self, out: str) -> None:
        _, calib, _ = self.inputs()
        model = self._model("average_error.model", "average-error")
        theta, ebar = float(model["theta"]), self.shape["ebar"]
        require(float(model["ebar"]) == ebar, "average-error: ebar")
        require(float(model["temperature"]) == 1.0, "average-error: temperature")
        margin = checks.check_average_error(calib.true_scores(), theta, ebar)
        _note_margin(self.margins, "average-error ebar - calib error", margin)
        want = checks.threshold_metrics(calib.probs, calib.labels, theta)
        for key in ("avg_error", "avg_size"):
            got = self._stdout_value(out, f"calibration_{key}")
            require(checks.close(got, want[key]), f"calibrate stdout {key}")

    def _pointwise(self):
        model = self._model("pointwise.model", "pointwise-error")
        T, offset = float(model["temperature"]), float(model["offset"])
        require(float(model["eps"]) == self.shape["eps"], "pointwise: eps")
        return T, offset, 1.0 - self.shape["eps"] + offset

    def check_calibrate_pointwise_error(self, out: str) -> None:
        _, calib, _ = self.inputs()
        T, offset, target = self._pointwise()
        margin = checks.check_offset(offset, calib.n, calib.L, self.shape["eps"])
        _note_margin(self.margins, "pointwise eps - auto offset", margin)
        checks.check_temperature(calib.logits, calib.labels, T)
        lo, hi = checks.pointwise_size_bounds(checks.softmax(calib.logits, T), target)
        got = self._stdout_value(out, "calibration_avg_size")
        require(
            lo.mean() - checks.METRIC_TOL <= got <= hi.mean() + checks.METRIC_TOL,
            f"calibrate stdout avg_size {got!r}",
        )

    def check_predict(self, out: str) -> None:
        _, _, test = self.inputs()
        T, _, target = self._pointwise()
        mask = checks.read_predictions(self.path("predictions.csv"), test.ids, test.L)
        checks.check_pointwise(checks.softmax(test.logits, T), mask, target)

    def check_evaluate(self, out: str) -> None:
        _, _, test = self.inputs()
        theta = float(self._model("average_error.model", "average-error")["theta"])
        want = checks.threshold_metrics(test.probs, test.labels, theta)
        metrics = checks.read_key_values(self.path("metrics.txt"))
        report = {
            key: float(metrics[key])
            for key in ("avg_error", "avg_size", "recall", "empty_set_rate")
        }
        report["n_samples"] = int(metrics["n_samples"])
        header, rows = checks.read_csv_rows(self.path("per_class.csv"))
        require(header == ["label", "error_rate", "avg_size"], "per-class header")
        report["per_class_error"] = {int(r[0]): float(r[1]) for r in rows}
        report["per_class_avg_size"] = {int(r[0]): float(r[2]) for r in rows}
        checks.check_report(report, want, "evaluate")

    def check_sweep(self, out: str) -> None:
        header, rows = checks.read_csv_rows(self.path("curve.csv"))
        require(header[:6] == [
            "param", "avg_error_mean", "avg_error_std", "avg_size_mean",
            "avg_size_std", "status",
        ], "curve header")
        grid = self.shape["grid"]
        require(len(rows) == len(grid), "curve: point count")
        sizes, errors = [], []
        for kbar, row in zip(grid, rows):
            require(float(row[0]) == kbar and row[5] == "ok", f"curve point {row[:1]}")
            err, size = float(row[1]), float(row[3])
            require(0.0 <= err <= 1.0 and float(row[2]) >= 0.0, "curve: error")
            band = self.shape["size_band"] * kbar
            require(abs(size - kbar) <= band, f"curve: size {size!r} vs kbar {kbar!r}")
            _note_margin(self.margins, "sweep size band - |size - kbar|",
                         band - abs(size - kbar))
            sizes.append(size)
            errors.append(err)
        require(sizes == sorted(sizes), "curve: size not increasing in kbar")
        require(errors == sorted(errors, reverse=True), "curve: error not decreasing")


# --- sweep-bootstrap -------------------------------------------------------------


class SweepBootstrap:
    name = "sweep-bootstrap"
    SHAPE = {
        "template": "two-regime",
        "classes": 10,
        "calib": 10_000,
        "test": 10_000,
        "noise": 0.2,
        "repeats": 10,
        "hybrid_k": 3,
        "hybrid_eps": 0.3,
        # H_eps at eps 0.3 totals 0.862-0.872 over seeds 0-59, so ebar
        # must stay above 0.138; the grid starts at 0.15.
        "grids": {
            "average-size": (1.0, 1.25, 1.5, 2.0, 3.0, 4.0),
            "average-error": (0.02, 0.05, 0.08, 0.12, 0.16, 0.2),
            "hybrid-size": (0.8, 1.0, 1.2, 1.5, 2.0, 2.5),
            "hybrid-error": (0.15, 0.17, 0.19, 0.21, 0.23, 0.25),
            "f-score": (0.25, 0.5, 1.0, 1.5, 2.0, 3.0),
        },
        # bootstrap-mean test metrics against the full-data fit's
        "size_band": 0.1,
        "error_band": 0.02,
        "warm_up_rows": 200,
    }
    #: Direction each kind's test set size moves as its parameter grows.
    SIZE_GROWS = {
        "average-size": True, "average-error": False, "hybrid-size": True,
        "hybrid-error": False, "f-score": True,
    }

    def __init__(self, root: Path, seed: int, shape=None, **_):
        self.seed = int(seed)
        self.shape = {**self.SHAPE, **(shape or {})}
        self.probe = HostProbe()
        self.margins: dict[str, float] = {}
        self.calib = self.test = None
        self._first = None  # first pass's curves, for the determinism check

    def spec(self, kind: str, value: float):
        s = self.shape
        params = {
            "average-size": {"kbar": value},
            "average-error": {"ebar": value},
            "hybrid-size": {"kbar": value, "k": s["hybrid_k"]},
            "hybrid-error": {"ebar": value, "eps": s["hybrid_eps"]},
            "f-score": {"beta": value},
        }[kind]
        return _spec(kind, **params)

    def setup(self, tracer) -> None:
        import predsets.evaluation as evaluation
        import predsets.oracle as oracle

        s = self.shape
        n_cal, n_test = s["calib"], s["test"]
        self.calib = self.test = None
        data = oracle.synth_generate(
            s["template"], s["classes"], n_cal + n_test, self.seed, noise=s["noise"]
        )
        self.calib = data.subset(np.arange(n_cal))
        self.test = data.subset(np.arange(n_cal, n_cal + n_test))
        few = np.arange(min(s["warm_up_rows"], n_cal, n_test))
        small_calib, small_test = self.calib.subset(few), self.test.subset(few)
        for kind, grid in s["grids"].items():
            evaluation.sweep(self.spec(kind, grid[-1]), grid[-1:], small_calib,
                             small_test, seeds=1, base_seed=self.seed)

    def run_pass(self, tracer) -> PassResult:
        import predsets.calibration as calibration
        import predsets.evaluation as evaluation

        res = PassResult()
        curves = {}
        for kind, grid in self.shape["grids"].items():
            res.attempted += len(grid)
            with tracer.op(f"sweep.{kind}", count=len(grid)):
                try:
                    curve, dt = clock(
                        evaluation.sweep, self.spec(kind, grid[0]), grid,
                        self.calib, self.test, seeds=self.shape["repeats"],
                        base_seed=self.seed,
                    )
                except Exception as exc:  # noqa: BLE001 - the whole sweep failed
                    for value in grid:
                        res.fail(f"sweep {kind} {value}", exc)
                    continue
            res.timed(dt)
            self.probe.between_ops()
            curves[kind] = [
                (p.param, p.status, p.avg_error, p.avg_size) for p in curve.points
            ]
            fits = []
            for value in grid:
                res.attempted += 1
                with tracer.op(f"fit.{kind}"):
                    try:
                        clf, fit_dt = clock(
                            calibration.calibrate, self.spec(kind, value),
                            self.calib, seed=self.seed,
                        )
                        report, eval_dt = clock(evaluation.evaluate, clf, self.test)
                    except Exception as exc:  # noqa: BLE001 - a failed operation
                        res.fail(f"fit {kind} {value}", exc)
                        fits.append(None)
                        continue
                res.timed(fit_dt + eval_dt)
                self.probe.between_ops()
                res.fit_s += fit_dt
                res.eval_s += eval_dt
                res.eval_rows += self.test.n
                try:
                    self.check_fit(kind, value, clf, report)
                    fits.append(report)
                except Exception as exc:  # noqa: BLE001 - a failed check
                    res.fail(f"fit {kind} {value}", exc)
                    fits.append(None)
            for problem in self.check_curve(kind, grid, curve.points, fits):
                res.fail(f"sweep {kind}", problem)
        if self._first is None:
            self._first = curves
        elif curves != self._first:
            res.fail("sweep", "curves differ from the first pass")
        return res

    def check_fit(self, kind: str, value: float, clf, report) -> None:
        spec = self.spec(kind, value)
        P, y = self.calib.probs, self.calib.labels
        for name, margin in check_fit(kind, spec, clf.theta, P, y).items():
            _note_margin(self.margins, f"{kind} {name}", margin)
        k = spec.k if kind == "hybrid-size" else None
        want = checks.threshold_metrics(self.test.probs, self.test.labels, clf.theta, k)
        checks.check_report(_report_dict(report), want, f"evaluate {kind}")

    def check_curve(self, kind: str, grid, points, fits) -> list[str]:
        """Problems with a sweep's points, one entry per failed point."""
        problems = []
        if len(points) != len(grid):
            return [f"{len(points)} points for {len(grid)} grid values"] * len(grid)
        L = self.shape["classes"]
        sizes = []
        for value, point, fit in zip(grid, points, fits):
            why = None
            if point.param != value or point.status != "ok":
                why = f"point {value}: {point.status}"
            elif not (0.0 <= point.avg_error <= 1.0 and 0.0 <= point.avg_size <= L
                      and point.std_error >= 0.0 and point.std_size >= 0.0):
                why = f"point {value}: out of range"
            elif fit is not None:
                size_band = self.shape["size_band"] * fit.avg_size + 0.05
                d_size = abs(point.avg_size - fit.avg_size)
                d_err = abs(point.avg_error - fit.avg_error)
                _note_margin(self.margins, f"{kind} sweep size band", size_band - d_size)
                _note_margin(self.margins, f"{kind} sweep error band",
                             self.shape["error_band"] - d_err)
                if d_size > size_band or d_err > self.shape["error_band"]:
                    why = f"point {value}: far from the full-data fit"
            if why is None and sizes:
                grows = point.avg_size >= sizes[-1]
                if grows != self.SIZE_GROWS[kind] and point.avg_size != sizes[-1]:
                    why = f"point {value}: size moves the wrong way"
            if why is not None:
                problems.append(why)
            sizes.append(point.avg_size)
        return problems


# --- rules-wide ------------------------------------------------------------------


class RulesWide:
    name = "rules-wide"
    SHAPE = {
        "template": "dirichlet-like",
        "classes": 1000,
        "calib": 2000,
        "test": 5000,
        "noise": 0.0,
        "warm_up_rows": 256,
        # label, kind, spec parameters, temperature
        "ops": (
            ("top-k", "top-k", {"k": 5}, 1.0),
            ("pointwise-error", "pointwise-error", {"eps": 0.1}, 1.0),
            ("pointwise-error-fit-T", "pointwise-error", {"eps": 0.1}, "fit"),
            ("penalized", "penalized", {"lam": 0.002}, 1.0),
            ("average-size", "average-size", {"kbar": 10.0}, 1.0),
            ("average-error", "average-error", {"ebar": 0.1}, 1.0),
            ("hybrid-size", "hybrid-size", {"kbar": 10.0, "k": 20}, 1.0),
            # H_eps at eps 0.5 totals 0.50071-0.50097 over seeds 0-19, so
            # ebar must lie in [0.49929, 0.5); 0.4999 leaves 6e-4 of room.
            ("hybrid-error-lemma", "hybrid-error",
             {"ebar": 0.4999, "eps": 0.5, "mode": "lemma-threshold"}, 1.0),
            ("hybrid-error-union", "hybrid-error",
             {"ebar": 0.4999, "eps": 0.5, "mode": "union-with-pointwise"}, 1.0),
            ("f-score", "f-score", {"beta": 1.0}, 1.0),
        ),
    }

    def __init__(self, root: Path, seed: int, shape=None, **_):
        self.seed = int(seed)
        self.shape = {**self.SHAPE, **(shape or {})}
        self.probe = HostProbe()
        self.margins: dict[str, float] = {}
        self.calib = self.test = None
        self._reference = {}  # label -> metrics of the checked first pass

    def setup(self, tracer) -> None:
        import predsets.oracle as oracle

        s = self.shape
        n_cal, n_test = s["calib"], s["test"]
        self.calib = self.test = None
        data = oracle.synth_generate(
            s["template"], s["classes"], n_cal + n_test, self.seed, noise=s["noise"]
        )
        self.calib = data.subset(np.arange(n_cal))
        self.test = data.subset(np.arange(n_cal, n_cal + n_test))
        del data
        few = np.arange(min(s["warm_up_rows"], n_cal, n_test))
        small_calib, small_test = self.calib.subset(few), self.test.subset(few)
        for _label, kind, params, temperature in s["ops"]:
            self._fit_and_evaluate(kind, params, temperature, small_calib, small_test)

    def _fit_and_evaluate(self, kind, params, temperature, calib, test):
        import predsets.calibration as calibration
        import predsets.evaluation as evaluation

        clf, fit_dt = clock(
            calibration.calibrate, _spec(kind, **params), calib,
            temperature=temperature, seed=self.seed,
        )
        report, eval_dt = clock(evaluation.evaluate, clf, test)
        return clf, report, fit_dt, eval_dt

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        for label, kind, params, temperature in self.shape["ops"]:
            res.attempted += 1
            with tracer.op(label):
                try:
                    clf, report, fit_dt, eval_dt = self._fit_and_evaluate(
                        kind, params, temperature, self.calib, self.test
                    )
                except Exception as exc:  # noqa: BLE001 - a failed operation
                    res.fail(label, exc)
                    continue
            res.timed(fit_dt + eval_dt)
            self.probe.between_ops()
            res.fit_s += fit_dt
            res.eval_s += eval_dt
            res.eval_rows += self.test.n
            try:
                self.check(label, kind, clf, report)
            except Exception as exc:  # noqa: BLE001 - a failed check
                res.fail(label, exc)
        return res

    def _probs(self, scores, temperature: float) -> np.ndarray:
        if temperature == 1.0:
            return scores.probs
        return checks.softmax(scores.logits, temperature)

    def check(self, label: str, kind: str, clf, report) -> None:
        spec = clf.spec
        got = _report_dict(report)
        if clf.temperature != 1.0:
            checks.check_temperature(self.calib.logits, self.calib.labels,
                                     clf.temperature)
        P = self._probs(self.calib, clf.temperature)
        for name, margin in check_fit(kind, spec, clf.theta, P, self.calib.labels).items():
            _note_margin(self.margins, f"{label} {name}", margin)
        if label in self._reference:
            checks.check_report(got, self._reference[label], f"{label} vs first pass")
            return
        # first pass: check the library's mask itself, then its metrics
        Pt = self._probs(self.test, clf.temperature)
        mask = clf.predict_set_mask(self.test)
        require(mask.shape == Pt.shape, f"{label}: mask shape")
        if kind == "top-k":
            checks.check_topk(Pt, mask, spec.k)
        elif kind == "pointwise-error":
            checks.check_pointwise(Pt, mask, 1.0 - spec.eps + clf.offset)
        elif kind == "hybrid-size":
            checks.check_hybrid_size(Pt, mask, clf.theta, spec.k)
        elif kind == "hybrid-error" and spec.mode == "union-with-pointwise":
            checks.check_hybrid_union(Pt, mask, clf.theta, spec.eps)
        else:
            theta = spec.lam if kind == "penalized" else clf.theta
            checks.check_threshold(Pt, mask, theta, label)
        want = checks.mask_metrics(mask, self.test.labels)
        del mask
        checks.check_report(got, want, label)
        self._reference[label] = want


WORKLOADS = {w.name: w for w in (CsvPipeline, SweepBootstrap, RulesWide)}
