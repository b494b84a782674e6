"""Tests of the benchmark itself: tiny shapes, the output checker, and the
agreement between the printed metrics and BENCHMARK.json.

Run with ``python3 -m pytest benchmarks/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import spans
from checks import CheckFailed

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "csv-pipeline": {
        "classes": 5, "rows": 200, "grid": (1.0, 2.0), "repeats": 2,
        "size_band": 0.5,
    },
    "sweep-bootstrap": {
        "calib": 500, "test": 500, "repeats": 2, "warm_up_rows": 50,
        "size_band": 0.5, "error_band": 0.1,
        "grids": {
            "average-size": (1.0, 2.0),
            "average-error": (0.05, 0.2),
            "hybrid-size": (1.0, 2.0),
            "hybrid-error": (0.2, 0.25),
            "f-score": (0.5, 2.0),
        },
    },
    "rules-wide": {"classes": 50, "calib": 300, "test": 200, "warm_up_rows": 64},
}


@pytest.fixture()
def pinned_env(monkeypatch):
    """Let run.main pin its variables; monkeypatch restores them."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "SOURCE_DATE_EPOCH"):
        monkeypatch.setenv(var, "1")


def run_tiny(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, shapes=TINY) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_at_tiny_shape(capsys, pinned_env, workload, trace):
    result = run_tiny(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in group
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "rules-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# --- the output checker catches corruption it did not cause ------------------


@pytest.fixture()
def scores():
    from predsets.oracle import synth_generate

    return synth_generate("dirichlet-like", 8, 120, 5, noise=0.3)


def _classifier(scores, kind, **params):
    from predsets.calibration import calibrate
    from predsets.formulations import FormulationSpec, Kind

    return calibrate(FormulationSpec(Kind(kind), **params), scores)


def test_checker_rejects_a_corrupted_prediction_file(tmp_path, scores):
    from predsets import io

    clf = _classifier(scores, "pointwise-error", eps=0.2)
    path = tmp_path / "pred.csv"
    io.write_predictions(path, scores.ids, clf.predict_set_mask(scores))
    target = 1.0 - 0.2
    mask = checks.read_predictions(path, scores.ids, scores.L)
    checks.check_pointwise(scores.probs, mask, target)

    lines = path.read_text().splitlines()
    row = lines[1].split(",")
    labels = row[1].split(";")
    lines[1] = ",".join([row[0], ";".join(labels[:-1]), str(len(labels) - 1)])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed):
        checks.check_pointwise(
            scores.probs, checks.read_predictions(path, scores.ids, scores.L), target
        )
    lines[1] = ",".join([row[0], row[1], str(len(labels) + 1)])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed):
        checks.read_predictions(path, scores.ids, scores.L)


@pytest.mark.parametrize("kind", ["top-k", "threshold", "hybrid-size", "union"])
def test_checker_rejects_a_corrupted_mask(scores, kind):
    P = scores.probs
    if kind == "top-k":
        clf = _classifier(scores, "top-k", k=3)
        check = lambda m: checks.check_topk(P, m, 3)  # noqa: E731
    elif kind == "threshold":
        clf = _classifier(scores, "average-size", kbar=2.0)
        check = lambda m: checks.check_threshold(P, m, clf.theta, "t")  # noqa: E731
    elif kind == "hybrid-size":
        clf = _classifier(scores, "hybrid-size", kbar=2.0, k=3)
        check = lambda m: checks.check_hybrid_size(P, m, clf.theta, 3)  # noqa: E731
    else:
        clf = _classifier(scores, "hybrid-error", ebar=0.25, eps=0.3,
                          mode="union-with-pointwise")
        check = lambda m: checks.check_hybrid_union(P, m, clf.theta, 0.3)  # noqa: E731
    mask = clf.predict_set_mask(scores)
    check(mask)
    # in a row with members and non-members, drop the largest member and
    # add the smallest non-member
    sizes = mask.sum(axis=1)
    row = int(np.argmax((sizes > 0) & (sizes < P.shape[1])))
    bad = mask.copy()
    inside = np.flatnonzero(bad[row])
    outside = np.flatnonzero(~bad[row])
    bad[row, inside[np.argmax(P[row, inside])]] = False
    bad[row, outside[np.argmin(P[row, outside])]] = True
    with pytest.raises(CheckFailed):
        check(bad)


def test_checker_rejects_wrong_metrics_and_fits(scores):
    from predsets.evaluation import evaluate

    clf = _classifier(scores, "average-error", ebar=0.1)
    report = evaluate(clf, scores)
    want = checks.threshold_metrics(scores.probs, scores.labels, clf.theta)
    got = {k: getattr(report, k) for k in ("avg_error", "avg_size", "per_class_error")}
    checks.check_report(got, want, "ok")
    with pytest.raises(CheckFailed):
        checks.check_report({**got, "avg_size": got["avg_size"] + 1e-9}, want, "bad")
    true = scores.probs[np.arange(scores.n), scores.labels - 1]
    checks.check_average_error(true, clf.theta, 0.1)
    with pytest.raises(CheckFailed):  # a looser cutoff than the fit's is not tight
        checks.check_average_error(true, clf.theta / 2, 0.1)
    fs = _classifier(scores, "f-score", beta=1.0)
    checks.check_fscore_fit(scores.probs, fs.theta, 1.0)
    with pytest.raises(CheckFailed):
        checks.check_fscore_fit(scores.probs, fs.theta * 1.001, 1.0)


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    import predsets.core

    monkeypatch.setattr(
        spans, "FUNCTIONS",
        spans.FUNCTIONS + (("core.gone", "predsets.core", "no_such_function"),),
    )
    tracer = spans.Tracer()
    original = predsets.core.softmax
    with tracer.installed(), tracer.root("pass"):
        assert predsets.core.softmax is not original
        predsets.core.softmax(np.zeros((2, 3)))
    assert predsets.core.softmax is original
    assert "core.gone" in tracer.absent
    assert tracer.self_times("pass")["core.softmax"] > 0


# --- host speed correction and command measurement ----------------------------


def test_host_probe_states_timings_at_nominal_speed():
    import hostspeed
    from workloads import PassResult

    probe = hostspeed.HostProbe()
    probe.between_ops()
    probe.between_ops()  # within PROBE_EVERY_S of the first: no second sample
    assert len(probe.samples) == 1
    probe.samples = [(4 * hostspeed.NOMINAL_COMPUTE_S, 4 * hostspeed.NOMINAL_MEMORY_S)]
    assert probe.slowdown() == pytest.approx(4.0)
    factor = 4.0 ** hostspeed.CORRECTION_EXPONENT
    assert probe.correction() == pytest.approx(factor)
    passes = [PassResult(wall_s=4.0, fit_s=1.0, eval_s=2.0, eval_rows=100)]
    measured = run.end_to_end(passes, [0.5], 10.0)
    corrected = run.end_to_end(passes, [0.5], 10.0, probe.correction())
    assert corrected["wall_s"] == pytest.approx(measured["wall_s"] / factor)
    assert corrected["setup_s"] == pytest.approx(measured["setup_s"] / factor)
    assert corrected["eval_rows_per_s"] == pytest.approx(
        measured["eval_rows_per_s"] * factor)
    assert corrected["peak_rss_mb"] == measured["peak_rss_mb"]


def test_timed_command_reports_the_command_not_its_parent(tmp_path):
    record = tmp_path / "record.json"
    big = np.ones(40_000_000)  # lifts this process's high-water mark by 320 MB
    big += 1.0
    del big
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "timed_command.py"), str(record), "60",
         sys.executable, "-c", "print('ok')"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "ok"
    measured = json.loads(record.read_text())
    assert 0 < measured["peak_mb"] < 100
    assert measured["seconds"] > 0
