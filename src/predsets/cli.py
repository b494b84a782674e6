"""Command-line front end.

Commands: ``calibrate``, ``predict``, ``evaluate``, ``sweep``, ``synth``,
``oracle-check``.  All commands are deterministic given their input files
and seed; prediction row order always equals input row order.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .calibration import CalibratedClassifier, calibrate
from .core import ScoreSet
from .errors import ClassCountMismatch, PredsetsError
from .evaluation import SWEEP_PARAM, PerClassViolation, evaluate, sweep
from .formulations import FormulationSpec, Kind, MODE_LEMMA_THRESHOLD
from .oracle import (
    equivalence_suite,
    infeasibility_records,
    make_distribution,
    random_test_distribution,
    sample_scores,
)


def _add_formulation_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--formulation",
        required=True,
        choices=[k.value for k in Kind],
        help="which optimization formulation to use",
    )
    parser.add_argument("--k", type=int, help="point-wise size cap")
    parser.add_argument("--eps", type=float, help="point-wise error bound")
    parser.add_argument("--ebar", type=float, help="average error budget")
    parser.add_argument("--kbar", type=float, help="average size budget")
    parser.add_argument(
        "--lambda", dest="lam", type=float, help="size penalty weight"
    )
    parser.add_argument("--beta", type=float, help="F-score weight")
    parser.add_argument(
        "--mode",
        default=MODE_LEMMA_THRESHOLD,
        help="hybrid-error combine mode",
    )


def _spec_from_args(args) -> FormulationSpec:
    kind = Kind(args.formulation)
    kwargs = {}
    for name in ("k", "eps", "ebar", "kbar", "lam", "beta"):
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    if kind is Kind.HYBRID_ERROR:
        kwargs["mode"] = args.mode
    # --offset stays out of the spec: calibrate resolves it (see _offset_arg)
    return FormulationSpec(kind, **kwargs)


def _offset_arg(value: str | None):
    if value is None or value == "auto":
        return value
    return float(value)


def _temperature_arg(value: str):
    return value if value == "fit" else float(value)


def _check_class_count(clf: CalibratedClassifier, scores: ScoreSet) -> None:
    model_L = clf.provenance.get("L")
    if model_L is not None and model_L != scores.L:
        raise ClassCountMismatch(
            f"model was fit with L={model_L}, scores have L={scores.L}"
        )


def cmd_calibrate(args) -> int:
    scores = io.read_scores(args.scores)
    spec = _spec_from_args(args)
    clf = calibrate(
        spec,
        scores,
        temperature=_temperature_arg(args.temperature),
        offset=_offset_arg(args.offset),
        seed=args.seed,
    )
    io.write_model(args.model, clf)
    print(f"kind: {clf.spec.kind.value}")
    if clf.theta is not None:
        print(f"theta: {io.fmt(clf.theta)}")
    print(f"temperature: {io.fmt(clf.temperature)}")
    print(f"offset: {io.fmt(clf.offset)}")
    # self-consistency on the calibration set itself
    mask = clf.predict_set_mask(scores)
    sizes = mask.sum(axis=1)
    print(f"calibration_avg_size: {io.fmt(float(np.mean(sizes)))}")
    if scores.fully_labeled:
        covered = mask[np.arange(scores.n), scores.labels - 1]
        print(
            f"calibration_avg_error: {io.fmt(1.0 - float(np.mean(covered)))}"
        )
    print(f"model written to {args.model}")
    return 0


def cmd_predict(args) -> int:
    clf = io.read_model(args.model)
    scores = io.read_scores(args.scores)
    _check_class_count(clf, scores)
    mask = clf.predict_set_mask(scores)
    io.write_predictions(args.out, scores.ids, mask)
    print(f"{scores.n} predictions written to {args.out}")
    return 0


#: Slack-free point-wise caps are checked exactly; everything else gets
#: the user's slack.
def _gate_violations(clf, metrics, violation, slack):
    spec = clf.spec
    problems = []
    if spec.kbar is not None and metrics.avg_size > spec.kbar + slack:
        problems.append(
            f"avg_size {io.fmt(metrics.avg_size)} > kbar {io.fmt(spec.kbar)}"
            f" + slack {io.fmt(slack)}"
        )
    if spec.ebar is not None and metrics.avg_error > spec.ebar + slack:
        problems.append(
            f"avg_error {io.fmt(metrics.avg_error)} > ebar"
            f" {io.fmt(spec.ebar)} + slack {io.fmt(slack)}"
        )
    if violation is not None:
        bad = [c for c, flag in violation.violated.items() if flag]
        worst = max(violation.rates.values())
        if worst > spec.eps + slack:
            problems.append(
                f"{len(bad)} classes exceed eps {io.fmt(spec.eps)}"
                f" + slack {io.fmt(slack)} (worst {io.fmt(worst)})"
            )
    return problems


def cmd_evaluate(args) -> int:
    clf = io.read_model(args.model)
    test = io.read_scores(args.test)
    _check_class_count(clf, test)
    metrics = evaluate(clf, test, beta=args.beta)
    violation = None
    if clf.spec.eps is not None:
        violation = PerClassViolation.from_rates(
            metrics.per_class_error, clf.spec.eps
        )

    gate_lines = None
    problems = []
    if args.gate_slack is not None:
        problems = _gate_violations(clf, metrics, violation, args.gate_slack)
        gate_lines = [f"gate_slack: {io.fmt(args.gate_slack)}"]
        gate_lines.append(f"gate_violations: {len(problems)}")
        gate_lines += [f"gate: {p}" for p in problems]
    io.write_metrics(args.out, metrics, gate_lines)
    if args.per_class:
        io.write_per_class(args.per_class, metrics)
    print(io.metrics_text(metrics, gate_lines), end="")
    if problems:
        for p in problems:
            print(f"CONSTRAINT VIOLATED: {p}")
        return 1
    return 0


def cmd_sweep(args) -> int:
    calib = io.read_scores(args.calib)
    test = io.read_scores(args.test)
    template = _spec_from_args_sweep(args, calib.L)
    grid = [float(v) for v in args.grid.split(",") if v != ""]
    curve = sweep(
        template,
        grid,
        calib,
        test,
        seeds=args.repeats,
        base_seed=args.seed or 0,
        temperature=_temperature_arg(args.temperature),
        offset=_offset_arg(args.offset),
    )
    io.write_curve(args.out, curve)
    n_failed = sum(1 for pt in curve.points if pt.status != "ok")
    print(
        f"{len(curve.points)} grid points ({n_failed} failed) "
        f"written to {args.out}"
    )
    return 0


def _spec_from_args_sweep(args, L: int) -> FormulationSpec:
    """Build a sweep template; the swept parameter gets a placeholder."""
    kind = Kind(args.formulation)
    placeholder = {
        Kind.TOP_K: dict(k=1),
        Kind.POINTWISE_ERROR: dict(eps=0.5),
        Kind.PENALIZED: dict(lam=0.0),
        Kind.AVERAGE_SIZE: dict(kbar=1.0),
        Kind.AVERAGE_ERROR: dict(ebar=0.5),
        Kind.HYBRID_SIZE: dict(kbar=1.0, k=L),
        Kind.HYBRID_ERROR: dict(ebar=0.0, eps=1.0),
        Kind.F_SCORE: dict(beta=1.0),
    }[kind]
    kwargs = dict(placeholder)
    for name in ("k", "eps", "ebar", "kbar", "lam", "beta"):
        value = getattr(args, name, None)
        if value is not None and name != SWEEP_PARAM[kind]:
            kwargs[name] = value
    if kind is Kind.HYBRID_ERROR:
        kwargs["mode"] = args.mode
    return FormulationSpec(kind, **kwargs)


def cmd_synth(args) -> int:
    dist = make_distribution(
        args.template, args.classes, args.seed, support=args.support
    )
    scores = sample_scores(dist, args.n, args.seed, noise=args.noise)
    if args.split:
        parts = [int(v) for v in args.split.split(",")]
        if len(parts) != 3 or sum(parts) != args.n or min(parts) < 1:
            raise PredsetsError(
                f"--split must be three positive counts summing to {args.n}"
            )
    else:
        if args.n % 3:
            raise PredsetsError(
                "--split required when n is not divisible by 3"
            )
        parts = [args.n // 3] * 3
    start = 0
    for name, count in zip(("train", "calib", "test"), parts):
        piece = scores.subset(np.arange(start, start + count))
        path = f"{args.out_prefix}_{name}.csv"
        io.write_scores(path, piece)
        print(f"{count} rows written to {path}")
        start += count
    truth_path = f"{args.out_prefix}_truth.csv"
    io.write_distribution(truth_path, dist)
    print(f"distribution written to {truth_path}")
    return 0


def cmd_oracle_check(args) -> int:
    rng = np.random.default_rng(args.seed or 0)
    if args.fixture:
        dists = [(io.read_distribution(args.fixture), "fixture")]
    else:
        dists = [
            (random_test_distribution(rng), f"d{i:02d}")
            for i in range(args.count)
        ]
    header = (
        f"{'dist':<8}{'formulation':<34}{'closed':>14}{'brute':>14}"
        f"{'gap':>10}{'constraint':>11}{'verdict':>9}"
    )
    print(header)
    print("-" * len(header))
    n_bad = 0
    for dist, label in dists:
        records = equivalence_suite(dist, rng, dist_label=label)
        records += infeasibility_records(dist, rng, dist_label=label)
        for r in records:
            verdict = (
                ("ok" if r.passed else "MISMATCH")
                if r.judged
                else "reported"
            )
            n_bad += int(r.judged and not r.passed)
            print(
                f"{r.dist_label:<8}{r.formulation:<34}"
                f"{r.closed_objective:>14.9f}{r.brute_objective:>14.9f}"
                f"{r.gap:>10.1e}{str(r.constraint_ok):>11}{verdict:>9}"
            )
    print(
        f"{n_bad} mismatches across {len(dists)} distributions"
    )
    return 1 if n_bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predsets",
        description=(
            "Set-valued multi-class prediction: calibrate thresholds, "
            "predict label sets, and evaluate error/size trade-offs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit a classifier and persist it")
    _add_formulation_args(p)
    p.add_argument("--scores", required=True, help="calibration score CSV")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument(
        "--offset",
        default=None,
        help="point-wise offset: a number or 'auto' for sqrt(L/n)",
    )
    p.add_argument(
        "--temperature",
        default="1.0",
        help="a number, or 'fit' to learn it from logits",
    )
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("predict", help="predict label sets for a score file")
    p.add_argument("--model", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metrics on a labeled test file")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True, help="metrics text file")
    p.add_argument("--per-class", default=None, help="per-class CSV")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument(
        "--gate-slack",
        type=float,
        default=None,
        help=(
            "enable CI gating: exit nonzero when the model's declared "
            "constraint is violated beyond this slack"
        ),
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="error/size curve over a parameter grid")
    _add_formulation_args(p)
    p.add_argument("--grid", required=True, help="comma-separated values")
    p.add_argument("--calib", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offset", default=None)
    p.add_argument("--temperature", default="1.0")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate synthetic score files")
    p.add_argument(
        "--template",
        required=True,
        choices=("two-regime", "dirichlet-like", "near-deterministic"),
    )
    p.add_argument("--classes", type=int, required=True, help="class count L")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--support", type=int, default=None)
    p.add_argument(
        "--split", default=None, help="train,calib,test sizes (sum to n)"
    )
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "oracle-check",
        help="closed-form vs brute-force equivalence suite",
    )
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixture", default=None, help="distribution CSV")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PredsetsError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
