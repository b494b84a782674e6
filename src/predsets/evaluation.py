"""Metrics and trade-off curves for set-valued classifiers.

Error and size can each be measured on average or per input; since the true
conditional error at a single input is unidentifiable from one label, the
per-class error rate serves as its observable proxy throughout.  A sweep
refits on bootstrap resamples by reweighting calibration knots sorted once
and counting sorted test scores at each refit cutoff.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibratedClassifier, calibrate, fit_temperature
from .calibration import _cutoff, _knots, _require_nonempty, rescaled
from .core import ScoreSet, topk_mask
from .errors import EmptyBins, KOutOfRange, PredsetsError
from .formulations import FormulationSpec, Kind, MODE_UNION_POINTWISE
from .formulations import pointwise_error_mask

PERCENTILES = (10, 25, 50, 75, 90)


@dataclass
class MetricsReport:
    """Aggregate quality of a classifier on a labeled test set.

    ``recall`` is the covered fraction and satisfies
    ``recall + avg_error == 1`` exactly.  ``precision`` is covered samples
    divided by the total number of predicted labels, absent (None) when no
    labels were predicted at all.
    """

    avg_error: float
    avg_size: float
    per_class_error: dict[int, float]
    per_class_avg_size: dict[int, float]
    precision: float | None
    recall: float
    f_beta: float
    beta: float
    empty_set_rate: float
    n_samples: int


def evaluate(
    classifier: CalibratedClassifier, test: ScoreSet, beta: float = 1.0
) -> MetricsReport:
    """Compute every aggregate and per-class metric on a labeled test set.

    The test set must be disjoint from the calibration data for the
    numbers to be honest; that is the caller's responsibility.
    """
    labels = test.require_labels("evaluate")
    mask = classifier.predict_set_mask(test)
    n = test.n
    covered = mask[np.arange(n), labels - 1]
    sizes = mask.sum(axis=1)

    recall = float(np.count_nonzero(covered)) / n
    avg_error = 1.0 - recall
    avg_size = float(sizes.sum()) / n
    total_predicted = int(sizes.sum())
    precision = (
        float(np.count_nonzero(covered)) / total_predicted
        if total_predicted > 0
        else None
    )
    f_beta = (1.0 + beta**2) * recall / (beta**2 + avg_size)

    per_class_error: dict[int, float] = {}
    per_class_avg_size: dict[int, float] = {}
    for c in np.unique(labels):
        rows = labels == c
        per_class_error[int(c)] = 1.0 - float(np.mean(covered[rows]))
        per_class_avg_size[int(c)] = float(np.mean(sizes[rows]))

    return MetricsReport(
        avg_error=avg_error,
        avg_size=avg_size,
        per_class_error=per_class_error,
        per_class_avg_size=per_class_avg_size,
        precision=precision,
        recall=recall,
        f_beta=f_beta,
        beta=beta,
        empty_set_rate=float(np.mean(sizes == 0)),
        n_samples=n,
    )


@dataclass
class PerClassViolation:
    """Class-conditional error rates as a proxy for the point-wise error.

    Classes absent from the test set are omitted, never imputed.
    ``violated[c]`` is True when class ``c``'s rate exceeds ``eps``.
    """

    eps: float
    rates: dict[int, float]
    quantiles: dict[int, float]
    violated: dict[int, bool]

    @property
    def violation_fraction(self) -> float:
        if not self.violated:
            return 0.0
        return sum(self.violated.values()) / len(self.violated)

    @classmethod
    def from_rates(
        cls, rates: dict[int, float], eps: float
    ) -> "PerClassViolation":
        """Percentile summary and flags of per-class error ``rates``, such
        as :attr:`MetricsReport.per_class_error`."""
        values = np.array(list(rates.values()))
        quantiles = {q: float(np.percentile(values, q)) for q in PERCENTILES}
        violated = {c: r > eps for c, r in rates.items()}
        return cls(
            eps=eps, rates=rates, quantiles=quantiles, violated=violated
        )


def per_class_violation(
    classifier: CalibratedClassifier, test: ScoreSet, eps: float
) -> PerClassViolation:
    """Per-class error rates, their percentile summary, and violation flags."""
    test.require_labels("per_class_violation")
    return PerClassViolation.from_rates(
        evaluate(classifier, test).per_class_error, eps
    )


@dataclass
class SweepPoint:
    param: float
    avg_error: float | None
    avg_size: float | None
    std_error: float | None
    std_size: float | None
    status: str = "ok"
    violation_quantiles: dict[int, float] | None = None


@dataclass
class SweepCurve:
    kind: str
    points: list[SweepPoint] = field(default_factory=list)


#: Which spec field each kind's sweep varies.
SWEEP_PARAM = {
    Kind.TOP_K: "k",
    Kind.POINTWISE_ERROR: "eps",
    Kind.PENALIZED: "lam",
    Kind.AVERAGE_SIZE: "kbar",
    Kind.AVERAGE_ERROR: "ebar",
    Kind.HYBRID_SIZE: "kbar",
    Kind.HYBRID_ERROR: "ebar",
    Kind.F_SCORE: "beta",
}


def spec_with_param(template: FormulationSpec, value: float) -> FormulationSpec:
    """Copy of ``template`` with its sweep parameter replaced by ``value``."""
    name = SWEEP_PARAM[template.kind]
    if name != "k":
        value = float(value)
    elif float(value) != int(value):
        raise KOutOfRange(
            f"top-k sweeps need integer grid values, got {value!r}"
        )
    else:
        value = int(value)
    return dataclasses.replace(template, **{name: value})


def sweep(
    template: FormulationSpec,
    param_grid,
    calib: ScoreSet,
    test: ScoreSet,
    seeds: int = 10,
    base_seed: int = 0,
    temperature: float | str = 1.0,
    offset: float | str | None = None,
) -> SweepCurve:
    """Refit-and-evaluate curve over a sorted parameter grid.

    At each grid value the formulation is refit on ``seeds`` bootstrap
    resamples of the calibration set (with replacement, same size) and
    evaluated on the held-out set; the point records mean and population
    standard deviation of error and size.  Kinds that need no fitting are
    evaluated once with zero deviation.  A grid value whose fit fails is
    recorded as a failed point instead of aborting the sweep.

    A resample is a count vector over the calibration rows: a fitted
    kind's knots, sorted once, are reweighted by each draw's counts, and
    the test error and size at its cutoff are counts of sorted test scores.
    Each point equals refitting ``calibrate`` on ``calib.subset(draw)`` and
    running :func:`evaluate`.  Under ``temperature="fit"`` each draw refits
    the temperature, so its scores are sorted again.
    """
    grid = [float(v) for v in param_grid]
    if not grid:
        raise ValueError("parameter grid is empty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("parameter grid must be sorted ascending")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")

    curve = SweepCurve(kind=template.kind.value)
    fixed: dict = {}  # temperature -> [calibration knots, test metrics]
    for point_idx, value in enumerate(grid):
        try:
            spec = spec_with_param(template, value)
            if spec.needs_fit:
                errors, sizes, clf = _bootstrap(
                    spec, calib, test, seeds, [base_seed, point_idx],
                    temperature, fixed,
                )
                report = evaluate(clf, test) if spec.eps is not None else None
            else:
                clf = calibrate(
                    spec, calib, temperature=temperature, offset=offset,
                    seed=base_seed,
                )
                report = evaluate(clf, test)
                errors = [report.avg_error] * seeds
                sizes = [report.avg_size] * seeds

            quantiles = None
            if spec.eps is not None:
                quantiles = PerClassViolation.from_rates(
                    report.per_class_error, spec.eps
                ).quantiles
            curve.points.append(
                SweepPoint(
                    param=value,
                    avg_error=float(np.mean(errors)),
                    avg_size=float(np.mean(sizes)),
                    std_error=float(np.std(errors)),
                    std_size=float(np.std(sizes)),
                    violation_quantiles=quantiles,
                )
            )
        except PredsetsError as exc:
            curve.points.append(
                SweepPoint(
                    param=value,
                    avg_error=None,
                    avg_size=None,
                    std_error=None,
                    std_size=None,
                    status=f"failed: {type(exc).__name__}: {exc}",
                )
            )
    return curve


def _bootstrap(spec, calib, test, seeds, stream, temperature, fixed):
    """Test errors and sizes of ``spec`` refit on ``seeds`` bootstrap draws
    of ``calib``, and the first draw's classifier.  Raises what
    ``calibrate`` on the resampled rows, then :func:`evaluate`, would."""
    _require_nonempty(calib)
    spec.check_class_count(calib.L)
    if temperature != "fit" and float(temperature) <= 0:
        raise ValueError(f"temperature={float(temperature)!r} must be > 0")
    errors, sizes, first = [], [], None
    for rep in range(seeds):
        rng = np.random.default_rng([*stream, rep])
        idx = rng.integers(0, calib.n, size=calib.n)
        counts = np.bincount(idx, minlength=calib.n)
        if temperature == "fit":
            # each draw's own temperature: no knots to share across draws
            T, fixed = fit_temperature(calib.subset(idx)), {}
        else:
            T = float(temperature)
        if T not in fixed:
            at = rescaled(calib, T)
            knots = _knots(spec.kind, at.probs, at.labels, spec.k, spec.eps)
            fixed[T] = [knots, None]
        knots, metrics = fixed[T]
        if spec.kind is Kind.AVERAGE_ERROR:
            calib.require_labels("fit_average_error", counts)
        theta = _cutoff(spec, knots.reweight(counts))
        clf = CalibratedClassifier(spec=spec, theta=theta, temperature=T)
        if metrics is None:
            metrics = fixed[T][1] = _metrics_at(clf, test)
        error, size = metrics(theta)
        errors.append(error)
        sizes.append(size)
        first = clf if first is None else first
    return errors, sizes, first


def _metrics_at(clf: CalibratedClassifier, test: ScoreSet):
    """``theta -> (avg_error, avg_size)`` of ``clf``'s rule on ``test``.

    Each total is a base count (entries every cutoff keeps) plus the
    sorted test scores at or above ``theta``: all entries for the
    threshold kinds, the top-``k`` entries for hybrid-size, the entries
    outside the point-wise set in union mode.  Raises what
    :func:`evaluate` raises.
    """
    spec = clf.spec
    labels = test.require_labels("evaluate")
    P = clf.scores_for(test)
    spec.check_class_count(P.shape[1])
    always = np.zeros(P.shape, dtype=bool)
    pool = np.ones(P.shape, dtype=bool)
    if spec.kind is Kind.HYBRID_SIZE:
        pool = topk_mask(P, spec.k)
    elif spec.kind is Kind.HYBRID_ERROR and spec.mode == MODE_UNION_POINTWISE:
        always = pointwise_error_mask(P, spec.eps, 0.0)
        pool = ~always
    n = test.n
    true = (np.arange(n), labels - 1)
    size_base, sized = int(always.sum()), np.sort(P[pool])
    cover_base, covered = int(always[true].sum()), np.sort(P[true][pool[true]])

    def at(theta: float) -> tuple[float, float]:
        size = size_base + sized.size - np.searchsorted(sized, theta)
        cover = cover_base + covered.size - np.searchsorted(covered, theta)
        return 1.0 - float(cover) / n, float(size) / n

    return at


@dataclass
class SizeErrorHistogram:
    """2-D counts of per-class (mean size, error rate) pairs."""

    size_edges: np.ndarray
    error_edges: np.ndarray
    counts: np.ndarray
    per_class_size: dict[int, float]
    per_class_error: dict[int, float]


def size_error_histogram(
    classifier: CalibratedClassifier,
    test: ScoreSet,
    size_bins,
    error_bins,
) -> SizeErrorHistogram:
    """Bucket per-class mean size against per-class error rate.

    Values outside the given edges are clipped into the outermost buckets
    so the counts always sum to the number of classes present.
    """
    size_edges = np.asarray(size_bins, dtype=np.float64)
    error_edges = np.asarray(error_bins, dtype=np.float64)
    if size_edges.size < 2 or error_edges.size < 2:
        raise EmptyBins("need at least two edges per axis")
    m = evaluate(classifier, test)
    classes = sorted(m.per_class_error)
    s = np.clip(
        [m.per_class_avg_size[c] for c in classes],
        size_edges[0],
        size_edges[-1],
    )
    e = np.clip(
        [m.per_class_error[c] for c in classes],
        error_edges[0],
        error_edges[-1],
    )
    counts, _, _ = np.histogram2d(s, e, bins=[size_edges, error_edges])
    return SizeErrorHistogram(
        size_edges=size_edges,
        error_edges=error_edges,
        counts=counts.astype(np.int64),
        per_class_size={c: float(v) for c, v in zip(classes, s)},
        per_class_error={c: float(v) for c, v in zip(classes, e)},
    )
