"""Metrics and trade-off curves for set-valued classifiers.

Error and size can each be measured on average or per input; since the true
conditional error at a single input is unidentifiable from one label, the
per-class error rate serves as its observable proxy throughout.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibratedClassifier, calibrate
from .core import ScoreSet
from .errors import EmptyBins, KOutOfRange, PredsetsError
from .formulations import FormulationSpec, Kind

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
    beta: float = 1.0,
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
    """
    grid = [float(v) for v in param_grid]
    if not grid:
        raise ValueError("parameter grid is empty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("parameter grid must be sorted ascending")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")

    curve = SweepCurve(kind=template.kind.value)
    for point_idx, value in enumerate(grid):
        try:
            spec = spec_with_param(template, value)
            if spec.needs_fit:
                reports = []
                for rep in range(seeds):
                    rng = np.random.default_rng(
                        [base_seed, point_idx, rep]
                    )
                    idx = rng.integers(0, calib.n, size=calib.n)
                    clf = calibrate(
                        spec,
                        calib.subset(idx),
                        temperature=temperature,
                        offset=offset,
                        seed=base_seed,
                    )
                    reports.append(evaluate(clf, test, beta=beta))
            else:
                clf = calibrate(
                    spec, calib, temperature=temperature, offset=offset,
                    seed=base_seed,
                )
                reports = [evaluate(clf, test, beta=beta)] * seeds
            errors = [m.avg_error for m in reports]
            sizes = [m.avg_size for m in reports]

            quantiles = None
            if spec.eps is not None:
                quantiles = PerClassViolation.from_rates(
                    reports[0].per_class_error, spec.eps
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
