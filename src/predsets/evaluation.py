"""Metrics and trade-off curves for set-valued classifiers.

Error and size can each be measured on average or per input; since the true
conditional error at a single input is unidentifiable from one label, the
per-class error rate serves as its observable proxy throughout; per-class
rates are integer counts per label, each divided once.  A sweep draws its
bootstrap resamples once, fits each as ``calibrate`` fits the drawn rows
(``calibration._draw_fit``), reads every grid value's cutoff off the
draw's knots and counts test entries.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import CalibratedClassifier, calibrate, fit_temperature
from .calibration import _check_offset, _cutoff, _draw_fit, _probs_at
from .calibration import _require_nonempty
from .core import ScoreSet, label_entries, row_counts
from .errors import ClassCountMismatch, EmptyScoreSet, InvalidBeta
from .errors import KOutOfRange, PredsetsError
from .formulations import FormulationSpec, KIND_FIELDS, rule_mask

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
    """Compute every aggregate and per-class metric on a labeled test set
    of at least one row.

    The test set must be disjoint from the calibration data for the
    numbers to be honest; that is the caller's responsibility.  ``beta``
    must be finite and > 0 (:class:`InvalidBeta`).
    """
    if not 0.0 < beta < math.inf:
        raise InvalidBeta(f"beta={beta!r} must be finite and > 0")
    labels = _test_labels(test)
    mask = classifier.predict_set_mask(test)
    n = test.n
    covered = label_entries(mask, labels)
    sizes = row_counts(mask)

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

    # per-class rates from exact integer counts, each divided once
    count = np.bincount(labels)
    present = np.flatnonzero(count)
    count = count[present]
    hits = np.bincount(labels, weights=covered)[present]
    held = np.bincount(labels, weights=sizes)[present]
    classes = present.tolist()
    per_class_error = dict(zip(classes, (1.0 - hits / count).tolist()))
    per_class_avg_size = dict(zip(classes, (held / count).tolist()))

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


def _test_labels(test: ScoreSet) -> np.ndarray:
    """The labels of a test set, raising :class:`MissingLabels` when some
    are missing and :class:`EmptyScoreSet` when there are none."""
    labels = test.require_labels("evaluate")
    if test.n == 0:
        raise EmptyScoreSet("evaluation needs at least one sample")
    return labels


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
        values = np.percentile(list(rates.values()), PERCENTILES)
        quantiles = dict(zip(PERCENTILES, values.tolist()))
        violated = {c: r > eps for c, r in rates.items()}
        return cls(
            eps=eps, rates=rates, quantiles=quantiles, violated=violated
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


def spec_with_param(template: FormulationSpec, value: float) -> FormulationSpec:
    """Copy of ``template`` with its swept field, the first its kind takes,
    replaced by ``value``."""
    name = KIND_FIELDS[template.kind][0]
    if name != "k":
        value = float(value)
    elif not float(value).is_integer():  # inf and NaN included
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
    """Refit-and-evaluate curve over a parameter grid sorted ascending
    (a NaN value is a failed point, outside the order).

    Every grid value is refit on the same ``seeds`` bootstrap resamples of
    the calibration set (with replacement, same size) and evaluated on the
    held-out set; the point records mean and population standard deviation
    of error and size.  Kinds that need no fitting are evaluated once with
    zero deviation.  A grid value whose fit fails is recorded as a failed
    point instead of aborting the sweep.

    A resample is a count vector over the calibration rows, fitted as
    ``calibrate`` fits the resampled rows (``calibration._draw_fit``), and
    every grid value's cutoff is read off that draw's knots, so each draw's
    cutoffs, and the curve, are monotone in the swept field.  The test error
    and size at a cutoff are counts of test scores.  Each point equals
    refitting ``calibrate`` on ``calib.subset(draw)`` and running
    :func:`evaluate`, except that a test set over another class count than
    ``calib`` raises :class:`ClassCountMismatch` up front, before any fit.
    A fitted point's ``violation_quantiles`` are those of the per-class
    rates of its first draw's classifier, not of all draws.
    """
    if test.L != calib.L:
        raise ClassCountMismatch(
            f"calibration scores have L={calib.L}, test scores have L={test.L}"
        )
    grid = [float(v) for v in param_grid]
    if not grid:
        raise ValueError("parameter grid is empty")
    values = [v for v in grid if not math.isnan(v)]
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("parameter grid must be sorted ascending")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if base_seed < 0:
        raise ValueError("base_seed must be >= 0")
    _check_offset(template, offset)

    specs, outcome = {}, {}  # grid index -> spec; fit or first error
    for i, value in enumerate(grid):
        try:
            spec = spec_with_param(template, value)
            _require_nonempty(calib)  # what calibrate checks first
            spec.check_class_count(calib.L)
            specs[i] = spec
        except PredsetsError as exc:
            outcome[i] = exc
    if template.needs_fit:
        outcome.update(_bootstrap(
            specs, calib, test, seeds, base_seed, temperature))
    elif temperature == "fit":  # one fit serves every grid value
        try:
            temperature = fit_temperature(calib)
        except PredsetsError as exc:
            outcome.update(dict.fromkeys(specs, exc))

    curve = SweepCurve(kind=template.kind.value)
    for i, value in enumerate(grid):
        try:
            if isinstance(outcome.get(i), PredsetsError):
                raise outcome[i]
            spec = specs[i]
            if spec.needs_fit:
                errors, sizes, clf = outcome[i]
                report = evaluate(clf, test) if spec.eps is not None else None
            else:
                clf = calibrate(spec, calib, temperature=temperature,
                                offset=offset, seed=base_seed)
                report = evaluate(clf, test)
                errors = [report.avg_error] * seeds
                sizes = [report.avg_size] * seeds

            quantiles = None
            if spec.eps is not None:
                quantiles = PerClassViolation.from_rates(
                    report.per_class_error, spec.eps
                ).quantiles
            curve.points.append(SweepPoint(
                value, float(np.mean(errors)), float(np.mean(sizes)),
                float(np.std(errors)), float(np.std(sizes)),
                violation_quantiles=quantiles,
            ))
        except PredsetsError as exc:
            curve.points.append(SweepPoint(
                value, None, None, None, None,
                status=f"failed: {type(exc).__name__}: {exc}",
            ))
    return curve


def _bootstrap(specs, calib, test, seeds, base_seed, temperature):
    """Each of ``specs`` (grid index -> spec at a grid value) refit on the
    same ``seeds`` bootstrap draws of ``calib``: its test errors, sizes and
    first draw's classifier, or the first error ``calibrate`` on a draw's
    rows, then :func:`evaluate`, raises for it.  An error in a draw's fit
    (``_draw_fit`` at the largest value, made once a spec is alive) fails
    every spec still alive; the test set's label checks fail each spec whose
    cutoff was found."""
    out, alive, fit, at_T = {}, dict(specs), None, None
    try:
        for rep in range(seeds):
            if not alive:
                break
            fit = fit or _draw_fit(specs[max(specs)], calib, temperature)
            rng = np.random.default_rng([base_seed, rep])
            idx = rng.integers(0, calib.n, size=calib.n)
            T, knots = fit(idx, np.bincount(idx, minlength=calib.n))
            if T != at_T:  # the test counts at the draw's temperature
                at, at_T = None, T
            for i, spec in list(alive.items()):
                try:
                    theta = _cutoff(spec, knots)
                    if at is None:
                        at = _metrics_at(spec, T, test)
                    error, size = at(theta)
                except PredsetsError as exc:
                    out[i] = exc
                    del alive[i]
                    continue
                if rep == 0:
                    out[i] = [], [], CalibratedClassifier(spec, theta, T)
                out[i][0].append(error)
                out[i][1].append(size)
            del knots  # and its mass, before the next draw's
    except PredsetsError as exc:
        for i in alive:
            out[i] = exc
    return out


def _metrics_at(spec: FormulationSpec, T: float, test: ScoreSet):
    """``theta -> (avg_error, avg_size)`` of ``spec``'s rule at temperature
    ``T`` on ``test``.

    Each total counts the rule's mask at ``inf`` plus its pool (mask at 0
    less that) at or above ``theta``, a binary search of the pool sorted
    once.  Raises what :func:`evaluate` raises.
    """
    labels = _test_labels(test)
    P = _probs_at(test, T)
    always = rule_mask(spec, P, math.inf)
    pool = rule_mask(spec, P, 0.0) & ~always
    n = test.n
    sized = np.sort(P[pool])
    covered = np.sort(label_entries(P, labels)[label_entries(pool, labels)])
    size_base = int(always.sum()) + sized.size
    cover_base = int(label_entries(always, labels).sum()) + covered.size

    def at(theta: float) -> tuple[float, float]:
        size = size_base - np.searchsorted(sized, theta)
        cover = cover_base - np.searchsorted(covered, theta)
        return 1.0 - float(cover) / n, float(size) / n

    return at
