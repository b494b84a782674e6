"""Fitting every distribution-dependent quantity of the prediction rules.

The average-size, average-error, hybrid and F-score rules all threshold the
probability vector at a cutoff that depends on the unknown distribution.
This module estimates those cutoffs from data: empirical step functions
over pooled scores, their generalized inverses, the point-wise offset, the
F-score root, temperature scaling, and the feasibility check for the
average-error-with-size-cap problem.

Every fitted cutoff is read off one representation, the sorted knots of
:class:`EmpiricalStepFunction`: a generalized inverse of G, G_k or H, the
largest knot reaching a level of H_eps, or the exact F-score root.  The
knots carry per-sample counts, so a bootstrap replicate is the same knots
reweighted (see ``evaluation.sweep``).
"""

from __future__ import annotations

import copy
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .core import ScoreSet, mask_to_labels, softmax, topk_mask
from .core import validate_probability_vector
from .errors import EmptyScoreSet, InfeasiblePair, InvalidOffset, KOutOfRange
from .errors import MissingLogits, NegativeU, ParameterOrderViolation
from .errors import Saturated, TooFewClasses
from .formulations import FormulationSpec, Kind, pointwise_error_mask, rule_mask


class EmpiricalStepFunction:
    """A non-increasing step function ``f(t) = (weight of knots >= t) / norm``.

    Entries with equal score merge into one knot carrying their summed
    weight; ``weights`` may be one scalar for every entry.  ``f(0)`` equals
    the total weight over ``norm`` and ``f(t) = 0`` for ``t`` above the
    largest knot.  This is the one representation of the empirical (and
    exact, in the oracle) pooled-score function G, the true-class-score
    function H, and their hybrid variants G_k and H_eps.

    The entries are sorted once.  Given ``rows``, the sample each entry
    belongs to, :meth:`reweight` evaluates ``f`` for per-sample counts
    without sorting again: a bootstrap replicate is the same knots carrying
    multinomial counts.  Integer weights stay integers, so ``tail`` holds
    exact counts, compared against ``level * norm``.
    """

    def __init__(self, scores, weights, rows=None, norm=1):
        scores = np.asarray(scores, dtype=np.float64).ravel()
        weights = np.asarray(weights)
        if weights.ndim and weights.size != scores.size:
            raise ValueError("scores and weights must have equal length")
        if np.any(weights < 0):
            raise ValueError("knot weights must be nonnegative")
        if weights.ndim:
            order = np.argsort(scores, kind="stable")
            ordered = scores[order]
        else:
            ordered = np.sort(scores)
        first = np.ones(ordered.size, dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        self.scores = ordered[first]
        self.norm = norm
        self._start = np.flatnonzero(first)
        # the entries as given; reweight sorts their rows on first use
        self._entries = (scores, weights, rows)
        self._sorted = None
        if weights.ndim:
            self._merge(weights.ravel()[order])
        else:
            self._set(np.diff(self._start, append=ordered.size) * weights)

    def _merge(self, weights):
        # sum the weights of the sorted entries knot by knot, unless every
        # knot is one entry
        if self._start.size < weights.size:
            weights = np.add.reduceat(weights, self._start)
        self._set(weights)

    def _set(self, weight):
        # weight[j] = weight of knot j; tail[j] = weight at or above it
        self.weight = weight
        self.tail = np.cumsum(weight[::-1])[::-1]

    def reweight(self, counts) -> "EmpiricalStepFunction":
        """The same knots, each entry's weight times its sample's count.

        The entries of one knot are summed in sorted order, which for
        float weights need not be the order the constructor used.
        """
        if self._sorted is None:
            scores, weights, rows = self._entries
            if rows is None:
                raise ValueError("reweight needs the rows of the entries")
            order = np.argsort(scores)
            self._sorted = (
                np.asarray(rows).ravel()[order],
                weights.ravel()[order] if weights.ndim else weights,
            )
        rows, weights = self._sorted
        out = copy.copy(self)
        out._merge(np.asarray(counts)[rows] * weights)
        return out

    def mass(self) -> "EmpiricalStepFunction":
        """The same knots, each weighing its score times its weight / norm.

        Computed per merged knot, so a knot's weight does not depend on the
        order or multiplicity of the entries that make it up.
        """
        out = copy.copy(self)
        out.norm = 1
        out._set(self.weight * (self.scores / self.norm))
        return out

    @property
    def total(self) -> float:
        """Value at t = 0 (all knots counted)."""
        return float(self.tail[0] / self.norm) if self.scores.size else 0.0

    def value(self, t) -> np.ndarray | float:
        """Evaluate ``f`` at scalar or array ``t``."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.scores, t, side="left")
        out = np.append(self.tail, 0)[idx] / self.norm
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        return (
            f"EmpiricalStepFunction({self.scores.size} knots, "
            f"total={self.total!r})"
        )


def generalized_inverse(f: EmpiricalStepFunction, u: float) -> float:
    """Smallest cutoff at which the step function has dropped to ``u``.

    Follows ``inf{t : f(t) <= u}`` restricted to the knots that carry
    weight: returns 0 when ``f(0) <= u`` already, otherwise the smallest
    such knot score whose value is ``<= u``.  When even the largest knot
    leaves ``f`` above ``u`` the request is unattainable and
    :class:`Saturated` is raised (carrying the largest knot score) instead
    of silently clamping.
    """
    u = float(u)
    if u < 0:
        raise NegativeU(f"u={u!r} < 0")
    level = u * f.norm
    if f.scores.size == 0 or f.tail[0] <= level:
        return 0.0
    # tail is non-increasing over ascending scores; find the first knot
    # with tail <= level, then the first knot from there that has weight
    idx = int(np.searchsorted(-f.tail, -level, side="left"))
    heavy = np.flatnonzero(f.weight[idx:])
    if heavy.size == 0:  # report the largest knot that carries weight
        raise Saturated(u, float(f.scores[np.flatnonzero(f.weight)[-1]]))
    return float(f.scores[idx + heavy[0]])


def largest_level_knot(f: EmpiricalStepFunction, level: float) -> float:
    """Largest knot score at which ``f`` still reaches ``level``.

    This is the opposite orientation from :func:`generalized_inverse`: used
    where the contract is "keep ``f`` at or above the level", e.g. cumulated
    true-class mass must stay above ``1 - ebar``.  Raises
    :class:`InfeasiblePair` when no knot attains the level.
    """
    if f.scores.size == 0 or f.tail[0] < level * f.norm:
        raise InfeasiblePair(
            f"step function never reaches level {level!r} "
            f"(maximum attainable {f.total!r})"
        )
    # last knot with tail >= level
    idx = int(np.searchsorted(-f.tail, -level * f.norm, side="right")) - 1
    return float(f.scores[idx])


def fscore_root(g: EmpiricalStepFunction, beta: float) -> float:
    """Exact root of the F-score condition over the pooled scores ``g``.

    ``phi(theta) = beta^2 theta - sum_{knots s > theta} (s - theta) w(s) / norm``
    is continuous, strictly increasing and linear between knots.  With
    ``M_j`` and ``W_j`` the mass and weight of the knots at or above
    ``s_j``, the root on the segment below the first knot where
    ``phi >= 0`` is ``theta = M_j / (norm beta^2 + W_j)``.  That knot is
    found by binary search; ``phi`` is non-negative at the largest one.
    """
    mass = g.mass().tail  # M_j / norm
    b2 = beta * beta
    lo, hi = 0, g.scores.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        s = g.scores[mid]
        if b2 * s - (mass[mid] - s * (g.tail[mid] / g.norm)) >= 0.0:
            hi = mid
        else:
            lo = mid + 1
    return float(mass[lo] / (b2 + g.tail[lo] / g.norm))


# --- empirical step-function builders ---------------------------------------


def _knots(kind: Kind, P: np.ndarray, labels, k=None, eps=None):
    """Unit-count knots, over rows of ``P``, of the step function the
    cutoff of ``kind`` inverts: G (average-size, f-score), H
    (average-error), G_k (hybrid-size) or the member counts of H_eps
    (hybrid-error)."""
    n = P.shape[0]
    rows = None
    if kind is Kind.AVERAGE_ERROR:
        values = P[np.arange(n), labels - 1][:, None]
    elif kind is Kind.HYBRID_SIZE:
        values = np.sort(P, axis=1)[:, -k:]
    elif kind is Kind.HYBRID_ERROR:
        rows, cols = np.nonzero(pointwise_error_mask(P, eps, 0.0))
        values = P[rows, cols]
    else:
        values = P
    if rows is None:
        rows = np.broadcast_to(np.arange(n)[:, None], values.shape)
    return EmpiricalStepFunction(values, 1, rows, norm=n)


def _cutoff(spec: FormulationSpec, f: EmpiricalStepFunction) -> float:
    """The fitted threshold of ``spec`` from its (reweighted) knots."""
    kind = spec.kind
    if kind in (Kind.AVERAGE_SIZE, Kind.HYBRID_SIZE):
        return generalized_inverse(f, spec.kbar)
    if kind is Kind.AVERAGE_ERROR:
        return largest_level_knot(f, 1.0 - spec.ebar)
    if kind is Kind.HYBRID_ERROR:
        return largest_level_knot(f.mass(), 1.0 - spec.ebar)
    return fscore_root(f, spec.beta)


def empirical_g(scores: ScoreSet) -> EmpiricalStepFunction:
    """Pooled-score function: counts all N*L probabilities, over norm N.

    Its value at ``t`` is the average predicted-set size of the thresholding
    rule at cutoff ``t`` on the calibration samples.
    """
    _require_nonempty(scores)
    return _knots(Kind.AVERAGE_SIZE, scores.probs, None)


def empirical_h(scores: ScoreSet) -> EmpiricalStepFunction:
    """True-class-score function: one knot per labeled sample, over norm n.

    Its value at ``t`` is the fraction of calibration samples whose
    true-class probability reaches ``t`` -- i.e. one minus the empirical
    error of the thresholding rule at cutoff ``t``.
    """
    _require_nonempty(scores)
    labels = scores.require_labels("empirical_h")
    return _knots(Kind.AVERAGE_ERROR, scores.probs, labels)


def empirical_g_k(scores: ScoreSet, k: int) -> EmpiricalStepFunction:
    """Pooled top-``k`` order-statistic scores, counted over norm N."""
    _require_nonempty(scores)
    if not 1 <= k <= scores.L:
        raise KOutOfRange(f"k={k!r} outside [1, {scores.L}]")
    return _knots(Kind.HYBRID_SIZE, scores.probs, None, k=k)


def empirical_h_eps(scores: ScoreSet, eps: float) -> EmpiricalStepFunction:
    """Mass-weighted knots of each sample's point-wise error set at ``eps``.

    For each sample the minimal top set reaching mass ``1 - eps`` is found;
    each of its scores ``p`` contributes a knot ``(p, p / N)``.  The total
    is therefore at most one.
    """
    _require_nonempty(scores)
    return _knots(Kind.HYBRID_ERROR, scores.probs, None, eps=eps).mass()


def _require_nonempty(scores: ScoreSet) -> None:
    if scores.n == 0:
        raise EmptyScoreSet("calibration needs at least one sample")


# --- calibrated classifier ---------------------------------------------------


@dataclass
class CalibratedClassifier:
    """A formulation together with every fitted quantity it needs.

    ``theta`` is present exactly for the threshold-fitted kinds
    (average-size, average-error, hybrid-size, hybrid-error, f-score);
    ``offset`` applies to the point-wise error rule; ``temperature``
    rescales logits before prediction when it differs from the score set's.
    """

    spec: FormulationSpec
    theta: float | None = None
    temperature: float = 1.0
    offset: float = 0.0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.spec.needs_fit and self.theta is None:
            raise ValueError(
                f"{self.spec.kind.value} needs a fitted threshold"
            )
        if not self.spec.needs_fit and self.theta is not None:
            raise ValueError(
                f"{self.spec.kind.value} takes no fitted threshold"
            )
        if self.temperature <= 0:
            raise ValueError(f"temperature={self.temperature!r} must be > 0")
        if self.offset < 0:
            raise InvalidOffset(f"offset={self.offset!r} < 0")
        # the classifier-level offset is the resolved one; adopt the
        # requested value from the spec when none was resolved explicitly
        if self.spec.kind is Kind.POINTWISE_ERROR and self.offset == 0.0:
            self.offset = self.spec.offset

    def predict_mask(self, P: np.ndarray) -> np.ndarray:
        """Boolean membership mask over rows of a probability matrix."""
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        self.spec.check_class_count(P.shape[1])
        return rule_mask(self.spec, P, self.theta, offset=self.offset)

    def predict(self, p: np.ndarray) -> np.ndarray:
        """Ascending labels of one validated vector: a row of predict_mask."""
        row = validate_probability_vector(p)[None, :]
        return mask_to_labels(self.predict_mask(row)[0])

    def scores_for(self, scores: ScoreSet) -> np.ndarray:
        """Probability matrix of ``scores`` at this classifier's temperature.

        When the temperatures already agree the stored probabilities are
        used as-is; otherwise the logits are rescaled (raising
        :class:`MissingLogits` when unavailable).
        """
        if self.temperature == scores.temperature:
            return scores.probs
        if scores.logits is None:
            raise MissingLogits(
                f"classifier expects temperature {self.temperature!r} but the "
                f"score set was produced at {scores.temperature!r} and "
                "carries no logits to rescale"
            )
        return softmax(scores.logits / self.temperature)

    def predict_set_mask(self, scores: ScoreSet) -> np.ndarray:
        """Membership mask for a whole ScoreSet, honoring the temperature."""
        return self.predict_mask(self.scores_for(scores))


def _provenance(n: int, seed: int | None) -> dict:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp = float(epoch) if epoch is not None else time.time()
    fitted_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(stamp))
    return {"calibration_set_size": n, "seed": seed, "fitted_at": fitted_at}


# --- threshold fits -----------------------------------------------------------


def _fitted(
    spec: FormulationSpec, scores: ScoreSet, seed: int | None
) -> CalibratedClassifier:
    """Classifier at the cutoff of ``spec`` on unit-count knots of ``scores``."""
    spec.check_class_count(scores.L)
    if spec.kind is Kind.AVERAGE_ERROR:
        scores.require_labels("fit_average_error")
    knots = _knots(spec.kind, scores.probs, scores.labels, spec.k, spec.eps)
    theta = _cutoff(spec, knots)
    return CalibratedClassifier(
        spec=spec, theta=theta, provenance=_provenance(scores.n, seed)
    )


def fit_average_size(
    scores: ScoreSet, kbar: float, seed: int | None = None
) -> CalibratedClassifier:
    """Fit the average-size rule: threshold = generalized inverse of the
    pooled-score function at the size budget ``kbar`` in ``(0, L]``.

    The pooled scores carry integer counts compared against ``kbar * N``,
    so the cutoff is tight whenever that budget is an integer.
    """
    _require_nonempty(scores)
    spec = FormulationSpec(Kind.AVERAGE_SIZE, kbar=float(kbar))
    return _fitted(spec, scores, seed)


def fit_average_error(
    scores: ScoreSet, ebar: float, seed: int | None = None
) -> CalibratedClassifier:
    """Fit the average-error rule from labeled calibration data.

    The threshold is the ``ceil(n' * (1 - ebar))``-th largest true-class
    score, so the empirical error on the calibration set is at most
    ``ebar``: the largest knot of the counted true-class-score function
    that still reaches ``1 - ebar``.
    """
    _require_nonempty(scores)
    spec = FormulationSpec(Kind.AVERAGE_ERROR, ebar=float(ebar))
    return _fitted(spec, scores, seed)


def fit_hybrid_size(
    scores: ScoreSet, kbar: float, k: int, seed: int | None = None
) -> CalibratedClassifier:
    """Fit the hybrid size rule (average budget ``kbar``, point-wise cap ``k``):
    the generalized inverse, at ``kbar``, of the pooled top-``k`` scores.
    With ``k = L`` this is exactly :func:`fit_average_size`.
    """
    _require_nonempty(scores)
    spec = FormulationSpec(Kind.HYBRID_SIZE, kbar=float(kbar), k=k)
    return _fitted(spec, scores, seed)


def fit_hybrid_error(
    scores: ScoreSet,
    ebar: float,
    eps: float,
    mode: str = "lemma-threshold",
    seed: int | None = None,
) -> CalibratedClassifier:
    """Fit the hybrid error rule (average budget ``ebar``, point-wise ``eps``).

    Picks the largest cutoff at which the mass-weighted step function of
    the per-sample point-wise error sets still reaches ``1 - ebar``, or
    raises :class:`InfeasiblePair` when that level is unattainable, which
    the underlying theory shows can genuinely happen.
    """
    _require_nonempty(scores)
    if not 0.0 <= ebar < eps <= 1.0:
        raise ParameterOrderViolation(
            f"need 0 <= ebar < eps <= 1, got ebar={ebar!r}, eps={eps!r}"
        )
    spec = FormulationSpec(
        Kind.HYBRID_ERROR, ebar=float(ebar), eps=float(eps), mode=mode
    )
    return _fitted(spec, scores, seed)


def fscore_objective_derivative(probs: np.ndarray, beta: float, theta) -> float:
    """The strictly increasing function whose unique root is the F-score cutoff.

    ``phi(theta) = beta^2 * theta - mean_i sum_l (p_il - theta)_+``.
    ``phi(0) = -1`` for any valid probability matrix and ``phi(1) = beta^2``.
    """
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    hinge = np.clip(probs - float(theta), 0.0, None).sum(axis=1).mean()
    return beta * beta * float(theta) - float(hinge)


def fit_fscore(
    scores: ScoreSet, beta: float, seed: int | None = None
) -> CalibratedClassifier:
    """Fit the F-score rule at the exact root of its threshold condition,
    :func:`fscore_root` (``fscore_objective_derivative`` is zero there)."""
    _require_nonempty(scores)
    return _fitted(FormulationSpec(Kind.F_SCORE, beta=float(beta)), scores, seed)


# --- point-wise offset and temperature ---------------------------------------


def pointwise_offset(n: int, L: int) -> float:
    """Finite-sample offset ``sqrt(L / n)`` for the point-wise error rule,
    capped at 1.

    This is a practical heuristic shrinking the tolerated error so the
    point-wise constraint survives estimation noise; it carries no
    finite-sample guarantee.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n={n!r} must be a positive integer")
    if not (isinstance(L, (int, np.integer)) and L >= 2):
        raise TooFewClasses(f"L={L!r} must be an integer >= 2")
    return min(math.sqrt(L / n), 1.0)


#: Search interval for the temperature fit; a result at either end means
#: the optimum lies outside the practical miscalibration range.
TEMPERATURE_BOUNDS = (0.05, 20.0)


def fit_temperature(scores: ScoreSet, tol: float = 1e-6) -> float:
    """Temperature minimizing the negative log-likelihood of rescaled logits.

    Golden-section search over ``TEMPERATURE_BOUNDS``; the objective is
    convex in ``1/T`` hence unimodal in ``T``.  Callers should treat a
    result at an interval endpoint as a degenerate fit.
    """
    _require_nonempty(scores)
    if scores.logits is None:
        raise MissingLogits("temperature fitting needs logits")
    labels = scores.require_labels("fit_temperature")
    z = scores.logits
    z_true = z[np.arange(scores.n), labels - 1]

    def nll(T: float) -> float:
        shifted = z / T
        m = shifted.max(axis=1)
        lse = m + np.log(np.exp(shifted - m[:, None]).sum(axis=1))
        return float(np.mean(lse - z_true / T))

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = TEMPERATURE_BOUNDS
    a = hi - invphi * (hi - lo)
    b = lo + invphi * (hi - lo)
    fa, fb = nll(a), nll(b)
    while hi - lo > tol:
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - invphi * (hi - lo)
            fa = nll(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + invphi * (hi - lo)
            fb = nll(b)
    return 0.5 * (lo + hi)


# --- feasibility ---------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityReport:
    """Result of the average-error-with-size-cap feasibility check."""

    eps_k: float
    feasible: bool


def feasibility_check(
    scores: ScoreSet, k: int, ebar: float
) -> FeasibilityReport:
    """Check whether error budget ``ebar`` is attainable under a top-``k`` cap.

    ``eps_k`` is the empirical fraction of samples whose true label falls
    outside the top-``k`` set; no classifier obeying the point-wise size cap
    can have smaller average error, so the pair is infeasible when
    ``ebar < eps_k``.
    """
    _require_nonempty(scores)
    if not 1 <= k <= scores.L:
        raise KOutOfRange(f"k={k!r} outside [1, {scores.L}]")
    labels = scores.require_labels("feasibility_check")
    member = topk_mask(scores.probs, k)[np.arange(scores.n), labels - 1]
    eps_k = float(np.mean(~member))
    return FeasibilityReport(eps_k=eps_k, feasible=bool(ebar >= eps_k))


# --- one-stop calibration -------------------------------------------------------


def calibrate(
    spec: FormulationSpec,
    scores: ScoreSet,
    temperature: float | str = 1.0,
    offset: float | str | None = None,
    seed: int | None = None,
) -> CalibratedClassifier:
    """Fit whatever ``spec`` needs on ``scores`` and return the classifier.

    Parameters
    ----------
    temperature : float or "fit"
        Temperature applied to the logits before fitting and prediction.
        ``"fit"`` learns it by likelihood on the calibration set.
    offset : float, "auto", or None
        Point-wise offset for the point-wise error rule.  ``"auto"`` uses
        ``sqrt(L / n)``; ``None`` keeps the spec's value.
    """
    _require_nonempty(scores)
    spec.check_class_count(scores.L)
    extra = {}
    if temperature == "fit":
        T = fit_temperature(scores)
        lo, hi = TEMPERATURE_BOUNDS
        extra["temperature_at_bound"] = bool(T - lo < 1e-4 or hi - T < 1e-4)
    else:
        T = float(temperature)
        if T <= 0:
            raise ValueError(f"temperature={T!r} must be > 0")
    scores = rescaled(scores, T)

    if spec.needs_fit:
        clf = _fitted(spec, scores, seed)
    else:
        clf = CalibratedClassifier(
            spec=spec, provenance=_provenance(scores.n, seed)
        )

    resolved_offset = clf.offset
    if spec.kind is Kind.POINTWISE_ERROR:
        if offset == "auto":
            resolved_offset = pointwise_offset(scores.n, scores.L)
            resolved_offset = min(resolved_offset, spec.eps)
        elif offset is None:
            resolved_offset = spec.offset
        else:
            resolved_offset = float(offset)
        if not 0.0 <= resolved_offset <= spec.eps:
            raise InvalidOffset(
                f"offset={resolved_offset!r} outside [0, {spec.eps!r}]"
            )

    clf.temperature = T
    clf.offset = resolved_offset
    clf.provenance.update(extra)
    clf.provenance["L"] = scores.L
    return clf


def rescaled(scores: ScoreSet, T: float) -> ScoreSet:
    """``scores`` at temperature ``T``: itself when it already is, else its
    logits rescaled (raising :class:`MissingLogits` without them)."""
    if T == scores.temperature:
        return scores
    if scores.logits is None:
        raise MissingLogits("cannot rescale to a new temperature without logits")
    return ScoreSet(
        ids=scores.ids,
        probs=softmax(scores.logits / T),
        labels=scores.labels,
        logits=scores.logits,
        temperature=T,
        meta=dict(scores.meta),
    )
