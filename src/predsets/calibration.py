"""Fitting every distribution-dependent quantity of the prediction rules.

The average-size, average-error, hybrid and F-score rules all threshold the
probability vector at a cutoff that depends on the unknown distribution.
This module estimates those cutoffs from data: empirical step functions
over pooled scores, their generalized inverses, the point-wise offset, the
F-score root, temperature scaling, and the feasibility check for the
average-error-with-size-cap problem.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ScoreSet,
    mask_to_labels,
    softmax,
    topk_mask,
    validate_probability_vector,
)
from .errors import (
    EmptyScoreSet,
    InfeasiblePair,
    InvalidOffset,
    KOutOfRange,
    MissingLogits,
    NegativeU,
    NonConvergence,
    ParameterOrderViolation,
    Saturated,
    TooFewClasses,
)
from .formulations import (
    FormulationSpec,
    Kind,
    pointwise_error_mask,
    rule_mask,
)

__all__ = [
    "EmpiricalStepFunction",
    "generalized_inverse",
    "largest_level_knot",
    "CalibratedClassifier",
    "empirical_g",
    "empirical_h",
    "empirical_g_k",
    "empirical_h_eps",
    "fit_average_size",
    "fit_average_error",
    "fit_hybrid_size",
    "fit_hybrid_error",
    "fit_fscore",
    "fscore_objective_derivative",
    "pointwise_offset",
    "fit_temperature",
    "TEMPERATURE_BOUNDS",
    "feasibility_check",
    "FeasibilityReport",
    "calibrate",
]


class EmpiricalStepFunction:
    """A non-increasing step function ``f(t) = sum of weights of knots >= t``.

    Knots with equal score are merged.  ``f(0)`` equals the total weight and
    ``f(t) = 0`` for ``t`` above the largest knot.  This is the shared
    representation for the empirical (and exact, in the oracle) versions of
    the pooled-score function G, the true-class-score function H, and their
    hybrid variants.
    """

    def __init__(self, scores, weights):
        scores = np.asarray(scores, dtype=np.float64).ravel()
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if scores.size != weights.size:
            raise ValueError("scores and weights must have equal length")
        if np.any(weights < 0):
            raise ValueError("knot weights must be nonnegative")
        order = np.argsort(scores, kind="stable")
        scores = scores[order]
        weights = weights[order]
        # merge duplicate scores so each knot is a distinct jump
        uniq, start = np.unique(scores, return_index=True)
        summed = np.add.reduceat(weights, start) if scores.size else weights
        self.scores = uniq
        # tail[j] = f(scores[j]) = total weight at or above scores[j]
        self.tail = np.cumsum(summed[::-1])[::-1] if uniq.size else summed

    @property
    def total(self) -> float:
        """Value at t = 0 (all knots counted)."""
        return float(self.tail[0]) if self.scores.size else 0.0

    @property
    def max_score(self) -> float:
        if self.scores.size == 0:
            raise ValueError("step function has no knots")
        return float(self.scores[-1])

    def value(self, t) -> np.ndarray | float:
        """Evaluate ``f`` at scalar or array ``t``."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.scores, t, side="left")
        padded = np.append(self.tail, 0.0)
        out = padded[idx]
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        return (
            f"EmpiricalStepFunction({self.scores.size} knots, "
            f"total={self.total!r})"
        )


def generalized_inverse(f: EmpiricalStepFunction, u: float) -> float:
    """Smallest cutoff at which the step function has dropped to ``u``.

    Follows ``inf{t : f(t) <= u}`` restricted to the knot grid: returns 0
    when ``f(0) <= u`` already, otherwise the smallest knot score whose
    value is ``<= u``.  When even the largest knot leaves ``f`` above ``u``
    the request is unattainable and :class:`Saturated` is raised (carrying
    the largest knot score) instead of silently clamping.
    """
    u = float(u)
    if u < 0:
        raise NegativeU(f"u={u!r} < 0")
    if f.total <= u:
        return 0.0
    # tail is non-increasing over ascending scores; find the first knot
    # with tail <= u
    idx = int(np.searchsorted(-f.tail, -u, side="left"))
    if idx >= f.scores.size:
        raise Saturated(u, f.max_score)
    return float(f.scores[idx])


def largest_level_knot(f: EmpiricalStepFunction, level: float) -> float:
    """Largest knot score at which ``f`` still reaches ``level``.

    This is the opposite orientation from :func:`generalized_inverse`: used
    where the contract is "keep ``f`` at or above the level", e.g. cumulated
    true-class mass must stay above ``1 - ebar``.  Raises
    :class:`InfeasiblePair` when no knot attains the level.
    """
    if f.scores.size == 0 or f.total < level:
        raise InfeasiblePair(
            f"step function never reaches level {level!r} "
            f"(maximum attainable {f.total!r})"
        )
    # last knot with tail >= level
    idx = int(np.searchsorted(-f.tail, -level, side="right")) - 1
    return float(f.scores[idx])


# --- empirical step-function builders ---------------------------------------


def empirical_g(scores: ScoreSet) -> EmpiricalStepFunction:
    """Pooled-score function: counts all N*L probabilities, weight 1/N each.

    Its value at ``t`` is the average predicted-set size of the thresholding
    rule at cutoff ``t`` on the calibration samples.
    """
    _require_nonempty(scores)
    N = scores.n
    return EmpiricalStepFunction(
        scores.probs.ravel(), np.full(scores.n * scores.L, 1.0 / N)
    )


def empirical_h(scores: ScoreSet) -> EmpiricalStepFunction:
    """True-class-score function: one knot per labeled sample, weight 1/n'.

    Its value at ``t`` is the fraction of calibration samples whose
    true-class probability reaches ``t`` -- i.e. one minus the empirical
    error of the thresholding rule at cutoff ``t``.
    """
    _require_nonempty(scores)
    labels = scores.require_labels("empirical_h")
    true_scores = scores.probs[np.arange(scores.n), labels - 1]
    return EmpiricalStepFunction(
        true_scores, np.full(scores.n, 1.0 / scores.n)
    )


def empirical_g_k(scores: ScoreSet, k: int) -> EmpiricalStepFunction:
    """Pooled top-``k`` order-statistic scores, weight 1/N each."""
    _require_nonempty(scores)
    if not 1 <= k <= scores.L:
        raise KOutOfRange(f"k={k!r} outside [1, {scores.L}]")
    topk = np.sort(scores.probs, axis=1)[:, -k:]
    return EmpiricalStepFunction(
        topk.ravel(), np.full(topk.size, 1.0 / scores.n)
    )


def empirical_h_eps(scores: ScoreSet, eps: float) -> EmpiricalStepFunction:
    """Mass-weighted knots of each sample's point-wise error set at ``eps``.

    For each sample the minimal top set reaching mass ``1 - eps`` is found;
    each of its scores ``p`` contributes a knot ``(p, p / N)``.  The total
    is therefore at most one.
    """
    _require_nonempty(scores)
    member = pointwise_error_mask(scores.probs, eps, 0.0)
    knot_scores = scores.probs[member]
    return EmpiricalStepFunction(knot_scores, knot_scores / scores.n)


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


def _provenance(n: int, seed: int | None, **extra) -> dict:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp = float(epoch) if epoch is not None else time.time()
    fitted_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(stamp))
    out = {"calibration_set_size": n, "seed": seed, "fitted_at": fitted_at}
    out.update(extra)
    return out


# --- threshold fits -----------------------------------------------------------


def fit_average_size(
    scores: ScoreSet, kbar: float, seed: int | None = None
) -> CalibratedClassifier:
    """Fit the average-size rule: threshold = generalized inverse of the
    pooled-score function at the size budget ``kbar``.

    Labels are ignored.  ``kbar`` must lie in ``(0, L]``; at ``kbar = L``
    the threshold is 0 and every prediction is the full label set.
    """
    _require_nonempty(scores)
    spec = FormulationSpec(Kind.AVERAGE_SIZE, kbar=float(kbar))
    spec.check_class_count(scores.L)
    theta = generalized_inverse(empirical_g(scores), kbar)
    return CalibratedClassifier(
        spec=spec,
        theta=theta,
        provenance=_provenance(scores.n, seed),
    )


def fit_average_error(
    scores: ScoreSet, ebar: float, seed: int | None = None
) -> CalibratedClassifier:
    """Fit the average-error rule from labeled calibration data.

    The threshold is the ``ceil(n' * (1 - ebar))``-th largest true-class
    score.  By construction at least that many calibration samples have
    their true class at or above the threshold, so the empirical error on
    the calibration set is at most ``ebar``.
    """
    _require_nonempty(scores)
    spec = FormulationSpec(Kind.AVERAGE_ERROR, ebar=float(ebar))
    labels = scores.require_labels("fit_average_error")
    true_scores = scores.probs[np.arange(scores.n), labels - 1]
    m = math.ceil(scores.n * (1.0 - ebar))
    theta = float(np.sort(true_scores, kind="stable")[scores.n - m])
    return CalibratedClassifier(
        spec=spec,
        theta=theta,
        provenance=_provenance(scores.n, seed),
    )


def fit_hybrid_size(
    scores: ScoreSet, kbar: float, k: int, seed: int | None = None
) -> CalibratedClassifier:
    """Fit the hybrid size rule (average budget ``kbar``, point-wise cap ``k``).

    The threshold is the generalized inverse, at ``kbar``, of the pooled
    top-``k`` order-statistic function.  With ``k = L`` this reduces exactly
    to :func:`fit_average_size`.
    """
    _require_nonempty(scores)
    spec = FormulationSpec(Kind.HYBRID_SIZE, kbar=float(kbar), k=k)
    spec.check_class_count(scores.L)
    theta = generalized_inverse(empirical_g_k(scores, k), kbar)
    return CalibratedClassifier(
        spec=spec,
        theta=theta,
        provenance=_provenance(scores.n, seed),
    )


def fit_hybrid_error(
    scores: ScoreSet,
    ebar: float,
    eps: float,
    mode: str = "lemma-threshold",
    seed: int | None = None,
) -> CalibratedClassifier:
    """Fit the hybrid error rule (average budget ``ebar``, point-wise ``eps``).

    Builds the mass-weighted step function of the per-sample point-wise
    error sets and picks the largest cutoff at which it still reaches
    ``1 - ebar``.  Raises :class:`InfeasiblePair` when that level is
    unattainable, which the underlying theory shows can genuinely happen.
    """
    _require_nonempty(scores)
    if not 0.0 <= ebar < eps <= 1.0:
        raise ParameterOrderViolation(
            f"need 0 <= ebar < eps <= 1, got ebar={ebar!r}, eps={eps!r}"
        )
    h_eps = empirical_h_eps(scores, eps)
    theta = largest_level_knot(h_eps, 1.0 - ebar)
    return CalibratedClassifier(
        spec=FormulationSpec(
            Kind.HYBRID_ERROR, ebar=float(ebar), eps=float(eps), mode=mode
        ),
        theta=theta,
        provenance=_provenance(scores.n, seed),
    )


def fscore_objective_derivative(
    probs: np.ndarray, beta: float, theta
) -> np.ndarray | float:
    """The strictly increasing function whose unique root is the F-score cutoff.

    ``phi(theta) = beta^2 * theta - mean_i sum_l (p_il - theta)_+``.
    ``phi(0) = -1`` for any valid probability matrix and ``phi(1) = beta^2``.
    """
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    theta = np.asarray(theta, dtype=np.float64)
    flat = theta.reshape(-1)
    hinge = np.clip(probs[None, :, :] - flat[:, None, None], 0.0, None)
    phi = beta * beta * flat - hinge.sum(axis=2).mean(axis=1)
    return float(phi[0]) if theta.ndim == 0 else phi.reshape(theta.shape)


def fit_fscore(
    scores: ScoreSet,
    beta: float,
    tol: float = 1e-12,
    max_iters: int = 200,
    seed: int | None = None,
) -> CalibratedClassifier:
    """Fit the F-score rule: bisection root of the threshold condition.

    The root is bracketed by ``phi(0) = -1 < 0 < beta^2 = phi(1)`` and
    ``phi`` is strictly increasing, so plain bisection converges; it stops
    once ``|phi(theta)| <= tol`` and raises :class:`NonConvergence` if
    ``max_iters`` halvings were not enough.
    """
    _require_nonempty(scores)
    spec = FormulationSpec(Kind.F_SCORE, beta=float(beta))
    probs = scores.probs
    lo, hi = 0.0, 1.0
    theta = 0.5
    residual = fscore_objective_derivative(probs, beta, theta)
    for _ in range(max_iters):
        if abs(residual) <= tol:
            break
        if residual > 0:
            hi = theta
        else:
            lo = theta
        theta = 0.5 * (lo + hi)
        residual = fscore_objective_derivative(probs, beta, theta)
    else:
        raise NonConvergence(max_iters, residual)
    return CalibratedClassifier(
        spec=spec,
        theta=float(theta),
        provenance=_provenance(scores.n, seed),
    )


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
    fscore_tol: float = 1e-12,
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
    if T != scores.temperature:
        if scores.logits is None:
            raise MissingLogits(
                "cannot rescale to a new temperature without logits"
            )
        scores = ScoreSet(
            ids=scores.ids,
            probs=softmax(scores.logits / T),
            labels=scores.labels,
            logits=scores.logits,
            temperature=T,
            meta=dict(scores.meta),
        )

    kind = spec.kind
    if kind is Kind.AVERAGE_SIZE:
        clf = fit_average_size(scores, spec.kbar, seed=seed)
    elif kind is Kind.AVERAGE_ERROR:
        clf = fit_average_error(scores, spec.ebar, seed=seed)
    elif kind is Kind.HYBRID_SIZE:
        clf = fit_hybrid_size(scores, spec.kbar, spec.k, seed=seed)
    elif kind is Kind.HYBRID_ERROR:
        clf = fit_hybrid_error(
            scores, spec.ebar, spec.eps, mode=spec.mode, seed=seed
        )
    elif kind is Kind.F_SCORE:
        clf = fit_fscore(scores, spec.beta, tol=fscore_tol, seed=seed)
    else:
        clf = CalibratedClassifier(
            spec=spec, provenance=_provenance(scores.n, seed)
        )

    resolved_offset = clf.offset
    if kind is Kind.POINTWISE_ERROR:
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

    clf.spec = spec
    clf.temperature = T
    clf.offset = resolved_offset
    clf.provenance.update(extra)
    clf.provenance["L"] = scores.L
    return clf
