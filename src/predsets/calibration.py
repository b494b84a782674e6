"""Fitting every distribution-dependent quantity of the prediction rules.

The average-size, average-error, hybrid and F-score rules all threshold the
probability vector at a cutoff that depends on the unknown distribution.
This module estimates those cutoffs from data: empirical step functions
over pooled scores, one search for their cutoff knots, the point-wise
offset, the F-score root, temperature scaling (a safeguarded Newton
iteration on ``1/T``, where the likelihood is convex), and the feasibility
check for the average-error-with-size-cap problem.

:func:`calibrate` is the one fitting entry point: for every kind it
resolves the temperature and offset, and for the fitted kinds it reads the
cutoff off one representation, the sorted knots of
:class:`EmpiricalStepFunction` that :func:`step_function` returns, by one
search in two orientations (the knot where G or G_k drops to kbar, the
largest where H or H_eps reaches 1 - ebar) or the exact F-score root.  The
knots are built with unit counts, and :meth:`EmpiricalStepFunction.reweight`
is the one way to weigh them otherwise: a bootstrap replicate is the same
knots reweighted by its counts (see :func:`_draw_fit`), and a population
is its support points' knots reweighted by its marginal (see
``oracle.population_step_function``).

For average-size and the F-score, :func:`calibrate` sorts only the pooled
scores that can hold the cutoff (:func:`_top_knots`).  Tails and masses are
summed from the top, so the top knots carry the full knots' values, and
both searches count from the top: the same reader finds the same knot.
Average-size keeps the scores at or above the (floor(kbar n) + 1)-th
largest, whose tail exceeds the level.  The F-score root is
``theta = F*/(1 + beta^2)``, where ``F*`` is the best plug-in F-score of any
set rule (the mean of ``sum_{l in Gamma} (p_l - theta)`` is at most
``beta^2 theta``); the top-1 sets score the mean row maximum, so ``theta``
is at least that over ``1 + beta^2``.  The scores at or above this bound
are kept, with the largest one below when the lowest kept knot still
passes the root test; the lowest must fail it.  Neither keeps more than
``_SELECT_SHARE`` (a quarter) of the scores; past it, all are sorted.  At
T = 1 a sweep's draws (:func:`_draw_fit`) reweight the set of its largest
grid value; at a fitted T each is fitted as :func:`calibrate` fits its rows.
"""

from __future__ import annotations

import copy
import math
import os
import time
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .core import ScoreSet, _in_pieces, check_probability_rows, label_entries
from .core import row_blocks, row_counts, softmax, topk_mask
from .errors import EmptyScoreSet, InfeasiblePair, KOutOfRange
from .errors import InvalidTemperature, MissingLogits, NonFiniteEntry
from .errors import Saturated, SpecFieldError, ThetaMismatch, TooFewClasses
from .formulations import FormulationSpec, KIND_FIELDS
from .formulations import pointwise_error_mask, rule_mask


class EmpiricalStepFunction:
    """A non-increasing step function ``f(t) = (weight of knots >= t) / norm``.

    Entries with equal score merge into one knot; each entry weighs 1 until
    :meth:`reweight` gives it its row's weight.  ``f(0)`` equals the total
    weight over ``norm`` and ``f(t) = 0`` for ``t`` above the largest knot.
    This is the one representation of the pooled-score function G, the
    true-class-score function H, and their hybrid variants G_k and H_eps,
    both empirical and, in the oracle, exact: a population is the unit
    knots of its support points reweighted by its marginal at norm 1, as a
    bootstrap replicate is the same knots reweighted by its multinomial
    counts at norm n (see :func:`_knots`).

    The entries are sorted once.  Given ``rows``, the row each entry
    belongs to (one per entry), :meth:`reweight` weighs the knots by a
    weight per row without sorting the scores again.  Integer weights stay
    integers, so ``tail`` holds exact counts, compared against
    ``level * norm``.
    """

    def __init__(self, scores, *, rows=None, norm=1):
        scores = np.asarray(scores, dtype=np.float64).ravel()
        ordered = np.sort(scores)
        # sorted, with any NaN last: the ends show every non-finite score
        if ordered.size and not -math.inf < ordered[0] <= ordered[-1] < math.inf:
            raise ValueError("knot scores must be finite")
        if rows is not None and np.size(rows) != scores.size:
            raise ValueError(
                f"{np.size(rows)} rows for {scores.size} knot scores: "
                "need one row per score"
            )
        first = np.ones(ordered.size, dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        self.scores = ordered[first]
        self.norm = norm
        self._start = np.flatnonzero(first)
        # the entries as given; reweight sorts their rows on first use
        self._entries = (scores, rows)
        self._rows = None
        self._set(np.diff(self._start, append=ordered.size))

    def _set(self, weight):
        # weight[j] = weight of knot j; tail[j] = weight at or above it,
        # a view of the non-decreasing _up, which _knot_at searches
        self.weight = weight
        self._up = np.cumsum(weight[::-1])
        self.tail = self._up[::-1]
        self._mass = None  # mass() of these weights, built on first use

    def reweight(self, weights, *, norm) -> "EmpiricalStepFunction":
        """The same knots over ``norm``, each entry weighing its row's entry
        of ``weights``: a bootstrap draw's counts, or a population's
        marginal.  The entries of one knot are summed in sorted order."""
        weights = np.asarray(weights)
        if weights.size and not 0 <= weights.min() <= weights.max() < math.inf:
            raise ValueError("knot weights must be finite and nonnegative")
        if self._rows is None:
            scores, rows = self._entries
            if rows is None:
                raise ValueError("reweight needs the rows of the entries")
            rows = np.asarray(rows).ravel()
            if rows.size and not (rows.dtype.kind in "iu" and rows.min() >= 0):
                raise ValueError("knot rows must be nonnegative integers")
            self._rows = rows[np.argsort(scores)]
            # the fewest weights that cover every row
            self._n_rows = int(rows.max()) + 1 if rows.size else 0
        if weights.size < self._n_rows:
            raise ValueError(
                f"{weights.size} weights for rows 0..{self._n_rows - 1}: "
                "need one weight per row"
            )
        weight = weights[self._rows]
        if self._start.size < weight.size:  # not every knot is one entry
            weight = np.add.reduceat(weight, self._start)
        out = copy.copy(self)
        out.norm = norm
        out._set(weight)
        return out

    def mass(self) -> "EmpiricalStepFunction":
        """The same knots, each weighing its score times its weight / norm.

        Computed once, per merged knot, so a knot's weight does not depend
        on the order or multiplicity of the entries that make it up.
        """
        if self._mass is None:
            self._mass = copy.copy(self)
            self._mass.norm = 1
            self._mass._set(self.weight * (self.scores / self.norm))
        return self._mass

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


def _knot_at(f: EmpiricalStepFunction, u: float, reach: bool) -> float:
    """The cutoff knot of ``f`` at level ``u``: when ``reach``, the largest
    knot score at which ``f`` still reaches ``u`` (:class:`InfeasiblePair`
    when none does); else the smallest cutoff at which ``f`` has dropped to
    ``u`` among the knots that carry weight: 0 when ``f(0) <= u``, and
    :class:`Saturated`, with the largest knot score that has weight, when
    even that knot leaves ``f`` above ``u``.
    """
    level = u * f.norm
    up, top = f._up, f.scores.size - 1
    if up.dtype.kind == "i":
        # the integer key that counts the same entries, so that numpy does
        # not cast all of up to float64 to search
        level = math.ceil(level) if reach else math.floor(level)
    if not reach:
        # _up[i] is the tail of knot top - i, so the last i with _up[i] <=
        # level is the first knot whose tail has dropped to the level.  A
        # knot without weight has its successor's tail: the first knot from
        # there with weight is the last one that reaches that tail.
        i = int(np.searchsorted(up, level, side="right")) - 1
        if i == top:  # f(0) <= u
            return 0.0
        if i < 0 or up[i] == 0:  # report the largest knot that carries weight
            heavy = top - np.searchsorted(up, 0, side="right")
            raise Saturated(u, float(f.scores[heavy]))
        level = up[i]
    # the last knot with tail >= level: the first i with _up[i] >= level
    i = int(np.searchsorted(up, level, side="left"))
    if i > top:
        raise InfeasiblePair(
            f"step function never reaches level {u!r} "
            f"(maximum attainable {f.total!r})"
        )
    return float(f.scores[top - i])


def fscore_root(g: EmpiricalStepFunction, beta: float) -> float:
    """Exact root of the F-score condition over the pooled scores ``g``.

    ``phi(theta) = beta^2 theta - sum_{knots s > theta} (s - theta) w(s) / norm``
    is continuous, strictly increasing and linear between knots.  With
    ``M_j`` and ``W_j`` the mass and weight of the knots at or above
    ``s_j``, the root on the segment below the first knot where
    ``phi >= 0`` is ``theta = M_j / (norm beta^2 + W_j)``.  A binary search
    counted down from the largest knot (``phi >= 0`` there) finds that knot.
    """
    mass = g.mass().tail  # M_j / norm
    b2 = beta * beta
    top, d = g.scores.size - 1, 0  # phi >= 0 at knot top - d, from the top
    for bit in reversed(range(top.bit_length())):
        if d + (1 << bit) <= top and _phi_nonnegative(g, b2, top - d - (1 << bit)):
            d += 1 << bit
    return float(mass[top - d] / (b2 + g.tail[top - d] / g.norm))


def _phi_nonnegative(g: EmpiricalStepFunction, b2: float, j: int):
    """Whether ``phi >= 0`` at knot ``j`` of ``g``, as :func:`fscore_root` tests."""
    s = g.scores[j]
    return b2 * s - (g.mass().tail[j] - s * (g.tail[j] / g.norm)) >= 0.0


# --- empirical step-function builders ---------------------------------------


def _knots(spec: FormulationSpec, P: np.ndarray, labels):
    """Unit-count knots, over the n rows of ``P`` at norm n, of the step
    function the cutoff of ``spec`` inverts, read off its fields: with
    ``eps``, the member counts of the point-wise sets, whose
    :meth:`~EmpiricalStepFunction.mass` is H_eps; with ``k``, G_k; with
    ``ebar`` and ``labels``, H; else G.  Each entry knows its row, so the
    knots can be :meth:`~EmpiricalStepFunction.reweight`-ed."""
    n = P.shape[0]
    rows = None
    if spec.eps is not None:
        member = pointwise_error_mask(P, spec.eps, 0.0)
        values = np.compress(member.ravel(), P)  # row-major, as P[member]
        rows = np.repeat(np.arange(n), row_counts(member))
    elif spec.k is not None:
        L = P.shape[1]
        values = np.partition(P, L - spec.k, axis=1)[:, L - spec.k:]
    elif spec.ebar is not None and labels is not None:
        values = label_entries(P, labels)[:, None]
    else:
        values = P
    if rows is None:
        rows = np.broadcast_to(np.arange(n)[:, None], values.shape)
    return EmpiricalStepFunction(values, rows=rows, norm=n)


def _cutoff(spec: FormulationSpec, f: EmpiricalStepFunction) -> float:
    """The fitted threshold of ``spec`` from its (reweighted) knots: where
    they drop to ``kbar``, the largest knot where they (their mass, with
    ``eps``) reach ``1 - ebar``, or the F-score root."""
    if spec.kbar is not None:
        return _knot_at(f, spec.kbar, reach=False)
    if spec.ebar is not None:
        return _knot_at(f if spec.eps is None else f.mass(), 1.0 - spec.ebar,
                        reach=True)
    return fscore_root(f, spec.beta)


def step_function(spec: FormulationSpec, scores: ScoreSet) -> EmpiricalStepFunction:
    """The unit-count knots (:func:`_knots`), over norm n, that
    :func:`calibrate` at temperature 1 reads the cutoff of ``spec`` off.
    Raises what the fit would: :class:`EmptyScoreSet`, the spec's
    class-count errors and, for average-error, :class:`MissingLabels`; and
    :class:`ThetaMismatch` for a kind without a fitted threshold.
    """
    _require_fit(spec)
    _require_nonempty(scores)
    spec.check_class_count(scores.L)
    _require_true_labels(spec, scores)
    return _knots(spec, scores.probs, scores.labels)


def _require_fit(spec: FormulationSpec) -> None:
    if not spec.needs_fit:
        raise ThetaMismatch(f"{spec.kind.value} takes no fitted threshold")


def _require_nonempty(scores: ScoreSet) -> None:
    if scores.n == 0:
        raise EmptyScoreSet("calibration needs at least one sample")


def _require_true_labels(spec: FormulationSpec, scores: ScoreSet, counts=None):
    """:class:`MissingLabels` if the knots of ``spec`` are H (``ebar``
    without ``eps``) and a row of ``scores`` (drawn, per ``counts``) has no
    label."""
    if spec.ebar is not None and spec.eps is None:
        scores.require_labels(spec.kind.value, counts)


def _check_offset(spec: FormulationSpec, offset) -> None:
    if offset is not None and "offset" not in KIND_FIELDS[spec.kind]:
        raise SpecFieldError(f"offset is not a parameter of {spec.kind.value}",
                             "offset")


# --- calibrated classifier ---------------------------------------------------


@dataclass
class CalibratedClassifier:
    """A formulation together with every fitted quantity it needs.

    ``theta`` is present exactly for the threshold-fitted kinds
    (average-size, average-error, hybrid-size, hybrid-error, f-score) and
    finite, so that a model file can hold it; ``temperature`` rescales
    logits before prediction when it is not 1.
    """

    spec: FormulationSpec
    theta: float | None = None
    temperature: float = 1.0
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.spec.needs_fit and self.theta is None:
            raise ThetaMismatch(
                f"{self.spec.kind.value} needs a fitted threshold"
            )
        if self.theta is not None:
            _require_fit(self.spec)
        if self.theta is not None and not math.isfinite(self.theta):
            raise ThetaMismatch(f"theta={self.theta!r} must be finite")
        _check_temperature(self.temperature)

    @property
    def offset(self) -> float:
        """The point-wise offset the rule applies: the spec's (0 for every
        other kind)."""
        return self.spec.offset

    def predict_set_mask(self, scores: ScoreSet) -> np.ndarray:
        """Boolean membership mask over the rows of ``scores`` at the
        classifier's temperature: the one prediction path, on a checked
        score set."""
        P = _probs_at(scores, self.temperature)
        self.spec.check_class_count(P.shape[1])
        return rule_mask(self.spec, P, self.theta)


def _provenance(n: int, seed: int | None) -> dict:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp = float(epoch) if epoch is not None else time.time()
    fitted_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(stamp))
    return {"calibration_set_size": n, "seed": seed, "fitted_at": fitted_at}


# --- point-wise offset and temperature ---------------------------------------


def _check_temperature(T) -> float:
    """``T`` as a float; :class:`InvalidTemperature` unless ``0 < T < inf``
    (NaN included)."""
    T = float(T)
    if not 0.0 < T < math.inf:
        raise InvalidTemperature(f"temperature={T!r} must be finite and > 0")
    return T


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


def fit_temperature(scores: ScoreSet) -> float:
    """Temperature minimizing the negative log-likelihood of rescaled logits.

    The NLL is convex in ``beta = 1/T``: its slope is the mean of
    ``E_p[z] - z_y`` and its curvature the mean of ``Var_p[z] >= 0``, with
    ``p = softmax(beta z)``.  A safeguarded Newton iteration finds the zero
    of the slope inside the ``beta``-image of ``TEMPERATURE_BOUNDS``,
    bisecting whenever a step would leave the bracket; an end's slope is
    evaluated only while no iterate's slope has shown its sign.  When the
    optimum lies at or beyond a bound that bound is returned exactly;
    callers should treat such a result as a degenerate fit.  A non-finite
    logit raises :class:`NonFiniteEntry` first (``0 * -inf`` is NaN).
    """
    _require_nonempty(scores)
    if scores.logits is None:
        raise MissingLogits("temperature fitting needs logits")
    labels, logits = scores.require_labels("fit_temperature"), scores.logits
    finite = np.isfinite(logits)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NonFiniteEntry(f"logit {float(logits[i, j])!r} is not finite", i, j)
    # logits less their row maximum: beta * z then needs no max-shift
    z = logits - logits.max(axis=1, keepdims=True)
    z_true = label_entries(z, labels)
    t_lo, t_hi = TEMPERATURE_BOUNDS
    bracket = (1.0 / t_hi, 1.0 / t_lo)  # on beta

    def slope(beta: float) -> tuple[float, float]:
        # means of the rows' E_p[z] - z_y and Var_p[z], by pieces and blocks
        mean, var = np.empty(z.shape[0]), np.empty(z.shape[0])

        def piece(z, mean, var):
            blocks = row_blocks(*z.shape)
            e_block = np.empty((blocks[0].stop if blocks else 0, z.shape[1]))
            for rows in blocks:  # e_block holds exp(beta z)
                zb, e = z[rows], e_block[: rows.stop - rows.start]
                np.exp(np.multiply(zb, beta, out=e), out=e)
                total = e.sum(axis=1)
                m = mean[rows] = np.einsum("ij,ij->i", e, zb) / total
                var[rows] = np.einsum("ij,ij,ij->i", e, zb, zb) / total - m * m

        _in_pieces(piece, z, mean, var)
        return float(np.mean(mean - z_true)), float(np.mean(var))

    def beyond():  # the bound the optimum lies at or beyond, if any; an
        # end an iterate has moved points inward (the slope rises with beta)
        if lo == bracket[0] and slope(lo)[0] >= 0.0:
            return t_hi
        if hi == bracket[1] and slope(hi)[0] <= 0.0:
            return t_lo
        return None

    lo, hi = bracket
    beta = min(max(1.0, lo), hi)
    for _ in range(200):
        g, h = slope(beta)
        if g == 0.0:
            break
        if g < 0.0:
            lo = beta
        else:
            hi = beta
        # the Newton step; NaN (no curvature) fails both tests and bisects
        step = beta - g / h if h > 0.0 else math.nan
        if abs(step - beta) <= 1e-13 * beta:
            break
        if (step <= bracket[0] or step >= bracket[1]) and (end := beyond()):
            return end
        beta = step if lo < step < hi else 0.5 * (lo + hi)
    return beyond() or 1.0 / beta


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
    member = label_entries(topk_mask(scores.probs, k), labels)
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
        ``"fit"`` learns it by likelihood on the calibration set.  Kinds
        without a fitted threshold only check the rescale (:func:`_rescalable`).
    offset : float, "auto", or None
        Point-wise offset, which only the point-wise error rule takes.
        ``"auto"`` uses ``sqrt(L / n)``; ``None`` keeps the spec's value.
        The returned classifier's spec holds the resolved offset.
    """
    _check_offset(spec, offset)
    _require_nonempty(scores)
    spec.check_class_count(scores.L)
    provenance = _provenance(scores.n, seed)
    if temperature == "fit":
        T = fit_temperature(scores)
        provenance["temperature_at_bound"] = T in TEMPERATURE_BOUNDS
    else:
        T = _check_temperature(temperature)
    provenance["L"] = scores.L

    theta = None
    if spec.needs_fit:
        theta = _cutoff(spec, _fitted_knots(spec, scores, T))
    elif T != 1.0:
        _rescalable(scores, T)  # checked, not computed: nothing is fitted
    if offset is not None:
        if offset == "auto":
            offset = min(pointwise_offset(scores.n, scores.L), spec.eps)
        # the spec checks the resolved offset lies in [0, eps]
        spec = replace(spec, offset=float(offset))
    return CalibratedClassifier(
        spec=spec, theta=theta, temperature=T, provenance=provenance
    )


#: Largest share of the pooled scores :func:`_top_knots` keeps.  Selecting a
#: share s cost as much as sorting all at s ~ 0.7 at L = 10 (10 000 rows) and
#: s ~ 0.5 at L = 1000 (2000 rows); at 0.25 it took 0.3-0.8 of the sort.
_SELECT_SHARE = 0.25
#: A T = 1 sweep's margin, in standard deviations of a draw's kept weight,
#: and most kept share: kept knots of 0.6 of the scores took 0.87-0.99 of a
#: full-knot sweep's time at L = 10, 100 and 1000, of 0.7 1.04-1.16.
_MARGIN_SD, _SWEEP_SHARE = 4.0, 0.6


def _top_knots(spec: FormulationSpec, P: np.ndarray, z: float = 0.0,
               share: float | None = None) -> EmpiricalStepFunction | None:
    """The top knots of G over ``P`` (norm n) that hold the average-size or
    F-score cutoff, as the module docstring describes, each entry with its
    row, and with ``z`` as many more as ``z`` standard deviations of a
    bootstrap draw's kept weight.  None for other kinds or when they would
    be more than ``share`` (default ``_SELECT_SHARE``) of the scores."""
    (n, L), N, flat = P.shape, P.size, P.ravel()
    most = (share or _SELECT_SHARE) * N

    def kept(keep):
        at = np.flatnonzero(keep)
        return EmpiricalStepFunction(flat[at], rows=at // L, norm=n)

    def largest(rank):  # the rank largest scores, and any tied with the last
        if rank > most:
            return None
        return kept(flat >= np.partition(flat, N - rank)[N - rank])

    g = None
    if spec.kbar is not None and spec.k is None:
        g = largest(math.floor(spec.kbar * n) + 1)
    elif spec.beta is not None:
        # row maxima folded over <= 16 columns: 11-192 vs 516-874 us on 10 000 rows
        top1 = reduce(np.maximum, P.T) if L <= 16 else P.max(axis=1)
        v = top1.mean() / (1.0 + spec.beta * spec.beta)
        for _ in range(2):
            keep = flat >= v
            if np.count_nonzero(keep) > most:
                return None
            g = kept(keep)
            if g.scores.size and _holds(spec, g):
                break
            g, v = None, flat.max(where=~keep, initial=-np.inf)
    if z and g is not None:
        # a draw's kept weight sums its counts over these entries: mean K,
        # variance sum(m^2) - K^2/n with m the entries per row
        m, K = np.bincount(g._entries[1], minlength=n), int(g.tail[0])
        g = largest(K + math.ceil(z * math.sqrt((n * int(m @ m) - K * K) / n)))
    return g


def _holds(spec: FormulationSpec, g: EmpiricalStepFunction) -> bool:
    """Whether top knots of G hold the cutoff of ``spec`` and any smaller
    kbar's or beta's: weight above ``kbar * norm``, or ``phi < 0`` at the lowest."""
    if spec.kbar is not None:
        return bool(g.tail[0] > spec.kbar * g.norm)
    return not _phi_nonnegative(g, spec.beta * spec.beta, 0)


def _fitted_knots(spec: FormulationSpec, scores: ScoreSet, T: float):
    """The knots :func:`calibrate` reads the cutoff of ``spec`` off at
    temperature ``T``: top knots when they hold it, else the full ones."""
    P = _probs_at(scores, T)
    _require_true_labels(spec, scores)
    return _top_knots(spec, P) or _knots(spec, P, scores.labels)


def _draw_fit(spec: FormulationSpec, scores: ScoreSet, temperature):
    """``(idx, counts) -> (T, knots)`` for a bootstrap draw of ``scores``
    (its drawn rows and each row's count): the temperature and the knots
    that ``calibrate(spec, scores.subset(idx), temperature)``, once the
    spec's own checks pass, reads the cutoff of ``spec``, or of a smaller
    swept value, off, bit for bit; it raises what that calibrate raises.
    At a fixed T the knots are sorted once and reweighted by each draw's
    counts: the top knots of ``spec`` with ``_MARGIN_SD`` standard
    deviations of a draw's kept weight more, within ``_SWEEP_SHARE`` of the
    scores, and the full knots, built on first need, for a draw they do not
    hold.  Under ``"fit"`` a draw runs calibrate's steps on its drawn rows:
    :func:`fit_temperature`, then :func:`_fitted_knots`."""
    if temperature == "fit":
        def fitted(idx, counts):
            rows = scores.subset(idx)
            T = fit_temperature(rows)
            return T, _fitted_knots(spec, rows, T)

        return fitted
    T = _check_temperature(temperature)
    P = _probs_at(scores, T)
    top, full = _top_knots(spec, P, _MARGIN_SD, _SWEEP_SHARE), None

    def reweighted(idx, counts):
        nonlocal full
        _require_true_labels(spec, scores, counts)
        knots = top and top.reweight(counts, norm=scores.n)
        if knots is None or not _holds(spec, knots):
            full = full or _knots(spec, P, scores.labels)
            knots = full.reweight(counts, norm=scores.n)
        return T, knots

    return reweighted


def _probs_at(scores: ScoreSet, T: float) -> np.ndarray:
    """The probability matrix of ``scores`` at temperature ``T``, the one
    way to rescale a score set: the stored one at ``T == 1``, else the
    softmax of the logits at ``T``, once :func:`_rescalable` has checked
    them."""
    if T == 1.0:
        return scores.probs
    return softmax(_rescalable(scores, T), T)


def _rescalable(scores: ScoreSet, T: float) -> np.ndarray:
    """The logits of ``scores``, checked to rescale to ``T``: raises
    :class:`MissingLogits` without them, and :class:`NonFiniteEntry` when
    some row's ``max(z) / T`` (that is, ``max(z / T)``) is not finite,
    exactly when the softmax at ``T`` has a non-finite entry: else each is
    ``exp(<= 0)`` over a sum ``>= 1``.  Only then is the softmax computed
    and checked, so the error names the same row and entry."""
    if scores.logits is None:
        raise MissingLogits(
            f"cannot rescale scores to temperature {T!r} without logits"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # refused: no warning
        if not np.isfinite(scores.logits.max(axis=1) / T).all():
            check_probability_rows(softmax(scores.logits, T))
    return scores.logits
