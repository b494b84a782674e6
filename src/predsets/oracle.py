"""Ground-truth machinery for desk-scale verification.

Synthetic finite distributions expose the exact conditional probabilities,
so every population quantity (error, size, threshold functions) can be
computed in closed form and every formulation's constrained optimum can be
found by exhaustive enumeration.  The closed-form rules are then checked
against those optima instead of against themselves.  A population
assignment is the classifier's own (n_points x L) membership mask over
the distribution's rows, and a population cutoff is the fitted one: the
calibrator's knots and cutoff, with the support points' unit knots
reweighted by the marginal, the code a bootstrap draw runs.

A formulation is its fields: the brute force, its objective and the
constraint check read ``k``, ``eps``, ``kbar``, ``ebar``, ``lam`` and
``beta``, and ``FormulationSpec.needs_fit`` tells the brute force too
whether it can solve point by point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .calibration import EmpiricalStepFunction, _cutoff, _knots, _require_fit
from .core import ScoreSet, check_probability_rows, row_blocks, row_counts
from .core import topk_mask
from .errors import RowError, TooFewClasses, TooLargeForBruteForce
from .formulations import (
    FormulationSpec,
    Kind,
    MODE_LEMMA_THRESHOLD,
    MODE_UNION_POINTWISE,
    rule_mask,
)

#: Refuse joint enumeration beyond this many assignments.
BRUTE_FORCE_BUDGET = 10**7


@dataclass
class DiscreteDistribution:
    """A finite joint distribution: marginal over support points, exact
    conditional class probabilities at each point."""

    x_ids: list[str]
    marginal: np.ndarray
    cond: np.ndarray

    def __post_init__(self):
        self.marginal = np.asarray(self.marginal, dtype=np.float64)
        self.cond = np.asarray(self.cond, dtype=np.float64)
        m = len(self.x_ids)
        if self.marginal.shape != (m,):
            raise ValueError("one marginal probability per support point")
        try:
            check_probability_rows(self.marginal[None, :], tol=1e-12)
        except RowError as exc:  # marginal entry j is support point j's
            exc.problem = f"marginal {exc.problem}"
            exc.row, exc.entry = exc.entry, None
            raise
        if self.cond.ndim != 2 or self.cond.shape[0] != m:
            raise ValueError("cond must be (|support|, L)")
        if self.cond.shape[1] < 2:
            raise TooFewClasses(f"need at least 2 classes, got {self.cond.shape}")
        check_probability_rows(self.cond)  # errors carry the support point

    @property
    def n_points(self) -> int:
        return len(self.x_ids)

    @property
    def L(self) -> int:
        return self.cond.shape[1]


def _checked(dist: DiscreteDistribution, mask: np.ndarray) -> np.ndarray:
    """``mask`` as an array, if it is a bool mask of ``dist.cond``'s shape."""
    mask = np.asarray(mask)
    if mask.shape != dist.cond.shape or mask.dtype != bool:
        raise ValueError(
            f"{mask.dtype} mask of shape {mask.shape} does not match the "
            f"distribution's bool {dist.cond.shape}"
        )
    return mask


def exact_error(dist: DiscreteDistribution, mask: np.ndarray) -> float:
    """Exact average error: the true label's mass outside the mask."""
    inside = np.sum(dist.cond * _checked(dist, mask), axis=1)
    return float(np.sum(dist.marginal * (1.0 - inside)))


def exact_size(dist: DiscreteDistribution, mask: np.ndarray) -> float:
    """Exact average set size of a membership mask."""
    sizes = row_counts(_checked(dist, mask))
    return float(np.sum(dist.marginal * sizes))


def exact_top_k_error(dist: DiscreteDistribution, k: int) -> float:
    """Exact probability that the true label falls outside the top-k set."""
    return exact_error(dist, topk_mask(dist.cond, k))


# --- population cutoffs ------------------------------------------------------


def population_step_function(
    dist: DiscreteDistribution, spec: FormulationSpec
) -> EmpiricalStepFunction:
    """The population twin of :func:`~predsets.calibration.step_function`.

    A population is its support points' unit knots reweighted by its
    marginal at norm 1, as a bootstrap draw is the same knots reweighted
    by its counts: the knots the fit builds, so G (average-size, f-score),
    G_k (hybrid-size) and the point-wise member knots (hybrid-error, whose
    :meth:`~EmpiricalStepFunction.mass` is H_eps) are the population
    functions.  A population has no sampled labels, so its H
    (average-error) is the mass of G: each knot carries its own
    probability.  Raises :class:`ThetaMismatch` for a kind without a
    fitted threshold.
    """
    _require_fit(spec)
    f = _knots(spec, dist.cond, None).reweight(dist.marginal, norm=1)
    return f.mass() if spec.ebar is not None and spec.eps is None else f


def population_threshold(
    dist: DiscreteDistribution, spec: FormulationSpec
) -> float | None:
    """The exact distribution-level cutoff for threshold-style formulations.

    It is the fitted cutoff, :func:`~predsets.calibration._cutoff`, read
    off :func:`population_step_function`: the code ``calibrate`` and the
    sweep run.  Returns None for kinds whose rule needs no fitted
    threshold.
    """
    if not spec.needs_fit:
        return None
    return _cutoff(spec, population_step_function(dist, spec))


def closed_form_assignment(
    dist: DiscreteDistribution,
    spec: FormulationSpec,
    theta: float | None = None,
) -> np.ndarray:
    """Apply a formulation's closed-form rule at every support point.

    The population assignment is the classifier's own membership mask:
    :func:`rule_mask`, the code the classifier runs, over ``dist.cond``'s
    rows.  ``theta`` defaults to the exact population threshold when the
    rule needs one.
    """
    if theta is None and spec.needs_fit:
        theta = population_threshold(dist, spec)
    return rule_mask(spec, dist.cond, theta)


# --- brute force ---------------------------------------------------------------


@dataclass
class BruteForceResult:
    """An optimal membership mask over ``dist.cond``'s rows and its
    objective; ``mask`` is None when no assignment is feasible."""

    mask: np.ndarray | None
    objective: float
    feasible: bool = True


def _all_subsets(L: int) -> np.ndarray:
    """Every subset of {1..L} as a (2^L x L) membership mask, in the
    lexicographic order of the subsets' sorted label tuples.

    The enumeration order defines the tie-break: the first assignment
    attaining the optimum is reported, which is the lexicographically
    smallest one.  The subsets of labels j..L, in that order, are the
    empty set, then j joined with each subset of j+1..L, then the
    non-empty subsets of j+1..L.
    """
    S = np.zeros((1, 0), dtype=bool)
    for _ in range(L):
        head = np.zeros((2 * len(S), 1), dtype=bool)
        head[1 : len(S) + 1] = True
        S = np.hstack([head, np.vstack([S[:1], S, S[1:]])])
    return S


def _joint_enumerate(per_point_values):
    """Sum per-point contribution vectors over the assignment product.

    Returns a flat array in C order: the first point's choice varies
    slowest, so ``argmin``/``argmax`` with first-occurrence semantics pick
    the lexicographically smallest optimal assignment.
    """
    total = per_point_values[0]
    for values in per_point_values[1:]:
        total = (total[..., None] + values).reshape(-1)
    return total


def _guard_joint(dist: DiscreteDistribution) -> None:
    if (2 ** dist.L) ** dist.n_points > BRUTE_FORCE_BUDGET:
        raise TooLargeForBruteForce(
            f"(2^{dist.L})^{dist.n_points} joint assignments exceed "
            f"{BRUTE_FORCE_BUDGET}"
        )


def brute_force_optimal(
    dist: DiscreteDistribution, spec: FormulationSpec
) -> BruteForceResult:
    """Exhaustively solve a formulation's constrained problem on ``dist``.

    The solver reads the spec's fields, not its kind.  Each point's
    allowed subsets are those within its point-wise bounds ``k`` and
    ``eps``.  Without an average bound or the F-score (``not
    spec.needs_fit``) the points decompose into independent per-point
    subset choices; otherwise every joint assignment is enumerated,
    guarded by ``BRUTE_FORCE_BUDGET``, and those within ``kbar`` and
    ``ebar`` are kept.  The objective is :func:`_objective`'s, minimized,
    or maximized for the F-score.  A problem no assignment meets, such as
    a point no subset serves, is infeasible.
    """

    def allowed(mass, size):
        keep = np.ones(size.size, dtype=bool)
        if spec.k is not None:
            keep &= size <= spec.k
        if spec.eps is not None:
            keep &= mass >= 1.0 - spec.eps
        return keep

    infeasible = BruteForceResult(None, float("nan"), feasible=False)
    if not spec.needs_fit:
        rows, objective = [], 0.0
        for w, subsets, mass, size in _candidates(dist, allowed):
            if not len(subsets):
                return infeasible
            value = _objective(spec, 1.0 - mass, size, w)
            j = np.argmin(value)  # the first subset attaining the minimum
            rows.append(subsets[j])
            objective += value[j]
        return BruteForceResult(np.array(rows), objective)

    _guard_joint(dist)
    candidates, err_parts, siz_parts = [], [], []
    for w, subsets, mass, size in _candidates(dist, allowed):
        candidates.append(subsets)
        err_parts.append(w * (1.0 - mass))
        siz_parts.append(w * size)
    err, siz = _joint_enumerate(err_parts), _joint_enumerate(siz_parts)
    feasible = np.ones(err.size, dtype=bool)
    if spec.kbar is not None:
        feasible &= siz <= spec.kbar
    if spec.ebar is not None:
        feasible &= err <= spec.ebar
    if not feasible.any():
        return infeasible
    value = np.where(feasible, _objective(spec, err, siz), np.inf)
    # the F-score, which bounds nothing, is the one objective maximized
    idx = int(np.argmax(value) if spec.beta is not None else np.argmin(value))
    return BruteForceResult(_unflatten(candidates, idx), float(value[idx]))


def _objective(spec: FormulationSpec, err, siz, w=1.0):
    """The objective of ``spec`` at error ``err`` and size ``siz`` of
    weight ``w``: the penalized sum, the F-score, or the size when the
    error is bounded and else the error."""
    if spec.lam is not None:
        return w * err + spec.lam * w * siz
    if spec.beta is not None:
        return (1.0 + spec.beta**2) * (1.0 - err) / (spec.beta**2 + siz)
    return w * (siz if spec.eps is not None or spec.ebar is not None else err)


def brute_force_avg_error_with_size_cap(
    dist: DiscreteDistribution, ebar: float, k: int
) -> BruteForceResult:
    """Minimize average size subject to average error <= ebar and a hard
    point-wise size cap |set| <= k.

    Unlike the eight standard formulations this problem can be genuinely
    infeasible: no classifier under the cap can beat the top-k error, so
    ``ebar`` below that is unattainable and the result carries
    ``feasible=False``.  No kind pairs ``k`` with ``ebar``, so the
    solver gets the fields alone.
    """
    capped = SimpleNamespace(k=k, eps=None, lam=None, kbar=None, ebar=ebar,
                             beta=None, needs_fit=True)
    return brute_force_optimal(dist, capped)


def _candidates(dist: DiscreteDistribution, allowed):
    """Per support point: its weight, and the rows of the subset mask that
    ``allowed(mass, size)`` keeps, with their masses and sizes.  Refuses
    when one point's 2^L x L products exceed ``BRUTE_FORCE_BUDGET``."""
    if 2**dist.L * dist.L > BRUTE_FORCE_BUDGET:
        raise TooLargeForBruteForce(
            f"2^{dist.L} subsets x {dist.L} labels exceed {BRUTE_FORCE_BUDGET}"
        )
    S = _all_subsets(dist.L)
    size = row_counts(S)
    for w, p in zip(dist.marginal, dist.cond):
        mass = np.sum(S * p, axis=1)
        keep = np.flatnonzero(allowed(mass, size))
        yield w, S[keep], mass[keep], size[keep]


def _unflatten(candidates, flat_idx) -> np.ndarray:
    """The mask of the joint assignment at ``flat_idx``."""
    picks = np.unravel_index(flat_idx, tuple(len(c) for c in candidates))
    return np.array([c[i] for c, i in zip(candidates, picks)])


# --- synthetic data -------------------------------------------------------------

TEMPLATES = ("two-regime", "dirichlet-like", "near-deterministic")
_TEMPLATE_CODES = {name: i + 1 for i, name in enumerate(TEMPLATES)}
_DEFAULT_SUPPORT = {
    "two-regime": 64,
    "dirichlet-like": 64,
    "near-deterministic": 32,
}


def make_distribution(
    template: str, L: int, seed: int, support: int | None = None
) -> DiscreteDistribution:
    """Reproducible synthetic distribution of one of three shapes.

    two-regime
        Half the support nearly deterministic (entropy near zero), half
        nearly uniform (entropy near log L).
    dirichlet-like
        Conditional rows drawn uniformly from the simplex.
    near-deterministic
        Every point has one dominant class with mass 0.85-0.99.

    All probability entries are distinct almost surely, honoring the
    non-atomicity the closed-form optima assume.
    """
    if template not in TEMPLATES:
        raise ValueError(f"unknown template {template!r}")
    if L < 2:
        raise ValueError(f"L={L!r} must be >= 2")
    m = support if support is not None else _DEFAULT_SUPPORT[template]
    if m < 1:
        raise ValueError(f"support={m!r} must be >= 1")
    if template == "two-regime" and m % 2:
        raise ValueError("two-regime needs an even support size")
    rng = np.random.default_rng([_TEMPLATE_CODES[template], L, seed])

    marginal = rng.dirichlet(np.full(m, 50.0))
    marginal = marginal / marginal.sum()

    if template == "two-regime":
        easy = _dominant_rows(rng, m // 2, L, 0.96, 0.995)
        flat = 1.0 + 0.05 * rng.random((m - m // 2, L))
        ambiguous = flat / flat.sum(axis=1, keepdims=True)
        cond = np.vstack([easy, ambiguous])
    elif template == "dirichlet-like":
        cond = rng.dirichlet(np.ones(L), size=m)
    else:
        cond = _dominant_rows(rng, m, L, 0.85, 0.99)
    cond = cond / cond.sum(axis=1, keepdims=True)
    return DiscreteDistribution(
        x_ids=[f"x{i:04d}" for i in range(m)],
        marginal=marginal,
        cond=cond,
    )


def _dominant_rows(rng, m, L, low, high) -> np.ndarray:
    """``m`` rows, each one dominant class of mass in ``[low, high)``."""
    rows = np.empty((m, L))
    for i in range(m):
        dom = int(rng.integers(L))
        p_dom = rng.uniform(low, high)
        rest = rng.dirichlet(np.ones(L - 1)) * (1.0 - p_dom)
        rows[i] = np.insert(rest, dom, p_dom)
    return rows


def sample_scores(
    dist: DiscreteDistribution,
    n: int,
    seed: int,
    noise: float = 0.0,
) -> ScoreSet:
    """Draw ``n`` labeled samples from ``dist``.

    Each sample records the exact conditional probabilities of its support
    point as its scores (oracle-calibrated); ``noise > 0`` multiplies them
    by log-normal factors and renormalizes, emulating a miscalibrated
    model while labels still follow the truth.  ``noise`` must be finite
    and ``>= 0``.

    The label CDF, and at noise 0 the logits, are computed once per support
    point and gathered per row, which gives each row the same numbers as its
    own cumulative sum and ``log``; labels are drawn in row blocks.
    """
    if n < 1:
        raise ValueError(f"n={n!r} must be >= 1")
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise={noise!r} must be finite and >= 0")
    rng = np.random.default_rng([17, seed])
    x_idx = rng.choice(dist.n_points, size=n, p=dist.marginal)
    cdf = np.cumsum(dist.cond, axis=1)
    u = rng.random(n)
    labels = np.empty(n, dtype=np.int64)
    for rows in row_blocks(n, dist.L):  # no n x L temporary
        labels[rows] = row_counts(cdf[x_idx[rows]] < u[rows, None]) + 1
    labels = np.minimum(labels, dist.L)

    if noise > 0.0:
        true_p = dist.cond[x_idx]
        probs = true_p * np.exp(noise * rng.standard_normal(true_p.shape))
        probs = probs / probs.sum(axis=1, keepdims=True)
        logits = np.log(probs)
    else:
        probs = dist.cond[x_idx]
        logits = np.log(dist.cond)[x_idx]
    check_probability_rows(probs)
    # labels lie in [1, L] and softmax(log p) = p by construction
    return ScoreSet._trusted(
        ids=list(map("s%07d".__mod__, range(n))),
        probs=probs,
        labels=labels,
        logits=logits,
        meta={
            "truth": dist,
            "seed": seed,
            "noise": noise,
            "x_ids": [dist.x_ids[i] for i in x_idx.tolist()],
        },
    )


def synth_generate(
    template: str,
    L: int,
    n: int,
    seed: int,
    noise: float = 0.0,
    support: int | None = None,
) -> ScoreSet:
    """Distribution plus samples in one call; the embedded truth lands in
    ``meta["truth"]``."""
    dist = make_distribution(template, L, seed, support=support)
    scores = sample_scores(dist, n, seed, noise=noise)
    scores.meta["template"] = template
    return scores


def random_test_distribution(
    rng: np.random.Generator,
    L: int | None = None,
    n_points: int | None = None,
) -> DiscreteDistribution:
    """Small random distribution with distinct entries, for oracle checks."""
    if L is None:
        L = int(rng.integers(3, 6))
    if n_points is None:
        n_points = int(rng.integers(1, 4))
    marginal = rng.dirichlet(np.ones(n_points) * 5.0)
    marginal = marginal / marginal.sum()
    cond = rng.dirichlet(np.ones(L), size=n_points)
    cond = cond / cond.sum(axis=1, keepdims=True)
    return DiscreteDistribution(
        x_ids=[f"x{i}" for i in range(n_points)],
        marginal=marginal,
        cond=cond,
    )


# --- closed-form vs brute-force equivalence -------------------------------------

#: Formulations whose closed-form rule is judged against the brute force.
JUDGED_KINDS = (
    Kind.TOP_K,
    Kind.POINTWISE_ERROR,
    Kind.PENALIZED,
    Kind.AVERAGE_SIZE,
    Kind.AVERAGE_ERROR,
    Kind.HYBRID_SIZE,
    Kind.F_SCORE,
)

#: Additive slack on sampled binding constraint levels.  It is far above
#: float rounding so the closed-form solution is robustly feasible in the
#: brute force's arithmetic, yet far below any knot gap so it cannot admit
#: a different optimum.
BINDING_MARGIN = 1e-9

OBJECTIVE_TOL = 1e-12


def sample_binding_spec(
    dist: DiscreteDistribution, kind: Kind, rng: np.random.Generator
) -> FormulationSpec:
    """Random parameters for ``kind`` whose constraint binds on ``dist``.

    Average-type budgets are sampled from the attainable values of the
    population step functions (plus ``BINDING_MARGIN``), built under a
    placeholder budget, which does not change the knots: on a finite
    support, the closed-form rule matches the deterministic optimum
    exactly when the budget sits on that grid, mirroring the continuity
    assumption the closed forms are derived under.
    """
    L = dist.L
    if kind is Kind.TOP_K:
        return FormulationSpec(Kind.TOP_K, k=int(rng.integers(1, L + 1)))
    if kind is Kind.POINTWISE_ERROR:
        return FormulationSpec(
            Kind.POINTWISE_ERROR, eps=float(rng.uniform(0.05, 0.5))
        )
    if kind is Kind.PENALIZED:
        return FormulationSpec(
            Kind.PENALIZED, lam=float(rng.uniform(0.05, 0.9))
        )
    if kind is Kind.F_SCORE:
        return FormulationSpec(
            Kind.F_SCORE, beta=float(rng.uniform(0.5, 2.0))
        )
    # a budget kind: its budget is a knot's level, plus BINDING_MARGIN, of
    # the population function a placeholder budget builds: past the first
    # knot, whose level is the whole support's and binds nothing, or for
    # hybrid-error any level in [0, eps)
    size = kind in (Kind.AVERAGE_SIZE, Kind.HYBRID_SIZE)
    budget = "kbar" if size else "ebar"
    k = eps = None
    if kind is Kind.HYBRID_SIZE:
        k = int(rng.integers(2, L + 1)) if L > 2 else 2
    for _ in range(32 if kind is Kind.HYBRID_ERROR else 1):
        if kind is Kind.HYBRID_ERROR:
            eps = float(rng.uniform(0.1, 0.5))
        spec = FormulationSpec(kind, k=k, eps=eps, **{budget: 0.05})
        f = population_step_function(dist, spec)
        if kind is Kind.HYBRID_ERROR:
            f = f.mass()  # H_eps
        levels = (f.tail if size else 1.0 - f.tail) + BINDING_MARGIN
        ok = range(1, f.scores.size)
        if eps is not None:
            ok = [j for j in range(f.scores.size) if 0.0 <= levels[j] < eps]
        if ok:
            j = ok[int(rng.integers(len(ok)))]
            return FormulationSpec(
                kind, k=k, eps=eps, **{budget: float(levels[j])}
            )
    raise ValueError(f"no {kind.value} budget binds on this distribution")


def objective_value(
    dist: DiscreteDistribution,
    spec: FormulationSpec,
    mask: np.ndarray,
) -> float:
    """The formulation's own objective of a mask, evaluated exactly."""
    return _objective(spec, exact_error(dist, mask), exact_size(dist, mask))


def constraint_satisfied(
    dist: DiscreteDistribution,
    spec: FormulationSpec,
    mask: np.ndarray,
) -> bool:
    """Exact population-level check of every constraint of ``spec``."""
    mask = _checked(dist, mask)
    ok = True
    if spec.k is not None:
        ok &= np.all(row_counts(mask) <= spec.k)
    if spec.eps is not None:
        mass = np.sum(dist.cond * mask, axis=1)
        ok &= np.all(mass >= 1.0 - spec.eps - OBJECTIVE_TOL)
    if spec.kbar is not None:
        ok &= exact_size(dist, mask) <= spec.kbar + OBJECTIVE_TOL
    if spec.ebar is not None:
        ok &= exact_error(dist, mask) <= spec.ebar + OBJECTIVE_TOL
    return bool(ok)


@dataclass
class EquivalenceRecord:
    """One closed-form vs brute-force comparison."""

    dist_label: str
    formulation: str
    params: str
    closed_objective: float
    brute_objective: float
    constraint_ok: bool
    judged: bool

    @property
    def gap(self) -> float:
        return abs(self.closed_objective - self.brute_objective)

    @property
    def match(self) -> bool:
        return self.gap <= OBJECTIVE_TOL

    @property
    def passed(self) -> bool:
        return (not self.judged) or (self.match and self.constraint_ok)


def _spec_params(spec: FormulationSpec) -> str:
    parts = []
    for name in ("k", "eps", "lam", "kbar", "ebar", "beta"):
        value = getattr(spec, name)
        if value is not None:
            parts.append(f"{name}={value:.6g}")
    return ",".join(parts)


def equivalence_suite(
    dist: DiscreteDistribution,
    rng: np.random.Generator,
    dist_label: str = "dist",
) -> list[EquivalenceRecord]:
    """Compare every closed-form rule against the brute force on ``dist``.

    Judged kinds must match in objective and satisfy their constraints.
    The hybrid-error rule is reported in both combine modes without a
    verdict: on atomic distributions neither reading dominates, so the
    record only states each mode's objective and constraint status.
    """
    _guard_joint(dist)  # the joint kinds' budget, checked before any work

    def record(spec, brute, formulation, judged):
        closed = closed_form_assignment(dist, spec)
        return EquivalenceRecord(
            dist_label=dist_label,
            formulation=formulation,
            params=_spec_params(spec),
            closed_objective=objective_value(dist, spec, closed),
            brute_objective=brute.objective,
            constraint_ok=constraint_satisfied(dist, spec, closed),
            judged=judged,
        )

    records = []
    for kind in JUDGED_KINDS:
        spec = sample_binding_spec(dist, kind, rng)
        brute = brute_force_optimal(dist, spec)
        records.append(record(spec, brute, kind.value, True))

    base = sample_binding_spec(dist, Kind.HYBRID_ERROR, rng)
    brute = brute_force_optimal(dist, base)
    for mode in (MODE_LEMMA_THRESHOLD, MODE_UNION_POINTWISE):
        spec = replace(base, mode=mode)
        records.append(record(spec, brute, f"hybrid-error[{mode}]", False))
    return records


def infeasibility_records(
    dist: DiscreteDistribution,
    rng: np.random.Generator,
    dist_label: str = "dist",
) -> list[EquivalenceRecord]:
    """Check the infeasibility threshold of average error under a size cap.

    The top-k error is the least average error any size-capped classifier
    can achieve; brute force must report infeasible strictly below it and
    feasible at or above it.
    """
    k = int(rng.integers(1, dist.L))
    eps_k = exact_top_k_error(dist, k)
    cases = [("above", min(eps_k + 0.1, 1.0), True)]
    if eps_k > 1e-6:
        cases.insert(0, ("below", 0.5 * eps_k, False))
    records = []
    for side, ebar, want in cases:
        ok = brute_force_avg_error_with_size_cap(dist, ebar, k).feasible == want
        records.append(
            EquivalenceRecord(
                dist_label=dist_label,
                formulation=f"infeasibility[k={k},{side}]",
                params=f"ebar={ebar:.6g},eps_k={eps_k:.6g}",
                closed_objective=0.0,
                brute_objective=0.0 if ok else 1.0,
                constraint_ok=ok,
                judged=True,
            )
        )
    return records
