"""Ground-truth machinery for desk-scale verification.

Synthetic finite distributions expose the exact conditional probabilities,
so every population quantity (error, size, threshold functions) can be
computed in closed form and every formulation's constrained optimum can be
found by exhaustive enumeration.  The closed-form rules are then checked
against those optima instead of against themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .calibration import (
    EmpiricalStepFunction,
    fscore_root,
    generalized_inverse,
    largest_level_knot,
)
from .core import (
    ScoreSet,
    check_probability_rows,
    mask_to_labels,
    topk_mask,
    validate_probability_vector,
)
from .errors import TooLargeForBruteForce
from .formulations import (
    FormulationSpec,
    Kind,
    MODE_LEMMA_THRESHOLD,
    MODE_UNION_POINTWISE,
    pointwise_error_mask,
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
        check_probability_rows(self.marginal[None, :], tol=1e-12)
        if self.cond.ndim != 2 or self.cond.shape[0] != m:
            raise ValueError("cond must be (|support|, L)")
        for row in self.cond:
            validate_probability_vector(row)

    @property
    def n_points(self) -> int:
        return len(self.x_ids)

    @property
    def L(self) -> int:
        return self.cond.shape[1]


@dataclass
class AssignmentClassifier:
    """An explicit label-set assignment on the support of a distribution."""

    assignment: dict[str, tuple[int, ...]]

    def sets_for(self, dist: DiscreteDistribution) -> list[tuple[int, ...]]:
        try:
            return [self.assignment[x] for x in dist.x_ids]
        except KeyError as missing:
            raise ValueError(f"no assignment for point {missing}") from None


def exact_error(dist: DiscreteDistribution, g: AssignmentClassifier) -> float:
    """Exact average error: mass of the true label falling outside the set."""
    total = 0.0
    for w, p, labels in zip(dist.marginal, dist.cond, g.sets_for(dist)):
        inside = sum(p[ell - 1] for ell in labels)
        total += w * (1.0 - inside)
    return total


def exact_size(dist: DiscreteDistribution, g: AssignmentClassifier) -> float:
    """Exact average set size."""
    return float(
        sum(
            w * len(labels)
            for w, labels in zip(dist.marginal, g.sets_for(dist))
        )
    )


def exact_fscore(
    dist: DiscreteDistribution, g: AssignmentClassifier, beta: float
) -> float:
    """Exact population F-beta of an assignment."""
    rec = 1.0 - exact_error(dist, g)
    return (1.0 + beta**2) * rec / (beta**2 + exact_size(dist, g))


def exact_top_k_error(dist: DiscreteDistribution, k: int) -> float:
    """Exact probability that the true label falls outside the top-k set."""
    return exact_error(dist, _mask_assignment(dist, topk_mask(dist.cond, k)))


def _mask_assignment(
    dist: DiscreteDistribution, mask: np.ndarray
) -> AssignmentClassifier:
    """The label sets of a membership mask over ``dist.cond``'s rows."""
    return AssignmentClassifier(
        {
            x: tuple(int(v) for v in mask_to_labels(row))
            for x, row in zip(dist.x_ids, mask)
        }
    )


# --- exact threshold functions ------------------------------------------------


@dataclass
class ExactThresholdFunctions:
    """Population versions of the calibration step functions."""

    G: EmpiricalStepFunction
    H: EmpiricalStepFunction
    G_k: dict[int, EmpiricalStepFunction]
    H_eps: EmpiricalStepFunction | None
    eps: float | None


def exact_threshold_functions(
    dist: DiscreteDistribution, eps: float | None = None
) -> ExactThresholdFunctions:
    """Exact G, H, all G_k, and (when ``eps`` is given) H_eps.

    Knot weights are the marginal probabilities; for H and H_eps each knot
    additionally carries its own probability mass, matching the population
    definitions the empirical fits estimate.
    """
    m, L = dist.n_points, dist.L
    w = np.repeat(dist.marginal, L)
    flat = dist.cond.ravel()
    G = EmpiricalStepFunction(flat, w)
    H = EmpiricalStepFunction(flat, w * flat)

    desc = np.sort(dist.cond, axis=1)[:, ::-1]
    G_k = {
        k: EmpiricalStepFunction(
            desc[:, :k].ravel(), np.repeat(dist.marginal, k)
        )
        for k in range(1, L + 1)
    }

    H_eps = None
    if eps is not None:
        member = pointwise_error_mask(dist.cond, eps, 0.0)
        knots = dist.cond[member]
        point_weight = np.broadcast_to(dist.marginal[:, None], dist.cond.shape)
        H_eps = EmpiricalStepFunction(knots, point_weight[member] * knots)
    return ExactThresholdFunctions(G=G, H=H, G_k=G_k, H_eps=H_eps, eps=eps)


def population_threshold(
    dist: DiscreteDistribution, spec: FormulationSpec
) -> float | None:
    """The exact distribution-level cutoff for threshold-style formulations.

    Returns None for kinds whose rule needs no fitted threshold.
    """
    kind = spec.kind
    if kind in (Kind.TOP_K, Kind.POINTWISE_ERROR, Kind.PENALIZED):
        return None
    if kind is Kind.F_SCORE:
        return population_fscore_root(dist, spec.beta)
    fns = exact_threshold_functions(
        dist, eps=spec.eps if kind is Kind.HYBRID_ERROR else None
    )
    if kind is Kind.AVERAGE_SIZE:
        return generalized_inverse(fns.G, spec.kbar)
    if kind is Kind.AVERAGE_ERROR:
        return largest_level_knot(fns.H, 1.0 - spec.ebar)
    if kind is Kind.HYBRID_SIZE:
        return generalized_inverse(fns.G_k[spec.k], spec.kbar)
    if kind is Kind.HYBRID_ERROR:
        return largest_level_knot(fns.H_eps, 1.0 - spec.ebar)
    raise ValueError(f"unhandled kind {kind!r}")  # pragma: no cover


def population_fscore_root(dist: DiscreteDistribution, beta: float) -> float:
    """Exact root of the marginal-weighted F-score condition: the same
    closed form as the empirical fit, over knots weighted by the marginal."""
    G = EmpiricalStepFunction(dist.cond.ravel(), np.repeat(dist.marginal, dist.L))
    return fscore_root(G, beta)


def closed_form_assignment(
    dist: DiscreteDistribution,
    spec: FormulationSpec,
    theta: float | None = None,
) -> AssignmentClassifier:
    """Apply a formulation's closed-form rule at every support point.

    The sets come from :func:`rule_mask`, the code the classifier runs.
    ``theta`` defaults to the exact population threshold when the rule
    needs one.
    """
    if theta is None and spec.needs_fit:
        theta = population_threshold(dist, spec)
    return _mask_assignment(dist, rule_mask(spec, dist.cond, theta))


# --- brute force ---------------------------------------------------------------


@dataclass
class BruteForceResult:
    assignment: AssignmentClassifier | None
    objective: float
    feasible: bool = True


def _all_subsets(L: int) -> list[tuple[int, ...]]:
    """Every subset of {1..L} as a sorted tuple, in lexicographic order.

    The enumeration order defines the tie-break: the first assignment
    attaining the optimum is reported, which is the lexicographically
    smallest one.
    """
    subsets = []
    for r in range(L + 1):
        subsets.extend(itertools.combinations(range(1, L + 1), r))
    return sorted(subsets)


def _subset_stats(p: np.ndarray, subsets) -> tuple[np.ndarray, np.ndarray]:
    mass = np.array([sum(p[ell - 1] for ell in s) for s in subsets])
    size = np.array([len(s) for s in subsets], dtype=np.float64)
    return mass, size


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

    Point-wise-constrained kinds decompose into independent per-point
    subset choices; average-constrained kinds (and the F-score ratio) are
    solved by joint enumeration over all assignments, guarded by
    ``BRUTE_FORCE_BUDGET``.  The objective reported matches the kind:
    error for size-constrained problems, size for error-constrained ones,
    the penalized sum for the penalized kind, and the F-score itself
    (maximized) for the F-score kind.
    """
    subsets = _all_subsets(dist.L)
    kind = spec.kind

    if kind in (Kind.TOP_K, Kind.POINTWISE_ERROR, Kind.PENALIZED):
        assignment = {}
        objective = 0.0
        for x, w, p in zip(dist.x_ids, dist.marginal, dist.cond):
            mass, size = _subset_stats(p, subsets)
            if kind is Kind.TOP_K:
                allowed, value = size <= spec.k, w * (1.0 - mass)
            elif kind is Kind.POINTWISE_ERROR:
                allowed, value = mass >= 1.0 - spec.eps, w * size
            else:
                allowed = np.ones(len(subsets), dtype=bool)
                value = w * (1.0 - mass) + spec.lam * w * size
            # the first subset attaining the minimum (none if none allowed)
            best, best_val = None, np.inf
            if allowed.any():
                j = np.flatnonzero(allowed)[np.argmin(value[allowed])]
                best, best_val = subsets[j], value[j]
            assignment[x] = best
            objective += best_val
        return BruteForceResult(
            AssignmentClassifier(assignment), objective
        )

    def allowed(mass, size):
        if kind is Kind.HYBRID_SIZE:
            return size <= spec.k
        if kind is Kind.HYBRID_ERROR:
            return mass >= 1.0 - spec.eps
        return np.ones(size.size, dtype=bool)

    candidates, err, siz = _joint_stats(dist, allowed)
    if kind is Kind.F_SCORE:
        beta = spec.beta
        fscores = (1.0 + beta**2) * (1.0 - err) / (beta**2 + siz)
        idx = int(np.argmax(fscores))
        return BruteForceResult(
            _unflatten(dist, candidates, idx), float(fscores[idx])
        )
    if kind in (Kind.AVERAGE_SIZE, Kind.HYBRID_SIZE):
        return _best_feasible(dist, candidates, siz <= spec.kbar, err)
    return _best_feasible(dist, candidates, err <= spec.ebar, siz)


def _best_feasible(dist, candidates, feasible, objective) -> BruteForceResult:
    """The first feasible joint assignment minimizing ``objective``."""
    if not np.any(feasible):
        return BruteForceResult(None, float("nan"), feasible=False)
    masked = np.where(feasible, objective, np.inf)
    idx = int(np.argmin(masked))
    return BruteForceResult(
        _unflatten(dist, candidates, idx), float(masked[idx])
    )


def brute_force_avg_error_with_size_cap(
    dist: DiscreteDistribution, ebar: float, k: int
) -> BruteForceResult:
    """Minimize average size subject to average error <= ebar and a hard
    point-wise size cap |set| <= k.

    Unlike the eight standard formulations this problem can be genuinely
    infeasible: no classifier under the cap can beat the top-k error, so
    ``ebar`` below that is unattainable and the result carries
    ``feasible=False``.
    """
    candidates, err, siz = _joint_stats(dist, lambda mass, size: size <= k)
    return _best_feasible(dist, candidates, err <= ebar, siz)


def _joint_stats(dist: DiscreteDistribution, allowed):
    """Each point's candidate subsets, those ``allowed(mass, size)`` keeps,
    and the exact error and size of every joint assignment of them."""
    _guard_joint(dist)
    subsets = _all_subsets(dist.L)
    candidates, err_parts, siz_parts = [], [], []
    for w, p in zip(dist.marginal, dist.cond):
        mass, size = _subset_stats(p, subsets)
        keep = np.flatnonzero(allowed(mass, size))
        candidates.append([subsets[j] for j in keep])
        err_parts.append(w * (1.0 - mass[keep]))
        siz_parts.append(w * size[keep])
    return candidates, _joint_enumerate(err_parts), _joint_enumerate(siz_parts)


def _unflatten(dist, candidates, flat_idx) -> AssignmentClassifier:
    shape = tuple(len(c) for c in candidates)
    picks = np.unravel_index(flat_idx, shape)
    return AssignmentClassifier(
        {
            x: candidates[i][picks[i]]
            for i, x in enumerate(dist.x_ids)
        }
    )


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
    if template == "two-regime" and m % 2:
        raise ValueError("two-regime needs an even support size")
    rng = np.random.default_rng([_TEMPLATE_CODES[template], L, seed])

    marginal = rng.dirichlet(np.full(m, 50.0))
    marginal = marginal / marginal.sum()

    if template == "two-regime":
        easy = np.empty((m // 2, L))
        for i in range(m // 2):
            dom = int(rng.integers(L))
            p_dom = rng.uniform(0.96, 0.995)
            rest = rng.dirichlet(np.ones(L - 1)) * (1.0 - p_dom)
            easy[i] = np.insert(rest, dom, p_dom)
        flat = 1.0 + 0.05 * rng.random((m - m // 2, L))
        ambiguous = flat / flat.sum(axis=1, keepdims=True)
        cond = np.vstack([easy, ambiguous])
    elif template == "dirichlet-like":
        cond = rng.dirichlet(np.ones(L), size=m)
    else:
        cond = np.empty((m, L))
        for i in range(m):
            dom = int(rng.integers(L))
            p_dom = rng.uniform(0.85, 0.99)
            rest = rng.dirichlet(np.ones(L - 1)) * (1.0 - p_dom)
            cond[i] = np.insert(rest, dom, p_dom)
    cond = cond / cond.sum(axis=1, keepdims=True)
    return DiscreteDistribution(
        x_ids=[f"x{i:04d}" for i in range(m)],
        marginal=marginal,
        cond=cond,
    )


def sample_scores(
    dist: DiscreteDistribution,
    n: int,
    seed: int,
    noise: float = 0.0,
    id_prefix: str = "s",
) -> ScoreSet:
    """Draw ``n`` labeled samples from ``dist``.

    Each sample records the exact conditional probabilities of its support
    point as its scores (oracle-calibrated); ``noise > 0`` multiplies them
    by log-normal factors and renormalizes, emulating a miscalibrated
    model while labels still follow the truth.
    """
    if n < 1:
        raise ValueError(f"n={n!r} must be >= 1")
    rng = np.random.default_rng([17, seed])
    x_idx = rng.choice(dist.n_points, size=n, p=dist.marginal)
    true_p = dist.cond[x_idx]
    u = rng.random(n)
    labels = (np.cumsum(true_p, axis=1) < u[:, None]).sum(axis=1) + 1
    labels = np.minimum(labels, dist.L)

    if noise > 0.0:
        probs = true_p * np.exp(noise * rng.standard_normal(true_p.shape))
        probs = probs / probs.sum(axis=1, keepdims=True)
    else:
        probs = true_p.copy()
    logits = np.log(probs)
    return ScoreSet(
        ids=[f"{id_prefix}{i:07d}" for i in range(n)],
        probs=probs,
        labels=labels,
        logits=logits,
        temperature=1.0,
        meta={
            "truth": dist,
            "seed": seed,
            "noise": noise,
            "x_ids": [dist.x_ids[i] for i in x_idx],
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
    exact threshold functions (plus ``BINDING_MARGIN``): on a finite
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
    fns = exact_threshold_functions(dist)
    if kind is Kind.AVERAGE_SIZE:
        j = int(rng.integers(1, fns.G.scores.size))
        return FormulationSpec(
            Kind.AVERAGE_SIZE,
            kbar=float(fns.G.tail[j]) + BINDING_MARGIN,
        )
    if kind is Kind.AVERAGE_ERROR:
        j = int(rng.integers(1, fns.H.scores.size))
        return FormulationSpec(
            Kind.AVERAGE_ERROR,
            ebar=1.0 - float(fns.H.tail[j]) + BINDING_MARGIN,
        )
    if kind is Kind.HYBRID_SIZE:
        k = int(rng.integers(2, L + 1)) if L > 2 else 2
        g_k = fns.G_k[k]
        j = int(rng.integers(1, g_k.scores.size))
        return FormulationSpec(
            Kind.HYBRID_SIZE,
            kbar=float(g_k.tail[j]) + BINDING_MARGIN,
            k=k,
        )
    if kind is Kind.HYBRID_ERROR:
        for _ in range(32):
            eps = float(rng.uniform(0.1, 0.5))
            h_eps = exact_threshold_functions(dist, eps=eps).H_eps
            # knots whose level keeps ebar in [0, eps)
            ok = [
                j
                for j in range(h_eps.scores.size)
                if 0.0 <= 1.0 - h_eps.tail[j] + BINDING_MARGIN < eps
            ]
            if ok:
                j = ok[int(rng.integers(len(ok)))]
                return FormulationSpec(
                    Kind.HYBRID_ERROR,
                    ebar=max(
                        1.0 - float(h_eps.tail[j]) + BINDING_MARGIN, 0.0
                    ),
                    eps=eps,
                )
        raise ValueError("no attainable hybrid-error budget found")
    raise ValueError(f"unhandled kind {kind!r}")  # pragma: no cover


def objective_value(
    dist: DiscreteDistribution,
    spec: FormulationSpec,
    g: AssignmentClassifier,
) -> float:
    """The formulation's own objective, evaluated exactly."""
    kind = spec.kind
    if kind in (Kind.TOP_K, Kind.AVERAGE_SIZE, Kind.HYBRID_SIZE):
        return exact_error(dist, g)
    if kind in (Kind.POINTWISE_ERROR, Kind.AVERAGE_ERROR, Kind.HYBRID_ERROR):
        return exact_size(dist, g)
    if kind is Kind.PENALIZED:
        return exact_error(dist, g) + spec.lam * exact_size(dist, g)
    if kind is Kind.F_SCORE:
        return exact_fscore(dist, g, spec.beta)
    raise ValueError(f"unhandled kind {kind!r}")  # pragma: no cover


def constraint_satisfied(
    dist: DiscreteDistribution,
    spec: FormulationSpec,
    g: AssignmentClassifier,
    tol: float = OBJECTIVE_TOL,
) -> bool:
    """Exact population-level check of every constraint of ``spec``."""
    kind = spec.kind
    sets = g.sets_for(dist)
    ok = True
    if kind in (Kind.TOP_K, Kind.HYBRID_SIZE):
        ok &= all(len(s) <= spec.k for s in sets)
    if kind in (Kind.POINTWISE_ERROR, Kind.HYBRID_ERROR):
        for p, s in zip(dist.cond, sets):
            mass = sum(p[ell - 1] for ell in s)
            ok &= mass >= 1.0 - spec.eps - tol
    if kind in (Kind.AVERAGE_SIZE, Kind.HYBRID_SIZE):
        ok &= exact_size(dist, g) <= spec.kbar + tol
    if kind in (Kind.AVERAGE_ERROR, Kind.HYBRID_ERROR):
        ok &= exact_error(dist, g) <= spec.ebar + tol
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
    records = []
    for kind in JUDGED_KINDS:
        spec = sample_binding_spec(dist, kind, rng)
        closed = closed_form_assignment(dist, spec)
        brute = brute_force_optimal(dist, spec)
        records.append(
            EquivalenceRecord(
                dist_label=dist_label,
                formulation=kind.value,
                params=_spec_params(spec),
                closed_objective=objective_value(dist, spec, closed),
                brute_objective=brute.objective,
                constraint_ok=constraint_satisfied(dist, spec, closed),
                judged=True,
            )
        )

    base = sample_binding_spec(dist, Kind.HYBRID_ERROR, rng)
    brute = brute_force_optimal(dist, base)
    for mode in (MODE_LEMMA_THRESHOLD, MODE_UNION_POINTWISE):
        spec = FormulationSpec(
            Kind.HYBRID_ERROR, ebar=base.ebar, eps=base.eps, mode=mode
        )
        closed = closed_form_assignment(dist, spec)
        records.append(
            EquivalenceRecord(
                dist_label=dist_label,
                formulation=f"hybrid-error[{mode}]",
                params=_spec_params(spec),
                closed_objective=objective_value(dist, spec, closed),
                brute_objective=brute.objective,
                constraint_ok=constraint_satisfied(dist, spec, closed),
                judged=False,
            )
        )
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
