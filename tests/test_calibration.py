"""Threshold fitting, step functions, temperature, offset, feasibility."""

import copy
import dataclasses

import numpy as np
import pytest

from predsets import calibration, core
from predsets.calibration import (
    TEMPERATURE_BOUNDS,
    CalibratedClassifier,
    EmpiricalStepFunction,
    calibrate,
    feasibility_check,
    fit_temperature,
    _knot_at,
    pointwise_offset,
    step_function,
)
from predsets.core import ScoreSet, softmax
from predsets.evaluation import spec_with_param
from predsets.errors import (
    EbarOutOfRange,
    EmptyScoreSet,
    InfeasiblePair,
    KbarOutOfRange,
    KOutOfRange,
    InvalidTemperature,
    MissingLabels,
    MissingLogits,
    NonFiniteEntry,
    ParameterOrderViolation,
    PredsetsError,
    Saturated,
    SpecFieldError,
    ThetaMismatch,
    TooFewClasses,
)
from predsets.formulations import FormulationSpec, Kind
from predsets.oracle import make_distribution, sample_scores, synth_generate


def one_sample(probs):
    return ScoreSet(ids=["a"], probs=[probs])


def fit(scores, kind, **params):
    """``calibrate`` at T = 1 for the fitted ``kind``."""
    return calibrate(FormulationSpec(kind, **params), scores)


#: Specs whose step functions are G, H, G_k and the member counts of H_eps.
G = FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0)
H = FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.5)


def drop(f, u):
    """Where ``f`` has dropped to ``u``: the size-budget orientation."""
    return _knot_at(f, u, reach=False)


def reach(f, level):
    """The largest knot where ``f`` still reaches ``level``."""
    return _knot_at(f, level, reach=True)


def G_k(k):
    return FormulationSpec(Kind.HYBRID_SIZE, kbar=0.5, k=k)


def H_eps(eps):
    return FormulationSpec(Kind.HYBRID_ERROR, ebar=0.0, eps=eps)


class TestEmpiricalStepFunction:
    def test_value_counts_knots_at_or_above(self):
        f = EmpiricalStepFunction([0.5, 0.3, 0.2])
        assert f.value(0.0) == 3
        assert f.value(0.2) == 3
        assert f.value(0.25) == 2
        assert f.value(0.5) == 1
        assert f.value(0.51) == 0
        assert f.total == 3

    def test_duplicate_scores_merged(self):
        f = EmpiricalStepFunction([0.4, 0.4, 0.1], rows=[0, 1, 2])
        assert f.weight.tolist() == [1, 2]
        f = f.reweight([1, 2, 3], norm=1)
        assert f.value(0.4) == 3
        assert f.value(0.1) == 6
        assert f.scores.tolist() == [0.1, 0.4]

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(0)
        f = EmpiricalStepFunction(rng.random(50), rows=np.arange(50))
        f = f.reweight(rng.random(50), norm=1)
        grid = np.linspace(0, 1, 101)
        values = f.value(grid)
        assert np.all(np.diff(values) <= 0)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        for rows in (None, [0, 1, 2]):
            with pytest.raises(ValueError, match="scores must be finite"):
                EmpiricalStepFunction([0.1, bad, 0.3], rows=rows)
        with pytest.raises(ValueError, match="scores must be finite"):
            EmpiricalStepFunction(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_weights_rejected(self, bad):
        f = EmpiricalStepFunction([0.1, 0.2, 0.3], rows=[0, 1, 2])
        for weights in ([bad] * 3, [1.0, bad, 1.0]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                f.reweight(weights, norm=1)

    def test_weights_only_through_reweight(self):
        # the knots are built with unit counts; a second positional
        # argument is not read as rows
        with pytest.raises(TypeError):
            EmpiricalStepFunction([0.1, 0.2], [1, 1])
        f = EmpiricalStepFunction([0.1, 0.2], rows=[0, 1])
        with pytest.raises(TypeError):
            f.reweight([1, 1])  # the norm is always given
        with pytest.raises(ValueError, match="needs the rows"):
            EmpiricalStepFunction([0.1, 0.2]).reweight([1, 1], norm=1)

    @pytest.mark.parametrize("scores, rows", [
        ([0.1, 0.2, 0.3], [0, 1]),
        ([0.1, 0.2], [[0, 1], [0, 1]]),
    ])
    def test_rows_must_match_scores(self, scores, rows):
        # one row per score, checked when the knots are built
        with pytest.raises(ValueError, match="need one row per score"):
            EmpiricalStepFunction(scores, rows=rows)

    def test_weights_must_cover_every_row(self):
        f = EmpiricalStepFunction([0.1, 0.2], rows=[0, 1])
        with pytest.raises(ValueError, match="need one weight per row"):
            f.reweight([1], norm=1)
        # checked again on every draw, after the rows are sorted once
        assert f.reweight([1, 2], norm=1).tail.tolist() == [3, 2]
        with pytest.raises(ValueError, match="need one weight per row"):
            f.reweight([], norm=1)

    @pytest.mark.parametrize("rows", [[-1, 0], [0.5, 1.0], [0.0, 1.0]])
    def test_rows_must_be_nonnegative_integers(self, rows):
        # a negative row would wrap to the last weight, a float one fail
        # to index; checked once, when reweight first sorts the rows
        f = EmpiricalStepFunction([0.1, 0.2], rows=rows)
        with pytest.raises(ValueError, match="nonnegative integers"):
            f.reweight([1, 5], norm=1)

    def test_reweight_matches_repeated_rows(self):
        # a bootstrap draw as counts over the knots sorted once equals the
        # function built from the drawn rows themselves
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), size=40)
        idx = rng.integers(0, 40, size=40)
        drawn = step_function(G, ScoreSet(ids=[""] * 40, probs=probs[idx]))
        full = step_function(G, ScoreSet(ids=[""] * 40, probs=probs))
        full.mass()  # kept by the full knots, not by their reweighting
        counted = full.reweight(np.bincount(idx, minlength=40), norm=40)
        heavy = counted.weight > 0
        assert np.array_equal(counted.scores[heavy], drawn.scores)
        assert np.array_equal(counted.tail[heavy], drawn.tail)
        assert np.array_equal(counted.mass().tail[heavy], drawn.mass().tail)
        assert counted.total == drawn.total == 3.0


class TestGeneralizedInverse:
    """The one cutoff search, ``_knot_at``, in both orientations."""

    def test_skips_knots_without_weight(self):
        # f(0.3) = f(0.5) = 1, but no sample sits at 0.3
        f = EmpiricalStepFunction([0.2, 0.3, 0.5], rows=[0, 1, 2])
        assert drop(f.reweight([1, 0, 1], norm=1), 1) == 0.5
        f = EmpiricalStepFunction([0.2, 0.7], rows=[0, 1])
        with pytest.raises(Saturated) as exc:
            drop(f.reweight([1, 0], norm=1), 0.5)
        assert exc.value.value == 0.2


    @pytest.mark.parametrize("seed", range(6))
    def test_reweighted_runs_of_zero_counts(self, seed):
        # counts with long zero runs leave runs of knots without weight; the
        # inverse must land on the first knot from its level that has one
        rng = np.random.default_rng(seed)
        n = 30
        scores = rng.integers(0, 12, size=(n, 2)) / 12.0
        rows = np.repeat(np.arange(n)[:, None], 2, axis=1)
        f = EmpiricalStepFunction(scores, rows=rows, norm=n)
        counts = rng.integers(0, 3, size=n) * (rng.random(n) < 0.3)
        g = f.reweight(counts, norm=n)
        assert np.any(g.weight == 0)
        heavy = np.flatnonzero(g.weight)
        for u in np.linspace(0.0, g.total + 0.1, 41):
            if g.tail[0] <= u * n:
                expect = 0.0
            else:
                ok = heavy[g.tail[heavy] <= u * n]
                if ok.size == 0:
                    with pytest.raises(Saturated) as exc:
                        drop(g, u)
                    assert exc.value.value == g.scores[heavy[-1]]
                    continue
                expect = g.scores[ok[0]]
            assert drop(g, u) == expect

    @pytest.mark.parametrize("seed", range(3))
    def test_counts_searched_as_float_levels(self, seed):
        # count-valued knots are searched with an integer key; both
        # searches must land where the float64 search of the counts does,
        # at exact counts and at the floats next to them
        rng = np.random.default_rng(seed)
        n = 40
        f = EmpiricalStepFunction(rng.integers(0, 10, n) / 10, rows=np.arange(n))
        g = f.reweight(rng.integers(0, 3, n), norm=1)
        assert g._up.dtype.kind == "i"
        cast = copy.copy(g)
        cast._up = g._up.astype(np.float64)
        cast.tail = cast._up[::-1]
        exact = np.unique(g._up).astype(np.float64)
        levels = np.concatenate([
            exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf),
            rng.uniform(0, g.total, 20),
        ])
        for search in (drop, reach):
            for level in levels.tolist():
                expect = raised(search, cast, level) or search(cast, level)
                assert (raised(search, g, level) or search(g, level)) == expect

    def test_interior_knot(self):
        f = EmpiricalStepFunction([0.5, 0.3, 0.2])
        # f(0.3) = 2 <= 2 while f(0.2) = 3 > 2
        assert drop(f, 2) == 0.3

    def test_boundary_rule_returns_zero(self):
        f = EmpiricalStepFunction([0.5, 0.3, 0.2])
        assert drop(f, 3) == 0.0
        assert drop(f, 10) == 0.0

    def test_saturation(self):
        f = EmpiricalStepFunction([0.5, 0.3, 0.2])
        with pytest.raises(Saturated) as exc:
            drop(f, 0.5)
        assert exc.value.value == 0.5
        assert exc.value.u == 0.5
        assert str(exc.value) == (
            "step function stays above u=0.5 for every knot; "
            "largest knot score is 0.5"
        )
        with pytest.raises(InfeasiblePair) as exc:
            reach(f, 3.5)
        assert str(exc.value) == (
            "step function never reaches level 3.5 (maximum attainable 3.0)"
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_both_orientations_match_brute_force(self, seed):
        # reweighted knots with runs of zero counts, as counts (integer
        # keys) and as their mass (float levels), searched at every tail
        # value, at the floats next to it and between; the brute force
        # compares every knot's tail with the level directly
        rng = np.random.default_rng(seed)
        n = 25
        scores = rng.integers(0, 10, size=(n, 2)) / 10.0
        rows = np.repeat(np.arange(n)[:, None], 2, axis=1)
        f = EmpiricalStepFunction(scores, rows=rows, norm=n)
        counted = f.reweight(rng.integers(0, 3, n) * (rng.random(n) < 0.4), norm=n)
        assert np.any(counted.weight == 0)
        for g in (counted, counted.mass()):
            exact = np.unique(g.tail) / g.norm
            levels = np.concatenate([
                exact, np.nextafter(exact, -np.inf), np.nextafter(exact, np.inf),
                rng.uniform(0, g.total + 0.1, 10),
            ])
            heavy = np.flatnonzero(g.weight)
            for u in levels.tolist():
                level = u * g.norm
                low = heavy[g.tail[heavy] <= level]
                if g.tail[0] <= level:
                    assert drop(g, u) == 0.0
                elif low.size == 0:
                    with pytest.raises(Saturated) as exc:
                        drop(g, u)
                    assert exc.value.value == g.scores[heavy[-1]]
                else:
                    assert drop(g, u) == g.scores[low[0]]
                high = np.flatnonzero(g.tail >= level)
                if high.size == 0:
                    with pytest.raises(InfeasiblePair):
                        reach(g, u)
                    continue
                assert reach(g, u) == g.scores[high[-1]]
                if u > 0:  # reach never lands on a knot without weight
                    assert g.weight[high[-1]] > 0


class TestFitAverageSize:
    def test_integer_budget_cutoff_is_tight(self):
        # kbar * N = 9 exactly: summed 1/N weights overshot 9 and skipped
        # the knot where the size reaches exactly 9/9; counts do not
        P = np.random.default_rng(9).dirichlet(np.ones(4), size=9)
        s = ScoreSet(ids=[str(i) for i in range(9)], probs=P)
        theta = fit(s, Kind.AVERAGE_SIZE, kbar=1.0).theta
        assert np.count_nonzero(P >= theta) == 9

    def test_one_sample(self):
        clf = fit(one_sample([0.5, 0.3, 0.2]), Kind.AVERAGE_SIZE, kbar=2.0)
        assert clf.theta == 0.3

    def test_two_samples_pooled(self):
        s = ScoreSet(ids=["a", "b"], probs=[[0.6, 0.4], [0.8, 0.2]])
        assert fit(s, Kind.AVERAGE_SIZE, kbar=1.0).theta == 0.6

    def test_kbar_equals_L_gives_zero(self):
        s = ScoreSet(ids=["a", "b"], probs=[[0.6, 0.4], [0.8, 0.2]])
        assert fit(s, Kind.AVERAGE_SIZE, kbar=2.0).theta == 0.0

    def test_parameter_and_empty_errors(self):
        s = one_sample([0.5, 0.5])
        with pytest.raises(KbarOutOfRange):
            fit(s, Kind.AVERAGE_SIZE, kbar=0.0)
        with pytest.raises(KbarOutOfRange):
            fit(s, Kind.AVERAGE_SIZE, kbar=2.5)
        with pytest.raises(EmptyScoreSet):
            empty = ScoreSet(ids=["a"], probs=[[0.5, 0.5]]).subset([])
            fit(empty, Kind.AVERAGE_SIZE, kbar=1.0)

    def test_calibration_set_consistency(self):
        # mean predicted size on the calibration data is within (kbar - L/N, kbar]
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(6), size=400)
        s = ScoreSet(ids=[str(i) for i in range(400)], probs=probs)
        for kbar in (1.0, 2.5, 4.0):
            clf = fit(s, Kind.AVERAGE_SIZE, kbar=kbar)
            mean_size = clf.predict_set_mask(s).sum(axis=1).mean()
            assert kbar - 6 / 400 < mean_size <= kbar


class TestFitAverageError:
    def test_order_statistic(self):
        s = ScoreSet(
            ids=list("abcd"),
            probs=[[0.9, 0.1], [0.7, 0.3], [0.5, 0.5], [0.1, 0.9]],
            labels=[1, 1, 1, 1],
        )
        assert fit(s, Kind.AVERAGE_ERROR, ebar=0.25).theta == 0.5

    def test_perfect_scores(self):
        s = ScoreSet(
            ids=["a", "b"], probs=[[1.0, 0.0], [1.0, 0.0]], labels=[1, 1]
        )
        assert fit(s, Kind.AVERAGE_ERROR, ebar=0.3).theta == 1.0

    def test_small_sample_ceiling(self):
        s = ScoreSet(
            ids=["a", "b"], probs=[[0.9, 0.1], [0.7, 0.3]], labels=[1, 1]
        )
        assert fit(s, Kind.AVERAGE_ERROR, ebar=0.6).theta == 0.9

    def test_missing_labels_and_range(self):
        s = ScoreSet(ids=["a"], probs=[[0.9, 0.1]], labels=[0])
        with pytest.raises(MissingLabels):
            fit(s, Kind.AVERAGE_ERROR, ebar=0.3)
        labeled = ScoreSet(ids=["a"], probs=[[0.9, 0.1]], labels=[1])
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(EbarOutOfRange):
                fit(labeled, Kind.AVERAGE_ERROR, ebar=bad)

    def test_order_statistic_agrees_with_step_function(self):
        # the fitted cutoff is exactly the largest knot at which the
        # true-class-score function still reaches 1 - ebar
        rng = np.random.default_rng(17)
        probs = rng.dirichlet(np.ones(6), size=321)
        labels = 1 + np.array([rng.choice(6, p=row) for row in probs])
        s = ScoreSet(
            ids=[str(i) for i in range(321)], probs=probs, labels=labels
        )
        h = step_function(H, s)
        for ebar in (0.03, 0.17, 0.4, 0.77):
            theta = fit(s, Kind.AVERAGE_ERROR, ebar=ebar).theta
            assert theta == reach(h, 1.0 - ebar)

    def test_calibration_error_at_most_ebar(self):
        rng = np.random.default_rng(11)
        probs = rng.dirichlet(np.ones(5), size=500)
        labels = 1 + np.array(
            [rng.choice(5, p=row) for row in probs]
        )
        s = ScoreSet(
            ids=[str(i) for i in range(500)], probs=probs, labels=labels
        )
        import math

        for ebar in (0.05, 0.2, 0.5):
            clf = fit(s, Kind.AVERAGE_ERROR, ebar=ebar)
            mask = clf.predict_set_mask(s)
            covered = int(mask[np.arange(500), labels - 1].sum())
            # the guarantee is count-based: at least ceil(n*(1-ebar))
            # calibration samples keep their true class in the set
            assert covered >= math.ceil(500 * (1.0 - ebar))


class TestFitHybridSize:
    def test_single_sample(self):
        clf = fit(one_sample([0.5, 0.3, 0.2]), Kind.HYBRID_SIZE, kbar=1.0, k=2)
        assert clf.theta == 0.5

    def test_generalized_inverse_boundary(self):
        # the pooled top-2 function has value 2 at 0.3, above 1.5, so the
        # inverse lands one knot higher
        clf = fit(one_sample([0.5, 0.3, 0.2]), Kind.HYBRID_SIZE, kbar=1.5, k=2)
        assert clf.theta == 0.5

    def test_kbar_close_to_k_limit(self):
        # as the budget approaches the cap, the cutoff approaches the
        # smallest pooled top-k score from above (one knot up, since the
        # pooled function still equals k at the smallest knot itself)
        rng = np.random.default_rng(8)
        probs = rng.dirichlet(np.ones(5), size=200)
        s = ScoreSet(ids=[str(i) for i in range(200)], probs=probs)
        pooled = np.sort(np.sort(probs, axis=1)[:, -2:].ravel())
        clf = fit(s, Kind.HYBRID_SIZE, kbar=2.0 - 1e-9, k=2)
        assert clf.theta == pooled[1]
        assert clf.theta <= np.quantile(pooled, 0.02)

    def test_parameter_order(self):
        with pytest.raises(ParameterOrderViolation):
            fit(one_sample([0.5, 0.3, 0.2]), Kind.HYBRID_SIZE, kbar=2.0, k=2)

    def test_k_equals_L_reduces_to_average_size(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4), size=100)
        s = ScoreSet(ids=[str(i) for i in range(100)], probs=probs)
        for kbar in (0.5, 1.7, 3.2):
            assert (
                fit(s, Kind.HYBRID_SIZE, kbar=kbar, k=4).theta
                == fit(s, Kind.AVERAGE_SIZE, kbar=kbar).theta
            )


class TestFitHybridError:
    def test_single_knot_examples(self):
        s = one_sample([0.6, 0.4])
        assert fit(s, Kind.HYBRID_ERROR, ebar=0.45, eps=0.5).theta == 0.6
        # level just below the knot mass still lands on the knot
        assert fit(s, Kind.HYBRID_ERROR, ebar=0.4001, eps=0.5).theta == 0.6

    def test_infeasible_pair(self):
        s = one_sample([0.6, 0.4])
        with pytest.raises(InfeasiblePair):
            fit(s, Kind.HYBRID_ERROR, ebar=0.3, eps=0.5)

    def test_parameter_order(self):
        s = one_sample([0.6, 0.4])
        with pytest.raises(ParameterOrderViolation):
            fit(s, Kind.HYBRID_ERROR, ebar=0.5, eps=0.5)
        # a negative budget fails the spec's own range check first
        with pytest.raises(EbarOutOfRange):
            fit(s, Kind.HYBRID_ERROR, ebar=-0.1, eps=0.5)


class TestFitFscore:
    def test_degenerate_vector(self):
        clf = fit(one_sample([1.0, 0.0]), Kind.F_SCORE, beta=1.0)
        assert abs(clf.theta - 0.5) < 1e-12

    def test_uniform_two_class(self):
        clf = fit(one_sample([0.5, 0.5]), Kind.F_SCORE, beta=1.0)
        assert abs(clf.theta - 1.0 / 3.0) < 1e-11

    def test_residual_below_tolerance(self):
        rng = np.random.default_rng(10)
        probs = rng.dirichlet(np.ones(5), size=200)
        s = ScoreSet(ids=[str(i) for i in range(200)], probs=probs)
        theta = fit(s, Kind.F_SCORE, beta=1.3).theta
        # phi(theta) = beta^2 theta - mean_i sum_l (p_il - theta)_+
        phi = 1.3**2 * theta - np.clip(probs - theta, 0, None).sum(1).mean()
        assert abs(phi) <= 1e-12


class TestPointwiseOffset:
    def test_values(self):
        assert pointwise_offset(1000, 10) == pytest.approx(0.1)
        assert pointwise_offset(10, 10) == 1.0  # cap
        assert pointwise_offset(5, 20) == 1.0

    def test_preconditions(self):
        with pytest.raises(TooFewClasses):
            pointwise_offset(4, 1)
        with pytest.raises(ValueError):
            pointwise_offset(0, 5)


def exact_frequency_population(seed=3, L=4, reps=100):
    """Samples whose labels occur with exactly softmax(logits) frequency,
    so the likelihood is maximized at temperature exactly 1."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 20, size=(5, L))
    probs = counts / counts.sum(axis=1, keepdims=True)
    logits = np.log(probs)
    ids, Z, Y = [], [], []
    for i in range(probs.shape[0]):
        for ell in range(L):
            for j in range(int(counts[i, ell])):
                ids.append(f"{i}-{ell}-{j}")
                Z.append(logits[i])
                Y.append(ell + 1)
    Z = np.array(Z)
    return ScoreSet(
        ids=ids, probs=softmax(Z), labels=np.array(Y), logits=Z
    )


def eager_temperature_fit(logits, labels):
    """The temperature fit that evaluates the slope at both bracket ends
    before iterating: its ``T`` and number of slope evaluations."""
    z = logits - logits.max(axis=1, keepdims=True)
    z_true = z[np.arange(z.shape[0]), labels - 1]
    evaluations = []

    def slope(beta):
        evaluations.append(beta)
        mean, var = np.empty(z.shape[0]), np.empty(z.shape[0])
        for rows in core.row_blocks(*z.shape):
            zb = z[rows]
            e = np.exp(np.multiply(zb, beta))
            total = e.sum(axis=1)
            m = mean[rows] = np.einsum("ij,ij->i", e, zb) / total
            var[rows] = np.einsum("ij,ij,ij->i", e, zb, zb) / total - m * m
        return float(np.mean(mean - z_true)), float(np.mean(var))

    t_lo, t_hi = TEMPERATURE_BOUNDS
    lo, hi = 1.0 / t_hi, 1.0 / t_lo
    if slope(lo)[0] >= 0.0:
        return t_hi, len(evaluations)
    if slope(hi)[0] <= 0.0:
        return t_lo, len(evaluations)
    beta = 1.0
    for _ in range(200):
        g, h = slope(beta)
        if g == 0.0:
            break
        if g < 0.0:
            lo = beta
        else:
            hi = beta
        step = beta - g / h if h > 0.0 else np.nan
        if abs(step - beta) <= 1e-13 * beta:
            break
        beta = step if lo < step < hi else 0.5 * (lo + hi)
    return 1.0 / beta, len(evaluations)


class TestFitTemperature:
    def test_exactly_calibrated_population(self):
        s = exact_frequency_population()
        assert fit_temperature(s) == pytest.approx(1.0, abs=1e-5)

    def test_scale_recovery(self):
        s = exact_frequency_population()
        tol = 1e-5
        t0 = fit_temperature(s)
        for c in (2.0, 3.5):
            scaled = ScoreSet(
                ids=s.ids,
                probs=softmax(c * s.logits),
                labels=s.labels,
                logits=c * s.logits,
            )
            tc = fit_temperature(scaled)
            assert abs(tc - c * t0) <= tol * 10 * c

    def test_degenerate_single_sample_hits_endpoint(self):
        # true class carries the smallest logit: likelihood improves as the
        # temperature flattens the softmax, pushing the fit to the upper end
        z = np.array([[2.0, 0.0]])
        s = ScoreSet(ids=["a"], probs=softmax(z), labels=[2], logits=z)
        T = fit_temperature(s)
        assert TEMPERATURE_BOUNDS[1] - T < 1e-4

    def test_degenerate_single_sample_hits_lower_endpoint(self):
        # true class carries the largest logit: likelihood improves as the
        # temperature sharpens the softmax, pushing the fit to the lower end
        z = np.array([[2.0, 0.0]])
        s = ScoreSet(ids=["a"], probs=softmax(z), labels=[1], logits=z)
        assert fit_temperature(s) == TEMPERATURE_BOUNDS[0]
        spec = FormulationSpec(Kind.TOP_K, k=1)
        clf = calibrate(spec, s, temperature="fit")
        assert clf.temperature == TEMPERATURE_BOUNDS[0]
        assert clf.provenance["temperature_at_bound"] is True

    @pytest.mark.parametrize("L, n, scale", [(10, 500, 2.5), (200, 300, 0.4)])
    def test_fit_is_a_stationary_nll_minimum(self, L, n, scale):
        data = synth_generate("dirichlet-like", L, n, seed=L, noise=0.3)
        z = scale * data.logits
        s = ScoreSet(ids=data.ids, probs=softmax(z), labels=data.labels,
                     logits=z)
        true = z[np.arange(n), s.labels - 1]

        def nll(T):
            shifted = z / T
            m = shifted.max(axis=1)
            lse = m + np.log(np.exp(shifted - m[:, None]).sum(axis=1))
            return float(np.mean(lse - true / T))

        T = fit_temperature(s)
        p = softmax(z / T)
        slope = np.mean((p * z).sum(axis=1) - true)  # dNLL / d(1/T)
        assert abs(slope) <= 1e-9 * np.abs(z).max()
        assert nll(T) <= nll(T - 1e-6)
        assert nll(T) <= nll(T + 1e-6)
        assert calibrate(FormulationSpec(Kind.TOP_K, k=1), s,
                         temperature="fit").provenance[
                             "temperature_at_bound"] is False

    @pytest.mark.parametrize("template", ["dirichlet-like", "two-regime"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_bracket_ends_on_demand_equal_the_eager_fit(self, monkeypatch,
                                                        template, seed):
        # the fit evaluates a bracket end only when it needs its sign: the
        # same T bits as evaluating both ends first, in fewer evaluations
        # wherever the optimum is inside the bracket, and at most one more
        # (the start) where it is at a bound
        evaluations = [0]
        blocks = core.row_blocks

        def counted(*args):  # one call per slope evaluation
            evaluations[0] += 1
            return blocks(*args)

        monkeypatch.setattr(calibration, "row_blocks", counted)
        results = set()
        for L, n in ((10, 400), (100, 300)):
            data = synth_generate(template, L, n, seed=seed, noise=0.3)
            for scale in (1e-4, 0.01, 1.0, 50.0, 1e4):
                z = scale * data.logits
                want, eager = eager_temperature_fit(z, data.labels)
                scaled = ScoreSet(ids=data.ids, probs=softmax(z),
                                  labels=data.labels, logits=z)
                evaluations[0] = 0
                got = fit_temperature(scaled)
                assert got == want
                used = evaluations[0]
                if want in TEMPERATURE_BOUNDS:
                    assert used <= eager + 1
                else:
                    assert used < eager
                results.add(want if want in TEMPERATURE_BOUNDS else "inside")
        assert results == {*TEMPERATURE_BOUNDS, "inside"}
        z = np.zeros((5, 4))  # no slope anywhere: the upper bound
        labels = np.array([1, 2, 3, 4, 1])
        flat = ScoreSet(ids=list("abcde"), probs=softmax(z), labels=labels,
                        logits=z)
        assert fit_temperature(flat) == 20.0
        assert eager_temperature_fit(z, labels)[0] == 20.0

    def test_infinite_logits_raise_before_the_fit(self):
        # 0 * -inf made every slope NaN, and the fit returned the upper
        # bound 20.0 as if the optimum lay beyond it
        p = np.array([[0.9, 0.1, 0.0], [0.2, 0.3, 0.5], [0.6, 0.4, 0.0]])
        with np.errstate(divide="ignore"):
            s = ScoreSet(ids=list("abc"), probs=p, labels=[1, 3, 2],
                         logits=np.log(p))
        with pytest.raises(NonFiniteEntry) as exc:
            fit_temperature(s)
        assert (exc.value.row, exc.value.entry) == (0, 2)
        with pytest.raises(NonFiniteEntry):
            calibrate(FormulationSpec(Kind.TOP_K, k=1), s, temperature="fit")

    def test_missing_inputs(self):
        s = ScoreSet(ids=["a"], probs=[[0.6, 0.4]], labels=[1])
        with pytest.raises(MissingLogits):
            fit_temperature(s)
        with pytest.raises(MissingLogits):  # an unfitted kind rescales too
            calibrate(FormulationSpec(Kind.TOP_K, k=1), s, temperature=2.0)
        z = np.log(np.array([[0.6, 0.4]]))
        s2 = ScoreSet(ids=["a"], probs=[[0.6, 0.4]], logits=z)
        with pytest.raises(MissingLabels):
            fit_temperature(s2)


class TestDerivedScoreSets:
    """``subset`` and ``sample_scores`` build from checked arrays without
    checking them again; what they build must still pass the public
    constructor, field for field.  A score set is always at temperature
    1: ``calibrate`` rescales its logits without building another."""

    def test_rebuilt_through_the_constructor(self):
        data = synth_generate("dirichlet-like", 6, 300, 4, noise=0.4)
        draw = np.random.default_rng(0).integers(0, data.n, size=500)
        derived = [data, data.subset(draw), data.subset(np.arange(0))]
        for s in derived:
            fields = {f.name: getattr(s, f.name)
                      for f in dataclasses.fields(ScoreSet)}
            again = ScoreSet(**fields)
            for name in ("probs", "labels", "logits"):
                got, want = getattr(s, name), getattr(again, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
            assert again.ids == s.ids and again.meta == s.meta

    def test_subset_is_a_copy(self):
        data = synth_generate("dirichlet-like", 4, 50, 2)
        part = data.subset(np.arange(10))
        part.probs[0] = 0.25
        part.labels[0] = 0
        part.ids[0] = "x"
        assert data.probs[0, 0] != 0.25 and data.labels[0] != 0
        assert data.ids[0] != "x"

    def test_overflowing_temperature_still_raises(self):
        data = synth_generate("dirichlet-like", 4, 50, 2)
        with pytest.raises(NonFiniteEntry):
            calibrate(FormulationSpec(Kind.TOP_K, k=1), data,
                      temperature=1e-320)

    def test_rescale_runs_one_softmax(self, monkeypatch):
        # at most one: an unfitted kind fits nothing on the rescaled rows,
        # so it checks the rescale from the row maxima and runs none
        data = synth_generate("dirichlet-like", 4, 50, 2)
        calls = []

        def counted(z, *args):
            calls.append(z.shape)
            return softmax(z, *args)

        def refused(*args, **kwargs):
            raise AssertionError("a score set was built")

        monkeypatch.setattr(core, "softmax", counted)
        monkeypatch.setattr(calibration, "softmax", counted)
        monkeypatch.setattr(ScoreSet, "__post_init__", refused)
        monkeypatch.setattr(ScoreSet, "_trusted", refused)
        calibrate(FormulationSpec(Kind.TOP_K, k=2), data, temperature=0.5)
        assert calls == []
        calibrate(FormulationSpec(Kind.AVERAGE_SIZE, kbar=2.0), data,
                  temperature=0.5)
        assert calls == [(50, 4)]


def raised(f, *args):
    """``(type, message, row, entry)`` of the error ``f(*args)`` raises, or
    None when it returns."""
    try:
        f(*args)
    except PredsetsError as exc:
        return (type(exc), str(exc), getattr(exc, "row", None),
                getattr(exc, "entry", None))
    return None


class TestRescaleCheck:
    """A rescale is checked from the row maxima of the logits; the
    decision and the error equal those of checking the whole softmax."""

    @staticmethod
    def sets():
        data = synth_generate("dirichlet-like", 5, 40, 6, noise=0.4)
        z = np.array([[1.0, 2.0, 0.0], [1e300, -1e300, 0.0],
                      [-1e300, -1e300, -1e300], [0.0, -1.0, -2.0]])
        huge = np.array([[0.0, 1e308], [1.0, 2.0]])
        p = np.array([[0.9, 0.1, 0.0], [0.2, 0.3, 0.5], [0.0, 0.0, 1.0]])
        with np.errstate(divide="ignore"):
            api = ScoreSet(ids=list("abc"), probs=p, logits=np.log(p))
        return {
            "synth": data,
            "extreme": ScoreSet(ids=list("abcd"), probs=softmax(z), logits=z),
            "max-zero": ScoreSet(ids=["a"], probs=softmax(z[3:]),
                                 logits=z[3:]),
            "huge": ScoreSet(ids=["a", "b"], probs=softmax(huge), logits=huge),
            "-inf": api,
        }

    @staticmethod
    def whole(scores, T):  # the softmax at T, checked in full
        core.check_probability_rows(softmax(scores.logits, T))

    @pytest.mark.parametrize("T", [1e-320, 1e-300, 1e-3, 0.5, 3.0, 1e300])
    def test_row_maxima_decide_as_the_softmax_check(self, T):
        spec = FormulationSpec(Kind.TOP_K, k=1)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for scores in self.sets().values():
                want = raised(self.whole, scores, T)
                assert want is None or want[0] is NonFiniteEntry
                assert raised(calibration._rescalable, scores, T) == want
                assert raised(calibrate, spec, scores, T) == want
                assert raised(calibration._probs_at, scores, T) == want
                if want is None:
                    assert np.array_equal(calibration._probs_at(scores, T),
                                          softmax(scores.logits, T))

    def test_both_outcomes_occur(self):
        sets = self.sets()
        failing = {  # (name, T) -> (row, entry); every other pair passes
            ("synth", 1e-320): (0, 0), ("extreme", 1e-320): (0, 0),
            ("huge", 1e-320): (0, 0), ("-inf", 1e-320): (0, 0),
            ("extreme", 1e-300): (1, 0), ("huge", 1e-300): (0, 0),
            ("huge", 0.5): (0, 0),
        }
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for T in (1e-320, 1e-300, 0.5):
                for name, scores in sets.items():
                    got = raised(self.whole, scores, T)
                    where = failing.get((name, T))
                    assert (got and got[2:]) == where, (name, T)


class TestFeasibilityCheck:
    def test_perfect_top1(self):
        s = ScoreSet(
            ids=["a", "b"],
            probs=[[0.9, 0.1], [0.2, 0.8]],
            labels=[1, 2],
        )
        report = feasibility_check(s, 1, 0.0)
        assert report.eps_k == 0.0 and report.feasible

    def test_direct_count(self):
        # one label inside top-1, one outside top-2
        s = ScoreSet(
            ids=["a", "b"],
            probs=[[0.9, 0.06, 0.04], [0.5, 0.3, 0.2]],
            labels=[1, 3],
        )
        report = feasibility_check(s, 2, 0.4)
        assert report.eps_k == 0.5
        assert not report.feasible
        assert feasibility_check(s, 2, 0.5).feasible

    def test_missing_labels(self):
        s = ScoreSet(ids=["a"], probs=[[0.9, 0.1]])
        with pytest.raises(MissingLabels):
            feasibility_check(s, 1, 0.1)

    @pytest.mark.parametrize("k", [0, 3])
    def test_k_outside_one_to_L(self, k):
        s = ScoreSet(ids=["a"], probs=[[0.9, 0.1]], labels=[1])
        with pytest.raises(KOutOfRange) as exc:
            feasibility_check(s, k, 0.1)
        assert str(exc.value) == f"k={k} outside [1, 2]"


class TestStepFunctionInvariants:
    def test_totals(self):
        rng = np.random.default_rng(21)
        probs = rng.dirichlet(np.ones(6), size=80)
        labels = 1 + np.array([rng.choice(6, p=row) for row in probs])
        s = ScoreSet(
            ids=[str(i) for i in range(80)], probs=probs, labels=labels
        )
        assert step_function(G, s).total == pytest.approx(6.0, abs=1e-9)
        assert step_function(H, s).total == pytest.approx(1.0, abs=1e-12)
        for k in (1, 3, 6):
            assert step_function(G_k(k), s).total == pytest.approx(k, abs=1e-9)
        h_eps = step_function(H_eps(0.25), s).mass()
        assert h_eps.total <= 1.0 + 1e-12

    def test_g_L_equals_g(self):
        rng = np.random.default_rng(22)
        probs = rng.dirichlet(np.ones(5), size=60)
        s = ScoreSet(ids=[str(i) for i in range(60)], probs=probs)
        g = step_function(G, s)
        g_L = step_function(G_k(5), s)
        assert np.array_equal(g.scores, g_L.scores)
        assert np.allclose(g.tail, g_L.tail, atol=1e-12)


FITTED_SPECS = [
    FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.5),
    FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.15),
    FormulationSpec(Kind.HYBRID_SIZE, kbar=1.2, k=3),
    FormulationSpec(Kind.HYBRID_ERROR, ebar=0.2, eps=0.3),
    FormulationSpec(Kind.F_SCORE, beta=1.0),
]


class TestStepFunction:
    """``calibrate`` reads every fitted cutoff off ``step_function``."""

    @pytest.mark.parametrize("spec", FITTED_SPECS, ids=lambda sp: sp.kind.value)
    def test_cutoff_of_step_function_is_the_fit(self, spec):
        s = synth_generate("two-regime", 5, 300, 4, noise=0.3)
        knots = step_function(spec, s)
        assert calibration._cutoff(spec, knots) == calibrate(spec, s).theta

    @pytest.mark.parametrize("spec", FITTED_SPECS, ids=lambda sp: sp.kind.value)
    def test_errors_of_the_fit(self, spec):
        s = synth_generate("two-regime", 5, 30, 4)
        with pytest.raises(EmptyScoreSet):
            step_function(spec, s.subset([]))
        unlabeled = ScoreSet(ids=s.ids, probs=s.probs)
        if spec.kind is Kind.AVERAGE_ERROR:
            with pytest.raises(MissingLabels):
                step_function(spec, unlabeled)
        else:
            step_function(spec, unlabeled)

    @pytest.mark.parametrize("spec", FITTED_SPECS, ids=lambda sp: sp.kind.value)
    def test_fit_at_a_temperature_is_the_fit_of_its_softmax(self, spec):
        s = synth_generate("two-regime", 5, 300, 4, noise=0.3)
        at = ScoreSet(ids=s.ids, probs=softmax(s.logits, 0.7), labels=s.labels)
        want = calibrate(spec, at).theta
        assert calibrate(spec, s, temperature=0.7).theta == want

    @pytest.mark.parametrize("spec", [
        FormulationSpec(Kind.TOP_K, k=2),
        FormulationSpec(Kind.POINTWISE_ERROR, eps=0.1),
        FormulationSpec(Kind.PENALIZED, lam=0.1),
    ], ids=lambda sp: sp.kind.value)
    def test_kinds_without_a_fit_have_no_knots(self, spec):
        # the knots are read off the fields, and no fit reads these kinds'
        with pytest.raises(ThetaMismatch, match="takes no fitted threshold"):
            step_function(spec, one_sample([0.5, 0.3, 0.2]))

    def test_hybrid_size_k_above_L(self):
        spec = FormulationSpec(Kind.HYBRID_SIZE, kbar=1.0, k=4)
        with pytest.raises(KOutOfRange):
            step_function(spec, one_sample([0.5, 0.3, 0.2]))
        with pytest.raises(KOutOfRange):
            calibrate(spec, one_sample([0.5, 0.3, 0.2]))


def outcome(fit_theta):
    """The cutoff ``fit_theta()`` returns, or the type and text it raises."""
    try:
        return fit_theta()
    except PredsetsError as exc:
        return type(exc), str(exc)


def eighths(rng, L, n):
    """Rows of multiples of 1/8: exact sums and many tied scores."""
    return rng.multinomial(8, np.full(L, 1.0 / L), size=n) / 8.0


def branch(spec, P):
    """Which path ``calibrate`` takes for ``spec`` on ``P``: "full", or the
    kept top knots, "selected" (for the F-score at the bound) or
    "retried" (down to the largest score below the bound).  Checks the
    kept knots are exactly the scores at or above the lowest kept one,
    which is the (floor(kbar n) + 1)-th largest score, or the lowest score
    at or above the bound, or the largest below it; the F-score's lowest
    kept knot must fail the root test."""
    g = calibration._top_knots(spec, P)
    if g is None:
        return "full"
    flat = P.ravel()
    assert g.tail[0] == np.count_nonzero(flat >= g.scores[0])
    if spec.kind is Kind.AVERAGE_SIZE:
        rank = int(np.floor(spec.kbar * P.shape[0]))
        assert g.scores[0] == np.sort(flat)[::-1][rank]
        return "selected"
    b2 = spec.beta * spec.beta
    assert not calibration._phi_nonnegative(g, b2, 0)
    bound = P.max(axis=1).mean() / (1.0 + b2)
    if g.scores[0] < bound:
        assert g.scores[0] == flat[flat < bound].max()
        return "retried"
    assert g.scores[0] == flat[flat >= bound].min()
    return "selected"


SIZE_BUDGETS = (1e-3, 0.2, 0.5, 1.0, 1.5, 2.5, 3.0, 7.5)
BETAS = (0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 8.0, 20.0)


class TestTopKnots:
    """``calibrate`` reads the average-size and F-score cutoffs off the top
    knots of G that can hold them; the cutoff, or the error and its text,
    equals that of the full knots of ``step_function``."""

    @staticmethod
    def specs(L):
        for kbar in (*SIZE_BUDGETS, L / 2, L):
            if kbar <= L:
                yield FormulationSpec(Kind.AVERAGE_SIZE, kbar=kbar)
        for beta in BETAS:
            yield FormulationSpec(Kind.F_SCORE, beta=beta)

    @staticmethod
    def assert_fits_equal(s, L, T=1.0):
        at = s
        if T != 1.0:
            at = ScoreSet(ids=s.ids, probs=softmax(s.logits, T), labels=s.labels)
        seen = set()
        for spec in TestTopKnots.specs(L):
            want = outcome(lambda: calibration._cutoff(spec, step_function(spec, at)))
            got = outcome(lambda: calibrate(spec, s, temperature=T).theta)
            assert got == want, spec
            seen.add((spec.kind, branch(spec, at.probs)))
        return seen

    @pytest.mark.parametrize("L", [2, 10, 100, 1000])
    @pytest.mark.parametrize("rows", ["dirichlet", "eighths", "repeated"])
    def test_fit_equals_full_knots(self, L, rows):
        rng = np.random.default_rng(L)
        n = 4000 // L + 3
        if rows == "dirichlet":
            P = rng.dirichlet(np.full(L, 0.3), size=n)
        elif rows == "eighths":
            P = eighths(rng, L, n)
        else:  # rows of a 3-point support, tied across rows
            P = rng.dirichlet(np.full(L, 0.3), size=3)[rng.integers(0, 3, n)]
        seen = self.assert_fits_equal(ScoreSet(ids=[""] * n, probs=P), L)
        # both sides of the gate for average-size; test_each_branch takes
        # every F-score branch
        assert {(Kind.AVERAGE_SIZE, "selected"), (Kind.AVERAGE_SIZE, "full"),
                (Kind.F_SCORE, "full")} <= seen

    @pytest.mark.parametrize("L", [2, 10, 100, 1000])
    def test_one_row(self, L):
        rng = np.random.default_rng(L + 1)
        for P in (rng.dirichlet(np.ones(L), size=1), eighths(rng, L, 1)):
            self.assert_fits_equal(ScoreSet(ids=["a"], probs=P), L)

    @pytest.mark.parametrize("template", ["two-regime", "near-deterministic"])
    @pytest.mark.parametrize("L", [10, 1000])
    @pytest.mark.parametrize("T", [1.0, 0.7, 2.0])
    def test_synthetic_sets_and_temperatures(self, template, L, T):
        s = synth_generate(template, L, 20_000 // L, 3, noise=0.2)
        self.assert_fits_equal(s, L, T)

    def test_each_branch(self):
        cases = [
            ("dirichlet-like", 10, FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0), "selected"),
            ("dirichlet-like", 10, FormulationSpec(Kind.AVERAGE_SIZE, kbar=3.0), "full"),
            ("dirichlet-like", 1000, FormulationSpec(Kind.AVERAGE_SIZE, kbar=10.0), "selected"),
            ("dirichlet-like", 1000, FormulationSpec(Kind.AVERAGE_SIZE, kbar=300.0), "full"),
            ("dirichlet-like", 10, FormulationSpec(Kind.F_SCORE, beta=0.5), "selected"),
            ("dirichlet-like", 10, FormulationSpec(Kind.F_SCORE, beta=3.0), "full"),
            ("near-deterministic", 10, FormulationSpec(Kind.F_SCORE, beta=1.0), "retried"),
            ("dirichlet-like", 1000, FormulationSpec(Kind.F_SCORE, beta=1.0), "selected"),
            ("dirichlet-like", 1000, FormulationSpec(Kind.F_SCORE, beta=8.0), "full"),
            ("near-deterministic", 1000, FormulationSpec(Kind.F_SCORE, beta=1.0), "retried"),
        ]
        for template, L, spec, want in cases:
            s = synth_generate(template, L, 20_000 // L, 5, noise=0.2)
            assert branch(spec, s.probs) == want, (template, L, spec)
            assert calibrate(spec, s).theta == calibration._cutoff(
                spec, step_function(spec, s))

    def test_top_rank_beyond_the_scores_gives_zero(self):
        # floor(kbar n) + 1 > N: every score is kept and theta is 0
        s = synth_generate("dirichlet-like", 10, 50, 2)
        spec = FormulationSpec(Kind.AVERAGE_SIZE, kbar=10.0)
        assert branch(spec, s.probs) == "full"
        assert calibrate(spec, s).theta == 0.0

    def test_tiny_budget_saturates_alike(self):
        s = synth_generate("dirichlet-like", 100, 50, 2)
        spec = FormulationSpec(Kind.AVERAGE_SIZE, kbar=1e-3)
        assert branch(spec, s.probs) == "selected"
        got = outcome(lambda: calibrate(spec, s).theta)
        assert got[0] is Saturated
        assert got == outcome(lambda: calibration._cutoff(spec, step_function(spec, s)))

    def test_root_at_the_bound(self, monkeypatch):
        # one-hot-like rows: the top-1 sets are optimal, the root is the
        # bound itself and its knot passes the root test, so the kept knots
        # reach down to the largest score below it
        P = np.array([[0.9, 0.05, 0.05], [0.8, 0.1, 0.1], [0.7, 0.2, 0.1]])
        s = ScoreSet(ids=list("abc"), probs=P)
        spec = FormulationSpec(Kind.F_SCORE, beta=1.0)
        monkeypatch.setattr(calibration, "_SELECT_SHARE", 1.0)  # 4 of 9 kept
        assert branch(spec, P) == "retried"
        theta = calibrate(spec, s).theta
        assert theta == calibration._cutoff(spec, step_function(spec, s))
        assert theta == pytest.approx(0.8 / 2, abs=1e-15)


class TestDrawFit:
    """``_draw_fit`` fits a bootstrap draw as ``calibrate`` fits the drawn
    rows: the same temperature and, at every grid value, the same cutoff,
    or the same error and text, bit for bit."""

    CASES = [
        (FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0), [1e-9, 0.3, 0.7, 1.3]),
        (FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.1), [0.03, 0.1, 0.25]),
        (FormulationSpec(Kind.HYBRID_SIZE, kbar=1.0, k=2), [0.4, 1.1, 1.7]),
        (FormulationSpec(Kind.HYBRID_ERROR, ebar=0.1, eps=0.3),
         [0.01, 0.2, 0.27]),
        (FormulationSpec(Kind.HYBRID_ERROR, ebar=0.1, eps=0.3,
                         mode="union-with-pointwise"), [0.2, 0.27]),
        (FormulationSpec(Kind.F_SCORE, beta=1.0), [0.5, 1.0, 1.5]),
    ]

    @staticmethod
    def assert_draws_fit_alike(template, grid, temperature, seeds=6, n=157):
        """Fits ``seeds`` draws of a two-regime set of ``n`` rows at L = 4;
        returns the knot count of each draw and of the full knots."""
        data = synth_generate("two-regime", 4, n, 5, noise=0.3)
        specs = [spec_with_param(template, value) for value in grid]
        fit = calibration._draw_fit(specs[-1], data, temperature)
        sizes = []
        for rep in range(seeds):
            idx = np.random.default_rng([0, rep]).integers(0, n, size=n)
            T, knots = fit(idx, np.bincount(idx, minlength=n))
            rows = data.subset(idx)
            for spec in specs:
                want = outcome(lambda: calibrate(
                    spec, rows, temperature=temperature))
                got = outcome(lambda: calibration._cutoff(spec, knots))
                if not isinstance(want, tuple):
                    assert T == want.temperature, (spec, rep)
                    want = want.theta
                assert got == want, (spec, rep)
            sizes.append(knots.scores.size)
        return sizes, step_function(specs[-1], data).scores.size

    @pytest.mark.parametrize("temperature", [1.0, "fit"])
    @pytest.mark.parametrize("template, grid", CASES)
    def test_equals_calibrate_on_the_drawn_rows(self, template, grid,
                                                temperature):
        self.assert_draws_fit_alike(template, grid, temperature)

    @pytest.mark.parametrize("template, grid", [CASES[0], CASES[5]])
    def test_draws_the_kept_set_misses(self, template, grid, monkeypatch):
        # without a margin some draws' kept weight (or phi) falls short
        monkeypatch.setattr(calibration, "_MARGIN_SD", 0.0)
        sizes, full = self.assert_draws_fit_alike(template, grid, 1.0,
                                                  seeds=20)
        assert full in sizes and min(sizes) < full

    @pytest.mark.parametrize("template, grid", [
        (FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0), [0.5, 1.5, 2.6]),
        (FormulationSpec(Kind.F_SCORE, beta=1.0), [1.0, 8.0]),
    ])
    def test_grid_past_the_share(self, template, grid):
        # kbar 2.6 of L = 4 needs 65 % of the scores, beta = 8 nearly all
        sizes, full = self.assert_draws_fit_alike(template, grid, 1.0)
        assert set(sizes) == {full}


class TestCalibrateDispatch:
    def test_theta_presence_matches_kind(self):
        rng = np.random.default_rng(31)
        probs = rng.dirichlet(np.ones(4), size=50)
        labels = 1 + np.array([rng.choice(4, p=row) for row in probs])
        s = ScoreSet(
            ids=[str(i) for i in range(50)], probs=probs, labels=labels
        )
        fitted = {
            Kind.AVERAGE_SIZE: FormulationSpec(Kind.AVERAGE_SIZE, kbar=2.0),
            Kind.AVERAGE_ERROR: FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.2),
            Kind.F_SCORE: FormulationSpec(Kind.F_SCORE, beta=1.0),
        }
        for spec in fitted.values():
            assert calibrate(spec, s).theta is not None
        for spec in (
            FormulationSpec(Kind.TOP_K, k=2),
            FormulationSpec(Kind.PENALIZED, lam=0.3),
            FormulationSpec(Kind.POINTWISE_ERROR, eps=0.1),
        ):
            assert calibrate(spec, s).theta is None

    def test_auto_offset(self):
        dist = make_distribution("dirichlet-like", 10, 0)
        s = sample_scores(dist, 1000, 0)
        spec = FormulationSpec(Kind.POINTWISE_ERROR, eps=0.3)
        clf = calibrate(spec, s, offset="auto")
        assert clf.offset == pytest.approx(0.1)

    @pytest.mark.parametrize("offset", [0.3, "auto", 0.0])
    @pytest.mark.parametrize("spec", [
        FormulationSpec(Kind.TOP_K, k=2),
        FormulationSpec(Kind.AVERAGE_SIZE, kbar=2.0),
        FormulationSpec(Kind.HYBRID_ERROR, ebar=0.1, eps=0.5),
    ])
    def test_offset_of_a_kind_without_one_is_refused(self, spec, offset):
        # refused before the temperature fit, which these logit-free
        # scores would fail
        s = one_sample([0.5, 0.3, 0.2])
        with pytest.raises(SpecFieldError) as exc:
            calibrate(spec, s, temperature="fit", offset=offset)
        assert str(exc.value) == (
            f"offset is not a parameter of {spec.kind.value}"
        )
        assert exc.value.field == "offset"

    def test_provenance_recorded(self):
        s = one_sample([0.5, 0.3, 0.2])
        clf = calibrate(
            FormulationSpec(Kind.AVERAGE_SIZE, kbar=2.0), s, seed=42
        )
        assert clf.provenance["calibration_set_size"] == 1
        assert clf.provenance["seed"] == 42
        assert "fitted_at" in clf.provenance
        assert clf.provenance["L"] == 3

    def test_classifier_invariant_enforced(self):
        with pytest.raises(ValueError):
            CalibratedClassifier(
                spec=FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0)
            )
        with pytest.raises(ValueError):
            CalibratedClassifier(
                spec=FormulationSpec(Kind.TOP_K, k=1), theta=0.5
            )

    @pytest.mark.parametrize(
        "fields, error",
        [
            (dict(spec=FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0)),
             ThetaMismatch),
            (dict(spec=FormulationSpec(Kind.TOP_K, k=1), theta=0.5),
             ThetaMismatch),
            (dict(spec=FormulationSpec(Kind.TOP_K, k=1), temperature=0.0),
             InvalidTemperature),
            (dict(spec=FormulationSpec(Kind.TOP_K, k=1),
                  temperature=float("inf")), InvalidTemperature),
            (dict(spec=FormulationSpec(Kind.TOP_K, k=1),
                  temperature=float("nan")), InvalidTemperature),
        ],
    )
    def test_classifier_errors_are_typed(self, fields, error):
        with pytest.raises(error) as exc:
            CalibratedClassifier(**fields)
        assert isinstance(exc.value, PredsetsError)
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf")])
    def test_non_finite_theta_rejected(self, theta):
        # a model file could not hold it: read_model refuses 'theta: nan'
        spec = FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0)
        with pytest.raises(ThetaMismatch, match="must be finite"):
            CalibratedClassifier(spec, theta=theta)

    @pytest.mark.parametrize("T", [0.0, -1.0, float("inf"), float("nan")])
    def test_calibrate_rejects_bad_temperature(self, T):
        s = one_sample([0.5, 0.3, 0.2])
        with pytest.raises(InvalidTemperature):
            calibrate(FormulationSpec(Kind.TOP_K, k=1), s, temperature=T)

    def test_resolved_offset_lives_in_the_spec(self):
        s = one_sample([0.5, 0.3, 0.2])
        spec = FormulationSpec(Kind.POINTWISE_ERROR, eps=0.25, offset=0.05)
        assert calibrate(spec, s).spec.offset == 0.05
        clf = calibrate(spec, s, offset=0.0)  # a 0 stays 0 under a spec offset
        assert clf.spec.offset == clf.offset == 0.0
        mask = clf.predict_set_mask(one_sample([0.5, 0.3, 0.2]))
        assert mask.tolist() == [[True, True, False]]
        with pytest.raises(AttributeError):
            clf.offset = 0.1  # read-only: the spec is its one home

    def test_direct_construction_adopts_spec_offset(self):
        clf = CalibratedClassifier(
            spec=FormulationSpec(Kind.POINTWISE_ERROR, eps=0.25, offset=0.05)
        )
        assert clf.offset == 0.05
        mask = clf.predict_set_mask(one_sample([0.5, 0.3, 0.2]))
        assert mask.tolist() == [[True, True, False]]  # 0.8 >= 1 - 0.25 + 0.05

    def test_temperature_applied_at_predict_time(self):
        # a classifier carrying T != 1 rescales the logits before the rule
        z = np.array([[2.0, 1.0, 0.0], [0.2, 0.1, 0.0]])
        s = ScoreSet(
            ids=["a", "b"], probs=softmax(z), labels=[1, 1], logits=z
        )
        clf = CalibratedClassifier(
            spec=FormulationSpec(Kind.PENALIZED, lam=0.3), temperature=4.0
        )
        expect = softmax(z / 4.0) >= 0.3
        assert np.array_equal(clf.predict_set_mask(s), expect)
        # without logits the rescale is impossible and must fail loudly
        bare = ScoreSet(ids=["a", "b"], probs=softmax(z), labels=[1, 1])
        with pytest.raises(MissingLogits):
            clf.predict_set_mask(bare)
