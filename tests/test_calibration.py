"""Threshold fitting, step functions, temperature, offset, feasibility."""

import numpy as np
import pytest

from predsets.calibration import (
    TEMPERATURE_BOUNDS,
    CalibratedClassifier,
    EmpiricalStepFunction,
    calibrate,
    empirical_g,
    empirical_g_k,
    empirical_h,
    empirical_h_eps,
    feasibility_check,
    fit_average_error,
    fit_average_size,
    fit_fscore,
    fit_hybrid_error,
    fit_hybrid_size,
    fit_temperature,
    fscore_objective_derivative,
    generalized_inverse,
    pointwise_offset,
)
from predsets.core import ScoreSet, softmax
from predsets.errors import (
    EbarOutOfRange,
    EmptyScoreSet,
    InfeasiblePair,
    KbarOutOfRange,
    MissingLabels,
    MissingLogits,
    NegativeU,
    ParameterOrderViolation,
    Saturated,
    TooFewClasses,
)
from predsets.formulations import FormulationSpec, Kind
from predsets.oracle import make_distribution, sample_scores


def one_sample(probs):
    return ScoreSet(ids=["a"], probs=[probs])


class TestEmpiricalStepFunction:
    def test_value_counts_knots_at_or_above(self):
        f = EmpiricalStepFunction([0.5, 0.3, 0.2], [1, 1, 1])
        assert f.value(0.0) == 3
        assert f.value(0.2) == 3
        assert f.value(0.25) == 2
        assert f.value(0.5) == 1
        assert f.value(0.51) == 0
        assert f.total == 3

    def test_duplicate_scores_merged(self):
        f = EmpiricalStepFunction([0.4, 0.4, 0.1], [1, 2, 3])
        assert f.value(0.4) == 3
        assert f.value(0.1) == 6
        assert f.scores.tolist() == [0.1, 0.4]

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(0)
        f = EmpiricalStepFunction(rng.random(50), rng.random(50))
        grid = np.linspace(0, 1, 101)
        values = f.value(grid)
        assert np.all(np.diff(values) <= 0)


    def test_reweight_matches_repeated_rows(self):
        # a bootstrap draw as counts over the knots sorted once equals the
        # function built from the drawn rows themselves
        rng = np.random.default_rng(4)
        probs = rng.dirichlet(np.ones(3), size=40)
        idx = rng.integers(0, 40, size=40)
        drawn = empirical_g(ScoreSet(ids=[""] * 40, probs=probs[idx]))
        full = empirical_g(ScoreSet(ids=[""] * 40, probs=probs))
        counted = full.reweight(np.bincount(idx, minlength=40))
        heavy = counted.weight > 0
        assert np.array_equal(counted.scores[heavy], drawn.scores)
        assert np.array_equal(counted.tail[heavy], drawn.tail)
        assert counted.total == drawn.total == 3.0


class TestGeneralizedInverse:
    def test_skips_knots_without_weight(self):
        # f(0.3) = f(0.5) = 1, but no sample sits at 0.3
        f = EmpiricalStepFunction([0.2, 0.3, 0.5], [1, 0, 1])
        assert generalized_inverse(f, 1) == 0.5
        with pytest.raises(Saturated) as exc:
            generalized_inverse(EmpiricalStepFunction([0.2, 0.7], [1, 0]), 0.5)
        assert exc.value.value == 0.2


    def test_interior_knot(self):
        f = EmpiricalStepFunction([0.5, 0.3, 0.2], [1, 1, 1])
        # f(0.3) = 2 <= 2 while f(0.2) = 3 > 2
        assert generalized_inverse(f, 2) == 0.3

    def test_boundary_rule_returns_zero(self):
        f = EmpiricalStepFunction([0.5, 0.3, 0.2], [1, 1, 1])
        assert generalized_inverse(f, 3) == 0.0
        assert generalized_inverse(f, 10) == 0.0

    def test_saturation(self):
        f = EmpiricalStepFunction([0.5, 0.3, 0.2], [1, 1, 1])
        with pytest.raises(Saturated) as exc:
            generalized_inverse(f, 0.5)
        assert exc.value.value == 0.5
        assert exc.value.u == 0.5

    def test_negative_level(self):
        f = EmpiricalStepFunction([0.5], [1])
        with pytest.raises(NegativeU):
            generalized_inverse(f, -0.01)


class TestFitAverageSize:
    def test_integer_budget_cutoff_is_tight(self):
        # kbar * N = 9 exactly: summed 1/N weights overshot 9 and skipped
        # the knot where the size reaches exactly 9/9; counts do not
        P = np.random.default_rng(9).dirichlet(np.ones(4), size=9)
        s = ScoreSet(ids=[str(i) for i in range(9)], probs=P)
        theta = fit_average_size(s, 1.0).theta
        assert np.count_nonzero(P >= theta) == 9

    def test_one_sample(self):
        clf = fit_average_size(one_sample([0.5, 0.3, 0.2]), 2.0)
        assert clf.theta == 0.3

    def test_two_samples_pooled(self):
        s = ScoreSet(ids=["a", "b"], probs=[[0.6, 0.4], [0.8, 0.2]])
        assert fit_average_size(s, 1.0).theta == 0.6

    def test_kbar_equals_L_gives_zero(self):
        s = ScoreSet(ids=["a", "b"], probs=[[0.6, 0.4], [0.8, 0.2]])
        assert fit_average_size(s, 2.0).theta == 0.0

    def test_parameter_and_empty_errors(self):
        s = one_sample([0.5, 0.5])
        with pytest.raises(KbarOutOfRange):
            fit_average_size(s, 0.0)
        with pytest.raises(KbarOutOfRange):
            fit_average_size(s, 2.5)
        with pytest.raises(EmptyScoreSet):
            empty = ScoreSet(ids=["a"], probs=[[0.5, 0.5]]).subset([])
            fit_average_size(empty, 1.0)

    def test_calibration_set_consistency(self):
        # mean predicted size on the calibration data is within (kbar - L/N, kbar]
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(6), size=400)
        s = ScoreSet(ids=[str(i) for i in range(400)], probs=probs)
        for kbar in (1.0, 2.5, 4.0):
            clf = fit_average_size(s, kbar)
            mean_size = clf.predict_mask(s.probs).sum(axis=1).mean()
            assert kbar - 6 / 400 < mean_size <= kbar


class TestFitAverageError:
    def test_order_statistic(self):
        s = ScoreSet(
            ids=list("abcd"),
            probs=[[0.9, 0.1], [0.7, 0.3], [0.5, 0.5], [0.1, 0.9]],
            labels=[1, 1, 1, 1],
        )
        assert fit_average_error(s, 0.25).theta == 0.5

    def test_perfect_scores(self):
        s = ScoreSet(
            ids=["a", "b"], probs=[[1.0, 0.0], [1.0, 0.0]], labels=[1, 1]
        )
        assert fit_average_error(s, 0.3).theta == 1.0

    def test_small_sample_ceiling(self):
        s = ScoreSet(
            ids=["a", "b"], probs=[[0.9, 0.1], [0.7, 0.3]], labels=[1, 1]
        )
        assert fit_average_error(s, 0.6).theta == 0.9

    def test_missing_labels_and_range(self):
        s = ScoreSet(ids=["a"], probs=[[0.9, 0.1]], labels=[0])
        with pytest.raises(MissingLabels):
            fit_average_error(s, 0.3)
        labeled = ScoreSet(ids=["a"], probs=[[0.9, 0.1]], labels=[1])
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(EbarOutOfRange):
                fit_average_error(labeled, bad)

    def test_order_statistic_agrees_with_step_function(self):
        # the fitted cutoff is exactly the largest knot at which the
        # true-class-score function still reaches 1 - ebar
        from predsets.calibration import empirical_h, largest_level_knot

        rng = np.random.default_rng(17)
        probs = rng.dirichlet(np.ones(6), size=321)
        labels = 1 + np.array([rng.choice(6, p=row) for row in probs])
        s = ScoreSet(
            ids=[str(i) for i in range(321)], probs=probs, labels=labels
        )
        h = empirical_h(s)
        for ebar in (0.03, 0.17, 0.4, 0.77):
            assert fit_average_error(s, ebar).theta == largest_level_knot(
                h, 1.0 - ebar
            )

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
            clf = fit_average_error(s, ebar)
            mask = clf.predict_mask(s.probs)
            covered = int(mask[np.arange(500), labels - 1].sum())
            # the guarantee is count-based: at least ceil(n*(1-ebar))
            # calibration samples keep their true class in the set
            assert covered >= math.ceil(500 * (1.0 - ebar))


class TestFitHybridSize:
    def test_single_sample(self):
        clf = fit_hybrid_size(one_sample([0.5, 0.3, 0.2]), 1.0, 2)
        assert clf.theta == 0.5

    def test_generalized_inverse_boundary(self):
        # the pooled top-2 function has value 2 at 0.3, above 1.5, so the
        # inverse lands one knot higher
        clf = fit_hybrid_size(one_sample([0.5, 0.3, 0.2]), 1.5, 2)
        assert clf.theta == 0.5

    def test_kbar_close_to_k_limit(self):
        # as the budget approaches the cap, the cutoff approaches the
        # smallest pooled top-k score from above (one knot up, since the
        # pooled function still equals k at the smallest knot itself)
        rng = np.random.default_rng(8)
        probs = rng.dirichlet(np.ones(5), size=200)
        s = ScoreSet(ids=[str(i) for i in range(200)], probs=probs)
        pooled = np.sort(np.sort(probs, axis=1)[:, -2:].ravel())
        clf = fit_hybrid_size(s, 2.0 - 1e-9, 2)
        assert clf.theta == pooled[1]
        assert clf.theta <= np.quantile(pooled, 0.02)

    def test_parameter_order(self):
        with pytest.raises(ParameterOrderViolation):
            fit_hybrid_size(one_sample([0.5, 0.3, 0.2]), 2.0, 2)

    def test_k_equals_L_reduces_to_average_size(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(4), size=100)
        s = ScoreSet(ids=[str(i) for i in range(100)], probs=probs)
        for kbar in (0.5, 1.7, 3.2):
            assert (
                fit_hybrid_size(s, kbar, 4).theta
                == fit_average_size(s, kbar).theta
            )


class TestFitHybridError:
    def test_single_knot_examples(self):
        s = one_sample([0.6, 0.4])
        assert fit_hybrid_error(s, 0.45, 0.5).theta == 0.6
        # level just below the knot mass still lands on the knot
        assert fit_hybrid_error(s, 0.4001, 0.5).theta == 0.6

    def test_infeasible_pair(self):
        s = one_sample([0.6, 0.4])
        with pytest.raises(InfeasiblePair):
            fit_hybrid_error(s, 0.3, 0.5)

    def test_parameter_order(self):
        s = one_sample([0.6, 0.4])
        with pytest.raises(ParameterOrderViolation):
            fit_hybrid_error(s, 0.5, 0.5)
        with pytest.raises(ParameterOrderViolation):
            fit_hybrid_error(s, -0.1, 0.5)


class TestFitFscore:
    def test_degenerate_vector(self):
        clf = fit_fscore(one_sample([1.0, 0.0]), 1.0)
        assert abs(clf.theta - 0.5) < 1e-12

    def test_uniform_two_class(self):
        clf = fit_fscore(one_sample([0.5, 0.5]), 1.0)
        assert abs(clf.theta - 1.0 / 3.0) < 1e-11

    def test_phi_at_zero_is_minus_one(self):
        rng = np.random.default_rng(9)
        probs = rng.dirichlet(np.ones(7), size=50)
        for beta in (0.5, 1.0, 2.0):
            assert fscore_objective_derivative(probs, beta, 0.0) == pytest.approx(
                -1.0, abs=1e-12
            )
            assert fscore_objective_derivative(probs, beta, 1.0) == pytest.approx(
                beta**2, abs=1e-12
            )

    def test_residual_below_tolerance(self):
        rng = np.random.default_rng(10)
        probs = rng.dirichlet(np.ones(5), size=200)
        s = ScoreSet(ids=[str(i) for i in range(200)], probs=probs)
        clf = fit_fscore(s, 1.3)
        assert abs(fscore_objective_derivative(probs, 1.3, clf.theta)) <= 1e-12


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


class TestFitTemperature:
    def test_exactly_calibrated_population(self):
        s = exact_frequency_population()
        assert fit_temperature(s, tol=1e-6) == pytest.approx(1.0, abs=1e-5)

    def test_scale_recovery(self):
        s = exact_frequency_population()
        tol = 1e-5
        t0 = fit_temperature(s, tol=tol)
        for c in (2.0, 3.5):
            scaled = ScoreSet(
                ids=s.ids,
                probs=softmax(c * s.logits),
                labels=s.labels,
                logits=c * s.logits,
            )
            tc = fit_temperature(scaled, tol=tol)
            assert abs(tc - c * t0) <= tol * 10 * c

    def test_degenerate_single_sample_hits_endpoint(self):
        # true class carries the smallest logit: likelihood improves as the
        # temperature flattens the softmax, pushing the fit to the upper end
        z = np.array([[2.0, 0.0]])
        s = ScoreSet(ids=["a"], probs=softmax(z), labels=[2], logits=z)
        T = fit_temperature(s, tol=1e-6)
        assert TEMPERATURE_BOUNDS[1] - T < 1e-4

    def test_missing_inputs(self):
        s = ScoreSet(ids=["a"], probs=[[0.6, 0.4]], labels=[1])
        with pytest.raises(MissingLogits):
            fit_temperature(s)
        z = np.log(np.array([[0.6, 0.4]]))
        s2 = ScoreSet(ids=["a"], probs=[[0.6, 0.4]], logits=z)
        with pytest.raises(MissingLabels):
            fit_temperature(s2)


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


class TestStepFunctionInvariants:
    def test_totals(self):
        rng = np.random.default_rng(21)
        probs = rng.dirichlet(np.ones(6), size=80)
        labels = 1 + np.array([rng.choice(6, p=row) for row in probs])
        s = ScoreSet(
            ids=[str(i) for i in range(80)], probs=probs, labels=labels
        )
        assert empirical_g(s).total == pytest.approx(6.0, abs=1e-9)
        assert empirical_h(s).total == pytest.approx(1.0, abs=1e-12)
        for k in (1, 3, 6):
            assert empirical_g_k(s, k).total == pytest.approx(k, abs=1e-9)
        h_eps = empirical_h_eps(s, 0.25)
        assert h_eps.total <= 1.0 + 1e-12

    def test_g_L_equals_g(self):
        rng = np.random.default_rng(22)
        probs = rng.dirichlet(np.ones(5), size=60)
        s = ScoreSet(ids=[str(i) for i in range(60)], probs=probs)
        g = empirical_g(s)
        g_L = empirical_g_k(s, 5)
        assert np.array_equal(g.scores, g_L.scores)
        assert np.allclose(g.tail, g_L.tail, atol=1e-12)


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

    def test_direct_construction_adopts_spec_offset(self):
        clf = CalibratedClassifier(
            spec=FormulationSpec(Kind.POINTWISE_ERROR, eps=0.25, offset=0.05)
        )
        assert clf.offset == 0.05
        labels = clf.predict(np.array([0.5, 0.3, 0.2]))
        assert labels.tolist() == [1, 2]  # 0.8 >= 1 - 0.25 + 0.05

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
