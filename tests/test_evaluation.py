"""Metrics, per-class violation proxies and sweeps."""

import math
import warnings

import numpy as np
import pytest

from predsets import calibration, evaluation
from predsets.calibration import CalibratedClassifier, EmpiricalStepFunction
from predsets.calibration import calibrate, step_function
from predsets.core import ScoreSet
from predsets.errors import EmptyScoreSet, InvalidBeta, MissingLabels
from predsets.errors import PredsetsError, SpecFieldError
from predsets.evaluation import (
    PerClassViolation,
    evaluate,
    spec_with_param,
    sweep,
)
from predsets.formulations import FormulationSpec, Kind
from predsets.oracle import make_distribution, sample_scores, synth_generate


def labeled_set(seed=0, L=4, n=300):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(L), size=n)
    labels = 1 + np.array([rng.choice(L, p=row) for row in probs])
    return ScoreSet(
        ids=[str(i) for i in range(n)], probs=probs, labels=labels
    )


def topk_clf(k):
    return CalibratedClassifier(spec=FormulationSpec(Kind.TOP_K, k=k))


def threshold_clf(theta):
    return CalibratedClassifier(
        spec=FormulationSpec(Kind.PENALIZED, lam=theta)
    )


class TestEvaluate:
    def test_top1_on_argmax_labels(self):
        s = ScoreSet(
            ids=["a", "b"],
            probs=[[0.9, 0.1], [0.2, 0.8]],
            labels=[1, 2],
        )
        m = evaluate(topk_clf(1), s)
        assert m.avg_error == 0.0
        assert m.avg_size == 1.0
        assert m.precision == 1.0
        assert m.recall == 1.0

    def test_full_set_classifier(self):
        s = labeled_set(L=5)
        m = evaluate(topk_clf(5), s)
        assert m.avg_error == 0.0
        assert m.avg_size == 5.0
        assert m.precision == pytest.approx(1 / 5)

    def test_empty_set_classifier(self):
        s = labeled_set()
        m = evaluate(threshold_clf(1.01), s)
        assert m.avg_error == 1.0
        assert m.avg_size == 0.0
        assert m.precision is None
        assert m.empty_set_rate == 1.0

    def test_recall_plus_error_is_one_exactly(self):
        for seed in range(5):
            s = labeled_set(seed=seed)
            for k in (1, 2, 3):
                m = evaluate(topk_clf(k), s)
                assert m.recall + m.avg_error == 1.0

    def test_nested_classifiers_monotone(self):
        s = labeled_set(seed=3)
        m1, m2 = evaluate(topk_clf(1), s), evaluate(topk_clf(3), s)
        assert m1.avg_error >= m2.avg_error
        assert m1.avg_size <= m2.avg_size

    def test_f_beta_formula(self):
        s = labeled_set(seed=4)
        beta = 2.0
        m = evaluate(topk_clf(2), s, beta=beta)
        expect = (1 + beta**2) * m.recall / (beta**2 + m.avg_size)
        assert m.f_beta == pytest.approx(expect, abs=1e-15)

    def test_missing_labels(self):
        s = ScoreSet(ids=["a"], probs=[[0.6, 0.4]])
        with pytest.raises(MissingLabels):
            evaluate(topk_clf(1), s)

    def test_empty_test_set(self):
        with pytest.raises(EmptyScoreSet):
            evaluate(topk_clf(1), labeled_set().subset([]))

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_beta_must_be_finite_and_positive(self, beta):
        # at beta = 0 every set empty would make F_beta 0 / 0
        with pytest.raises(InvalidBeta):
            evaluate(threshold_clf(1.01), labeled_set(), beta=beta)

    @pytest.mark.parametrize("seed", range(4))
    def test_per_class_dicts_equal_class_loop(self, seed):
        # the per-class loop the counts replaced, bit for bit and in order,
        # with class 5 absent
        s = labeled_set(seed=seed, L=40, n=150)
        s.labels[s.labels == 5] = 6
        for clf in (topk_clf(3), threshold_clf(0.03)):
            mask = clf.predict_set_mask(s)
            covered = mask[np.arange(s.n), s.labels - 1]
            sizes = mask.sum(axis=1)
            error, size = {}, {}
            for c in np.unique(s.labels):
                rows = s.labels == c
                error[int(c)] = 1.0 - float(np.mean(covered[rows]))
                size[int(c)] = float(np.mean(sizes[rows]))
            m = evaluate(clf, s)
            assert list(m.per_class_error.items()) == list(error.items())
            assert list(m.per_class_avg_size.items()) == list(size.items())
            assert 5 not in error

    @pytest.mark.parametrize("L", [10, 40])
    def test_column_sliced_probs_give_equal_reports(self, L):
        # the probabilities of a parsed score table are a column slice of
        # it; a fit and its report must not depend on that layout
        s = labeled_set(seed=L, L=L, n=400)
        table = np.hstack([s.probs, np.zeros((s.n, 2))])
        sliced = ScoreSet(ids=s.ids, probs=table[:, :L], labels=s.labels)
        assert not sliced.probs.flags.c_contiguous
        for spec in (FormulationSpec(Kind.TOP_K, k=3),
                     FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.2),
                     FormulationSpec(Kind.HYBRID_SIZE, kbar=2.0, k=3)):
            fits = [calibrate(spec, scores) for scores in (s, sliced)]
            assert fits[0].theta == fits[1].theta
            assert evaluate(fits[0], s) == evaluate(fits[1], sliced)

    def test_two_regime_bimodal_sizes(self):
        # a two-regime construction where the regimes use disjoint classes:
        # easy points concentrate on classes 1-4, ambiguous ones split
        # between classes 5 and 6.  Under average-error control the easy
        # classes end with singleton sets and the ambiguous ones with pairs.
        from predsets.oracle import DiscreteDistribution

        rng = np.random.default_rng(4)
        L, cond = 6, []
        for dom in range(4):
            row = np.full(L, 0.002) + rng.uniform(0, 1e-4, L)
            row[dom] = 0.97
            cond.append(row / row.sum())
        for _ in range(4):
            row = np.full(L, 0.002) + rng.uniform(0, 1e-4, L)
            row[4] = 0.5 + rng.uniform(-0.02, 0.02)
            row[5] = 0.5 - row[4] + 0.5
            cond.append(row / row.sum())
        dist = DiscreteDistribution(
            x_ids=[f"x{i}" for i in range(8)],
            marginal=np.full(8, 1 / 8),
            cond=np.array(cond),
        )
        calib = sample_scores(dist, 4000, 4)
        test = sample_scores(dist, 4000, 5)
        clf = calibrate(FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.05), calib)
        sizes = evaluate(clf, test).per_class_avg_size
        assert sorted(sizes) == [1, 2, 3, 4, 5, 6]
        assert all(sizes[c] < 1.5 for c in (1, 2, 3, 4))
        assert all(sizes[c] >= 1.5 for c in (5, 6))


class TestPerClassViolation:
    def test_perfect_coverage(self):
        s = labeled_set(L=3)
        rates = evaluate(topk_clf(3), s).per_class_error
        v = PerClassViolation.from_rates(rates, 0.1)
        assert all(r == 0.0 for r in v.rates.values())
        assert all(q == 0.0 for q in v.quantiles.values())
        assert not any(v.violated.values())

    def test_uniform_two_class_rates_near_half(self):
        # top-1 on a uniform two-class problem misses about half the time
        rng = np.random.default_rng(0)
        rates = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 2000
            probs = np.column_stack(
                [rng.uniform(0.49, 0.51, n), np.zeros(n)]
            )
            probs[:, 1] = 1.0 - probs[:, 0]
            labels = 1 + (rng.random(n) > probs[:, 0]).astype(int)
            s = ScoreSet(
                ids=[str(i) for i in range(n)], probs=probs, labels=labels
            )
            v = PerClassViolation.from_rates(
                evaluate(topk_clf(1), s).per_class_error, 0.3
            )
            rates.extend(v.rates.values())
        assert np.allclose(rates, 0.5, atol=0.05)

    def test_absent_class_omitted(self):
        s = ScoreSet(
            ids=["a", "b"],
            probs=[[0.9, 0.05, 0.05], [0.8, 0.1, 0.1]],
            labels=[1, 1],
        )
        rates = evaluate(topk_clf(1), s).per_class_error
        v = PerClassViolation.from_rates(rates, 0.1)
        assert set(v.rates) == {1}

    def test_quantiles_equal_one_percentile_per_level(self):
        rng = np.random.default_rng(4)
        for size in range(1, 200):
            rates = rng.random(size)
            if size % 2:  # tied rates
                rates = np.round(rates * 4) / 4
            v = PerClassViolation.from_rates(dict(enumerate(rates)), 0.5)
            assert v.quantiles == {
                q: float(np.percentile(rates, q)) for q in (10, 25, 50, 75, 90)
            }


class TestSweep:
    def test_topk_grid_exact_sizes(self):
        dist = make_distribution("dirichlet-like", 4, 0)
        calib = sample_scores(dist, 400, 0)
        test = sample_scores(dist, 400, 1)
        curve = sweep(
            FormulationSpec(Kind.TOP_K, k=1),
            [1, 2, 3, 4],
            calib,
            test,
            seeds=3,
        )
        sizes = [pt.avg_size for pt in curve.points]
        errors = [pt.avg_error for pt in curve.points]
        assert sizes == [1.0, 2.0, 3.0, 4.0]
        assert all(b <= a for a, b in zip(errors, errors[1:]))
        assert all(pt.std_error == 0.0 for pt in curve.points)

    def test_average_size_curve_below_topk(self):
        # feasibility: the fixed-size rule is feasible for the averaged
        # problem, so the averaged curve can only improve on it
        dist = make_distribution("two-regime", 6, 1)
        calib = sample_scores(dist, 3000, 10)
        test = sample_scores(dist, 3000, 11)
        top = sweep(
            FormulationSpec(Kind.TOP_K, k=1), [1, 2, 3], calib, test, seeds=2
        )
        avg = sweep(
            FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0),
            [1, 2, 3],
            calib,
            test,
            seeds=2,
            base_seed=5,
        )
        for pt_top, pt_avg in zip(top.points, avg.points):
            assert pt_avg.avg_error <= pt_top.avg_error + 0.01

    def test_single_point_zero_std(self):
        dist = make_distribution("dirichlet-like", 3, 2)
        calib = sample_scores(dist, 200, 2)
        test = sample_scores(dist, 200, 3)
        curve = sweep(
            FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0),
            [1.5],
            calib,
            test,
            seeds=1,
        )
        assert len(curve.points) == 1
        assert curve.points[0].std_error == 0.0
        assert curve.points[0].std_size == 0.0

    def test_failed_point_marked_not_fatal(self):
        dist = make_distribution("dirichlet-like", 3, 2)
        calib = sample_scores(dist, 100, 2)
        test = sample_scores(dist, 100, 3)
        # ebar=0.6 then 0.99: the latter violates the (0,1) open interval? no;
        # force failure with an unattainable hybrid pair instead
        template = FormulationSpec(
            Kind.HYBRID_ERROR, ebar=0.0, eps=0.05, mode="lemma-threshold"
        )
        curve = sweep(template, [0.0, 0.04], calib, test, seeds=1)
        statuses = [pt.status for pt in curve.points]
        assert any(s.startswith("failed:") for s in statuses)

    def test_grid_must_be_sorted(self):
        dist = make_distribution("dirichlet-like", 3, 2)
        calib = sample_scores(dist, 50, 2)
        with pytest.raises(ValueError):
            sweep(
                FormulationSpec(Kind.TOP_K, k=1),
                [2, 1],
                calib,
                calib,
                seeds=1,
            )

    def test_seeds_must_be_positive(self):
        s = labeled_set(L=3, n=50)
        template = FormulationSpec(Kind.TOP_K, k=1)
        with pytest.raises(ValueError) as exc:
            sweep(template, [1], s, s, seeds=0)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "seeds must be >= 1"

    @pytest.mark.parametrize("template", [
        FormulationSpec(Kind.TOP_K, k=1),
        FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0),
    ])
    def test_base_seed_must_be_nonnegative(self, template):
        # refused up front, not by numpy partway through the draws, and for
        # a kind without draws too
        s = labeled_set(L=3, n=50)
        with pytest.raises(ValueError) as exc:
            sweep(template, [1.0, 2.0], s, s, seeds=2, base_seed=-1)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "base_seed must be >= 0"

    @pytest.mark.parametrize("template, offset", [
        (FormulationSpec(Kind.TOP_K, k=1), 0.3),
        (FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0), "auto"),
    ])
    def test_offset_of_a_kind_without_one_is_refused(self, template, offset):
        s = labeled_set(L=3, n=50)
        with pytest.raises(SpecFieldError) as exc:
            sweep(template, [1.0], s, s, seeds=1, offset=offset)
        assert str(exc.value) == (
            f"offset is not a parameter of {template.kind.value}"
        )
        assert exc.value.field == "offset"
        pointwise = FormulationSpec(Kind.POINTWISE_ERROR, eps=0.5)
        curve = sweep(pointwise, [0.5], s, s, seeds=1, offset=offset)
        assert curve.points[0].status == "ok"

    def test_nan_does_not_hide_unsorted_grid(self):
        # the order is that of the values other than NaN
        s = labeled_set(L=3, n=50)
        template = FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0)
        with pytest.raises(ValueError, match="must be sorted ascending"):
            sweep(template, [2.0, math.nan, 1.0], s, s, seeds=1)
        curve = sweep(template, [1.0, math.nan, 2.0], s, s, seeds=1)
        assert [pt.status for pt in curve.points][::2] == ["ok", "ok"]
        assert curve.points[1].status.startswith("failed: KbarOutOfRange")

    def test_spec_with_param(self):
        assert spec_with_param(FormulationSpec(Kind.TOP_K, k=1), 3).k == 3
        t = spec_with_param(
            FormulationSpec(Kind.HYBRID_SIZE, kbar=1.0, k=4), 2.5
        )
        assert t.kbar == 2.5 and t.k == 4

    def test_non_integer_topk_grid_point_marked_failed(self):
        dist = make_distribution("dirichlet-like", 3, 2)
        calib = sample_scores(dist, 100, 2)
        test = sample_scores(dist, 100, 3)
        curve = sweep(
            FormulationSpec(Kind.TOP_K, k=1), [1, 1.5, 2], calib, test, seeds=1
        )
        statuses = [pt.status for pt in curve.points]
        assert statuses[0] == "ok" and statuses[2] == "ok"
        assert statuses[1].startswith("failed: KOutOfRange")

    def test_non_finite_topk_grid_points_marked_failed(self):
        s = labeled_set(L=3, n=50)
        curve = sweep(
            FormulationSpec(Kind.TOP_K, k=1), [1, math.inf, math.nan], s, s,
            seeds=1,
        )
        assert [pt.status for pt in curve.points] == ["ok"] + [
            f"failed: KOutOfRange: top-k sweeps need integer grid values, "
            f"got {v}" for v in ("inf", "nan")
        ]

    @pytest.mark.parametrize(
        "template",
        [FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0),
         FormulationSpec(Kind.PENALIZED, lam=0.3)],
        ids=["fitted", "unfitted"],
    )
    def test_empty_test_set_points_marked_failed(self, template):
        s = labeled_set(L=3, n=50)
        curve = sweep(template, [0.5, 1.5], s, s.subset([]), seeds=2)
        assert [pt.status for pt in curve.points] == [
            "failed: EmptyScoreSet: evaluation needs at least one sample"
        ] * 2

    @pytest.mark.parametrize("temperature", [1.0, "fit"])
    @pytest.mark.parametrize("template", [
        FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0),
        FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.1),
        FormulationSpec(Kind.HYBRID_SIZE, kbar=1.0, k=2),
        FormulationSpec(Kind.HYBRID_ERROR, ebar=0.1, eps=0.3),
        FormulationSpec(Kind.F_SCORE, beta=1.0),
    ])
    def test_empty_calibration_set_points_marked_failed(self, template,
                                                        temperature):
        # nothing is fitted once every grid value has failed: no warning
        s = synth_generate("dirichlet-like", 4, 100, 8, noise=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = sweep(template, [0.1, 0.2], s.subset([]), s, seeds=2,
                          temperature=temperature)
        assert [pt.status for pt in curve.points] == [
            "failed: EmptyScoreSet: calibration needs at least one sample"
        ] * 2

    def test_infinite_beta_grid_point_marked_failed(self):
        dist = make_distribution("dirichlet-like", 3, 2)
        calib = sample_scores(dist, 100, 2)
        test = sample_scores(dist, 100, 3)
        curve = sweep(
            FormulationSpec(Kind.F_SCORE, beta=1.0), [1.0, math.inf],
            calib, test, seeds=1,
        )
        statuses = [pt.status for pt in curve.points]
        assert statuses[0] == "ok"
        assert statuses[1] == (
            "failed: InvalidBeta: beta=inf must be finite and > 0"
        )

    def test_violation_quantiles_attached_for_error_kinds(self):
        dist = make_distribution("dirichlet-like", 3, 2)
        calib = sample_scores(dist, 200, 2)
        test = sample_scores(dist, 200, 3)
        curve = sweep(
            FormulationSpec(Kind.POINTWISE_ERROR, eps=0.1),
            [0.1, 0.3],
            calib,
            test,
            seeds=1,
        )
        assert all(
            pt.violation_quantiles is not None for pt in curve.points
        )
        assert set(curve.points[0].violation_quantiles) == {10, 25, 50, 75, 90}


def refit_loop(template, grid, calib, test, seeds, temperature=1.0,
               base_seed=0):
    """What sweep computes, the slow way: each bootstrap draw a resampled
    ScoreSet, a calibrate and an evaluate, from the same RNG streams; every
    grid value sees the same draws."""
    points = []
    for value in grid:
        spec = spec_with_param(template, value)
        reports = []
        try:
            for rep in range(seeds):
                rng = np.random.default_rng([base_seed, rep])
                idx = rng.integers(0, calib.n, size=calib.n)
                clf = calibrate(spec, calib.subset(idx), temperature=temperature)
                reports.append(evaluate(clf, test))
        except PredsetsError as exc:
            points.append(f"failed: {type(exc).__name__}: {exc}")
            continue
        errors = [m.avg_error for m in reports]
        sizes = [m.avg_size for m in reports]
        quantiles = None
        if spec.eps is not None:
            quantiles = PerClassViolation.from_rates(
                reports[0].per_class_error, spec.eps
            ).quantiles
        points.append((
            float(np.mean(errors)), float(np.mean(sizes)),
            float(np.std(errors)), float(np.std(sizes)), quantiles,
        ))
    return points


def swept(curve):
    return [
        (pt.avg_error, pt.avg_size, pt.std_error, pt.std_size,
         pt.violation_quantiles) if pt.status == "ok" else pt.status
        for pt in curve.points
    ]


class TestSweepMatchesRefitLoop:
    """The sweep reweights knots sorted once by each draw's counts; every
    point must equal the refit loop exactly, failures included."""

    CASES = [
        # kbar 1e-9: even the largest drawn score saturates the inverse
        (FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0), [1e-9, 0.7, 1.3, 2.1]),
        (FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.1), [0.03, 0.1, 0.25]),
        (FormulationSpec(Kind.HYBRID_SIZE, kbar=1.0, k=2), [0.4, 1.1, 1.7]),
        # ebar 0.01: 1 - ebar lies above H_eps(0), an infeasible pair
        (FormulationSpec(Kind.HYBRID_ERROR, ebar=0.1, eps=0.3),
         [0.01, 0.2, 0.27]),
        (FormulationSpec(Kind.HYBRID_ERROR, ebar=0.1, eps=0.3,
                         mode="union-with-pointwise"), [0.01, 0.2, 0.27]),
        (FormulationSpec(Kind.F_SCORE, beta=1.0), [0.5, 1.0, 2.0]),
    ]

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("template, grid", CASES)
    def test_fitted_kinds(self, template, grid, noise):
        # noise 0 draws rows from a 12-point support: heavy score ties
        data = synth_generate("two-regime", 4, 157 + 200, 5, noise=noise,
                              support=12)
        calib = data.subset(np.arange(157))
        test = data.subset(np.arange(157, 357))
        want = refit_loop(template, grid, calib, test, seeds=6)
        got = swept(sweep(template, grid, calib, test, seeds=6))
        assert got == want

    def test_saturated_and_infeasible_points_present(self):
        data = synth_generate("two-regime", 4, 357, 5, noise=0.3, support=12)
        calib = data.subset(np.arange(157))
        test = data.subset(np.arange(157, 357))
        for template, grid in (self.CASES[0], self.CASES[3]):
            status = sweep(template, grid, calib, test, seeds=6).points[0].status
            assert status.startswith(
                ("failed: Saturated", "failed: InfeasiblePair")
            ), status

    @pytest.mark.parametrize("template, grid", [CASES[0], CASES[4], CASES[2]])
    def test_temperature_fit(self, template, grid):
        data = synth_generate("dirichlet-like", 4, 300, 8, noise=0.5)
        calib = data.subset(np.arange(120))
        test = data.subset(np.arange(120, 300))
        want = refit_loop(template, grid, calib, test, 4, temperature="fit")
        got = swept(
            sweep(template, grid, calib, test, seeds=4, temperature="fit")
        )
        assert got == want

    def test_unlabeled_draws_fail_like_the_loop(self):
        data = synth_generate("two-regime", 4, 200, 3, noise=0.3)
        labels = data.labels.copy()
        labels[:3] = 0
        calib = ScoreSet(ids=data.ids[:100], probs=data.probs[:100],
                         labels=labels[:100])
        test = data.subset(np.arange(100, 200))
        template = FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.1)
        want = refit_loop(template, [0.1, 0.2], calib, test, seeds=3)
        got = swept(sweep(template, [0.1, 0.2], calib, test, seeds=3))
        assert got == want
        assert got[0].startswith("failed: MissingLabels")

    def test_test_set_checks_fail_like_the_loop(self):
        # the test set's checks run for each grid value: a class count
        # fails its value alone, a missing label every value whose cutoff
        # was found first
        calib = synth_generate("two-regime", 5, 100, 1, noise=0.3)
        test = synth_generate("two-regime", 4, 100, 2, noise=0.3)
        unlabeled = ScoreSet(ids=test.ids, probs=test.probs)
        size = FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0)
        kbar = "KbarOutOfRange"
        for template, grid, test_set, temperature, status in (
            (size, [1.0, 2.0, 4.5], test, 1.0, ["ok", "ok", kbar]),
            (size, [1.0, 4.5, 5.5], test, "fit", ["ok", kbar, kbar]),
            (FormulationSpec(Kind.HYBRID_SIZE, kbar=1.0, k=5), [1.0, 2.0],
             test, 1.0, ["KOutOfRange"] * 2),
            (size, [1e-9, 1.0], unlabeled, 1.0, ["Saturated", "MissingLabels"]),
        ):
            want = refit_loop(template, grid, calib, test_set, 3,
                              temperature=temperature)
            got = swept(sweep(template, grid, calib, test_set, seeds=3,
                              temperature=temperature))
            assert got == want
            assert [pt.split(": ")[1] if isinstance(pt, str) else "ok"
                    for pt in got] == status


class TestKeptKnots:
    """A sweep of average-size or the F-score reads its cutoffs off the
    top knots the largest grid value keeps; a draw they cannot hold is
    read off the full knots, built then.  Every point equals the refits."""

    CASES = [
        (FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0), [0.3, 0.7, 1.3]),
        (FormulationSpec(Kind.F_SCORE, beta=1.0), [0.5, 1.0, 1.5]),
    ]

    @staticmethod
    def split(template="two-regime", L=4, n=157, temperature=1.0, seed=5):
        data = synth_generate(template, L, 2 * n, seed, noise=0.3)
        return data.subset(np.arange(n)), data.subset(np.arange(n, 2 * n))

    @staticmethod
    def counted(monkeypatch):
        """Lists of the full knots built and the sizes of the knots
        reweighted, as the sweep calls them."""
        built, sizes = [], []
        knots, reweight = calibration._knots, EmpiricalStepFunction.reweight

        def counted_knots(*args):
            built.append(args[0])
            return knots(*args)

        def counted_reweight(self, counts, *, norm):
            sizes.append(self.scores.size)
            return reweight(self, counts, norm=norm)

        monkeypatch.setattr(calibration, "_knots", counted_knots)
        monkeypatch.setattr(EmpiricalStepFunction, "reweight", counted_reweight)
        return built, sizes

    @pytest.mark.parametrize("template, grid", CASES)
    def test_short_draws_read_the_full_knots(self, template, grid, monkeypatch):
        # without a margin some draws' kept weight (or phi) falls short
        calib, test = self.split()
        want = refit_loop(template, grid, calib, test, seeds=20)
        monkeypatch.setattr(calibration, "_MARGIN_SD", 0.0)
        built, sizes = self.counted(monkeypatch)
        assert swept(sweep(template, grid, calib, test, seeds=20)) == want
        assert len(built) == 1  # once, at the first short draw
        assert 20 < len(sizes) < 40
        monkeypatch.undo()
        built, sizes = self.counted(monkeypatch)
        assert swept(sweep(template, grid, calib, test, seeds=20)) == want
        assert (len(built), len(sizes)) == (0, 20)
        assert max(sizes) < calib.probs.size * calibration._SWEEP_SHARE

    @pytest.mark.parametrize("template, grid", [
        (FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0), [0.5, 1.5, 2.6]),
        (FormulationSpec(Kind.F_SCORE, beta=1.0), [1.0, 8.0]),
    ])
    def test_grid_past_the_share_takes_the_full_knots(self, template, grid,
                                                      monkeypatch):
        # kbar 2.6 of L = 4 needs 65 % of the scores, beta = 8 nearly all
        calib, test = self.split()
        want = refit_loop(template, grid, calib, test, seeds=5)
        built, sizes = self.counted(monkeypatch)
        assert swept(sweep(template, grid, calib, test, seeds=5)) == want
        assert len(built) == 1 and set(sizes) == {
            step_function(template, calib).scores.size}

    @pytest.mark.parametrize("template, grid", [
        CASES[0], (FormulationSpec(Kind.F_SCORE, beta=1.0), [0.25, 0.5])])
    def test_temperature_fit_draws_keep_their_top_knots(self, template, grid,
                                                        monkeypatch):
        calib, test = self.split("dirichlet-like", L=10, n=300, seed=8)
        want = refit_loop(template, grid, calib, test, 4, temperature="fit")
        built, _ = self.counted(monkeypatch)
        kept = []
        top_knots = calibration._top_knots

        def counted_top_knots(*args):
            kept.append(top_knots(*args))
            return kept[-1]

        monkeypatch.setattr(calibration, "_top_knots", counted_top_knots)
        got = swept(sweep(template, grid, calib, test, seeds=4,
                          temperature="fit"))
        assert got == want
        assert built == [] and len(kept) == 4
        assert all(g.scores.size < 0.25 * calib.probs.size for g in kept)


class TestTemperatureFitSweep:
    """Under ``temperature="fit"`` each draw runs calibrate's steps on its
    drawn rows: the same temperature, knots and errors as the refit loop."""

    @staticmethod
    def split(n_calib=120, n=300):
        data = synth_generate("dirichlet-like", 4, n, 8, noise=0.5)
        return data.subset(np.arange(n_calib)), data.subset(
            np.arange(n_calib, n))

    @pytest.mark.parametrize("kind, grid", [
        (FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0), [0.9, 1.6]),
        (FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.1), [0.1, 0.2]),
    ])
    def test_unlabeled_draws_fail_like_the_loop(self, kind, grid):
        calib, test = self.split()
        labels = calib.labels.copy()
        labels[[5, 60]] = 0
        calib = ScoreSet(ids=calib.ids, probs=calib.probs, labels=labels,
                         logits=calib.logits)
        want = refit_loop(kind, grid, calib, test, 3, temperature="fit")
        got = swept(sweep(kind, grid, calib, test, seeds=3,
                          temperature="fit"))
        assert got == want
        assert got[0].startswith("failed: MissingLabels: fit_temperature")

    def test_missing_logits_fail_like_the_loop(self):
        calib, test = self.split()
        calib = ScoreSet(ids=calib.ids, probs=calib.probs, labels=calib.labels)
        template = FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0)
        want = refit_loop(template, [1.0], calib, test, 2, temperature="fit")
        got = swept(sweep(template, [1.0], calib, test, seeds=2,
                          temperature="fit"))
        assert got == want
        assert got[0].startswith("failed: MissingLogits")

    def test_infinite_logits_fail_every_point(self):
        # a zero probability has logit -inf, which the constructor accepts;
        # a draw's fit refuses it when the draw holds that row, at its
        # position in the draw, and reports a drawn unlabeled row first
        calib, test = self.split()
        probs = calib.probs.copy()
        probs[7] = [0.5, 0.5, 0.0, 0.0]
        with np.errstate(divide="ignore"):
            logits = np.log(probs)
        template, grid = FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0), [1.0]
        unlabeled = np.r_[calib.labels[:3], 0, calib.labels[4:]]
        got = {}
        for labels in (calib.labels, unlabeled):
            rows = ScoreSet(ids=calib.ids, probs=probs, labels=labels,
                            logits=logits)
            for base_seed in (0, 2):
                want = refit_loop(template, grid, rows, test, 1,
                                  temperature="fit", base_seed=base_seed)
                got[labels is unlabeled, base_seed] = swept(sweep(
                    template, grid, rows, test, seeds=1, base_seed=base_seed,
                    temperature="fit"))
                assert got[labels is unlabeled, base_seed] == want
        assert got[False, 0] == [
            "failed: NonFiniteEntry: row 107, entry 2: logit -inf is not "
            "finite"]
        assert got[True, 0] == [
            "failed: MissingLabels: fit_temperature needs labels; 1 of 120 "
            "samples are unlabeled"]
        # the draw of base_seed 2 holds neither row 3 nor row 7
        assert got[True, 2] == got[False, 2] and got[False, 2][0][1] > 0

    @pytest.mark.parametrize("template", [
        FormulationSpec(Kind.TOP_K, k=1),
        FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0),
    ])
    def test_bad_temperature_is_a_failed_point(self, template):
        calib, test = self.split()
        for temperature in (-1.0, math.inf, math.nan):
            curve = sweep(template, [1, 2], calib, test, seeds=2,
                          temperature=temperature)
            assert [pt.status.split(":")[:2] for pt in curve.points] == [
                ["failed", " InvalidTemperature"]] * 2


class TestCommonDraws:
    """Every grid value is read off the same bootstrap draws: one reweight,
    or one temperature fit, per draw, and curves monotone in the swept
    field."""

    @pytest.mark.parametrize("template, grid", TestSweepMatchesRefitLoop.CASES)
    def test_one_reweight_per_draw(self, template, grid, monkeypatch):
        data = synth_generate("two-regime", 4, 357, 5, noise=0.3, support=12)
        calib = data.subset(np.arange(157))
        test = data.subset(np.arange(157, 357))
        calls = []
        reweight = EmpiricalStepFunction.reweight

        def counted(self, counts, *, norm):
            calls.append(counts)
            return reweight(self, counts, norm=norm)

        monkeypatch.setattr(EmpiricalStepFunction, "reweight", counted)
        curve = sweep(template, grid, calib, test, seeds=4)
        assert sum(pt.status == "ok" for pt in curve.points) >= 2
        assert len(calls) == 4

    def test_one_temperature_fit_per_draw(self, monkeypatch):
        data = synth_generate("dirichlet-like", 4, 300, 8, noise=0.5)
        calib = data.subset(np.arange(120))
        test = data.subset(np.arange(120, 300))
        fits = []
        fit_temperature = calibration.fit_temperature

        def counted(scores):
            fits.append(scores)
            return fit_temperature(scores)

        monkeypatch.setattr(calibration, "fit_temperature", counted)
        template = FormulationSpec(Kind.HYBRID_SIZE, kbar=1.0, k=2)
        curve = sweep(template, [0.4, 1.1, 1.7], calib, test, seeds=5,
                      temperature="fit")
        assert [pt.status for pt in curve.points] == ["ok"] * 3
        assert len(fits) == 5

    @pytest.mark.parametrize("template, grid", [
        (FormulationSpec(Kind.TOP_K, k=1), [1, 2, 9]),  # k = 9 > L fails
        (FormulationSpec(Kind.POINTWISE_ERROR, eps=0.1), [0.05, 0.2, 2.0]),
        (FormulationSpec(Kind.PENALIZED, lam=0.0), [0.01, 0.2]),
    ])
    def test_one_temperature_fit_per_unfitted_sweep(self, template, grid,
                                                    monkeypatch):
        # every grid value of an unfitted kind shares one fitted T; the
        # points, failed ones included, are those of a calibrate per value
        data = synth_generate("dirichlet-like", 4, 300, 8, noise=0.5)
        calib = data.subset(np.arange(120))
        test = data.subset(np.arange(120, 300))
        unlabeled = ScoreSet(ids=calib.ids, probs=calib.probs,
                             labels=np.r_[0, calib.labels[1:]],
                             logits=calib.logits)
        bare = ScoreSet(ids=calib.ids, probs=calib.probs, labels=calib.labels)
        for calib, ok in ((calib, True), (unlabeled, False), (bare, False)):
            want = []
            for value in grid:
                try:
                    clf = calibrate(spec_with_param(template, value), calib,
                                    temperature="fit", seed=0)
                    report = evaluate(clf, test)
                    want.append(tuple(  # the mean of three equal draws
                        float(np.mean([v] * 3))
                        for v in (report.avg_error, report.avg_size)))
                except PredsetsError as exc:
                    want.append(f"failed: {type(exc).__name__}: {exc}")
            fits = []
            fit_temperature = evaluation.fit_temperature

            def counted(scores):
                fits.append(scores)
                return fit_temperature(scores)

            monkeypatch.setattr(evaluation, "fit_temperature", counted)
            monkeypatch.setattr(calibration, "fit_temperature", counted)
            curve = sweep(template, grid, calib, test, seeds=3,
                          temperature="fit")
            monkeypatch.undo()
            assert len(fits) == 1
            assert [(pt.avg_error, pt.avg_size) if pt.status == "ok"
                    else pt.status for pt in curve.points] == want
            assert ok == any(isinstance(w, tuple) for w in want)

    KBAR = [1.0, 1.02, 1.04, 1.06, 1.08, 1.1]

    # with its own draws per grid value the average-size curve fell
    # somewhere at seeds 1-6, 8 and 9, and the average-error one at 2, 3,
    # 5, 6 and 8
    @pytest.mark.parametrize("seed", range(10))
    def test_curves_monotone_at_every_seed(self, seed):
        data = synth_generate("two-regime", 6, 600, seed)
        calib = data.subset(np.arange(300))
        test = data.subset(np.arange(300, 600))
        for template, grid, metric in (
            (FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0), self.KBAR,
             "avg_size"),
            (FormulationSpec(Kind.HYBRID_SIZE, kbar=1.0, k=2), self.KBAR,
             "avg_size"),
            (FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.1),
             [0.05, 0.07, 0.09, 0.11, 0.13, 0.15], "avg_error"),
        ):
            curve = sweep(template, grid, calib, test, seeds=3,
                          base_seed=seed)
            assert [pt.status for pt in curve.points] == ["ok"] * len(grid)
            values = [getattr(pt, metric) for pt in curve.points]
            assert values == sorted(values), (template.kind, values)
