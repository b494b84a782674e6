"""Metrics, per-class violation proxies, sweeps, histograms."""

import numpy as np
import pytest

from predsets.calibration import CalibratedClassifier, calibrate
from predsets.core import ScoreSet
from predsets.errors import EmptyBins, MissingLabels, PredsetsError
from predsets.evaluation import (
    PerClassViolation,
    evaluate,
    per_class_violation,
    size_error_histogram,
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


class TestPerClassViolation:
    def test_perfect_coverage(self):
        s = labeled_set(L=3)
        v = per_class_violation(topk_clf(3), s, eps=0.1)
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
            v = per_class_violation(topk_clf(1), s, eps=0.3)
            rates.extend(v.rates.values())
        assert np.allclose(rates, 0.5, atol=0.05)

    def test_absent_class_omitted(self):
        s = ScoreSet(
            ids=["a", "b"],
            probs=[[0.9, 0.05, 0.05], [0.8, 0.1, 0.1]],
            labels=[1, 1],
        )
        v = per_class_violation(topk_clf(1), s, eps=0.1)
        assert set(v.rates) == {1}


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


def refit_loop(template, grid, calib, test, seeds, temperature=1.0):
    """What sweep computes, the slow way: each bootstrap draw a resampled
    ScoreSet, a calibrate and an evaluate, from the same RNG streams."""
    points = []
    for point_idx, value in enumerate(grid):
        spec = spec_with_param(template, value)
        reports = []
        try:
            for rep in range(seeds):
                rng = np.random.default_rng([0, point_idx, rep])
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

    @pytest.mark.parametrize("template, grid", [CASES[0], CASES[4]])
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


class TestSizeErrorHistogram:
    def test_topk_mass_in_single_size_bucket(self):
        s = labeled_set(L=4, n=400)
        h = size_error_histogram(
            topk_clf(2), s, size_bins=[0, 1.5, 2.5, 4], error_bins=[0, 0.5, 1]
        )
        assert h.counts.sum() == len(np.unique(s.labels))
        assert h.counts[1].sum() == h.counts.sum()  # all in bucket [1.5, 2.5)

    def test_full_set_classifier(self):
        s = labeled_set(L=4, n=200)
        h = size_error_histogram(
            topk_clf(4), s, size_bins=[0, 2, 4], error_bins=[0, 0.5, 1]
        )
        assert h.counts[1, 0] == h.counts.sum()  # size L, error 0

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
        h = size_error_histogram(
            clf, test, size_bins=[0, 1.5, 6], error_bins=[0, 0.5, 1]
        )
        small, large = h.counts[0].sum(), h.counts[1].sum()
        assert small > 0 and large > 0
        assert h.counts.sum() == len(np.unique(test.labels))

    def test_empty_bins(self):
        s = labeled_set()
        with pytest.raises(EmptyBins):
            size_error_histogram(topk_clf(1), s, [1.0], [0, 1])
