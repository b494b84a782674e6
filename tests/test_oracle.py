"""Exact population machinery and brute-force solvers."""

import itertools
import math
import warnings

import numpy as np
import pytest

import predsets.calibration as calibration
import predsets.oracle as oracle
from predsets.calibration import EmpiricalStepFunction
from predsets.core import topk_mask
from predsets.errors import ThetaMismatch, TooFewClasses, TooLargeForBruteForce
from predsets.formulations import FormulationSpec, Kind, pointwise_error_mask
from predsets.oracle import (
    DiscreteDistribution,
    brute_force_avg_error_with_size_cap,
    brute_force_optimal,
    closed_form_assignment,
    constraint_satisfied,
    equivalence_suite,
    exact_error,
    exact_size,
    exact_top_k_error,
    infeasibility_records,
    make_distribution,
    objective_value,
    population_step_function,
    population_threshold,
    random_test_distribution,
    sample_scores,
    synth_generate,
)

ONE_POINT = DiscreteDistribution(
    x_ids=["x"], marginal=[1.0], cond=[[0.5, 0.3, 0.2]]
)

#: placeholder budgets: the knots of a population step function do not
#: depend on them
SIZE = FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0)
ERROR = FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.5)


def mask_of(L, *sets):
    """A membership mask with one row per label tuple."""
    mask = np.zeros((len(sets), L), dtype=bool)
    for row, labels in zip(mask, sets):
        row[np.array(labels, dtype=int) - 1] = True
    return mask


def loop_reference(dist, mask, spec):
    """Error, size and constraint verdict of a mask by loops over points
    and labels, the way label-tuple sets were once scored."""
    sets = [tuple(int(v) for v in np.flatnonzero(row) + 1) for row in mask]
    error = 0.0
    for w, p, labels in zip(dist.marginal, dist.cond, sets):
        error += w * (1.0 - sum(p[ell - 1] for ell in labels))
    size = float(sum(w * len(labels) for w, labels in zip(dist.marginal, sets)))
    ok = True
    if spec.kind in (Kind.TOP_K, Kind.HYBRID_SIZE):
        ok &= all(len(labels) <= spec.k for labels in sets)
    if spec.kind in (Kind.POINTWISE_ERROR, Kind.HYBRID_ERROR):
        for p, labels in zip(dist.cond, sets):
            ok &= sum(p[ell - 1] for ell in labels) >= 1.0 - spec.eps - 1e-12
    if spec.kind in (Kind.AVERAGE_SIZE, Kind.HYBRID_SIZE):
        ok &= size <= spec.kbar + 1e-12
    if spec.kind in (Kind.AVERAGE_ERROR, Kind.HYBRID_ERROR):
        ok &= error <= spec.ebar + 1e-12
    return error, size, bool(ok)


class TestExactErrorAndSize:
    def test_full_empty_and_singleton(self):
        full = mask_of(3, (1, 2, 3))
        empty = mask_of(3, ())
        one = mask_of(3, (1,))
        assert exact_error(ONE_POINT, full) == 0.0
        assert exact_error(ONE_POINT, empty) == 1.0
        assert exact_error(ONE_POINT, one) == 0.5
        assert exact_size(ONE_POINT, full) == 3.0
        assert exact_size(ONE_POINT, empty) == 0.0

    def test_two_point_mean_size(self):
        d = DiscreteDistribution(
            x_ids=["a", "b"],
            marginal=[0.5, 0.5],
            cond=[[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]],
        )
        g = mask_of(3, (1,), (1, 2, 3))
        assert exact_size(d, g) == 2.0

    def test_linearity_spot_check(self):
        # error and size are linear in the per-(point,label) indicator
        # variables, so summing each singleton's contribution recovers the
        # full-set values: coverage gains add to 1, sizes add to L
        rng = np.random.default_rng(0)
        d = random_test_distribution(rng, L=4, n_points=2)
        coverage_gain = 0.0
        total_size = 0.0
        for i in range(d.n_points):
            for ell in range(1, 5):
                g = np.zeros(d.cond.shape, dtype=bool)
                g[i, ell - 1] = True
                coverage_gain += 1.0 - exact_error(d, g)
                total_size += exact_size(d, g)
        g_full = np.ones(d.cond.shape, dtype=bool)
        assert exact_error(d, g_full) == pytest.approx(0.0, abs=1e-12)
        assert coverage_gain == pytest.approx(1.0, abs=1e-12)
        assert total_size == pytest.approx(exact_size(d, g_full), abs=1e-12)

    @pytest.mark.parametrize("L", [3, 8, 12])
    def test_mask_metrics_match_the_loop_reference(self, L):
        rng = np.random.default_rng(L)
        d = random_test_distribution(rng, L=L, n_points=9)
        specs = (
            FormulationSpec(Kind.TOP_K, k=L // 2),
            FormulationSpec(Kind.POINTWISE_ERROR, eps=0.3),
            FormulationSpec(Kind.AVERAGE_SIZE, kbar=L / 2),
            FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.4),
            FormulationSpec(Kind.HYBRID_SIZE, kbar=L / 3, k=L - 1),
            FormulationSpec(Kind.HYBRID_ERROR, ebar=0.3, eps=0.5),
        )
        masks = [
            np.zeros(d.cond.shape, dtype=bool),
            np.ones(d.cond.shape, dtype=bool),
        ]
        masks += [rng.random(d.cond.shape) < q for q in (0.2, 0.5, 0.8)]
        for mask in masks:
            for spec in specs:
                error, size, ok = loop_reference(d, mask, spec)
                assert abs(exact_error(d, mask) - error) <= 1e-14
                assert abs(exact_size(d, mask) - size) <= 1e-14
                assert constraint_satisfied(d, spec, mask) == ok

    def test_wrong_shape_raises(self):
        d = random_test_distribution(np.random.default_rng(9), L=3, n_points=2)
        spec = FormulationSpec(Kind.TOP_K, k=1)
        cases = [(d, np.ones(shape, dtype=bool))
                 for shape in [(3,), (1, 3), (2, 4), (3, 2)]]
        # a float mask would weigh labels in exact_error (0.6) but count
        # them in exact_size (2.0): one mask read two ways
        cases.append((ONE_POINT, np.array([[0.5, 0.5, 0.0]])))
        for dist, mask in cases:
            with pytest.raises(ValueError, match="does not match"):
                exact_error(dist, mask)
            with pytest.raises(ValueError, match="does not match"):
                exact_size(dist, mask)
            with pytest.raises(ValueError, match="does not match"):
                constraint_satisfied(dist, spec, mask)


class TestExactThresholdFunctions:
    def test_one_point_values(self):
        G = population_step_function(ONE_POINT, SIZE)
        H = population_step_function(ONE_POINT, ERROR)
        H_eps = population_step_function(
            ONE_POINT, FormulationSpec(Kind.HYBRID_ERROR, ebar=0.0, eps=0.4)
        ).mass()
        assert G.value(0.4) == 1.0
        assert H.value(0.4) == 0.5
        assert G.value(0.0) == 3.0
        # at eps=0.4 the point-wise set is {1} with mass 0.6... cumulative
        # 0.5 < 0.6 so the cut is 2: knots 0.5 and 0.3 with their own mass
        assert H_eps.total == pytest.approx(0.8)

    @pytest.mark.parametrize("spec", [
        FormulationSpec(Kind.TOP_K, k=2),
        FormulationSpec(Kind.POINTWISE_ERROR, eps=0.1),
        FormulationSpec(Kind.PENALIZED, lam=0.1),
    ], ids=lambda sp: sp.kind.value)
    def test_kinds_without_a_fit_have_no_knots(self, spec):
        # the knots are read off the fields, and no fit reads these kinds'
        with pytest.raises(ThetaMismatch, match="takes no fitted threshold"):
            population_step_function(ONE_POINT, spec)
        assert population_threshold(ONE_POINT, spec) is None

    def test_g_k_totals(self):
        rng = np.random.default_rng(1)
        d = random_test_distribution(rng, L=5, n_points=3)
        for k in range(1, 6):
            G_k = population_step_function(
                d, FormulationSpec(Kind.HYBRID_SIZE, kbar=0.5, k=k)
            )
            assert G_k.value(0.0) == pytest.approx(k, abs=1e-12)
        H = population_step_function(d, ERROR)
        assert H.total == pytest.approx(1.0, abs=1e-12)


class TestSharedCutoffPath:
    """population_threshold runs the calibrator's knots and cutoff, so a
    change to either changes every fitted kind's population cutoff."""

    DIST = random_test_distribution(
        np.random.default_rng(12), L=4, n_points=3
    )
    SPECS = (
        FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.5),
        FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.2),
        FormulationSpec(Kind.HYBRID_SIZE, kbar=1.5, k=3),
        FormulationSpec(Kind.HYBRID_ERROR, ebar=0.3, eps=0.4),
        FormulationSpec(Kind.F_SCORE, beta=1.0),
    )

    def thresholds(self):
        return [population_threshold(self.DIST, spec) for spec in self.SPECS]

    def test_wrapped_cutoff_changes_every_kind(self, monkeypatch):
        before = self.thresholds()
        seen = []

        def shifted(spec, f):
            seen.append(spec.kind)
            return calibration._cutoff(spec, f) + 0.01

        monkeypatch.setattr(oracle, "_cutoff", shifted)
        assert self.thresholds() == [theta + 0.01 for theta in before]
        assert seen == [spec.kind for spec in self.SPECS]

    def test_mutated_knots_change_every_kind(self, monkeypatch):
        # every support point counted twice: the marginal doubled
        before = self.thresholds()
        reweight = EmpiricalStepFunction.reweight
        monkeypatch.setattr(
            EmpiricalStepFunction, "reweight",
            lambda f, weights, *, norm: reweight(f, 2 * weights, norm=norm),
        )
        after = self.thresholds()
        assert all(a != b for a, b in zip(after, before)), (before, after)

    def test_shifted_reweight_changes_every_kind(self, monkeypatch):
        # the population knots are reweight's output: shifting its knot
        # scores moves every cutoff, and the cutoffs read off a knot of G
        # or G_k move by the shift exactly
        before = self.thresholds()
        reweight = EmpiricalStepFunction.reweight
        norms = []

        def shifted(f, weights, *, norm):
            norms.append(norm)
            out = reweight(f, weights, norm=norm)
            out.scores = out.scores + 0.01
            return out

        monkeypatch.setattr(EmpiricalStepFunction, "reweight", shifted)
        after = self.thresholds()
        assert norms == [1] * len(self.SPECS)
        assert all(a != b for a, b in zip(after, before)), (before, after)
        for spec, a, b in zip(self.SPECS, after, before):
            if spec.kind in (Kind.AVERAGE_SIZE, Kind.HYBRID_SIZE):
                assert a == b + 0.01


def tied_distribution(rng):
    """12 rows of 4 entries in eighths: many entries tie within and across
    rows."""
    cond = rng.multinomial(8, np.full(4, 0.25), size=12) / 8
    marginal = rng.dirichlet(np.ones(12))
    return DiscreteDistribution(
        [f"x{i}" for i in range(12)], marginal / marginal.sum(), cond
    )


class TestPopulationKnotWeights:
    """Each population knot weighs the marginal summed over the entries of
    ``cond`` that equal it: exactly when one entry makes the knot; for m
    tied entries the summation order may differ from a direct sum, so the
    weight is within (m - 1) eps of the exactly rounded sum (the recursive
    summation bound for m nonnegative terms, plus the reference's rounding)."""

    @staticmethod
    def entries(dist, spec):
        # the entries of cond each kind's knots are built from
        if spec.kind is Kind.HYBRID_SIZE:
            return topk_mask(dist.cond, spec.k)
        if spec.kind is Kind.HYBRID_ERROR:
            return pointwise_error_mask(dist.cond, spec.eps, 0.0)
        return np.ones(dist.cond.shape, dtype=bool)

    SPECS = (
        SIZE,
        FormulationSpec(Kind.HYBRID_SIZE, kbar=0.5, k=2),
        FormulationSpec(Kind.HYBRID_ERROR, ebar=0.0, eps=0.3),
    )

    def check(self, dist, spec):
        f = population_step_function(dist, spec)
        rows, cols = np.nonzero(self.entries(dist, spec))
        values = dist.cond[rows, cols]
        assert np.array_equal(f.scores, np.unique(values))
        tied = 0
        for s, w in zip(f.scores, f.weight):
            terms = dist.marginal[rows[values == s]]
            direct = math.fsum(terms)
            if terms.size == 1:
                assert w == direct
            else:
                tied += 1
                eps = np.finfo(np.float64).eps
                assert abs(w - direct) <= (terms.size - 1) * eps * direct
        return tied

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_distinct_entries_exact(self, spec):
        rng = np.random.default_rng(31)
        for template in oracle.TEMPLATES:
            dist = make_distribution(template, 4, int(rng.integers(100)))
            assert self.check(dist, spec) == 0
        for _ in range(20):
            dist = random_test_distribution(rng)
            assert self.check(dist, spec) == 0

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind.value)
    def test_tied_entries_within_bound(self, spec):
        rng = np.random.default_rng(32)
        tied = sum(self.check(tied_distribution(rng), spec) for _ in range(20))
        assert tied > 0


class TestBruteForce:
    def test_topk_matches_argmax_form(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            d = random_test_distribution(rng)
            res = brute_force_optimal(d, FormulationSpec(Kind.TOP_K, k=1))
            expect = sum(
                w * (1.0 - p.max())
                for w, p in zip(d.marginal, d.cond)
            )
            assert res.objective == pytest.approx(expect, abs=1e-12)
            closed = closed_form_assignment(
                d, FormulationSpec(Kind.TOP_K, k=1)
            )
            assert np.array_equal(res.mask, closed)

    def test_pointwise_error_one_point_enumeration(self):
        res = brute_force_optimal(
            ONE_POINT, FormulationSpec(Kind.POINTWISE_ERROR, eps=0.25)
        )
        assert np.array_equal(res.mask, mask_of(3, (1, 2)))
        assert res.objective == 2.0

    def test_pointwise_point_with_no_allowed_subset_is_infeasible(self):
        # the row sums to 1 - 1e-10, inside the row check's tolerance, so
        # even the full set misses eps = 0
        d = DiscreteDistribution(["a"], [1.0], [[0.5, 0.5 - 1e-10]])
        res = brute_force_optimal(
            d, FormulationSpec(Kind.POINTWISE_ERROR, eps=0.0)
        )
        assert res.mask is None
        assert np.isnan(res.objective)
        assert not res.feasible

    @pytest.mark.parametrize("L", range(1, 7))
    def test_subsets_in_lexicographic_tuple_order(self, L):
        tuples = sorted(
            itertools.chain.from_iterable(
                itertools.combinations(range(1, L + 1), r)
                for r in range(L + 1)
            )
        )
        S = oracle._all_subsets(L)
        assert S.shape == (2**L, L) and S.dtype == bool
        assert [tuple(np.flatnonzero(row) + 1) for row in S] == tuples

    def test_penalized_set_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            d = random_test_distribution(rng)
            lam = float(rng.uniform(0.05, 0.8))
            spec = FormulationSpec(Kind.PENALIZED, lam=lam)
            res = brute_force_optimal(d, spec)
            closed = closed_form_assignment(d, spec)
            assert np.array_equal(res.mask, closed)

    def test_average_error_matches_threshold_rule(self):
        # two points, L=3: joint enumeration over 64 assignments agrees
        # with thresholding at the population quantile of the binding level
        rng = np.random.default_rng(4)
        d = random_test_distribution(rng, L=3, n_points=2)
        H = population_step_function(d, ERROR)
        j = 3
        ebar = 1.0 - float(H.tail[j]) + 1e-9
        spec = FormulationSpec(Kind.AVERAGE_ERROR, ebar=ebar)
        res = brute_force_optimal(d, spec)
        closed = closed_form_assignment(d, spec)
        assert exact_size(d, closed) == pytest.approx(
            res.objective, abs=1e-12
        )

    def test_guard(self):
        rng = np.random.default_rng(5)
        big = DiscreteDistribution(
            x_ids=[f"x{i}" for i in range(10)],
            marginal=np.full(10, 0.1),
            cond=rng.dirichlet(np.ones(12), size=10),
        )
        with pytest.raises(TooLargeForBruteForce):
            brute_force_optimal(
                big, FormulationSpec(Kind.AVERAGE_SIZE, kbar=2.0)
            )

    def test_suite_refuses_before_it_enumerates(self, monkeypatch):
        dist = make_distribution("dirichlet-like", 18, 0, support=2)

        def unreachable(L):
            raise AssertionError("subsets enumerated before the guard")

        monkeypatch.setattr(oracle, "_all_subsets", unreachable)
        with pytest.raises(TooLargeForBruteForce, match=r"\(2\^18\)\^2"):
            equivalence_suite(dist, np.random.default_rng(0))

    def test_per_point_subsets_are_budgeted(self):
        one = DiscreteDistribution(["x"], [1.0], np.full((1, 20), 0.05))
        with pytest.raises(TooLargeForBruteForce):
            brute_force_optimal(one, FormulationSpec(Kind.TOP_K, k=1))

    @pytest.mark.parametrize("kind", [Kind.TOP_K, Kind.POINTWISE_ERROR,
                                      Kind.PENALIZED])
    def test_per_point_solve_equals_joint_enumeration(self, kind):
        # the point-wise kinds solve each point alone; enumerating every
        # joint assignment of each point's allowed subsets, first point
        # slowest, finds the same first optimum
        rng = np.random.default_rng(11)
        for _ in range(4):
            d = random_test_distribution(rng, L=4, n_points=2)
            spec = oracle.sample_binding_spec(d, kind, rng)
            S = oracle._all_subsets(d.L)
            allowed = [
                [s for s in S
                 if (spec.k is None or s.sum() <= spec.k)
                 and (spec.eps is None or p[s].sum() >= 1.0 - spec.eps)]
                for p in d.cond
            ]
            best, best_value = None, np.inf
            for rows in itertools.product(*allowed):
                mask = np.array(rows)
                value = objective_value(d, spec, mask)
                if value < best_value:
                    best, best_value = mask, value
            res = brute_force_optimal(d, spec)
            assert np.array_equal(res.mask, best)
            assert res.objective == pytest.approx(best_value, abs=1e-12)

    def test_fscore_brute_matches_threshold_rule(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            d = random_test_distribution(rng, L=4, n_points=2)
            spec = FormulationSpec(
                Kind.F_SCORE, beta=float(rng.uniform(0.5, 2))
            )
            res = brute_force_optimal(d, spec)
            closed = closed_form_assignment(d, spec)
            assert objective_value(d, spec, closed) == pytest.approx(
                res.objective, abs=1e-12
            )


class TestInfeasibility:
    def test_below_topk_error_is_infeasible(self):
        rng = np.random.default_rng(7)
        d = random_test_distribution(rng, L=4, n_points=2)
        k = 2
        eps_k = exact_top_k_error(d, k)
        assert eps_k > 0
        below = brute_force_avg_error_with_size_cap(d, 0.5 * eps_k, k)
        at = brute_force_avg_error_with_size_cap(d, eps_k + 1e-9, k)
        assert not below.feasible
        assert at.feasible

    def test_records_pass_on_random_dists(self):
        rng = np.random.default_rng(8)
        for i in range(10):
            d = random_test_distribution(rng)
            for r in infeasibility_records(d, rng, f"d{i}"):
                assert r.passed


class TestEquivalenceSuite:
    def test_all_judged_records_pass(self):
        rng = np.random.default_rng(9)
        for i in range(10):
            d = random_test_distribution(rng)
            for r in equivalence_suite(d, rng, f"d{i}"):
                if r.judged:
                    assert r.passed, (
                        r.formulation,
                        r.params,
                        r.gap,
                        r.constraint_ok,
                    )

    def test_suite_catches_a_broken_threshold_mask(self, monkeypatch):
        # the oracle must judge the masks the classifier runs: a strict
        # comparison in the thresholding rule drops every label sitting
        # exactly at the fitted cutoff, and the suite has to notice
        import predsets.formulations as formulations

        monkeypatch.setattr(
            formulations,
            "threshold_mask",
            lambda P, theta: np.asarray(P, dtype=np.float64) > float(theta),
        )
        rng = np.random.default_rng(9)
        mismatches = 0
        for i in range(10):
            d = random_test_distribution(rng)
            mismatches += sum(
                r.judged and not r.passed
                for r in equivalence_suite(d, rng, f"d{i}")
            )
        assert mismatches > 0

    def test_hybrid_error_reported_not_judged(self):
        rng = np.random.default_rng(10)
        d = random_test_distribution(rng)
        recs = equivalence_suite(d, rng)
        modes = [r for r in recs if r.formulation.startswith("hybrid-error")]
        assert len(modes) == 2
        assert not any(r.judged for r in modes)

    def test_hybrid_error_modes_genuinely_differ(self):
        # a case where the pure threshold breaks the per-sample constraint
        # while the union reading holds it by construction: point b's best
        # label sits below the cutoff forced by point a
        from predsets.formulations import (
            MODE_LEMMA_THRESHOLD,
            MODE_UNION_POINTWISE,
        )
        from predsets.oracle import (
            closed_form_assignment,
            constraint_satisfied,
            population_threshold,
        )

        # point a needs only its top label to cover 0.7; point b needs two.
        # the mass-weighted step function puts its binding knot at 0.45,
        # which cuts b's set to a singleton with mass 0.45 < 0.7
        d = DiscreteDistribution(
            x_ids=["a", "b"],
            marginal=[0.7, 0.3],
            cond=[[0.90, 0.06, 0.04], [0.45, 0.44, 0.11]],
        )
        eps, ebar = 0.3, 0.25
        spec_t = FormulationSpec(
            Kind.HYBRID_ERROR, ebar=ebar, eps=eps, mode=MODE_LEMMA_THRESHOLD
        )
        spec_u = FormulationSpec(
            Kind.HYBRID_ERROR, ebar=ebar, eps=eps, mode=MODE_UNION_POINTWISE
        )
        theta = population_threshold(d, spec_t)
        assert theta == 0.45
        g_t = closed_form_assignment(d, spec_t, theta)
        g_u = closed_form_assignment(d, spec_u, theta)
        assert np.array_equal(g_t[1], [True, False, False])  # 0.45 < 1 - eps
        assert np.array_equal(g_u[1], [True, True, False])
        assert not constraint_satisfied(d, spec_t, g_t)
        assert constraint_satisfied(d, spec_u, g_u)


class TestSynthGenerate:
    def test_deterministic(self):
        a = synth_generate("dirichlet-like", 5, 100, seed=3)
        b = synth_generate("dirichlet-like", 5, 100, seed=3)
        assert a.ids == b.ids
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.labels, b.labels)
        c = synth_generate("dirichlet-like", 5, 100, seed=4)
        assert not np.array_equal(a.probs, c.probs)

    @pytest.mark.parametrize("template", ["dirichlet-like", "two-regime"])
    @pytest.mark.parametrize("support", [0, -2])
    def test_support_must_be_positive(self, template, support):
        problem = rf"^support={support} must be >= 1$"
        with pytest.raises(ValueError, match=problem):
            make_distribution(template, 4, 0, support=support)

    @pytest.mark.parametrize("make, error, problem", [
        (lambda: DiscreteDistribution(["a", "b"], [1.0], [[0.5, 0.5]] * 2),
         ValueError, "one marginal probability per support point"),
        (lambda: DiscreteDistribution(["a"], [1.0], [0.5, 0.5]),
         ValueError, "cond must be (|support|, L)"),
        (lambda: DiscreteDistribution(["a"], [1.0], [[1.0]]),
         TooFewClasses, "need at least 2 classes, got (1, 1)"),
        (lambda: make_distribution("bogus", 4, 0),
         ValueError, "unknown template 'bogus'"),
        (lambda: make_distribution("dirichlet-like", 1, 0),
         ValueError, "L=1 must be >= 2"),
        (lambda: make_distribution("two-regime", 4, 0, support=3),
         ValueError, "two-regime needs an even support size"),
        (lambda: sample_scores(ONE_POINT, 0, 0),
         ValueError, "n=0 must be >= 1"),
    ])
    def test_bad_arguments_are_refused(self, make, error, problem):
        with pytest.raises(error) as exc:
            make()
        assert type(exc.value) is error
        assert str(exc.value) == problem

    def test_two_regime_entropy_split(self):
        L = 10
        dist = make_distribution("two-regime", L, 0)
        ent = -np.sum(dist.cond * np.log(dist.cond), axis=1)
        half = dist.n_points // 2
        assert np.all(ent[:half] < 0.3 * np.log(L))
        assert np.all(ent[half:] > 0.9 * np.log(L))

    def test_near_deterministic_bayes_error_monte_carlo(self):
        dist = make_distribution("near-deterministic", 2, 1)
        bayes = sum(
            w * (1.0 - p.max()) for w, p in zip(dist.marginal, dist.cond)
        )
        n = 20000
        s = sample_scores(dist, n, seed=2)
        top1 = np.argmax(s.probs, axis=1) + 1
        emp = float(np.mean(top1 != s.labels))
        se = np.sqrt(bayes * (1 - bayes) / n)
        assert abs(emp - bayes) <= 3 * se

    def test_noise_keeps_valid_vectors(self):
        s = synth_generate("dirichlet-like", 4, 50, seed=5, noise=0.4)
        truth = s.meta["truth"]
        assert not np.allclose(s.probs, truth.cond[:1].repeat(50, 0))
        assert np.allclose(s.probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(s.probs > 0)
        # labels still follow the embedded truth, not the noisy scores
        assert s.meta["noise"] == 0.4

    def test_oracle_scores_equal_truth(self):
        s = synth_generate("two-regime", 6, 80, seed=6)
        truth = s.meta["truth"]
        x_ids = s.meta["x_ids"]
        lookup = {x: i for i, x in enumerate(truth.x_ids)}
        rows = np.array([lookup[x] for x in x_ids])
        assert np.array_equal(s.probs, truth.cond[rows])

    @pytest.mark.parametrize("noise", [np.nan, -1.0, -1e-300, np.inf])
    def test_noise_must_be_finite_and_nonnegative(self, noise):
        with pytest.raises(ValueError) as exc:
            sample_scores(ONE_POINT, 5, 0, noise=noise)
        assert str(exc.value) == f"noise={noise!r} must be finite and >= 0"

    def test_population_threshold_none_for_pointwise_kinds(self):
        rng = np.random.default_rng(11)
        d = random_test_distribution(rng)
        assert population_threshold(d, FormulationSpec(Kind.TOP_K, k=1)) is None
        theta = population_threshold(
            d, FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.5)
        )
        assert 0.0 <= theta <= 1.0


def per_row_sample_scores(dist, n, seed, noise=0.0):
    """The sampler as an n x L formulation: each row's label CDF and logits
    are computed on its own gathered row of ``dist.cond``."""
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
    return {
        "ids": [f"s{i:07d}" for i in range(n)],
        "probs": probs,
        "labels": labels,
        "logits": np.log(probs),
        "x_ids": [dist.x_ids[i] for i in x_idx],
    }


#: a zero probability (logit -inf) and a support point that is never drawn
HAND_BUILT = DiscreteDistribution(
    x_ids=["a", "b", "never"],
    marginal=[0.6, 0.4, 0.0],
    cond=[[0.7, 0.0, 0.3], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]],
)


class TestSamplerBitForBit:
    """The sampler gathers each support point's label CDF and noiseless
    logits; every output equals the per-row formulation bit for bit."""

    @staticmethod
    def assert_same(dist, n, seed, noise):
        with np.errstate(divide="ignore"):  # log 0 = -inf
            got = sample_scores(dist, n, seed, noise=noise)
            want = per_row_sample_scores(dist, n, seed, noise=noise)
        assert got.ids == want["ids"]
        assert got.meta["x_ids"] == want["x_ids"]
        for name in ("probs", "labels", "logits"):
            assert np.array_equal(getattr(got, name), want[name]), name

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("L", [2, 3, 7, 10, 100, 1001])
    @pytest.mark.parametrize("template", oracle.TEMPLATES)
    def test_templates(self, template, L, noise):
        self.assert_same(make_distribution(template, L, 4), 300, 8, noise)

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize(
        "template, support, n",
        [
            ("dirichlet-like", 1, 50),
            ("near-deterministic", 1, 1),
            ("dirichlet-like", 64, 5),  # most points are never drawn
            ("two-regime", 2, 1),
        ],
    )
    def test_small_support_and_n(self, template, support, n, noise):
        dist = make_distribution(template, 7, 2, support=support)
        self.assert_same(dist, n, 3, noise)

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_zero_probability_and_undrawn_point(self, noise):
        self.assert_same(HAND_BUILT, 200, 1, noise)
        with np.errstate(divide="ignore"):
            s = sample_scores(HAND_BUILT, 200, 1, noise=noise)
        assert "never" not in s.meta["x_ids"]
        assert np.isneginf(s.logits[np.array(s.meta["x_ids"]) == "a", 1]).all()

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_zero_probability_warns_of_nothing(self, noise):
        dist = DiscreteDistribution(
            ["a", "b"], [0.5, 0.5], [[0, 0.3, 0.7], [0.2, 0.3, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sample_scores(dist, 100, 1, noise=noise)
        assert np.isneginf(s.logits[np.array(s.meta["x_ids"]) == "a", 0]).all()

    def test_fortran_ordered_cond(self):
        dist = make_distribution("dirichlet-like", 10, 5)
        dist.cond = np.asfortranarray(dist.cond)
        self.assert_same(dist, 100, 2, 0.0)
