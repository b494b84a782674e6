"""Prediction rules: examples pinned by hand, invariants by hypothesis."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predsets import core, formulations
from predsets.calibration import CalibratedClassifier, fit_temperature
from predsets.errors import (
    EbarOutOfRange,
    InvalidBeta,
    InvalidEpsilon,
    InvalidOffset,
    KbarOutOfRange,
    KOutOfRange,
    NegativeLambda,
    ParameterOrderViolation,
    PredsetsError,
    SpecFieldError,
)
from predsets.formulations import (
    FormulationSpec,
    Kind,
    MODE_LEMMA_THRESHOLD,
    MODE_UNION_POINTWISE,
    pointwise_error_mask,
    rule_mask,
)
from predsets.core import ScoreSet, topk_mask
from predsets.oracle import synth_generate

from test_core import prob_vectors

TOP_K = Kind.TOP_K
POINTWISE = Kind.POINTWISE_ERROR
PENALIZED = Kind.PENALIZED
HYBRID_SIZE = Kind.HYBRID_SIZE
HYBRID_ERROR = Kind.HYBRID_ERROR


def predict(kind, p, theta=None, **params):
    """Labels of one probability vector under the classifier's rule: its
    mask of a one-row score set, as ascending 1-based labels.

    ``theta`` is the fitted cutoff of the threshold kinds; parameters the
    rule does not read (kbar of hybrid-size, ebar of hybrid-error) only
    need to pass the spec's checks.
    """
    clf = CalibratedClassifier(FormulationSpec(kind, **params), theta=theta)
    return np.flatnonzero(clf.predict_set_mask(ScoreSet(["x"], [p]))[0]) + 1


def labels(kind, p, theta=None, **params):
    return predict(kind, p, theta, **params).tolist()


def thresholded(p, theta):
    """The calibrated-cutoff rule of the average-size/error kinds."""
    return labels(Kind.AVERAGE_SIZE, p, theta, kbar=1.0)


class TestPredictTopK:
    def test_argmax(self):
        assert labels(TOP_K, np.array([0.7, 0.2, 0.1]), k=1) == [1]

    def test_k_equals_L(self):
        assert labels(TOP_K, np.array([0.7, 0.2, 0.1]), k=3) == [1, 2, 3]

    def test_sort_check(self):
        # independent oracle: sort the entries, take the two largest labels
        p = np.array([0.4, 0.35, 0.15, 0.1])
        expect = sorted(np.argsort(-p)[:2] + 1)
        assert expect == [1, 2]
        assert labels(TOP_K, p, k=2) == expect


class TestPredictPointwiseError:
    def test_cumulative_sums(self):
        # cumulative sums 0.5, 0.8 >= 0.75 at k=2
        p = np.array([0.5, 0.3, 0.2])
        assert labels(POINTWISE, p, eps=0.25) == [1, 2]

    def test_zero_error_forces_full_set(self):
        p = np.array([0.5, 0.3, 0.2])
        assert labels(POINTWISE, p, eps=0.0) == [1, 2, 3]

    def test_offset_non_strict_boundary(self):
        # 0.8 >= 0.80 with non-strict comparison
        p = np.array([0.5, 0.3, 0.2])
        assert labels(POINTWISE, p, eps=0.25, offset=0.05) == [1, 2]

    def test_empty_only_when_target_nonpositive(self):
        p = np.array([0.5, 0.3, 0.2])
        assert labels(POINTWISE, p, eps=1.0) == []
        assert labels(POINTWISE, p, eps=1.0, offset=0.5) == [1]

    def test_parameter_errors(self):
        P = np.array([[0.5, 0.5]])
        with pytest.raises(InvalidEpsilon):
            FormulationSpec(POINTWISE, eps=1.5)
        with pytest.raises(InvalidOffset):
            FormulationSpec(POINTWISE, eps=0.2, offset=0.3)
        with pytest.raises(InvalidEpsilon):
            pointwise_error_mask(P, 1.5, 0.0)
        with pytest.raises(InvalidOffset):
            pointwise_error_mask(P, 0.2, 0.3)

    @given(prob_vectors(), st.sampled_from([0.01, 0.1, 0.3, 0.6]))
    @settings(max_examples=300, deadline=None)
    def test_coverage_and_minimality(self, p, eps):
        kept = predict(POINTWISE, p, eps=eps)
        mass = p[kept - 1].sum()
        assert mass >= 1.0 - eps
        if kept.size >= 1:
            top_smaller = np.sort(p)[::-1][: kept.size - 1].sum()
            assert top_smaller < 1.0 - eps

    @given(prob_vectors(), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_antitone_in_eps(self, p, e1, e2):
        lo, hi = min(e1, e2), max(e1, e2)
        assert set(labels(POINTWISE, p, eps=hi)) <= set(
            labels(POINTWISE, p, eps=lo)
        )


class TestPredictPenalized:
    def test_thresholding(self):
        p = np.array([0.5, 0.3, 0.2])
        assert labels(PENALIZED, p, lam=0.25) == [1, 2]
        assert labels(PENALIZED, p, lam=0.6) == []
        assert labels(PENALIZED, p, lam=0.0) == [1, 2, 3]

    def test_negative_lambda(self):
        with pytest.raises(NegativeLambda):
            FormulationSpec(PENALIZED, lam=-0.1)

    @given(prob_vectors(), st.floats(0, 1.2))
    @settings(max_examples=200, deadline=None)
    def test_equals_threshold_rule_everywhere(self, p, lam):
        assert labels(PENALIZED, p, lam=lam) == thresholded(p, lam)


class TestPredictWithThreshold:
    def test_single_point_population_inverse(self):
        # on the one-point population (0.5, 0.3, 0.2) the pooled-score
        # function drops to 2 at 0.3, so the calibrated cutoff for a size
        # budget of 2 is 0.3 and thresholding there keeps {1, 2}
        from predsets.calibration import EmpiricalStepFunction, _knot_at

        p = np.array([0.5, 0.3, 0.2])
        g = EmpiricalStepFunction(p, rows=[0, 0, 0]).reweight([1.0], norm=1)
        theta = _knot_at(g, 2.0, reach=False)
        assert theta == 0.3
        assert thresholded(p, theta) == [1, 2]

    def test_theta_one(self):
        assert thresholded(np.array([0.5, 0.3, 0.2]), 1.0) == []
        assert thresholded(np.array([1.0, 0.0]), 1.0) == [1]


class TestPredictHybridSize:
    def test_intersection(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        assert labels(HYBRID_SIZE, p, 0.25, kbar=0.5, k=1) == [1]
        assert labels(HYBRID_SIZE, p, 0.5, kbar=0.5, k=2) == []
        assert labels(HYBRID_SIZE, p, 0.0, kbar=0.5, k=2) == [1, 2]

    def test_k_out_of_range(self):
        with pytest.raises(KOutOfRange):
            FormulationSpec(HYBRID_SIZE, kbar=0.5, k=0)
        with pytest.raises(KOutOfRange):
            predict(HYBRID_SIZE, np.array([0.5, 0.5]), 0.1, kbar=0.5, k=3)

    @given(prob_vectors(), st.floats(0, 1), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_subset_of_both_parents(self, p, theta, k):
        k = min(k, p.size)
        hybrid = set(labels(HYBRID_SIZE, p, theta, kbar=0.5, k=k))
        assert hybrid <= set(labels(TOP_K, p, k=k))
        assert hybrid <= set(labels(PENALIZED, p, lam=theta))
        assert len(hybrid) <= k


class TestHybridSizeCap:
    """``rule_mask`` caps only the rows holding more than k threshold
    entries, and is the intersection of the threshold and top-k masks."""

    K, THETA = 2, 0.15
    #: rows with more than k entries >= theta: all five tied, exactly k + 1
    #: with a tie at the cut, and k + 2 with a tie at the cut
    OVER = [[0.2, 0.2, 0.2, 0.2, 0.2], [0.3, 0.25, 0.25, 0.1, 0.1],
            [0.2, 0.4, 0.2, 0.2, 0.0]]
    #: rows with at most k: exactly k, exactly k with one tied at theta,
    #: and one
    UNDER = [[0.5, 0.3, 0.1, 0.05, 0.05], [0.15, 0.0, 0.0, 0.85, 0.0],
             [0.9, 0.025, 0.025, 0.025, 0.025], [0.14, 0.14, 0.14, 0.14, 0.44]]

    @pytest.mark.parametrize("n_over", [0, 2, 3, 4])
    def test_equals_intersection(self, n_over):
        rows = (self.OVER * 2)[:n_over] + self.UNDER[: 4 - n_over]
        P = np.array(rows)[::-1]  # over rows last
        spec = FormulationSpec(HYBRID_SIZE, kbar=0.5, k=self.K)
        want = core.threshold_mask(P, self.THETA) & topk_mask(P, self.K)
        got = rule_mask(spec, P, self.THETA)
        assert np.array_equal(got, want)
        assert np.all(np.count_nonzero(got, axis=1) <= self.K)

    def test_k_above_L_raises_with_no_row_over(self):
        spec = FormulationSpec(HYBRID_SIZE, kbar=0.5, k=6)
        with pytest.raises(KOutOfRange):
            rule_mask(spec, np.array(self.UNDER), self.THETA)

    def test_exactly_k_plus_one_is_capped(self):
        P = np.array([self.OVER[1]] + self.UNDER[:3])
        spec = FormulationSpec(HYBRID_SIZE, kbar=0.5, k=self.K)
        got = rule_mask(spec, P, self.THETA)
        assert got[0].tolist() == [True, True, False, False, False]

    @pytest.mark.parametrize("seed", range(4))
    def test_tied_matrices(self, seed):
        P = tied_matrix(40, 9, seed)
        for k in (1, 2, 4, 8, 9):
            spec = FormulationSpec(HYBRID_SIZE, kbar=0.5, k=k)
            for theta in (0.0, 0.05, 0.1, 0.2, 1.0):
                want = core.threshold_mask(P, theta) & topk_mask(P, k)
                assert np.array_equal(rule_mask(spec, P, theta), want)


class TestRuleIsAlwaysPlusPool:
    """Every rule keeps its mask at theta = inf, plus the pool (its mask at
    0 less that) at or above theta: the two sets the sweep counts."""

    @pytest.mark.parametrize("L", [3, 10, 40])
    @pytest.mark.parametrize("tied", [False, True])
    def test_every_rule_at_every_entry(self, L, tied):
        rng = np.random.default_rng(L)
        P = tied_matrix(12, L, L) if tied else rng.dirichlet(np.ones(L), 12)
        specs = [
            FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0),
            FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.1),
            FormulationSpec(HYBRID_ERROR, ebar=0.05, eps=0.3),
            FormulationSpec(HYBRID_ERROR, ebar=0.05, eps=0.3,
                            mode=MODE_UNION_POINTWISE),
            FormulationSpec(Kind.F_SCORE, beta=1.0),
            FormulationSpec(TOP_K, k=2),
            FormulationSpec(POINTWISE, eps=0.3),
            FormulationSpec(PENALIZED, lam=0.2),
        ] + [FormulationSpec(HYBRID_SIZE, kbar=0.5, k=k) for k in {1, 2, L}]
        for spec in specs:
            always = rule_mask(spec, P, np.inf)
            pool = rule_mask(spec, P, 0.0) & ~always
            for theta in [0.0, *np.unique(P), np.inf]:
                got = rule_mask(spec, P, theta)
                assert np.array_equal(got, always | (pool & (P >= theta)))
                assert not np.any(always & ~got)
                assert not np.any(got & ~(always | pool))


class TestPointwiseCountsAtManyClasses:
    @pytest.mark.parametrize("L", [2**15 - 2, 2**15 - 1, 2**15 + 2])
    def test_full_rows_do_not_wrap(self, L):
        # a flat row summing just below 1 keeps every prefix below the
        # target at eps 0, so its count plus one is L + 1 before the cap
        flat = np.full(L, (1.0 - 1e-9) / L)
        peaked = np.zeros(L)
        peaked[0] = 1.0
        # blocks of at most two rows: after a peaked block the flat row
        # sums a short prefix first and falls back to its full row
        assert all(b.stop - b.start <= 2 for b in core.row_blocks(5, L))
        P = np.array([peaked, peaked, flat, peaked, flat])
        mask = pointwise_error_mask(P, 0.0)
        assert np.count_nonzero(mask, axis=1).tolist() == [1, 1, L, 1, L]


class TestPredictHybridError:
    @staticmethod
    def hybrid(p, theta, eps, mode):
        return predict(HYBRID_ERROR, p, theta, ebar=0.0, eps=eps, mode=mode)

    def test_lemma_threshold_mode(self):
        p = np.array([0.6, 0.3, 0.1])
        kept = self.hybrid(p, 0.5, 0.2, MODE_LEMMA_THRESHOLD)
        assert kept.tolist() == [1]

    def test_union_mode_guarantees_pointwise(self):
        # point-wise set is {1, 2} since 0.6 < 0.8; union with {1}
        p = np.array([0.6, 0.3, 0.1])
        kept = self.hybrid(p, 0.5, 0.2, MODE_UNION_POINTWISE)
        assert kept.tolist() == [1, 2]

    def test_theta_zero_includes_all_in_both_modes(self):
        p = np.array([0.6, 0.3, 0.1])
        for mode in (MODE_LEMMA_THRESHOLD, MODE_UNION_POINTWISE):
            assert self.hybrid(p, 0.0, 1.0, mode).tolist() == [1, 2, 3]

    @given(prob_vectors(), st.floats(0, 1), st.floats(0.05, 1))
    @settings(max_examples=200, deadline=None)
    def test_union_mode_satisfies_pointwise_constraint(self, p, theta, eps):
        kept = self.hybrid(p, theta, eps, MODE_UNION_POINTWISE)
        assert p[kept - 1].sum() >= 1.0 - eps


class TestPredictFscore:
    def test_examples(self):
        def fscore(p, theta):
            return labels(Kind.F_SCORE, np.array(p), theta, beta=1.0)

        assert fscore([0.5, 0.5], 0.5) == [1, 2]
        assert fscore([0.9, 0.1], 0.3) == [1]
        assert fscore([0.4, 0.3, 0.3], 0.35) == [1]


class TestFormulationSpec:
    def test_parameter_validation(self):
        FormulationSpec(Kind.TOP_K, k=3)
        with pytest.raises(KOutOfRange):
            FormulationSpec(Kind.TOP_K, k=-1)
        with pytest.raises(InvalidEpsilon):
            FormulationSpec(Kind.POINTWISE_ERROR, eps=1.4)
        with pytest.raises(ParameterOrderViolation):
            FormulationSpec(Kind.HYBRID_SIZE, kbar=3.0, k=3)
        with pytest.raises(ParameterOrderViolation):
            FormulationSpec(Kind.HYBRID_ERROR, ebar=0.3, eps=0.2)
        # a missing or stray field, an unknown mode or kind: typed, and
        # still a ValueError, with the field it names
        for args, kwargs, text, field in [
            ((Kind.PENALIZED,), {}, "penalized requires lam", "lam"),
            ((Kind.TOP_K,), {"k": 1, "eps": 0.1},
             "eps is not a parameter of top-k", "eps"),
            ((Kind.HYBRID_ERROR,), {"ebar": 0.1, "eps": 0.2, "mode": "x"},
             "unknown combine mode 'x'", "mode"),
            (("top-j",), {"k": 1}, "'top-j' is not a valid Kind", "kind"),
        ]:
            with pytest.raises(SpecFieldError) as exc:
                FormulationSpec(*args, **kwargs)
            assert isinstance(exc.value, PredsetsError)
            assert isinstance(exc.value, ValueError)
            assert (str(exc.value), exc.value.field) == (text, field)

    @pytest.mark.parametrize(
        "kind, params",
        [
            (Kind.POINTWISE_ERROR, {"eps": "x"}),
            (Kind.PENALIZED, {"lam": "x"}),
            (Kind.AVERAGE_SIZE, {"kbar": "x"}),
            (Kind.AVERAGE_ERROR, {"ebar": "x"}),
            (Kind.HYBRID_SIZE, {"kbar": "x", "k": 2}),
            (Kind.HYBRID_ERROR, {"ebar": "x", "eps": 0.5}),
            (Kind.F_SCORE, {"beta": "x"}),
        ],
    )
    def test_nan_parameters_rejected(self, kind, params):
        params = {k: float("nan") if v == "x" else v for k, v in params.items()}
        with pytest.raises(ValueError):
            FormulationSpec(kind, **params)

    @pytest.mark.parametrize(
        "kind, params, error",
        [
            (Kind.PENALIZED, {"lam": "x"}, NegativeLambda),
            (Kind.AVERAGE_SIZE, {"kbar": "x"}, KbarOutOfRange),
            (Kind.HYBRID_SIZE, {"kbar": "x", "k": 2}, KbarOutOfRange),
            (Kind.F_SCORE, {"beta": "x"}, InvalidBeta),
        ],
    )
    def test_infinite_parameters_rejected(self, kind, params, error):
        # inf passed the sign checks and reached model files that predict
        # refuses; kbar = inf was caught only at fit time, by kbar <= L
        params = {k: float("inf") if v == "x" else v for k, v in params.items()}
        with pytest.raises(error, match="must be finite"):
            FormulationSpec(kind, **params)

    def test_L_dependent_checks(self):
        spec = FormulationSpec(Kind.TOP_K, k=5)
        with pytest.raises(KOutOfRange):
            spec.check_class_count(3)
        spec.check_class_count(5)

    @pytest.mark.parametrize("kind, params, error, message", [
        (TOP_K, {"k": -1}, KOutOfRange, "k=-1 must be an integer >= 0"),
        (TOP_K, {"k": 1.5}, KOutOfRange, "k=1.5 must be an integer >= 0"),
        (POINTWISE, {"eps": 1.4}, InvalidEpsilon, "eps=1.4 outside [0, 1]"),
        (POINTWISE, {"eps": 0.2, "offset": 0.3}, InvalidOffset,
         "offset=0.3 outside [0, 0.2]"),
        (PENALIZED, {"lam": -0.1}, NegativeLambda,
         "lambda=-0.1 must be finite and >= 0"),
        (Kind.AVERAGE_SIZE, {"kbar": 0.0}, KbarOutOfRange,
         "kbar=0.0 must be finite and > 0"),
        (Kind.AVERAGE_ERROR, {"ebar": 0.0}, EbarOutOfRange,
         "ebar=0.0 outside (0, 1)"),
        (Kind.AVERAGE_ERROR, {"ebar": 1.0}, EbarOutOfRange,
         "ebar=1.0 outside (0, 1)"),
        (HYBRID_SIZE, {"k": 0, "kbar": 0.5}, KOutOfRange,
         "k=0 must be an integer >= 1"),
        (HYBRID_SIZE, {"k": 3, "kbar": -1.0}, KbarOutOfRange,
         "kbar=-1.0 must be finite and > 0"),
        (HYBRID_SIZE, {"k": 3, "kbar": 3.0}, ParameterOrderViolation,
         "need kbar < k, got kbar=3.0, k=3"),
        (HYBRID_SIZE, {"k": 0, "kbar": -1.0}, KOutOfRange,
         "k=0 must be an integer >= 1"),
        (HYBRID_ERROR, {"eps": 1.5, "ebar": 0.1}, InvalidEpsilon,
         "eps=1.5 outside [0, 1]"),
        (HYBRID_ERROR, {"eps": 0.5, "ebar": -0.1}, EbarOutOfRange,
         "ebar=-0.1 must be >= 0"),
        (HYBRID_ERROR, {"eps": 0.2, "ebar": 0.3}, ParameterOrderViolation,
         "need ebar < eps, got ebar=0.3, eps=0.2"),
        (HYBRID_ERROR, {"eps": 0.2, "ebar": 0.1, "mode": "x"}, SpecFieldError,
         "unknown combine mode 'x'"),
        (HYBRID_ERROR, {"eps": 1.5, "ebar": -0.1, "mode": "x"},
         InvalidEpsilon, "eps=1.5 outside [0, 1]"),
        (HYBRID_ERROR, {"eps": 0.2, "ebar": 0.3, "mode": "x"},
         ParameterOrderViolation, "need ebar < eps, got ebar=0.3, eps=0.2"),
        (Kind.F_SCORE, {"beta": 0.0}, InvalidBeta,
         "beta=0.0 must be finite and > 0"),
    ], ids=lambda v: v.value if isinstance(v, Kind) else None)
    def test_each_invalid_field(self, kind, params, error, message):
        # with two bad fields, the first in field order is reported
        with pytest.raises(error) as exc:
            FormulationSpec(kind, **params)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind, params, needs_fit, over", [
        (TOP_K, {"k": 3}, False, (KOutOfRange, "k=3 > L=2")),
        (POINTWISE, {"eps": 0.1}, False, None),
        (PENALIZED, {"lam": 0.1}, False, None),
        (Kind.AVERAGE_SIZE, {"kbar": 2.5}, True,
         (KbarOutOfRange, "kbar=2.5 > L=2")),
        (Kind.AVERAGE_ERROR, {"ebar": 0.1}, True, None),
        (HYBRID_SIZE, {"k": 3, "kbar": 1.5}, True,
         (KOutOfRange, "k=3 > L=2")),
        (HYBRID_ERROR, {"eps": 0.2, "ebar": 0.1}, True, None),
        (Kind.F_SCORE, {"beta": 1.0}, True, None),
    ], ids=lambda v: v.value if isinstance(v, Kind) else None)
    def test_needs_fit_and_class_count(self, kind, params, needs_fit, over):
        # a fitted threshold exactly for the average bounds and the F-score;
        # k and kbar are bounded by L, at L = 2 here and fine at L = 3
        spec = FormulationSpec(kind, **params)
        assert spec.needs_fit is needs_fit
        spec.check_class_count(3)
        if over is None:
            spec.check_class_count(2)
        else:
            error, message = over
            with pytest.raises(error) as exc:
                spec.check_class_count(2)
            assert type(exc.value) is error
            assert str(exc.value) == message


def pointwise_reference(p, eps):
    """Independent point-wise rule: walk labels by decreasing probability
    (ties to the smaller label) until the kept mass reaches ``1 - eps``."""
    order = sorted(range(len(p)), key=lambda j: (-p[j], j))
    kept, mass = [], 0.0
    for j in order:
        if mass >= 1.0 - eps:
            break
        kept.append(j + 1)
        mass += float(p[j])
    return sorted(kept)


class TestVectorizedAgreement:
    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_pointwise_mask_matches_scalar_rule(self, seed):
        rng = np.random.default_rng(seed)
        P = rng.dirichlet(np.ones(5), size=8)
        eps = float(rng.uniform(0.01, 0.9))
        mask = pointwise_error_mask(P, eps, 0.0)
        for i in range(P.shape[0]):
            expect = pointwise_reference(P[i], eps)
            assert (np.flatnonzero(mask[i]) + 1).tolist() == expect


# --- the masks against the stable-argsort rule they replaced -----------------


def argsort_topk(P, k):
    """Top-k by a stable argsort of -P: equal entries in label order."""
    order = np.argsort(-P, axis=1, kind="stable")
    mask = np.zeros(P.shape, dtype=bool)
    mask[np.arange(P.shape[0])[:, None], order[:, :k]] = True
    return mask


def argsort_pointwise(P, eps, offset=0.0):
    """Point-wise rule by a stable argsort of -P and a running sum."""
    n, L = P.shape
    target = 1.0 - eps + offset
    mask = np.zeros((n, L), dtype=bool)
    if target <= 0.0:
        return mask
    order = np.argsort(-P, axis=1, kind="stable")
    rows = np.arange(n)[:, None]
    csum = np.cumsum(P[rows, order], axis=1)
    khat = np.minimum((csum < target).sum(axis=1) + 1, L)
    mask[rows, order] = np.arange(L)[None, :] < khat[:, None]
    return mask


@st.composite
def tied_rows(draw):
    """Rows of small integers (zeros included), normalised: heavy ties."""
    L = draw(st.integers(2, 12))
    n = draw(st.integers(1, 6))
    top = draw(st.integers(1, 4))
    ints = np.array(
        draw(st.lists(st.integers(0, top), min_size=n * L, max_size=n * L)),
        dtype=np.float64,
    ).reshape(n, L)
    ints[ints.sum(axis=1) == 0, 0] = 1.0
    return ints / ints.sum(axis=1, keepdims=True)


EPS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


class TestMasksMatchArgsortRule:
    @given(tied_rows())
    @settings(max_examples=100, deadline=None)
    def test_topk_every_k(self, P):
        for k in range(P.shape[1] + 1):
            assert np.array_equal(topk_mask(P, k), argsort_topk(P, k))

    @given(tied_rows(), EPS, st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_pointwise(self, P, eps, share):
        offset = share * eps
        want = argsort_pointwise(P, eps, offset)
        assert np.array_equal(pointwise_error_mask(P, eps, offset), want)
        with pytest.MonkeyPatch.context() as m:  # the narrow path at any n
            m.setattr(formulations, "_NETWORK_ROWS", 0)
            assert np.array_equal(pointwise_error_mask(P, eps, offset), want)

    @given(tied_rows(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_hybrid_size(self, P, data):
        L = P.shape[1]
        k = data.draw(st.integers(1, L))
        theta = data.draw(st.sampled_from(sorted(set(P.ravel()))))
        spec = FormulationSpec(HYBRID_SIZE, kbar=0.5, k=k)
        assert np.array_equal(
            rule_mask(spec, P, theta), (P >= theta) & argsort_topk(P, k)
        )

    @given(tied_rows(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_hybrid_error_union(self, P, data):
        eps = data.draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
        theta = data.draw(st.sampled_from(sorted(set(P.ravel()))))
        spec = FormulationSpec(
            HYBRID_ERROR, ebar=0.0, eps=eps, mode=MODE_UNION_POINTWISE
        )
        assert np.array_equal(
            rule_mask(spec, P, theta),
            (P >= theta) | argsort_pointwise(P, eps),
        )


# --- row blocks ---------------------------------------------------------------


def tied_matrix(n, L, seed):
    """``n`` rows of small integers (zeros included), normalised: heavy ties."""
    ints = np.random.default_rng(seed).integers(0, 4, size=(n, L)).astype(float)
    ints[ints.sum(axis=1) == 0, 0] = 1.0
    return ints / ints.sum(axis=1, keepdims=True)


def block_sizes(L):
    """Block byte counts giving 1-row, 3-row and the default blocks at L."""
    return [8 * L, 8 * L * 3, core._BLOCK_BYTES]


class TestRowBlocks:
    """The row-blocked kernels equal the stable-argsort rules whatever the
    block size and wherever a block boundary falls."""

    L = 9

    @pytest.mark.parametrize("block_bytes", block_sizes(L))
    def test_masks_at_every_boundary(self, monkeypatch, block_bytes):
        monkeypatch.setattr(core, "_BLOCK_BYTES", block_bytes)
        L = self.L
        step = max(1, block_bytes // (8 * L))
        for n in sorted({0, 1, step - 1, step, step + 1, 3 * step + 2}):
            blocks = core.row_blocks(n, L)
            assert [i for b in blocks for i in range(n)[b]] == list(range(n))
            assert all(len(range(n)[b]) <= step for b in blocks)
            P = tied_matrix(n, L, seed=n)
            for k in range(L + 1):
                assert np.array_equal(topk_mask(P, k), argsort_topk(P, k))
            for eps in (0.0, 0.1, 0.5, 1.0):
                for offset in (0.0, eps / 2):
                    assert np.array_equal(
                        pointwise_error_mask(P, eps, offset),
                        argsort_pointwise(P, eps, offset),
                    )
            theta = 0.1
            spec = FormulationSpec(HYBRID_SIZE, kbar=0.5, k=3)
            assert np.array_equal(
                rule_mask(spec, P, theta), (P >= theta) & argsort_topk(P, 3)
            )
            spec = FormulationSpec(
                HYBRID_ERROR, ebar=0.0, eps=0.3, mode=MODE_UNION_POINTWISE
            )
            assert np.array_equal(
                rule_mask(spec, P, theta),
                (P >= theta) | argsort_pointwise(P, 0.3),
            )
        # eps = 1 with no offset keeps nothing; ties straddle top-3 cuts
        assert not pointwise_error_mask(P, 1.0).any()
        cut = -np.sort(-P, axis=1)[:, 2:3]
        assert np.any(((P > cut).sum(axis=1) < 3) & ((P >= cut).sum(axis=1) > 3))

    def test_temperature_fits_are_bit_identical(self, monkeypatch):
        data = synth_generate("dirichlet-like", self.L, 50, 4, noise=0.5)
        draws = [data.subset(np.random.default_rng([0, 0, rep]).integers(
            0, 50, size=50)) for rep in range(4)]
        fits = []
        for block_bytes in block_sizes(self.L):
            monkeypatch.setattr(core, "_BLOCK_BYTES", block_bytes)
            fits.append([fit_temperature(data)]
                        + [fit_temperature(draw) for draw in draws])
        assert fits[0] == fits[1] == fits[2]
        assert len(set(fits[0])) == len(fits[0])  # the draws differ

    @pytest.mark.parametrize("block_bytes", block_sizes(40))
    def test_pointwise_prefix_falls_back_to_full_rows(self, monkeypatch,
                                                      block_bytes):
        # peaked rows first, then flat ones: a later block needs a longer
        # prefix than the earlier blocks' largest set size suggests
        monkeypatch.setattr(core, "_BLOCK_BYTES", block_bytes)
        n, L = 30, 40
        rng = np.random.default_rng(9)
        ints = np.vstack([rng.integers(0, 2, size=(10, L)),
                          rng.integers(2, 4, size=(n - 10, L))]).astype(float)
        ints[:10, 0] = 60.0
        P = ints / ints.sum(axis=1, keepdims=True)
        grows = 0
        for eps in (0.1, 0.5, 1 - 1e-12):
            for offset in (0.0, eps / 2):
                expect = argsort_pointwise(P, eps, offset)
                assert np.array_equal(pointwise_error_mask(P, eps, offset),
                                      expect)
                khat = expect.sum(axis=1)
                largest = [khat[b].max() for b in core.row_blocks(n, L)]
                grows += any(later > first + 1 + L // 16
                             for first, later in zip(largest, largest[1:]))
        assert grows or len(core.row_blocks(n, L)) == 1

    @pytest.mark.parametrize("L", [3, 10, 1000])
    def test_pointwise_partition_matches_full_sort(self, monkeypatch, L):
        # peaked rows first, then flat ones: blocks after the peaked ones
        # partition off a short top, and the first flat block's rows need
        # more than that top, so they sort in full
        if L < 1000:
            monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * L * 4)
        n = 24 if L < 1000 else 200
        rng = np.random.default_rng(L)
        ints = np.vstack([rng.integers(0, 2, size=(n // 2, L)),
                          rng.integers(2, 40, size=(n - n // 2, L))])
        ints = ints.astype(float)
        ints[: n // 2, 0] = 20.0 * L
        P = ints / ints.sum(axis=1, keepdims=True)
        blocks = core.row_blocks(n, L)
        fallbacks = 0
        for eps in (0.05, 0.3, 0.5, 0.8, 1.0):
            expect = np.vstack([argsort_pointwise(P[i:i + 1], eps)
                                for i in range(n)])
            assert np.array_equal(pointwise_error_mask(P, eps), expect)
            khat = expect.sum(axis=1)
            m = L
            for rows in blocks:  # the prefix bound the mask keeps
                fallbacks += 2 * m <= L and khat[rows].max() > m
                m = min(L, int(khat[rows].max()) + 1 + L // 16)
        assert fallbacks or L == 3  # at L = 3 no top is short enough

    def test_cut_mask_fills_straddling_ties(self):
        P = tied_matrix(40, self.L, seed=3)
        desc = -np.sort(-P, axis=1)
        need = np.random.default_rng(4).integers(1, self.L + 1, size=40)
        for k in (3, need):
            ks = np.broadcast_to(k, (40,))
            cut = desc[np.arange(40), ks - 1]
            assert np.any(((P > cut[:, None]).sum(axis=1) < ks)
                          & ((P >= cut[:, None]).sum(axis=1) > ks))
            expect = np.vstack([argsort_topk(P[i:i + 1], ks[i])
                                for i in range(40)])
            assert np.array_equal(core.cut_mask(P, cut, k), expect)

    @pytest.mark.parametrize("block_bytes", block_sizes(L))
    def test_softmax_matches_whole_matrix(self, monkeypatch, block_bytes):
        def whole(z):  # one pass over the whole matrix, max-shifted
            e = z - z.max(axis=-1, keepdims=True)
            np.exp(e, out=e)
            e /= e.sum(axis=-1, keepdims=True)
            return e

        monkeypatch.setattr(core, "_BLOCK_BYTES", block_bytes)
        z = np.random.default_rng(5).normal(scale=4.0, size=(23, self.L))
        for T in (0.05, 1.0, 3.7):
            assert np.array_equal(core.softmax(z, T), whole(z / T))
            assert np.array_equal(core.softmax(z[0], T), whole(z[0] / T))
            assert core.softmax(z[0], T).shape == (self.L,)
        assert np.array_equal(core.softmax(z), whole(z))


def pointwise_masks(P):
    """The point-wise masks at eps 0, 0.1, 0.5 and 1, with and without an
    offset."""
    return [pointwise_error_mask(P, eps, offset)
            for eps in (0.0, 0.1, 0.5, 1.0) for offset in (0.0, eps / 2)]


def per_piece_count(monkeypatch, kernel, pieces):
    """``kernel()`` with the piece rule forced to ``pieces``; every thread it
    started is joined by its return."""
    before = threading.active_count()
    with monkeypatch.context() as m:
        m.setattr(core, "_pieces", lambda floats: pieces)
        out = kernel()
    assert threading.active_count() == before
    return out


class TestRowPieces:
    """The kernels give the same bits whatever the number of row pieces,
    wherever a piece boundary falls against the row blocks."""

    L = 9

    def kernels(self, P, z):
        hybrid_size = FormulationSpec(HYBRID_SIZE, kbar=0.5, k=3)
        union = FormulationSpec(HYBRID_ERROR, ebar=0.0, eps=0.3,
                                mode=MODE_UNION_POINTWISE)
        return ([topk_mask(P, k) for k in range(P.shape[1] + 1)]
                + pointwise_masks(P)
                + [core.softmax(z, T) for T in (0.05, 1.0, 3.7)]
                + [core.threshold_mask(P, 0.1),
                   rule_mask(hybrid_size, P, 0.1), rule_mask(union, P, 0.1)])

    @pytest.mark.parametrize("n", [0, 1, 2, 100])
    def test_masks_and_softmax_do_not_depend_on_pieces(self, monkeypatch, n):
        # 65-row blocks: 2 and 3 pieces of 100 rows cut inside a block
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * self.L * 65)
        P = tied_matrix(n, self.L, seed=n)
        z = np.random.default_rng(n).normal(scale=4.0, size=(n, self.L))
        want = per_piece_count(monkeypatch, lambda: self.kernels(P, z), 1)
        for pieces in (2, 3):
            got = per_piece_count(monkeypatch, lambda: self.kernels(P, z),
                                  pieces)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_pointwise_at_the_full_row_fallback(self, monkeypatch):
        # 1000 classes, 65-row blocks: peaked rows, then flat ones whose
        # block falls back to full rows; 2 pieces cut where the flat rows
        # start, 3 inside the second and third blocks
        n, L = 201, 1000
        rng = np.random.default_rng(2)
        ints = np.vstack([rng.integers(0, 2, size=(100, L)),
                          rng.integers(2, 40, size=(n - 100, L))])
        ints = ints.astype(float)
        ints[:100, 0] = 20.0 * L
        P = ints / ints.sum(axis=1, keepdims=True)

        want = per_piece_count(monkeypatch, lambda: pointwise_masks(P), 1)
        fallbacks, m = 0, L
        for rows in core.row_blocks(n, L):  # the prefix one piece keeps
            khat = want[2][rows].sum(axis=1)  # eps = 0.1, no offset
            fallbacks += 2 * m <= L and khat.max() > m
            m = min(L, int(khat.max()) + 1 + L // 16)
        assert fallbacks
        for pieces in (2, 3):
            got = per_piece_count(monkeypatch, lambda: pointwise_masks(P),
                                  pieces)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("n", [1, 2, 100])
    def test_temperature_fits_do_not_depend_on_pieces(self, monkeypatch, n):
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * self.L * 65)
        data = synth_generate("dirichlet-like", self.L, n, 4, noise=0.5)
        draw = data.subset(np.random.default_rng(n).integers(0, n, size=n))

        def fits():
            return [fit_temperature(data).hex(), fit_temperature(draw).hex()]

        want = per_piece_count(monkeypatch, fits, 1)
        for pieces in (2, 3):
            assert per_piece_count(monkeypatch, fits, pieces) == want

    def test_a_later_piece_raises_in_the_caller(self, monkeypatch):
        def cut_mask(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("piece failed")
            return core.cut_mask(*args)

        P = tied_matrix(30, self.L, seed=1)
        monkeypatch.setattr(formulations, "cut_mask", cut_mask)
        for pieces in (2, 3):
            with pytest.raises(RuntimeError, match="piece failed"):
                per_piece_count(
                    monkeypatch, lambda: pointwise_error_mask(P, 0.1), pieces
                )
        one = per_piece_count(
            monkeypatch, lambda: pointwise_error_mask(P, 0.1), 1
        )
        assert np.array_equal(one, argsort_pointwise(P, 0.1))

    def test_one_piece_starts_no_thread(self, monkeypatch):
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(core.threading, "Thread", Counted)
        data = synth_generate("two-regime", 10, 10_000, 1, noise=0.2)
        P, z = data.probs, data.logits
        self.kernels(P, z)
        fit_temperature(data)
        assert not started
        per_piece_count(monkeypatch, lambda: core.softmax(z), 3)
        assert len(started) == 2


# --- narrow rows: the comparator network --------------------------------------


def run_network(pairs, x):
    """Rows of ``x`` after each comparator ``(i, j)`` puts the smaller of
    columns ``i`` and ``j`` at ``i``."""
    x = x.copy()
    for i, j in pairs:
        lo, hi = np.minimum(x[:, i], x[:, j]), np.maximum(x[:, i], x[:, j])
        x[:, i], x[:, j] = lo, hi
    return x


def signed_zeros(P):
    """``P`` with every other zero entry written as ``-0.0``."""
    P = P.copy()
    zeros = np.flatnonzero(P == 0.0)
    P.flat[zeros[::2]] = -0.0
    return P


def counting_network(monkeypatch):
    """The widths the point-wise mask builds its sorting network for, one
    entry per call."""
    built, network = [], formulations._sorting_network

    def counted(L):
        built.append(L)
        return network(L)

    monkeypatch.setattr(formulations, "_sorting_network", counted)
    return built


class TestNarrowRows:
    """Rows up to ``_NETWORK_L`` wide sort by a comparator network and sum
    across columns, from ``_NETWORK_ROWS`` rows on (set to 0 here, so that
    small cases take it); masks are bit for bit those of the wide path."""

    CUTOFF = formulations._NETWORK_L
    # eps 0 and 1, at and between offsets 0 and eps, and drawn ones
    GRID = [(eps, share * eps)
            for eps in (0.0, 1.0, 0.3, *np.random.default_rng(0).uniform(
                size=3))
            for share in (0.0, 0.5, 1.0)]

    @pytest.mark.parametrize("L", range(1, formulations._NETWORK_L + 1))
    def test_network_sorts_every_binary_row(self, L):
        # the 0-1 principle: a comparator network that sorts all 2**L rows
        # of zeros and ones sorts every row of L values
        pairs = formulations._sorting_network(L)
        assert all(0 <= i < j < L for i, j in pairs)
        rows = (np.arange(2**L)[:, None] >> np.arange(L)) & 1
        out = run_network(pairs, rows)
        assert np.all(np.diff(out, axis=1) >= 0)
        assert np.array_equal(out.sum(axis=1), rows.sum(axis=1))

    def masks(self, P):
        return [pointwise_error_mask(P, eps, offset)
                for eps, offset in self.GRID]

    def argsort_masks(self, P):
        return [argsort_pointwise(P, eps, offset) for eps, offset in self.GRID]

    @pytest.mark.parametrize("L", range(2, formulations._NETWORK_L + 3))
    def test_equals_the_wide_path_and_the_argsort_rule(self, monkeypatch, L):
        monkeypatch.setattr(formulations, "_NETWORK_ROWS", 0)
        flat = np.random.default_rng(L).dirichlet(np.ones(L), size=20)
        cases = [signed_zeros(tied_matrix(n, L, seed=n + L))
                 for n in (0, 1, 2, 50)] + [flat, np.vstack([flat, flat])]
        for P in cases:
            with monkeypatch.context() as m:
                built = counting_network(m)
                narrow = self.masks(P)
            assert bool(built) == (len(P) > 0 and L <= self.CUTOFF)
            with monkeypatch.context() as m:
                m.setattr(formulations, "_NETWORK_L", 0)  # every L is wide
                wide = self.masks(P)
            want = self.argsort_masks(P)
            assert all(np.array_equal(a, b) for a, b in zip(narrow, want))
            assert all(np.array_equal(a, b) for a, b in zip(wide, want))

    def test_ties_zeros_and_signed_zeros_occur(self):
        P = signed_zeros(tied_matrix(50, self.CUTOFF, seed=50 + self.CUTOFF))
        assert np.any(np.signbit(P) & (P == 0.0))
        assert np.any(~np.signbit(P) & (P == 0.0))
        top = -np.sort(-P, axis=1)
        assert np.any(top[:, 0] == top[:, 1])

    @pytest.mark.parametrize("L", [2, formulations._NETWORK_L])
    def test_masks_do_not_depend_on_pieces(self, monkeypatch, L):
        # 7-row blocks: 2 and 3 pieces of 40 rows cut inside a block
        monkeypatch.setattr(formulations, "_NETWORK_ROWS", 0)
        monkeypatch.setattr(core, "_BLOCK_BYTES", 8 * L * 7)
        P = signed_zeros(tied_matrix(40, L, seed=L))
        want = self.argsort_masks(P)
        for pieces in (1, 2, 3):
            got = per_piece_count(monkeypatch, lambda: self.masks(P), pieces)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_fewer_rows_keep_the_wide_path(self, monkeypatch):
        built = counting_network(monkeypatch)
        for n in (formulations._NETWORK_ROWS - 1, formulations._NETWORK_ROWS):
            P = signed_zeros(tied_matrix(n, self.CUTOFF, seed=n))
            assert all(np.array_equal(a, b) for a, b in
                       zip(self.masks(P), self.argsort_masks(P)))
            assert bool(built) == (n == formulations._NETWORK_ROWS)
