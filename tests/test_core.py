"""Core primitives: validation, top-k selection, thresholding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predsets.calibration import CalibratedClassifier
from predsets.core import (
    DEFAULT_SUM_TOL,
    ScoreSet,
    check_probability_rows,
    label_entries,
    row_counts,
    threshold_mask,
    topk_mask,
)
from predsets.errors import (
    ClassCountMismatch,
    KOutOfRange,
    LabelOutOfRange,
    LogitsMismatch,
    NegativeEntry,
    NonFiniteEntry,
    PredsetsError,
    RowCountMismatch,
    RowError,
    SumOutOfTolerance,
    TooFewClasses,
)
from predsets.formulations import FormulationSpec, Kind
from predsets.oracle import DiscreteDistribution

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def prob_vectors(min_L=2, max_L=8):
    """Random probability vectors as lists (hypothesis strategy)."""
    return (
        st.lists(
            st.floats(
                min_value=1e-6, max_value=1.0, allow_nan=False
            ),
            min_size=min_L,
            max_size=max_L,
        )
        .map(lambda xs: (np.array(xs) / np.sum(xs)))
    )


class TestValidateProbabilityVector:
    """One probability vector, checked where it enters the library: a
    one-row ``ScoreSet``, or ``check_probability_rows`` at a tolerance."""

    def test_exact_sum_ok(self):
        p = ScoreSet(ids=["a"], probs=[[0.5, 0.3, 0.2]]).probs[0]
        assert np.array_equal(p, [0.5, 0.3, 0.2])

    def test_sum_out_of_tolerance(self):
        with pytest.raises(SumOutOfTolerance) as exc:
            check_probability_rows(np.array([[0.5, 0.6]]), tol=1e-6)
        assert exc.value.actual_sum == pytest.approx(1.1)

    def test_too_few_classes(self):
        with pytest.raises(TooFewClasses):
            ScoreSet(ids=["a"], probs=[[1.0]])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            ScoreSet(ids=["a"], probs=[[1.2, -0.2]])

    def test_no_silent_renormalization(self):
        # within tolerance the entries are kept untouched
        raw = [0.5000004, 0.4999999]
        check_probability_rows(np.array([raw]), tol=1e-5)
        assert ScoreSet(ids=["a"], probs=[raw]).probs[0].tolist() == raw


class TestTopIndices:
    """The top-k set of one probability vector: ``topk_mask`` on a one-row
    matrix."""

    def test_distinct_order(self):
        mask = topk_mask(np.array([[0.5, 0.3, 0.2]]), 2)
        assert np.array_equal(mask, [[True, True, False]])

    def test_full_tie_ascending_policy(self):
        p = np.array([[0.25, 0.25, 0.25, 0.25]])
        assert np.array_equal(topk_mask(p, 2), [[True, True, False, False]])

    def test_tie_at_top_smaller_index(self):
        mask = topk_mask(np.array([[0.1, 0.4, 0.4, 0.1]]), 1)
        assert np.array_equal(mask, [[False, True, False, False]])

    def test_k_zero_and_k_L(self):
        p = np.array([[0.5, 0.3, 0.2]])
        assert np.array_equal(topk_mask(p, 0), [[False, False, False]])
        assert np.array_equal(topk_mask(p, 3), [[True, True, True]])

    def test_k_out_of_range(self):
        p = np.array([[0.5, 0.5]])
        with pytest.raises(KOutOfRange):
            topk_mask(p, 3)
        with pytest.raises(KOutOfRange):
            topk_mask(p, -1)
        with pytest.raises(KOutOfRange):
            topk_mask(p, 1.0)

    @given(prob_vectors(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_nested_in_k(self, p, data):
        L = p.size
        k1 = data.draw(st.integers(0, L))
        k2 = data.draw(st.integers(k1, L))
        small = topk_mask(p[None, :], k1)
        large = topk_mask(p[None, :], k2)
        assert np.all(small <= large)

    @given(prob_vectors(), st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_included_probs_dominate_excluded(self, p, k):
        k = min(k, p.size)
        inside = topk_mask(p[None, :], k)[0]
        if inside.any() and not inside.all():
            assert p[inside].min() >= p[~inside].max()


class TestRowCounts:
    """``row_counts`` is numpy's per-row count, in int16 while a count plus
    one fits and in intp beyond, on either side of the width up to which
    it sums across columns."""

    @pytest.mark.parametrize("L", [1, 2, 10, 31, 32, 33, 64, 1000,
                                   2**15 - 2, 2**15 - 1, 2**15])
    def test_equals_count_nonzero(self, L):
        rng = np.random.default_rng(L)
        wide = rng.random((8, 2 * L)) < 0.5
        wide[0] = True  # a full row: the largest count
        wide[1] = False
        views = {
            "contiguous": np.ascontiguousarray(wide[:, :L]),
            "strided": wide[::2, ::2],
            "reversed": wide[::-1, ::-2],
            "fortran": np.asfortranarray(wide[:, L:]),
            "empty": wide[:0, :L],
        }
        dtype = np.int16 if L <= 2**15 - 2 else np.intp
        for name, mask in views.items():
            counts = row_counts(mask)
            assert counts.dtype == dtype, name
            assert np.array_equal(counts, np.count_nonzero(mask, axis=1)), name
        assert row_counts(views["contiguous"])[0] == L

    def test_empty(self):
        assert row_counts(np.zeros((0, 5), dtype=bool)).shape == (0,)
        assert np.array_equal(row_counts(np.zeros((3, 0), dtype=bool)), [0] * 3)


class TestLabelEntries:
    """``label_entries`` is the fancy index ``M[arange(n), labels - 1]``
    whatever the layout of ``M``."""

    @pytest.mark.parametrize("L", [2, 10, 100])
    def test_equals_fancy_index(self, L):
        rng = np.random.default_rng(L)
        values = rng.random((50, L + 3))
        labels = rng.integers(1, L + 1, 50)
        labels[:2] = 1, L  # the first and the last column
        views = {
            "contiguous": np.ascontiguousarray(values[:, :L]),
            "fortran": np.asfortranarray(values[:, :L]),
            "column-sliced": values[:, :L],
            "bool": np.ascontiguousarray(values[:, :L] < 0.5),
        }
        for name, M in views.items():
            expect = M[np.arange(len(M)), labels - 1]
            got = label_entries(M, labels)
            assert got.dtype == M.dtype, name
            assert np.array_equal(got, expect), name
        assert label_entries(values[:0, :L], labels[:0]).shape == (0,)


class TestThresholdSet:
    """The threshold set of one probability vector: ``threshold_mask`` on a
    one-row matrix."""

    def test_direct_comparison(self):
        p = np.array([[0.5, 0.3, 0.2]])
        assert np.array_equal(threshold_mask(p, 0.25), [[True, True, False]])

    def test_theta_zero_includes_all(self):
        mask = threshold_mask(np.array([[0.5, 0.3, 0.2]]), 0.0)
        assert np.array_equal(mask, [[True, True, True]])

    def test_theta_above_one_excludes_all(self):
        mask = threshold_mask(np.array([[0.5, 0.3, 0.2]]), 1.01)
        assert np.array_equal(mask, [[False, False, False]])

    def test_non_strict_at_one(self):
        mask = threshold_mask(np.array([[1.0, 0.0]]), 1.0)
        assert np.array_equal(mask, [[True, False]])

    @given(prob_vectors(), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_antitone_in_theta(self, p, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        P = p[None, :]
        assert np.all(threshold_mask(P, hi) <= threshold_mask(P, lo))

    @given(prob_vectors())
    @settings(max_examples=200, deadline=None)
    def test_threshold_at_kth_largest_equals_topk(self, p):
        # distinct entries required for the identity
        if np.unique(p).size != p.size:
            return
        P = p[None, :]
        for k in range(1, p.size + 1):
            theta = np.sort(p)[::-1][k - 1]
            assert np.array_equal(threshold_mask(P, theta), topk_mask(P, k))

    def test_determinism(self):
        P = np.array([[0.4, 0.1, 0.4, 0.1]])
        runs = [threshold_mask(P, 0.4).tolist() for _ in range(5)]
        runs += [topk_mask(P, 2).tolist() for _ in range(5)]
        assert runs[:5] == [runs[0]] * 5
        assert runs[5:] == [[[True, False, True, False]]] * 5


class TestScoreSet:
    def test_shared_L_and_labels(self):
        s = ScoreSet(
            ids=["a", "b"],
            probs=[[0.6, 0.4], [0.1, 0.9]],
            labels=[1, 0],
        )
        assert s.n == 2 and s.L == 2
        assert not s.fully_labeled

    def test_logit_consistency_enforced(self):
        z = np.log(np.array([[0.6, 0.4]]))
        ScoreSet(ids=["a"], probs=[[0.6, 0.4]], logits=z)  # consistent
        with pytest.raises(ValueError):
            ScoreSet(ids=["a"], probs=[[0.6, 0.4]], logits=[[5.0, 0.0]])

    def test_row_sum_checked(self):
        with pytest.raises(SumOutOfTolerance):
            ScoreSet(ids=["a"], probs=[[0.7, 0.7]])

    @pytest.mark.parametrize(
        "fields, error, row",
        [
            (dict(ids=["a"]), RowCountMismatch, None),
            (dict(labels=[1, 2, 1]), RowCountMismatch, None),
            (dict(labels=[[1, 2]]), RowCountMismatch, None),
            (dict(labels=[1, 3]), LabelOutOfRange, 1),
            (dict(labels=[-1, 1]), LabelOutOfRange, 0),
            (dict(logits=[[0.0, 0.0, 0.0]]), ClassCountMismatch, None),
            (dict(logits=[[0.0, 0.0], [5.0, 0.0]]), LogitsMismatch, 1),
        ],
    )
    def test_typed_errors_carry_the_row(self, fields, error, row):
        base = dict(ids=["a", "b"], probs=[[0.5, 0.5], [0.9, 0.1]])
        with pytest.raises(error) as exc:
            ScoreSet(**{**base, **fields})
        assert isinstance(exc.value, PredsetsError)
        assert isinstance(exc.value, ValueError)
        assert getattr(exc.value, "row", None) == row
        if row is not None:
            assert str(exc.value).startswith(f"row {row}: ")


class TestNonFiniteRejected:
    """NaN and infinities fail at every boundary that takes probabilities;
    ``NaN < 0`` and ``|NaN - 1| > tol`` are both False, so the sign and sum
    checks alone would let them through."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_check_probability_rows(self, bad):
        with pytest.raises(NonFiniteEntry):
            check_probability_rows(np.array([[bad, 0.5, 0.5]]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_score_set(self, bad):
        with pytest.raises(NonFiniteEntry) as exc:
            ScoreSet(ids=["a", "b"], probs=[[0.5, 0.5], [bad, 1.0]])
        assert "row 1, entry 0" in str(exc.value)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_classifier_predict(self, bad):
        # the one prediction path takes a ScoreSet, which refuses the row
        clf = CalibratedClassifier(FormulationSpec(Kind.TOP_K, k=1))
        with pytest.raises(NonFiniteEntry):
            clf.predict_set_mask(ScoreSet(ids=["a"], probs=[[0.5, bad]]))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_distribution(self, bad):
        with pytest.raises(NonFiniteEntry):
            DiscreteDistribution(
                x_ids=["x", "y"], marginal=[0.5, 0.5],
                cond=[[0.5, 0.5], [bad, 1.0]],
            )
        with pytest.raises(NonFiniteEntry):
            DiscreteDistribution(
                x_ids=["x", "y"], marginal=[bad, 1.0],
                cond=[[0.5, 0.5], [0.5, 0.5]],
            )


def ordered_row_checks(P, tol=DEFAULT_SUM_TOL):
    """The row check's ordered checks alone: finiteness, sign, then sum."""
    finite = np.isfinite(P)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NonFiniteEntry(f"probability {float(P[i, j])!r} is not finite", i, j)
    if np.any(P < 0.0):
        i, j = np.argwhere(P < 0.0)[0]
        raise NegativeEntry(f"probability {float(P[i, j])!r} < 0", i, j)
    sums = P.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > tol):
        i = int(np.argmax(off))
        raise SumOutOfTolerance(float(sums[i]), tol, i)


def faulty_rows(*faults):
    """Four valid rows of three entries, with ``(row, entries)`` put in."""
    P = np.full((4, 3), 0.25)
    P[:, 0] = 0.5
    for row, entries in faults:
        P[row] = entries
    return P


class TestRowCheckErrors:
    """A valid matrix is accepted in two reductions; every fault still
    raises what the ordered checks raise, with the same row, entry and
    message."""

    @pytest.mark.parametrize(
        "P",
        [
            faulty_rows((2, [0.5, np.nan, 0.5])),
            faulty_rows((1, [np.inf, 0.0, 0.0])),
            faulty_rows((3, [0.5, 0.5, -np.inf])),
            faulty_rows((0, [np.inf, -np.inf, 1.0])),
            faulty_rows((2, [0.6, -0.1, 0.5])),
            faulty_rows((1, [0.5, 0.25, 0.26]), (3, [0.5, 0.25, 0.2501])),
            faulty_rows((2, [1e308, 1e308, 0.0])),
            faulty_rows((3, [np.nan, 0.5, 0.5]), (1, [1.5, -0.5, 0.0])),
        ],
        ids=["nan", "inf", "-inf", "inf-and-minus-inf", "negative",
             "sum-off", "sum-overflows", "later-nan-earlier-negative"],
    )
    def test_same_error_as_the_ordered_checks(self, P):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RowError) as want:
                ordered_row_checks(P)
            with pytest.raises(RowError) as got:
                check_probability_rows(P)
        assert type(got.value) is type(want.value)
        assert (got.value.row, got.value.entry) == (
            want.value.row, want.value.entry
        )
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "P",
        [np.zeros((0, 3)), np.array([[-0.0, 1.0], [0.5, 0.5]]), faulty_rows()],
        ids=["no-rows", "minus-zero", "valid"],
    )
    def test_valid_matrices_pass(self, P):
        check_probability_rows(P)
        ordered_row_checks(P)

    @pytest.mark.parametrize(
        "marginal, error, text",
        [
            ([0.5, 0.5 + 1e-10], SumOutOfTolerance,
             "marginal probabilities sum to 1.0000000001, outside 1 +/- 1e-12"),
            ([1.5, -0.5], NegativeEntry, "row 1: marginal probability -0.5 < 0"),
        ],
    )
    def test_distribution_marginal_errors(self, marginal, error, text):
        with pytest.raises(error) as exc:
            DiscreteDistribution(
                x_ids=["x", "y"], marginal=marginal,
                cond=[[0.5, 0.5], [0.5, 0.5]],
            )
        assert str(exc.value) == text
        assert exc.value.entry is None
