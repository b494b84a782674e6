"""Core domain types and the two primitive set constructors.

Every prediction rule in this library is built from two operations on rows
of conditional class probabilities: ``topk_mask(P, k)`` keeps the ``k``
largest entries of each row and ``threshold_mask(P, theta)`` keeps the
entries ``>= theta``; ``top_indices`` and ``threshold_set`` are their
one-row views.  Labels are 1-based integers in ``{1, ..., L}``; label sets
are ascending ``numpy`` integer arrays.  All functions here are pure: they
never mutate their inputs and identical inputs give identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClassCountMismatch,
    KOutOfRange,
    MissingLabels,
    NegativeEntry,
    NonFiniteEntry,
    SumOutOfTolerance,
    TooFewClasses,
)

DEFAULT_SUM_TOL = 1e-6


def validate_probability_vector(
    raw, tol: float = DEFAULT_SUM_TOL
) -> np.ndarray:
    """Validate one sample's class-probability vector.

    Parameters
    ----------
    raw : array_like of shape (L,)
        Candidate probabilities.
    tol : float
        Absolute tolerance on ``|sum - 1|``.

    Returns
    -------
    np.ndarray
        Read-only float64 copy of ``raw``.  Entries are never renormalized:
        a vector that fails the checks raises instead of being silently
        repaired, because silent repair hides upstream calibration bugs.

    Raises
    ------
    TooFewClasses
        If fewer than two entries.
    NonFiniteEntry
        If any entry is NaN or infinite.
    NegativeEntry
        If any entry is below zero.
    SumOutOfTolerance
        If the entries do not sum to one within ``tol``.
    """
    p = np.array(raw, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise TooFewClasses(f"need at least 2 classes, got shape {p.shape}")
    check_probability_rows(p[None, :], tol)
    p.flags.writeable = False
    return p


def check_probability_rows(P: np.ndarray, tol: float = DEFAULT_SUM_TOL):
    """Raise unless every row of the 2-D ``P`` is a probability vector.

    The finiteness check comes first: ``NaN < 0`` and ``|NaN - 1| > tol``
    are both False, so the sign and sum checks alone would pass NaN.
    """
    finite = np.isfinite(P)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NonFiniteEntry(f"row {i}, entry {j} is {P[i, j]!r}")
    if np.any(P < 0.0):
        i, j = np.argwhere(P < 0.0)[0]
        raise NegativeEntry(f"row {i}, entry {j} is {P[i, j]!r} < 0")
    sums = P.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > tol):
        i = int(np.argmax(off))
        raise SumOutOfTolerance(float(sums[i]), tol)


# --- the two primitive rules -------------------------------------------------
#
# mask[i, ell-1] says whether label ell is predicted for row i.


def topk_mask(P: np.ndarray, k: int) -> np.ndarray:
    """Boolean membership mask of the top-``k`` rule over rows of ``P``.

    Ties between equal probabilities go to the smaller label index: the
    stable argsort keeps equal entries in ascending label order, which
    makes every rule deterministic even on score files with exact ties.
    """
    P = np.asarray(P, dtype=np.float64)
    n, L = P.shape
    if not (isinstance(k, (int, np.integer)) and 0 <= k <= L):
        raise KOutOfRange(f"k={k!r} outside [0, {L}]")
    order = np.argsort(-P, axis=1, kind="stable")
    mask = np.zeros((n, L), dtype=bool)
    if k > 0:
        rows = np.arange(n)[:, None]
        mask[rows, order[:, :k]] = True
    return mask


def threshold_mask(P: np.ndarray, theta: float) -> np.ndarray:
    """Boolean membership mask of the thresholding rule over rows of ``P``.

    The comparison is non-strict: ``theta = 0`` includes every label, and
    any ``theta`` above the largest entry yields the empty set, which is a
    legal prediction.
    """
    return np.asarray(P, dtype=np.float64) >= float(theta)


def mask_to_labels(mask_row: np.ndarray) -> np.ndarray:
    """Convert one boolean membership row to ascending 1-based labels."""
    return np.flatnonzero(mask_row) + 1


def top_indices(p: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` most probable labels: one row of topk_mask."""
    row = np.asarray(p, dtype=np.float64)[None, :]
    return mask_to_labels(topk_mask(row, k)[0])


def threshold_set(p: np.ndarray, theta: float) -> np.ndarray:
    """Labels with probability ``>= theta``: one row of threshold_mask."""
    return mask_to_labels(threshold_mask(p, theta))


# --- score sets -------------------------------------------------------------

UNLABELED = 0  # labels are 1-based, so 0 marks a missing label


@dataclass
class ScoreSet:
    """A collection of per-sample probability vectors with optional labels.

    Fields
    ------
    ids : list of str
        One identifier per sample; preserved through file round-trips.
    probs : (n, L) float64 array
        Each row a validated probability vector.
    labels : (n,) int array
        True labels in ``{1, ..., L}``; ``0`` marks an unlabeled sample.
    logits : (n, L) float64 array or None
        Raw scores such that ``probs = softmax(logits / temperature)``.
    temperature : float
        The temperature the probabilities were produced with (1 = raw).
    meta : dict
        Free-form provenance (generator template, seed, embedded truth, ...).
    """

    ids: list[str]
    probs: np.ndarray
    labels: np.ndarray | None = None
    logits: np.ndarray | None = None
    temperature: float = 1.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2 or self.probs.shape[1] < 2:
            raise TooFewClasses(
                f"probs must be (n, L) with L >= 2, got {self.probs.shape}"
            )
        n, L = self.probs.shape
        if len(self.ids) != n:
            raise ValueError(f"{len(self.ids)} ids for {n} rows")
        check_probability_rows(self.probs)
        if self.labels is None:
            self.labels = np.zeros(n, dtype=np.int64)
        else:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise ValueError("labels must be one integer per sample")
            bad = (self.labels < 0) | (self.labels > L)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValueError(
                    f"label {self.labels[i]} at row {i} outside [1, {L}]"
                )
        if self.logits is not None:
            self.logits = np.asarray(self.logits, dtype=np.float64)
            if self.logits.shape != (n, L):
                raise ClassCountMismatch(
                    f"logits shape {self.logits.shape} != probs {self.probs.shape}"
                )
            expected = softmax(self.logits / float(self.temperature))
            if not np.allclose(expected, self.probs, atol=1e-6):
                raise ValueError(
                    "probs are not softmax(logits / temperature) "
                    f"at T={self.temperature!r}"
                )

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def L(self) -> int:
        return self.probs.shape[1]

    @property
    def labeled_mask(self) -> np.ndarray:
        return self.labels != UNLABELED

    @property
    def fully_labeled(self) -> bool:
        return bool(np.all(self.labels != UNLABELED))

    def require_labels(self, what: str, counts=None) -> np.ndarray:
        """Return the label array, raising if any sample is unlabeled.

        Given per-sample ``counts`` (a bootstrap draw), a sample is counted
        as often as it was drawn: the check the resampled rows would make.
        """
        unlabeled = self.labels == UNLABELED
        missing = unlabeled if counts is None else counts[unlabeled]
        n_missing = int(np.sum(missing))
        if n_missing:
            raise MissingLabels(
                f"{what} needs labels; {n_missing} of {self.n} samples "
                "are unlabeled"
            )
        return self.labels

    def subset(self, index: np.ndarray) -> "ScoreSet":
        """New ScoreSet holding the requested rows (copy, same metadata)."""
        index = np.asarray(index, dtype=np.int64)
        return ScoreSet(
            ids=[self.ids[i] for i in index],
            probs=self.probs[index].copy(),
            labels=self.labels[index].copy(),
            logits=None if self.logits is None else self.logits[index].copy(),
            temperature=self.temperature,
            meta=dict(self.meta),
        )


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-shift for stability."""
    z = np.asarray(z, dtype=np.float64)
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)  # in place: one array, not three, per call
    e /= e.sum(axis=-1, keepdims=True)
    return e
