"""Core domain types and the two primitive set constructors.

Every prediction rule in this library is built from two operations on rows
of conditional class probabilities: ``topk_mask(P, k)`` keeps the ``k``
largest entries of each row and ``threshold_mask(P, theta)`` keeps the
entries ``>= theta``.  Equal probabilities go to the smaller label: a top
set is read off each row's cut value by :func:`cut_mask`, which fills the
ties at the cut in ascending label order, so no row is ever fully sorted.
Labels are 1-based integers in ``{1, ..., L}``; a label set is a row of a
boolean mask, whose column ``l - 1`` holds label ``l``.  All functions here
are pure: they never mutate their inputs and identical inputs give
identical outputs.

The wide-row kernels (``topk_mask``, :func:`softmax`, the point-wise error
mask and the temperature fit's row terms) make several passes over each
row: a sort or partition, a running sum, a comparison with the cut,
``exp``.  They, and ``threshold_mask``'s one comparison, first cut the
rows into contiguous pieces, one per usable CPU and each of at least 2**17
floats (:func:`_cuts`, the rule the CSV reader and writer fork by).  The
caller runs the first piece and a short-lived thread each later one, all
joined before the kernel returns; numpy releases the interpreter lock in
these sorts, sums, ``exp`` and ``einsum``.  At many classes one pass over
a whole piece no longer fits in cache, so each piece works through
:func:`row_blocks` with buffers of its own: 512 KiB of float64 rows (one
row when a row is wider), whose two or three float temporaries still fit
a 2 MiB L2 cache between passes.  Every step is per row, so each row sees
the same operations in the same order: results are identical to one pass
over the whole matrix, whatever the number of CPUs.  :func:`cut_mask`
compares each entry with its row's cut once; only rows whose ties
straddle the cut compare again.
Per-row mask sizes are :func:`row_counts`, int16 sums about 4 times faster
at L = 1000 than numpy's int64 count.  A row sum is one short reduction
per row, so a mask at most ``_NARROW_L`` = 32 wide is summed across its
columns instead (L vector adds over all rows): about 4 times faster at
L = 10, a third faster at L = 32, and slower from about L = 40 on.
The point-wise error mask sorts narrow rows across columns as well: from
600 rows of at most 10 labels, one comparator network and one running sum
over all rows (:func:`~predsets.formulations.pointwise_error_mask`).
Each row's entry at its true label is :func:`label_entries`, one gather
from the flat buffer of a C-contiguous matrix.  On the sweep-bootstrap
benchmark (L = 10) the two took ``eval_rows_per_s`` from 13.2M to 21.4M/s.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClassCountMismatch,
    KOutOfRange,
    LabelOutOfRange,
    LogitsMismatch,
    MissingLabels,
    NegativeEntry,
    NonFiniteEntry,
    RowCountMismatch,
    SumOutOfTolerance,
    TooFewClasses,
)

DEFAULT_SUM_TOL = 1e-6

_BLOCK_BYTES = 1 << 19  # float64 bytes per row block: 512 KiB
# Widest mask row_counts sums across columns: on 10 000 rows that took 50 us
# vs the row sum's 197 at L = 10, 156 vs 224 at L = 32, but 424 vs 267 at 64.
_NARROW_L = 32


def row_blocks(n: int, L: int) -> list[slice]:
    """Slices of ``max(1, _BLOCK_BYTES // (8 L))`` rows covering ``range(n)``."""
    step = max(1, _BLOCK_BYTES // (8 * L))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _pieces(floats: int) -> int:
    """One piece per usable CPU, each of at least 2**17 floats; one where
    this process cannot tell its usable CPUs or fork (the CSV reader and
    writer fork their pieces).  Below 2**18 floats that is one, unasked."""
    if floats >> 18 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), floats >> 17)
    return 1


def _cuts(rows: int, floats: int) -> list[int]:
    """Bounds of the :func:`_pieces` contiguous row pieces, no more than rows."""
    p = max(1, min(_pieces(floats), rows))
    return [rows * i // p for i in range(p + 1)]


def _in_pieces(work, *arrays) -> None:
    """Call ``work`` on each :func:`_cuts` row piece of ``arrays``, which
    share their row count; the first one's size sets the pieces.  This
    thread runs piece 0 and a short-lived thread each later one.  All are
    joined before the return; then the exception of the first piece that
    raised one is raised here."""
    cuts = _cuts(len(arrays[0]), arrays[0].size)
    if len(cuts) == 2:  # one piece: a plain call
        return work(*arrays)
    errors = {}

    def run(a, b):
        try:
            work(*(x[a:b] for x in arrays))
        except BaseException as exc:  # raised in this thread below
            errors[a] = exc

    threads = []
    try:
        for a, b in zip(cuts[1:-1], cuts[2:]):
            thread = threading.Thread(target=run, args=(a, b))
            thread.start()
            threads.append(thread)
        work(*(x[: cuts[1]] for x in arrays))
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]


def row_counts(mask: np.ndarray) -> np.ndarray:
    """True entries per row of the 2-D bool ``mask``, summed in int16 while
    ``L + 1`` fits (``L <= 2**15 - 2``: a count plus one never wraps) and
    in intp beyond.  Up to ``_NARROW_L`` columns it sums a C-contiguous
    transposed copy (n x L bytes): L vector adds over all rows."""
    dtype = np.int16 if mask.shape[1] <= 2**15 - 2 else np.intp
    if mask.shape[1] <= _NARROW_L:
        columns = np.ascontiguousarray(mask.T).view(np.int8)
        return columns.sum(axis=0, dtype=dtype)
    return mask.view(np.int8).sum(axis=1, dtype=dtype)


def label_entries(M: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``M[i, labels[i] - 1]`` for each row ``i`` of the 2-D ``M``; labels
    must lie in ``1..L``.  A C-contiguous ``M`` takes one flat gather; any
    other layout is indexed in place, as flattening it would copy it."""
    n, L = M.shape
    at = labels - 1
    if M.flags.c_contiguous:
        return M.ravel()[np.arange(0, n * L, L) + at]
    return M[np.arange(n), at]


def check_probability_rows(P: np.ndarray, tol: float = DEFAULT_SUM_TOL):
    """Raise unless every row of the 2-D ``P`` is a probability vector.

    A valid ``P`` is accepted in two reductions: a minimum ``>= 0``, which
    NaN and -inf fail, and row sums within ``tol`` of one, which +inf and
    overflowing sums fail.  Anything else runs the ordered checks that name
    the fault, finiteness first: ``NaN < 0`` and ``|NaN - 1| > tol`` are
    both False, so the sign and sum checks alone would pass NaN.  Each
    error is a :class:`~predsets.errors.RowError` carrying the ``row``.
    """
    if P.min(initial=0.0) >= 0.0 and np.all(abs(P.sum(axis=1) - 1.0) <= tol):
        return
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


# --- the two primitive rules -------------------------------------------------
#
# mask[i, ell-1] says whether label ell is predicted for row i.


def topk_mask(P: np.ndarray, k: int) -> np.ndarray:
    """Boolean membership mask of the top-``k`` rule over rows of ``P``.

    Ties between equal probabilities go to the smaller label index, which
    makes every rule deterministic even on score files with exact ties.
    Each row's cut value is its ``k``-th largest entry, found by
    ``np.partition``; see :func:`cut_mask` for the tie fill.
    """
    P = np.asarray(P, dtype=np.float64)
    n, L = P.shape
    if not (isinstance(k, (int, np.integer)) and 0 <= k <= L):
        raise KOutOfRange(f"k={k!r} outside [0, {L}]")
    mask = np.zeros((n, L), dtype=bool)
    if k == 0:
        return mask

    def piece(P, mask):
        for rows in row_blocks(len(P), L):
            cut = np.partition(P[rows], L - k, axis=1)[:, L - k]
            mask[rows] = cut_mask(P[rows], cut, k)

    _in_pieces(piece, P, mask)
    return mask


def cut_mask(P: np.ndarray, cut: np.ndarray, need) -> np.ndarray:
    """Each row's ``need`` largest entries, given its ``need``-th largest
    value ``cut``: every entry above ``cut``, then the entries equal to it
    in ascending label order until the row holds ``need``.

    ``need`` is a scalar or one count per row, at least one.  Most rows
    hold exactly ``need`` entries ``>= cut`` (by :func:`row_counts`); only
    rows whose ties straddle the cut compare again and count their ties.
    """
    cut = cut[:, None]
    mask = P >= cut
    split = np.flatnonzero(row_counts(mask) > need)
    if split.size:
        rows, at = P[split], cut[split]
        above = rows > at
        tie = rows == at
        short = np.broadcast_to(need, len(mask))[split]
        short = short - row_counts(above)
        tie &= np.cumsum(tie, axis=1) <= short[:, None]
        mask[split] = above | tie
    return mask


def threshold_mask(P: np.ndarray, theta: float) -> np.ndarray:
    """Boolean membership mask of the thresholding rule over rows of ``P``.

    The comparison is non-strict: ``theta = 0`` includes every label, and
    any ``theta`` above the largest entry yields the empty set, which is a
    legal prediction.
    """
    P, theta = np.asarray(P, dtype=np.float64), float(theta)
    mask = np.empty(P.shape, dtype=bool)
    _in_pieces(lambda P, mask: np.greater_equal(P, theta, out=mask), P, mask)
    return mask


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
        Raw scores such that ``probs = softmax(logits)``: a score set is
        always at temperature 1.  A classifier and its model file hold any
        other temperature, and the classifier rescales the logits to it.
    meta : dict
        Free-form provenance (generator template, seed, embedded truth, ...).
    """

    ids: list[str]
    probs: np.ndarray
    labels: np.ndarray | None = None
    logits: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2 or self.probs.shape[1] < 2:
            raise TooFewClasses(
                f"probs must be (n, L) with L >= 2, got {self.probs.shape}"
            )
        n, L = self.probs.shape
        if len(self.ids) != n:
            raise RowCountMismatch(f"{len(self.ids)} ids for {n} rows")
        check_probability_rows(self.probs)
        if self.labels is None:
            self.labels = np.zeros(n, dtype=np.int64)
        else:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (n,):
                raise RowCountMismatch("labels must be one integer per sample")
            bad = (self.labels < 0) | (self.labels > L)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise LabelOutOfRange(
                    f"label {self.labels[i]} outside [1, {L}]", i
                )
        if self.logits is not None:
            self.logits = np.asarray(self.logits, dtype=np.float64)
            if self.logits.shape != (n, L):
                raise ClassCountMismatch(
                    f"logits shape {self.logits.shape} != probs {self.probs.shape}"
                )
            expected = softmax(self.logits)
            close = np.isclose(expected, self.probs, atol=1e-6).all(axis=1)
            if not close.all():
                raise LogitsMismatch(
                    "probs are not softmax(logits)", int(np.argmin(close))
                )

    @classmethod
    def _trusted(cls, **fields) -> "ScoreSet":
        """A set built, without the checks above, from every field as stored:
        rows of a checked set, or probabilities just computed and checked."""
        out = cls.__new__(cls)
        vars(out).update(fields)
        return out

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def L(self) -> int:
        return self.probs.shape[1]

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
        return ScoreSet._trusted(
            ids=[self.ids[i] for i in index.tolist()],
            probs=self.probs[index],
            labels=self.labels[index],
            logits=None if self.logits is None else self.logits[index],
            meta=dict(self.meta),
        )


def softmax(z: np.ndarray, T: float = 1.0) -> np.ndarray:
    """Softmax of ``z / T`` over the last axis, with the usual max-shift.

    Each :func:`row_blocks` block is divided by ``T`` (not multiplied by
    ``1 / T``), shifted, exponentiated and normalised in place in the
    output: bit for bit the same steps as on the whole of ``z / T``.
    """
    z = np.asarray(z, dtype=np.float64)
    out = np.empty(z.shape)
    # the caller's error state, in every piece's thread too, but for z / T
    # overflowing: to -inf, whose exp is an exact 0, or to +inf, which
    # makes NaN and so warns of an invalid value
    state = {**np.geterr(), "over": "ignore"}

    def piece(rows_in, rows_out):
        with np.errstate(**state):
            for rows in row_blocks(*rows_in.shape):
                e = np.divide(rows_in[rows], T, out=rows_out[rows])
                e -= e.max(axis=1, keepdims=True)
                np.exp(e, out=e)
                e /= e.sum(axis=1, keepdims=True)

    L = z.shape[-1]
    _in_pieces(piece, z.reshape(-1, L), out.reshape(-1, L))
    return out
