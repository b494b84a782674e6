"""The eight prediction rules and their parameter record.

Each rule maps rows of probabilities (plus fitted parameters) to label
sets, as a boolean membership mask.  Five of them are pure thresholding;
the point-wise error rule is an adaptive top-k; the hybrids intersect or
combine the two primitives.  :func:`rule_mask` is the one implementation
of all eight; ``CalibratedClassifier.predict_set_mask`` runs it on a
checked score set.

A formulation is its fields: :data:`KIND_FIELDS` names the fields each
kind takes, and every layer reads which of ``k``, ``eps``, ``kbar``,
``ebar``, ``lam`` and ``beta`` are set: the spec's checks, its bounds by
L and :attr:`~FormulationSpec.needs_fit`, :func:`rule_mask`, the fit's
knots and cutoff and the oracle; the sweep counts :func:`rule_mask`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .core import _head_groups, _in_pieces, cut_mask, row_blocks, row_counts
from .core import threshold_mask, topk_mask
from .errors import (
    InvalidBeta,
    InvalidEpsilon,
    InvalidOffset,
    KbarOutOfRange,
    EbarOutOfRange,
    KOutOfRange,
    NegativeLambda,
    ParameterOrderViolation,
    SpecFieldError,
)


class Kind(str, enum.Enum):
    """The supported optimization formulations."""

    TOP_K = "top-k"
    POINTWISE_ERROR = "pointwise-error"
    PENALIZED = "penalized"
    AVERAGE_SIZE = "average-size"
    AVERAGE_ERROR = "average-error"
    HYBRID_SIZE = "hybrid-size"
    HYBRID_ERROR = "hybrid-error"
    F_SCORE = "f-score"


#: The fields each kind takes, the one a sweep varies first.
KIND_FIELDS = {
    Kind.TOP_K: ("k",),
    Kind.POINTWISE_ERROR: ("eps", "offset"),
    Kind.PENALIZED: ("lam",),
    Kind.AVERAGE_SIZE: ("kbar",),
    Kind.AVERAGE_ERROR: ("ebar",),
    Kind.HYBRID_SIZE: ("kbar", "k"),
    Kind.HYBRID_ERROR: ("ebar", "eps", "mode"),
    Kind.F_SCORE: ("beta",),
}

#: Combine modes for the hybrid error rule (see rule_mask).
MODE_LEMMA_THRESHOLD = "lemma-threshold"
MODE_UNION_POINTWISE = "union-with-pointwise"


@dataclass(frozen=True)
class FormulationSpec:
    """A formulation tag plus its parameters.

    Only the fields :data:`KIND_FIELDS` names for ``kind`` may be set,
    so a formulation is its fields: ``k`` and ``eps`` bound size and error
    point-wise, ``kbar`` and ``ebar`` on average, and ``lam`` and ``beta``
    trade the two off.  Each set field is checked, in field order:

    ==================  =============================================
    kind                parameters
    ==================  =============================================
    top-k               k in [0, L]
    pointwise-error     eps in [0, 1], offset in [0, eps]
    penalized           lam in [0, inf)
    average-size        kbar in (0, L]
    average-error       ebar in (0, 1)
    hybrid-size         0 < kbar < k <= L
    hybrid-error        0 <= ebar < eps <= 1, mode
    f-score             beta in (0, inf)
    ==================  =============================================

    Bounds involving L are checked at fit/predict time, when L is known.
    """

    kind: Kind
    k: int | None = None
    eps: float | None = None
    offset: float = 0.0
    lam: float | None = None
    kbar: float | None = None
    ebar: float | None = None
    beta: float | None = None
    mode: str = MODE_LEMMA_THRESHOLD

    def __post_init__(self):
        try:
            kind = Kind(self.kind)
        except ValueError as exc:
            raise SpecFieldError(str(exc), "kind") from None
        object.__setattr__(self, "kind", kind)
        self._check_fields()
        # only the kind's own fields are set; each set one is checked
        if self.k is not None:
            lo = 0 if self.kbar is None else 1
            if not (isinstance(self.k, (int, np.integer)) and self.k >= lo):
                raise KOutOfRange(f"k={self.k!r} must be an integer >= {lo}")
        if self.eps is not None:
            _check_eps(self.eps, self.offset)
        if self.lam is not None and not 0 <= self.lam < np.inf:
            raise NegativeLambda(f"lambda={self.lam!r} must be finite and >= 0")
        if self.kbar is not None:
            if not 0 < self.kbar < np.inf:
                raise KbarOutOfRange(f"kbar={self.kbar!r} must be finite and > 0")
            if self.k is not None and not self.kbar < self.k:
                raise ParameterOrderViolation(
                    f"need kbar < k, got kbar={self.kbar!r}, k={self.k!r}"
                )
        if self.ebar is not None:
            if self.eps is None:
                if not 0.0 < self.ebar < 1.0:
                    raise EbarOutOfRange(f"ebar={self.ebar!r} outside (0, 1)")
            elif not 0.0 <= self.ebar:
                raise EbarOutOfRange(f"ebar={self.ebar!r} must be >= 0")
            elif not self.ebar < self.eps:
                raise ParameterOrderViolation(
                    f"need ebar < eps, got ebar={self.ebar!r}, eps={self.eps!r}"
                )
        if self.mode not in (MODE_LEMMA_THRESHOLD, MODE_UNION_POINTWISE):
            raise SpecFieldError(f"unknown combine mode {self.mode!r}", "mode")
        if self.beta is not None and not 0 < self.beta < np.inf:
            raise InvalidBeta(f"beta={self.beta!r} must be finite and > 0")

    def _check_fields(self):
        # every field the kind takes is set, and every other is at its default
        relevant = KIND_FIELDS[self.kind]
        defaults = {"offset": 0.0, "mode": MODE_LEMMA_THRESHOLD}
        for name in ("k", "eps", "offset", "lam", "kbar", "ebar", "beta", "mode"):
            value = getattr(self, name)
            if name in relevant and value is None:
                raise SpecFieldError(f"{self.kind.value} requires {name}", name)
            if name not in relevant and value != defaults.get(name):
                raise SpecFieldError(
                    f"{name} is not a parameter of {self.kind.value}", name
                )

    @property
    def needs_fit(self) -> bool:
        """Whether the rule uses a data-fitted threshold: an average bound
        or the F-score, which couple the points.  Without one, each point
        is solved on its own, by the rule and by the brute force."""
        return (self.kbar is not None or self.ebar is not None
                or self.beta is not None)

    def check_class_count(self, L: int) -> None:
        """Validate the L-dependent parameter bounds."""
        if self.k is not None and self.k > L:
            raise KOutOfRange(f"k={self.k} > L={L}")
        if self.kbar is not None and self.kbar > L:
            raise KbarOutOfRange(f"kbar={self.kbar!r} > L={L}")


def _check_eps(eps, offset):
    if not 0.0 <= eps <= 1.0:
        raise InvalidEpsilon(f"eps={eps!r} outside [0, 1]")
    if not 0.0 <= offset <= eps:
        raise InvalidOffset(f"offset={offset!r} outside [0, {eps!r}]")


# --- the rules --------------------------------------------------------------

_NETWORK_L, _NETWORK_ROWS = 10, 600  # narrow rows: see pointwise_error_mask


@functools.cache
def _sorting_network(L: int) -> tuple[tuple[int, int], ...]:
    """Comparators ``(i, j)``, ``i < j``, that sort ``L`` values ascending:
    Batcher's odd-even merge sort for the next power of two, minus each one
    that touches an index ``>= L`` (padded with +inf, those never swap)."""
    n = 1 << (L - 1).bit_length()
    ps = [1 << e for e in range(n.bit_length() - 1)]  # 1, 2, ..., n / 2
    return tuple((i, i + k) for p in ps for k in ps[::-1] if k <= p
                 for j in range(k % p, n - k, 2 * k)
                 for i in range(j, min(j + k, n - k))
                 if i + k < L and i // (2 * p) == (i + k) // (2 * p))


def pointwise_error_mask(
    P: np.ndarray, eps: float, offset: float = 0.0
) -> np.ndarray:
    """Membership mask of the point-wise error rule over rows of ``P``.

    Each row keeps its smallest top set whose cumulative probability
    reaches ``1 - eps + offset``.  A set is empty only when that target is
    not positive (``eps = 1`` with no offset); when floating-point
    shortfall leaves even the full sum below a target ``<= 1`` the full
    set is kept.

    The running sum of each row's values sorted in descending order gives
    the set size ``khat`` and the cut value, the ``khat``-th largest entry;
    :func:`~predsets.core.cut_mask` keeps the ``khat`` largest entries,
    equal ones in ascending label order like every rule.  From
    ``_NETWORK_ROWS`` rows of at most ``_NETWORK_L`` labels, each row block
    is copied to one buffer row per label, sorted by
    :func:`_sorting_network` (one ``np.minimum`` and one ``np.maximum`` per
    comparator, over all the block's rows) and summed across its columns,
    the additions ``np.cumsum`` makes along a row.  Wider rows sum ``m``
    columns, the previous row block's largest ``khat`` plus slack (all L in
    each row piece's first block), sorted alone after ``np.partition`` when
    ``2 m <= L``; a row still short of the target there sorts and sums its
    full row.  The top ``m`` values sort and sum the same either way, so
    ``khat`` is the same.  Beside other row pieces, a piece whose blocks
    hold at most ``core._ACCUMULATE_ROWS`` = 500 rows (``L > 130``) sums
    the heads after its first block over :func:`~predsets.core._head_groups`
    groups of more rows, which numpy sums without the interpreter lock: each
    block still copies, partitions and sorts, and falls back and cuts, on
    its own, and a group's ``m`` is the previous block's or group's.  On
    5000 x 1000 rules-wide rows in two pieces that took the mask at
    eps = 0.1 from 37.8 to 31.9 ms and at 0.5 from 30.5 to 26.7 ms; a
    single piece keeps its blocks (grouped, its 2000 x 1000 calibration
    rows took 16 % longer at eps = 0.5).
    """
    _check_eps(eps, offset)
    P = np.asarray(P, dtype=np.float64)
    n, L = P.shape
    target = 1.0 - eps + offset
    mask = np.zeros((n, L), dtype=bool)
    if target <= 0.0:
        return mask

    def narrow(P, mask):  # a buffer row per class, and a spare one
        blocks = row_blocks(len(P), L)
        buf = np.empty((L + 1, blocks[0].stop if blocks else 0))
        for rows in blocks:
            b = rows.stop - rows.start
            line = list(buf[:, :b])
            np.copyto(buf[:L, :b], P[rows].T)
            at, spare = list(range(L)), L  # the buffer row of each rank
            for i, j in _sorting_network(L):
                np.minimum(line[at[i]], line[at[j]], out=line[spare])
                np.maximum(line[at[i]], line[at[j]], out=line[at[j]])
                at[i], spare = spare, at[i]
            total, khat = line[at[-1]].copy(), np.ones(b, dtype=np.intp)
            for c in at[-2::-1]:  # L - 1 prefixes, added as np.cumsum adds
                khat += total < target
                total += line[c]
            cut = buf.ravel()[np.take(at, L - khat) * buf.shape[1]
                              + np.arange(b)]
            mask[rows] = cut_mask(P[rows], cut, khat)

    def piece(P, mask):  # its own buffers and prefix length
        # a piece of fewer than n rows runs beside other pieces
        groups = _head_groups(len(P), L, len(P) < n)
        size = max((g.stop - g.start for g in groups), default=0)
        ascending, sums = np.empty((size, L)), np.empty(size * L)
        m = L
        for group in groups:  # each block sorts, the group's heads sum
            rows, out = P[group], mask[group]
            blocks = row_blocks(len(rows), L)
            partial = 2 * m <= L
            for b in blocks:
                block = ascending[b]
                np.copyto(block, rows[b])
                if partial:  # split off the top m columns and sort only those
                    block.partition(L - m, axis=1)
                block[:, L - m if partial else 0:].sort(axis=1)
            # cutoff = 1 + number of strict prefixes below the target, capped
            # at L (the cap absorbs float shortfall when the full sum should
            # reach it)
            desc = ascending[:len(rows), ::-1]
            head = sums[:len(rows) * m].reshape(-1, m)
            np.cumsum(desc[:, :m], axis=1, out=head)
            # intp: a full row's count below may pass the head's int16
            khat = row_counts(head < target).astype(np.intp) + 1
            for b in blocks:
                block, k = ascending[b], khat[b]
                if m < L:
                    long = np.flatnonzero(k > m)
                    if partial:
                        block[long] = np.sort(block[long], axis=1)
                    full = np.cumsum(block[long, ::-1], axis=1)
                    k[long] = row_counts(full < target) + 1
                np.minimum(k, L, out=k)
                out[b] = cut_mask(rows[b], block[np.arange(len(k)), L - k], k)
            m = min(L, int(khat.max()) + 1 + L // 16)

    sort = narrow if L <= _NETWORK_L and n >= _NETWORK_ROWS else piece
    _in_pieces(sort, P, mask)
    return mask


def rule_mask(spec: FormulationSpec, P: np.ndarray,
              theta: float | None) -> np.ndarray:
    """Membership mask of any formulation over rows of ``P``, read off the
    spec's fields.

    A spec with neither a fitted threshold nor ``lam`` is a point-wise
    bound alone: the top-``k`` rule, or the point-wise error rule at
    ``eps`` and the spec's offset.  Every other spec thresholds at ``lam``,
    or else at the fitted ``theta``.

    A set ``k`` (hybrid-size) caps the threshold set at its ``k`` largest
    entries, which a row with at most ``k`` entries ``>= theta`` already
    is, so only the rows over ``k`` run the top-k cut.

    With ``eps`` set (hybrid-error) there are two combine modes.
    ``lemma-threshold`` applies the stated closed form: thresholding at the
    calibrated cutoff.  ``union-with-pointwise`` unions that set with the
    point-wise error set at ``eps``, which guarantees the point-wise
    constraint by construction.  Both are exposed because a pure threshold
    can violate the point-wise constraint on some distributions; the
    brute-force oracle reports how each mode behaves case by case.

    Every rule is ``always | (pool & (P >= theta))`` for every ``theta``
    in [0, inf], with ``always = rule_mask(spec, P, inf)`` and ``pool =
    rule_mask(spec, P, 0) & ~always``: the sweep counts off these sets.
    """
    if not spec.needs_fit and spec.lam is None:
        if spec.k is not None:
            return topk_mask(P, spec.k)
        return pointwise_error_mask(P, spec.eps, spec.offset)
    mask = threshold_mask(P, theta if spec.lam is None else spec.lam)
    if spec.k is not None:
        over = np.flatnonzero(row_counts(mask) > spec.k)
        mask[over] = topk_mask(P[over], spec.k)
    if spec.mode == MODE_UNION_POINTWISE:
        mask |= pointwise_error_mask(P, spec.eps, 0.0)
    return mask
