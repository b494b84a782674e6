"""Output checks computed from the inputs, independent of the library.

Every check here uses its own NumPy arithmetic on the score matrices and the
benchmark's own parsers of the output files; none calls into ``predsets``.
A failed check raises :class:`CheckFailed`, which the workload counts as a
failed operation.  Checks compare values within stated tolerances, never
bytes, so an exact-arithmetic change in the library (for example a closed
form replacing a bisection) does not read as a failure.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Reported metrics against the benchmark's recomputation.  Both sides sum
#: the same 0/1 values over the same rows, so only summation order differs.
METRIC_TOL = 1e-12
#: Cumulative-mass comparisons near a rule's target, and step-function
#: levels compared against a budget: sums taken in another order differ by
#: a few ulps of 1, far below any gap between distinct knots.
MASS_TOL = 1e-9
#: Row sums of a probability vector, as the library validates them.
SUM_TOL = 1e-6
#: Slack when a set's smallest member is compared with the largest
#: non-member, for probabilities the benchmark recomputes from logits.
ORDER_TOL = 1e-15
#: Rows per block when a check sorts or masks a wide matrix, so that the
#: checks never hold more memory than the library's own call.
BLOCK_ROWS = 256


class CheckFailed(Exception):
    """An output disagrees with what the inputs imply."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return abs(float(a) - float(b)) <= METRIC_TOL


def softmax(z: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    shifted = z / temperature
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def blocks(n: int, size: int = BLOCK_ROWS):
    for start in range(0, n, size):
        yield slice(start, min(start + size, n))


# --- parsers for the CLI's files ---------------------------------------------


@dataclass
class ScoreTable:
    ids: list[str]
    labels: np.ndarray
    probs: np.ndarray
    logits: np.ndarray | None

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def L(self) -> int:
        return self.probs.shape[1]

    def true_scores(self) -> np.ndarray:
        return self.probs[np.arange(self.n), self.labels - 1]


def read_score_csv(path) -> ScoreTable:
    """Parse a score CSV with NumPy and validate it as probability data."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        ids = [line.split(",", 1)[0] for line in fh]
    L = sum(1 for name in header if name.startswith("p_"))
    n_logits = sum(1 for name in header if name.startswith("z_"))
    expected = (
        ["id", "label"]
        + [f"p_{j}" for j in range(1, L + 1)]
        + [f"z_{j}" for j in range(1, n_logits + 1)]
    )
    require(header == expected, f"{path.name}: unexpected header")
    require(n_logits in (0, L), f"{path.name}: {n_logits} logit columns")
    values = np.loadtxt(
        path, delimiter=",", skiprows=1, ndmin=2,
        usecols=range(1, 2 + L + n_logits),
    )
    require(values.shape[0] == len(ids) > 0, f"{path.name}: row count")
    labels = values[:, 0]
    require(np.all(labels == np.round(labels)), f"{path.name}: labels")
    table = ScoreTable(
        ids=ids,
        labels=labels.astype(np.int64),
        probs=values[:, 1 : 1 + L],
        logits=values[:, 1 + L :] if n_logits else None,
    )
    check_probabilities(table, path.name)
    return table


def check_probabilities(table: ScoreTable, what: str) -> None:
    P = table.probs
    require(np.all(np.isfinite(P)), f"{what}: non-finite probability")
    require(np.all(P >= 0.0), f"{what}: negative probability")
    require(
        np.all(np.abs(P.sum(axis=1) - 1.0) <= SUM_TOL),
        f"{what}: row sums off 1",
    )
    require(
        np.all((table.labels >= 1) & (table.labels <= table.L)),
        f"{what}: label outside [1, L]",
    )
    if table.logits is not None:
        require(
            np.allclose(softmax(table.logits), P, atol=SUM_TOL, rtol=0.0),
            f"{what}: probs are not softmax(logits)",
        )


def read_key_values(path) -> dict[str, str]:
    """Parse the ``key: value`` lines of a model or metrics file."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            key, sep, value = line.partition(":")
            require(sep, f"{Path(path).name}: line without ':'")
            out[key.strip()] = value.strip()
    return out


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    with Path(path).open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows, f"{Path(path).name}: empty")
    return rows[0], rows[1:]


def read_predictions(path, ids: list[str], L: int) -> np.ndarray:
    """Parse a predictions file back into an (n, L) membership mask."""
    header, rows = read_csv_rows(path)
    require(header == ["id", "labels", "size"], "predictions: header")
    require(len(rows) == len(ids), "predictions: row count")
    mask = np.zeros((len(ids), L), dtype=bool)
    for i, (row, sample_id) in enumerate(zip(rows, ids)):
        require(len(row) == 3 and row[0] == sample_id, f"predictions row {i}")
        labels = [int(v) for v in row[1].split(";")] if row[1] else []
        require(labels == sorted(set(labels)), f"predictions row {i}: order")
        require(
            all(1 <= v <= L for v in labels), f"predictions row {i}: range"
        )
        require(int(row[2]) == len(labels), f"predictions row {i}: size")
        mask[i, np.asarray(labels, dtype=np.int64) - 1] = True
    return mask


# --- rule checks -------------------------------------------------------------


def check_top_set(P: np.ndarray, mask: np.ndarray, what: str) -> None:
    """Each row's set holds its largest entries: min inside >= max outside."""
    for rows in blocks(P.shape[0]):
        p, m = P[rows], mask[rows]
        inside = np.where(m, p, np.inf).min(axis=1)
        outside = np.where(m, -np.inf, p).max(axis=1)
        bad = np.flatnonzero(inside < outside - ORDER_TOL)
        require(bad.size == 0, f"{what}: row {rows.start + bad[:1]} not a top set")


def check_topk(P: np.ndarray, mask: np.ndarray, k: int) -> None:
    require(np.all(mask.sum(axis=1) == k), f"top-k: a row without {k} labels")
    check_top_set(P, mask, "top-k")


def pointwise_size_bounds(P: np.ndarray, target: float):
    """Per-row set sizes the point-wise rule may return, within MASS_TOL.

    The rule keeps the smallest top set whose mass reaches ``target``; a row
    whose cumulative mass lies within MASS_TOL of the target may round
    either way, so the check accepts any size between the two readings.
    """
    n, L = P.shape
    lo = np.empty(n, dtype=np.int64)
    hi = np.empty(n, dtype=np.int64)
    for rows in blocks(n):
        csum = np.cumsum(-np.sort(-P[rows], axis=1), axis=1)
        lo[rows] = (csum < target - MASS_TOL).sum(axis=1) + 1
        hi[rows] = (csum < target + MASS_TOL).sum(axis=1) + 1
    return np.minimum(lo, L), np.minimum(hi, L)


def check_pointwise(P: np.ndarray, mask: np.ndarray, target: float) -> None:
    sizes = mask.sum(axis=1)
    if target <= 0.0:
        require(not mask.any(), "pointwise-error: non-empty set at target 0")
        return
    lo, hi = pointwise_size_bounds(P, target)
    bad = np.flatnonzero((sizes < lo) | (sizes > hi))
    require(bad.size == 0, f"pointwise-error: row {bad[:1]} has wrong size")
    check_top_set(P, mask, "pointwise-error")


def check_hybrid_size(P, mask, theta: float, k: int) -> None:
    for rows in blocks(P.shape[0]):
        above = P[rows] >= theta
        require(not np.any(mask[rows] & ~above), "hybrid-size: label below theta")
        want = np.minimum(above.sum(axis=1), k)
        require(np.all(mask[rows].sum(axis=1) == want), "hybrid-size: sizes")
    check_top_set(P, mask, "hybrid-size")


def check_hybrid_union(P, mask, theta: float, eps: float) -> None:
    """Threshold set united with the point-wise set (offset 0) at ``eps``."""
    sizes = mask.sum(axis=1)
    lo, hi = pointwise_size_bounds(P, 1.0 - eps)
    for rows in blocks(P.shape[0]):
        above = (P[rows] >= theta).sum(axis=1)
        require(
            np.all(mask[rows] | (P[rows] < theta)), "hybrid-error: lost label"
        )
        s = sizes[rows]
        ok = np.where(s > above, (s >= lo[rows]) & (s <= hi[rows]), lo[rows] <= s)
        require(np.all(ok), "hybrid-error union: wrong set size")
    check_top_set(P, mask, "hybrid-error union")


def check_threshold(P, mask, theta: float, what: str) -> None:
    for rows in blocks(P.shape[0]):
        require(np.array_equal(mask[rows], P[rows] >= theta), f"{what}: mask")


# --- fitted cutoffs on the calibration data ----------------------------------


def _next_below(values: np.ndarray, theta: float) -> float | None:
    below = values[values < theta]
    return float(below.max()) if below.size else None


def _next_above(values: np.ndarray, theta: float) -> float | None:
    above = values[values > theta]
    return float(above.min()) if above.size else None


def check_average_size(P, theta: float, kbar: float) -> float:
    """Mean threshold-set size at theta meets kbar, and theta is the
    largest knot that does.  Returns the margin ``kbar - size``."""
    size = float((P >= theta).sum()) / P.shape[0]
    require(size <= kbar + MASS_TOL, f"average-size {size!r} > kbar {kbar!r}")
    lower = _next_below(P.ravel(), theta) if theta > 0 else None
    if lower is not None:
        more = float((P >= lower).sum()) / P.shape[0]
        require(more > kbar - MASS_TOL, "average-size: cutoff not tight")
    return kbar - size


def check_average_error(true_scores, theta: float, ebar: float) -> float:
    err = float(np.mean(true_scores < theta))
    require(err <= ebar + MASS_TOL, f"average-error {err!r} > ebar {ebar!r}")
    higher = _next_above(true_scores, theta)
    if higher is not None:
        more = float(np.mean(true_scores < higher))
        require(more > ebar - MASS_TOL, "average-error: cutoff not tight")
    return ebar - err


def check_hybrid_size_fit(P, theta: float, kbar: float, k: int) -> float:
    topk = np.sort(P, axis=1)[:, -k:]
    size = float((topk >= theta).sum()) / P.shape[0]
    require(size <= kbar + MASS_TOL, f"hybrid-size {size!r} > kbar {kbar!r}")
    lower = _next_below(topk.ravel(), theta)
    if lower is not None:
        more = float((topk >= lower).sum()) / P.shape[0]
        require(more > kbar - MASS_TOL, "hybrid-size: cutoff not tight")
    return kbar - size


def pointwise_member_values(P, eps: float) -> np.ndarray:
    """Scores inside each row's point-wise error set at ``eps``."""
    sizes, _ = pointwise_size_bounds(P, 1.0 - eps)
    out = []
    for rows in blocks(P.shape[0]):
        desc = -np.sort(-P[rows], axis=1)
        keep = np.arange(P.shape[1])[None, :] < sizes[rows, None]
        out.append(desc[keep])
    return np.concatenate(out)


def check_hybrid_error_fit(P, theta: float, ebar: float, eps: float) -> float:
    """H_eps(theta) reaches 1 - ebar and the next knot up does not.
    Returns the feasibility margin ``H_eps(0) - (1 - ebar)``."""
    values = pointwise_member_values(P, eps)
    n = P.shape[0]
    level = 1.0 - ebar
    reached = float(values[values >= theta].sum()) / n
    require(reached >= level - MASS_TOL, "hybrid-error: level not reached")
    higher = _next_above(values, theta)
    if higher is not None:
        more = float(values[values >= higher].sum()) / n
        require(more < level + MASS_TOL, "hybrid-error: cutoff not tight")
    return float(values.sum()) / n - level


def fscore_residual(P, theta: float, beta: float) -> float:
    """``beta^2 theta - mean_i sum_l (p_il - theta)_+``; zero at the root."""
    hinge = np.clip(P - theta, 0.0, None).sum(axis=1).mean()
    return beta * beta * theta - float(hinge)


def check_fscore_fit(P, theta: float, beta: float) -> float:
    r = fscore_residual(P, theta, beta)
    require(abs(r) <= MASS_TOL, f"f-score residual {r!r}")
    return r


def temperature_nll(Z, labels, T: float) -> float:
    shifted = Z / T
    m = shifted.max(axis=1)
    lse = m + np.log(np.exp(shifted - m[:, None]).sum(axis=1))
    return float(np.mean(lse - shifted[np.arange(Z.shape[0]), labels - 1]))


def check_temperature(Z, labels, T: float, bounds=(0.05, 20.0)) -> None:
    """The fitted temperature is interior and a local minimum of the NLL."""
    require(bounds[0] < T < bounds[1], f"temperature {T!r} at a bound")
    here = temperature_nll(Z, labels, T)
    for step in (0.99, 1.01):
        require(
            here <= temperature_nll(Z, labels, T * step) + METRIC_TOL,
            f"temperature {T!r} is not a local NLL minimum",
        )


def check_offset(offset: float, n: int, L: int, eps: float) -> float:
    """``--offset auto`` resolves to sqrt(L/n), which must stay below eps.
    Returns the margin ``eps - offset``."""
    want = math.sqrt(L / n)
    require(close(offset, want), f"offset {offset!r} != sqrt(L/n) {want!r}")
    require(offset < eps, f"offset {offset!r} capped at eps {eps!r}")
    return eps - offset


# --- metrics -----------------------------------------------------------------


def mask_metrics(mask: np.ndarray, labels: np.ndarray) -> dict:
    n = mask.shape[0]
    covered = mask[np.arange(n), labels - 1]
    sizes = mask.sum(axis=1)
    return metrics_from(covered, sizes, labels)


def metrics_from(covered, sizes, labels) -> dict:
    n = covered.size
    recall = float(np.count_nonzero(covered)) / n
    per_class_error, per_class_size = {}, {}
    for c in np.unique(labels):
        rows = labels == c
        per_class_error[int(c)] = 1.0 - float(np.mean(covered[rows]))
        per_class_size[int(c)] = float(np.mean(sizes[rows]))
    return {
        "n_samples": n,
        "avg_error": 1.0 - recall,
        "avg_size": float(sizes.sum()) / n,
        "recall": recall,
        "empty_set_rate": float(np.mean(sizes == 0)),
        "per_class_error": per_class_error,
        "per_class_avg_size": per_class_size,
    }


def threshold_metrics(P, labels, theta: float, k: int | None = None) -> dict:
    """Metrics of thresholding at theta, optionally capped at the top k."""
    n = P.shape[0]
    sizes = np.empty(n, dtype=np.int64)
    covered = np.empty(n, dtype=bool)
    for rows in blocks(n):
        p = P[rows]
        true = p[np.arange(p.shape[0]), labels[rows] - 1]
        above = (p >= theta).sum(axis=1)
        hit = true >= theta
        if k is not None:
            above = np.minimum(above, k)
            # rank of the true label under the ascending-index tie policy
            idx = np.arange(p.shape[1])[None, :]
            rank = (p > true[:, None]).sum(axis=1) + (
                (p == true[:, None]) & (idx < labels[rows, None] - 1)
            ).sum(axis=1)
            hit &= rank < k
        sizes[rows], covered[rows] = above, hit
    return metrics_from(covered, sizes, labels)


def check_report(report: dict, want: dict, what: str) -> None:
    """Compare reported metrics with the recomputed ones, key by key."""
    for key in ("avg_error", "avg_size", "recall", "empty_set_rate"):
        if key in report:
            require(
                close(report[key], want[key]),
                f"{what}: {key} {report[key]!r} != {want[key]!r}",
            )
    if "n_samples" in report:
        require(int(report["n_samples"]) == want["n_samples"], f"{what}: n")
    for key in ("per_class_error", "per_class_avg_size"):
        if key in report:
            got = report[key]
            require(set(got) == set(want[key]), f"{what}: {key} classes")
            require(
                all(close(got[c], want[key][c]) for c in got),
                f"{what}: {key} values",
            )
