"""Exception types raised across the library.

Every contract violation has its own class so callers can react to the
precise failure mode instead of parsing messages.  All classes derive from
:class:`PredsetsError`.
"""


class PredsetsError(Exception):
    """Base class for every error raised by this package."""


# --- probability-vector validation ---------------------------------------


class NegativeEntry(PredsetsError, ValueError):
    """A probability vector contains an entry below zero."""


class NonFiniteEntry(PredsetsError, ValueError):
    """A probability vector contains NaN or an infinite entry."""


class SumOutOfTolerance(PredsetsError, ValueError):
    """Probability entries do not sum to one within the allowed tolerance."""

    def __init__(self, actual_sum: float, tol: float):
        self.actual_sum = float(actual_sum)
        self.tol = float(tol)
        super().__init__(
            f"probabilities sum to {actual_sum!r}, outside 1 +/- {tol!r}"
        )


class TooFewClasses(PredsetsError, ValueError):
    """Fewer than two classes in a probability vector."""


# --- rule parameters ------------------------------------------------------


class KOutOfRange(PredsetsError, ValueError):
    """Set-size parameter k outside the admissible integer range."""


class InvalidEpsilon(PredsetsError, ValueError):
    """Error-rate bound outside [0, 1]."""


class InvalidOffset(PredsetsError, ValueError):
    """Point-wise offset outside [0, eps]."""


class NegativeLambda(PredsetsError, ValueError):
    """Penalty weight below zero."""


class KbarOutOfRange(PredsetsError, ValueError):
    """Average-size budget outside (0, L]."""


class EbarOutOfRange(PredsetsError, ValueError):
    """Average-error budget outside (0, 1)."""


class ParameterOrderViolation(PredsetsError, ValueError):
    """Hybrid parameters not ordered (kbar < k, or ebar < eps)."""


class InvalidBeta(PredsetsError, ValueError):
    """F-score weight beta not strictly positive."""


# --- calibration ----------------------------------------------------------


class NegativeU(PredsetsError, ValueError):
    """Generalized inverse queried at a negative level."""


class Saturated(PredsetsError, RuntimeError):
    """Even the largest-score knot leaves the step function above the level.

    Carries the queried level ``u`` and the largest knot score ``value`` so
    callers can report how far the request was from attainable.
    """

    def __init__(self, u: float, value: float):
        self.u = float(u)
        self.value = float(value)
        super().__init__(
            f"step function stays above u={u!r} for every knot; "
            f"largest knot score is {value!r}"
        )


class EmptyScoreSet(PredsetsError, ValueError):
    """Calibration requested on a score set with no samples."""


class MissingLabels(PredsetsError, ValueError):
    """Operation needs true labels but some samples are unlabeled."""


class MissingLogits(PredsetsError, ValueError):
    """Operation needs raw logits but the score set carries none."""


class InfeasiblePair(PredsetsError, RuntimeError):
    """Hybrid error budgets (ebar, eps) unattainable on the data."""


# --- evaluation and oracle ------------------------------------------------


class EmptyBins(PredsetsError, ValueError):
    """Histogram requested with fewer than two bin edges."""


class TooLargeForBruteForce(PredsetsError, ValueError):
    """Joint enumeration would exceed the safety budget."""


class ClassCountMismatch(PredsetsError, ValueError):
    """Two artifacts disagree on the number of classes L."""


class ParseError(PredsetsError, ValueError):
    """A score, model, or fixture file failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
