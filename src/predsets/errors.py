"""Exception types raised across the library.

Every contract violation has its own class so callers can react to the
precise failure mode instead of parsing messages.  All classes derive from
:class:`PredsetsError`.
"""


class PredsetsError(Exception):
    """Base class for every error raised by this package."""


# --- probability-vector validation ---------------------------------------


class RowError(PredsetsError, ValueError):
    """A score-set row fails a check; ``row`` is its 0-based index (None
    when no one row is at fault), and ``entry`` the 0-based column when one
    entry is at fault.  The message names whatever they hold when shown."""

    def __init__(self, message: str, row: int | None, entry: int | None = None):
        super().__init__(message)
        self.problem = message
        self.row = None if row is None else int(row)
        self.entry = None if entry is None else int(entry)

    def __str__(self) -> str:
        where = "" if self.row is None else f"row {self.row}"
        if self.entry is not None:
            where += f", entry {self.entry}"
        return f"{where}: {self.problem}" if where else self.problem


class NegativeEntry(RowError):
    """A probability vector contains an entry below zero."""


class NonFiniteEntry(RowError):
    """A probability vector (or logit row) contains NaN or an infinity."""


class SumOutOfTolerance(RowError):
    """Probability entries do not sum to one within the allowed tolerance."""

    def __init__(self, actual_sum: float, tol: float, row: int | None):
        self.actual_sum = float(actual_sum)
        self.tol = float(tol)
        super().__init__(
            f"probabilities sum to {self.actual_sum!r}, "
            f"outside 1 +/- {self.tol!r}",
            row,
        )


class TooFewClasses(PredsetsError, ValueError):
    """Fewer than two classes in a probability vector."""


class RowCountMismatch(PredsetsError, ValueError):
    """A score set's ids or labels are not one per probability row."""


class LabelOutOfRange(RowError):
    """A label outside ``{1, ..., L}`` (or 0, which marks unlabeled)."""


class LogitsMismatch(RowError):
    """Probabilities that are not ``softmax(logits)``: a score set is at
    temperature 1."""


# --- rule parameters ------------------------------------------------------


class KOutOfRange(PredsetsError, ValueError):
    """Set-size parameter k outside the admissible integer range."""


class InvalidEpsilon(PredsetsError, ValueError):
    """Error-rate bound outside [0, 1]."""


class InvalidOffset(PredsetsError, ValueError):
    """Point-wise offset outside [0, eps]."""


class NegativeLambda(PredsetsError, ValueError):
    """Penalty weight below zero or not finite."""


class KbarOutOfRange(PredsetsError, ValueError):
    """Average-size budget outside (0, L]."""


class EbarOutOfRange(PredsetsError, ValueError):
    """Average-error budget outside (0, 1), or hybrid-error budget below 0."""


class ParameterOrderViolation(PredsetsError, ValueError):
    """Hybrid parameters not ordered (kbar < k, or ebar < eps)."""


class InvalidBeta(PredsetsError, ValueError):
    """F-score weight beta not finite and > 0."""


class SpecFieldError(PredsetsError, ValueError):
    """A spec field missing, given to a kind that does not take it, or of
    an unknown value (the kind or the combine mode); ``field`` names it."""

    def __init__(self, message: str, field: str):
        super().__init__(message)
        self.field = field


# --- calibration ----------------------------------------------------------


class Saturated(PredsetsError, RuntimeError):
    """Even the largest-score knot leaves the step function above the level.

    Carries the queried level ``u`` and the largest knot score ``value`` so
    callers can report how far the request was from attainable.
    """

    def __init__(self, u: float, value: float):
        self.u = float(u)
        self.value = float(value)
        super().__init__(
            f"step function stays above u={self.u!r} for every knot; "
            f"largest knot score is {self.value!r}"
        )


class EmptyScoreSet(PredsetsError, ValueError):
    """Calibration requested on a score set with no samples."""


class MissingLabels(PredsetsError, ValueError):
    """Operation needs true labels but some samples are unlabeled."""


class MissingLogits(PredsetsError, ValueError):
    """Operation needs raw logits but the score set carries none."""


class InvalidTemperature(PredsetsError, ValueError):
    """Temperature not finite and > 0 (NaN included)."""


class ThetaMismatch(PredsetsError, ValueError):
    """A fitted threshold missing where the kind needs one, or given where not."""


class InfeasiblePair(PredsetsError, RuntimeError):
    """Hybrid error budgets (ebar, eps) unattainable on the data."""


# --- evaluation and oracle ------------------------------------------------


class TooLargeForBruteForce(PredsetsError, ValueError):
    """Joint enumeration would exceed the safety budget."""


class InvalidSlack(PredsetsError, ValueError):
    """A CI gate slack that is NaN or infinite."""


class ClassCountMismatch(PredsetsError, ValueError):
    """Two artifacts disagree on the number of classes L."""


class ParseError(PredsetsError, ValueError):
    """A score, model, or fixture file failed to parse."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")
