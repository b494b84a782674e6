"""Set-valued multi-class prediction.

Converts per-sample class-probability scores into label-set predictions
under eight optimization formulations (fixed-size top-k, point-wise and
average error control, average size control, a penalized trade-off, two
hybrid constraint combinations, and F-score maximization), together with
the data-driven calibration of every distribution-dependent threshold and
an evaluation harness for error/size trade-off curves.
"""

from .core import ScoreSet, softmax
from .formulations import (
    FormulationSpec,
    Kind,
    MODE_LEMMA_THRESHOLD,
    MODE_UNION_POINTWISE,
)
from .calibration import (
    CalibratedClassifier,
    EmpiricalStepFunction,
    FeasibilityReport,
    calibrate,
    feasibility_check,
    fit_temperature,
    pointwise_offset,
    step_function,
)
from .evaluation import (
    MetricsReport,
    PerClassViolation,
    SweepCurve,
    SweepPoint,
    evaluate,
    sweep,
)
from .oracle import (
    BruteForceResult,
    DiscreteDistribution,
    brute_force_avg_error_with_size_cap,
    brute_force_optimal,
    exact_error,
    exact_size,
    make_distribution,
    population_step_function,
    sample_scores,
    synth_generate,
)
from . import errors

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]
