"""The package's public names, pinned: an addition or a removal shows up
as a diff here."""

import predsets
from predsets import calibration, core, evaluation
from predsets.calibration import CalibratedClassifier

PACKAGE = [
    "BruteForceResult", "CalibratedClassifier", "DiscreteDistribution",
    "EmpiricalStepFunction", "FeasibilityReport", "FormulationSpec", "Kind",
    "MODE_LEMMA_THRESHOLD", "MODE_UNION_POINTWISE", "MetricsReport",
    "PerClassViolation", "ScoreSet", "SweepCurve", "SweepPoint",
    "brute_force_avg_error_with_size_cap", "brute_force_optimal", "calibrate",
    "calibration", "core", "errors", "evaluate", "evaluation", "exact_error",
    "exact_size", "feasibility_check", "fit_temperature", "formulations",
    "make_distribution", "oracle", "pointwise_offset",
    "population_step_function", "sample_scores", "softmax", "step_function",
    "sweep", "synth_generate",
]

#: Public names each module defines itself (imports excluded).
MODULES = {
    core: [
        "ScoreSet", "check_probability_rows", "cut_mask", "label_entries",
        "row_blocks", "row_counts", "softmax", "threshold_mask", "topk_mask",
    ],
    calibration: [
        "CalibratedClassifier", "EmpiricalStepFunction", "FeasibilityReport",
        "calibrate", "feasibility_check", "fit_temperature", "fscore_root",
        "pointwise_offset", "step_function",
    ],
    evaluation: [
        "MetricsReport", "PerClassViolation", "SweepCurve", "SweepPoint",
        "evaluate", "spec_with_param", "sweep",
    ],
}


def test_package_names():
    assert sorted(predsets.__all__) == PACKAGE


def test_module_names():
    for module, names in MODULES.items():
        own = sorted(
            name for name, obj in vars(module).items()
            if not name.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__
        )
        assert own == names, module.__name__


def test_one_prediction_path():
    public = [n for n in dir(CalibratedClassifier) if not n.startswith("_")]
    assert sorted(public) == [
        "offset", "predict_set_mask", "temperature", "theta"
    ]
