"""The package's public names, pinned: an addition or a removal shows up
as a diff here."""

import ast
import inspect

import predsets
from predsets import calibration, core, evaluation, formulations, io, oracle
from predsets.calibration import CalibratedClassifier, EmpiricalStepFunction

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
    formulations: [
        "FormulationSpec", "Kind", "pointwise_error_mask", "rule_mask",
    ],
    oracle: [
        "BruteForceResult", "DiscreteDistribution", "EquivalenceRecord",
        "brute_force_avg_error_with_size_cap", "brute_force_optimal",
        "closed_form_assignment", "constraint_satisfied", "equivalence_suite",
        "exact_error", "exact_size", "exact_top_k_error",
        "infeasibility_records", "make_distribution", "objective_value",
        "population_step_function", "population_threshold",
        "random_test_distribution", "sample_binding_spec", "sample_scores",
        "synth_generate",
    ],
    io: [
        "fmt", "metrics_text", "read_distribution", "read_model",
        "read_scores", "write_curve", "write_distribution", "write_metrics",
        "write_model", "write_per_class", "write_predictions", "write_scores",
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


#: The calibration names evaluation imports: each bootstrap draw is fitted
#: in calibration, and the sweep only cuts and counts.
EVALUATION_FROM_CALIBRATION = [
    "CalibratedClassifier", "_check_offset", "_cutoff", "_draw_fit",
    "_probs_at", "_require_nonempty", "calibrate", "fit_temperature",
]


def test_evaluation_imports_from_calibration():
    tree = ast.parse(inspect.getsource(evaluation))
    names = sorted(
        alias.name for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "calibration"
        for alias in node.names
    )
    assert names == EVALUATION_FROM_CALIBRATION


def test_one_prediction_path():
    public = [n for n in dir(CalibratedClassifier) if not n.startswith("_")]
    assert sorted(public) == [
        "offset", "predict_set_mask", "temperature", "theta"
    ]


def test_knot_weights_only_through_reweight():
    # unit knots are built; reweight is the one way to weigh them
    def params(fn):
        sig = inspect.signature(fn)
        return str(sig.replace(return_annotation=inspect.Signature.empty))

    assert params(EmpiricalStepFunction) == "(scores, *, rows=None, norm=1)"
    assert params(EmpiricalStepFunction.reweight) == "(self, weights, *, norm)"
