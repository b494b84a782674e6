"""What miscalibrated scores do to point-wise guarantees, and two fixes.

The point-wise error rule trusts the probabilities it is given.  When a
model is miscalibrated the per-class error rates blow past the budget.
Two remedies: shrink the tolerated error by the sqrt(L/n) offset, or
re-fit a temperature on held-out logits before thresholding.
"""

import numpy as np

from predsets import (
    FormulationSpec,
    Kind,
    PerClassViolation,
    calibrate,
    evaluate,
    fit_temperature,
)
from predsets.calibration import pointwise_offset
from predsets.core import ScoreSet, softmax
from predsets.oracle import make_distribution, sample_scores

L, eps = 10, 0.1
dist = make_distribution("dirichlet-like", L, seed=2)
calib = sample_scores(dist, 8_000, seed=2, noise=0.35)
test = sample_scores(dist, 10_000, seed=3, noise=0.35)

spec = FormulationSpec(Kind.POINTWISE_ERROR, eps=eps)
plain = calibrate(spec, calib)
v = PerClassViolation.from_rates(evaluate(plain, test).per_class_error, eps)
print(f"noisy scores, eps={eps}: "
      f"{100 * v.violation_fraction:.0f}% of classes violate the budget")
print("  per-class error percentiles:",
      {q: round(val, 3) for q, val in v.quantiles.items()})

r = pointwise_offset(calib.n, L)
corrected = calibrate(spec, calib, offset="auto")
rates = evaluate(corrected, test).per_class_error
v_off = PerClassViolation.from_rates(rates, eps)
print(f"\nwith offset sqrt(L/n) = {r:.3f}: "
      f"{100 * v_off.violation_fraction:.0f}% of classes violate")
print("  per-class error percentiles:",
      {q: round(val, 3) for q, val in v_off.quantiles.items()})

print("\ntemperature scaling on sharpened logits")
# sharpen the *true* probabilities: a purely overconfident model
clean = sample_scores(dist, 10_000, seed=3)
sharp_logits = 2.5 * np.log(clean.probs)
overconf = ScoreSet(
    ids=clean.ids,
    probs=softmax(sharp_logits),
    labels=clean.labels,
    logits=sharp_logits,
)
T = fit_temperature(overconf)
print(f"  fitted temperature T = {T:.3f} (sharpening factor was 2.5)")
clf_t = calibrate(spec, overconf, temperature=T)
rates = evaluate(calibrate(spec, overconf), overconf).per_class_error
v_raw = PerClassViolation.from_rates(rates, eps)
rates = evaluate(clf_t, overconf).per_class_error
v_t = PerClassViolation.from_rates(rates, eps)
print(f"  violating classes before rescaling: "
      f"{100 * v_raw.violation_fraction:.0f}%")
print(f"  violating classes after rescaling:  "
      f"{100 * v_t.violation_fraction:.0f}%")
