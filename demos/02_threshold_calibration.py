"""Calibrating distribution-dependent thresholds from data.

The average-size and average-error rules threshold the probabilities at a
cutoff that depends on the unknown score distribution.  This script fits
both cutoffs on synthetic calibration data and verifies on held-out
samples that the constraints actually hold, then shows the F-score root.
"""

import numpy as np

from predsets import (
    evaluate,
    fit_average_error,
    fit_average_size,
    fit_fscore,
    synth_generate,
)
from predsets.calibration import fscore_objective_derivative
from predsets.oracle import make_distribution, sample_scores

L = 10
dist = make_distribution("two-regime", L, seed=0)
calib = sample_scores(dist, 20_000, seed=0)
held_out = sample_scores(dist, 20_000, seed=1)

print(f"synthetic task: L={L}, {dist.n_points} support points, "
      f"{calib.n} calibration / {held_out.n} held-out samples\n")

print("average-size control: ask for 2 labels per sample *on average*")
clf = fit_average_size(calib, kbar=2.0)
m = evaluate(clf, held_out)
print(f"  fitted cutoff        {clf.theta:.4f}")
print(f"  held-out avg size    {m.avg_size:.3f}  (budget 2.0)")
print(f"  held-out avg error   {m.avg_error:.3f}  "
      "(compare top-2 below)\n")

from predsets import CalibratedClassifier, FormulationSpec, Kind

top2 = CalibratedClassifier(spec=FormulationSpec(Kind.TOP_K, k=2))
m_top = evaluate(top2, held_out)
print(f"  fixed top-2 error    {m_top.avg_error:.3f}  "
      "(the adaptive rule can only improve on this)\n")

print("average-error control: at most 5% of samples may miss their class")
clf = fit_average_error(calib, ebar=0.05)
m = evaluate(clf, held_out)
print(f"  fitted cutoff        {clf.theta:.4f}")
print(f"  held-out avg error   {m.avg_error:.4f}  (budget 0.05)")
print(f"  held-out avg size    {m.avg_size:.3f}\n")

print("F-score rule: the cutoff is the root of a scalar equation")
clf = fit_fscore(calib, beta=1.0)
residual = fscore_objective_derivative(calib.probs, 1.0, clf.theta)
m = evaluate(clf, held_out)
print(f"  fitted cutoff        {clf.theta:.6f}")
print(f"  root residual        {residual:.2e}")
print(f"  held-out F_1         {m.f_beta:.3f} "
      f"(recall {m.recall:.3f}, avg size {m.avg_size:.2f})")
