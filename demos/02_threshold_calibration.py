"""Calibrating distribution-dependent thresholds from data.

The average-size and average-error rules threshold the probabilities at a
cutoff that depends on the unknown score distribution.  This script fits
both cutoffs on synthetic calibration data and verifies on held-out
samples that the constraints actually hold, then shows the F-score root.
"""

import numpy as np

from predsets import (
    CalibratedClassifier,
    FormulationSpec,
    Kind,
    calibrate,
    evaluate,
)
from predsets.oracle import make_distribution, sample_scores

L = 10
dist = make_distribution("two-regime", L, seed=0)
calib = sample_scores(dist, 20_000, seed=0)
held_out = sample_scores(dist, 20_000, seed=1)

print(f"synthetic task: L={L}, {dist.n_points} support points, "
      f"{calib.n} calibration / {held_out.n} held-out samples\n")

print("average-size control: ask for 2 labels per sample *on average*")
clf = calibrate(FormulationSpec(Kind.AVERAGE_SIZE, kbar=2.0), calib)
m = evaluate(clf, held_out)
print(f"  fitted cutoff        {clf.theta:.4f}")
print(f"  held-out avg size    {m.avg_size:.3f}  (budget 2.0)")
print(f"  held-out avg error   {m.avg_error:.3f}  "
      "(compare top-2 below)\n")

top2 = CalibratedClassifier(spec=FormulationSpec(Kind.TOP_K, k=2))
m_top = evaluate(top2, held_out)
print(f"  fixed top-2 error    {m_top.avg_error:.3f}  "
      "(the adaptive rule can only improve on this)\n")

print("average-error control: at most 5% of samples may miss their class")
clf = calibrate(FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.05), calib)
m = evaluate(clf, held_out)
print(f"  fitted cutoff        {clf.theta:.4f}")
print(f"  held-out avg error   {m.avg_error:.4f}  (budget 0.05)")
print(f"  held-out avg size    {m.avg_size:.3f}\n")

print("F-score rule: the cutoff is the root of a scalar equation")
clf = calibrate(FormulationSpec(Kind.F_SCORE, beta=1.0), calib)
# phi(theta) = beta^2 theta - mean_i sum_l (p_il - theta)_+, here beta = 1
hinge = np.clip(calib.probs - clf.theta, 0, None).sum(axis=1).mean()
residual = clf.theta - hinge
m = evaluate(clf, held_out)
print(f"  fitted cutoff        {clf.theta:.6f}")
print(f"  root residual        {residual:.2e}")
print(f"  held-out F_1         {m.f_beta:.3f} "
      f"(recall {m.recall:.3f}, avg size {m.avg_size:.2f})")
