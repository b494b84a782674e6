"""A tour of the eight prediction rules on a single probability vector.

Every rule maps class probabilities to a *set* of candidate labels.  Run
this script to see how each formulation trades the size of that set
against the chance of missing the true class.  All eight are built from
two primitives, ``topk_mask`` and ``threshold_mask``, which keep the top
``k`` entries or the entries ``>= theta`` of each row; a classifier's
``predict_set_mask`` applies a whole formulation to a checked score set,
here of one row.
"""

import numpy as np

from predsets import CalibratedClassifier, FormulationSpec, Kind, ScoreSet
from predsets.core import threshold_mask, topk_mask


def predict(spec, p, theta=None):
    one = ScoreSet(ids=["x"], probs=[p])
    mask = CalibratedClassifier(spec, theta=theta).predict_set_mask(one)
    return (np.flatnonzero(mask[0]) + 1).tolist()


p = np.array([0.42, 0.23, 0.15, 0.11, 0.06, 0.03])

print("conditional probabilities:", p, "\n")

print("fixed-size rules")
for k in (1, 2, 3):
    labels = (np.flatnonzero(topk_mask(p[None, :], k)[0]) + 1).tolist()
    assert labels == predict(FormulationSpec(Kind.TOP_K, k=k), p)
    print(f"  top-{k}:                 {labels}")

print("\nadaptive size from a point-wise error budget")
for eps in (0.5, 0.2, 0.05):
    labels = predict(FormulationSpec(Kind.POINTWISE_ERROR, eps=eps), p)
    mass = p[np.array(labels) - 1].sum()
    print(
        f"  eps={eps:<5} -> {labels} "
        f"(covered mass {mass:.2f} >= {1 - eps:.2f})"
    )

print("\nthresholding rules (penalized / calibrated cutoffs)")
for theta in (0.05, 0.12, 0.3):
    penalized = predict(FormulationSpec(Kind.PENALIZED, lam=theta), p)
    print(f"  cutoff {theta:<5} -> {penalized}")
assert (np.flatnonzero(threshold_mask(p, 0.12)) + 1).tolist() == predict(
    FormulationSpec(Kind.PENALIZED, lam=0.12), p
)

print("\nhybrids combine a cutoff with a hard cap or a coverage floor")
capped = FormulationSpec(Kind.HYBRID_SIZE, kbar=1.5, k=2)
print("  cutoff 0.1 capped at k=2: ", predict(capped, p, theta=0.1))
for mode, reading in (("lemma-threshold", "threshold reading:"),
                      ("union-with-pointwise", "union reading:    ")):
    floor = FormulationSpec(Kind.HYBRID_ERROR, ebar=0.1, eps=0.2, mode=mode)
    print(f"  cutoff 0.3, eps=0.2, {reading}", predict(floor, p, theta=0.3))

print("\nF-score rule thresholds at the fitted root (see demo 02)")
fscore = FormulationSpec(Kind.F_SCORE, beta=1.0)
print("  theta*=0.18 ->", predict(fscore, p, theta=0.18))
