"""Checking the closed forms against exhaustive enumeration.

On a small finite distribution every constrained optimum can be found by
brute force.  This script builds one, prints its exact pooled-score
function G, and confirms each closed-form rule attains the brute-force
objective.  The population cutoffs come from the calibrator's own code:
the distribution is a calibration set whose rows weigh their marginal
probability, so the oracle checks the cutoff ``calibrate`` computes.  Its
sets are the classifier's membership masks, one row per support point,
printed here as label tuples.  The hybrid error rule is special: its two
readings are reported side by side without picking a winner.
"""

import numpy as np

from predsets import FormulationSpec, Kind, brute_force_optimal
from predsets.oracle import (
    closed_form_assignment,
    equivalence_suite,
    exact_top_k_error,
    infeasibility_records,
    objective_value,
    population_step_function,
    population_threshold,
    random_test_distribution,
)


def label_sets(dist, mask):
    """Each support point's labels, read off its row of the mask."""
    return {
        x: tuple((np.flatnonzero(row) + 1).tolist())
        for x, row in zip(dist.x_ids, mask)
    }


rng = np.random.default_rng(42)
dist = random_test_distribution(rng, L=4, n_points=3)
print(f"distribution: {dist.n_points} support points, L={dist.L}")
for x, w, p in zip(dist.x_ids, dist.marginal, dist.cond):
    print(f"  {x}: weight {w:.3f}, probs {np.round(p, 3)}")

spec = FormulationSpec(Kind.AVERAGE_SIZE, kbar=2.0)
G = population_step_function(dist, spec)
print("\nexact pooled-score function G at a few cutoffs:")
for t in (0.1, 0.3, 0.5):
    print(f"  G({t}) = {G.value(t):.3f}")
print(f"top-1 error of this distribution: {exact_top_k_error(dist, 1):.4f}")

print("\none worked example: average-size budget 2.0")
theta = population_threshold(dist, spec)
closed = closed_form_assignment(dist, spec, theta)
brute = brute_force_optimal(dist, spec)
print(f"  population cutoff {theta:.4f}")
print(f"  closed-form sets  {label_sets(dist, closed)}")
print(f"  brute-force sets  {label_sets(dist, brute.mask)}")
print(f"  objectives        {objective_value(dist, spec, closed):.6f} "
      f"vs {brute.objective:.6f}")

print("\nfull suite (binding budgets sampled from the attainable grid):")
records = equivalence_suite(dist, rng, "demo")
records += infeasibility_records(dist, rng, "demo")
print(f"{'formulation':<34}{'closed':>12}{'brute':>12}{'gap':>10}{'ok':>5}")
for r in records:
    flag = ("yes" if r.passed else "NO") if r.judged else "n/a"
    print(
        f"{r.formulation:<34}{r.closed_objective:>12.6f}"
        f"{r.brute_objective:>12.6f}{r.gap:>10.1e}{flag:>5}"
    )
print("\n(the two hybrid-error rows report both readings of that rule; "
      "neither is judged)")
