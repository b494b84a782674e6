"""Acceptance suite: one test per criterion, one printed verdict line each.

Statistical criteria run on fixed seeds so every run is reproducible; the
stated tolerances were confirmed by pilot runs with wide margins before
being frozen here.
"""

import math
import time
from pathlib import Path

import numpy as np

from predsets import io
from predsets.calibration import (
    CalibratedClassifier,
    calibrate,
    feasibility_check,
    pointwise_offset,
    step_function,
)
from predsets.cli import main
from predsets.core import ScoreSet, threshold_mask, topk_mask
from predsets.evaluation import PerClassViolation, evaluate
from predsets.formulations import (
    FormulationSpec,
    Kind,
    pointwise_error_mask,
    rule_mask,
)
from predsets.oracle import (
    DiscreteDistribution,
    brute_force_avg_error_with_size_cap,
    equivalence_suite,
    exact_top_k_error,
    infeasibility_records,
    make_distribution,
    population_step_function,
    population_threshold,
    random_test_distribution,
    sample_scores,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


def random_vectors(n: int, L: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    half = n // 2
    spiky = rng.dirichlet(np.full(L, 0.3), size=half)
    flat = rng.dirichlet(np.ones(L), size=n - half)
    return np.vstack([spiky, flat])


def test_criterion_1_brute_force_equivalence():
    """Closed-form rules at exact-population thresholds equal the
    brute-force optimum within 1e-12 and satisfy their constraints."""
    t0 = time.time()
    rng = np.random.default_rng(20260810)
    n_dists = 0
    worst_gap = 0.0
    failures = []
    for L in (3, 4, 5):
        for n_points in (1, 2, 3):
            for rep in range(3):
                dist = random_test_distribution(
                    rng, L=L, n_points=n_points
                )
                assert np.unique(dist.cond).size == dist.cond.size
                label = f"L{L}m{n_points}r{rep}"
                records = equivalence_suite(dist, rng, label)
                records += infeasibility_records(dist, rng, label)
                for r in records:
                    if not r.judged:
                        continue
                    worst_gap = max(worst_gap, r.gap)
                    if not r.passed:
                        failures.append(
                            (label, r.formulation, r.gap, r.constraint_ok)
                        )
                n_dists += 1
    elapsed = time.time() - t0
    report(
        1,
        "brute-force optimality equivalence",
        not failures and n_dists >= 20 and elapsed < 60,
        f"{n_dists} distributions, worst gap {worst_gap:.2e}, "
        f"{elapsed:.1f}s" + (f", failures={failures}" if failures else ""),
    )


def test_criterion_2_pointwise_coverage():
    """Set mass reaches 1 - eps and dropping the last label breaks it."""
    t0 = time.time()
    P = random_vectors(10_000, 10, seed=7)
    order = np.argsort(-P, axis=1, kind="stable")
    csum = np.cumsum(np.take_along_axis(P, order, axis=1), axis=1)
    ok = True
    for eps in (0.01, 0.1, 0.3):
        mask = pointwise_error_mask(P, eps, 0.0)
        sizes = mask.sum(axis=1)
        mass = (P * mask).sum(axis=1)
        ok &= bool(np.all(mass >= 1.0 - eps))
        # minimality: the next-smaller top set stays below the target
        has_room = sizes >= 2
        prev = csum[np.arange(P.shape[0]), sizes - 2]
        ok &= bool(np.all(prev[has_room] < 1.0 - eps))
        ok &= bool(np.all(sizes >= 1))
    elapsed = time.time() - t0
    report(
        2,
        "point-wise error coverage and minimality",
        ok and elapsed < 5,
        f"30000 predictions in {elapsed:.2f}s",
    )


def test_criterion_3_average_size_consistency():
    """Held-out mean set size stays within kbar +/- 0.1 across 10 seeds.

    Pilot: seed-to-seed deviation is about 0.02, so the 0.1 tolerance is
    roughly five standard deviations.
    """
    kbar, L, N = 2.0, 10, 10_000
    spec = FormulationSpec(Kind.AVERAGE_SIZE, kbar=kbar)
    sizes = []
    for seed in range(10):
        dist = make_distribution("two-regime", L, seed)
        calib = sample_scores(dist, N, seed)
        held_out = sample_scores(dist, N, seed + 1000)
        clf = calibrate(spec, calib)
        sizes.append(evaluate(clf, held_out).avg_size)
    sizes = np.array(sizes)
    ok = bool(np.all(np.abs(sizes - kbar) <= 0.1))
    report(
        3,
        "average-size calibration consistency",
        ok,
        f"held-out sizes in [{sizes.min():.3f}, {sizes.max():.3f}]",
    )


def test_criterion_4_average_error_consistency():
    """Held-out error within ebar +/- 0.02; and with only 100 calibration
    samples the error fit is relatively noisier than the size fit."""
    ebar, kbar, L, N = 0.05, 2.0, 10, 10_000
    error_spec = FormulationSpec(Kind.AVERAGE_ERROR, ebar=ebar)
    size_spec = FormulationSpec(Kind.AVERAGE_SIZE, kbar=kbar)
    errors = []
    for seed in range(10):
        dist = make_distribution("two-regime", L, seed)
        calib = sample_scores(dist, N, seed)
        held_out = sample_scores(dist, N, seed + 1000)
        clf = calibrate(error_spec, calib)
        errors.append(evaluate(clf, held_out).avg_error)
    errors = np.array(errors)
    within = bool(np.all(np.abs(errors - ebar) <= 0.02))

    err_small, size_small = [], []
    for seed in range(10):
        dist = make_distribution("two-regime", L, seed)
        calib = sample_scores(dist, 100, seed)
        held_out = sample_scores(dist, N, seed + 1000)
        err_small.append(
            evaluate(calibrate(error_spec, calib), held_out).avg_error
        )
        size_small.append(
            evaluate(calibrate(size_spec, calib), held_out).avg_size
        )
    # deviations relative to the constraint each fit targets
    ratio = (np.std(err_small) / ebar) / (np.std(size_small) / kbar)
    report(
        4,
        "average-error calibration consistency",
        within and ratio > 1.0,
        f"errors in [{min(errors):.4f}, {max(errors):.4f}], "
        f"small-sample relative-std ratio {ratio:.2f}",
    )


def test_criterion_5_offset_reduces_violations():
    """Enabling the sqrt(L/n) offset strictly shrinks the fraction of
    classes whose conditional error exceeds eps, on miscalibrated scores."""
    L, n_cal, n_test, noise = 10, 8000, 10_000, 0.35
    r = pointwise_offset(n_cal, L)
    ok = True
    details = []
    for eps in (0.05, 0.1):
        for seed in range(10):
            dist = make_distribution("dirichlet-like", L, seed)
            calib = sample_scores(dist, n_cal, seed + 200, noise=noise)
            test = sample_scores(dist, n_test, seed + 500, noise=noise)
            spec = FormulationSpec(Kind.POINTWISE_ERROR, eps=eps)
            plain = calibrate(spec, calib)
            corrected = calibrate(spec, calib, offset="auto")
            assert corrected.offset == r
            frac, frac_off = (
                PerClassViolation.from_rates(
                    evaluate(clf, test).per_class_error, eps
                ).violation_fraction
                for clf in (plain, corrected)
            )
            if not frac_off < frac:
                ok = False
                details.append((eps, seed, frac, frac_off))
    report(
        5,
        "offset correction effect",
        ok,
        "strict decrease on all 20 (eps, seed) pairs"
        if ok
        else f"failures: {details}",
    )


def test_criterion_6_fscore_root():
    """The fitted root solves the optimality condition to 1e-10 and beats
    every cutoff on a millesimal grid."""
    grid = np.linspace(0.0, 1.0, 1001)
    ok = True
    details = []
    cases = [
        ("dirichlet-like", 0, 1.0),
        ("dirichlet-like", 1, 0.5),
        ("two-regime", 2, 1.0),
        ("two-regime", 3, 2.0),
        ("near-deterministic", 4, 1.0),
    ]
    for template, seed, beta in cases:
        dist = make_distribution(template, 6, seed, support=16)
        theta_star = population_threshold(
            dist, FormulationSpec(Kind.F_SCORE, beta=beta)
        )
        hinge = np.clip(dist.cond - theta_star, 0.0, None).sum(axis=1)
        residual = abs(
            beta * beta * theta_star - float(dist.marginal @ hinge)
        )

        member = dist.cond[None, :, :] >= grid[:, None, None]
        rec = np.einsum("gml,ml,m->g", member, dist.cond, dist.marginal)
        size = np.einsum("gml,m->g", member.astype(float), dist.marginal)
        f_grid = (1 + beta**2) * rec / (beta**2 + size)

        member_star = dist.cond >= theta_star
        rec_star = float(
            dist.marginal @ (member_star * dist.cond).sum(axis=1)
        )
        size_star = float(dist.marginal @ member_star.sum(axis=1))
        f_star = (1 + beta**2) * rec_star / (beta**2 + size_star)

        case_ok = residual <= 1e-10 and f_star >= f_grid.max() - 1e-12
        ok &= case_ok
        details.append(
            f"{template}/b={beta}: residual {residual:.1e}, "
            f"f*-max {f_star - f_grid.max():+.1e}"
        )
    report(6, "F-score root and grid maximality", ok, "; ".join(details))


def test_criterion_7_equivalences():
    """Penalized == generic thresholding; hybrid at k=L == average size;
    empirical step functions converge to the exact ones."""
    P = random_vectors(10_000, 8, seed=13)
    thetas = np.random.default_rng(14).uniform(0, 1.05, size=10_000)
    same = all(
        np.array_equal(
            CalibratedClassifier(
                FormulationSpec(Kind.PENALIZED, lam=thetas[i])
            ).predict_set_mask(ScoreSet(ids=["x"], probs=P[i : i + 1]))[0],
            P[i] >= thetas[i],
        )
        for i in range(0, 10_000, 97)
    )
    # full vectorized identity on all rows: the penalized rule and the
    # calibrated-cutoff rule are both thresholding
    cutoff_spec = FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0)
    for theta in (0.0, 0.11, 0.47, 0.93):
        penalized_spec = FormulationSpec(Kind.PENALIZED, lam=theta)
        penalized = rule_mask(penalized_spec, P, None)
        cutoff = rule_mask(cutoff_spec, P, theta)
        same &= bool(np.array_equal(penalized, P >= theta))
        same &= bool(np.array_equal(cutoff, penalized))

    rng = np.random.default_rng(15)
    probs = rng.dirichlet(np.ones(6), size=500)
    s = ScoreSet(ids=[str(i) for i in range(500)], probs=probs)
    hybrid_equal = all(
        calibrate(FormulationSpec(Kind.HYBRID_SIZE, kbar=kbar, k=6), s).theta
        == calibrate(FormulationSpec(Kind.AVERAGE_SIZE, kbar=kbar), s).theta
        for kbar in (0.5, 1.0, 2.7, 4.9)
    )

    N = 100_000
    dist = make_distribution("dirichlet-like", 4, 7)
    cal = sample_scores(dist, N, 7)
    probes = np.linspace(0.02, 0.95, 20)
    size = FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.0)
    error = FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.5)
    g, h = step_function(size, cal), step_function(error, cal)
    G, H = (population_step_function(dist, spec) for spec in (size, error))
    g_err = np.abs(g.value(probes) - G.value(probes))
    h_err = np.abs(h.value(probes) - H.value(probes))
    bound = 2.0 / math.sqrt(N)
    converged = bool(g_err.max() <= bound and h_err.max() <= bound)

    report(
        7,
        "equivalence identities and empirical convergence",
        same and hybrid_equal and converged,
        f"max |G-Ghat| {g_err.max():.2e}, max |H-Hhat| {h_err.max():.2e}, "
        f"bound {bound:.2e}",
    )


def test_criterion_8_monotonicity_nesting():
    """Nesting in k, antitonicity in theta and eps, hybrid containment,
    on 10,000 random vectors."""
    P = random_vectors(10_000, 7, seed=23)
    ok = True
    prev = topk_mask(P, 0)
    for k in range(1, 8):
        cur = topk_mask(P, k)
        ok &= bool(np.all(cur.sum(axis=1) == k))
        ok &= not np.any(prev & ~cur)
        prev = cur
    grid = [0.0, 0.05, 0.2, 0.5, 0.9, 1.0]
    for lo, hi in zip(grid, grid[1:]):
        ok &= not np.any(threshold_mask(P, hi) & ~threshold_mask(P, lo))
    eps_grid = [0.01, 0.05, 0.2, 0.5, 0.9]
    masks = [pointwise_error_mask(P, e, 0.0) for e in eps_grid]
    for small, big in zip(masks[1:], masks[:-1]):
        ok &= not np.any(small & ~big)
    for theta in (0.1, 0.3):
        for k in (1, 3, 5):
            hybrid = threshold_mask(P, theta) & topk_mask(P, k)
            ok &= not np.any(hybrid & ~topk_mask(P, k))
            ok &= not np.any(hybrid & ~threshold_mask(P, theta))
    report(8, "monotonicity and nesting invariants", ok, "10000 vectors")


def test_criterion_9_infeasibility_detection():
    """A fixture with top-1 error exactly 0.3: budgets below are rejected,
    budgets above accepted, by both the check and the brute force."""
    dist = DiscreteDistribution(
        x_ids=["x"], marginal=[1.0], cond=[[0.7, 0.2, 0.1]]
    )
    eps_k = exact_top_k_error(dist, 1)
    # scores fixture: 10 samples at the support point, 7 labeled with the
    # argmax, 3 with the runner-up, so the empirical rate is 0.3 exactly
    probs = np.tile([0.7, 0.2, 0.1], (10, 1))
    labels = np.array([1] * 7 + [2] * 3)
    s = ScoreSet(
        ids=[str(i) for i in range(10)], probs=probs, labels=labels
    )
    check_low = feasibility_check(s, 1, 0.2)
    check_high = feasibility_check(s, 1, 0.4)
    brute_low = brute_force_avg_error_with_size_cap(dist, 0.2, 1)
    brute_high = brute_force_avg_error_with_size_cap(dist, 0.4, 1)
    ok = (
        abs(eps_k - 0.3) < 1e-12
        and check_low.eps_k == 0.3
        and not check_low.feasible
        and check_high.feasible
        and not brute_low.feasible
        and brute_high.feasible
    )
    report(
        9,
        "infeasibility detection",
        ok,
        f"exact eps_k {eps_k:.12f}, empirical {check_low.eps_k}",
    )


def test_criterion_10_cli_round_trip(tmp_path, monkeypatch):
    """calibrate -> predict -> evaluate is byte-identical across runs."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")

    def pipeline(workdir):
        workdir.mkdir(exist_ok=True)
        prefix = workdir / "data"
        assert main([
            "synth", "--template", "two-regime", "--classes", "6",
            "--n", "1500", "--seed", "3", "--split", "500,500,500",
            "--out-prefix", str(prefix),
        ]) == 0
        model = workdir / "m.model"
        assert main([
            "calibrate", "--formulation", "average-error", "--ebar", "0.1",
            "--scores", f"{prefix}_calib.csv", "--model", str(model),
            "--seed", "3",
        ]) == 0
        preds = workdir / "preds.csv"
        assert main([
            "predict", "--model", str(model),
            "--scores", f"{prefix}_test.csv", "--out", str(preds),
        ]) == 0
        metrics = workdir / "metrics.txt"
        assert main([
            "evaluate", "--model", str(model),
            "--test", f"{prefix}_test.csv", "--out", str(metrics),
        ]) == 0
        return [
            Path(f"{prefix}_calib.csv").read_bytes(),
            model.read_bytes(),
            preds.read_bytes(),
            metrics.read_bytes(),
        ]

    run_a = pipeline(tmp_path / "a")
    run_b = pipeline(tmp_path / "b")
    run_c = pipeline(tmp_path / "c")
    ok = run_a == run_b == run_c
    report(
        10,
        "CLI round-trip determinism",
        ok,
        "3 pipelines byte-identical",
    )
