"""Fingerprint every output of a fixed CLI chain, to compare two trees.

Runs ``synth``, ``calibrate`` (every kind, both hybrid-error modes, a
fitted temperature and the automatic offset), ``predict``, ``evaluate
--per-class``, ``sweep`` at T=1 and T=fit, and ``oracle-check`` in a
temporary directory with ``SOURCE_DATE_EPOCH=0``, at L=100 and at L=1000.
A two-regime chain at L=10 (noise 0.2, as in the sweep-bootstrap
benchmark) runs ``synth``, ``calibrate`` for every kind, ``predict``,
``evaluate --per-class`` and every ``sweep``, with size budgets, caps and
grids scaled to 10 classes, so masks narrow enough for ``row_counts`` to
sum across columns leave a fingerprint.  Its models fit on ``probs`` read
as a column slice of the parsed table and predict into fresh masks, so
both of ``label_entries``' gathers leave one too.
``oracle-check`` runs on 20 random distributions and on two desk-scale
``synth`` truth files read back with ``--fixture``, so the population
cutoffs are fingerprinted both ways.  One has 4 classes and 3 support
points.  The other has 9 classes and 2 support points: numpy sums rows
of 8 or more entries pairwise, so the oracle's exact metrics and brute
force leave a fingerprint there too.
The hybrid-size rule caps at k only the rows holding more than k labels
above its threshold.  Two hybrid-size models at k=20 cover it: at kbar=10
no row is over, and at kbar=19 about 40 % of the rows are over at L=100
and about 55 % at L=1000, so capped and uncapped rows leave a fingerprint.
A two-regime set at L=1000, whose point-wise sets hold 1 to about 840
labels, also runs calibrate, predict and evaluate for the point-wise and
hybrid-error union models.  Its rows are put in descending order of their
largest probability, so blocks of one-label sets come first and the
point-wise mask's short-prefix blocks and its full-row fallback both
leave a fingerprint.  A noiseless ``synth`` set at L=1000 runs calibrate,
predict and evaluate for the top-k and point-wise models, so the
sampler's noiseless logits at many classes leave one too.  Average-size and
F-score models on the L=10 two-regime set, the L=1000 set and the L=1000
two-regime set take each branch of ``calibrate``'s top-knot selection:
average-size selected by rank and gated off, and F-score selected by its
bound, retried with the largest score below the bound (no pooled score
lies between the bound and the root) and fallen back to all scores.  A
chain at a fixed ``--temperature 0.7`` runs the average-size, point-wise and
hybrid-error union models and every sweep at L=100 and at L=1000, so
fitting and predicting on rescaled logits leave one as well.  The L=100
files with their logits scaled by 1e-3 and by 1e3 (probabilities
recomputed) run the point-wise and average-size models at a fitted
temperature, which lands on the lower and the upper bound.  On a host
with two or more usable CPUs the L=1000 ``synth`` files (500 rows of 2000
floats) are written and read in pieces, each past the first by a forked
child, while the L=100 ones (500 rows of 200 floats) are written and read
in one, so a diff against another tree compares both write paths and both
read paths.  By the same rule the row-blocked kernels run on the L=1000
sets in pieces, a thread each, and on the L=100 ones in one piece; under
``taskset -c 0`` everything runs in one piece.  Prints a ``#`` line naming
the numpy and Python versions, then one ``sha256  name`` line per output
file and per command's stdout and exit code.  Two trees that behave
alike print identical text:

    PYTHONPATH=src python scripts/cli_digest.py > new.txt
    PYTHONPATH=../old/src python scripts/cli_digest.py > old.txt
    diff old.txt new.txt

``scripts/cli_digest.sha256`` is that text for the current outputs.
``--check`` compares a run against such a golden file: it prints each
name whose digest differs, or that only one side has, and exits 1 if
any does.  numpy's SIMD ``exp``/``log`` and its pairwise sums can change
bits across versions and CPUs, so it says when the golden file was made
with another numpy or Python:

    PYTHONPATH=src python scripts/cli_digest.py --check scripts/cli_digest.sha256

A change that moves an output on purpose rewrites the golden file:

    PYTHONPATH=src python scripts/cli_digest.py > scripts/cli_digest.sha256
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from predsets.cli import main
from predsets.core import ScoreSet, softmax
from predsets.io import read_scores, write_scores

#: name, calibrate flags; each model is also predicted and evaluated
MODELS = (
    ("top-k", ["--formulation", "top-k", "--k", "5"]),
    ("pointwise", ["--formulation", "pointwise-error", "--eps", "0.1"]),
    ("pointwise-auto", ["--formulation", "pointwise-error", "--eps", "0.3",
                        "--offset", "auto"]),
    ("pointwise-fit", ["--formulation", "pointwise-error", "--eps", "0.1",
                       "--temperature", "fit"]),
    ("penalized", ["--formulation", "penalized", "--lambda", "0.002"]),
    ("average-size", ["--formulation", "average-size", "--kbar", "10"]),
    ("average-size-fit", ["--formulation", "average-size", "--kbar", "10",
                          "--temperature", "fit"]),
    ("average-error", ["--formulation", "average-error", "--ebar", "0.1"]),
    ("hybrid-size", ["--formulation", "hybrid-size", "--kbar", "10",
                     "--k", "20"]),
    ("hybrid-size-near-k", ["--formulation", "hybrid-size", "--kbar", "19",
                            "--k", "20"]),
    ("hybrid-error-lemma", ["--formulation", "hybrid-error", "--ebar", "0.4999",
                            "--eps", "0.5"]),
    ("hybrid-error-union", ["--formulation", "hybrid-error", "--ebar", "0.4999",
                            "--eps", "0.5", "--mode", "union-with-pointwise"]),
    ("f-score", ["--formulation", "f-score", "--beta", "1"]),
)

#: the models also run on the two-regime set
TWO_REGIME_MODELS = tuple(
    (name, flags) for name, flags in MODELS
    if name in ("pointwise", "pointwise-fit", "pointwise-auto",
                "hybrid-error-union")
)

#: the models also run on the noiseless set
NOISELESS_MODELS = tuple(
    (name, flags) for name, flags in MODELS if name in ("top-k", "pointwise")
)

#: the models also run at a fixed temperature of 0.7
FIXED_T_MODELS = tuple(
    (name, [*flags, "--temperature", "0.7"]) for name, flags in MODELS
    if name in ("pointwise", "average-size", "hybrid-error-union")
)

#: the models also run on the L=100 files with scaled logits
SCALED_MODELS = tuple(
    (name, flags) for name, flags in MODELS
    if name in ("pointwise-fit", "average-size-fit")
)

#: the models at L=10, their size budgets, caps and grids scaled to 10
#: classes as in the sweep-bootstrap benchmark
NARROW_MODELS = tuple((name, {
    "top-k": ["--formulation", "top-k", "--k", "3"],
    "penalized": ["--formulation", "penalized", "--lambda", "0.05"],
    "average-size": ["--formulation", "average-size", "--kbar", "2"],
    "average-size-fit": ["--formulation", "average-size", "--kbar", "2",
                         "--temperature", "fit"],
    "hybrid-size": ["--formulation", "hybrid-size", "--kbar", "1.5",
                    "--k", "3"],
    "hybrid-size-near-k": ["--formulation", "hybrid-size", "--kbar", "2.5",
                           "--k", "3"],
    "hybrid-error-lemma": ["--formulation", "hybrid-error", "--ebar", "0.2",
                           "--eps", "0.3"],
    "hybrid-error-union": ["--formulation", "hybrid-error", "--ebar", "0.2",
                           "--eps", "0.3", "--mode", "union-with-pointwise"],
}.get(name, flags)) for name, flags in MODELS)

#: data set, then models taking the branches of calibrate's top-knot
#: selection (500 calibration rows) that the models above leave out: those
#: select average-size (kbar 2 at L=10, 10 at L=1000) and the F-score
#: (beta 1 at L=1000), and retry the F-score at beta 1 at L=10
SELECTION_MODELS = (
    ("two-regime-L10", (
        ("average-size-gated", ["--formulation", "average-size", "--kbar", "3"]),
        ("f-score-selected", ["--formulation", "f-score", "--beta", "2"]),
        ("f-score-fallback", ["--formulation", "f-score", "--beta", "3"]),
    )),
    ("L1000", (
        ("average-size-gated", ["--formulation", "average-size", "--kbar", "300"]),
        ("f-score-fallback", ["--formulation", "f-score", "--beta", "3"]),
    )),
    ("two-regime-L1000", (
        ("f-score-retried", ["--formulation", "f-score", "--beta", "1"]),
    )),
)

#: name, sweep flags; each runs at T=1 and at T=fit (at T=0.7 in the
#: fixed-temperature chain)
SWEEPS = (
    ("top-k", ["--formulation", "top-k", "--grid", "1,5,20"]),
    ("pointwise", ["--formulation", "pointwise-error", "--grid", "0.05,0.2"]),
    ("average-size", ["--formulation", "average-size", "--grid", "2,10,30"]),
    ("average-error", ["--formulation", "average-error", "--grid", "0.1,0.3"]),
    ("hybrid-size", ["--formulation", "hybrid-size", "--k", "20",
                     "--grid", "2,10"]),
    ("hybrid-error-union", ["--formulation", "hybrid-error", "--eps", "0.5",
                            "--mode", "union-with-pointwise",
                            "--grid", "0.4995,0.4999"]),
    ("f-score", ["--formulation", "f-score", "--grid", "0.5,1,2"]),
)

#: the sweeps at L=10
NARROW_SWEEPS = tuple((name, {
    "top-k": ["--formulation", "top-k", "--grid", "1,3,5"],
    "average-size": ["--formulation", "average-size", "--grid", "1,1.5,3"],
    "hybrid-size": ["--formulation", "hybrid-size", "--k", "3",
                    "--grid", "0.8,1.5,2.5"],
    "hybrid-error-union": ["--formulation", "hybrid-error", "--eps", "0.3",
                           "--mode", "union-with-pointwise",
                           "--grid", "0.2,0.25"],
}.get(name, flags)) for name, flags in SWEEPS)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(name: str, argv: list[str]) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except OSError as exc:  # e.g. the model a failed calibrate left out
            code = type(exc).__name__
    print(f"{digest(out.getvalue().encode())}  stdout:{name} exit={code}")


def peaked_first(path: str) -> None:
    """Rewrite a score file with its rows in descending order of their
    largest probability."""
    scores = read_scores(path)
    order = np.argsort(-scores.probs.max(axis=1), kind="stable")
    write_scores(path, scores.subset(order))


def scaled(source: str, data: str, scale: float) -> None:
    """Write the score files of ``source`` with their logits times
    ``scale`` and the probabilities their softmax, as those of ``data``."""
    for part in ("calib", "test"):
        scores = read_scores(f"{source}_{part}.csv")
        z = scale * scores.logits
        write_scores(f"{data}_{part}.csv", ScoreSet(
            ids=scores.ids, probs=softmax(z), labels=scores.labels, logits=z))


def chain(data: str, template: str, L: int, models=MODELS,
          sweeps=SWEEPS, reorder=False, noise="0.3",
          temperatures=("1.0", "fit")) -> None:
    run(f"synth-{data}", [
        "synth", "--template", template, "--classes", str(L),
        "--n", "1500", "--seed", "7", "--noise", noise, "--out-prefix", data,
    ])
    calib, test = f"{data}_calib.csv", f"{data}_test.csv"
    if reorder:
        peaked_first(calib)
        peaked_first(test)
    fit_models(data, models)
    for name, flags in sweeps:
        for temperature in temperatures:
            tag = f"{data}-{name}-T{temperature}"
            run(f"sweep-{tag}", [
                "sweep", *flags, "--calib", calib, "--test", test,
                "--repeats", "3", "--temperature", temperature,
                "--out", f"{tag}.curve.csv",
            ])


def fit_models(data: str, models) -> None:
    """Calibrate, predict and evaluate each model on ``data``'s files."""
    calib, test = f"{data}_calib.csv", f"{data}_test.csv"
    for name, flags in models:
        tag = f"{data}-{name}"
        run(f"calibrate-{tag}", ["calibrate", *flags, "--scores", calib,
                                 "--model", f"{tag}.model", "--seed", "3"])
        run(f"predict-{tag}", ["predict", "--model", f"{tag}.model",
                               "--scores", test, "--out", f"{tag}.pred.csv"])
        run(f"evaluate-{tag}", [
            "evaluate", "--model", f"{tag}.model", "--test", test,
            "--out", f"{tag}.metrics.txt", "--per-class", f"{tag}.class.csv",
        ])


def digest_all() -> int:
    print(f"# numpy {np.__version__} python {platform.python_version()}")
    os.environ["SOURCE_DATE_EPOCH"] = "0"  # model files' fitted_at
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths: stdout names no temporary path
        try:
            for L in (100, 1000):
                chain(f"L{L}", "dirichlet-like", L)
            chain("two-regime-L10", "two-regime", 10, NARROW_MODELS,
                  NARROW_SWEEPS, noise="0.2")
            for scale in ("1e-3", "1e3"):
                scaled("L100", f"scaled{scale}-L100", float(scale))
                fit_models(f"scaled{scale}-L100", SCALED_MODELS)
            chain("two-regime-L1000", "two-regime", 1000,
                  TWO_REGIME_MODELS, sweeps=(), reorder=True)
            chain("noiseless-L1000", "dirichlet-like", 1000,
                  NOISELESS_MODELS, sweeps=(), noise="0")
            for L in (100, 1000):
                chain(f"T0.7-L{L}", "dirichlet-like", L, FIXED_T_MODELS,
                      temperatures=("0.7",))
            for data, models in SELECTION_MODELS:
                fit_models(data, models)
            run("synth-fixture", [
                "synth", "--template", "dirichlet-like", "--classes", "4",
                "--support", "3", "--n", "30", "--seed", "5",
                "--out-prefix", "fixture",
            ])
            run("oracle-check-fixture", [
                "oracle-check", "--fixture", "fixture_truth.csv", "--seed", "1",
            ])
            run("synth-fixture9", [
                "synth", "--template", "dirichlet-like", "--classes", "9",
                "--support", "2", "--n", "30", "--seed", "5",
                "--out-prefix", "fixture9",
            ])
            run("oracle-check-fixture9", [
                "oracle-check", "--fixture", "fixture9_truth.csv",
                "--seed", "1",
            ])
            run("oracle-check", ["oracle-check", "--count", "20", "--seed", "1"])
            for path in sorted(Path(tmp).iterdir()):
                print(f"{digest(path.read_bytes())}  {path.name}")
        finally:
            os.chdir(home)
    return 0


def check(golden: str) -> int:
    """Run the chains and compare their digests with the file ``golden``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        digest_all()
    want = Path(golden).read_text().splitlines()
    got = out.getvalue().splitlines()
    if want[0] != got[0]:
        print(f"note: {golden} was made with {want[0][2:]}, this run has "
              f"{got[0][2:]}")
    want, got = ({name: sha for sha, name in
                  (line.split("  ", 1) for line in lines[1:])}
                 for lines in (want, got))
    differ = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} names differ; the golden file has {len(want)}")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="GOLDEN",
                        help="compare with a golden digest file")
    args = parser.parse_args()
    sys.exit(check(args.check) if args.check else digest_all())
