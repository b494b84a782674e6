"""Fingerprint every output of a fixed CLI chain, to compare two trees.

Runs ``synth``, ``calibrate`` (every kind, both hybrid-error modes, a
fitted temperature and the automatic offset), ``predict``, ``evaluate
--per-class``, ``sweep`` at T=1 and T=fit, and ``oracle-check`` in a
temporary directory with ``SOURCE_DATE_EPOCH=0``, at L=100 and at L=1000.
Prints one ``sha256  name`` line per output file and per command's stdout
and exit code.  Two trees that behave alike print identical text:

    PYTHONPATH=src python scripts/cli_digest.py > new.txt
    PYTHONPATH=../old/src python scripts/cli_digest.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from predsets.cli import main

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
    ("hybrid-error-lemma", ["--formulation", "hybrid-error", "--ebar", "0.4999",
                            "--eps", "0.5"]),
    ("hybrid-error-union", ["--formulation", "hybrid-error", "--ebar", "0.4999",
                            "--eps", "0.5", "--mode", "union-with-pointwise"]),
    ("f-score", ["--formulation", "f-score", "--beta", "1"]),
)

#: name, sweep flags; each runs at T=1 and at T=fit
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


def chain(L: int) -> None:
    data = f"L{L}"
    run(f"synth-{data}", [
        "synth", "--template", "dirichlet-like", "--classes", str(L),
        "--n", "1500", "--seed", "7", "--noise", "0.3", "--out-prefix", data,
    ])
    calib, test = f"{data}_calib.csv", f"{data}_test.csv"
    for name, flags in MODELS:
        tag = f"{data}-{name}"
        run(f"calibrate-{tag}", ["calibrate", *flags, "--scores", calib,
                                 "--model", f"{tag}.model", "--seed", "3"])
        run(f"predict-{tag}", ["predict", "--model", f"{tag}.model",
                               "--scores", test, "--out", f"{tag}.pred.csv"])
        run(f"evaluate-{tag}", [
            "evaluate", "--model", f"{tag}.model", "--test", test,
            "--out", f"{tag}.metrics.txt", "--per-class", f"{tag}.class.csv",
        ])
    for name, flags in SWEEPS:
        for temperature in ("1.0", "fit"):
            tag = f"{data}-{name}-T{temperature}"
            run(f"sweep-{tag}", [
                "sweep", *flags, "--calib", calib, "--test", test,
                "--repeats", "3", "--temperature", temperature,
                "--out", f"{tag}.curve.csv",
            ])


def digest_all() -> int:
    os.environ["SOURCE_DATE_EPOCH"] = "0"  # model files' fitted_at
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths: stdout names no temporary path
        try:
            for L in (100, 1000):
                chain(L)
            run("oracle-check", ["oracle-check", "--count", "3", "--seed", "1"])
            for path in sorted(Path(tmp).iterdir()):
                print(f"{digest(path.read_bytes())}  {path.name}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(digest_all())
