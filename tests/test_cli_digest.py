"""A fast part of ``scripts/cli_digest.py`` against its golden file.

The L=10 two-regime chain (synth, calibrate, predict, evaluate and every
sweep of the narrow models) and ``oracle-check --count 20 --seed 1`` run
in a temporary directory, as the full digest runs them, and each name
they produce must carry the golden file's digest.  The full run takes
about a minute; this part takes about a second.
"""

import contextlib
import importlib.util
import io
import platform
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "scripts" / "cli_digest.sha256"


def load_digest_script():
    spec = importlib.util.spec_from_file_location(
        "cli_digest", ROOT / "scripts" / "cli_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_l10_chain_and_oracle_check_match_golden(tmp_path, monkeypatch):
    header, *lines = GOLDEN.read_text().splitlines()
    here = f"# numpy {np.__version__} python {platform.python_version()}"
    if header != here:
        pytest.skip(f"golden digest made with {header[2:]}, this run has "
                    f"{here[2:]}: numpy's SIMD and pairwise sums may differ")
    golden = dict(reversed(line.split("  ", 1)) for line in lines)
    digest = load_digest_script()
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        digest.chain("two-regime-L10", "two-regime", 10, digest.NARROW_MODELS,
                     digest.NARROW_SWEEPS, noise="0.2")
        digest.run("oracle-check",
                   ["oracle-check", "--count", "20", "--seed", "1"])
    got = dict(reversed(line.split("  ", 1))
               for line in out.getvalue().splitlines())
    for path in tmp_path.iterdir():
        got[path.name] = digest.digest(path.read_bytes())
    assert len(got) > 100
    differ = sorted(name for name in got if got[name] != golden.get(name))
    assert not differ, f"{len(differ)} of {len(got)} names differ: {differ}"
