"""File formats: score CSVs, model files, metrics, curves, fixtures.

Score files are UTF-8 CSV with header ``id,label,p_1,...,p_L`` and optional
parallel logit columns ``z_1,...,z_L``; the label column is empty for
unlabeled rows.  Floats are serialized with their shortest round-trip
representation, so write -> read -> write is byte-identical.  Score files,
distribution fixtures and per-class CSVs share one reader and one writer.
A read or a write cuts a table's rows into the row pieces of
``core._cuts``, the one piece rule that the row-blocked kernels also
follow: 2**17 floats or more each (some 60 times as long to format, and 20
times as long to parse, as a fork takes), at most one per usable CPU.  It
forks a child for each piece past the first: a reader's child parses its
rows' floats with ``np.loadtxt`` into memory shared with the parent, a
writer's child formats its rows into a temporary file.  The arrays and the
bytes are those of one piece.  Model files are human-readable key-value
text with a version.
"""

from __future__ import annotations

import contextlib
import csv
import math
import mmap
import os
import shutil
import tempfile
from itertools import compress
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .calibration import CalibratedClassifier
from .core import ScoreSet, _cuts
from .errors import ParseError, PredsetsError, RowError, ThetaMismatch
from .evaluation import MetricsReport, SweepCurve, PERCENTILES
from .formulations import FormulationSpec, Kind, KIND_FIELDS
from .oracle import DiscreteDistribution

MODEL_FORMAT_VERSION = 1


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


# --- numeric CSVs: scores, distribution fixtures, per-class rates -----------


@contextlib.contextmanager
def _forked(cuts, child, failure: Exception):
    """Run ``child(a, b)`` in a forked process for each row piece ``a:b``
    of ``cuts`` past the first while the ``with`` body does piece 0, then
    reap the children in order and raise ``failure`` if one exited
    non-zero.  Every child is reaped, also when the body raises."""
    pids = []
    try:
        for a, b in zip(cuts[1:-1], cuts[2:]):
            pids.append(os.fork())
            if pids[-1] == 0:  # the child exits 0 only once child returned
                try:
                    child(a, b)
                    os._exit(0)
                finally:
                    os._exit(1)
        yield
        while pids:
            if os.waitpid(pids.pop(0), 0)[1]:
                raise failure
    finally:  # reap every child left, also when a piece failed
        for pid in pids:
            os.waitpid(pid, 0)


def _write_table(path, header, leading, values: np.ndarray) -> None:
    """Write ``header``, then one line per row of ``values``: that row's
    csv-quoted ``leading`` fields, then its floats.  Rows past the first
    of the :func:`_cuts` pieces are formatted by forked children."""
    # writerow returns what the file's write returns: here the quoted line.
    # csv quotes a field holding a character of the line terminator, so
    # "\r\n" (cut off again) makes it quote "\r" as well as "\n"; the
    # trailing empty field keeps csv from quoting a lone empty field
    join = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n").writerow
    leading = list(leading)
    cuts = _cuts(len(leading), values.size)

    def write_rows(fh, a, b):
        for fields, row in zip(leading[a:b], values[a:b]):
            floats = ",".join(map(repr, row.tolist()))
            fh.write(f"{join([*fields, ''])[:-2]}{floats}\n")

    def write_part(a, b):  # flushed, or the child's rows stay in its buffer
        write_rows(parts[a], a, b)
        parts[a].flush()

    with contextlib.ExitStack() as files:
        fh = files.enter_context(Path(path).open("w", encoding="utf-8", newline=""))
        fh.write(f"{join(header)[:-2]}\n")
        # newline="" keeps a quoted "\r" in an id as it is
        parts = {a: files.enter_context(tempfile.TemporaryFile(
            "w+", encoding="utf-8", newline="")) for a in cuts[1:-1]}
        with _forked(cuts, write_part, OSError(f"{path}: a writer process failed")):
            write_rows(fh, 0, cuts[1])
        for part in parts.values():
            part.seek(0)
            shutil.copyfileobj(part, fh)


def _read_table(path, check_header, converters):
    """Parse a CSV whose first ``len(converters)`` columns are text and
    whose other columns are floats.

    ``check_header(path, header)`` raises :class:`ParseError` on a bad
    header and returns what the caller needs from it.  Returns that, the
    leading columns (one list per converter) and the floats as an (n, m)
    array that ``np.loadtxt`` fills, one :func:`_forked` piece a process.
    A file holding a quote, and a file with any line that fails there,
    goes through :func:`_parse_records`, which raises the first error.
    """
    with path.open("r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    if len(lines) < 2 or any('"' in line for line in lines):
        return _parse_records(path, check_header, converters)
    header = lines[0].rstrip("\r\n").split(",")
    shape = check_header(path, header)
    body, n_lead, rows = lines[1:], len(converters), []
    n, m = len(body), len(header) - n_lead
    cuts = _cuts(n, n * m)
    # shared, so that a child's rows land in the parent's array
    values = np.ndarray((n, m), buffer=mmap.mmap(-1, 8 * n * m))

    def parse(a, b):
        values[a:b] = np.loadtxt(body[a:b], delimiter=",", comments=None,
                                 usecols=range(n_lead, n_lead + m), ndmin=2)

    try:
        with _forked(cuts, parse, ValueError("a parser process failed")):
            for line in body:
                fields = line.split(",", n_lead)
                # loadtxt ignores fields past usecols, so count them here
                if len(fields) <= n_lead or fields[-1].count(",") != m - 1:
                    raise ValueError("wrong field count")
                rows.append(fields[:n_lead])
            columns = [list(map(convert, column))
                       for convert, column in zip(converters, zip(*rows))]
            parse(0, cuts[1])
    except (ValueError, OSError):  # OSError: this process could not fork
        return _parse_records(path, check_header, converters)
    return shape, columns, values


def _parse_records(path, check_header, converters):
    """Parse record by record with ``csv``, raising at the first bad line."""
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        shape = check_header(path, header)
        rows, values = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: expected {len(header)} fields, got {len(row)}",
                    line=lineno,
                )
            try:
                rows.append([c(v) for c, v in zip(converters, row)])
                values.append([float(v) for v in row[len(converters) :]])
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", line=lineno) from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return shape, [list(column) for column in zip(*rows)], np.array(values)


def write_scores(path, scores: ScoreSet) -> None:
    names = [f"p_{j}" for j in range(1, scores.L + 1)]
    values = scores.probs
    if scores.logits is not None:
        names += [f"z_{j}" for j in range(1, scores.L + 1)]
        values = np.hstack([scores.probs, scores.logits])
    labels = ["" if v == 0 else str(v) for v in scores.labels.tolist()]
    header = ["id", "label"] + names
    _write_table(path, header, zip(scores.ids, labels), values)


def _score_header(path, header) -> int:
    """Class count ``L`` of a valid score-file header."""
    L = sum(1 for name in header if name.startswith("p_"))
    expected = ["id", "label"] + [f"p_{j}" for j in range(1, L + 1)]
    if len(header) > L + 2:
        expected += [f"z_{j}" for j in range(1, L + 1)]
    if header != expected or L < 2:
        raise ParseError(
            f"{path}: header must be id,label,p_1..p_L[,z_1..z_L], "
            f"got {','.join(header)}",
            line=1,
        )
    return L


def read_scores(path) -> ScoreSet:
    path = Path(path)
    L, (ids, labels), values = _read_table(
        path, _score_header, (str, lambda text: int(text) if text else None)
    )
    # an empty label means unlabeled; a written label must lie in [1, L]
    labelled = np.array([v is not None for v in labels])
    labels = np.array([v or 0 for v in labels], dtype=np.int64)
    non_finite = ~np.isfinite(values).all(axis=1)
    bad = non_finite | (labelled & ((labels < 1) | (labels > L)))
    if bad.any():
        row = int(np.argmax(bad))
        kind = "logit" if np.isfinite(values[row, :L]).all() else "probability"
        problem = (
            f"non-finite {kind}"
            if non_finite[row]
            else f"label {labels[row]} outside [1, {L}]"
        )
        raise ParseError(f"{path}: {problem} in {ids[row]!r}", line=row + 2)
    try:
        return ScoreSet(
            ids=ids,
            probs=values[:, :L],
            labels=labels,
            logits=values[:, L:] if values.shape[1] > L else None,
        )
    except RowError as exc:
        raise ParseError(f"{path}: {exc}", line=exc.row + 2) from None


def write_predictions(path, ids, mask: np.ndarray) -> None:
    """One row per sample: id, semicolon-joined ascending labels, set size."""
    names = [str(j) for j in range(1, mask.shape[1] + 1)]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "labels", "size"])
        writer.writerows(
            (sample_id, ";".join(compress(names, row)), sum(row))
            for sample_id, row in zip(ids, map(np.ndarray.tolist, mask))
        )


def write_distribution(path, dist: DiscreteDistribution) -> None:
    header = ["x_id", "marginal"] + [f"p_{j}" for j in range(1, dist.L + 1)]
    values = np.column_stack([dist.marginal, dist.cond])
    _write_table(path, header, zip(dist.x_ids), values)


def _distribution_header(path, header) -> None:
    L = len(header) - 2
    expected = ["x_id", "marginal"] + [f"p_{j}" for j in range(1, L + 1)]
    if header != expected or L < 2:
        raise ParseError(
            f"{path}: header must be x_id,marginal,p_1..p_L with L >= 2, "
            f"got {','.join(header)}",
            line=1,
        )


def read_distribution(path) -> DiscreteDistribution:
    _, (x_ids,), values = _read_table(
        Path(path), _distribution_header, (str,)
    )
    try:
        return DiscreteDistribution(x_ids, values[:, 0], values[:, 1:])
    except RowError as exc:  # support point j is line j + 2; a sum is no line's
        line = None if exc.row is None else exc.row + 2
        raise ParseError(f"{path}: {exc}", line=line) from None


# --- model files -------------------------------------------------------------

# the spec's offset has its own line, next to the temperature
_SPEC_FIELDS = ("k", "eps", "lam", "kbar", "ebar", "beta", "mode")

#: Provenance keys a model file carries, in file order, with their parsers.
_PROVENANCE_PARSERS = {
    "L": int,
    "calibration_set_size": int,
    "seed": int,
    "fitted_at": str,
    "temperature_at_bound": {"True": True, "False": False}.__getitem__,
}


def write_model(path, clf: CalibratedClassifier) -> None:
    lines = [f"format_version: {MODEL_FORMAT_VERSION}"]
    lines.append(f"kind: {clf.spec.kind.value}")
    for name in _SPEC_FIELDS:
        if name in KIND_FIELDS[clf.spec.kind]:
            value = getattr(clf.spec, name)
            text = value if name in ("k", "mode") else fmt(value)
            lines.append(f"{name}: {text}")
    if clf.theta is not None:
        lines.append(f"theta: {fmt(clf.theta)}")
    lines.append(f"temperature: {fmt(clf.temperature)}")
    lines.append(f"offset: {fmt(clf.offset)}")
    for key in _PROVENANCE_PARSERS:
        if key in clf.provenance and clf.provenance[key] is not None:
            lines.append(f"{key}: {clf.provenance[key]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_model(path) -> CalibratedClassifier:
    path = Path(path)
    entries: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError(f"{path}: expected 'key: value'", line=lineno)
        key, value = line.split(":", 1)
        key = key.strip()
        if key in entries:
            raise ParseError(f"{path}: repeated key {key!r}", line=lineno)
        entries[key] = value.strip()
        line_of[key] = lineno
    version = entries.pop("format_version", None)
    if version != str(MODEL_FORMAT_VERSION):
        raise ParseError(
            f"{path}: unsupported format_version {version!r}"
        )
    if "kind" not in entries:
        raise ParseError(f"{path}: missing kind")
    try:
        kind = Kind(entries.pop("kind"))
    except ValueError as exc:
        raise ParseError(f"{path}: bad or missing kind ({exc})") from None

    def grab(name, parse=float, default=None):
        """Remove and parse one entry; ``default`` when absent."""
        if name not in entries:
            return default
        text = entries.pop(name)
        try:
            value = parse(text)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError
        except (KeyError, ValueError):
            raise ParseError(
                f"{path}: bad {name} value {text!r}", line=line_of[name]
            ) from None
        return value

    spec_kwargs = {}
    for name in _SPEC_FIELDS:
        value = grab(name, {"k": int, "mode": str}.get(name, float))
        if value is not None:
            spec_kwargs[name] = value
    theta = grab("theta")
    temperature = grab("temperature", default=1.0)
    if temperature <= 0:
        raise ParseError(
            f"{path}: temperature {temperature!r} must be > 0",
            line=line_of["temperature"],
        )
    # every kind writes offset 0; the spec rejects any other but pointwise's
    spec_kwargs["offset"] = grab("offset", default=0.0)
    provenance = {}
    for key, parse in _PROVENANCE_PARSERS.items():
        value = grab(key, parse)
        if value is not None:
            provenance[key] = value
    if entries:
        raise ParseError(f"{path}: unknown keys {sorted(entries)}")
    try:
        return CalibratedClassifier(
            spec=FormulationSpec(kind, **spec_kwargs),
            theta=theta,
            temperature=temperature,
            provenance=provenance,
        )
    except PredsetsError as exc:
        # name the line when one key is at fault
        key = getattr(exc, "field", None)
        if isinstance(exc, ThetaMismatch):
            key = "theta"
        raise ParseError(f"{path}: {exc}", line=line_of.get(key)) from None


# --- metrics / curves ----------------------------------------------------------


def metrics_text(report: MetricsReport, gate_lines: list[str] | None = None) -> str:
    lines = [
        f"n_samples: {report.n_samples}",
        f"avg_error: {fmt(report.avg_error)}",
        f"avg_size: {fmt(report.avg_size)}",
        f"recall: {fmt(report.recall)}",
        "precision: absent"
        if report.precision is None
        else f"precision: {fmt(report.precision)}",
        f"f_beta: {fmt(report.f_beta)}",
        f"beta: {fmt(report.beta)}",
        f"empty_set_rate: {fmt(report.empty_set_rate)}",
    ]
    if gate_lines:
        lines.extend(gate_lines)
    return "\n".join(lines) + "\n"


def write_metrics(path, report: MetricsReport, gate_lines=None) -> None:
    Path(path).write_text(
        metrics_text(report, gate_lines), encoding="utf-8"
    )


def write_per_class(path, report: MetricsReport) -> None:
    classes = sorted(report.per_class_error)
    header = ["label", "error_rate", "avg_size"]
    values = np.array(
        [
            [report.per_class_error[c], report.per_class_avg_size[c]]
            for c in classes
        ]
    )
    _write_table(path, header, zip(classes), values)


def write_curve(path, curve: SweepCurve) -> None:
    path = Path(path)
    qcols = [f"violation_q{q}" for q in PERCENTILES]
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "param",
                "avg_error_mean",
                "avg_error_std",
                "avg_size_mean",
                "avg_size_std",
                "status",
            ]
            + qcols
        )
        for pt in curve.points:
            row = [
                fmt(pt.param),
                "" if pt.avg_error is None else fmt(pt.avg_error),
                "" if pt.std_error is None else fmt(pt.std_error),
                "" if pt.avg_size is None else fmt(pt.avg_size),
                "" if pt.std_size is None else fmt(pt.std_size),
                pt.status,
            ]
            if pt.violation_quantiles:
                row += [fmt(pt.violation_quantiles[q]) for q in PERCENTILES]
            else:
                row += [""] * len(PERCENTILES)
            writer.writerow(row)
