"""File formats: score CSVs, model files, metrics, curves, fixtures.

Score files are UTF-8 CSV with header ``id,label,p_1,...,p_L`` and optional
parallel logit columns ``z_1,...,z_L``; the label column is empty for
unlabeled rows.  Floats are serialized with their shortest round-trip
representation, so write -> read -> write is byte-identical.  Model files
are human-readable key-value text with a format-version field.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .calibration import CalibratedClassifier
from .core import ScoreSet
from .errors import ParseError
from .evaluation import MetricsReport, SweepCurve, PERCENTILES
from .formulations import FormulationSpec, Kind
from .oracle import DiscreteDistribution

MODEL_FORMAT_VERSION = 1


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


# --- score files -----------------------------------------------------------


def write_scores(path, scores: ScoreSet) -> None:
    path = Path(path)
    L = scores.L
    header = ["id", "label"] + [f"p_{j}" for j in range(1, L + 1)]
    if scores.logits is not None:
        header += [f"z_{j}" for j in range(1, L + 1)]
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(scores.n):
            label = scores.labels[i]
            row = [scores.ids[i], "" if label == 0 else str(int(label))]
            row += [fmt(v) for v in scores.probs[i]]
            if scores.logits is not None:
                row += [fmt(v) for v in scores.logits[i]]
            writer.writerow(row)


def read_scores(path) -> ScoreSet:
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        L = sum(1 for name in header if name.startswith("p_"))
        n_logits = sum(1 for name in header if name.startswith("z_"))
        expected = (
            ["id", "label"]
            + [f"p_{j}" for j in range(1, L + 1)]
            + [f"z_{j}" for j in range(1, n_logits + 1)]
        )
        if header != expected or L < 2 or n_logits not in (0, L):
            raise ParseError(
                f"{path}: header must be id,label,p_1..p_L[,z_1..z_L], "
                f"got {','.join(header)}",
                line=1,
            )
        ids, labels, probs, logits = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise ParseError(
                    f"{path}: expected {len(expected)} fields, got {len(row)}",
                    line=lineno,
                )
            ids.append(row[0])
            try:
                labels.append(0 if row[1] == "" else int(row[1]))
                probs.append([float(v) for v in row[2 : 2 + L]])
                if n_logits:
                    logits.append([float(v) for v in row[2 + L :]])
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", line=lineno) from None
    if not ids:
        raise ParseError(f"{path}: no data rows")
    probs = np.array(probs)
    finite = np.isfinite(probs).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ParseError(
            f"{path}: non-finite probability in {ids[row]!r}", line=row + 2
        )
    return ScoreSet(
        ids=ids,
        probs=probs,
        labels=np.array(labels, dtype=np.int64),
        logits=np.array(logits) if n_logits else None,
    )


def write_predictions(path, ids, mask: np.ndarray) -> None:
    """One row per sample: id, semicolon-joined ascending labels, set size."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "labels", "size"])
        for i, sample_id in enumerate(ids):
            labels = np.flatnonzero(mask[i]) + 1
            writer.writerow(
                [sample_id, ";".join(str(v) for v in labels), len(labels)]
            )


# --- model files -------------------------------------------------------------

# the classifier-level offset line is authoritative, so the spec's own
# offset field is not serialized separately
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
        value = getattr(clf.spec, name)
        if name == "mode" and clf.spec.kind is not Kind.HYBRID_ERROR:
            continue
        if value is not None:
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
        entries[key.strip()] = value.strip()
        line_of[key.strip()] = lineno
    version = entries.pop("format_version", None)
    if version != str(MODEL_FORMAT_VERSION):
        raise ParseError(
            f"{path}: unsupported format_version {version!r}"
        )
    try:
        kind = Kind(entries.pop("kind"))
    except (KeyError, ValueError) as exc:
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
    for name in ("k", "eps", "lam", "kbar", "ebar", "beta", "mode"):
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
    offset = grab("offset", default=0.0)
    if kind is Kind.POINTWISE_ERROR:
        spec_kwargs["offset"] = offset
    spec = FormulationSpec(kind, **spec_kwargs)
    provenance = {}
    for key, parse in _PROVENANCE_PARSERS.items():
        value = grab(key, parse)
        if value is not None:
            provenance[key] = value
    if entries:
        raise ParseError(f"{path}: unknown keys {sorted(entries)}")
    return CalibratedClassifier(
        spec=spec,
        theta=theta,
        temperature=temperature,
        offset=offset,
        provenance=provenance,
    )


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
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label", "error_rate", "avg_size"])
        for c in sorted(report.per_class_error):
            writer.writerow(
                [
                    c,
                    fmt(report.per_class_error[c]),
                    fmt(report.per_class_avg_size[c]),
                ]
            )


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


# --- distribution fixtures -------------------------------------------------------


def write_distribution(path, dist: DiscreteDistribution) -> None:
    path = Path(path)
    L = dist.L
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["x_id", "marginal"] + [f"p_{j}" for j in range(1, L + 1)]
        )
        for i in range(dist.n_points):
            writer.writerow(
                [dist.x_ids[i], fmt(dist.marginal[i])]
                + [fmt(v) for v in dist.cond[i]]
            )


def read_distribution(path) -> DiscreteDistribution:
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if header[:2] != ["x_id", "marginal"]:
            raise ParseError(f"{path}: bad header", line=1)
        L = len(header) - 2
        x_ids, marginal, cond = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != L + 2:
                raise ParseError(
                    f"{path}: expected {L + 2} fields", line=lineno
                )
            x_ids.append(row[0])
            try:
                marginal.append(float(row[1]))
                cond.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", line=lineno) from None
    if not x_ids:
        raise ParseError(f"{path}: no data rows")
    return DiscreteDistribution(
        x_ids=x_ids, marginal=np.array(marginal), cond=np.array(cond)
    )
