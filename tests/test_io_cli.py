"""File formats and the command-line pipeline."""

import csv
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from predsets import calibration, core, io
from predsets.calibration import calibrate, step_function
from predsets.cli import main
from predsets.core import ScoreSet, softmax
from predsets.errors import NonFiniteEntry, ParseError
from predsets.evaluation import evaluate, sweep
from predsets.formulations import FormulationSpec, Kind
from predsets.oracle import DiscreteDistribution, make_distribution
from predsets.oracle import sample_scores, synth_generate


@pytest.fixture()
def tiny_scores():
    return ScoreSet(
        ids=["r1", "r2", "r3"],
        probs=[[0.5, 0.3, 0.2], [0.1, 0.7, 0.2], [0.34, 0.33, 0.33]],
        labels=[1, 2, 0],
    )


class TestScoreFiles:
    def test_round_trip_byte_identical(self, tmp_path, tiny_scores):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_scores(p1, tiny_scores)
        loaded = io.read_scores(p1)
        io.write_scores(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.ids == tiny_scores.ids
        assert np.array_equal(loaded.probs, tiny_scores.probs)
        assert np.array_equal(loaded.labels, tiny_scores.labels)

    def test_logits_round_trip(self, tmp_path):
        z = np.log(np.array([[0.6, 0.4], [0.25, 0.75]]))
        s = ScoreSet(
            ids=["a", "b"],
            probs=[[0.6, 0.4], [0.25, 0.75]],
            labels=[1, 2],
            logits=z,
        )
        path = tmp_path / "s.csv"
        io.write_scores(path, s)
        loaded = io.read_scores(path)
        assert np.array_equal(loaded.logits, z)

    def test_unlabeled_column_empty(self, tmp_path, tiny_scores):
        path = tmp_path / "s.csv"
        io.write_scores(path, tiny_scores)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,label,p_1,p_2,p_3"
        assert lines[3].startswith("r3,,")

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,label,p_1\nr1,1,0.5\n")
        with pytest.raises(ParseError):
            io.read_scores(bad)
        bad.write_text("id,label,p_1,p_2\nr1,1,0.5\n")
        with pytest.raises(ParseError) as exc:
            io.read_scores(bad)
        assert exc.value.line == 2

    @pytest.mark.parametrize("read, header", [
        (io.read_scores, "id,label,p_1,p_2"),
        (io.read_distribution, "x_id,marginal,p_1,p_2"),
    ])
    def test_empty_and_header_only_files(self, tmp_path, read, header):
        path = tmp_path / "data.csv"
        for text, problem in (("", "empty file"),
                              (f"{header}\n", "no data rows")):
            path.write_text(text)
            with pytest.raises(ParseError) as exc:
                read(path)
            assert type(exc.value) is ParseError
            assert str(exc.value) == f"{path}: {problem}"
            assert exc.value.line is None

    def test_non_integer_label_names_its_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,label,p_1,p_2\nr1,1,0.5,0.5\nr2,x,0.5,0.5\n")
        with pytest.raises(ParseError) as exc:
            io.read_scores(bad)
        assert exc.value.line == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_probability_names_its_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"id,label,p_1,p_2\nr1,1,0.5,0.5\nr2,2,0.5,0.5\nr3,,{bad},{bad}\n"
        )
        with pytest.raises(ParseError) as exc:
            io.read_scores(path)
        assert exc.value.line == 4

    @pytest.mark.parametrize("bad, problem", [
        ("nan,0.0", "non-finite logit in 'r2'"),
        ("inf,0.0", "non-finite logit in 'r2'"),
        ("-inf,-inf", "non-finite logit in 'r2'"),
        ("nan,-inf", "non-finite logit in 'r2'"),
        # a -inf logit beside a finite largest one is probability 0, not 0.5
        ("-inf,0.0", "row 1: probs are not softmax(logits)"),
    ], ids=["nan", "inf", "all--inf", "nan--inf", "-inf"])
    def test_non_finite_logit_names_its_line(self, tmp_path, bad, problem):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,label,p_1,p_2,z_1,z_2\nr1,1,0.5,0.5,0.0,0.0\n"
            f"r2,2,0.5,0.5,{bad}\n"
        )
        with pytest.raises(ParseError) as exc:
            io.read_scores(path)
        assert exc.value.line == 3
        assert problem in str(exc.value)

    def test_zero_probability_round_trip(self, tmp_path):
        # log 0 = -inf: the set the sampler draws reads back as it was
        dist = DiscreteDistribution(
            ["a", "b"], [0.5, 0.5], [[0, 0.3, 0.7], [0.2, 0.3, 0.5]])
        for noise in (0.0, 0.3):
            s = sample_scores(dist, 50, 1, noise=noise)
            assert np.isneginf(s.logits).any()
            p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
            io.write_scores(p1, s)
            loaded = io.read_scores(p1)
            io.write_scores(p2, loaded)
            assert p1.read_bytes() == p2.read_bytes()
            assert loaded.ids == s.ids
            for name in ("probs", "labels", "logits"):
                assert np.array_equal(getattr(loaded, name), getattr(s, name))

    def test_logits_mismatch_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,label,p_1,p_2,z_1,z_2\nr1,1,0.5,0.5,0.0,0.0\n"
            "r2,2,0.5,0.5,0.0,0.0\nr3,,0.5,0.5,1.0,0.0\n"
        )
        with pytest.raises(ParseError) as exc:
            io.read_scores(path)
        assert exc.value.line == 4
        assert "not softmax(logits" in str(exc.value)

    @pytest.mark.parametrize("row, shown", [
        ("r2,2,0.7,0.7", "row 1: probabilities sum to 1.4, outside 1"),
        ("r2,2,-0.5,1.5", "row 1, entry 0: probability -0.5 < 0"),
    ])
    def test_bad_probability_row_names_its_line(self, tmp_path, row, shown):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,label,p_1,p_2\nr1,1,0.5,0.5\n{row}\n")
        with pytest.raises(ParseError) as exc:
            io.read_scores(path)
        assert exc.value.line == 3
        assert shown in str(exc.value)

    @pytest.mark.parametrize(
        "rows, line",
        [
            (["r1,1,0.5,0.5", "r2,1,0.5,0.5,0.1"], 3),  # too many fields
            (["r1,1,0.5,0.5", "r2,1,0.5"], 3),  # too few fields
            (["r1,1,0.5,0.5", "r2,1,0.5,x"], 3),  # bad float
            (['"r,1",1,0.5,0.5', '"r""2",1.5,0.5,0.5'], 3),  # bad label
            (["r1,1,0.5,0.5", "r2,3,0.5,0.5"], 3),  # label above L
            (["r1,-1,0.5,0.5", "r2,1,0.5,0.5"], 2),  # negative label
            (["r1,1,0.5,0.5", "r2,0,0.5,0.5"], 3),  # 0: unlabeled is empty
            (["r1,1,0.5,0.5", "r2,9,0.5,0.5", "r3,1,nan,nan"], 3),  # label
            (["r1,1,0.5,0.5", "r2,1,nan,nan", "r3,9,0.5,0.5"], 3),  # first
            (["r1,1,0.5,0.5", "r2,x,0.5,0.5", "r3,1,0.5,y"], 3),  # first wins
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, rows, line):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["id,label,p_1,p_2"] + rows) + "\n")
        with pytest.raises(ParseError) as exc:
            io.read_scores(path)
        assert exc.value.line == line

    def test_crlf_file_reads_like_lf(self, tmp_path, tiny_scores):
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        io.write_scores(lf, tiny_scores)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = io.read_scores(lf), io.read_scores(crlf)
        assert a.ids == b.ids
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.labels, b.labels)

    def test_carriage_return_id_is_quoted(self, tmp_path):
        s = ScoreSet(
            ids=["a\rb", "c"], probs=[[0.5, 0.5], [0.25, 0.75]], labels=[1, 2]
        )
        path = tmp_path / "cr.csv"
        io.write_scores(path, s)
        assert path.read_bytes() == (
            b'id,label,p_1,p_2\n"a\rb",1,0.5,0.5\nc,2,0.25,0.75\n'
        )
        loaded = io.read_scores(path)
        assert loaded.ids == s.ids
        assert np.array_equal(loaded.probs, s.probs)
        assert np.array_equal(loaded.labels, s.labels)

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_round_trip_property(self, tmp_path, monkeypatch, data):
        L = data.draw(st.integers(2, 5), label="L")
        n = data.draw(st.integers(1, 6), label="n")
        ids = data.draw(
            st.lists(st.text(alphabet='aZ0 ,";\n\r\u00e9', max_size=6),
                     min_size=n, max_size=n),
            label="ids",
        )
        special = st.sampled_from([0.0, 5e-324, 1e-300, 1.0])
        logits = None
        if data.draw(st.booleans(), label="logits"):
            z = st.one_of(special, st.floats(-30, 30))
            logits = np.array(
                data.draw(st.lists(st.lists(z, min_size=L, max_size=L),
                                   min_size=n, max_size=n), label="z")
            )
            probs = softmax(logits)
        else:
            # 1.0 plus entries below its half-ulp still sums to exactly 1
            tail = st.lists(st.sampled_from([0.0, 5e-324, 1e-300]),
                            min_size=L - 1, max_size=L - 1)
            probs = np.array([
                data.draw(st.permutations([1.0] + data.draw(tail)))
                for _ in range(n)
            ])
        labels = data.draw(
            st.lists(st.integers(0, L), min_size=n, max_size=n), label="y"
        )
        s = ScoreSet(ids=ids, probs=probs, labels=labels, logits=logits)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_scores(p1, s)
        with monkeypatch.context() as m:  # read and written back in 3 pieces
            m.setattr(core, "_pieces", lambda floats: 3)
            loaded = io.read_scores(p1)
            io.write_scores(p2, loaded)
        assert_no_children()
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.ids == ids
        assert np.array_equal(loaded.probs, s.probs)
        assert np.array_equal(loaded.labels, s.labels)
        if logits is None:
            assert loaded.logits is None
        else:
            assert np.array_equal(loaded.logits, logits)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Unprintable:
    def __str__(self):
        raise RuntimeError("unprintable id")


class TestSplitWriter:
    """A table cut into pieces, each past the first formatted by a forked
    child, is written byte for byte as in one piece."""

    @pytest.mark.parametrize("pieces", [1, 2, 3])
    def test_bytes_do_not_depend_on_pieces(self, tmp_path, monkeypatch, pieces):
        s = synth_generate("two-regime", L=6, n=11, seed=4, noise=0.3)
        dist = s.meta["truth"]
        s = ScoreSet(ids=['a"b', "c\rd", *s.ids[2:]], probs=s.probs,
                     labels=[0, *s.labels[1:]], logits=s.logits)
        serial = tmp_path / "serial"
        serial.mkdir()
        io.write_scores(serial / "s.csv", s)
        io.write_distribution(serial / "d.csv", dist)
        monkeypatch.setattr(core, "_pieces", lambda floats: pieces)
        io.write_scores(tmp_path / "s.csv", s)
        io.write_distribution(tmp_path / "d.csv", dist)
        assert_no_children()
        for name in ("s.csv", "d.csv"):
            assert (tmp_path / name).read_bytes() == (serial / name).read_bytes()

    def test_pieces_follow_usable_cpus_and_size(self, monkeypatch):
        monkeypatch.setattr(core.os, "sched_getaffinity",
                            lambda pid: {0, 1, 2})
        sizes = (0, 2**17, 2**18 - 1, 2**18, 2**20)
        assert [core._pieces(f) for f in sizes] == [1, 1, 1, 2, 3]
        monkeypatch.delattr(core.os, "fork")
        assert core._pieces(2**20) == 1

    def test_small_kernels_ask_for_no_cpus(self, monkeypatch):
        P = synth_generate("two-regime", 10, 10_000, 3, noise=0.2).probs
        want = (core.threshold_mask(P, 0.2), softmax(np.log(P), 0.7))

        def refused(pid):
            raise AssertionError("asked for the usable CPUs")

        monkeypatch.setattr(core.os, "sched_getaffinity", refused)
        got = (core.threshold_mask(P, 0.2), softmax(np.log(P), 0.7))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1})
        assert core._pieces(2**18) == 2

    def test_failed_child_raises_oserror_naming_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_pieces", lambda floats: 2)
        path = tmp_path / "s.csv"
        leading = [("a",), ("b",), ("c",), (Unprintable(),)]
        with pytest.raises(OSError, match=re.escape(str(path))):
            io._write_table(path, ["id", "x"], leading, np.ones((4, 1)))
        assert_no_children()

    def test_children_reaped_when_first_piece_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(core, "_pieces", lambda floats: 3)
        leading = [(Unprintable(),), ("b",), ("c",), ("d",)]
        with pytest.raises(RuntimeError, match="unprintable"):
            io._write_table(tmp_path / "s.csv", ["id", "x"], leading,
                            np.ones((4, 1)))
        assert_no_children()


def read_in_pieces(monkeypatch, pieces, read, path):
    """``read(path)`` with ``_pieces`` forced, checking that pieces past the
    first were forked and that no child is left."""
    forks, fork = [], os.fork
    with monkeypatch.context() as m:
        m.setattr(core, "_pieces", lambda floats: pieces)
        m.setattr(os, "fork", lambda: forks.append(1) or fork())
        try:
            return read(path)
        finally:
            assert len(forks) == pieces - 1
            assert_no_children()


def read_outcome(monkeypatch, pieces, path):
    """The error text and line of ``read_scores`` in ``pieces`` pieces, or
    its ids and the bytes of its probabilities and labels."""
    try:
        s = read_in_pieces(monkeypatch, pieces, io.read_scores, path)
    except ParseError as exc:
        return str(exc), exc.line
    return s.ids, s.probs.tobytes(), s.labels.tobytes()


class TestSplitReader:
    """A table cut into pieces, each past the first parsed by a forked
    child, reads as in one piece, with the same errors."""

    @pytest.mark.parametrize("pieces", [1, 2, 3])
    @pytest.mark.parametrize("ending", ["lf", "crlf", "no final newline"])
    def test_arrays_do_not_depend_on_pieces(self, tmp_path, monkeypatch,
                                            pieces, ending):
        s = synth_generate("two-regime", L=6, n=11, seed=4, noise=0.3)
        scores = ScoreSet(ids=s.ids, probs=s.probs, logits=s.logits,
                          labels=[0, *s.labels[1:]])
        path, truth = tmp_path / "s.csv", tmp_path / "d.csv"
        io.write_scores(path, scores)
        io.write_distribution(truth, s.meta["truth"])
        for p in (path, truth):
            text = p.read_bytes()
            if ending == "crlf":
                p.write_bytes(text.replace(b"\n", b"\r\n"))
            elif ending == "no final newline":
                p.write_bytes(text.rstrip(b"\n"))
        loaded = read_in_pieces(monkeypatch, pieces, io.read_scores, path)
        assert loaded.ids == scores.ids
        for name in ("probs", "logits", "labels"):
            got, want = getattr(loaded, name), getattr(scores, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        dist = read_in_pieces(monkeypatch, pieces, io.read_distribution, truth)
        assert dist.x_ids == s.meta["truth"].x_ids
        for name in ("marginal", "cond"):
            got, want = getattr(dist, name), getattr(s.meta["truth"], name)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("last, shown", [
        ("r9,1,0.5,x", "could not convert string to float: 'x'"),
        ("r9,1,0.5,0.5,0.5", "expected 4 fields, got 5"),
        ("r9,1,0.5,inf", "non-finite probability in 'r9'"),
        ("r9,3,0.5,0.5", "label 3 outside [1, 2] in 'r9'"),
    ])
    def test_error_in_last_piece_as_in_one(self, tmp_path, monkeypatch,
                                           last, shown):
        path = tmp_path / "bad.csv"
        rows = [f"r{i},{1 + i % 2},0.5,0.5" for i in range(8)]
        path.write_text("\n".join(["id,label,p_1,p_2", *rows, last]) + "\n")
        serial = read_outcome(monkeypatch, 1, path)
        assert shown in serial[0] and serial[1] == 10
        for pieces in (2, 3):
            assert read_outcome(monkeypatch, pieces, path) == serial

    def test_children_reaped_when_first_piece_raises(self, tmp_path,
                                                      monkeypatch):
        path = tmp_path / "bad.csv"
        rows = ["r0,1,x,0.5"] + [f"r{i},1,0.5,0.5" for i in range(1, 9)]
        path.write_text("\n".join(["id,label,p_1,p_2", *rows]) + "\n")
        serial = read_outcome(monkeypatch, 1, path)
        assert serial[1] == 2
        assert read_outcome(monkeypatch, 3, path) == serial

    @pytest.mark.parametrize("bad", [None, "r9,1,0.5,inf", "r9,x,0.5,0.5"])
    @pytest.mark.parametrize("broken", ["loadtxt in the child", "fork"])
    def test_failure_to_split_falls_back_to_serial(self, tmp_path,
                                                   monkeypatch, bad, broken):
        path = tmp_path / "s.csv"
        rows = [f"r{i},{1 + i % 2},{i / 10},{1 - i / 10}" for i in range(9)]
        path.write_text("\n".join(["id,label,p_1,p_2", *rows[:8],
                                   bad or rows[8]]) + "\n")
        serial = read_outcome(monkeypatch, 1, path)
        parent, loadtxt = os.getpid(), np.loadtxt

        def fails_in_child(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("child fails")
            return loadtxt(*args, **kwargs)

        def no_fork():
            raise BlockingIOError("no process left")

        if broken == "fork":
            monkeypatch.setattr(os, "fork", no_fork)
        else:
            monkeypatch.setattr(np, "loadtxt", fails_in_child)
        assert read_outcome(monkeypatch, 2, path) == serial


class TestModelFiles:
    def test_round_trip_all_kinds(self, tmp_path):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(4), size=60)
        labels = 1 + np.array([rng.choice(4, p=r) for r in probs])
        s = ScoreSet(
            ids=[str(i) for i in range(60)], probs=probs, labels=labels
        )
        members = FormulationSpec(Kind.HYBRID_ERROR, ebar=0.0, eps=0.4)
        attainable = step_function(members, s).mass().total
        ebar = round(1.0 - attainable + 0.02, 6)
        specs = [
            FormulationSpec(Kind.TOP_K, k=2),
            FormulationSpec(Kind.POINTWISE_ERROR, eps=0.1, offset=0.02),
            FormulationSpec(Kind.PENALIZED, lam=0.15),
            FormulationSpec(Kind.AVERAGE_SIZE, kbar=2.0),
            FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.2),
            FormulationSpec(Kind.HYBRID_SIZE, kbar=1.5, k=3),
            FormulationSpec(
                Kind.HYBRID_ERROR, ebar=ebar, eps=0.4, mode="union-with-pointwise"
            ),
            FormulationSpec(Kind.F_SCORE, beta=1.5),
        ]
        for spec in specs:
            clf = calibrate(spec, s, seed=7)
            path = tmp_path / f"{spec.kind.value}.model"
            io.write_model(path, clf)
            loaded = io.read_model(path)
            assert loaded.spec == clf.spec
            assert loaded.theta == clf.theta
            assert loaded.temperature == clf.temperature
            assert loaded.offset == clf.offset
            # identical predictions after the round trip
            assert np.array_equal(
                loaded.predict_set_mask(s), clf.predict_set_mask(s)
            )

    def test_temperature_at_bound_round_trip(self, tmp_path):
        # the true class carries the smallest logit, so the likelihood
        # keeps improving up to the upper end of the temperature search
        z = np.array([[2.0, 0.0]])
        s = ScoreSet(ids=["a"], probs=softmax(z), labels=[2], logits=z)
        clf = calibrate(
            FormulationSpec(Kind.TOP_K, k=1), s, temperature="fit", seed=3
        )
        assert clf.provenance["temperature_at_bound"] is True
        path = tmp_path / "m.model"
        io.write_model(path, clf)
        assert "temperature_at_bound: True" in path.read_text()
        loaded = io.read_model(path)
        assert loaded.provenance["temperature_at_bound"] is True
        assert loaded.provenance == clf.provenance

    def test_temperature_default_and_bounds(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("format_version: 1\nkind: top-k\nk: 1\n")
        assert io.read_model(path).temperature == 1.0
        for bad in ("0", "-2.0", "nan", "inf"):
            path.write_text(
                f"format_version: 1\nkind: top-k\nk: 1\ntemperature: {bad}\n"
            )
            with pytest.raises(ParseError) as exc:
                io.read_model(path)
            assert exc.value.line == 4

    def test_tiny_temperature_fails_to_predict(self, tmp_path, monkeypatch):
        # read_model accepts any T > 0, but logits / 1e-320 overflow and
        # the softmax gives NaN rows: prediction must raise, not go empty,
        # and warn of nothing, in a piece's thread too
        path = tmp_path / "m.model"
        path.write_text(
            "format_version: 1\nkind: top-k\nk: 1\ntemperature: 1e-320\n"
        )
        clf = io.read_model(path)
        z = np.array([[2.0, 1.0, 0.0], [0.0, 0.5, 0.0]])
        s = ScoreSet(ids=["a", "b"], probs=softmax(z), logits=z)
        for pieces in (1, 2):
            monkeypatch.setattr(core, "_pieces", lambda floats: pieces)
            with pytest.raises(NonFiniteEntry):
                clf.predict_set_mask(s)

    def test_small_temperature_predicts_without_a_warning(self, tmp_path,
                                                          monkeypatch):
        # -1e300 / 1e-10 overflows to -inf, whose exp is an exact 0: a
        # valid prediction, which warns of nothing
        path = tmp_path / "m.model"
        path.write_text(
            "format_version: 1\nkind: top-k\nk: 1\ntemperature: 1e-10\n"
        )
        z = np.array([[0.0, -1e300, -1.0], [1.0, 0.0, 2.0]])
        s = ScoreSet(ids=["a", "b"], probs=softmax(z), logits=z)
        clf = io.read_model(path)
        for pieces in (1, 2):
            monkeypatch.setattr(core, "_pieces", lambda floats: pieces)
            mask = clf.predict_set_mask(s)
            assert mask.tolist() == [[True, False, False],
                                     [False, False, True]]

    def test_refused_temperature_prints_only_the_error(self, tmp_path):
        # run in a child process: its stderr shows any numpy warning
        scores = tmp_path / "s.csv"
        io.write_scores(scores, synth_generate("dirichlet-like", 4, 20, 1))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"),
             env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        result = subprocess.run(
            [sys.executable, "-m", "predsets.cli", "calibrate",
             "--formulation", "top-k", "--k", "2", "--temperature", "1e-320",
             "--scores", str(scores), "--model", str(tmp_path / "m.model")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr == ("error: NonFiniteEntry: row 0, entry 0: "
                                 "probability nan is not finite\n")

    @pytest.mark.parametrize("edits, line, problem", [
        ({"\nk: 2": "\nk: 0"}, None, "k=0 must be an integer >= 1"),
        ({"\nk: 2": "\nk: 1", "kbar: 1.5": "kbar: 2.0"}, None,
         "need kbar < k, got kbar=2.0, k=1"),
        ({"theta: 0.5\n": ""}, None, "hybrid-size needs a fitted threshold"),
        ({"kind: hybrid-size": "kind: top-k"}, 4,
         "kbar is not a parameter of top-k"),
        ({"kind: hybrid-size": "kind: top-k", "kbar: 1.5\n": ""}, 4,
         "top-k takes no fitted threshold"),
        ({"offset: 0.0": "offset: 0.7"}, 7,
         "offset is not a parameter of hybrid-size"),
    ])
    def test_spec_errors_name_the_file(self, tmp_path, edits, line, problem):
        # a written model, edited: each fault is a ParseError naming the
        # file, and the line when one key is at fault
        path = tmp_path / "m.model"
        s = ScoreSet(ids=["a", "b"], probs=[[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        spec = FormulationSpec(Kind.HYBRID_SIZE, kbar=1.5, k=2)
        io.write_model(path, calibrate(spec, s, seed=1))
        text = path.read_text()
        assert io.read_model(path).theta == 0.5
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            io.read_model(path)
        where = "" if line is None else f" (line {line})"
        assert str(exc.value) == f"{path}: {problem}{where}"
        assert exc.value.line == line

    @pytest.mark.parametrize("body, problem, line", [
        ("kind top-k\nk: 1\n", "expected 'key: value'", 2),
        ("kind: top-q\nk: 1\n",
         "bad or missing kind ('top-q' is not a valid Kind)", None),
        ("k: 1\n", "missing kind", None),
        ("kind: top-k\nk: 1\ncolour: red\nshade: 2\n",
         "unknown keys ['colour', 'shade']", None),
    ])
    def test_malformed_file_names_the_file(self, tmp_path, body, problem,
                                           line):
        path = tmp_path / "m.model"
        path.write_text("format_version: 1\n" + body)
        with pytest.raises(ParseError) as exc:
            io.read_model(path)
        where = "" if line is None else f" (line {line})"
        assert str(exc.value) == f"{path}: {problem}{where}"
        assert exc.value.line == line

    def test_repeated_key_names_its_second_line(self, tmp_path):
        # a second theta is refused, not read over the first
        path = tmp_path / "m.model"
        s = ScoreSet(ids=["a", "b"], probs=[[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        spec = FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.5)
        io.write_model(path, calibrate(spec, s, seed=1))
        text = path.read_text()
        assert "\ntheta: " in text
        path.write_text(text + "theta: 0.9\n")
        with pytest.raises(ParseError) as exc:
            io.read_model(path)
        line = len(text.splitlines()) + 1
        assert str(exc.value) == f"{path}: repeated key 'theta' (line {line})"
        assert exc.value.line == line

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.model"
        s = ScoreSet(ids=["a", "b"], probs=[[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        clf = calibrate(FormulationSpec(Kind.AVERAGE_SIZE, kbar=1.5), s)
        io.write_model(path, clf)
        want = io.read_model(path)
        lines = path.read_text().splitlines()
        path.write_text("\n" + "\n  \n".join(lines) + "\n\n")
        assert io.read_model(path) == want

    def test_version_checked(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("format_version: 99\nkind: top-k\nk: 1\n")
        with pytest.raises(ParseError):
            io.read_model(path)


class TestDistributionFixture:
    def test_round_trip(self, tmp_path):
        dist = make_distribution("dirichlet-like", 4, 9, support=6)
        path = tmp_path / "dist.csv"
        io.write_distribution(path, dist)
        loaded = io.read_distribution(path)
        assert loaded.x_ids == dist.x_ids
        assert np.array_equal(loaded.marginal, dist.marginal)
        assert np.array_equal(loaded.cond, dist.cond)

    def test_empty_id_round_trips_byte_identical(self, tmp_path):
        dist = make_distribution("dirichlet-like", 3, 2, support=2)
        dist.x_ids = ["", 'a,"b']
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        io.write_distribution(p1, dist)
        assert p1.read_text().splitlines()[1].startswith(",")
        io.write_distribution(p2, io.read_distribution(p1))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("header", [
        "x_id,marginal,a,zz", "x_id,marginal,p_1", "x_id,marginal,p_2,p_1",
        "x_id,marginal,p_1,p_2,z_1", "x_id,marginal",
    ])
    def test_header_names_every_class(self, tmp_path, header):
        # x_id, marginal, then p_1..p_L with L >= 2, as a score file's p_j
        path = tmp_path / "dist.csv"
        path.write_text(f"{header}\nx0,1.0,0.5,0.5\n")
        with pytest.raises(ParseError) as exc:
            io.read_distribution(path)
        assert exc.value.line == 1
        assert str(exc.value) == (
            f"{path}: header must be x_id,marginal,p_1..p_L with L >= 2, "
            f"got {header} (line 1)"
        )

    @pytest.mark.parametrize("rows, line, problem", [
        # a conditional row of support point j, and marginal entry j, are
        # line j + 2; the marginal's sum belongs to no one line
        (["x0,0.5,0.5,0.5", "x1,0.5,0.7,0.7"], 3, "row 1: probabilities sum"),
        (["x0,0.5,0.5,0.5", "x1,0.5,nan,0.5"], 3, "row 1, entry 0"),
        (["x0,0.5,0.5,0.5", "x1,-0.5,0.3,0.7"], 3, "row 1: marginal probab"),
        (["x0,nan,0.5,0.5", "x1,0.5,0.3,0.7"], 2, "row 0: marginal probab"),
        (["x0,0.6,0.5,0.5", "x1,0.5,0.3,0.7"], None, ": marginal probab"),
    ])
    def test_bad_rows_name_their_line(self, tmp_path, rows, line, problem):
        path = tmp_path / "dist.csv"
        path.write_text("\n".join(["x_id,marginal,p_1,p_2", *rows]) + "\n")
        with pytest.raises(ParseError) as exc:
            io.read_distribution(path)
        assert exc.value.line == line
        assert problem in str(exc.value)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


#: outputs recorded when these branches were first run through the CLI
PINNED_OFFSET_MODEL = (
    "6cfaba6a520a91564e66ddac8614fcbb3baa3f9da6a8b40fd77b919cedd73ff6"
)
#: model, predictions, curve and stdout of the hybrid-error union chain
PINNED_HYBRID_ERROR = [
    "5ee3b7629758f37b4e5e547e165c019da00b77ccb2c3023c108b45bc443435bb",
    "e9703ae2cea31abb3eaa1f07efb282a490933e37e8ad270e72f32c724864f181",
    "69e2e86cf94bea8d9e31e72c8eac3b93d1de3360a831b45a95f79b7fccf63b95",
    "9f5a4083dc9700199b174a051d1fe6ca31749cb62a17722d330d1e94b311cc57",
]
PINNED_POINTWISE_CURVE = (
    "c11871ae9815db3f9ce4edc88cfdcbfe6b82116c3389db812bb4e3415ebbba7a"
)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def synth_files(tmp_path):
    prefix = tmp_path / "data"
    code = run_cli(
        "synth",
        "--template", "two-regime",
        "--classes", 6,
        "--n", 3000,
        "--seed", 11,
        "--split", "1000,1000,1000",
        "--out-prefix", prefix,
    )
    assert code == 0
    return {
        "train": f"{prefix}_train.csv",
        "calib": f"{prefix}_calib.csv",
        "test": f"{prefix}_test.csv",
        "truth": f"{prefix}_truth.csv",
    }


class TestCliSynth:
    def test_files_written_and_deterministic(self, tmp_path, synth_files):
        again = tmp_path / "again"
        run_cli(
            "synth", "--template", "two-regime", "--classes", 6,
            "--n", 3000, "--seed", 11, "--split", "1000,1000,1000",
            "--out-prefix", again,
        )
        for name in ("train", "calib", "test", "truth"):
            a = Path(synth_files[name]).read_bytes()
            b = Path(f"{again}_{name}.csv").read_bytes()
            assert a == b

    def test_disjoint_ids_and_sizes(self, synth_files):
        seen = set()
        total = 0
        for name in ("train", "calib", "test"):
            s = io.read_scores(synth_files[name])
            assert s.n == 1000
            ids = set(s.ids)
            assert not (ids & seen)
            seen |= ids
            total += s.n
        assert total == 3000

    def test_bad_split_rejected(self, tmp_path):
        code = run_cli(
            "synth", "--template", "two-regime", "--classes", 4,
            "--n", 10, "--split", "5,6,7",
            "--out-prefix", tmp_path / "x",
        )
        assert code == 1

    def test_split_required_when_n_not_divisible(self, tmp_path, capsys):
        prefix = tmp_path / "x"
        assert run_cli(
            "synth", "--template", "two-regime", "--classes", 4,
            "--n", 10, "--out-prefix", prefix,
        ) == 1
        assert capsys.readouterr().err == (
            "error: PredsetsError: --split required when n is not "
            "divisible by 3\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("noise", ["nan", "-1", "inf", "-inf"])
    def test_noise_must_be_finite_and_nonnegative(self, tmp_path, capsys,
                                                  noise):
        assert run_cli(
            "synth", "--template", "dirichlet-like", "--classes", 5,
            "--n", 30, f"--noise={noise}", "--out-prefix", tmp_path / "x",
        ) == 1
        shown = repr(float(noise))
        assert capsys.readouterr().err == (
            f"error: ValueError: noise={shown} must be finite and >= 0\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("support", [0, -2])
    def test_support_must_be_positive(self, tmp_path, capsys, support):
        assert run_cli(
            "synth", "--template", "dirichlet-like", "--classes", 5,
            "--n", 30, "--support", support, "--out-prefix", tmp_path / "x",
        ) == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: support={support} must be >= 1\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_noisy_scores_differ_from_truth_but_validate(self, tmp_path):
        prefix = tmp_path / "noisy"
        assert run_cli(
            "synth", "--template", "dirichlet-like", "--classes", 5,
            "--n", 30, "--seed", 2, "--noise", 0.4,
            "--split", "10,10,10", "--out-prefix", prefix,
        ) == 0
        noisy = io.read_scores(f"{prefix}_calib.csv")  # validates rows
        truth = io.read_distribution(f"{prefix}_truth.csv")
        assert not any(
            np.allclose(row, truth.cond[j])
            for row in noisy.probs[:3]
            for j in range(truth.n_points)
        )


class TestCliCalibratePredictEvaluate:
    @pytest.mark.parametrize("command, flag", [
        ("predict", "--scores"), ("evaluate", "--test")])
    def test_model_of_another_class_count(self, tmp_path, synth_files,
                                          capsys, command, flag):
        model, out = tmp_path / "m.model", tmp_path / "out"
        assert run_cli(
            "calibrate", "--formulation", "average-size", "--kbar", 1.5,
            "--scores", synth_files["calib"], "--model", model,
        ) == 0
        other = tmp_path / "other.csv"
        io.write_scores(
            other, ScoreSet(ids=["a"], probs=[[0.6, 0.4]], labels=[1]))
        capsys.readouterr()
        assert run_cli(command, "--model", model, flag, other,
                       "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: ClassCountMismatch: model was fit with L=6, "
            "scores have L=2\n"
        )
        assert not out.exists()

    def test_calibrate_writes_theta(self, tmp_path, synth_files, capsys):
        model = tmp_path / "m.model"
        code = run_cli(
            "calibrate", "--formulation", "average-size", "--kbar", 2.0,
            "--scores", synth_files["calib"], "--model", model,
        )
        assert code == 0
        clf = io.read_model(model)
        assert clf.theta is not None
        out = capsys.readouterr().out
        assert "theta:" in out and "calibration_avg_size:" in out

    def test_calibrate_hand_trace(self, tmp_path):
        scores = tmp_path / "three.csv"
        s = ScoreSet(
            ids=["a", "b", "c"],
            probs=[[0.5, 0.3, 0.2], [0.6, 0.3, 0.1], [0.4, 0.35, 0.25]],
        )
        io.write_scores(scores, s)
        model = tmp_path / "m.model"
        run_cli(
            "calibrate", "--formulation", "average-size", "--kbar", 2.0,
            "--scores", scores, "--model", model,
        )
        # pooled scores sorted: .6 .5 .4 .35 .3 .3 .25 .2 .1, weight 1/3;
        # the pooled-size function reaches 2 at 0.3
        spec = FormulationSpec(Kind.AVERAGE_SIZE, kbar=2.0)
        assert io.read_model(model).theta == calibrate(spec, s).theta

    def test_topk_model_has_no_theta(self, tmp_path, synth_files):
        model = tmp_path / "m.model"
        run_cli(
            "calibrate", "--formulation", "top-k", "--k", 2,
            "--scores", synth_files["calib"], "--model", model,
        )
        text = model.read_text()
        assert "theta" not in text
        assert io.read_model(model).theta is None

    def test_average_error_needs_labels(self, tmp_path):
        scores = tmp_path / "u.csv"
        io.write_scores(
            scores, ScoreSet(ids=["a"], probs=[[0.6, 0.4]])
        )
        code = run_cli(
            "calibrate", "--formulation", "average-error", "--ebar", 0.1,
            "--scores", scores, "--model", tmp_path / "m.model",
        )
        assert code == 1

    def test_infinite_temperature_rejected(self, tmp_path, synth_files,
                                           capsys):
        model = tmp_path / "m.model"
        code = run_cli(
            "calibrate", "--formulation", "top-k", "--k", 2,
            "--temperature", "inf",
            "--scores", synth_files["calib"], "--model", model,
        )
        assert code == 1
        assert "error: InvalidTemperature: " in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["f-score", "--beta"], "InvalidBeta"),
            (["penalized", "--lambda"], "NegativeLambda"),
            (["average-size", "--kbar"], "KbarOutOfRange"),
        ],
    )
    def test_infinite_parameter_rejected(self, tmp_path, synth_files,
                                         capsys, flags, error):
        # each wrote inf into a model file that predict then refused
        model = tmp_path / "m.model"
        code = run_cli(
            "calibrate", "--formulation", *flags, "inf",
            "--scores", synth_files["calib"], "--model", model,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ")
        assert "=inf must be finite" in err
        assert not model.exists()

    def test_evaluate_rejects_zero_beta(self, tmp_path, synth_files,
                                        capsys):
        # a penalized model at lambda 2 predicts only empty sets, where
        # F_beta at beta = 0 would divide 0 by 0
        model, out = tmp_path / "m.model", tmp_path / "metrics.txt"
        run_cli(
            "calibrate", "--formulation", "penalized", "--lambda", 2,
            "--scores", synth_files["calib"], "--model", model,
        )
        code = run_cli(
            "evaluate", "--model", model, "--test", synth_files["test"],
            "--out", out, "--beta", 0,
        )
        assert code == 1
        assert "error: InvalidBeta: " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_file_reported(self, tmp_path, synth_files,
                                         capsys):
        code = run_cli(
            "predict", "--model", tmp_path / "missing.txt",
            "--scores", synth_files["test"], "--out", tmp_path / "p.csv",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ")
        assert "missing.txt" in err

    def test_predict_rows(self, tmp_path):
        scores = tmp_path / "s.csv"
        io.write_scores(
            scores,
            ScoreSet(ids=["q"], probs=[[0.5, 0.3, 0.2]]),
        )
        model = tmp_path / "m.model"
        run_cli(
            "calibrate", "--formulation", "top-k", "--k", 2,
            "--scores", scores, "--model", model,
        )
        out = tmp_path / "p.csv"
        assert run_cli(
            "predict", "--model", model, "--scores", scores, "--out", out
        ) == 0
        assert out.read_text().splitlines() == ["id,labels,size", "q,1;2,2"]

    def test_predict_empty_set_row(self, tmp_path):
        scores = tmp_path / "s.csv"
        io.write_scores(
            scores, ScoreSet(ids=["q"], probs=[[0.5, 0.3, 0.2]])
        )
        model = tmp_path / "m.model"
        run_cli(
            "calibrate", "--formulation", "penalized", "--lambda", 0.9,
            "--scores", scores, "--model", model,
        )
        out = tmp_path / "p.csv"
        run_cli("predict", "--model", model, "--scores", scores, "--out", out)
        assert out.read_text().splitlines()[1] == "q,,0"

    def test_predict_class_count_mismatch(self, tmp_path, synth_files):
        model = tmp_path / "m.model"
        run_cli(
            "calibrate", "--formulation", "top-k", "--k", 1,
            "--scores", synth_files["calib"], "--model", model,
        )
        other = tmp_path / "other.csv"
        io.write_scores(other, ScoreSet(ids=["a"], probs=[[0.6, 0.4]]))
        assert run_cli(
            "predict", "--model", model, "--scores", other,
            "--out", tmp_path / "p.csv",
        ) == 1

    def test_evaluate_and_gate(self, tmp_path, synth_files):
        model = tmp_path / "m.model"
        run_cli(
            "calibrate", "--formulation", "average-error", "--ebar", 0.1,
            "--scores", synth_files["calib"], "--model", model,
        )
        out = tmp_path / "metrics.txt"
        code = run_cli(
            "evaluate", "--model", model, "--test", synth_files["test"],
            "--out", out, "--per-class", tmp_path / "pc.csv",
            "--gate-slack", 0.05,
        )
        assert code == 0
        text = out.read_text()
        assert "avg_error:" in text and "gate_violations: 0" in text
        assert (tmp_path / "pc.csv").read_text().startswith("label,")

    def test_evaluate_builds_the_mask_once(
        self, tmp_path, synth_files, monkeypatch
    ):
        model = tmp_path / "m.model"
        run_cli(
            "calibrate", "--formulation", "pointwise-error", "--eps", 0.2,
            "--scores", synth_files["calib"], "--model", model,
        )
        calls = []
        rule_mask = calibration.rule_mask

        def counted(*args, **kwargs):
            calls.append(1)
            return rule_mask(*args, **kwargs)

        monkeypatch.setattr(calibration, "rule_mask", counted)
        code = run_cli(
            "evaluate", "--model", model, "--test", synth_files["test"],
            "--out", tmp_path / "metrics.txt",
            "--per-class", tmp_path / "pc.csv",
        )
        assert code == 0
        assert len(calls) == 1

    def test_gate_violation_exits_nonzero(self, tmp_path, synth_files):
        # an average-size model whose budget the test set cannot violate
        # is gated at an absurdly tight slack by lying about kbar: fit at
        # 3.0 then gate against a model file edited to kbar=0.5
        model = tmp_path / "m.model"
        run_cli(
            "calibrate", "--formulation", "average-size", "--kbar", 3.0,
            "--scores", synth_files["calib"], "--model", model,
        )
        text = model.read_text().replace("kbar: 3.0", "kbar: 0.5")
        model.write_text(text)
        code = run_cli(
            "evaluate", "--model", model, "--test", synth_files["test"],
            "--out", tmp_path / "metrics.txt", "--gate-slack", 0.0,
        )
        assert code == 1


    @pytest.mark.parametrize("slack", ["nan", "inf", "-inf"])
    def test_gate_slack_must_be_finite(self, tmp_path, synth_files, capsys,
                                       slack):
        model, out = tmp_path / "m.model", tmp_path / "metrics.txt"
        run_cli(
            "calibrate", "--formulation", "pointwise-error", "--eps", 0.05,
            "--scores", synth_files["calib"], "--model", model,
        )
        capsys.readouterr()
        code = run_cli(
            "evaluate", "--model", model, "--test", synth_files["test"],
            "--out", out, "--per-class", tmp_path / "pc.csv",
            f"--gate-slack={slack}",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: InvalidSlack: --gate-slack {float(slack)!r} is not "
            "finite\n"
        )
        assert not out.exists() and not (tmp_path / "pc.csv").exists()

    def test_negative_slack_is_a_stricter_gate(self, tmp_path, synth_files,
                                               capsys):
        with pytest.raises(SystemExit):
            run_cli("evaluate", "--help")
        help_text = " ".join(capsys.readouterr().out.split())
        assert "a negative slack is a stricter gate" in help_text
        model = tmp_path / "m.model"
        run_cli(
            "calibrate", "--formulation", "average-size", "--kbar", 2.0,
            "--scores", synth_files["calib"], "--model", model,
        )
        capsys.readouterr()
        args = ["evaluate", "--model", model, "--test", synth_files["test"],
                "--out", tmp_path / "metrics.txt", "--gate-slack"]
        assert run_cli(*args, 0.5) == 0
        assert run_cli(*args, -0.5) == 1
        out = capsys.readouterr().out
        assert "gate_slack: -0.5\ngate_violations: 1\n" in out
        assert re.search(
            r"^CONSTRAINT VIOLATED: avg_size \S+ > kbar 2.0 \+ slack -0.5$",
            out, re.M,
        )

    def test_gate_counts_classes_past_the_slack(self, tmp_path, capsys):
        # point-wise sets at eps 0.1 are {1} on a peaked row and {2} on a
        # row peaked at 2; class 2 misses 3 of 20 (0.15, within eps +
        # slack), class 3 misses 1 of 2 (0.5, beyond it)
        peaked = {1: [0.95, 0.03, 0.02], 2: [0.03, 0.95, 0.02],
                  3: [0.03, 0.02, 0.95]}
        rows = ([(1, 1)] * 10 + [(2, 2)] * 17 + [(1, 2)] * 3
                + [(3, 3), (1, 3)])
        scores = tmp_path / "s.csv"
        io.write_scores(scores, ScoreSet(
            ids=[str(i) for i in range(len(rows))],
            probs=[peaked[row] for row, _ in rows],
            labels=[label for _, label in rows],
        ))
        model = tmp_path / "m.model"
        run_cli(
            "calibrate", "--formulation", "pointwise-error", "--eps", 0.1,
            "--scores", scores, "--model", model,
        )
        capsys.readouterr()
        code = run_cli(
            "evaluate", "--model", model, "--test", scores,
            "--out", tmp_path / "metrics.txt", "--gate-slack", 0.1,
        )
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-4:] == [
            "gate_slack: 0.1",
            "gate_violations: 1",
            "gate: 1 classes exceed eps 0.1 + slack 0.1 (worst 0.5)",
            "CONSTRAINT VIOLATED: 1 classes exceed eps 0.1 + slack 0.1"
            " (worst 0.5)",
        ]

    def test_gate_on_ebar(self, tmp_path, synth_files, capsys):
        model, out = tmp_path / "m.model", tmp_path / "metrics.txt"
        run_cli(
            "calibrate", "--formulation", "average-error", "--ebar", 0.1,
            "--scores", synth_files["calib"], "--model", model,
        )
        model.write_text(model.read_text().replace("ebar: 0.1", "ebar: 0.01"))
        capsys.readouterr()
        code = run_cli(
            "evaluate", "--model", model, "--test", synth_files["test"],
            "--out", out, "--gate-slack", 0.02,
        )
        assert code == 1
        problem = "avg_error 0.09699999999999998 > ebar 0.01 + slack 0.02"
        assert out.read_text().endswith(
            f"gate_slack: 0.02\ngate_violations: 1\ngate: {problem}\n"
        )
        assert capsys.readouterr().out == (
            out.read_text() + f"CONSTRAINT VIOLATED: {problem}\n"
        )

    def test_empty_sets_have_no_precision(self, tmp_path, synth_files,
                                          capsys):
        # no probability reaches lambda = 1 on these files, so every set
        # is empty and precision, a ratio over no predicted label, is absent
        model, out = tmp_path / "m.model", tmp_path / "metrics.txt"
        run_cli(
            "calibrate", "--formulation", "penalized", "--lambda", 1.0,
            "--scores", synth_files["calib"], "--model", model,
        )
        capsys.readouterr()
        assert run_cli(
            "evaluate", "--model", model, "--test", synth_files["test"],
            "--out", out,
        ) == 0
        assert out.read_text() == capsys.readouterr().out == (
            "n_samples: 1000\navg_error: 1.0\navg_size: 0.0\nrecall: 0.0\n"
            "precision: absent\nf_beta: 0.0\nbeta: 1.0\n"
            "empty_set_rate: 1.0\n"
        )

    def test_fixed_offset(self, tmp_path, synth_files, capsys, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        model = tmp_path / "m.model"
        assert run_cli(
            "calibrate", "--formulation", "pointwise-error", "--eps", 0.1,
            "--offset", 0.05, "--scores", synth_files["calib"],
            "--model", model,
        ) == 0
        assert capsys.readouterr().out == (
            "kind: pointwise-error\ntemperature: 1.0\noffset: 0.05\n"
            "calibration_avg_size: 3.4\n"
            "calibration_avg_error: 0.007000000000000006\n"
            f"model written to {model}\n"
        )
        assert io.read_model(model).offset == 0.05
        assert sha256(model) == PINNED_OFFSET_MODEL

    def test_hybrid_error_union_mode(self, tmp_path, synth_files, capsys,
                                     monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        model, pred = tmp_path / "m.model", tmp_path / "p.csv"
        args = ["--formulation", "hybrid-error", "--eps", 0.3,
                "--mode", "union-with-pointwise"]
        assert run_cli(
            "calibrate", *args, "--ebar", 0.2,
            "--scores", synth_files["calib"], "--model", model,
        ) == 0
        assert "mode: union-with-pointwise" in model.read_text()
        assert run_cli(
            "predict", "--model", model, "--scores", synth_files["test"],
            "--out", pred,
        ) == 0
        curve = tmp_path / "c.csv"
        assert run_cli(
            "sweep", *args, "--grid", "0.1,0.2", "--repeats", 2,
            "--calib", synth_files["calib"], "--test", synth_files["test"],
            "--out", curve,
        ) == 0
        stdout = capsys.readouterr().out.replace(str(tmp_path), "TMP")
        assert [sha256(p) for p in (model, pred, curve)] + [
            hashlib.sha256(stdout.encode()).hexdigest()] == PINNED_HYBRID_ERROR


class TestCliSweep:
    def test_help_names_offset_and_temperature(self, capsys):
        for command in ("calibrate", "sweep"):
            with pytest.raises(SystemExit):
                run_cli(command, "--help")
            help_text = " ".join(capsys.readouterr().out.split())
            assert "a number or 'auto' for sqrt(L/n)" in help_text
            assert "a number, or 'fit' to learn it from logits" in help_text

    def test_topk_curve_columns(self, tmp_path, synth_files):
        out = tmp_path / "curve.csv"
        code = run_cli(
            "sweep", "--formulation", "top-k", "--grid", "1,2,3",
            "--calib", synth_files["calib"], "--test", synth_files["test"],
            "--out", out, "--repeats", 2,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith(
            "param,avg_error_mean,avg_error_std,avg_size_mean,avg_size_std,status"
        )
        sizes = [float(l.split(",")[3]) for l in lines[1:]]
        assert sizes == [1.0, 2.0, 3.0]

    def test_average_size_curve_near_grid(self, tmp_path, synth_files):
        out = tmp_path / "curve.csv"
        run_cli(
            "sweep", "--formulation", "average-size", "--grid", "1.0,2.0",
            "--calib", synth_files["calib"], "--test", synth_files["test"],
            "--out", out, "--repeats", 3, "--seed", 1,
        )
        lines = out.read_text().splitlines()[1:]
        for line in lines:
            param, _, _, size_mean = line.split(",")[:4]
            assert abs(float(size_mean) - float(param)) < 0.2

    def test_hybrid_size_uses_given_k(self, tmp_path, synth_files):
        curves = {}
        for k in (2, 3):
            out = tmp_path / f"k{k}.csv"
            code = run_cli(
                "sweep", "--formulation", "hybrid-size", "--k", k,
                "--grid", "1.4,1.9", "--repeats", 2,
                "--calib", synth_files["calib"], "--test", synth_files["test"],
                "--out", out,
            )
            assert code == 0
            curves[k] = out.read_text()
        assert curves[2] != curves[3]
        assert ",ok," in curves[2] and ",failed" not in curves[2]

    def test_template_takes_every_flag_but_the_swept_one(
            self, tmp_path, synth_files, capsys):
        # the swept --kbar is dropped; --k reaches the spec, which refuses it
        files = ("--calib", synth_files["calib"], "--test", synth_files["test"])
        curves = []
        for extra in ((), ("--kbar", 9)):
            curves.append(tmp_path / f"c{len(curves)}.csv")
            assert run_cli(
                "sweep", "--formulation", "average-size", "--grid", "1,2",
                *files, "--out", curves[-1], "--repeats", 2, *extra,
            ) == 0
        assert curves[0].read_bytes() == curves[1].read_bytes()
        capsys.readouterr()
        assert run_cli(
            "sweep", "--formulation", "average-size", "--grid", "1,2",
            *files, "--out", tmp_path / "k.csv", "--k", 2,
        ) == 1
        assert capsys.readouterr().err == (
            "error: SpecFieldError: k is not a parameter of average-size\n"
        )

    @pytest.mark.parametrize("formulation, budget, missing", [
        ("hybrid-size", "--kbar", "k"),
        ("hybrid-error", "--ebar", "eps"),
    ])
    def test_fixed_field_is_required(self, tmp_path, synth_files, capsys,
                                     formulation, budget, missing):
        # only the swept field holds a placeholder: a sweep without the
        # hybrid's cap fails as calibrate does, before writing anything
        out = tmp_path / "curve.csv"
        assert run_cli(
            "sweep", "--formulation", formulation, "--grid", "0.1,0.2",
            "--calib", synth_files["calib"], "--test", synth_files["test"],
            "--out", out,
        ) == 1
        want = f"error: SpecFieldError: {formulation} requires {missing}\n"
        assert capsys.readouterr().err == want
        assert not out.exists()
        assert run_cli(
            "calibrate", "--formulation", formulation, budget, 0.1,
            "--scores", synth_files["calib"], "--model", tmp_path / "m",
        ) == 1
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize("mode", ["bogus", "union-with-pointwise"])
    def test_mode_of_a_kind_without_one_is_refused(self, tmp_path, synth_files,
                                                   capsys, mode):
        model = tmp_path / "m"
        assert run_cli(
            "calibrate", "--formulation", "top-k", "--k", 2, "--mode", mode,
            "--scores", synth_files["calib"], "--model", model,
        ) == 1
        assert capsys.readouterr().err == (
            "error: SpecFieldError: mode is not a parameter of top-k\n"
        )
        assert not model.exists()

    # the default mode too: a kind without one takes no --mode at all
    @pytest.mark.parametrize("command, flags", [
        ("calibrate", ["top-k", "--k", 2]),
        ("calibrate", ["average-size", "--kbar", 2]),
        ("sweep", ["top-k", "--grid", "1,2"]),
        ("sweep", ["pointwise-error", "--grid", "0.1,0.2"]),
    ])
    def test_default_mode_of_a_kind_without_one_is_refused(
            self, tmp_path, synth_files, capsys, command, flags):
        out = tmp_path / "out"
        files = (("--scores", synth_files["calib"], "--model", out)
                 if command == "calibrate" else
                 ("--calib", synth_files["calib"], "--test",
                  synth_files["test"], "--out", out))
        assert run_cli(command, "--formulation", *flags,
                       "--mode", "lemma-threshold", *files) == 1
        assert capsys.readouterr().err == (
            f"error: SpecFieldError: mode is not a parameter of {flags[0]}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("calibrate", ["top-k", "--k", 2, "--offset", 0.3]),
        ("calibrate", ["average-size", "--kbar", 2, "--offset", "auto"]),
        ("sweep", ["top-k", "--grid", "1,2", "--offset", 0.3]),
        ("sweep", ["average-size", "--grid", "1,2", "--offset", "auto"]),
    ])
    def test_offset_of_a_kind_without_one_is_refused(
            self, tmp_path, synth_files, capsys, command, flags):
        out = tmp_path / "out"
        files = (("--scores", synth_files["calib"], "--model", out)
                 if command == "calibrate" else
                 ("--calib", synth_files["calib"], "--test",
                  synth_files["test"], "--out", out))
        assert run_cli(command, "--formulation", *flags, *files) == 1
        assert capsys.readouterr().err == (
            f"error: SpecFieldError: offset is not a parameter of {flags[0]}\n"
        )
        assert not out.exists()

    def test_no_ebar_below_eps_zero_names_only_given_values(
            self, tmp_path, synth_files, capsys):
        # the swept ebar's placeholder is never shown
        out = tmp_path / "curve.csv"
        assert run_cli(
            "sweep", "--formulation", "hybrid-error", "--eps", 0,
            "--grid", 0.1, "--calib", synth_files["calib"],
            "--test", synth_files["test"], "--out", out,
        ) == 1
        assert capsys.readouterr().err == (
            "error: ParameterOrderViolation: need ebar < eps, got eps=0.0\n"
        )
        assert not out.exists()

    def test_class_count_mismatch(self, tmp_path, synth_files, capsys):
        other = tmp_path / "other.csv"
        io.write_scores(
            other, ScoreSet(ids=["a"], probs=[[0.6, 0.4]], labels=[1]))
        out = tmp_path / "curve.csv"
        assert run_cli(
            "sweep", "--formulation", "top-k", "--grid", "1",
            "--calib", synth_files["calib"], "--test", other, "--out", out,
        ) == 1
        assert capsys.readouterr().err == (
            "error: ClassCountMismatch: calibration scores have L=6, "
            "test scores have L=2\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("formulation", ["average-size", "top-k"])
    def test_negative_seed_is_refused(self, tmp_path, synth_files, capsys,
                                      formulation):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "sweep", "--formulation", formulation, "--grid", "1,2",
            "--calib", synth_files["calib"], "--test", synth_files["test"],
            "--out", out, "--seed", -3,
        ) == 1
        assert capsys.readouterr().err == (
            "error: ValueError: base_seed must be >= 0\n"
        )
        assert not out.exists()

    def test_hybrid_size_at_k_one(self, tmp_path, synth_files):
        # the swept kbar's placeholder must lie below k = 1 too
        out, ref = tmp_path / "cli.csv", tmp_path / "ref.csv"
        assert run_cli(
            "sweep", "--formulation", "hybrid-size", "--k", 1,
            "--grid", "0.5,0.8", "--repeats", 2,
            "--calib", synth_files["calib"], "--test", synth_files["test"],
            "--out", out,
        ) == 0
        status = [line.split(",")[5] for line in out.read_text().splitlines()[1:]]
        assert status == ["ok", "ok"]
        curve = sweep(
            FormulationSpec(Kind.HYBRID_SIZE, kbar=0.5, k=1), [0.5, 0.8],
            io.read_scores(synth_files["calib"]),
            io.read_scores(synth_files["test"]), seeds=2,
        )
        io.write_curve(ref, curve)
        assert out.read_bytes() == ref.read_bytes()

    def test_pointwise_curve_has_violation_quantiles(self, tmp_path,
                                                     synth_files):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "sweep", "--formulation", "pointwise-error", "--grid", "0.1,0.3",
            "--calib", synth_files["calib"], "--test", synth_files["test"],
            "--out", out, "--repeats", 2,
        ) == 0
        header, *rows = out.read_text().splitlines()
        assert header.split(",")[6:] == [
            f"violation_q{q}" for q in (10, 25, 50, 75, 90)
        ]
        assert all(row.split(",")[5] == "ok" for row in rows)
        assert all("" not in row.split(",") for row in rows)
        assert sha256(out) == PINNED_POINTWISE_CURVE

    def test_temperature_fit_outputs_pinned(self, tmp_path, monkeypatch):
        # synth -> calibrate -> sweep, all at a fitted temperature; the
        # model digest was taken before sweep draws fit on arrays of their
        # rows, the curve's once every grid value shared the draws, where
        # it equals the refit loop on the same files
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        prefix, model, curve = tmp_path / "d", tmp_path / "m", tmp_path / "c"
        assert run_cli(
            "synth", "--template", "dirichlet-like", "--classes", 5,
            "--n", 600, "--seed", 4, "--noise", 0.5, "--out-prefix", prefix,
        ) == 0
        assert run_cli(
            "calibrate", "--formulation", "average-size", "--kbar", 1.5,
            "--scores", f"{prefix}_calib.csv", "--model", model,
            "--temperature", "fit", "--seed", 4,
        ) == 0
        assert run_cli(
            "sweep", "--formulation", "average-size", "--grid", "1.0,1.5,2.5",
            "--calib", f"{prefix}_calib.csv", "--test", f"{prefix}_test.csv",
            "--out", curve, "--repeats", 4, "--seed", 2,
            "--temperature", "fit",
        ) == 0
        digests = [hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (model, curve)]
        assert digests == [
            "834a391837f460f9108ffde05ce5709e3b9b4b559ec3b07ad56b1b19d512cd83",
            "191e2a5dfa5d45dadce01d7e06f7c6db24304bf5b72aedbbfbcbca97558b2c57",
        ]

    def test_non_finite_topk_grid_points_marked_failed(self, tmp_path,
                                                       synth_files):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "sweep", "--formulation", "top-k", "--grid", "1,inf,nan",
            "--calib", synth_files["calib"], "--test", synth_files["test"],
            "--out", out, "--repeats", 2,
        ) == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert [row[5] for row in rows] == ["ok"] + [
            f"failed: KOutOfRange: top-k sweeps need integer grid values, "
            f"got {v}" for v in ("inf", "nan")
        ]

    def test_nan_in_unsorted_grid_rejected(self, tmp_path, synth_files,
                                           capsys):
        out = tmp_path / "curve.csv"
        assert run_cli(
            "sweep", "--formulation", "average-size", "--grid", "2,nan,1",
            "--calib", synth_files["calib"], "--test", synth_files["test"],
            "--out", out,
        ) == 1
        assert capsys.readouterr().err == (
            "error: ValueError: parameter grid must be sorted ascending\n"
        )
        assert not out.exists()

    def test_empty_grid_usage_error(self, tmp_path, synth_files):
        code = run_cli(
            "sweep", "--formulation", "top-k", "--grid", "",
            "--calib", synth_files["calib"], "--test", synth_files["test"],
            "--out", tmp_path / "c.csv",
        )
        assert code == 1


class TestCliOracleCheck:
    def test_random_suite_passes(self, capsys):
        assert run_cli("oracle-check", "--count", 3, "--seed", 5) == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out
        assert "hybrid-error[lemma-threshold]" in out
        assert "hybrid-error[union-with-pointwise]" in out

    @pytest.mark.parametrize("seed, digest", [
        (0, "42299c08fa70733771e825c8ecc34ac39b8b27abc5e80099d464fdbd015ce222"),
        (1, "5a5b6bcc49c295f886b323dfa65099df8fe6e2ae88df09fcdddf9cd46d9f0814"),
        (2, "1218c299bbab2315121b241093801b5bb0d51b260f216c97b145e3313d37fadd"),
        (3, "18930d37edaa4e16ce64d4671fcdcdbf1f6dadad15c0c5215970089362d14c51"),
    ], ids=["seed0", "seed1", "seed2", "seed3"])
    def test_population_cutoffs_pinned(self, capsys, seed, digest):
        # 200 random distributions: every population cutoff and verdict,
        # byte for byte as before the cutoff searches became one
        assert run_cli("oracle-check", "--count", 200, "--seed", seed) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_must_be_positive(self, capsys, count):
        # checking no distribution at all must not pass as a clean run
        assert run_cli("oracle-check", "--count", count) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: PredsetsError: --count={count} must be >= 1\n"

    def test_fixture_with_one_knot_names_the_kind(self, tmp_path, capsys):
        # one support point with tied classes: G has a single knot, the
        # whole support's, so no average-size budget binds
        fixture = tmp_path / "one.csv"
        fixture.write_text("x_id,marginal,p_1,p_2\nx0,1.0,0.5,0.5\n")
        assert run_cli("oracle-check", "--fixture", fixture) == 1
        assert capsys.readouterr().err == (
            "error: ValueError: no average-size budget binds on this "
            "distribution\n"
        )

    def test_fixture_mode(self, tmp_path):
        dist = make_distribution("dirichlet-like", 4, 2, support=3)
        fixture = tmp_path / "dist.csv"
        io.write_distribution(fixture, dist)
        assert run_cli("oracle-check", "--fixture", fixture) == 0


class TestPipelineDeterminism:
    def test_round_trip_matches_in_process(self, tmp_path, synth_files):
        model = tmp_path / "m.model"
        run_cli(
            "calibrate", "--formulation", "average-error", "--ebar", 0.1,
            "--scores", synth_files["calib"], "--model", model,
        )
        out = tmp_path / "p.csv"
        run_cli(
            "predict", "--model", model,
            "--scores", synth_files["test"], "--out", out,
        )
        # in-process reference
        calib = io.read_scores(synth_files["calib"])
        test = io.read_scores(synth_files["test"])
        clf = calibrate(
            FormulationSpec(Kind.AVERAGE_ERROR, ebar=0.1), calib
        )
        mask = clf.predict_set_mask(test)
        rows = out.read_text().splitlines()[1:]
        for i, row in enumerate(rows):
            labels = np.flatnonzero(mask[i]) + 1
            expect = f"{test.ids[i]},{';'.join(map(str, labels))},{len(labels)}"
            assert row == expect
