"""File formats and the command-line pipeline."""

import hashlib
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from predsets import calibration, io
from predsets.calibration import calibrate, step_function
from predsets.cli import main
from predsets.core import ScoreSet, softmax
from predsets.errors import NonFiniteEntry, ParseError
from predsets.evaluation import evaluate
from predsets.formulations import FormulationSpec, Kind
from predsets.oracle import make_distribution, synth_generate


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

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_logit_names_its_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,label,p_1,p_2,z_1,z_2\nr1,1,0.5,0.5,0.0,0.0\n"
            f"r2,2,0.5,0.5,{bad},0.0\n"
        )
        with pytest.raises(ParseError) as exc:
            io.read_scores(path)
        assert exc.value.line == 3
        assert "non-finite logit in 'r2'" in str(exc.value)

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
            m.setattr(io, "_pieces", lambda floats: 3)
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
        monkeypatch.setattr(io, "_pieces", lambda floats: pieces)
        io.write_scores(tmp_path / "s.csv", s)
        io.write_distribution(tmp_path / "d.csv", dist)
        assert_no_children()
        for name in ("s.csv", "d.csv"):
            assert (tmp_path / name).read_bytes() == (serial / name).read_bytes()

    def test_pieces_follow_usable_cpus_and_size(self, monkeypatch):
        monkeypatch.setattr(io.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert [io._pieces(f) for f in (0, 2**17, 2**18 - 1, 2**18, 2**20)] == [
            1, 1, 1, 2, 3
        ]
        monkeypatch.delattr(io.os, "fork")
        assert io._pieces(2**20) == 1

    def test_failed_child_raises_oserror_naming_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_pieces", lambda floats: 2)
        path = tmp_path / "s.csv"
        leading = [("a",), ("b",), ("c",), (Unprintable(),)]
        with pytest.raises(OSError, match=re.escape(str(path))):
            io._write_table(path, ["id", "x"], leading, np.ones((4, 1)))
        assert_no_children()

    def test_children_reaped_when_first_piece_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_pieces", lambda floats: 3)
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
        m.setattr(io, "_pieces", lambda floats: pieces)
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
                loaded.predict_mask(probs), clf.predict_mask(probs)
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

    def test_tiny_temperature_fails_to_predict(self, tmp_path):
        # read_model accepts any T > 0, but logits / 1e-320 overflow and
        # the softmax gives NaN rows: prediction must raise, not go empty
        path = tmp_path / "m.model"
        path.write_text(
            "format_version: 1\nkind: top-k\nk: 1\ntemperature: 1e-320\n"
        )
        clf = io.read_model(path)
        z = np.array([[2.0, 1.0, 0.0], [0.0, 0.5, 0.0]])
        s = ScoreSet(ids=["a", "b"], probs=softmax(z), logits=z)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteEntry):
                clf.predict_set_mask(s)

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


class TestCliSweep:
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
