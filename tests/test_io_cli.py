"""File formats and the command-line pipeline."""


import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from predsets import calibration, io
from predsets.calibration import calibrate, fit_average_size
from predsets.cli import main
from predsets.core import ScoreSet, softmax
from predsets.errors import ParseError
from predsets.evaluation import evaluate
from predsets.formulations import FormulationSpec, Kind
from predsets.oracle import make_distribution


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
    def test_round_trip_property(self, tmp_path, data):
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
        loaded = io.read_scores(p1)
        io.write_scores(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.ids == ids
        assert np.array_equal(loaded.probs, s.probs)
        assert np.array_equal(loaded.labels, s.labels)
        if logits is None:
            assert loaded.logits is None
        else:
            assert np.array_equal(loaded.logits, logits)


class TestModelFiles:
    def test_round_trip_all_kinds(self, tmp_path):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(4), size=60)
        labels = 1 + np.array([rng.choice(4, p=r) for r in probs])
        s = ScoreSet(
            ids=[str(i) for i in range(60)], probs=probs, labels=labels
        )
        from predsets.calibration import empirical_h_eps

        attainable = empirical_h_eps(s, 0.4).total
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
            a = open(synth_files[name], "rb").read()
            b = open(f"{again}_{name.replace('truth', 'truth')}.csv", "rb").read()
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
        assert io.read_model(model).theta == fit_average_size(s, 2.0).theta

    def test_topk_model_has_no_theta(self, tmp_path, synth_files):
        model = tmp_path / "m.model"
        run_cli(
            "calibrate", "--formulation", "top-k", "--k", 2,
            "--scores", synth_files["calib"], "--model", model,
        )
        text = open(model).read()
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
        assert open(out).read().splitlines() == ["id,labels,size", "q,1;2,2"]

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
        assert open(out).read().splitlines()[1] == "q,,0"

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
        text = open(out).read()
        assert "avg_error:" in text and "gate_violations: 0" in text
        assert open(tmp_path / "pc.csv").read().startswith("label,")

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
        text = open(model).read().replace("kbar: 3.0", "kbar: 0.5")
        open(model, "w").write(text)
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
        lines = open(out).read().splitlines()
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
        lines = open(out).read().splitlines()[1:]
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
            curves[k] = open(out).read()
        assert curves[2] != curves[3]
        assert ",ok," in curves[2] and ",failed" not in curves[2]

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
        rows = open(out).read().splitlines()[1:]
        for i, row in enumerate(rows):
            labels = np.flatnonzero(mask[i]) + 1
            expect = f"{test.ids[i]},{';'.join(map(str, labels))},{len(labels)}"
            assert row == expect
