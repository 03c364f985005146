import os
import pathlib

import pytest

from alignsmooth.cli import main
from alignsmooth.data import toy_paths
from alignsmooth.model import read_table


@pytest.fixture
def t1_files(tmp_path):
    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    src.write_text("das haus\ndas buch\n", encoding="utf-8")
    tgt.write_text("the house\nthe book\n", encoding="utf-8")
    return str(src), str(tgt)


class TestTrainCommand:
    def test_writes_model_and_trace(self, t1_files, tmp_path):
        src, tgt = t1_files
        out = str(tmp_path / "model.tsv")
        code = main(["train", "-s", src, "-t", tgt, "--iters", "10", "-o", out])
        assert code == 0
        assert os.path.exists(out)
        trace_lines = pathlib.Path(out + ".trace").read_text(encoding="utf-8").splitlines()
        assert len(trace_lines) == 10
        header = pathlib.Path(out).read_text(encoding="utf-8")
        assert "# iterations: 10" in header

    def test_smoothed_training_flags(self, t1_files, tmp_path):
        src, tgt = t1_files
        out = str(tmp_path / "model.tsv")
        code = main(["train", "-s", src, "-t", tgt, "--iters", "2",
                     "--strategy", "add-one", "--lambda", "1.0", "-o", out])
        assert code == 0
        assert "# lambda: 1.0" in pathlib.Path(out).read_text(encoding="utf-8")

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_non_finite_lambda_exits_one_without_model(self, t1_files, tmp_path, lam):
        src, tgt = t1_files
        out = tmp_path / "model.tsv"
        assert main(["train", "-s", src, "-t", tgt, "--lambda", lam, "-o", str(out)]) == 1
        assert not out.exists()

    def test_line_count_mismatch_names_the_sides(self, tmp_path, capsys):
        src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
        src.write_text("a\nb\n", encoding="utf-8")
        tgt.write_text("x\ny\nz\n", encoding="utf-8")
        out = str(tmp_path / "model.tsv")
        assert main(["train", "-s", str(src), "-t", str(tgt), "-o", out]) == 2
        assert "source has 2 lines, target has 3" in capsys.readouterr().err

    def test_missing_file_exits_nonzero(self, tmp_path):
        out = str(tmp_path / "model.tsv")
        code = main(["train", "-s", "nope.txt", "-t", "nope2.txt", "-o", out])
        assert code == 2

    def test_unwritable_model_names_the_path_asked_for(self, t1_files, tmp_path, capsys):
        src, tgt = t1_files
        out = str(tmp_path / "missing" / "m.tsv")
        assert main(["train", "-s", src, "-t", tgt, "--iters", "1", "-o", out]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {out!r}\n"
        assert sorted(os.listdir(tmp_path)) == ["src.txt", "tgt.txt"]


class TestAlignCommand:
    def model(self, t1_files, tmp_path, capsys, iters="1"):
        src, tgt = t1_files
        out = str(tmp_path / "model.tsv")
        assert main(["train", "-s", src, "-t", tgt, "--iters", iters, "-o", out]) == 0
        capsys.readouterr()  # drop the train command's status line
        return out

    def test_alignment_lines(self, t1_files, tmp_path, capsys):
        src, tgt = t1_files
        model = self.model(t1_files, tmp_path, capsys)
        assert main(["align", "-s", src, "-t", tgt, "-m", model]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "2-2"

    def test_emit_null(self, t1_files, tmp_path, capsys):
        src, tgt = t1_files
        model = self.model(t1_files, tmp_path, capsys)
        assert main(["align", "-s", src, "-t", tgt, "-m", model, "--emit-null"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "0-1 2-2"

    def test_output_file(self, t1_files, tmp_path, capsys):
        src, tgt = t1_files
        model = self.model(t1_files, tmp_path, capsys)
        out = str(tmp_path / "alignments.txt")
        assert main(["align", "-s", src, "-t", tgt, "-m", model, "-o", out]) == 0
        assert pathlib.Path(out).read_text(encoding="utf-8").splitlines()[0] == "2-2"

    def test_unknown_token_warns_not_crashes(self, t1_files, tmp_path, capsys):
        model = self.model(t1_files, tmp_path, capsys)
        src2 = tmp_path / "new_src.txt"
        tgt2 = tmp_path / "new_tgt.txt"
        src2.write_text("das zug\n", encoding="utf-8")
        tgt2.write_text("the train\n", encoding="utf-8")
        assert main(["align", "-s", str(src2), "-t", str(tgt2), "-m", model]) == 0
        captured = capsys.readouterr()
        assert "zug" in captured.err

    def test_bad_model_number_exits_two(self, t1_files, tmp_path, capsys):
        src, tgt = t1_files
        model = tmp_path / "model.tsv"
        model.write_text("# strategy: none\ndas\tthe\tabc\n", encoding="utf-8")
        assert main(["align", "-s", src, "-t", tgt, "-m", str(model)]) == 2
        assert f"{model}: line 2: bad probability 'abc'" in capsys.readouterr().err

    def test_empty_corpus_exits_two(self, t1_files, tmp_path, capsys):
        model = self.model(t1_files, tmp_path, capsys)
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        code = main(["align", "-s", str(empty), "-t", str(empty), "-m", model])
        assert code == 2


class TestTuneCommand:
    def test_tune_writes_trace(self, tmp_path, capsys):
        src, tgt, ann = toy_paths()
        out = str(tmp_path / "tune.tsv")
        code = main([
            "tune", "-s", src, "-t", tgt, "-a", ann,
            "--objective", "smoothed-error-count", "--strategy", "add-one",
            "--grid", "0,0.5,2", "--iters", "3", "--dev-size", "4", "-o", out,
        ])
        assert code == 0
        content = pathlib.Path(out).read_text(encoding="utf-8")
        assert content.startswith("strategy\tadd-one")
        assert "lambda_star\t" in content
        assert "lambda*" in capsys.readouterr().out

    def test_ml_unannotated_needs_no_annotations(self, tmp_path, capsys):
        src, tgt, _ = toy_paths()
        code = main([
            "tune", "-s", src, "-t", tgt, "--objective", "ml-unannotated",
            "--grid", "0,1,2", "--iters", "2", "--dev-fraction", "0.2",
        ])
        assert code == 0

    def test_annotated_objective_without_annotations_is_usage_error(self):
        src, tgt, _ = toy_paths()
        code = main(["tune", "-s", src, "-t", tgt, "--objective", "error-count",
                     "--grid", "0,1,2", "--iters", "2"])
        assert code == 1


    def test_grid_order_changes_no_byte(self, tmp_path):
        # tune sorts the grid and adds 0, so the points may come in any order
        src, tgt, ann = toy_paths()
        args = ["tune", "-s", src, "-t", tgt, "-a", ann, "--iters", "3"]
        assert main(args + ["--grid", "0,0.5,2", "-o", str(tmp_path / "sorted.tsv")]) == 0
        assert main(args + ["--grid", "2,0,0.5", "-o", str(tmp_path / "shuffled.tsv")]) == 0
        assert (tmp_path / "shuffled.tsv").read_bytes() == (tmp_path / "sorted.tsv").read_bytes()

    def test_objective_never_finite_exits_three(self, tmp_path, capsys):
        # the held-out pair's target word never occurs in the training pair, and add-dice
        # adds no mass to a word its source never met, so it scores -inf at every lambda
        src, tgt, out = tmp_path / "src.txt", tmp_path / "tgt.txt", tmp_path / "tune.tsv"
        src.write_text("a\na\n", encoding="utf-8")
        tgt.write_text("x\ny\n", encoding="utf-8")
        code = main(["tune", "-s", str(src), "-t", str(tgt), "--objective", "ml-unannotated", "--strategy", "add-dice",
                     "--grid", "0,1,2", "--iters", "2", "--dev-fraction", "0.5", "-o", str(out)])
        assert code == 3
        assert "tuning error: objective is not finite anywhere on the grid" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_grid_exits_one(self, tmp_path):
        src, tgt, ann = toy_paths()
        out = tmp_path / "tune.tsv"
        code = main(["tune", "-s", src, "-t", tgt, "-a", ann, "--grid", "0,1,inf",
                     "--iters", "2", "-o", str(out)])
        assert code == 1
        assert not out.exists()

    def test_dev_size_of_every_annotated_pair_tunes_on_all(self, tmp_path, capsys):
        # tune holds out no test set, so all 15 annotated toy pairs may tune
        src, tgt, ann = toy_paths()
        args = ["tune", "-s", src, "-t", tgt, "-a", ann, "--objective", "smoothed-error-count",
                "--grid", "0,0.5,2", "--iters", "3"]
        assert main(args + ["-o", str(tmp_path / "all.tsv")]) == 0
        assert main(args + ["--dev-size", "15", "-o", str(tmp_path / "15.tsv")]) == 0
        assert (tmp_path / "15.tsv").read_bytes() == (tmp_path / "all.tsv").read_bytes()
        capsys.readouterr()
        # a size below 1 is refused before the annotations are read, so its message cannot name 15
        for size, message in (("16", "dev size must be in 1..15"), ("0", "dev size must be a positive integer")):
            assert main(args + ["--dev-size", size, "-o", str(tmp_path / f"{size}.tsv")]) == 1
            assert message in capsys.readouterr().err
            assert not (tmp_path / f"{size}.tsv").exists()
        # experiment needs a test set, so it keeps 1..14
        exp_args = ["experiment", "-s", src, "-t", tgt, "-a", ann, "--dev-size", "15"]
        assert main(exp_args + ["-o", str(tmp_path / "exp")]) == 1
        assert "dev size must be in 1..14" in capsys.readouterr().err

    @pytest.mark.parametrize("command,default", [
        ("tune", "every annotated pair"), ("experiment", "a third of the annotated pairs"),
    ], ids=["tune", "experiment"])
    def test_dev_size_help_gives_each_default(self, capsys, command, default):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"(default: {default})" in " ".join(capsys.readouterr().out.split())


class TestEvalCommand:
    def test_reports_metrics(self, tmp_path, capsys):
        src, tgt, ann = toy_paths()
        model = str(tmp_path / "model.tsv")
        assert main(["train", "-s", src, "-t", tgt, "--iters", "5", "-o", model]) == 0
        out = str(tmp_path / "report.tsv")
        code = main(["eval", "-s", src, "-t", tgt, "-m", model, "-a", ann, "-o", out])
        assert code == 0
        assert "AER" in capsys.readouterr().out
        content = pathlib.Path(out).read_text(encoding="utf-8")
        assert content.startswith("precision\t")

    def reversed_model(self, tmp_path, capsys):
        """A model trained on the toy corpus with its lines in reverse order."""
        src, tgt, _ = toy_paths()
        paths = []
        for path in (src, tgt):
            lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
            reversed_path = tmp_path / ("reversed." + os.path.basename(path))
            reversed_path.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
            paths.append(str(reversed_path))
        model = str(tmp_path / "model.tsv")
        assert main(["train", "-s", paths[0], "-t", paths[1], "-o", model]) == 0
        capsys.readouterr()
        return model

    def report(self, out):
        fields = dict(line.split("\t") for line in pathlib.Path(out).read_text(encoding="utf-8").splitlines())
        return float(fields["aer"]), int(fields["error_count"])

    def test_model_from_reordered_corpus(self, tmp_path, capsys):
        src, tgt, ann = toy_paths()
        model = self.reversed_model(tmp_path, capsys)
        out = str(tmp_path / "report.tsv")
        assert main(["eval", "-s", src, "-t", tgt, "-m", model, "-a", ann, "-o", out]) == 0
        assert self.report(out) == (0.09230769230769231, 10)
        assert "warning" not in capsys.readouterr().err

    def test_unseen_target_word_warns_once_and_scores(self, tmp_path, capsys):
        src, tgt, ann = toy_paths()
        model = self.reversed_model(tmp_path, capsys)
        lines = pathlib.Path(tgt).read_text(encoding="utf-8").splitlines()
        first = lines[0].split()
        lines[0] = " ".join(["zzzunseen"] + first[1:])
        lines[1] = lines[1] + " zzzunseen"
        changed = tmp_path / "target.txt"
        changed.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = str(tmp_path / "report.tsv")
        assert main(["eval", "-s", src, "-t", str(changed), "-m", model, "-a", ann,
                     "--emit-null", "-o", out]) == 0
        assert capsys.readouterr().err.count("'zzzunseen'") == 1
        aer, _ = self.report(out)
        assert 0.0 <= aer <= 1.0
        # the unseen word scores zero everywhere, so it goes to NULL
        assert main(["align", "-s", src, "-t", str(changed), "-m", model, "--emit-null"]) == 0
        assert capsys.readouterr().out.splitlines()[0].split()[0] == "0-1"


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert main(["train", "-s", "x.txt"]) == 1

    def test_bad_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command", ["tune", "experiment"])
    @pytest.mark.parametrize("flags", [["--alpha", "0.5"], ["--iters", "0"], ["--grid", "0,1,inf"],
                                       ["--grid", "0,1"], ["--dev-fraction", "0"], ["--dev-size", "0"],
                                       ["--tol", "inf"]],
                             ids=["alpha", "iters", "grid", "grid-points", "dev-fraction", "dev-size", "tol"])
    def test_bad_setting_rejected_before_any_file_is_read(self, tmp_path, command, flags):
        # a missing file exits 2, so exit 1 shows the setting was checked first
        missing = str(tmp_path / "missing.txt")
        args = [command, "-s", missing, "-t", missing, "-a", missing, "-o", str(tmp_path / "out")]
        assert main(args + flags) == 1

    @pytest.mark.parametrize("flag,names", [("--strategies", "add-one,add-dice,add-one"),
                                            ("--objectives", "error-count,error-count")],
                             ids=["strategies", "objectives"])
    def test_repeated_name_rejected_before_any_file_is_read(self, tmp_path, capsys, flag, names):
        # tune takes one strategy and one objective, so only experiment can repeat one
        missing = str(tmp_path / "missing.txt")
        args = ["experiment", "-s", missing, "-t", missing, "-a", missing, "-o", str(tmp_path / "out")]
        assert main(args + [flag, names]) == 1
        assert f"may be named once, got {names!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["tune", "experiment"])
    @pytest.mark.parametrize("grid,message", [("0,a,2", "bad grid '0,a,2'"), (",", "grid must not be empty")],
                             ids=["not-a-number", "empty"])
    def test_unparsable_grid_is_a_usage_error(self, tmp_path, capsys, command, grid, message):
        missing = str(tmp_path / "missing.txt")
        args = [command, "-s", missing, "-t", missing, "-a", missing, "-o", str(tmp_path / "out")]
        assert main(args + ["--grid", grid]) == 1
        assert f"usage error: argument --grid: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--iters", "0"], ["--lambda", "-1"]], ids=["iters", "lambda"])
    def test_bad_train_setting_rejected_before_any_file_is_read(self, tmp_path, flags):
        # train has no -a flag, so passing one would make a usage error of any case
        missing = str(tmp_path / "missing.txt")
        args = ["train", "-s", missing, "-t", missing, "-o", str(tmp_path / "model.tsv")]
        assert main(args + flags) == 1

    def test_dev_size_below_one_rejected_for_ml_unannotated(self, tmp_path):
        # ml-unannotated does not use the value, but it is checked all the same
        src, tgt, _ = toy_paths()
        code = main(["tune", "-s", src, "-t", tgt, "--objective", "ml-unannotated",
                     "--grid", "0,1,2", "--iters", "2", "--dev-size", "0"])
        assert code == 1

    def test_bad_dev_size(self, tmp_path):
        src, tgt, ann = toy_paths()
        code = main(["tune", "-s", src, "-t", tgt, "-a", ann,
                     "--objective", "error-count", "--grid", "0,1,2",
                     "--iters", "2", "--dev-size", "99"])
        assert code == 1


class TestExperimentCommand:
    def run_small(self, out_dir):
        src, tgt, ann = toy_paths()
        return main([
            "experiment", "-s", src, "-t", tgt, "-a", ann,
            "--strategies", "add-one", "--objectives", "error-count,ml-annotated",
            "--grid", "0,0.5,2", "--iters", "3", "--seed", "11", "-o", out_dir,
        ])

    def test_single_strategy_two_objectives(self, tmp_path):
        out_dir = str(tmp_path / "exp")
        assert self.run_small(out_dir) == 0
        tsv = pathlib.Path(out_dir, "report.tsv").read_text(encoding="utf-8")
        assert tsv.count("\tstatus\tok") == 2
        assert "baseline\taer\t" in tsv
        assert "decreasement" in tsv
        assert os.path.exists(os.path.join(out_dir, "report.txt"))

    def test_rerun_is_byte_identical(self, tmp_path):
        first = str(tmp_path / "one")
        second = str(tmp_path / "two")
        assert self.run_small(first) == 0
        assert self.run_small(second) == 0
        for name in ("report.tsv", "report.txt"):
            a = pathlib.Path(first, name).read_bytes()
            b = pathlib.Path(second, name).read_bytes()
            assert a == b

    def test_unknown_strategy_rejected(self, tmp_path):
        src, tgt, ann = toy_paths()
        code = main(["experiment", "-s", src, "-t", tgt, "-a", ann,
                     "--strategies", "add-zipf", "-o", str(tmp_path / "exp")])
        assert code == 1

    @pytest.mark.parametrize("flag", ["--strategies", "--objectives"])
    def test_empty_name_list_rejected(self, tmp_path, capsys, flag):
        src, tgt, ann = toy_paths()
        out_dir = tmp_path / "exp"
        assert main(["experiment", "-s", src, "-t", tgt, "-a", ann, flag, ",", "-o", str(out_dir)]) == 1
        assert "error: need at least one strategy and one objective" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_one_annotated_pair_is_refused_before_training(self, tmp_path, capsys):
        paths = {"src.txt": "das haus\ndas buch\nein buch\n", "tgt.txt": "the house\nthe book\na book\n",
                 "ann.txt": "1 1 1 S\n1 2 2 S\n"}
        for name, text in paths.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        src, tgt, ann = (str(tmp_path / name) for name in paths)
        out_dir = tmp_path / "exp"
        assert main(["experiment", "-s", src, "-t", tgt, "-a", ann, "-o", str(out_dir)]) == 1
        assert capsys.readouterr().err == ("error: a dev set and a test set need 2 annotated pairs or more; "
                                           "the annotation file holds 1\n")
        assert not out_dir.exists()

    def test_decreasement_is_baseline_minus_tuned(self, tmp_path):
        out_dir = str(tmp_path / "exp")
        assert self.run_small(out_dir) == 0
        baseline = None
        cells = {}
        for line in pathlib.Path(out_dir, "report.tsv").read_text(encoding="utf-8").splitlines():
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "baseline" and fields[1] == "aer":
                baseline = float(fields[2])
            elif fields[0] == "cell" and fields[3] in ("aer", "decreasement"):
                cells.setdefault((fields[1], fields[2]), {})[fields[3]] = float(fields[4])
        assert baseline is not None and cells
        for values in cells.values():
            assert values["decreasement"] == pytest.approx(baseline - values["aer"], abs=1e-12)

    def test_unusable_dev_fraction_fails_before_training(self, tmp_path, monkeypatch):
        import alignsmooth.experiment as experiment

        calls, real_train = [], experiment.train
        monkeypatch.setattr(experiment, "train", lambda *args: calls.append(args) or real_train(*args))
        src, tgt, ann = toy_paths()
        args = ["experiment", "-s", src, "-t", tgt, "-a", ann, "--strategies", "add-one",
                "--grid", "0,0.5,2", "--iters", "3", "--dev-fraction", "0.01"]
        out_dir = tmp_path / "exp"
        assert main(args + ["-o", str(out_dir)]) == 1
        assert calls == [] and not out_dir.exists()
        # 0.01 of 54 pairs is only needed by ml-unannotated
        assert main(args + ["--objectives", "error-count", "-o", str(out_dir)]) == 0
        assert calls

    def test_failed_cells_keep_baseline_and_exit_3(self, tmp_path, monkeypatch):
        import alignsmooth.experiment as experiment
        from alignsmooth import TuningError

        def explode(*args, **kwargs):
            raise TuningError("forced failure")

        monkeypatch.setattr(experiment, "tune", explode)
        out_dir = str(tmp_path / "exp")
        assert self.run_small(out_dir) == 3
        tsv = pathlib.Path(out_dir, "report.tsv").read_text(encoding="utf-8")
        assert "baseline\taer\t" in tsv
        assert tsv.count("\tstatus\tfailed") == 2
        assert "forced failure" in tsv


class TestInputBytes:
    def files(self, tmp_path, source: bytes, target: bytes):
        src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
        src.write_bytes(source)
        tgt.write_bytes(target)
        return str(src), str(tgt)

    def toy_model(self, tmp_path):
        src, tgt, _ = toy_paths()
        model = str(tmp_path / "model.tsv")
        assert main(["train", "-s", src, "-t", tgt, "--iters", "1", "-o", model]) == 0
        return src, tgt, model

    def test_lines_end_only_at_newline_and_carriage_return(self, tmp_path, capsys):
        # a form feed or U+0085 is whitespace inside a line, not a line break
        src, tgt = self.files(tmp_path, "a\x0cb\r\nle\x85chat\rc\n".encode(),
                              "x\r\nthe cat\ry\x0cz\n".encode())
        model = str(tmp_path / "model.tsv")
        assert main(["train", "-s", src, "-t", tgt, "--iters", "1", "-o", model]) == 0
        assert "(3 pairs, 1 iterations)" in capsys.readouterr().out
        table, _ = read_table(model)
        assert sorted(table.source_vocab.words) == ["<NULL>", "a", "b", "c", "chat", "le"]

    @pytest.mark.parametrize("side", [0, 1])
    def test_invalid_utf8_corpus_names_file_and_line(self, tmp_path, capsys, side):
        good, bad = b"a\nb c\n", b"a\nb \xff\n"
        paths = self.files(tmp_path, *((bad, good) if side == 0 else (good, bad)))
        out = str(tmp_path / "model.tsv")
        assert main(["train", "-s", paths[0], "-t", paths[1], "-o", out]) == 2
        assert f"{paths[side]}: line 2: not valid UTF-8" in capsys.readouterr().err

    def test_invalid_utf8_annotation_names_file_and_line(self, tmp_path, capsys):
        src, tgt, model = self.toy_model(tmp_path)
        ann = tmp_path / "ann.txt"
        ann.write_bytes(b"1 1 1 S\r\n\xef\xbb\n")
        assert main(["eval", "-s", src, "-t", tgt, "-m", model, "-a", str(ann)]) == 2
        assert f"{ann}: line 2: not valid UTF-8" in capsys.readouterr().err

    def test_invalid_utf8_model_names_file(self, tmp_path, capsys):
        src, tgt = self.files(tmp_path, b"a\n", b"x\n")
        model = tmp_path / "model.tsv"
        model.write_bytes(b"# strategy: none\na\tx\t1.0\n\xc3\tx\t0.5\n")
        assert main(["align", "-s", src, "-t", tgt, "-m", str(model)]) == 2
        assert f"{model}: line 3: not valid UTF-8" in capsys.readouterr().err

    def test_leading_bom_is_dropped(self, tmp_path, capsys):
        bom = "\ufeff".encode()
        src, tgt = self.files(tmp_path, bom + b"a b\n", bom + b"x y\n")
        model = str(tmp_path / "model.tsv")
        assert main(["train", "-s", src, "-t", tgt, "--iters", "2", "-o", model]) == 0
        table, _ = read_table(model)
        assert table.source_vocab.words == ("<NULL>", "a", "b")
        assert table.target_vocab.words == ("x", "y")
        ann = tmp_path / "ann.txt"
        ann.write_bytes(bom + b"1 1 1 S\n1 2 2 S\n")
        assert main(["eval", "-s", src, "-t", tgt, "-m", model, "-a", str(ann)]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_model_with_a_leading_bom_aligns_the_same(self, tmp_path, capsys):
        src, tgt, model = self.toy_model(tmp_path)
        with_bom = tmp_path / "bom-model.tsv"
        with_bom.write_bytes("\ufeff".encode() + pathlib.Path(model).read_bytes())
        assert with_bom.read_bytes().startswith(b"\xef\xbb\xbf# ")
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        assert main(["align", "-s", src, "-t", tgt, "-m", model, "-o", str(plain)]) == 0
        assert main(["align", "-s", src, "-t", tgt, "-m", str(with_bom), "-o", str(bom)]) == 0
        assert bom.read_bytes() == plain.read_bytes()
        assert capsys.readouterr().err == ""

    def test_source_null_token_is_rejected(self, tmp_path, capsys):
        src, tgt = self.files(tmp_path, b"a\n<NULL> a\n", b"x\ny\n")
        out = str(tmp_path / "model.tsv")
        assert main(["train", "-s", src, "-t", tgt, "-o", out]) == 2
        assert f"{src}: line 2: <NULL> is reserved" in capsys.readouterr().err
        # on the target side it is an ordinary word
        assert main(["train", "-s", tgt, "-t", src, "--iters", "1", "-o", out]) == 0
        assert "<NULL>" in read_table(out)[0].target_vocab.words

    def test_annotation_without_records_names_file(self, tmp_path, capsys):
        src, tgt, model = self.toy_model(tmp_path)
        ann = tmp_path / "ann.txt"
        ann.write_text("# only a comment\n", encoding="utf-8")
        assert main(["eval", "-s", src, "-t", tgt, "-m", model, "-a", str(ann)]) == 2
        assert f"{ann}: no alignment records" in capsys.readouterr().err

    def test_words_starting_with_hash_survive_the_round_trip(self, tmp_path, capsys):
        from alignsmooth import TrainConfig, load_parallel_corpus, train

        src, tgt = self.files(tmp_path, b"#a b\n# #x:\nb\n", b"x y\nz w\ny\n")
        model = str(tmp_path / "model.tsv")
        assert main(["train", "-s", src, "-t", tgt, "--iters", "3", "-o", model]) == 0
        trained = train(load_parallel_corpus(src, tgt), TrainConfig(3)).table
        loaded, _ = read_table(model)
        assert sorted(loaded.source_vocab.words) == sorted(trained.source_vocab.words)
        for e_word in trained.source_vocab.words:
            for f_word in trained.target_vocab.words:
                assert loaded.prob(loaded.source_vocab.get(e_word), loaded.target_vocab.get(f_word)) == (
                    trained.prob(trained.source_vocab.get(e_word), trained.target_vocab.get(f_word)))
        capsys.readouterr()
        assert main(["align", "-s", src, "-t", tgt, "-m", model]) == 0
        assert capsys.readouterr().err == ""

    def test_cut_model_exits_two(self, tmp_path, capsys):
        src, tgt, model = self.toy_model(tmp_path)
        model, ann = pathlib.Path(model), toy_paths()[2]
        lines = model.read_text(encoding="utf-8").splitlines(keepends=True)
        model.write_text("".join(lines[:150]), encoding="utf-8")
        assert main(["eval", "-s", src, "-t", tgt, "-m", str(model), "-a", ann]) == 2
        assert f"{model}: source_vocab_size is 19" in capsys.readouterr().err

    def test_row_off_mass_exits_two(self, tmp_path, capsys):
        src, tgt, model = self.toy_model(tmp_path)
        model, ann = pathlib.Path(model), toy_paths()[2]
        lines = model.read_text(encoding="utf-8").splitlines(keepends=True)
        k, (word, target, value) = next(
            (k, line.rstrip("\n").split("\t")) for k, line in enumerate(lines)
            if not line.startswith("#") and float(line.split("\t")[2]) >= 0.1
        )
        lines[k] = f"{word}\t{target}\t{float(value) - 0.1!r}\n"
        model.write_text("".join(lines), encoding="utf-8")
        assert main(["eval", "-s", src, "-t", tgt, "-m", str(model), "-a", ann]) == 2
        err = capsys.readouterr().err
        head = f"{model}: row {word!r} sums to "
        assert head in err
        assert float(err.split(head)[1].split(",")[0]) == pytest.approx(0.9, abs=1e-12)

    def test_non_integer_size_exits_two(self, tmp_path, capsys):
        src, tgt, model = self.toy_model(tmp_path)
        model = pathlib.Path(model)
        text = model.read_text(encoding="utf-8").replace("# target_vocab_size: ", "# target_vocab_size: x", 1)
        model.write_text(text, encoding="utf-8")
        assert main(["align", "-s", src, "-t", tgt, "-m", str(model)]) == 2
        assert f"{model}: target_vocab_size 'x" in capsys.readouterr().err

    def test_line_with_a_tab_and_other_field_counts_is_rejected(self, tmp_path, capsys):
        src, tgt = self.files(tmp_path, b"a\n", b"x\n")
        model = tmp_path / "model.tsv"
        for text in ("# note\twith a tab\na\tx\t1.0\n", "a\tx\t1.0\nloose words\n"):
            model.write_text(text, encoding="utf-8")
            assert main(["align", "-s", src, "-t", tgt, "-m", str(model)]) == 2
            assert "expected e<TAB>f<TAB>prob" in capsys.readouterr().err
