import argparse
import contextlib
import io
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmrec import cli
from gmrec.cli import main
from gmrec.dataio import MAX_SYNTH_CARD, MAX_SYNTH_COUNT, ParseOptions, SynthSpec, parse_dataset, write_synthetic
from gmrec.errors import EngineError
from gmrec.training import MAX_DIM, TrainConfig


@pytest.fixture
def synth_file(tmp_path):
    path = str(tmp_path / "data.tsv")
    write_synthetic(SynthSpec(users=30, items=20, samples=240, rule="xor_cross", seed=5), path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error_line(err):
    return next(line for line in err.splitlines() if line.startswith("usage error:"))


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--bogus", "1")
        assert code == 1
        assert "usage" in err.lower()

    def test_non_numeric_config_value_is_usage_error(self, capsys, tmp_path, synth_file):
        config = tmp_path / "run.conf"
        config.write_text("dim = abc\n")
        code, _, err = run(capsys, "train", "--data", synth_file, "--config", str(config))
        assert code == 1
        assert "dim" in err and "usage" in err.lower()

    def test_non_numeric_seeds_is_usage_error(self, capsys, synth_file):
        code, _, err = run(capsys, "ablate", "--data", synth_file, "--variants", "mode=fm",
                           "--seeds", "a")
        assert code == 1
        assert "--seeds" in err

    @pytest.mark.parametrize("line, flag", [("learning_rate = 0.5", "--learning-rate"), ("bogus = 1", "--bogus")])
    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path, line, flag):
        """A config key is a flag name; any other key is a usage error,
        raised before the data file is read."""
        config = tmp_path / "run.conf"
        config.write_text(line + "\n")
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "never-read.tsv"), "--config", str(config))
        assert code == 1, err
        assert str(config) in usage_error_line(err) and flag in usage_error_line(err)

    @pytest.mark.parametrize("argv, key", [(("train",), "data"), (("train",), "config"),
                                           (("ablate", "--variants", "mode=fm"), "variants")])
    def test_config_key_of_a_command_line_flag_is_usage_error(self, capsys, tmp_path, argv, key):
        """A key for a flag that the command line always gives (a required
        flag, or --config) is a usage error naming the file and the key,
        raised before the data file is read."""
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = {tmp_path / 'other'}\n")
        code, _, err = run(capsys, argv[0], "--data", str(tmp_path / "never-read.tsv"), *argv[1:],
                           "--config", str(config))
        assert code == 1, err
        assert str(config) in usage_error_line(err) and repr(key) in usage_error_line(err)

    @pytest.mark.parametrize("in_config", [False, True])
    def test_seed_does_not_abbreviate_seeds(self, capsys, tmp_path, in_config):
        """ablate has --seeds and no --seed: flags and config keys match by
        their full name only."""
        config = tmp_path / "run.conf"
        config.write_text("seed = 4\n")
        extra = ["--config", str(config)] if in_config else ["--seed", "4"]
        code, _, err = run(capsys, "ablate", "--data", str(tmp_path / "never-read.tsv"), "--variants", "mode=fm",
                           *extra)
        assert code == 1, err
        assert "--seed" in usage_error_line(err)

    def test_missing_data_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "evaluate", "--data", str(tmp_path / "nope.tsv"),
                           "--ckpt", str(tmp_path / "nope.ckpt"))
        assert code == 2


def test_non_finite_rating_is_data_error(capsys, tmp_path):
    """A rating of nan is not turned into a label by --threshold: exit 2,
    naming its line."""
    data = tmp_path / "data.tsv"
    data.write_text("4\tuid=u0\tiid=i0\nnan\tuid=u1\tiid=i0\n")
    code, _, err = run(capsys, "train", "--data", str(data), "--threshold", "2.5", "--dim", "2", "--epochs", "1")
    assert code == 2, err
    assert "line 2: bad label 'nan'" in err and "Traceback" not in err


def test_side_over_max_attrs_is_data_error(capsys, tmp_path):
    """A 2501-attribute side is rejected at parse, naming its line (exit 2),
    in a data file and in predict's --line, before any pair block is built."""
    data, ckpt = tmp_path / "data.tsv", str(tmp_path / "model.ckpt")
    data.write_text("1\tuid=u0\tiid=i0\n0\t" + " ".join(f"a{k}" for k in range(2501)) + "\tiid=i1\n")
    code, _, err = run(capsys, "train", "--data", str(data), "--dim", "2", "--epochs", "1")
    assert code == 2, err
    assert "line 2: 2501 attributes on the user side, at most 128" in err and "Traceback" not in err
    data.write_text("1\tuid=u0\tiid=i0\n")
    with pytest.warns(UserWarning, match="fewer than 5 samples"):
        assert run(capsys, "train", "--data", str(data), "--dim", "2", "--epochs", "0", "--out", ckpt)[0] == 0
    code, _, err = run(capsys, "predict", "--ckpt", ckpt, "--line", "uid=u0\t" + " ".join(["iid=i0"] * 129))
    assert code == 2, err
    assert "line 1: 129 attributes on the item side, at most 128" in err


class TestUndecodableInput:
    """A data or config file that is not valid UTF-8 is a data error (exit
    2) naming its line or file, not a traceback."""

    @pytest.mark.parametrize("body, line", [
        (b"\xff", 1),
        (b"1\tuid=u0\tiid=i0\n0\tuid=u1 ua=\xe9\tiid=i0\n", 2),
        (b"1\tuid=u0\tiid=i0\r\n\r\n0\tuid=u1\tiid=i1\r0\tuid=u2\tiid=\xc3(\n", 4),
    ])
    def test_data_file(self, capsys, tmp_path, body, line):
        data = tmp_path / "data.tsv"
        data.write_bytes(body)
        code, _, err = run(capsys, "train", "--data", str(data), "--dim", "2", "--epochs", "1")
        assert code == 2, err
        assert f"line {line}:" in err and "UTF-8" in err
        assert "Traceback" not in err

    def test_config_file(self, capsys, tmp_path, synth_file):
        config = tmp_path / "run.conf"
        config.write_bytes(b"dim = 4\nepochs = \xff\n")
        code, _, err = run(capsys, "train", "--data", synth_file, "--config", str(config))
        assert code == 2, err
        assert str(config) in err and "UTF-8" in err
        assert "Traceback" not in err


class TestConfigRangeErrors:
    """An out-of-range flag or config value is a usage error (exit 1) that
    names the flag, and it fails before the data file is read."""

    _TRAIN_FLAG_ERRORS = [
        (("train", "--variant", "bogus"), "--variant"),
        (("train", "--dim", "0"), "--dim"),
        (("train", "--batch-size", "0"), "--batch-size"),
        (("train", "--lr", "nan"), "--lr"),
        (("train", "--lr", "inf"), "--lr"),
        (("train", "--lam", "nan"), "--lam"),
        (("train", "--seed", "-1"), "--seed"),
        (("ablate", "--variants", "inner=attention"), "--variants"),
        (("ablate", "--variants", "mode=fm", "--seeds", "-1"), "--seeds"),
        (("ablate", "--variants", "mode=fm", "--patience", "0"), "--patience"),
        (("train", "--dim", "100000000000"), "--dim"),
        (("train", "--threshold", "nan"), "--threshold"),
        (("train", "--threshold", "-inf"), "--threshold"),
        (("train", "--min-positives", "-3"), "--min-positives"),
        (("evaluate", "--ckpt", "never-read.ckpt", "--threshold", "nan"), "--threshold"),
        (("evaluate", "--ckpt", "never-read.ckpt", "--min-positives", "-1"), "--min-positives"),
        (("ablate", "--variants", "mode=fm", "--threshold", "inf"), "--threshold"),
        (("ablate", "--variants", ";"), "--variants"),
        (("ablate", "--variants", "mode=fm", "--seeds", ""), "--seeds"),
    ]

    @pytest.mark.parametrize("argv, flag", _TRAIN_FLAG_ERRORS)
    def test_train_flag(self, capsys, tmp_path, argv, flag):
        missing = str(tmp_path / "never-read.tsv")
        code, _, err = run(capsys, argv[0], "--data", missing, *argv[1:])
        assert code == 1, err
        assert flag in err and "usage" in err.lower()

    def test_config_file_value(self, capsys, tmp_path, synth_file):
        config = tmp_path / "run.conf"
        config.write_text("dim = 0\n")
        code, _, err = run(capsys, "train", "--data", synth_file, "--config", str(config))
        assert code == 1
        assert "--dim" in err

    @pytest.mark.parametrize("where", ["config file", "command line", "both"])
    def test_range_error_names_the_config_file_it_came_from(self, capsys, tmp_path, where):
        """A range error names the config file only when the bad value came
        from it; a value on the command line wins over the file's."""
        config = tmp_path / "run.conf"
        config.write_text("epochs = 1\n" if where == "command line" else "dim = 0\n")
        flags = [] if where == "config file" else ["--dim", "0"]
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "never-read.tsv"), "--config", str(config),
                           *flags)
        assert code == 1, err
        prefix = f"usage error: config file {config}: " if where == "config file" else "usage error: "
        assert usage_error_line(err) == prefix + "--dim: dim must be >= 1, got 0"

    def test_config_file_threshold(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("threshold = nan\n")
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "never-read.tsv"), "--config", str(config))
        assert code == 1
        assert "--threshold" in err

    _SYNTH_FLAG_ERRORS = [
        (("--users", "0"), "--users"),
        (("--item-card", "0"), "--item-card"),
        (("--affinity-rank", "0"), "--affinity-rank"),
        (("--noise", "nan"), "--noise"),
        (("--seed", "-3"), "--seed"),
        (("--users", "100000000000"), "--users"),
        (("--users", str(MAX_SYNTH_COUNT + 1)), "--users"),
        (("--items", "100000000000"), "--items"),
        (("--samples", str(MAX_SYNTH_COUNT + 1)), "--samples"),
        (("--user-card", str(MAX_SYNTH_CARD + 1)), "--user-card"),
        (("--second-user-card", "100000000000"), "--second-user-card"),
        (("--item-card", str(MAX_SYNTH_CARD + 1)), "--item-card"),
        (("--affinity-rank", str(MAX_SYNTH_CARD + 1)), "--affinity-rank"),
    ]

    @pytest.mark.parametrize("argv, flag", _SYNTH_FLAG_ERRORS)
    def test_synth_flag(self, capsys, tmp_path, argv, flag):
        out = tmp_path / "never-written.tsv"
        code, _, err = run(capsys, "synth", "--out", str(out), *argv)
        assert code == 1, err
        assert flag in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", _TRAIN_FLAG_ERRORS + [(("synth", *a), f) for a, f in _SYNTH_FLAG_ERRORS])
    def test_usage_error_line_names_the_flag(self, capsys, tmp_path, argv, flag):
        """The flag is named by the error itself, not only by the usage of
        the command printed under it."""
        path = str(tmp_path / "never-touched.tsv")
        code, _, err = run(capsys, argv[0], "--out" if argv[0] == "synth" else "--data", path, *argv[1:])
        assert code == 1, err
        assert flag in usage_error_line(err)
        assert not os.path.exists(path)

    _OTHER_COMMAND_FLAGS = [
        ("gradcheck", "--d", "0"), ("gradcheck", "--seed", "-1"), ("gradcheck", "--step", "nan"),
        ("gradcheck", "--step", "0"),
        ("fmcheck", "--d", "0"), ("fmcheck", "--n", "0"), ("fmcheck", "--seed", "-1"),
        ("evaluate", "--seed", "-1", "--split", "test", "--data", "never-read.tsv", "--ckpt", "never-read.ckpt"),
        ("gradcheck", "--d", str(MAX_DIM + 1)), ("gradcheck", "--d", "100000000000"),
        ("fmcheck", "--d", str(MAX_DIM + 1)), ("fmcheck", "--d", "100000000000"),
        ("gradcheck", "--tol", "nan"), ("gradcheck", "--tol", "0"), ("gradcheck", "--tol", "inf"),
        ("fmcheck", "--tol", "nan"), ("fmcheck", "--tol", "-1e-9"),
        ("gradcheck", "--instances", "0"), ("fmcheck", "--n", "-2"),
    ]

    @pytest.mark.parametrize("argv", _OTHER_COMMAND_FLAGS)
    def test_other_command_flag(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert argv[1] in err

    @pytest.mark.parametrize("argv", _OTHER_COMMAND_FLAGS)
    def test_other_command_flag_blames_no_other_flag(self, capsys, argv):
        """The error names the bad flag and no other flag of the command,
        and the usage of that command follows it."""
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {f for a in commands.choices[argv[0]]._actions for f in a.option_strings if f.startswith("--")}
        code, _, err = run(capsys, *argv)
        assert code == 1
        lines = err.splitlines()
        at = lines.index(usage_error_line(err))
        assert flags & set(re.findall(r"--[a-z][a-z-]*", lines[at])) == {argv[1]}
        assert lines[at + 1].startswith(f"usage: gmrec {argv[0]} ")


_NUMBERS = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "1e400", "-0", "0x10", "1_000", "nan", "-inf"]),
)
# --dim, --epochs, --d, --n and --instances stay small (or out of range),
# so a valid draw runs a tiny model; every other numeric flag takes any value.
_SMALL = st.integers(-2, 3).map(str)
_TRAIN_FLAG_VALUES = {
    "--dim": _SMALL,
    "--epochs": st.integers(-2, 2).map(str),
    **{flag: _NUMBERS for flag in ("--lr", "--lam", "--batch-size", "--patience", "--seed",
                                   "--threshold", "--min-positives")},
}
_FLAG_VALUES = {
    "train": _TRAIN_FLAG_VALUES,
    "ablate": _TRAIN_FLAG_VALUES,
    "gradcheck": {"--d": _SMALL, "--instances": _SMALL, **{flag: _NUMBERS for flag in ("--seed", "--step", "--tol")}},
    "fmcheck": {"--d": _SMALL, "--n": _SMALL, **{flag: _NUMBERS for flag in ("--seed", "--tol")}},
}


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data") / "data.tsv")
    write_synthetic(SynthSpec(users=12, items=8, samples=80, rule="xor_cross", seed=5), path)
    return path


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(_FLAG_VALUES)), data=st.data())
def test_random_numeric_flags_exit_0_1_or_2(small_data, command, data):
    """Any numeric flag values end in exit 0, 1 (bad flag) or 2 (data or
    numeric failure), never in an exception out of main(), whether train's
    and ablate's flags are given on the command line or in a config file."""
    values = _FLAG_VALUES[command]
    flags = data.draw(st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=4, unique=True), label="flags")
    argv = {
        "gradcheck": ["gradcheck", "--d=2", "--instances=1"],
        "fmcheck": ["fmcheck", "--d=2", "--n=2"],
    }.get(command, [command, "--data", small_data, "--dim=2", "--epochs=1"])
    drawn = {flag: data.draw(values[flag], label=flag) for flag in flags}
    in_file = []
    if command in ("train", "ablate"):
        in_file = data.draw(st.lists(st.sampled_from(flags), unique=True), label="in config file")
    argv += [f"{flag}={value}" for flag, value in drawn.items() if flag not in in_file]
    if in_file:
        config = os.path.join(os.path.dirname(small_data), "run.conf")
        with open(config, "w", encoding="utf-8") as handle:
            handle.writelines(f"{flag[2:]} = {drawn[flag]}\n" for flag in in_file)
        argv += ["--config", config]
    if command == "ablate":
        argv += ["--variants", "mode=fm"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            np.errstate(all="ignore"):
        code = main(argv)
    assert code in (0, 1, 2)


class TestChecks:
    def test_gradcheck_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--d", "6", "--seed", "1", "--instances", "2")
        assert code == 0
        value = float(out.split("max_relative_error=")[1])
        assert value < 1e-4

    def test_gradcheck_fails_with_absurd_tolerance(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--d", "6", "--seed", "1",
                           "--instances", "1", "--tol", "1e-18")
        assert code == 2

    def test_fmcheck_passes(self, capsys):
        code, out, _ = run(capsys, "fmcheck", "--n", "10", "--seed", "2")
        assert code == 0
        value = float(out.split("max_abs_deviation=")[1])
        assert value < 1e-9


class TestSynth:
    def test_writes_dataset_and_sidecar(self, capsys, tmp_path):
        out = str(tmp_path / "synthetic.tsv")
        code, _, _ = run(capsys, "synth", "--out", out, "--users", "10", "--items", "8",
                         "--samples", "40", "--seed", "3")
        assert code == 0
        assert os.path.exists(out)
        sidecar = json.loads(Path(out + ".rule.json").read_text())
        assert sidecar["spec"]["users"] == 10

    def test_same_seed_same_file(self, capsys, tmp_path):
        a = str(tmp_path / "a.tsv")
        b = str(tmp_path / "b.tsv")
        run(capsys, "synth", "--out", a, "--seed", "3")
        run(capsys, "synth", "--out", b, "--seed", "3")
        assert Path(a).read_text() == Path(b).read_text()


class TestTrainEvaluatePredict:
    def test_full_pipeline(self, capsys, tmp_path, synth_file):
        ckpt = str(tmp_path / "model.ckpt")
        code, out, err = run(
            capsys, "train", "--data", synth_file, "--out", ckpt,
            "--dim", "8", "--epochs", "3", "--batch-size", "64", "--seed", "0",
        )
        assert code == 0, err
        epoch_lines = [l for l in out.splitlines() if l.startswith("epoch=")]
        assert len(epoch_lines) == 3
        assert "train_loss=" in epoch_lines[0]
        assert "val_auc=" in epoch_lines[0]
        assert os.path.exists(ckpt)

        code, out, err = run(capsys, "evaluate", "--data", synth_file, "--ckpt", ckpt)
        assert code == 0, err
        assert out.startswith("auc=")
        assert "ndcg@5=" in out and "ndcg@10=" in out

        line = Path(synth_file).read_text().split("\n", 1)[0]
        code, out, err = run(capsys, "predict", "--ckpt", ckpt, "--line", line)
        assert code == 0, err
        assert out.startswith("score=") and "prob=" in out

        fields_only = "\t".join(line.split("\t")[1:])
        code2, out2, _ = run(capsys, "predict", "--ckpt", ckpt, "--line", fields_only)
        assert code2 == 0
        assert out2 == out

    def test_train_deterministic_logs(self, capsys, tmp_path, synth_file):
        args = ["train", "--data", synth_file, "--dim", "8", "--epochs", "2",
                "--batch-size", "64", "--seed", "7"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        lines1 = [l for l in out1.splitlines() if l.startswith("epoch=")]
        lines2 = [l for l in out2.splitlines() if l.startswith("epoch=")]
        assert lines1 == lines2

    def test_evaluate_test_split(self, capsys, tmp_path, synth_file):
        ckpt = str(tmp_path / "model.ckpt")
        run(capsys, "train", "--data", synth_file, "--out", ckpt,
            "--dim", "8", "--epochs", "1", "--batch-size", "64")
        code, out, _ = run(capsys, "evaluate", "--data", synth_file, "--ckpt", ckpt,
                           "--split", "test", "--seed", "0")
        assert code == 0
        assert out.startswith("auc=")

    def test_evaluate_per_user_breakdown(self, capsys, tmp_path, synth_file):
        ckpt = str(tmp_path / "model.ckpt")
        run(capsys, "train", "--data", synth_file, "--out", ckpt,
            "--dim", "8", "--epochs", "1", "--batch-size", "64")
        breakdown = tmp_path / "per_user.txt"
        code, _, _ = run(capsys, "evaluate", "--data", synth_file, "--ckpt", ckpt,
                         "--per-user", str(breakdown))
        assert code == 0
        text = breakdown.read_text()
        assert "user=" in text and "ndcg@10=" in text

    @pytest.mark.filterwarnings("ignore:.*fewer than 5 samples.*")
    def test_evaluate_empty_test_split_is_data_error(self, capsys, tmp_path):
        # every user has fewer than 5 samples, so the per-user split sends
        # everything to train and the test partition is empty
        data = tmp_path / "tiny.tsv"
        data.write_text("1\tu1\ti1\n0\tu1\ti2\n1\tu2\ti1\n0\tu2\ti2\n")
        ckpt = str(tmp_path / "model.ckpt")
        run(capsys, "train", "--data", str(data), "--out", ckpt,
            "--dim", "4", "--epochs", "0")
        code, _, err = run(capsys, "evaluate", "--data", str(data), "--ckpt", ckpt,
                           "--split", "test", "--seed", "0")
        assert code == 2
        assert "no samples" in err

    @pytest.mark.filterwarnings("ignore:.*fewer than 5 samples.*")
    def test_evaluate_single_class_is_data_error(self, capsys, tmp_path):
        data = tmp_path / "oneclass.tsv"
        data.write_text("1\tu1\ti1\n1\tu1\ti2\n1\tu2\ti1\n")
        ckpt = str(tmp_path / "model.ckpt")
        run(capsys, "train", "--data", str(data), "--out", ckpt,
            "--dim", "4", "--epochs", "0")
        code, _, err = run(capsys, "evaluate", "--data", str(data), "--ckpt", ckpt)
        assert code == 2
        assert "error" in err.lower()

    def test_predict_unknown_attribute_is_data_error(self, capsys, tmp_path, synth_file):
        ckpt = str(tmp_path / "model.ckpt")
        run(capsys, "train", "--data", synth_file, "--out", ckpt,
            "--dim", "4", "--epochs", "0")
        code, _, err = run(capsys, "predict", "--ckpt", ckpt,
                           "--line", "unseen_attribute\tiid=i0")
        assert code == 2
        assert "embedding" in err

    def test_checkpoint_after_dropping_users(self, capsys, tmp_path):
        """--min-positives drops users whose attribute names stay in the
        vocabulary; the checkpoint holds the names of its embedding rows."""
        data, ckpt = str(tmp_path / "d.tsv"), str(tmp_path / "m.ckpt")
        assert run(capsys, "synth", "--out", data, "--users", "30", "--items", "20", "--samples", "300")[0] == 0
        flags = ["--data", data, "--min-positives", "6"]
        code, _, err = run(capsys, "train", *flags, "--epochs", "1", "--dim", "4", "--out", ckpt)
        assert code == 0, err
        code, out, err = run(capsys, "evaluate", *flags, "--ckpt", ckpt)
        assert code == 0, err
        assert out.startswith("auc=")

    def test_defaults_come_from_the_dataclasses(self, capsys, monkeypatch, tmp_path, synth_file):
        """train with no flags and no config file builds TrainConfig() and
        ParseOptions(), and synth with --out alone builds SynthSpec()."""
        seen = {}

        def write(spec, path):
            seen["spec"] = spec
            raise EngineError("stop")

        def stop(split, config):
            seen["config"] = config
            raise EngineError("stop")

        def parse(path, options=None, vocab=None):
            seen["options"] = options
            return parse_dataset(path, options, vocab)

        monkeypatch.setattr(cli, "train", stop)
        monkeypatch.setattr(cli, "parse_dataset", parse)
        monkeypatch.setattr(cli, "write_synthetic", write)
        code, _, _ = run(capsys, "train", "--data", synth_file)
        assert code == 2
        code, _, _ = run(capsys, "synth", "--out", str(tmp_path / "never-written.tsv"))
        assert code == 2
        assert seen == {"config": TrainConfig(), "options": ParseOptions(), "spec": SynthSpec()}

    def test_config_file_precedence(self, capsys, tmp_path, synth_file):
        config = tmp_path / "run.conf"
        config.write_text("epochs = 2\ndim = 4\n# comment\nbatch-size = 64\n")
        code, out, _ = run(capsys, "train", "--data", synth_file,
                           "--config", str(config), "--epochs", "1")
        assert code == 0
        epoch_lines = [l for l in out.splitlines() if l.startswith("epoch=")]
        assert len(epoch_lines) == 1  # flag beats config file

        code, out, _ = run(capsys, "train", "--data", synth_file, "--config", str(config))
        epoch_lines = [l for l in out.splitlines() if l.startswith("epoch=")]
        assert len(epoch_lines) == 2  # config file beats default


class TestAblateAndMatrices:
    def test_ablate_table(self, capsys, tmp_path, synth_file):
        code, out, err = run(
            capsys, "ablate", "--data", synth_file,
            "--variants", "inner=mlp,cross=bi,fuse=gru;inner=mlp,cross=none,fuse=gru;mode=fm",
            "--seeds", "0", "--dim", "4", "--epochs", "2", "--batch-size", "64",
        )
        assert code == 0, err
        lines = out.strip().splitlines()
        table = [l for l in lines if not l.startswith("#")]
        assert table[0].startswith("variant")
        assert len(table) == 4
        assert any(l.startswith("mode=fm") for l in table)

    def test_export_matrices(self, capsys, tmp_path, synth_file):
        ckpt = str(tmp_path / "model.ckpt")
        run(capsys, "train", "--data", synth_file, "--out", ckpt,
            "--dim", "4", "--epochs", "1", "--batch-size", "64")
        code, out, err = run(capsys, "export-matrices", "--ckpt", ckpt,
                             "--group-a", "ua=*", "--group-b", "ic=*")
        assert code == 0, err
        assert "cosine similarity" in out
        assert "node matching" in out
        assert "ua=c0" in out

    def test_export_matrices_unknown_name(self, capsys, tmp_path, synth_file):
        ckpt = str(tmp_path / "model.ckpt")
        run(capsys, "train", "--data", synth_file, "--out", ckpt,
            "--dim", "4", "--epochs", "1", "--batch-size", "64")
        code, _, err = run(capsys, "export-matrices", "--ckpt", ckpt,
                           "--group-a", "nonexistent", "--group-b", "ic=*")
        assert code == 2
