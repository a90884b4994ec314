import contextlib
import io
import json
import os
import select
import signal
import subprocess
import sys
import time
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import framecmd
from framecmd import cli
from framecmd.cli import (EXIT_BROKEN_PIPE, EXIT_INTERRUPTED, build_configs,
                          load_config, main)
from framecmd.model import CheckpointError, load_checkpoint, save_checkpoint

# The source tree holding the package, for child processes.
SRC = str(Path(framecmd.__file__).resolve().parents[1])
FAST_OVERRIDES = ["--override", "epochs=2", "--override", "hidden_size=4",
                  "--override", "decoder_hidden=4",
                  "--override", "embedding_dim=8",
                  "--override", "attention_size=4",
                  "--override", "label_embedding_dim=3",
                  "--override", "patience=0"]


def no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


def forbid_work(monkeypatch, *names):
    """Make each named function of framecmd.cli fail the test if called."""
    for name in names:
        monkeypatch.setattr(cli, name, no_work)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc = main(["gen-corpus", "--n", "24", "--seed", "3",
               "--out", str(d / "corpus.jsonl"),
               "--map-out", str(d / "house.map.json")])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def overfit_ckpt(tmp_path_factory, overfit_bundle):
    path = tmp_path_factory.mktemp("ckpt") / "overfit.ckpt"
    save_checkpoint(path, overfit_bundle["model"], overfit_bundle["table"])
    return str(path)


class TestGenCorpus:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["gen-corpus", "--n", "10", "--seed", "5",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.map.json").exists()

    def test_frame_subset(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert main(["gen-corpus", "--n", "8", "--frames", "Motion,Taking",
                     "--out", str(out)]) == 0
        frames = {json.loads(l)["frame"]["frame_type"]
                  for l in out.read_text().splitlines()}
        assert frames == {"Motion", "Taking"}

    def test_unknown_frame_exit_2(self, tmp_path, capsys):
        rc = main(["gen-corpus", "--n", "2", "--frames", "Teleporting",
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        # random.Random(-1) would give the corpus of seed 1.
        rc = main(["gen-corpus", "--n", "2", "--seed", "-1",
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2
        assert "seed" in assert_one_line_error(capsys)
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    def test_writes_checkpoint_and_history(self, workdir):
        ckpt = workdir / "tiny.ckpt"
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", "2l_no_att", "--out", str(ckpt)]
                  + FAST_OVERRIDES)
        assert rc == 0
        assert ckpt.exists()
        hist = json.loads((workdir / "tiny.ckpt.history.json").read_text())
        assert hist["config"] == "2L-NO-ATT"
        assert hist["epochs_run"] == 2
        assert len(hist["loss_history"]) == 2

    def test_override_lands_in_checkpoint_header(self, workdir):
        ckpt = workdir / "tiny.ckpt"
        header = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
        assert header["config"]["hidden_size"] == 4
        assert header["config"]["variant"] == "2L"
        assert header["config"]["attention"] is False

    # lr=1e9 blows the loss up with every value finite; at lr=1e300
    # the forward pass overflows to NaN. SGD at lr=1.7e308 takes one
    # step, the run's last, that leaves weights overflowed to inf. In
    # eval --cv --jobs 2 the folds diverge in the pool's workers.
    @pytest.mark.parametrize("command, overrides", [
        pytest.param(["train"], ["lr=1e9"], id="1e9"),
        pytest.param(["train"], ["lr=1e300"], id="1e300"),
        pytest.param(["train"], ["optimizer=sgd", "lr=1.7e308",
                                 "batch_size=64", "epochs=1"],
                     id="sgd-last-step"),
        pytest.param(["eval", "--config", "2l_no_att", "--cv", "3",
                      "--jobs", "2"], ["lr=1e9"], id="cv-jobs-2")])
    def test_diverging_run_exit_5_and_writes_nothing(self, workdir,
                                                     tmp_path, command,
                                                     overrides):
        out = tmp_path / "model.ckpt"
        out.write_bytes(b"an earlier checkpoint")
        # A child process, so that numpy's warnings reach stderr as a
        # user sees them instead of pytest's warning capture.
        proc = subprocess.run(
            [sys.executable, "-m", "framecmd"] + command
            + ["--corpus", str(workdir / "corpus.jsonl"), "--out", str(out)]
            + FAST_OVERRIDES + [a for ov in overrides
                                for a in ("--override", ov)],
            capture_output=True, text=True)
        assert proc.returncode == 5
        err = proc.stderr.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: training diverged")
        assert out.read_bytes() == b"an earlier checkpoint"
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]

    def test_interrupt_exit_130_and_writes_nothing(self, workdir, tmp_path,
                                                   monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "train", interrupted)
        ckpt = tmp_path / "model.ckpt"
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--out", str(ckpt)] + FAST_OVERRIDES)
        assert rc == EXIT_INTERRUPTED
        assert assert_one_line_error(capsys) == "error: interrupted\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_corpus_exit_3(self, tmp_path, capsys):
        rc = main(["train", "--corpus", str(tmp_path / "missing.jsonl")])
        assert rc == 3
        assert "not found" in capsys.readouterr().err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wheels = 4\n")
        rc = main(["train", "--corpus", str(tmp_path / "missing.jsonl"),
                   "--config", str(cfg)])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_unknown_preset_exit_2(self, workdir):
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", "9l_att"])
        assert rc == 2

    # The paper's presets: one set of hyperparameters for all four
    # parsers, written out so that a changed dataclass default fails here.
    @pytest.mark.parametrize("name,variant,attention", [
        ("2l_att", "2L", True), ("2l_no_att", "2L", False),
        ("3l_att", "3L", True), ("3l_no_att", "3L", False),
        ("3L-NO-ATT", "3L", False)])
    def test_preset_values(self, name, variant, attention):
        model_cfg, train_cfg = build_configs(load_config(name))
        assert asdict(model_cfg) == {
            "variant": variant, "attention": attention, "embedding_dim": 50,
            "hidden_size": 32, "decoder_hidden": 32, "attention_size": 16,
            "label_embedding_dim": 8, "dropout": 0.3, "seed": 42}
        assert asdict(train_cfg) == {
            "epochs": 150, "batch_size": 8, "lr": 0.001,
            "optimizer": "adam", "patience": 10, "seed": 42, "k": 5}


class TestEval:
    def test_checkpoint_eval_with_map(self, workdir, capsys):
        out = workdir / "metrics.json"
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--ckpt", str(workdir / "tiny.ckpt"),
                   "--maps", str(workdir / "house.map.json"),
                   "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "Configuration" in stdout and "2L-NO-ATT" in stdout
        doc = json.loads(out.read_text())["2L-NO-ATT"]
        assert 0.0 <= doc["ad_f1"] <= 1.0
        assert "chain_accuracy" in doc
        assert (workdir / "metrics.json.txt").read_text() == stdout

    def test_cv_requires_config(self, workdir, capsys):
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--cv", "2"])
        assert rc == 2
        assert "--cv requires --config" in capsys.readouterr().err

    def test_cv_smoke(self, workdir, capsys):
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", "2l_no_att", "--cv", "2"] + FAST_OVERRIDES)
        assert rc == 0
        assert "2L-NO-ATT" in capsys.readouterr().out

    def test_cv_pool_interrupt_exit_130_at_once(self, workdir):
        # Ctrl-C signals the whole foreground process group: the parent
        # and the pool's workers. Each fold here trains for many
        # seconds, so a run that finished a fold first would be late.
        proc = subprocess.Popen(
            [sys.executable, "-m", "framecmd", "eval", "--corpus",
             str(workdir / "corpus.jsonl"), "--config", "2l_no_att",
             "--cv", "3", "--jobs", "2"] + FAST_OVERRIDES
            + ["--override", "epochs=20000"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            time.sleep(2)
            assert proc.poll() is None, proc.stderr.read()
            os.killpg(proc.pid, signal.SIGINT)
            assert proc.wait(timeout=5) == EXIT_INTERRUPTED
            err = proc.stderr.read()
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stderr.close()
        assert err == "error: interrupted\n"

    def test_needs_ckpt_or_cv(self, workdir, capsys):
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl")])
        assert rc == 2

    def test_bad_checkpoint_exit_4(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint\n")
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--ckpt", str(bad)])
        assert rc == 4

    @pytest.mark.parametrize("flags", [
        ["--config", "3l_att"], ["--override", "epochs=nonsense"],
        ["--embeddings", "/nonexistent"], ["--cv", "2"], ["--jobs", "2"],
        ["--config", "3l_att", "--cv", "2"]])
    def test_ckpt_with_a_cross_validation_flag_exit_2_before_any_work(
            self, workdir, overfit_ckpt, capsys, monkeypatch, flags):
        forbid_work(monkeypatch, "_read_corpus", "load_checkpoint",
                    "cross_validate")
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--ckpt", overfit_ckpt] + flags)
        assert rc == 2
        assert flags[0] in assert_one_line_error(capsys)


class TestParse:
    def test_parses_command(self, overfit_ckpt, capsys):
        rc = main(["parse", overfit_ckpt, "go to the kitchen"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["frame_type"] == "Motion"
        assert doc["elements"] == [{"type": "Goal", "span": [1, 3]}]

    def test_grounding_with_map(self, overfit_ckpt, workdir, capsys):
        rc = main(["parse", overfit_ckpt, "go to the kitchen",
                   "--map", str(workdir / "house.map.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["groundings"] == [
            {"type": "Goal", "span": [1, 3], "entity": "kitchen_1"}]

    def test_show_attention(self, overfit_ckpt, capsys):
        rc = main(["parse", overfit_ckpt, "take the book to the kitchen",
                   "--show-attention"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        att = doc["attention"]
        assert set(att) == {"ad", "layer2", "layer3"}
        for rows in att.values():
            for row in rows:
                np.testing.assert_allclose(sum(row), 1.0, atol=1e-9)

    def test_empty_sentence_exit_2(self, overfit_ckpt, capsys):
        assert main(["parse", overfit_ckpt, "   "]) == 2
        assert "empty sentence" in capsys.readouterr().err

    def test_truncated_checkpoint_exit_4(self, overfit_ckpt, tmp_path):
        blob = Path(overfit_ckpt).read_bytes()
        bad = tmp_path / "trunc.ckpt"
        bad.write_bytes(blob[:len(blob) // 2])
        assert main(["parse", str(bad), "go home"]) == 4

    def test_missing_checkpoint_exit_4(self, tmp_path, capsys):
        assert main(["parse", str(tmp_path / "nosuch.ckpt"), "go home"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_map_exit_3(self, overfit_ckpt, tmp_path, capsys):
        rc = main(["parse", overfit_ckpt, "go to the kitchen",
                   "--map", str(tmp_path / "nosuch.json")])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("extra", [b"\0" * 8, b"\0" * 3])
    def test_trailing_checkpoint_data_exit_4(self, overfit_ckpt, tmp_path,
                                             extra):
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(Path(overfit_ckpt).read_bytes() + extra)
        with pytest.raises(CheckpointError):
            load_checkpoint(padded)
        assert main(["parse", str(padded), "go home"]) == 4

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_checkpoint_value_exit_4(self, overfit_ckpt, tmp_path,
                                                capsys, value):
        # The value replaces the payload's first float, of ad_head.W.
        header, payload = Path(overfit_ckpt).read_bytes().split(b"\n", 1)
        bad = tmp_path / "non_finite.ckpt"
        bad.write_bytes(header + b"\n" + np.array([value], "<f8").tobytes()
                        + payload[8:])
        assert main(["parse", str(bad), "go home"]) == 4
        assert "not finite" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("text,offset", [
        (b'"Bringing"', 2), (b'"kitchen"', 1), (b'}, "vocab"', -1),
        (b'}\n', -1)], ids=["frame", "token", "config", "crc32"])
    def test_header_bit_flip_exit_4(self, overfit_ckpt, tmp_path, capsys,
                                    text, offset):
        # Each flip leaves a header that parses: a frame named
        # "Bsinging", the token "kitchen" misspelt, the last digit of the
        # seed (the config's last value) or of the crc32 changed.
        data = bytearray(Path(overfit_ckpt).read_bytes())
        data[data.index(text) + offset] ^= 1
        bad = tmp_path / "flipped.ckpt"
        bad.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
        assert main(["parse", str(bad), "go home"]) == 4
        assert "crc32" in assert_one_line_error(capsys)

    def test_payload_bit_flip_exit_4(self, overfit_ckpt, tmp_path, capsys):
        # One flipped bit of a token vector keeps every value finite.
        data = bytearray(Path(overfit_ckpt).read_bytes())
        data[-5000] ^= 1
        bad = tmp_path / "flipped.ckpt"
        bad.write_bytes(bytes(data))
        assert main(["parse", str(bad), "go home"]) == 4
        assert "crc32" in assert_one_line_error(capsys)

    def test_weights_training_cannot_produce_exit_4(self, overfit_ckpt,
                                                    tmp_path):
        # Every weight times 1e200 is finite, but the squared parameter
        # norm overflows. A child process shows any numpy warning.
        header, payload = Path(overfit_ckpt).read_bytes().split(b"\n", 1)
        n = sum(int(np.prod(shape)) for _, shape in
                json.loads(header)["params"])
        data = np.frombuffer(payload, "<f8").copy()
        data[:n] *= 1e200
        big = tmp_path / "big.ckpt"
        big.write_bytes(header + b"\n" + data.astype("<f8").tobytes())
        proc = subprocess.run(
            [sys.executable, "-m", "framecmd", "parse", str(big),
             "go to the kitchen"], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "norm" in proc.stderr


COMMANDS = ["go to the kitchen", "take the book to the kitchen",
            "bring  the mug to the bathroom ", "look for the towel",
            "put the book on the table", "café kitchen"]


def stdin_of(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BytesIO(text.encode("utf-8"))))


class TestParseStdin:
    def one_by_one(self, ckpt, flags, capsys):
        answers = []
        for line in COMMANDS:
            assert main(["parse", ckpt, line] + flags) == 0
            answers.append(capsys.readouterr().out)
        return answers

    def test_answers_match_separate_calls(self, overfit_ckpt, workdir,
                                          monkeypatch, capsys):
        flags = ["--map", str(workdir / "house.map.json"),
                 "--show-attention"]
        expected = self.one_by_one(overfit_ckpt, flags, capsys)
        stdin_of(monkeypatch, "\n".join(COMMANDS) + "\n")
        assert main(["parse", overfit_ckpt, "-"] + flags) == 0
        captured = capsys.readouterr()
        assert captured.out == "".join(expected)
        assert captured.err == ""

    def test_blank_line_is_answered_and_the_run_reads_on(
            self, overfit_ckpt, monkeypatch, capsys):
        expected = self.one_by_one(overfit_ckpt, [], capsys)
        stdin_of(monkeypatch, "\n".join(COMMANDS[:3] + ["  "] + COMMANDS[3:]))
        assert main(["parse", overfit_ckpt, "-"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "".join(
            expected[:3] + ['{"error": "empty sentence"}\n'] + expected[3:])
        assert captured.err == ""

    def test_answers_after_blank_lines_match_separate_calls(
            self, overfit_ckpt, workdir, monkeypatch, capsys):
        # A recognizer that heard nothing gives an empty or blank line;
        # every later answer is still the separate call's, byte for byte.
        flags = ["--map", str(workdir / "house.map.json"),
                 "--show-attention"]
        expected = self.one_by_one(overfit_ckpt, flags, capsys)
        blank = '{"error": "empty sentence"}\n'
        stdin_of(monkeypatch, "\n \t\n" + "\n\n".join(COMMANDS) + "\n\n")
        assert main(["parse", overfit_ckpt, "-"] + flags) == 0
        captured = capsys.readouterr()
        assert captured.out == blank * 2 + "".join(
            answer + blank for answer in expected)
        assert captured.err == ""

    def test_closed_stdin_exit_2(self, overfit_ckpt, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", None)   # Python's closed fd 0
        assert main(["parse", overfit_ckpt, "-"]) == 2
        assert "stdin" in assert_one_line_error(capsys)

    def test_child_answers_before_stdin_closes(self, overfit_ckpt, capsys):
        assert main(["parse", overfit_ckpt, COMMANDS[0]]) == 0
        expected = capsys.readouterr().out
        # Python buffers a piped stdout unless told otherwise.
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "framecmd", "parse", overfit_ckpt, "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env)
        try:
            proc.stdin.write(COMMANDS[0] + "\n")
            proc.stdin.flush()
            # Without a flush per answer, no line arrives until stdin
            # closes, and the wait times out instead of hanging.
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "no answer within 60 s while stdin was open"
            assert proc.stdout.readline() == expected
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stdout.read() == ""
            assert proc.stderr.read() == ""
        finally:
            proc.kill()
            proc.wait()
            for f in (proc.stdin, proc.stdout, proc.stderr):
                f.close()

    def test_interrupt_while_waiting_exit_130(self, overfit_ckpt):
        # SIGINT's default action restored in the child, in case this
        # process runs with it ignored (as a background job does).
        proc = subprocess.Popen(
            [sys.executable, "-m", "framecmd", "parse", overfit_ckpt, "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            proc.stdin.write(COMMANDS[0] + "\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 60)
            assert ready, "no answer within 60 s while stdin was open"
            assert json.loads(proc.stdout.readline())["tokens"] == [
                "go", "to", "the", "kitchen"]
            proc.send_signal(signal.SIGINT)     # stdin still open
            assert proc.wait(timeout=60) == EXIT_INTERRUPTED
            err = proc.stderr.read()
        finally:
            proc.kill()
            proc.wait()
            for f in (proc.stdin, proc.stdout, proc.stderr):
                f.close()
        assert err == "error: interrupted\n"

    def test_reader_closing_early_ends_in_one_line(self, overfit_ckpt):
        # 2,000 answers outgrow the pipe, so the child blocks writing
        # until its reader closes the pipe after the first line; the
        # next write then fails with EPIPE.
        proc = subprocess.Popen(
            [sys.executable, "-m", "framecmd", "parse", overfit_ckpt, "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        try:
            proc.stdin.write(b"go to the kitchen\n" * 2000)
            proc.stdin.close()
            first = proc.stdout.readline()
            proc.stdout.close()
            assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
            err = proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.wait()
            for f in (proc.stdin, proc.stdout, proc.stderr):
                f.close()
        assert json.loads(first)["tokens"] == ["go", "to", "the", "kitchen"]
        assert err.startswith("error: ") and err.count("\n") == 1


class TestGradcheck:
    def test_all_architectures_pass(self, capsys):
        rc = main(["gradcheck", "--hidden", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("2L-ATT", "2L-NO-ATT", "3L-ATT", "3L-NO-ATT"):
            assert f"{name}: max relative error" in out
        assert out.count("PASS") == 4
        assert "eps=1e-05" in out

    def test_corrupted_gradients_fail(self, capsys, doubled_gradients):
        rc = main(["gradcheck", "--hidden", "4"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


def assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


class TestConfigErrors:
    @pytest.mark.parametrize("override", [
        "batch_size=0", "lr=-1", "lr=inf", "patience=-1", "epochs=0",
        "optimizer=foo", "seed=-1",
        # values that do not have their field's type
        "epochs=1.5", "hidden_size=2.5", "seed=1.5", "attention=3",
        "batch_size=true", "dropout=abc"])
    def test_out_of_range_train_setting_exit_2(self, workdir, tmp_path,
                                               capsys, override):
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--override", override, "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert override.split("=")[0] in assert_one_line_error(capsys)
        assert not (tmp_path / "m.ckpt").exists()

    def test_ill_typed_config_file_value_exit_2(self, workdir, tmp_path,
                                                capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("variant = 3L\nhidden_size = 2.5\n")
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", str(cfg), "--out", str(tmp_path / "m.ckpt")])
        assert rc == 2
        assert "line 2: hidden_size" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_eval_jobs_below_1_exit_2(self, workdir, capsys, jobs):
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", "2l_no_att", "--cv", "2", "--jobs", jobs])
        assert rc == 2
        assert "--jobs" in assert_one_line_error(capsys)

    # made: a file the command writes, made beforehand a directory
    # ("name/"), a FIFO, on which a write would block ("name|"), or a
    # symlink into a missing directory ("name@").
    @pytest.mark.parametrize("argv,made", [
        (["train", "--config", "2l_no_att", "--out", "{missing}/m.ckpt"]
         + FAST_OVERRIDES, None),
        (["eval", "--config", "2l_no_att", "--cv", "2",
          "--out", "{missing}/metrics.json"] + FAST_OVERRIDES, None),
        (["gen-corpus", "--n", "3", "--out", "{missing}/c.jsonl"], None),
        (["gen-corpus", "--n", "3", "--out", "{tmp}/c.jsonl",
          "--map-out", "{missing}/c.map.json"], None),
        (["train", "--config", "2l_no_att", "--out", "{tmp}"]
         + FAST_OVERRIDES, None),
        (["train", "--config", "2l_no_att", "--out", "{tmp}/m.ckpt"]
         + FAST_OVERRIDES, "m.ckpt.history.json/"),
        (["eval", "--config", "2l_no_att", "--cv", "2",
          "--out", "{tmp}/metrics.json"] + FAST_OVERRIDES,
         "metrics.json.txt/"),
        (["gen-corpus", "--n", "3", "--out", "{tmp}/c.jsonl",
          "--map-out", "{tmp}/m"], "m/"),
        (["train", "--config", "2l_no_att", "--out", "{tmp}/m.ckpt"]
         + FAST_OVERRIDES, "m.ckpt|"),
        (["train", "--config", "2l_no_att", "--out", "{tmp}/m.ckpt"]
         + FAST_OVERRIDES, "m.ckpt.history.json|"),
        (["eval", "--config", "2l_no_att", "--cv", "2",
          "--out", "{tmp}/metrics.json"] + FAST_OVERRIDES,
         "metrics.json.txt|"),
        (["gen-corpus", "--n", "3", "--out", "{tmp}/c.jsonl"], "c.jsonl|"),
        (["gen-corpus", "--n", "3", "--out", "{tmp}/c.jsonl"],
         "c.map.json|"),
        (["gen-corpus", "--n", "3", "--out", "{tmp}/c.jsonl"], "c.jsonl@"),
    ], ids=["train", "eval", "gen-corpus", "gen-corpus-map", "out-is-dir",
            "train-history-is-dir", "eval-report-is-dir",
            "gen-corpus-map-is-dir", "out-is-fifo", "train-history-is-fifo",
            "eval-report-is-fifo", "gen-corpus-out-is-fifo",
            "gen-corpus-map-is-fifo", "out-links-to-missing-directory"])
    def test_out_path_not_writable_exit_2_before_any_work(
            self, workdir, tmp_path, capsys, monkeypatch, argv, made):
        forbid_work(monkeypatch, "train", "cross_validate",
                    "generate_synthetic")
        if made:
            path, kind = tmp_path / made[:-1], made[-1]
            if kind == "@":
                path.symlink_to(tmp_path / "missing" / "c.jsonl")
            else:
                (os.mkfifo if kind == "|" else os.mkdir)(path)
        argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path)
                for a in argv]
        if argv[0] != "gen-corpus":
            argv += ["--corpus", str(workdir / "corpus.jsonl")]
        assert main(argv) == 2
        assert "-out" in assert_one_line_error(capsys)
        assert [p.name for p in tmp_path.iterdir()] == (
            [path.name] if made else [])
        if made:    # as it was: an empty directory, a FIFO or a symlink
            assert (list(path.iterdir()) == [] if kind == "/" else
                    path.is_fifo() if kind == "|" else path.is_symlink())

    @pytest.mark.parametrize("argv", [
        ["train", "--out", "{tmp}/c.jsonl"],
        ["train", "--config", "{tmp}/a.cfg", "--out", "{tmp}/a.cfg"],
        ["train", "--embeddings", "{tmp}/e.txt", "--override",
         "embedding_dim=1", "--out", "{tmp}/sub/../e.txt"],
        ["eval", "--ckpt", "{tmp}/m.ckpt", "--out", "{tmp}/m.ckpt"],
        ["eval", "--ckpt", "{tmp}/m.ckpt", "--maps", "{tmp}/h.map.json",
         "--out", "{tmp}/h.map.json"],
        ["eval", "--ckpt", "{tmp}/m.ckpt", "--maps", "{tmp}/h.map.json",
         "--out", "{tmp}/link.json"],
        ["eval", "--ckpt", "{tmp}/m.ckpt", "--maps", "{tmp}/r.txt",
         "--out", "{tmp}/r"],
        ["eval", "--config", "2l_no_att", "--cv", "2",
         "--out", "{tmp}/c.jsonl"],
        ["gen-corpus", "--n", "3", "--out", "{tmp}/new.jsonl",
         "--map-out", "{tmp}/./new.jsonl"],
        ["train", "--out", "{tmp}/x"],
    ], ids=["train-corpus", "train-config", "train-embeddings", "eval-ckpt",
            "eval-maps", "eval-maps-hard-link", "eval-report-is-a-map", "eval-cv-corpus",
            "gen-corpus-map-is-corpus", "train-history-is-corpus"])
    def test_out_naming_another_file_exit_2_before_any_work(
            self, workdir, overfit_ckpt, tmp_path, capsys, monkeypatch,
            argv):
        # Each command would have overwritten an input it had read, or,
        # for gen-corpus, its corpus with its map.
        forbid_work(monkeypatch, "train", "cross_validate", "load_checkpoint",
                    "evaluate", "generate_synthetic")
        files = {"c.jsonl": (workdir / "corpus.jsonl").read_bytes(),
                 "h.map.json": (workdir / "house.map.json").read_bytes(),
                 "r.txt": (workdir / "house.map.json").read_bytes(),
                 "m.ckpt": Path(overfit_ckpt).read_bytes(),
                 "a.cfg": b"variant = 2L\n", "e.txt": b"go 0.5\n"}
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        os.link(tmp_path / "h.map.json", tmp_path / "link.json")
        files["link.json"] = files["h.map.json"]
        os.link(tmp_path / "c.jsonl", tmp_path / "x.history.json")
        files["x.history.json"] = files["c.jsonl"]
        (tmp_path / "sub").mkdir()
        argv = [a.format(tmp=tmp_path) for a in argv]
        if argv[0] != "gen-corpus":
            argv += ["--corpus", str(tmp_path / "c.jsonl")]
        assert main(argv) == 2
        assert "-out" in assert_one_line_error(capsys)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()
                if p.is_file()} == files

    @pytest.mark.parametrize("k", ["50", "1", "0"])
    def test_cv_outside_corpus_size_exit_2(self, workdir, capsys, k):
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", "2l_no_att", "--cv", k])
        assert rc == 2
        assert "--cv" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["train", "--override", "k=3"],
        ["eval", "--config", "2l_no_att", "--cv", "2", "--override", "k=3"],
        ["train", "--config", "{tmp}/folds.cfg"],
        ["eval", "--config", "{tmp}/folds.cfg", "--cv", "2"]],
        ids=["train-override", "eval-override", "train-file", "eval-file"])
    def test_k_is_not_a_config_key_exit_2(self, workdir, tmp_path, capsys,
                                          monkeypatch, argv):
        # Only eval --cv K sets the number of folds.
        forbid_work(monkeypatch, "train", "cross_validate")
        (tmp_path / "folds.cfg").write_text("variant = 2L\nk = 4\n")
        argv = [a.format(tmp=tmp_path) for a in argv]
        rc = main(argv + ["--corpus", str(workdir / "corpus.jsonl"),
                          "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown key 'k'" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("flags", [["--eps", "0"], ["--eps", "-0.5"],
                                       ["--eps", "nan"], ["--eps", "inf"],
                                       ["--hidden", "0"], ["--seed", "-3"]])
    def test_gradcheck_bad_setting_exit_2(self, capsys, flags):
        assert main(["gradcheck"] + flags) == 2
        assert flags[0] in assert_one_line_error(capsys)


    # numpy refuses each config's first oversized array outright,
    # allocating nothing: an embedding table, a model weight or bias.
    @pytest.mark.parametrize("argv", [
        ["train", "--override", "hidden_size=1000000000000000000"],
        ["train", "--override", "embedding_dim=10000000000000000"],
        ["eval", "--config", "2l_no_att", "--cv", "2",
         "--override", "embedding_dim=10000000000000000"],
        ["eval", "--config", "2l_no_att", "--cv", "2", "--jobs", "2",
         "--override", "hidden_size=100000000000000000"],
        ["gradcheck", "--hidden", "100000000000000000"]],
        ids=["train-hidden", "train-embedding", "cv-embedding",
             "cv-jobs-hidden", "gradcheck"])
    def test_config_too_large_to_allocate_exit_2_before_any_training(
            self, workdir, tmp_path, capsys, monkeypatch, argv):
        from framecmd import pipeline
        forbid_work(monkeypatch, "train", "grad_check")
        monkeypatch.setattr(pipeline, "train", no_work)
        if argv[0] != "gradcheck":
            argv = argv + ["--corpus", str(workdir / "corpus.jsonl"),
                           "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "too large" in assert_one_line_error(capsys)
        assert list(tmp_path.iterdir()) == []


class TestUnreadableFiles:
    def test_directory_as_corpus_exit_3(self, tmp_path, capsys):
        assert main(["train", "--corpus", str(tmp_path)]) == 3
        assert "corpus" in assert_one_line_error(capsys)

    def test_directory_as_map_exit_3(self, overfit_ckpt, tmp_path, capsys):
        rc = main(["parse", overfit_ckpt, "go home", "--map", str(tmp_path)])
        assert rc == 3
        assert "map" in assert_one_line_error(capsys)

    def test_directory_as_eval_map_exit_3(self, workdir, tmp_path, capsys):
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--ckpt", str(workdir / "tiny.ckpt"),
                   "--maps", str(tmp_path)])
        assert rc == 3
        assert_one_line_error(capsys)

    def test_directory_as_embeddings_exit_3(self, workdir, tmp_path, capsys):
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--embeddings", str(tmp_path)])
        assert rc == 3
        assert "embeddings" in assert_one_line_error(capsys)

    def test_non_utf8_corpus_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\xff\xfe\x00")
        assert main(["train", "--corpus", str(bad)]) == 3
        assert_one_line_error(capsys)

    def test_directory_as_config_exit_2(self, workdir, tmp_path, capsys):
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--config", str(tmp_path)])
        assert rc == 2
        assert_one_line_error(capsys)


def good_record():
    return {"id": "s1", "tokens": ["go", "home"],
            "frame": {"frame_type": "Motion", "lexical_unit": [0, 0],
                      "elements": [{"type": "Goal", "span": [1, 1]}]}}


class TestDataErrors:
    @pytest.mark.parametrize("edit", [
        lambda r: r["frame"]["elements"][0].update(span=[0]),
        lambda r: r["frame"].update(lexical_unit=[0]),
        lambda r: r.update(tokens=[1, 2]),
        lambda r: r.update(tokens="abc"),
        lambda r: r.update(id=[1]),
        lambda r: r["frame"].update(frame_type=["Motion"]),
    ], ids=["span", "lexical-unit", "int-tokens", "string-tokens",
            "list-id", "list-frame-type"])
    def test_ill_typed_corpus_field_exit_3(self, tmp_path, capsys, edit):
        bad = good_record()
        edit(bad)
        corpus = tmp_path / "c.jsonl"
        # the ill-typed record comes second, after a valid one
        corpus.write_text(json.dumps(good_record()) + "\n"
                          + json.dumps(bad) + "\n")
        rc = main(["train", "--corpus", str(corpus),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 3
        assert "line 2" in assert_one_line_error(capsys)
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flags", [["--ckpt", "{ckpt}"],
                                       ["--config", "2l_no_att", "--cv", "2"]],
                             ids=["ckpt", "cv"])
    @pytest.mark.parametrize("edit,message", [
        (lambda r: r.pop("gold_groundings"), "{id} has no gold groundings"),
        (lambda r: r.update(map_id="cellar"), "{id}: unknown map 'cellar'")],
        ids=["no-groundings", "unknown-map"])
    def test_maps_without_chain_data_exit_3_before_any_work(
            self, workdir, overfit_ckpt, tmp_path, capsys, monkeypatch,
            flags, edit, message):
        # Chain scoring needs each sentence's gold groundings and map.
        forbid_work(monkeypatch, "load_checkpoint", "evaluate",
                    "cross_validate")
        records = [json.loads(line) for line in
                   (workdir / "corpus.jsonl").read_text().splitlines()]
        edit(records[1])
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        rc = main(["eval", "--corpus", str(corpus),
                   "--maps", str(workdir / "house.map.json")]
                  + [f.format(ckpt=overfit_ckpt) for f in flags])
        assert rc == 3
        assert (message.format(id=records[1]["id"])
                in assert_one_line_error(capsys))

    @pytest.mark.parametrize("flags", [["--ckpt", "{ckpt}"],
                                       ["--config", "2l_no_att", "--cv", "2"]],
                             ids=["ckpt", "cv"])
    def test_duplicate_map_id_exit_3_before_any_work(
            self, workdir, overfit_ckpt, tmp_path, capsys, monkeypatch,
            flags):
        # Two --maps files with one id: neither may silently win.
        forbid_work(monkeypatch, "load_checkpoint", "evaluate",
                    "cross_validate")
        first = workdir / "house.map.json"
        doc = json.loads(first.read_text())
        for entity in doc["entities"]:
            entity["lexical_refs"] = ["elsewhere"]
        copy = tmp_path / "copy.map.json"
        copy.write_text(json.dumps(doc))
        rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
                   "--maps", str(first), "--maps", str(copy)]
                  + [f.format(ckpt=overfit_ckpt) for f in flags])
        assert rc == 3
        err = assert_one_line_error(capsys)
        assert repr(doc["id"]) in err and str(first) in err
        assert str(copy) in err

    @pytest.mark.parametrize("refs", [[1], "book"])
    def test_ill_typed_lexical_refs_exit_3(self, overfit_ckpt, tmp_path,
                                           capsys, refs):
        smap = tmp_path / "m.json"
        smap.write_text(json.dumps({"id": "m", "entities": [
            {"id": "book1", "type": "Book", "lexical_refs": refs}]}))
        rc = main(["parse", overfit_ckpt, "take the book",
                   "--map", str(smap)])
        assert rc == 3
        assert "lexical_refs" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_embedding_exit_3(self, workdir, tmp_path, capsys,
                                         value):
        emb = tmp_path / "emb.txt"
        emb.write_text("go " + " ".join(["0.5"] * 7 + [value]) + "\n")
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--embeddings", str(emb), "--out", str(tmp_path / "m")]
                  + FAST_OVERRIDES)
        assert rc == 3
        assert "line 1" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("text,where", [
        ("a 1\nb 2\n", "1 values"),    # no header: 1-dim, not 8
        ("2 3\na 1 2\nb 3 4\n", "line 2"),
        ("5 2\na 1 2\n", "line 1"),
    ], ids=["no-header", "short-vectors", "missing-vectors"])
    def test_embedding_header_exit_3(self, workdir, tmp_path, capsys,
                                     monkeypatch, text, where):
        forbid_work(monkeypatch, "build_model", "train")
        emb = tmp_path / "emb.txt"
        emb.write_text(text)
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--embeddings", str(emb), "--out", str(tmp_path / "m")]
                  + FAST_OVERRIDES)       # embedding_dim=8
        assert rc == 3
        assert where in assert_one_line_error(capsys)
        assert [f.name for f in tmp_path.iterdir()] == ["emb.txt"]

    def test_embedding_dimension_mismatch_exit_3(self, workdir, tmp_path,
                                                 capsys):
        emb = tmp_path / "emb.txt"
        emb.write_text("go 0.1 0.2 0.3\nhome 0.4 0.5 0.6\n")
        rc = main(["train", "--corpus", str(workdir / "corpus.jsonl"),
                   "--embeddings", str(emb), "--out", str(tmp_path / "m")]
                  + FAST_OVERRIDES)       # embedding_dim=8
        assert rc == 3
        err = assert_one_line_error(capsys)
        assert "3 values" in err and "embedding_dim is 8" in err
        assert [f.name for f in tmp_path.iterdir()] == ["emb.txt"]


class TestCheckpointHeader:
    def rewrite_header(self, src, dst, edit, crc=False):
        """Write src with its header edited to dst; with crc, the crc32
        is recomputed as save_checkpoint computes it, so only the checks
        before it can reject the file."""
        header, payload = Path(src).read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        edit(doc)
        if crc:
            del doc["crc32"]
            head = json.dumps(doc).encode()[:-1] + b', "crc32": '
            header = head + b"%d}" % zlib.crc32(payload, zlib.crc32(head))
        else:
            header = json.dumps(doc).encode()
        dst.write_bytes(header + b"\n" + payload)
        return str(dst)

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("params"),
        lambda d: d["embeddings"].pop("dim"),
        lambda d: d["config"].update(wheels=4),
        lambda d: d["config"].update(hidden_size="16"),
        lambda d: d["config"].update(variant="4L"),
        lambda d: d["config"].update(seed=-1),
        lambda d: d.update(config=[1, 2]),
        lambda d: d["params"].append(d["params"][0]),
        lambda d: d["params"][0].__setitem__(1, [1, 1]),
        lambda d: d["params"][0].__setitem__(0, ["not", "a", "name"]),
        lambda d: d["embeddings"].update(dim="50"),
        lambda d: d["embeddings"].update(dim=49),
        lambda d: d["embeddings"]["tokens"].pop(),
        lambda d: d.pop("crc32"),
        lambda d: d.update(crc32=d["crc32"] ^ 1),
    ], ids=["no-params", "no-dim", "unknown-config-key",
            "ill-typed-config", "bad-variant", "negative-seed",
            "config-not-a-dict",
            "repeated-param", "wrong-shape", "unhashable-name",
            "dim-not-int", "dim-wrong", "token-missing", "no-crc32",
            "wrong-crc32"])
    def test_bad_header_exit_4(self, overfit_ckpt, tmp_path, capsys, edit):
        bad = self.rewrite_header(overfit_ckpt, tmp_path / "bad.ckpt", edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
        assert main(["parse", bad, "go home"]) == 4
        assert_one_line_error(capsys)

    def test_reordered_params_exit_4(self, overfit_ckpt, tmp_path, capsys):
        # The same names and shapes, ad_head.W and ad_head.b swapped: read
        # in the header's order, each would get the other's values.
        def swap(doc):
            params = doc["params"]
            assert [n for n, _ in params[:2]] == ["ad_head.W", "ad_head.b"]
            params[0], params[1] = params[1], params[0]

        bad = self.rewrite_header(overfit_ckpt, tmp_path / "swapped.ckpt",
                                  swap, crc=True)
        assert main(["parse", bad, "bring the mug to the kitchen"]) == 4
        assert "order" in assert_one_line_error(capsys)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("key,value", [("embedding_dim", 10**16),
                                           ("hidden_size", 10**15)])
    def test_config_too_large_to_build_exit_4(self, overfit_ckpt, tmp_path,
                                              capsys, key, value):
        # numpy refuses the model's first array outright, allocating
        # nothing.
        bad = self.rewrite_header(overfit_ckpt, tmp_path / "huge.ckpt",
                                  lambda d: d["config"].update({key: value}),
                                  crc=True)
        assert main(["parse", bad, "go home"]) == 4
        assert "too large" in assert_one_line_error(capsys)

    def test_edited_config_is_rejected_without_touching_its_weights(
            self, overfit_ckpt, tmp_path):
        # hidden_size 1000 asks for about 200 MB of weights and their
        # gradients. The listing check rejects it before that memory is
        # written, so the load peaks where an unedited one does. Each
        # load is a child process, whose peak RSS os.wait4 reports.
        wide = self.rewrite_header(
            overfit_ckpt, tmp_path / "wide.ckpt",
            lambda d: d["config"].update(hidden_size=1000), crc=True)
        code = ("import sys\n"
                "from framecmd.model import CheckpointError, load_checkpoint\n"
                "try:\n    load_checkpoint(sys.argv[1])\n"
                "except CheckpointError:\n    sys.exit(4)\n")

        def load(path):
            pid = os.posix_spawn(sys.executable,
                                 [sys.executable, "-c", code, path],
                                 {**os.environ, "PYTHONPATH": SRC})
            _, status, usage = os.wait4(pid, 0)
            return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024

        (ok, ok_mb), (bad, bad_mb) = load(overfit_ckpt), load(wide)
        assert (ok, bad) == (0, 4)
        assert bad_mb < ok_mb + 16, (ok_mb, bad_mb)

    def test_version_only_header_exit_4(self, tmp_path, capsys):
        path = tmp_path / "v.ckpt"
        path.write_bytes(b'{"format_version":1}\n')
        assert main(["parse", str(path), "go home"]) == 4
        assert_one_line_error(capsys)

    def test_format_1_checkpoint_exit_4(self, overfit_bundle, tmp_path,
                                        capsys):
        # Written as format 1 was: every LSTM gate its own parameter,
        # <stream>.W_<gate> (U_, b_), all sorted by name.
        model, table = overfit_bundle["model"], overfit_bundle["table"]
        streams = {"layer1": ["layer1.fwd", "layer1.bwd"],
                   "layer2.cell": ["layer2.cell"],
                   "layer3.cell": ["layer3.cell"]}
        params = []
        for p in model.parameters():
            prefix, part = p.name.rsplit(".", 1)
            if prefix not in streams:
                params.append((p.name, p.data))
                continue
            per_stream = p.data.reshape(
                (-1,) + p.data.shape[-1 if part == "b" else -2:])
            for stream, stacked in zip(streams[prefix], per_stream):
                params += [(f"{stream}.{part}_{gate}", block) for gate, block
                           in zip("ifog", np.split(stacked, 4))]
        params.sort(key=lambda kv: kv[0])
        tokens = sorted(table.vectors)
        header = {"format_version": 1, "config": asdict(model.config),
                  "vocab": {"frames": list(model.vocab.frames),
                            "element_types": list(model.vocab.element_types)},
                  "params": [[n, list(a.shape)] for n, a in params],
                  "embeddings": {"dim": table.dim, "tokens": tokens}}
        path = tmp_path / "v1.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n" + b"".join(
            a.astype("<f8").tobytes() for a in
            [a for _, a in params] + [table.vectors[t] for t in tokens]
            + [table.unk_vector]))
        assert main(["parse", str(path), "go home"]) == 4
        err = assert_one_line_error(capsys)
        assert "format 1" in err and "retrain" in err

    def test_format_2_checkpoint_exit_4(self, overfit_ckpt, tmp_path,
                                        capsys):
        # Format 2 is format 4 without a crc32.
        def as_format_2(doc):
            doc["format_version"] = 2
            del doc["crc32"]

        old = self.rewrite_header(overfit_ckpt, tmp_path / "v2.ckpt",
                                  as_format_2)
        assert main(["parse", old, "go home"]) == 4
        err = assert_one_line_error(capsys)
        assert "format 2" in err and "retrain" in err

    def test_format_3_checkpoint_exit_4(self, overfit_ckpt, tmp_path,
                                        capsys):
        # Format 3's crc32 covered the payload only.
        payload = Path(overfit_ckpt).read_bytes().split(b"\n", 1)[1]

        def as_format_3(doc):
            doc["format_version"] = 3
            del doc["crc32"]
            doc["payload_crc32"] = zlib.crc32(payload)

        old = self.rewrite_header(overfit_ckpt, tmp_path / "v3.ckpt",
                                  as_format_3)
        assert main(["parse", old, "go home"]) == 4
        err = assert_one_line_error(capsys)
        assert "format 3" in err and "retrain" in err

    def test_non_object_header_exit_4(self, tmp_path, capsys):
        path = tmp_path / "n.ckpt"
        path.write_bytes(b"5\n")
        assert main(["parse", str(path), "go home"]) == 4
        assert_one_line_error(capsys)

    def test_unchanged_header_still_loads(self, overfit_ckpt, tmp_path):
        same = self.rewrite_header(overfit_ckpt, tmp_path / "same.ckpt",
                                   lambda d: None)
        load_checkpoint(same)

    def test_recomputed_crc32_loads(self, overfit_ckpt, tmp_path):
        # So that the crc=True cases above fail on their edit alone.
        same = self.rewrite_header(overfit_ckpt, tmp_path / "same.ckpt",
                                   lambda d: None, crc=True)
        load_checkpoint(same)


class TestFlagsPerCommand:
    @pytest.mark.parametrize("argv", [
        ["parse", "m.ckpt", "go", "--seed", "9"],
        ["parse", "m.ckpt", "go", "--jobs", "2"],
        ["parse", "m.ckpt", "go", "--out", "x.json"],
        ["gradcheck", "--jobs", "2"],
        ["gradcheck", "--out", "x.json"],
        ["train", "--corpus", "c.jsonl", "--jobs", "2"],
        ["train", "--corpus", "c.jsonl", "--seed", "9"],
        ["eval", "--corpus", "c.jsonl", "--seed", "9"],
        ["gen-corpus", "--n", "3", "--jobs", "2"],
    ])
    def test_unread_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,code", [
        (["train"], 2),
        (["bogus"], 2),
        (["gradcheck", "--eps", "1\n2"], 2),
        (["train", "--corpus", "no\nsuch\u2028file"], 3),
        (["gen-corpus", "--n", "1", "--out", ""], 2),
        (["gradcheck", "--corrupt"], 2)])
    def test_an_error_is_one_line(self, argv, code, capsys):
        # No usage text, a line break quoted from an argument is shown
        # escaped, and an empty --out is refused before the map path is
        # derived from it.
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == code
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_eval_ckpt_with_maps_parses_each_sentence_once(workdir, overfit_ckpt,
                                                        predict_calls,
                                                        capsys):
    rc = main(["eval", "--corpus", str(workdir / "corpus.jsonl"),
               "--ckpt", overfit_ckpt,
               "--maps", str(workdir / "house.map.json")])
    assert rc == 0
    corpus = [json.loads(line) for line in
              (workdir / "corpus.jsonl").read_text().splitlines()]
    assert sorted(predict_calls) == sorted(tuple(r["tokens"]) for r in corpus)
    assert "Whole Chain" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "framecmd", "gen-corpus", "--n", "3",
         "--out", str(tmp_path / "s.jsonl")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "wrote 3 sentences" in proc.stdout


def test_console_script_help():
    proc = subprocess.run(["framecmd", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout and "gradcheck" in proc.stdout
